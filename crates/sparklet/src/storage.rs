//! Block storage: `BlockId`, the per-executor `BlockManager`, and the typed
//! RDD cache.
//!
//! Shuffle map outputs live here between the write and read stages (the
//! paper's clusters keep them on a RAM disk — §VII-C — so memory residency
//! is faithful). The typed cache backs `Rdd::cache()`: job 0 of the OHB
//! benchmarks generates and caches data that job 1's shuffle-map stage then
//! reads (paper Fig. 10 stage naming).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use simt::sync::Mutex;

/// Identifies a stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockId {
    /// Output of shuffle `shuffle_id`'s map task `map_id` destined for
    /// reduce partition `reduce_id` (Spark's `shuffle_X_Y_Z`).
    Shuffle {
        /// The shuffle.
        shuffle_id: u32,
        /// Map partition that produced the block.
        map_id: u32,
        /// Reduce partition the block belongs to.
        reduce_id: u32,
    },
    /// A cached RDD partition (Spark's `rdd_X_Y`).
    Rdd {
        /// The RDD.
        rdd_id: u64,
        /// The partition.
        partition: u32,
    },
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockId::Shuffle { shuffle_id, map_id, reduce_id } => {
                write!(f, "shuffle_{shuffle_id}_{map_id}_{reduce_id}")
            }
            BlockId::Rdd { rdd_id, partition } => write!(f, "rdd_{rdd_id}_{partition}"),
        }
    }
}

/// A stored block: real encoded bytes plus the virtual size cost models use.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// Encoded data.
    pub data: Bytes,
    /// Virtual byte count.
    pub virtual_len: u64,
    /// Number of records encoded (metrics & cost accounting).
    pub records: u64,
}

/// Per-executor block store. Nothing is evicted and no capacity is
/// modelled: the paper's executors hold 120 GB (§VII-C), which no benchmark
/// run comes near.
#[derive(Default)]
pub struct BlockManager {
    blocks: Mutex<BTreeMap<BlockId, StoredBlock>>,
    /// Typed in-memory cache for `Rdd::cache()` partitions: values are
    /// `Arc<Vec<T>>` behind `Any`.
    cache: Mutex<BTreeMap<(u64, u32), Arc<dyn Any + Send + Sync>>>,
}

impl BlockManager {
    /// Store a block, replacing any previous content under the same id.
    pub fn put(&self, id: BlockId, block: StoredBlock) {
        self.blocks.lock().insert(id, block);
    }

    /// Fetch a block.
    pub fn get(&self, id: BlockId) -> Option<StoredBlock> {
        self.blocks.lock().get(&id).cloned()
    }

    /// Store a typed cached partition.
    pub fn cache_put<T: Send + Sync + 'static>(
        &self,
        rdd_id: u64,
        partition: u32,
        data: Arc<Vec<T>>,
    ) {
        self.cache.lock().insert((rdd_id, partition), data);
    }

    /// Fetch a typed cached partition.
    pub fn cache_get<T: Send + Sync + 'static>(
        &self,
        rdd_id: u64,
        partition: u32,
    ) -> Option<Arc<Vec<T>>> {
        self.cache
            .lock()
            .get(&(rdd_id, partition))
            .cloned()
            .and_then(|v| v.downcast::<Vec<T>>().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(v: u64) -> StoredBlock {
        StoredBlock { data: Bytes::from_static(b"x"), virtual_len: v, records: 1 }
    }

    #[test]
    fn replacement_adjusts_accounting() {
        // A put under an id already stored replaces that block: a get
        // afterwards sees only the latest one.
        let bm = BlockManager::default();
        let id = BlockId::Rdd { rdd_id: 1, partition: 0 };
        assert!(bm.get(id).is_none());
        bm.put(id, blk(100));
        assert_eq!(bm.get(id).unwrap().virtual_len, 100);
        bm.put(id, blk(40));
        assert_eq!(bm.get(id).unwrap().virtual_len, 40);
    }

    #[test]
    fn typed_cache_roundtrip() {
        let bm = BlockManager::default();
        bm.cache_put(5, 0, Arc::new(vec![1u64, 2, 3]));
        let v = bm.cache_get::<u64>(5, 0).unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
        // Wrong type yields None, not a panic.
        assert!(bm.cache_get::<String>(5, 0).is_none());
        assert!(bm.cache_get::<u64>(5, 1).is_none());
    }

    #[test]
    fn block_id_display() {
        assert_eq!(
            BlockId::Shuffle { shuffle_id: 3, map_id: 1, reduce_id: 7 }.to_string(),
            "shuffle_3_1_7"
        );
        assert_eq!(BlockId::Rdd { rdd_id: 2, partition: 9 }.to_string(), "rdd_2_9");
    }
}
