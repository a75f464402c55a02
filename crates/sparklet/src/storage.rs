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
    /// Virtual bytes of the records' values, as the writer measured them
    /// (`write_shuffle`'s `value_size`): the reduce side charges its
    /// aggregation from it before it decodes a record. 0 for an RDD block.
    pub value_bytes: u64,
}

/// Per-executor block store. Nothing is evicted and no capacity is
/// modelled: the paper's executors hold 120 GB (§VII-C), which no benchmark
/// run comes near.
///
/// A map task's shuffle output is one entry, its blocks in reduce order, as
/// Spark's `IndexShuffleBlockResolver` keeps one data file plus an index per
/// map task: a shuffle block is found by its map output, then by position.
#[derive(Default)]
pub struct BlockManager {
    /// Shuffle map outputs by `(shuffle_id, map_id)`; block `reduce_id` of
    /// an output is its element `reduce_id`.
    map_outputs: Mutex<BTreeMap<(u32, u32), Vec<StoredBlock>>>,
    /// RDD blocks by `(rdd_id, partition)`.
    rdd_blocks: Mutex<BTreeMap<(u64, u32), StoredBlock>>,
    /// Typed in-memory cache for `Rdd::cache()` partitions: values are
    /// `Arc<Vec<T>>` behind `Any`.
    cache: Mutex<BTreeMap<(u64, u32), Arc<dyn Any + Send + Sync>>>,
}

impl BlockManager {
    /// Store map task `map_id`'s output of shuffle `shuffle_id`, one block
    /// per reduce partition in reduce order, replacing any earlier output of
    /// the same task.
    pub fn put_map_output(&self, shuffle_id: u32, map_id: u32, blocks: Vec<StoredBlock>) {
        self.map_outputs.lock().insert((shuffle_id, map_id), blocks);
    }

    /// Store an RDD block, replacing any previous content under the same id.
    pub fn put_rdd(&self, rdd_id: u64, partition: u32, block: StoredBlock) {
        self.rdd_blocks.lock().insert((rdd_id, partition), block);
    }

    /// Fetch a block.
    pub fn get(&self, id: BlockId) -> Option<StoredBlock> {
        match id {
            BlockId::Shuffle { shuffle_id, map_id, reduce_id } => self
                .map_outputs
                .lock()
                .get(&(shuffle_id, map_id))
                .and_then(|blocks| blocks.get(reduce_id as usize))
                .cloned(),
            BlockId::Rdd { rdd_id, partition } => {
                self.rdd_blocks.lock().get(&(rdd_id, partition)).cloned()
            }
        }
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
        StoredBlock { data: Bytes::from_static(b"x"), virtual_len: v, records: 1, value_bytes: 0 }
    }

    #[test]
    fn replacement_adjusts_accounting() {
        // A put under an id already stored replaces that block: a get
        // afterwards sees only the latest one.
        let bm = BlockManager::default();
        let id = BlockId::Rdd { rdd_id: 1, partition: 0 };
        assert!(bm.get(id).is_none());
        bm.put_rdd(1, 0, blk(100));
        assert_eq!(bm.get(id).unwrap().virtual_len, 100);
        bm.put_rdd(1, 0, blk(40));
        assert_eq!(bm.get(id).unwrap().virtual_len, 40);
    }

    #[test]
    fn a_map_output_serves_its_blocks_by_reduce_id() {
        let bm = BlockManager::default();
        bm.put_map_output(3, 1, vec![blk(10), blk(11), blk(12)]);
        bm.put_map_output(3, 2, vec![blk(20)]);
        let shuffle = |map_id, reduce_id| BlockId::Shuffle { shuffle_id: 3, map_id, reduce_id };
        for (reduce_id, want) in [10, 11, 12].into_iter().enumerate() {
            assert_eq!(bm.get(shuffle(1, reduce_id as u32)).unwrap().virtual_len, want);
        }
        assert_eq!(bm.get(shuffle(2, 0)).unwrap().virtual_len, 20);
        // A reduce id past the output's end, a map output never stored, and
        // another shuffle's id are all absent.
        assert!(bm.get(shuffle(1, 3)).is_none());
        assert!(bm.get(shuffle(0, 0)).is_none());
        assert!(bm.get(BlockId::Shuffle { shuffle_id: 4, map_id: 1, reduce_id: 0 }).is_none());
        // Nor does a shuffle output answer for an RDD block, or the reverse.
        assert!(bm.get(BlockId::Rdd { rdd_id: 3, partition: 1 }).is_none());
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
