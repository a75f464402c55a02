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

/// Per-executor block store.
pub struct BlockManager {
    blocks: Mutex<BTreeMap<BlockId, StoredBlock>>,
    /// Typed in-memory cache for `Rdd::cache()` partitions: values are
    /// `Arc<Vec<T>>` behind `Any`.
    cache: Mutex<BTreeMap<(u64, u32), Arc<dyn Any + Send + Sync>>>,
    stored_virtual: Mutex<u64>,
    capacity_virtual: u64,
}

impl BlockManager {
    /// A block manager with `capacity_gb` GiB of virtual capacity.
    pub fn new(capacity_gb: u32) -> Self {
        BlockManager {
            blocks: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(BTreeMap::new()),
            stored_virtual: Mutex::new(0),
            capacity_virtual: u64::from(capacity_gb) << 30,
        }
    }

    /// Store a block, replacing any previous content under the same id.
    /// Returns `false` when the store exceeds its virtual capacity (callers
    /// may treat that as an OOM-to-disk spill point; the benchmarks size
    /// executors so it never triggers, as the paper's 120 GB configs do).
    pub fn put(&self, id: BlockId, block: StoredBlock) -> bool {
        let mut total = self.stored_virtual.lock();
        let mut blocks = self.blocks.lock();
        if let Some(old) = blocks.remove(&id) {
            *total -= old.virtual_len;
        }
        *total += block.virtual_len;
        blocks.insert(id, block);
        *total <= self.capacity_virtual
    }

    /// Fetch a block.
    pub fn get(&self, id: BlockId) -> Option<StoredBlock> {
        self.blocks.lock().get(&id).cloned()
    }

    /// Remove a block, returning whether it existed.
    pub fn remove(&self, id: BlockId) -> bool {
        let mut blocks = self.blocks.lock();
        if let Some(b) = blocks.remove(&id) {
            *self.stored_virtual.lock() -= b.virtual_len;
            true
        } else {
            false
        }
    }

    /// Drop all blocks of one shuffle (post-job cleanup).
    pub fn remove_shuffle(&self, shuffle: u32) {
        let mut blocks = self.blocks.lock();
        let mut total = self.stored_virtual.lock();
        blocks.retain(|id, b| match id {
            BlockId::Shuffle { shuffle_id, .. } if *shuffle_id == shuffle => {
                *total -= b.virtual_len;
                false
            }
            _ => true,
        });
    }

    /// Total virtual bytes stored.
    pub fn stored_virtual(&self) -> u64 {
        *self.stored_virtual.lock()
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.lock().len()
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

    /// True when the typed cache holds this partition.
    pub fn cache_contains(&self, rdd_id: u64, partition: u32) -> bool {
        self.cache.lock().contains_key(&(rdd_id, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(v: u64) -> StoredBlock {
        StoredBlock { data: Bytes::from_static(b"x"), virtual_len: v, records: 1 }
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let bm = BlockManager::new(1);
        let id = BlockId::Shuffle { shuffle_id: 1, map_id: 2, reduce_id: 3 };
        assert!(bm.put(id, blk(100)));
        assert_eq!(bm.get(id).unwrap().virtual_len, 100);
        assert_eq!(bm.stored_virtual(), 100);
        assert!(bm.remove(id));
        assert!(!bm.remove(id));
        assert_eq!(bm.stored_virtual(), 0);
    }

    #[test]
    fn replacement_adjusts_accounting() {
        let bm = BlockManager::new(1);
        let id = BlockId::Rdd { rdd_id: 1, partition: 0 };
        bm.put(id, blk(100));
        bm.put(id, blk(40));
        assert_eq!(bm.stored_virtual(), 40);
        assert_eq!(bm.block_count(), 1);
    }

    #[test]
    fn capacity_overflow_is_reported() {
        let bm = BlockManager::new(1); // 1 GiB
        let id = BlockId::Rdd { rdd_id: 1, partition: 0 };
        assert!(!bm.put(id, blk(2 << 30)));
    }

    #[test]
    fn remove_shuffle_only_touches_that_shuffle() {
        let bm = BlockManager::new(1);
        bm.put(BlockId::Shuffle { shuffle_id: 1, map_id: 0, reduce_id: 0 }, blk(10));
        bm.put(BlockId::Shuffle { shuffle_id: 2, map_id: 0, reduce_id: 0 }, blk(20));
        bm.put(BlockId::Rdd { rdd_id: 9, partition: 0 }, blk(30));
        bm.remove_shuffle(1);
        assert_eq!(bm.block_count(), 2);
        assert_eq!(bm.stored_virtual(), 50);
    }

    #[test]
    fn typed_cache_roundtrip() {
        let bm = BlockManager::new(1);
        bm.cache_put(5, 0, Arc::new(vec![1u64, 2, 3]));
        assert!(bm.cache_contains(5, 0));
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
