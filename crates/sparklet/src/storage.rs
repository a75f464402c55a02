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

use crate::data::{encode_batch, BATCH_HEADER_LEN};

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

/// One non-empty bucket of a map task's output: what its `MapStatus` reports
/// and its [`MapOutput`] serves, one shared allocation for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSize {
    /// Reduce partition the bucket belongs to.
    pub reduce_id: u32,
    /// Records in the bucket, never 0 (the batch format counts them in a
    /// `u32`).
    pub records: u32,
    /// Virtual bytes of the bucket.
    pub size: u64,
}

/// A map task's shuffle output, as Spark's `IndexShuffleBlockResolver` keeps
/// one data file plus an index per map task: the sizes of its non-empty
/// buckets, shared with its `MapStatus`, and their bytes and value bytes. An
/// empty bucket has no entry and no allocation.
#[derive(Debug)]
pub struct MapOutput {
    num_reduces: u32,
    sizes: Arc<[BlockSize]>,
    /// `blocks[i]` holds bucket `sizes[i]`.
    blocks: Vec<KeptBlock>,
}

/// The stored bytes of one non-empty bucket of a [`MapOutput`].
#[derive(Debug)]
pub struct KeptBlock {
    /// Encoded data.
    pub data: Bytes,
    /// Virtual bytes of the records' values ([`StoredBlock::value_bytes`]).
    pub value_bytes: u64,
}

impl MapOutput {
    /// The output of `num_reduces` buckets whose non-empty ones are `sizes`,
    /// ascending by reduce id, and `blocks[i]` holds bucket `sizes[i]`.
    pub fn new(num_reduces: usize, sizes: Arc<[BlockSize]>, blocks: Vec<KeptBlock>) -> Self {
        assert_eq!(sizes.len(), blocks.len(), "one kept block per non-empty bucket");
        assert!(sizes.windows(2).all(|w| w[0].reduce_id < w[1].reduce_id), "buckets unsorted");
        assert!(
            sizes.iter().all(|b| b.records > 0 && (b.reduce_id as usize) < num_reduces),
            "a listed bucket is in range and holds records"
        );
        MapOutput { num_reduces: num_reduces as u32, sizes, blocks }
    }

    /// The non-empty buckets, ascending by reduce id (the `MapStatus`'s list).
    pub fn sizes(&self) -> &Arc<[BlockSize]> {
        &self.sizes
    }

    /// The non-empty buckets' bytes, in the order of [`MapOutput::sizes`].
    pub fn blocks(&self) -> &[KeptBlock] {
        &self.blocks
    }

    /// Block `reduce_id`; an empty one is `empty`, the zero-count batch.
    fn block(&self, reduce_id: u32, empty: &Bytes) -> Option<StoredBlock> {
        if reduce_id >= self.num_reduces {
            return None;
        }
        let block = match self.sizes.binary_search_by_key(&reduce_id, |b| b.reduce_id) {
            Ok(i) => StoredBlock {
                data: self.blocks[i].data.clone(),
                virtual_len: self.sizes[i].size,
                records: self.sizes[i].records.into(),
                value_bytes: self.blocks[i].value_bytes,
            },
            Err(_) => StoredBlock {
                data: empty.clone(),
                virtual_len: BATCH_HEADER_LEN,
                records: 0,
                value_bytes: 0,
            },
        };
        Some(block)
    }
}

/// Per-executor block store. Nothing is evicted and no capacity is
/// modelled: the paper's executors hold 120 GB (§VII-C), which no benchmark
/// run comes near.
///
/// A map task's shuffle output is one [`MapOutput`]: a shuffle block is found
/// by its map output, then by reduce id.
pub struct BlockManager {
    /// Shuffle map outputs by `(shuffle_id, map_id)`.
    map_outputs: Mutex<BTreeMap<(u32, u32), Arc<MapOutput>>>,
    /// The zero-count batch every empty shuffle block reads as, held once.
    empty_block: Bytes,
    /// RDD blocks by `(rdd_id, partition)`.
    rdd_blocks: Mutex<BTreeMap<(u64, u32), StoredBlock>>,
    /// Typed in-memory cache for `Rdd::cache()` partitions: values are
    /// `Arc<Vec<T>>` behind `Any`.
    cache: Mutex<BTreeMap<(u64, u32), Arc<dyn Any + Send + Sync>>>,
}

impl Default for BlockManager {
    fn default() -> Self {
        BlockManager {
            map_outputs: Mutex::default(),
            empty_block: encode_batch::<u64>(&[]).0,
            rdd_blocks: Mutex::default(),
            cache: Mutex::default(),
        }
    }
}

impl BlockManager {
    /// Store map task `map_id`'s output of shuffle `shuffle_id`, replacing
    /// any earlier output of the same task.
    pub fn put_map_output(&self, shuffle_id: u32, map_id: u32, output: MapOutput) {
        self.map_outputs.lock().insert((shuffle_id, map_id), Arc::new(output));
    }

    /// Drop every map output of shuffles `ids`, which the driver cleaned.
    pub fn remove_shuffles(&self, ids: &[u32]) {
        self.map_outputs.lock().retain(|(shuffle_id, _), _| !ids.contains(shuffle_id));
    }

    /// The shuffles with a map output stored here, ascending.
    pub fn shuffle_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.map_outputs.lock().keys().map(|&(s, _)| s).collect();
        ids.dedup();
        ids
    }

    /// Map task `map_id`'s stored output of shuffle `shuffle_id`.
    pub fn map_output(&self, shuffle_id: u32, map_id: u32) -> Option<Arc<MapOutput>> {
        self.map_outputs.lock().get(&(shuffle_id, map_id)).cloned()
    }

    /// Store an RDD block, replacing any previous content under the same id.
    pub fn put_rdd(&self, rdd_id: u64, partition: u32, block: StoredBlock) {
        self.rdd_blocks.lock().insert((rdd_id, partition), block);
    }

    /// Fetch a block. An empty shuffle block is the zero-count batch, one
    /// buffer shared by every empty block of this manager.
    pub fn get(&self, id: BlockId) -> Option<StoredBlock> {
        match id {
            BlockId::Shuffle { shuffle_id, map_id, reduce_id } => self
                .map_outputs
                .lock()
                .get(&(shuffle_id, map_id))
                .and_then(|output| output.block(reduce_id, &self.empty_block)),
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

    /// A map output of `reduces` buckets, of which bucket `r` in `non_empty`
    /// holds `n` records of 8 bytes; each non-empty bucket's data is one byte.
    fn output(reduces: usize, non_empty: &[(u32, u32)]) -> MapOutput {
        let sizes: Vec<BlockSize> = non_empty
            .iter()
            .map(|&(reduce_id, records)| BlockSize {
                reduce_id,
                records,
                size: 4 + 8 * u64::from(records),
            })
            .collect();
        let blocks = sizes
            .iter()
            .map(|b| KeptBlock {
                data: Bytes::from(vec![b.reduce_id as u8]),
                value_bytes: 2 * u64::from(b.reduce_id),
            })
            .collect();
        MapOutput::new(reduces, sizes.into(), blocks)
    }

    #[test]
    fn a_map_output_serves_its_blocks_by_reduce_id() {
        let bm = BlockManager::default();
        bm.put_map_output(3, 1, output(3, &[(0, 1), (1, 2), (2, 3)]));
        bm.put_map_output(3, 2, output(1, &[(0, 4)]));
        let shuffle = |map_id, reduce_id| BlockId::Shuffle { shuffle_id: 3, map_id, reduce_id };
        for (reduce_id, want) in [12, 20, 28].into_iter().enumerate() {
            let block = bm.get(shuffle(1, reduce_id as u32)).unwrap();
            assert_eq!((block.virtual_len, block.value_bytes), (want, 2 * reduce_id as u64));
            assert_eq!(block.records, reduce_id as u64 + 1);
            assert_eq!(&block.data[..], &[reduce_id as u8]);
        }
        assert_eq!(bm.get(shuffle(2, 0)).unwrap().virtual_len, 36);
        // A reduce id past the output's end, a map output never stored, and
        // another shuffle's id are all absent.
        assert!(bm.get(shuffle(1, 3)).is_none());
        assert!(bm.get(shuffle(0, 0)).is_none());
        assert!(bm.get(BlockId::Shuffle { shuffle_id: 4, map_id: 1, reduce_id: 0 }).is_none());
        // Nor does a shuffle output answer for an RDD block, or the reverse.
        assert!(bm.get(BlockId::Rdd { rdd_id: 3, partition: 1 }).is_none());
    }

    #[test]
    fn a_map_output_keeps_only_its_non_empty_buckets() {
        const BUCKETS: u32 = 224;
        let bm = BlockManager::default();
        let written = output(BUCKETS as usize, &[(5, 3), (100, 1), (223, 7)]);
        let status = written.sizes().clone();
        bm.put_map_output(0, 0, written);
        let stored = bm.map_output(0, 0).unwrap();
        assert_eq!((stored.sizes().len(), stored.blocks().len()), (3, 3));
        assert!(Arc::ptr_eq(stored.sizes(), &status), "the status's list, not a copy");
        let get = |reduce_id| bm.get(BlockId::Shuffle { shuffle_id: 0, map_id: 0, reduce_id });
        // Two empty blocks: a zero-count header, one buffer for both.
        let (a, b) = (get(0).unwrap(), get(222).unwrap());
        for empty in [&a, &b] {
            assert_eq!((empty.records, empty.virtual_len, empty.value_bytes), (0, 4, 0));
            assert_eq!(&empty.data[..], &[0; 4]);
        }
        assert_eq!(a.data.as_ptr(), b.data.as_ptr(), "one shared header");
        // A non-empty block is the stored allocation, with its own counts.
        let kept = get(100).unwrap();
        assert_eq!(kept.data.as_ptr(), stored.blocks()[1].data.as_ptr());
        assert_eq!((kept.records, kept.virtual_len, kept.value_bytes), (1, 12, 200));
        assert_eq!(get(223).unwrap().records, 7, "the last bucket");
        assert!(get(BUCKETS).is_none());
    }

    #[test]
    fn removing_a_shuffle_drops_all_its_map_outputs_and_no_other() {
        let bm = BlockManager::default();
        for (shuffle, map) in [(1, 0), (2, 0), (2, 5), (3, 1)] {
            bm.put_map_output(shuffle, map, output(2, &[(0, 1)]));
        }
        assert_eq!(bm.shuffle_ids(), vec![1, 2, 3]);
        bm.remove_shuffles(&[2, 7]);
        assert_eq!(bm.shuffle_ids(), vec![1, 3]);
        assert!(bm.map_output(2, 5).is_none());
        assert!(bm.map_output(3, 1).is_some());
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
