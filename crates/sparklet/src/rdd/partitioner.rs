//! Partitioners: hash (groupBy/reduceBy/join) and range (sortByKey).

use std::hash::{Hash, Hasher};

/// Maps keys to reduce partitions.
pub trait Partitioner<K>: Send + Sync + 'static {
    /// Number of reduce partitions.
    fn num_partitions(&self) -> usize;
    /// Partition of `key`; must be `< num_partitions()`.
    fn partition(&self, key: &K) -> usize;
}

/// Spark's `HashPartitioner`.
pub struct HashPartitioner {
    parts: usize,
}

impl HashPartitioner {
    /// Hash partitioner over `parts` partitions.
    pub fn new(parts: usize) -> Self {
        assert!(parts > 0, "need at least one partition");
        HashPartitioner { parts }
    }
}

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn num_partitions(&self) -> usize {
        self.parts
    }

    #[inline]
    fn partition(&self, key: &K) -> usize {
        let mut h = SipHasher13::default();
        key.hash(&mut h);
        (h.finish() % self.parts as u64) as usize
    }
}

/// SipHash-1-3 with zero keys: the hash every shuffle partition depends on,
/// so it is specified here rather than left to `DefaultHasher`, whose
/// algorithm std does not promise across releases. Message words load
/// little-endian, and integers hash as their little-endian bytes (`usize` as
/// 8), so a key partitions alike on every host; on a 64-bit little-endian
/// host this equals today's `DefaultHasher::new()` bit for bit.
#[derive(Clone)]
struct SipHasher13 {
    v: [u64; 4],
    /// Message bytes not yet compressed (fewer than 8), little-endian.
    tail: u64,
    ntail: usize,
    /// Message bytes written.
    length: u64,
}

impl Default for SipHasher13 {
    fn default() -> Self {
        // The initialisation constants, xor-ed with the zero key.
        let v = [
            0x736f_6d65_7073_6575,
            0x646f_7261_6e64_6f6d,
            0x6c79_6765_6e65_7261,
            0x7465_6462_7974_6573,
        ];
        SipHasher13 { v, tail: 0, ntail: 0, length: 0 }
    }
}

impl SipHasher13 {
    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Absorb one message word (one compression round).
    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }
}

/// Up to 8 bytes as a little-endian word.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl Hasher for SipHasher13 {
    #[inline]
    fn write(&mut self, mut msg: &[u8]) {
        self.length += msg.len() as u64;
        if self.ntail > 0 {
            let (head, rest) = msg.split_at(msg.len().min(8 - self.ntail));
            self.tail |= le_word(head) << (8 * self.ntail);
            self.ntail += head.len();
            msg = rest;
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
        }
        let mut words = msg.chunks_exact(8);
        for word in &mut words {
            self.compress(le_word(word));
        }
        self.tail = le_word(words.remainder());
        self.ntail = words.remainder().len();
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    /// A whole word at once when no tail is pending (every `u64` key).
    #[inline]
    fn write_u64(&mut self, i: u64) {
        if self.ntail > 0 {
            return self.write(&i.to_le_bytes());
        }
        self.length += 8;
        self.compress(i);
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.clone();
        let b = (self.length & 0xff) << 56 | self.tail;
        h.compress(b);
        h.v[2] ^= 0xff;
        (0..3).for_each(|_| h.round());
        h.v.iter().fold(0, |acc, v| acc ^ v)
    }
}

/// Spark's `RangePartitioner`: keys ≤ `bounds[i]` go to partition `i`;
/// larger keys to the last partition. Built from a sampled key set by
/// `sort_by_key` (the sampling job is the extra job the paper's SortByTest
/// breakdown shows).
pub struct RangePartitioner<K> {
    bounds: Vec<K>,
}

impl<K: Ord + Clone> RangePartitioner<K> {
    /// Build bounds from a sample: `parts - 1` quantile split points.
    pub fn from_sample(mut sample: Vec<K>, parts: usize) -> Self {
        assert!(parts > 0, "need at least one partition");
        sample.sort();
        let mut bounds = Vec::with_capacity(parts.saturating_sub(1));
        if !sample.is_empty() {
            for i in 1..parts {
                let idx = (i * sample.len()) / parts;
                bounds.push(sample[idx.min(sample.len() - 1)].clone());
            }
        }
        bounds.dedup();
        RangePartitioner { bounds }
    }

    /// The split points.
    pub fn bounds(&self) -> &[K] {
        &self.bounds
    }

    /// Total partitions (bounds + 1).
    pub fn parts(&self) -> usize {
        self.bounds.len() + 1
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> Partitioner<K> for RangePartitioner<K> {
    fn num_partitions(&self) -> usize {
        self.bounds.len() + 1
    }

    fn partition(&self, key: &K) -> usize {
        match self.bounds.binary_search(key) {
            Ok(i) => i,
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_covers_and_is_deterministic() {
        let p = HashPartitioner::new(7);
        for k in 0u64..1000 {
            let a = Partitioner::<u64>::partition(&p, &k);
            let b = Partitioner::<u64>::partition(&p, &k);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    fn sip<K: Hash + ?Sized>(key: &K) -> u64 {
        let mut h = SipHasher13::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Keys of the six shapes the workloads partition on, over `0..100_000`,
    /// hash as `DefaultHasher` did when the ledger was recorded. Strings and
    /// byte vectors run over lengths 0 to 22, so every tail length is hit
    /// and writes straddle word boundaries.
    #[test]
    fn siphash_equals_the_std_hasher_the_ledger_was_recorded_with() {
        fn std_hash<K: Hash>(key: &K) -> u64 {
            let mut h = std::hash::DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        }
        for i in 0u64..100_000 {
            assert_eq!(sip(&i), std_hash(&i), "u64 {i}");
            assert_eq!(sip(&(i as u32)), std_hash(&(i as u32)), "u32 {i}");
            let signed = (i as i64).wrapping_mul(-0x9e37_79b9);
            assert_eq!(sip(&signed), std_hash(&signed), "i64 {signed}");
            let pair = (i.wrapping_mul(0x2545_f491), i as u8);
            assert_eq!(sip(&pair), std_hash(&pair), "pair {pair:?}");
            let text: String = format!("k{i}").repeat(1 + (i % 5) as usize);
            assert_eq!(sip(&text), std_hash(&text), "string {text}");
            let raw: Vec<u8> = (0..i % 23).map(|j| (i * 31 + j) as u8).collect();
            assert_eq!(sip(&raw), std_hash(&raw), "bytes {raw:?}");
        }
    }

    /// Golden values: the hash is pinned by its specification, whatever a
    /// later std does.
    #[test]
    fn siphash_golden_values() {
        assert_eq!(sip(&0u64), 0xbd60_acb6_58c7_9e45);
        assert_eq!(sip(&1u64), 0x1e9f_7341_61d6_2dd9);
        assert_eq!(sip(&u64::MAX), 0x2f20_5be2_fec8_e38d);
        assert_eq!(sip(&-1i64), 0x2f20_5be2_fec8_e38d); // signed keys hash as their bits
        assert_eq!(sip(&7u32), 0xc123_1798_07bd_2fea);
        assert_eq!(sip(&(42u64, 3u8)), 0x0ba8_eaa8_da1a_6f2a);
        assert_eq!(sip(""), 0x3040_6ea5_23c5_3def);
        assert_eq!(sip("shuffle_0_1_2"), 0x25a3_fe25_8cdb_1ef0);
        assert_eq!(sip(&b"0123456789abcdefXYZ".to_vec()), 0xc726_ed38_a31a_5d2d);
        let p = HashPartitioner::new(7);
        assert_eq!(Partitioner::<u64>::partition(&p, &1), (0x1e9f_7341_61d6_2dd9u64 % 7) as usize);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn range_partitioner_orders_partitions() {
        let sample: Vec<u64> = (0..1000).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        assert_eq!(p.num_partitions(), 4);
        // Keys in ascending order land in non-decreasing partitions.
        let mut last = 0;
        for k in 0u64..1000 {
            let part = p.partition(&k);
            assert!(part >= last);
            last = part;
        }
        assert_eq!(p.partition(&0), 0);
        assert_eq!(p.partition(&u64::MAX), 3);
    }

    #[test]
    fn range_partitioner_roughly_balances() {
        let sample: Vec<u64> = (0..10_000).map(|i| i * 13 % 10_000).collect();
        let p = RangePartitioner::from_sample(sample, 8);
        let mut counts = vec![0usize; p.num_partitions()];
        for k in 0u64..10_000 {
            counts[p.partition(&k)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 3 + 10, "unbalanced: {counts:?}");
    }

    #[test]
    fn range_partitioner_empty_sample_degenerates_to_one() {
        let p = RangePartitioner::<u64>::from_sample(vec![], 4);
        assert_eq!(p.partition(&123), 0);
    }

    #[test]
    fn range_partitioner_duplicate_heavy_sample() {
        let sample = vec![5u64; 1000];
        let p = RangePartitioner::from_sample(sample, 4);
        // All bounds collapse to one: keys ≤ 5 → 0, keys > 5 → 1.
        assert_eq!(p.partition(&1), 0);
        assert_eq!(p.partition(&5), 0);
        assert!(p.partition(&6) >= 1);
    }
}
