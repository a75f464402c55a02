//! Record types: the [`Element`] codec trait and the virtual-payload
//! [`Blob`].
//!
//! Shuffled data must serialize to bytes (that is what crosses the wire).
//! [`Element`] provides the codec plus a `virtual_size` so benchmark
//! workloads can represent paper-scale values (e.g. 100 KiB rows) by tiny
//! real records — the cost models charge virtual bytes; the functional path
//! encodes/decodes real bytes.

use netz::buf::{ByteReader, ByteWriter};

/// A record type that can cross the shuffle.
pub trait Element: Send + Sync + Clone + 'static {
    /// Append the encoded form.
    fn encode(&self, w: &mut ByteWriter);
    /// Decode one element (must consume exactly what `encode` wrote).
    fn decode(r: &mut ByteReader<'_>) -> Self;
    /// Bytes this element *represents* (virtual size; ≥ real encoded size
    /// only matters for cost realism, not correctness).
    fn virtual_size(&self) -> u64;
    /// An order-preserving `u64` image of the value, the key the shuffle's
    /// radix sort runs on: `a.cmp(b) == a.rank().cmp(&b.rank())` for all
    /// `a`, `b`. A type ranks all of its values or none (the default).
    fn rank(&self) -> Option<u64> {
        None
    }
}

impl Element for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        r.get_u64().expect("u64 element")
    }
    fn virtual_size(&self) -> u64 {
        8
    }
    fn rank(&self) -> Option<u64> {
        Some(*self)
    }
}

impl Element for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        r.get_u8().expect("u8 element")
    }
    fn virtual_size(&self) -> u64 {
        1
    }
    fn rank(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
}

impl Element for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        r.get_u32().expect("u32 element")
    }
    fn virtual_size(&self) -> u64 {
        4
    }
    fn rank(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
}

impl Element for i64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        r.get_i64().expect("i64 element")
    }
    fn virtual_size(&self) -> u64 {
        8
    }
    fn rank(&self) -> Option<u64> {
        Some((*self as u64) ^ (1 << 63))
    }
}

impl Element for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.to_bits());
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        f64::from_bits(r.get_u64().expect("f64 element"))
    }
    fn virtual_size(&self) -> u64 {
        8
    }
}

impl Element for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_string(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        r.get_string().expect("string element")
    }
    fn virtual_size(&self) -> u64 {
        4 + self.len() as u64
    }
}

impl<A: Element, B: Element> Element for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        let a = A::decode(r);
        let b = B::decode(r);
        (a, b)
    }
    fn virtual_size(&self) -> u64 {
        self.0.virtual_size() + self.1.virtual_size()
    }
}

impl<T: Element> Element for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.len() as u32);
        for x in self {
            x.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        let n = r.get_u32().expect("vec length") as usize;
        (0..n).map(|_| T::decode(r)).collect()
    }
    fn virtual_size(&self) -> u64 {
        4 + self.iter().map(Element::virtual_size).sum::<u64>()
    }
}

impl<T: Element> Element for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        match r.get_u8().expect("option tag") {
            0 => None,
            _ => Some(T::decode(r)),
        }
    }
    fn virtual_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, Element::virtual_size)
    }
}

/// A virtual payload: `len` bytes of notional data identified by a seed.
/// Encodes to 12 real bytes; the cost and network models see `len`.
/// This is how 448 GB shuffles fit in laptop memory (see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Blob {
    /// Identity of the notional content (checked by functional tests).
    pub seed: u64,
    /// Virtual length in bytes.
    pub len: u32,
}

impl Blob {
    /// A blob of `len` virtual bytes with content identity `seed`.
    pub fn new(seed: u64, len: u32) -> Blob {
        Blob { seed, len }
    }
}

impl Element for Blob {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.seed);
        w.put_u32(self.len);
    }
    fn decode(r: &mut ByteReader<'_>) -> Self {
        let seed = r.get_u64().expect("blob seed");
        let len = r.get_u32().expect("blob len");
        Blob { seed, len }
    }
    fn virtual_size(&self) -> u64 {
        u64::from(self.len)
    }
}

/// Bytes `x` encodes to.
pub fn encoded_len<T: Element>(x: &T) -> usize {
    let mut w = ByteWriter::new();
    x.encode(&mut w);
    w.len()
}

/// Bytes, real and virtual, of the batch format's leading record count.
pub const BATCH_HEADER_LEN: u64 = 4;

/// Record-at-a-time writer of the batch format: a `u32` record count, then
/// the records. The count comes first, so it must be known up front.
pub struct BatchEncoder {
    w: ByteWriter,
    virt: u64,
}

impl BatchEncoder {
    /// A batch of `records` records with `bytes` reserved for their encoded
    /// forms.
    pub fn new(records: usize, bytes: usize) -> Self {
        let mut w = ByteWriter::with_capacity(4 + bytes);
        w.put_u32(records as u32);
        BatchEncoder { w, virt: BATCH_HEADER_LEN }
    }

    /// Append one record.
    pub fn push<T: Element>(&mut self, x: &T) {
        x.encode(&mut self.w);
        self.virt += x.virtual_size();
    }

    /// The encoded batch and its total virtual size.
    pub fn finish(self) -> (bytes::Bytes, u64) {
        (self.w.freeze(), self.virt)
    }
}

/// Encode a batch of elements; returns (bytes, total_virtual_size).
pub fn encode_batch<T: Element>(items: &[T]) -> (bytes::Bytes, u64) {
    let mut batch = BatchEncoder::new(items.len(), items.len() * 16 + 4);
    items.iter().for_each(|x| batch.push(x));
    batch.finish()
}

/// Decode a batch written by [`encode_batch`] onto the end of `out`. Reads
/// through the `Bytes` handle so element decoders can slice out zero-copy
/// views.
pub fn decode_batch_into<T: Element>(data: &bytes::Bytes, out: &mut Vec<T>) {
    let mut r = ByteReader::new(data);
    let n = r.get_u32().expect("batch length") as usize;
    out.extend((0..n).map(|_| T::decode(&mut r)));
}

/// Decode a batch written by [`encode_batch`].
pub fn decode_batch<T: Element>(data: &bytes::Bytes) -> Vec<T> {
    let mut out = Vec::new();
    decode_batch_into(data, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Element + PartialEq + std::fmt::Debug>(items: Vec<T>) {
        let (bytes, virt) = encode_batch(&items);
        let back: Vec<T> = decode_batch(&bytes);
        assert_eq!(back, items);
        let expect_virt: u64 = 4 + items.iter().map(Element::virtual_size).sum::<u64>();
        assert_eq!(virt, expect_virt);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(vec![0u64, 1, u64::MAX]);
        roundtrip(vec![-5i64, 0, i64::MAX]);
        roundtrip(vec![0.5f64, -1.25, f64::INFINITY]);
        roundtrip(vec![3u32, 0, u32::MAX]);
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip(vec![(1u64, "a".to_string()), (2, "bb".to_string())]);
        roundtrip(vec![vec![1.0f64, 2.0], vec![], vec![3.0]]);
        roundtrip(vec![Some(7u64), None, Some(0)]);
        roundtrip(vec![(5u64, Blob::new(9, 1 << 20))]);
    }

    #[test]
    fn blob_is_small_real_huge_virtual() {
        let b = Blob::new(42, 100 * 1024 * 1024);
        let (bytes, virt) = encode_batch(&[b]);
        assert!(bytes.len() < 32);
        assert_eq!(virt, 4 + 100 * 1024 * 1024);
    }

    #[test]
    fn empty_batch() {
        roundtrip(Vec::<u64>::new());
    }
}
