//! Stand-in for the `bytes` crate: the surface the stack under `crates/`
//! uses, nothing more. `Bytes` is a reference-counted view, so `clone` and
//! `slice` share the allocation as the real crate's do (`netz::ByteReader`
//! relies on that for its zero-copy block decode).

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Bytes {
        Bytes { data: None, start: 0, end: 0 }
    }

    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// A view of `range` that shares this buffer's allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range for length {}",
            self.len()
        );
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Some(Arc::from(v)), start: 0, end }
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[derive(Default, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Big-endian appends, as in the real crate.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}
