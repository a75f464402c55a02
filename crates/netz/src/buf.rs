//! Minimal byte-buffer reader/writer used by the message codec.
//!
//! Netty's `ByteBuf` tracks independent reader/writer indices over pooled
//! memory; here a plain `Vec<u8>` on write and a cursor over `Bytes` on read
//! suffice — the codec only ever appends on write and scans forward on read.
//! Every `put_*`/`get_*` is `#[inline]`, so an element codec in another
//! crate compiles each one down to a store or load of its big-endian bytes.
//!
//! [`ByteReader`] borrows a [`Bytes`] handle so that [`ByteReader::get_bytes`]
//! can hand out sub-ranges that *share* the original allocation (Netty's
//! `ByteBuf.retainedSlice`): decoding a shuffle chunk into blocks never
//! copies the block payloads, it only bumps the refcount on the one buffer
//! that arrived from the wire.

use bytes::Bytes;

/// Append-only encoder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Append a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    #[inline]
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string (u32 length).
    #[inline]
    pub fn put_string(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.put_slice(v.as_bytes());
    }

    /// Overwrite the 8 bytes at `at` with big-endian `v` (a length written
    /// ahead of what it counts). Panics unless those bytes were written.
    #[inline]
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_be_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freeze into an immutable buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Forward-scanning decoder borrowing a [`Bytes`] handle. All methods
/// return `None` on underrun rather than panicking, so malformed frames
/// surface as codec errors.
///
/// The buffer is dereferenced once, at construction: each read is one
/// bounds-checked split of the unread slice.
pub struct ByteReader<'a> {
    data: &'a Bytes,
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a Bytes) -> Self {
        ByteReader { data, rest: data }
    }

    /// The next `N` bytes.
    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// Read a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// Read a big-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// Read a big-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// Read a big-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_be_bytes)
    }

    /// Read `len` raw bytes as a *view* into the underlying buffer: the
    /// returned `Bytes` shares the reader's allocation (no copy). Fails
    /// without consuming on underrun.
    #[inline]
    pub fn get_bytes(&mut self, len: usize) -> Option<Bytes> {
        let at = self.data.len() - self.rest.len();
        self.take(len)?;
        Some(self.data.slice(at..at + len))
    }

    /// Read `len` raw bytes as a borrowed slice (no copy, no refcount
    /// traffic; for transient scans). Fails without consuming on underrun.
    #[inline]
    pub fn get_slice(&mut self, len: usize) -> Option<&'a [u8]> {
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn get_string(&mut self) -> Option<String> {
        let len = self.get_u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).ok()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        let b = w.freeze();
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(u64::MAX - 3));
        assert_eq!(r.get_i64(), Some(-42));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn writer_emits_big_endian_golden_bytes() {
        let mut w = ByteWriter::with_capacity(2);
        w.put_u32(0x0102_0304);
        w.put_u64(0x0506_0708_090A_0B0C);
        w.put_i64(-2);
        w.put_u8(0xFF);
        w.put_string("hi");
        let mut want = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        want.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, 0xFF]);
        want.extend([0, 0, 0, 2, b'h', b'i']);
        // Overwriting the `u64` in place leaves the length and the rest alone.
        w.set_u64(4, 0x1112_1314_1516_1718);
        want[4..12].copy_from_slice(&[0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18]);
        assert_eq!(w.len(), want.len());
        assert_eq!(&w.freeze()[..], &want[..]);
    }

    #[test]
    fn roundtrip_strings() {
        let mut w = ByteWriter::new();
        w.put_string("shuffle_0_1_2");
        w.put_string("");
        w.put_string("ünïcödé");
        let b = w.freeze();
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_string().as_deref(), Some("shuffle_0_1_2"));
        assert_eq!(r.get_string().as_deref(), Some(""));
        assert_eq!(r.get_string().as_deref(), Some("ünïcödé"));
    }

    #[test]
    fn underrun_returns_none() {
        let b = Bytes::from_static(&[1, 2, 3]);
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_u32(), None);
        // Failed read must not consume.
        assert_eq!(r.get_u8(), Some(1));
    }

    #[test]
    fn bogus_string_length_is_error_not_panic() {
        let mut w = ByteWriter::new();
        w.put_u32(1_000_000); // claims a huge string
        w.put_slice(b"tiny");
        let b = w.freeze();
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_string(), None);
    }

    #[test]
    fn get_bytes_shares_the_underlying_allocation() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAA);
        w.put_slice(b"payload-bytes");
        let b = w.freeze();
        let base = b.as_ptr() as usize;
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_u8(), Some(0xAA));
        let view = r.get_bytes(7).unwrap();
        assert_eq!(&view[..], b"payload");
        // Zero-copy: the view points into the same allocation, one byte in.
        assert_eq!(view.as_ptr() as usize, base + 1);
        assert!(r.get_bytes(100).is_none());
        // Failed read must not consume.
        assert_eq!(&r.get_bytes(6).unwrap()[..], b"-bytes");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn get_slice_advances_without_copying() {
        let b = Bytes::from_static(b"abcdef");
        let mut r = ByteReader::new(&b);
        assert_eq!(r.get_slice(3), Some(&b"abc"[..]));
        assert_eq!(r.get_slice(4), None);
        assert_eq!(r.get_slice(3), Some(&b"def"[..]));
    }
}
