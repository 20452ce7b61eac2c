//! Stand-in for `bytes` 1.x, limited to what `genie-transport` and
//! `genie-backend` call. `Bytes` is a reference-counted view
//! (`clone`, `slice`, `split_to` copy nothing; `From<Vec<u8>>` and
//! `BytesMut::freeze` take the buffer over without copying), which is
//! the property the transport's zero-copy paths rely on. Integer reads
//! and writes are big-endian unless the name says `_le`, as upstream.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` within this view; shares the buffer.
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
            "slice {lo}..{hi} out of range for Bytes of length {}",
            self.len()
        );
        Bytes {
            repr: self.repr.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to {at} out of range");
        let head = Bytes {
            repr: self.repr.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Split off and return the bytes from `at` on; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off {at} out of range");
        let tail = Bytes {
            repr: self.repr.clone(),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        tail
    }

    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &all[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

/// A growable, uniquely owned byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub const fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Hand the buffer over as immutable `Bytes` without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.buf, f)
    }
}

macro_rules! buf_get {
    ($($name:ident => $ty:ty, $from:ident;)*) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::$from(raw)
        }
    )*};
}

/// Read access to a buffer with a cursor. Reads past the end panic, as
/// upstream; callers check `remaining()` first.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            self.remaining() >= dst.len(),
            "buffer underflow: need {}, have {}",
            dst.len(),
            self.remaining()
        );
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    buf_get! {
        get_u16 => u16, from_be_bytes;
        get_u32 => u32, from_be_bytes;
        get_u64 => u64, from_be_bytes;
        get_i64 => i64, from_be_bytes;
        get_u16_le => u16, from_le_bytes;
        get_u32_le => u32, from_le_bytes;
        get_u64_le => u64, from_le_bytes;
        get_i64_le => i64, from_le_bytes;
        get_f32_le => f32, from_le_bytes;
        get_f64_le => f64, from_le_bytes;
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance {cnt} past end");
        self.start += cnt;
    }
}

macro_rules! buf_put {
    ($($name:ident => $ty:ty, $to:ident;)*) => {$(
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.$to());
        }
    )*};
}

/// Append access to a growable buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put! {
        put_u16 => u16, to_be_bytes;
        put_u32 => u32, to_be_bytes;
        put_u64 => u64, to_be_bytes;
        put_i64 => i64, to_be_bytes;
        put_u16_le => u16, to_le_bytes;
        put_u32_le => u32, to_le_bytes;
        put_u64_le => u64, to_le_bytes;
        put_i64_le => i64, to_le_bytes;
        put_f32_le => f32, to_le_bytes;
        put_f64_le => f64, to_le_bytes;
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_slice_share_without_copying() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&b.slice(1..)[..], &[4, 5]);
        assert_eq!(head.as_ptr() as usize + 2, b.as_ptr() as usize);
    }

    #[test]
    fn put_get_roundtrip_with_endianness() {
        let mut m = BytesMut::new();
        m.put_u32(0x0102_0304);
        m.put_f32_le(1.5);
        m.put_i64_le(-7);
        assert_eq!(&m[..4], &[1, 2, 3, 4]);
        let mut b = m.freeze();
        assert_eq!(b.get_u32(), 0x0102_0304);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(b.get_i64_le(), -7);
        assert!(!b.has_remaining());
    }
}
