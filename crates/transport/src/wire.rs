//! Binary codec primitives, the frame they write and the bytes they read.
//!
//! Integers are big-endian; byte strings, strings and sequences carry a
//! `u32` length or count in front, tensor dims a `u8` rank. Writing appends
//! to a [`Frame`], which splices a byte string in by handle: tensor bytes go
//! to the socket from where they lie. Reading consumes a [`SharedBytes`],
//! so a byte string comes back as a range of the frame it arrived in:
//! tensor bytes are copied neither way (the software half of §3.4's
//! zero-copy story). Every length or count is the peer's word, and
//! `ensure` checks it against the bytes left before anything is sized by
//! it.

use crate::error::{Result, TransportError};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable range of an immutable buffer that any number of
/// handles share: a received frame, the tensor payloads decoded out of it,
/// a payload spliced into the [`Frame`] the server's dedup cache keeps.
/// Equality and `Debug` are those of the bytes in range.
#[derive(Clone)]
pub struct SharedBytes {
    // `Arc<[u8]>: From<Vec<u8>>` would reallocate and copy; this moves.
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// Split off and return the first `at` bytes; `self` keeps the rest and
    /// both share the buffer. Panics when `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> SharedBytes {
        assert!(at <= self.len(), "split_to {at} of {} bytes", self.len());
        let head = SharedBytes {
            buf: Arc::clone(&self.buf),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl From<Vec<u8>> for SharedBytes {
    /// Takes the vector over; nothing is copied.
    fn from(buf: Vec<u8>) -> Self {
        SharedBytes {
            start: 0,
            end: buf.len(),
            buf: Arc::new(buf),
        }
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A message as it is written: the codec's own bytes, with each byte
/// string spliced in by handle at the offset it travels at. Cloning shares
/// the byte strings.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    head: Vec<u8>,
    /// `(offset in head, bytes)`, offsets in write order.
    splices: Vec<(usize, SharedBytes)>,
}

impl Frame {
    /// The bytes in wire order, alternating codec bytes (possibly empty)
    /// and a spliced byte string, codec bytes first and last.
    pub fn parts(&self) -> Vec<&[u8]> {
        let mut parts = Vec::with_capacity(2 * self.splices.len() + 1);
        let mut at = 0;
        for (offset, bytes) in &self.splices {
            parts.extend([&self.head[at..*offset], &bytes[..]]);
            at = *offset;
        }
        parts.push(&self.head[at..]);
        parts
    }

    /// Bytes on the wire: the codec's own plus every spliced string.
    pub(crate) fn wire_len(&self) -> usize {
        self.head.len() + self.splices.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// The bytes joined into one buffer, as a decoder reads them.
    pub fn join(&self) -> SharedBytes {
        self.parts().concat().into()
    }
}

/// Append a u8.
pub fn put_u8(buf: &mut Frame, v: u8) {
    buf.head.push(v);
}

/// Append a u32 (big-endian).
pub fn put_u32(buf: &mut Frame, v: u32) {
    buf.head.extend_from_slice(&v.to_be_bytes());
}

/// Append a u64 (big-endian).
pub fn put_u64(buf: &mut Frame, v: u64) {
    buf.head.extend_from_slice(&v.to_be_bytes());
}

/// `value` as the narrower integer the wire carries it in, or
/// [`TransportError::Oversize`]: an `as` cast would silently truncate (a
/// payload over 4 GiB, a rank over 255) and corrupt the stream.
fn narrow<T: TryFrom<usize>>(what: &'static str, value: usize, max: u64) -> Result<T> {
    T::try_from(value).map_err(|_| TransportError::Oversize {
        what,
        value: value as u64,
        max,
    })
}

/// Append a length-prefixed byte string by handle: the frame shares `v`
/// and is written from it, so none of its bytes is copied here.
pub fn put_bytes(buf: &mut Frame, v: &SharedBytes) -> Result<()> {
    put_u32(buf, narrow("payload length", v.len(), u32::MAX as u64)?);
    buf.splices.push((buf.head.len(), v.clone()));
    Ok(())
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Frame, v: &str) -> Result<()> {
    put_u32(buf, narrow("payload length", v.len(), u32::MAX as u64)?);
    buf.head.extend_from_slice(v.as_bytes());
    Ok(())
}

/// Append a count-prefixed sequence, each item written by `put`.
pub fn put_seq<T>(
    buf: &mut Frame,
    items: &[T],
    mut put: impl FnMut(&mut Frame, &T) -> Result<()>,
) -> Result<()> {
    put_u32(
        buf,
        narrow("sequence length", items.len(), u32::MAX as u64)?,
    );
    items.iter().try_for_each(|item| put(buf, item))
}

/// Append a list of u32 dims (rank ≤ 255, each dim ≤ `u32::MAX`).
pub fn put_dims(buf: &mut Frame, dims: &[usize]) -> Result<()> {
    put_u8(buf, narrow("tensor rank", dims.len(), u8::MAX as u64)?);
    for &dim in dims {
        put_u32(buf, narrow("tensor dimension", dim, u32::MAX as u64)?);
    }
    Ok(())
}

/// The one place a length or count read from the peer is believed: `count`
/// items of at least `each` bytes must fit in what is left of `buf`.
/// Callers allocate only after this has passed, so what a frame can make
/// its reader allocate is bounded by the frame's own size.
fn ensure(buf: &SharedBytes, count: usize, each: usize) -> Result<()> {
    match count.checked_mul(each) {
        Some(need) if need <= buf.len() => Ok(()),
        _ => Err(TransportError::Codec(format!(
            "need {count} x {each} bytes, have {}",
            buf.len()
        ))),
    }
}

fn take<const N: usize>(buf: &mut SharedBytes) -> Result<[u8; N]> {
    ensure(buf, 1, N)?;
    let mut head = [0u8; N];
    head.copy_from_slice(&buf[..N]);
    buf.start += N;
    Ok(head)
}

/// Read a u8.
pub fn get_u8(buf: &mut SharedBytes) -> Result<u8> {
    Ok(u8::from_be_bytes(take(buf)?))
}

/// Read a u32.
pub fn get_u32(buf: &mut SharedBytes) -> Result<u32> {
    Ok(u32::from_be_bytes(take(buf)?))
}

/// Read a u64.
pub fn get_u64(buf: &mut SharedBytes) -> Result<u64> {
    Ok(u64::from_be_bytes(take(buf)?))
}

/// Read a length-prefixed byte string (a range of the input, not a copy).
pub fn get_bytes(buf: &mut SharedBytes) -> Result<SharedBytes> {
    let len = get_u32(buf)? as usize;
    ensure(buf, len, 1)?;
    Ok(buf.split_to(len))
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut SharedBytes) -> Result<String> {
    let raw = get_bytes(buf)?;
    String::from_utf8(raw.to_vec()).map_err(|e| TransportError::Codec(e.to_string()))
}

/// Read `count` items, each by `get` and each at least `min_bytes` long on
/// the wire: a count the remaining bytes cannot hold even at that size is
/// refused before the vector is allocated.
fn get_items<T>(
    buf: &mut SharedBytes,
    count: usize,
    min_bytes: usize,
    mut get: impl FnMut(&mut SharedBytes) -> Result<T>,
) -> Result<Vec<T>> {
    ensure(buf, count, min_bytes)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(get(buf)?);
    }
    Ok(items)
}

/// Read a count-prefixed sequence of items at least `min_bytes` long each,
/// each read by `get`.
pub fn get_seq<T>(
    buf: &mut SharedBytes,
    min_bytes: usize,
    get: impl FnMut(&mut SharedBytes) -> Result<T>,
) -> Result<Vec<T>> {
    let count = get_u32(buf)? as usize;
    get_items(buf, count, min_bytes, get)
}

/// Read dims.
pub fn get_dims(buf: &mut SharedBytes) -> Result<Vec<usize>> {
    let rank = get_u8(buf)? as usize;
    get_items(buf, rank, 4, |buf| Ok(get_u32(buf)? as usize))
}

/// `data` as little-endian bytes, `N` to an element, sized once and stored
/// chunk by chunk: a loop that compiles to wide copies, which appending
/// each element's bytes to a growing vector does not.
fn to_le<T: Copy, const N: usize>(data: &[T], le: impl Fn(T) -> [u8; N]) -> SharedBytes {
    let mut out = vec![0u8; data.len() * N];
    for (chunk, &v) in out.as_chunks_mut().0.iter_mut().zip(data) {
        *chunk = le(v);
    }
    out.into()
}

/// Fill `out` from little-endian `raw` in the same one wide pass. Panics
/// unless `raw` is exactly `out`'s elements: a caller checks a peer's
/// payload before it sizes `out`.
fn from_le<T, const N: usize>(raw: &[u8], out: &mut [T], le: impl Fn([u8; N]) -> T) {
    assert_eq!(raw.len(), out.len() * N, "payload bytes for {N}-byte items");
    for (o, &e) in out.iter_mut().zip(raw.as_chunks().0) {
        *o = le(e);
    }
}

/// Encode an f32 slice as little-endian bytes.
pub fn f32s_to_bytes(data: &[f32]) -> SharedBytes {
    to_le(data, f32::to_le_bytes)
}

/// Decode little-endian f32 bytes into `out`, which they must fill.
pub fn f32s_from_bytes(raw: &[u8], out: &mut [f32]) {
    from_le(raw, out, f32::from_le_bytes)
}

/// Encode an i64 slice as little-endian bytes.
pub fn i64s_to_bytes(data: &[i64]) -> SharedBytes {
    to_le(data, i64::to_le_bytes)
}

/// Decode little-endian i64 bytes into `out`, which they must fill.
pub fn i64s_from_bytes(raw: &[u8], out: &mut [i64]) {
    from_le(raw, out, i64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Frame::default();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX);
        put_str(&mut buf, "genie").unwrap();
        put_dims(&mut buf, &[2, 3, 4]).unwrap();
        let mut raw = buf.join();
        assert_eq!(get_u8(&mut raw).unwrap(), 7);
        assert_eq!(get_u32(&mut raw).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut raw).unwrap(), u64::MAX);
        assert_eq!(get_str(&mut raw).unwrap(), "genie");
        assert_eq!(get_dims(&mut raw).unwrap(), vec![2, 3, 4]);
        assert!(raw.is_empty());
    }

    #[test]
    fn short_buffer_errors() {
        let mut raw = SharedBytes::from(vec![0, 0]);
        assert!(get_u32(&mut raw).is_err());
    }

    #[test]
    fn oversize_rank_refused_not_truncated() {
        let mut buf = Frame::default();
        let dims = vec![1usize; 300];
        let err = put_dims(&mut buf, &dims).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Oversize {
                    what: "tensor rank",
                    value: 300,
                    ..
                }
            ),
            "{err}"
        );
        // Nothing half-written before the failing prefix.
        assert!(buf.join().is_empty());
    }

    #[test]
    fn oversize_dim_refused_not_truncated() {
        if usize::BITS < 64 {
            return; // dims above u32::MAX are unrepresentable on 32-bit
        }
        let mut buf = Frame::default();
        let too_big = u32::MAX as usize + 1;
        let err = put_dims(&mut buf, &[2, too_big]).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Oversize {
                    what: "tensor dimension",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn bytes_are_zero_copy_slices() {
        // Written by handle: the frame's part is the payload's own bytes.
        let sent = SharedBytes::from(vec![1, 2, 3]);
        let mut buf = Frame::default();
        put_u8(&mut buf, 9);
        put_bytes(&mut buf, &sent).unwrap();
        let parts = buf.parts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].as_ptr(), sent.as_ptr());
        assert_eq!(parts.concat(), [9, 0, 0, 0, 3, 1, 2, 3]);
        // Read as a range of the frame's own allocation, past the prefix.
        let mut frame = buf.join();
        assert_eq!(get_u8(&mut frame).unwrap(), 9);
        let payload = get_bytes(&mut frame.clone()).unwrap();
        assert_eq!(&payload[..], &[1, 2, 3]);
        assert_eq!(payload.as_ptr(), frame[4..].as_ptr());
    }

    #[test]
    fn f32_payload_roundtrip() {
        let data = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let raw = f32s_to_bytes(&data);
        let mut back = vec![0.0; data.len()];
        f32s_from_bytes(&raw, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn i64_payload_roundtrip() {
        let data = vec![i64::MIN, -1, 0, 42, i64::MAX];
        let raw = i64s_to_bytes(&data);
        let mut back = vec![0; data.len()];
        i64s_from_bytes(&raw, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "payload bytes for 8-byte items")]
    fn readers_take_no_count_but_the_one_they_are_given() {
        i64s_from_bytes(&[0u8; 7], &mut [0]);
    }

    #[test]
    fn handles_share_the_buffer_they_came_from() {
        let buf: Vec<u8> = (0..10).collect();
        let base = buf.as_ptr();
        let mut rest = SharedBytes::from(buf);
        // Taken over, not copied.
        assert_eq!(rest.as_ptr(), base);
        let head = rest.split_to(4);
        let copy = rest.clone();
        assert_eq!(&head[..], &[0, 1, 2, 3]);
        assert_eq!(&rest[..], &[4, 5, 6, 7, 8, 9]);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(rest.as_ptr(), base.wrapping_add(4));
        assert_eq!(copy.as_ptr(), rest.as_ptr());
    }

    #[test]
    fn handle_equality_and_debug_are_by_content() {
        let mut a = SharedBytes::from(vec![9, 1, 2]);
        a.split_to(1);
        assert_eq!(a, SharedBytes::from(vec![1, 2]));
        assert_ne!(a, SharedBytes::from(vec![]));
        assert_eq!(format!("{a:?}"), "[1, 2]");
    }

    #[test]
    #[should_panic(expected = "split_to 5 of 4 bytes")]
    fn splitting_past_the_end_is_refused() {
        SharedBytes::from(vec![0; 4]).split_to(5);
    }
}
