//! A tensor's storage as the little-endian bytes a wire carries: on a
//! little-endian target a [`LeBytes`] holds the storage's `Arc` and reads
//! its very bytes, so a tensor is sent from where it lies; on a
//! big-endian one it holds a little-endian copy.

use std::sync::Arc;

/// A tensor's elements as little-endian bytes (`AsRef<[u8]>`), keeping
/// its storage alive for as long as they are.
#[derive(Clone)]
pub struct LeBytes(Lent);

#[derive(Clone)]
enum Storage {
    F32(Arc<[f32]>),
    I64(Arc<[i64]>),
}

#[cfg(target_endian = "little")]
type Lent = Storage;

#[cfg(not(target_endian = "little"))]
type Lent = Vec<u8>;

impl From<Arc<[f32]>> for LeBytes {
    fn from(data: Arc<[f32]>) -> Self {
        LeBytes::lend(Storage::F32(data))
    }
}

impl From<Arc<[i64]>> for LeBytes {
    fn from(data: Arc<[i64]>) -> Self {
        LeBytes::lend(Storage::I64(data))
    }
}

impl LeBytes {
    #[cfg(target_endian = "little")]
    fn lend(storage: Storage) -> Self {
        LeBytes(storage)
    }

    #[cfg(not(target_endian = "little"))]
    fn lend(storage: Storage) -> Self {
        LeBytes(match storage {
            Storage::F32(data) => data.iter().flat_map(|v| v.to_le_bytes()).collect(),
            Storage::I64(data) => data.iter().flat_map(|v| v.to_le_bytes()).collect(),
        })
    }
}

#[cfg(target_endian = "little")]
impl AsRef<[u8]> for LeBytes {
    #[allow(unsafe_code)]
    fn as_ref(&self) -> &[u8] {
        let (ptr, len) = match &self.0 {
            Storage::F32(data) => (data.as_ptr().cast::<u8>(), size_of_val(&data[..])),
            Storage::I64(data) => (data.as_ptr().cast::<u8>(), size_of_val(&data[..])),
        };
        // SAFETY: `ptr` and `len` span one live slice of f32s or i64s,
        // whose memory on a little-endian target is their little-endian
        // bytes in order. Neither type has padding, so every byte is
        // initialised; `u8` has alignment 1; and the bytes are borrowed for
        // as long as `self`, whose `Arc` keeps the storage alive and
        // unwritten: storage is written only while its `Arc` is unique
        // (`Tensor::data_mut` copies a shared buffer first, and the arena
        // recycles only unique buffers).
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }
}

#[cfg(not(target_endian = "little"))]
impl AsRef<[u8]> for LeBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lent_bytes_are_the_elements_little_endian_bytes_in_place() {
        let f: Arc<[f32]> = vec![1.5, -0.0, f32::from_bits(0x7fc0_0001)].into();
        let lent = LeBytes::from(Arc::clone(&f));
        let want: Vec<u8> = f.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(lent.as_ref(), &want[..]);
        let i: Arc<[i64]> = vec![i64::MIN, -1, 42].into();
        let want: Vec<u8> = i.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(LeBytes::from(Arc::clone(&i)).as_ref(), &want[..]);
        // Lent where the target is little-endian, copied where it is not.
        #[cfg(target_endian = "little")]
        {
            assert_eq!(lent.as_ref().as_ptr(), f.as_ptr().cast::<u8>());
            assert_eq!(Arc::strong_count(&f), 2, "the storage is held");
            drop(lent);
            assert_eq!(Arc::strong_count(&f), 1);
        }
    }
}
