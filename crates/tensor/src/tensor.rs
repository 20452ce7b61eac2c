//! The dense f32 tensor used by Genie's functional execution plane.
//!
//! Simulation-scale models never materialize data, but functional tests and
//! the local CPU backend execute real arithmetic so we can prove lazy
//! capture, remote execution, and lineage replay produce *numerically
//! identical* results to eager evaluation. One element type (f32) keeps the
//! kernel surface small; precision variants matter only to the cost model,
//! which works from `genie-srg`'s `TensorMeta`, not from this type.
//!
//! Storage is a shared `Arc<[f32]>`: cloning a tensor is a refcount bump,
//! and `reshape`/[`Tensor::reshaped`] are pure metadata edits over the same
//! buffer. Mutation goes through copy-on-write ([`Tensor::data_mut`]), so
//! value semantics are preserved — a clone can never observe a later write
//! to its sibling. This is what lets the wavefront interpreter hand values
//! between graph levels without deep-copying activations.

use crate::bytes::LeBytes;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A contiguous, row-major, f32 tensor with shared (`Arc`) storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<[f32]>,
}

impl Tensor {
    /// Construct from a shape and backing data. Panics if sizes mismatch.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            data.len(),
            "shape {shape} does not match {} elements",
            data.len()
        );
        Tensor {
            shape,
            data: data.into(),
        }
    }

    /// Build a tensor by writing into a zeroed output buffer drawn from
    /// the recycling arena. This is the kernel output path: it skips the
    /// `Vec` → `Arc<[f32]>` copy of [`Tensor::from_vec`] and reuses dead
    /// intermediates' allocations when the interpreter recycles them.
    pub fn build(shape: impl Into<Shape>, f: impl FnOnce(&mut [f32])) -> Self {
        let shape = shape.into();
        let mut data = crate::arena::alloc_zeroed(shape.num_elements());
        f(Arc::get_mut(&mut data).expect("freshly allocated buffer is unique"));
        Tensor { shape, data }
    }

    /// Decode little-endian f32 bytes into a tensor of `shape`, in one
    /// pass over an arena buffer that is not zeroed first. Panics unless
    /// `raw` is exactly the shape's elements (a caller checks a peer's).
    pub fn from_le_bytes(shape: impl Into<Shape>, raw: &[u8]) -> Self {
        let shape = shape.into();
        let elements = le_elements(raw, &shape).iter();
        let data = crate::arena::alloc_from(elements.map(|e| f32::from_le_bytes(*e)));
        Tensor { shape, data }
    }

    /// The elements as little-endian bytes, lent from this tensor's
    /// storage on a little-endian target (a later write copies it first).
    pub fn le_bytes(&self) -> LeBytes {
        LeBytes::from(Arc::clone(&self.data))
    }

    /// Consume the tensor and return its backing buffer — the hand-off
    /// the interpreter uses to recycle dead intermediates into the
    /// arena.
    pub fn into_storage(mut self) -> Arc<[f32]> {
        std::mem::replace(&mut self.data, crate::arena::empty())
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = crate::arena::alloc_zeroed(shape.num_elements());
        Tensor { shape, data }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        Tensor::build(shape, |out| out.fill(value))
    }

    /// Scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value].into(),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (copy-on-write: a shared buffer is
    /// detached first, so clones of this tensor are never affected).
    pub fn data_mut(&mut self) -> &mut [f32] {
        if Arc::strong_count(&self.data) != 1 || Arc::weak_count(&self.data) != 0 {
            self.data = Arc::from(&self.data[..]);
        }
        Arc::get_mut(&mut self.data).expect("buffer was just detached")
    }

    /// True when both tensors share the same backing buffer — clones and
    /// zero-copy reshapes do, deep copies don't.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element access by multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element access by multi-index (copy-on-write).
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data_mut()[off]
    }

    /// Reshape (zero-copy). Panics if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(
            self.shape.can_reshape_to(&shape),
            "cannot reshape {} to {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Zero-copy reshaped view: same buffer, new shape metadata. Panics if
    /// the element counts differ.
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(
            self.shape.can_reshape_to(&shape),
            "cannot reshape {} to {shape}",
            self.shape
        );
        Tensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Size of the payload in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Maximum absolute difference to another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Approximate equality within `tol` (absolute, elementwise).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // A dying tensor with uniquely-owned storage hands its buffer
        // back to the recycling arena, so the next kernel output of the
        // same size skips the allocator entirely. Shared storage (live
        // clones, reshapes) exits on the cheap refcount check.
        if Arc::strong_count(&self.data) == 1 && Arc::weak_count(&self.data) == 0 {
            crate::arena::recycle(std::mem::replace(&mut self.data, crate::arena::empty()));
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", &self.data[..])
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, … {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

/// An integer index tensor (token ids, embedding rows, argmax results).
/// Shares storage on clone exactly like [`Tensor`].
#[derive(Clone, PartialEq, Eq)]
pub struct IndexTensor {
    shape: Shape,
    data: Arc<[i64]>,
}

impl IndexTensor {
    /// Construct from a shape and indices.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<i64>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.num_elements(), data.len());
        IndexTensor {
            shape,
            data: data.into(),
        }
    }

    /// Decode little-endian i64 bytes into an index tensor of `shape`, in
    /// one pass. Panics unless `raw` is exactly the shape's elements.
    pub fn from_le_bytes(shape: impl Into<Shape>, raw: &[u8]) -> Self {
        let shape = shape.into();
        let elements = le_elements(raw, &shape).iter();
        let data = elements.map(|e| i64::from_le_bytes(*e)).collect();
        IndexTensor { shape, data }
    }

    /// The indices as little-endian bytes, lent like [`Tensor::le_bytes`].
    pub fn le_bytes(&self) -> LeBytes {
        LeBytes::from(Arc::clone(&self.data))
    }

    /// 1-D index tensor.
    pub fn from_slice(data: &[i64]) -> Self {
        IndexTensor {
            shape: Shape::new([data.len()]),
            data: data.to_vec().into(),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only data view.
    pub fn data(&self) -> &[i64] {
        &self.data
    }
}

impl fmt::Debug for IndexTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexTensor{} {:?}", self.shape, &self.data[..])
    }
}

/// `raw` as the `N`-byte elements of `shape`: panics unless it is exactly
/// them.
fn le_elements<'a, const N: usize>(raw: &'a [u8], shape: &Shape) -> &'a [[u8; N]] {
    let (elements, rest) = raw.as_chunks();
    assert!(
        rest.is_empty() && elements.len() == shape.num_elements(),
        "{} bytes are not {shape}'s {N}-byte elements",
        raw.len()
    );
    elements
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones([3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full([2], 5.0).data(), &[5.0, 5.0]);
        assert_eq!(Tensor::scalar(2.5).at(&[]), 2.5);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_data_panics() {
        Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        let mut t = t;
        *t.at_mut(&[1, 0]) = 42.0;
        assert_eq!(t.at(&[1, 0]), 42.0);
    }

    #[test]
    fn clone_is_zero_copy() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let c = t.clone();
        assert!(t.shares_storage(&c));
    }

    #[test]
    fn copy_on_write_detaches_clones() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        *b.at_mut(&[0]) = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "original must be untouched");
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
        assert!(!a.shares_storage(&b));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.clone().reshape([3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(r.shares_storage(&t), "reshape must not copy");
    }

    #[test]
    fn reshaped_view_is_zero_copy() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let v = t.reshaped([6]);
        assert_eq!(v.dims(), &[6]);
        assert_eq!(v.data(), t.data());
        assert!(v.shares_storage(&t));
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn bad_reshape_panics() {
        Tensor::zeros([2, 3]).reshape([4]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![1.0005, 2.0]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        assert!((a.max_abs_diff(&b) - 0.0005).abs() < 1e-6);
    }

    #[test]
    fn index_tensor_basics() {
        let t = IndexTensor::from_slice(&[7, 8, 9]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.data(), &[7, 8, 9]);
        assert_eq!(t.shape().dims(), &[3]);
    }

    #[test]
    fn le_bytes_roundtrip_bit_for_bit() {
        let bits = [
            0x7fc0_0001u32,
            0xff80_0001,
            0x8000_0000,
            0x0000_0001,
            0x7f80_0000,
        ];
        let t = Tensor::from_vec([5], bits.iter().map(|&b| f32::from_bits(b)).collect());
        let back = Tensor::from_le_bytes([5], t.le_bytes().as_ref());
        let back: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, bits);
        let i = IndexTensor::from_vec([3], vec![i64::MIN, -1, i64::MAX]);
        assert_eq!(IndexTensor::from_le_bytes([3], i.le_bytes().as_ref()), i);
        assert_eq!(Tensor::from_le_bytes([0], &[]).len(), 0);
    }

    #[test]
    fn a_write_after_lending_leaves_the_lent_bytes_alone() {
        let mut t = Tensor::from_vec([2], vec![1.0, 2.0]);
        let lent = t.le_bytes();
        t.data_mut()[0] = 9.0;
        assert_eq!(
            Tensor::from_le_bytes([2], lent.as_ref()).data(),
            &[1.0, 2.0]
        );
    }

    #[test]
    fn a_decode_over_a_recycled_buffer_writes_every_element() {
        // A length no other test allocates, so the recycled buffer is this one.
        let n = 34_567;
        drop(Tensor::full([n], 7.0));
        let raw: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let t = Tensor::from_le_bytes([n], &raw);
        assert!(t.data().iter().enumerate().all(|(i, &v)| v == i as f32));
    }

    #[test]
    #[should_panic(expected = "8 bytes are not [3]'s 4-byte elements")]
    fn decoding_refuses_bytes_that_are_not_the_shapes_elements() {
        Tensor::from_le_bytes([3], &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "7 bytes are not [1]'s 8-byte elements")]
    fn decoding_refuses_a_partial_element() {
        IndexTensor::from_le_bytes([1], &[0; 7]);
    }

    #[test]
    fn debug_output_truncates() {
        let t = Tensor::zeros([100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elems"));
    }
}
