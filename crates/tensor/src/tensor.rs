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
    fn debug_output_truncates() {
        let t = Tensor::zeros([100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elems"));
    }
}
