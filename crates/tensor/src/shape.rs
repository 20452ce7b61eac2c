//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// A tensor shape: dimension sizes, outermost first. The empty shape is a
/// scalar. All Genie CPU tensors are contiguous row-major; strides are
//  derived, never stored.
///
/// Up to four dims (NCHW, the most any operator here uses) are held
/// inline, so building, cloning and comparing the shape of a tensor
/// never touches the heap; a higher rank is boxed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Dims);

/// One form per rank, so the derived comparisons compare dims.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Dims {
    /// The rank, then the dims (zero past the rank).
    Inline(u8, [usize; Shape::INLINE_RANK]),
    /// Only above `INLINE_RANK`.
    Boxed(Box<[usize]>),
}

impl Shape {
    const INLINE_RANK: usize = 4;

    /// Construct from dimension sizes.
    pub fn new(dims: impl AsRef<[usize]>) -> Self {
        let dims = dims.as_ref();
        let mut inline = [0; Self::INLINE_RANK];
        match inline.get_mut(..dims.len()) {
            Some(head) => {
                head.copy_from_slice(dims);
                Shape(Dims::Inline(dims.len() as u8, inline))
            }
            None => Shape(Dims::Boxed(dims.into())),
        }
    }

    /// Scalar shape.
    pub fn scalar() -> Self {
        Shape::new([])
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        match &self.0 {
            Dims::Inline(rank, dims) => &dims[..*rank as usize],
            Dims::Boxed(dims) => dims,
        }
    }

    /// Dimension sizes, to resize some in place.
    pub fn dims_mut(&mut self) -> &mut [usize] {
        match &mut self.0 {
            Dims::Inline(rank, dims) => &mut dims[..*rank as usize],
            Dims::Boxed(dims) => dims,
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// Split around dimension `dim` for `[outer, dim, inner]` layout
    /// arithmetic: returns `(outer, self.dim(dim), inner)` where `outer` is
    /// the product of dims before `dim` and `inner` the product after.
    pub fn split_at_dim(&self, dim: usize) -> (usize, usize, usize) {
        assert!(dim < self.rank(), "dim {dim} out of range for {self}");
        let dims = self.dims();
        let outer = dims[..dim].iter().product();
        let inner = dims[dim + 1..].iter().product();
        (outer, dims[dim], inner)
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Row-major strides (innermost stride = 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims()[i + 1];
        }
        strides
    }

    /// Flatten a multi-index into a linear offset. Panics (debug) on
    /// out-of-range indices. Horner's rule over the dims — no stride
    /// vector is allocated (this sits on the per-element access path).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank());
        debug_assert!(index.iter().zip(self.dims()).all(|(&i, &d)| i < d));
        index
            .iter()
            .zip(self.dims())
            .fold(0, |off, (&i, &d)| off * d + i)
    }

    /// Whether `other` has the same element count (valid reshape target).
    pub fn can_reshape_to(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]",
            self.dims()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x")
        )
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn offset_arithmetic() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn reshape_compatibility() {
        let a = Shape::new([6, 4]);
        assert!(a.can_reshape_to(&Shape::new([24])));
        assert!(a.can_reshape_to(&Shape::new([2, 3, 4])));
        assert!(!a.can_reshape_to(&Shape::new([5, 5])));
    }

    #[test]
    fn ranks_past_the_inline_ones_are_boxed_and_compare_by_dims() {
        let deep = Shape::new([1, 2, 3, 4, 5]);
        assert_eq!(deep.dims(), &[1, 2, 3, 4, 5]);
        assert_eq!(deep.clone(), Shape::from(vec![1, 2, 3, 4, 5]));
        let mut narrowed = Shape::new([6, 4]);
        narrowed.dims_mut()[0] = 2;
        assert_eq!(narrowed, Shape::new([2, 4]));
        assert_ne!(narrowed, Shape::new([2, 4, 1]));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Shape::new([2, 3])), "[2x3]");
        assert_eq!(format!("{}", Shape::scalar()), "[]");
    }

    #[test]
    fn split_at_dim_layout() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.split_at_dim(0), (1, 2, 12));
        assert_eq!(s.split_at_dim(1), (2, 3, 4));
        assert_eq!(s.split_at_dim(2), (6, 4, 1));
    }
}
