//! Concatenation and slicing along arbitrary dimensions — the operations
//! behind KV-cache growth.

use crate::tensor::Tensor;

/// Concatenate two tensors along dimension `dim`. All other dimensions must
/// match.
pub fn concat(a: &Tensor, b: &Tensor, dim: usize) -> Tensor {
    assert_eq!(a.rank(), b.rank(), "concat rank mismatch");
    assert!(dim < a.rank(), "concat dim {dim} out of range");
    for d in 0..a.rank() {
        if d != dim {
            assert_eq!(
                a.dims()[d],
                b.dims()[d],
                "concat non-dim sizes must match at {d}"
            );
        }
    }
    let mut out_dims = a.shape().clone();
    out_dims.dims_mut()[dim] += b.dims()[dim];

    // Treat layout as [outer, dim, inner].
    let (outer, a_dim, inner) = a.shape().split_at_dim(dim);
    let b_dim = b.dims()[dim];

    let a_chunk = a_dim * inner;
    let b_chunk = b_dim * inner;
    Tensor::build(out_dims, |out| {
        for o in 0..outer {
            let base = o * (a_chunk + b_chunk);
            out[base..base + a_chunk].copy_from_slice(&a.data()[o * a_chunk..(o + 1) * a_chunk]);
            out[base + a_chunk..base + a_chunk + b_chunk]
                .copy_from_slice(&b.data()[o * b_chunk..(o + 1) * b_chunk]);
        }
    })
}

/// Narrow dimension `dim` to `[start, start + len)`.
pub fn narrow(x: &Tensor, dim: usize, start: usize, len: usize) -> Tensor {
    assert!(dim < x.rank(), "narrow dim out of range");
    assert!(
        start + len <= x.dims()[dim],
        "narrow [{start}, {start}+{len}) exceeds dim size {}",
        x.dims()[dim]
    );
    let (outer, d, inner) = x.shape().split_at_dim(dim);
    let mut dims = x.shape().clone();
    dims.dims_mut()[dim] = len;
    let chunk = len * inner;
    Tensor::build(dims, |out| {
        for o in 0..outer {
            let base = (o * d + start) * inner;
            out[o * chunk..(o + 1) * chunk].copy_from_slice(&x.data()[base..base + chunk]);
        }
    })
}

/// Select a single index along `dim`, dropping that dimension.
pub fn select(x: &Tensor, dim: usize, index: usize) -> Tensor {
    let narrowed = narrow(x, dim, index, 1);
    let dims: Vec<usize> = narrowed
        .dims()
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != dim)
        .map(|(_, &s)| s)
        .collect();
    narrowed.reshape(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::arange;

    #[test]
    fn concat_dim0() {
        let a = arange([2, 2]);
        let b = Tensor::full([1, 2], 9.0);
        let c = concat(&a, &b, 0);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[0.0, 1.0, 2.0, 3.0, 9.0, 9.0]);
    }

    #[test]
    fn concat_dim1() {
        let a = arange([2, 2]);
        let b = Tensor::full([2, 1], 9.0);
        let c = concat(&a, &b, 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[0.0, 1.0, 9.0, 2.0, 3.0, 9.0]);
    }

    #[test]
    fn kv_cache_growth_pattern() {
        // Repeated concat along the sequence dim mimics KV append.
        let mut cache = Tensor::zeros([0usize, 4].to_vec());
        for step in 0..5 {
            let kv = Tensor::full([1, 4], step as f32);
            cache = concat(&cache, &kv, 0);
        }
        assert_eq!(cache.dims(), &[5, 4]);
        assert_eq!(cache.at(&[3, 0]), 3.0);
    }

    #[test]
    fn narrow_extracts_span() {
        let x = arange([4, 2]);
        let y = narrow(&x, 0, 1, 2);
        assert_eq!(y.dims(), &[2, 2]);
        assert_eq!(y.data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn narrow_inner_dim() {
        let x = arange([2, 4]);
        let y = narrow(&x, 1, 2, 2);
        assert_eq!(y.data(), &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn select_drops_dim() {
        let x = arange([3, 4]);
        let row = select(&x, 0, 1);
        assert_eq!(row.dims(), &[4]);
        assert_eq!(row.data(), &[4.0, 5.0, 6.0, 7.0]);
        let col = select(&x, 1, 0);
        assert_eq!(col.dims(), &[3]);
        assert_eq!(col.data(), &[0.0, 4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds dim size")]
    fn narrow_out_of_range_panics() {
        narrow(&arange([2, 2]), 0, 1, 2);
    }

    #[test]
    fn concat_then_narrow_roundtrip() {
        let a = arange([2, 3]);
        let b = arange([4, 3]);
        let c = concat(&a, &b, 0);
        assert_eq!(narrow(&c, 0, 0, 2), a);
        assert_eq!(narrow(&c, 0, 2, 4), b);
    }
}
