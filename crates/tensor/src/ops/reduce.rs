//! Reductions over the innermost dimension.

use crate::shape::Shape;
use crate::tensor::{IndexTensor, Tensor};

/// Sum over the innermost dimension, dropping it.
pub fn sum_lastdim(x: &Tensor) -> Tensor {
    fold_lastdim(x, 0.0, |acc, v| acc + v, |acc, _| acc)
}

/// Mean over the innermost dimension, dropping it.
pub fn mean_lastdim(x: &Tensor) -> Tensor {
    fold_lastdim(x, 0.0, |acc, v| acc + v, |acc, n| acc / n as f32)
}

/// Max over the innermost dimension, dropping it.
pub fn max_lastdim(x: &Tensor) -> Tensor {
    fold_lastdim(x, f32::NEG_INFINITY, |acc, v| acc.max(v), |acc, _| acc)
}

/// Argmax over the innermost dimension, dropping it. First maximum wins on
/// ties (deterministic greedy decoding relies on this).
pub fn argmax_lastdim(x: &Tensor) -> IndexTensor {
    let inner = *x.dims().last().expect("argmax requires rank >= 1");
    let rows = x.len() / inner;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &x.data()[r * inner..(r + 1) * inner];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        out.push(best as i64);
    }
    let outer = &x.dims()[..x.rank() - 1];
    let shape = Shape::new(if outer.is_empty() { &[1] } else { outer });
    IndexTensor::from_vec(shape, out)
}

fn fold_lastdim(
    x: &Tensor,
    init: f32,
    step: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Tensor {
    let inner = *x.dims().last().expect("reduction requires rank >= 1");
    let rows = x.len() / inner;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let acc = x.data()[r * inner..(r + 1) * inner]
            .iter()
            .fold(init, |a, &v| step(a, v));
        out.push(finish(acc, inner));
    }
    let outer = &x.dims()[..x.rank() - 1];
    let shape = Shape::new(if outer.is_empty() { &[1] } else { outer });
    Tensor::from_vec(shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_mean_max() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, -5.0, 0.0]);
        assert_eq!(sum_lastdim(&x).data(), &[6.0, -6.0]);
        assert_eq!(mean_lastdim(&x).data(), &[2.0, -2.0]);
        assert_eq!(max_lastdim(&x).data(), &[3.0, 0.0]);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let x = Tensor::from_vec([1, 4], vec![5.0, 9.0, 9.0, 1.0]);
        assert_eq!(argmax_lastdim(&x).data(), &[1]);
    }

    #[test]
    fn argmax_per_row() {
        let x = Tensor::from_vec([3, 2], vec![0.0, 1.0, 1.0, 0.0, -2.0, -1.0]);
        assert_eq!(argmax_lastdim(&x).data(), &[1, 0, 1]);
    }

    #[test]
    fn rank1_reduces_to_single() {
        let x = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum_lastdim(&x).data(), &[10.0]);
        assert_eq!(argmax_lastdim(&x).data(), &[3]);
    }
}
