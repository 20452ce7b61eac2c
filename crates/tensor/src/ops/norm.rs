//! Normalization kernels.
//!
//! `layer_norm`'s two sums per row (the mean, then the variance about
//! it) are each one f32 accumulator walking the row in ascending order.
//! One row alone waits out the add latency at every element, so eight
//! rows at a time run their sums interleaved: eight independent chains,
//! every row's additions still in its own order, so the bits are the
//! one-row loop's. Fewer than eight rows left take that loop.

use crate::tensor::Tensor;

/// Layer normalization over the innermost dimension with learned scale and
/// bias: `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let inner = *x.dims().last().expect("layer_norm requires rank >= 1");
    assert_eq!(gamma.dims(), &[inner], "gamma must be [{inner}]");
    assert_eq!(beta.dims(), &[inner], "beta must be [{inner}]");
    let rows = x.len() / inner;
    Tensor::build(x.shape().clone(), |out| {
        let mut r0 = 0;
        while r0 < rows {
            let head = &x.data()[r0 * inner..];
            let mut stats = [(0.0, 0.0); 8];
            let block = if rows - r0 >= 8 {
                stats = moments::<8>(head, inner, eps);
                8
            } else {
                stats[..1].copy_from_slice(&moments::<1>(head, inner, eps));
                1
            };
            for (r, &(mean, denom)) in (r0..r0 + block).zip(&stats) {
                let row = &x.data()[r * inner..(r + 1) * inner];
                for (i, (o, &v)) in out[r * inner..(r + 1) * inner]
                    .iter_mut()
                    .zip(row)
                    .enumerate()
                {
                    *o = (v - mean) / denom * gamma.data()[i] + beta.data()[i];
                }
            }
            r0 += block;
        }
    })
}

/// `(mean, sqrt(var + eps))` of each of the `R` rows at the head of `x`,
/// `inner` wide: the element loop outside, the rows inside, so `R` sums
/// are in flight at once. A sum starts at `-0.0`, as `f32`'s `Sum` does.
fn moments<const R: usize>(x: &[f32], inner: usize, eps: f32) -> [(f32, f32); R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * inner..(r + 1) * inner]);
    let mut sum = [-0.0f32; R];
    for i in 0..inner {
        for (s, row) in sum.iter_mut().zip(&rows) {
            *s += row[i];
        }
    }
    let mean = sum.map(|s| s / inner as f32);
    let mut var = [-0.0f32; R];
    for i in 0..inner {
        for ((s, row), m) in var.iter_mut().zip(&rows).zip(&mean) {
            *s += (row[i] - m).powi(2);
        }
    }
    std::array::from_fn(|r| (mean[r], (var[r] / inner as f32 + eps).sqrt()))
}

/// RMS normalization over the innermost dimension: `y = x / rms(x) * gamma`.
pub fn rms_norm(x: &Tensor, gamma: &Tensor, eps: f32) -> Tensor {
    let inner = *x.dims().last().expect("rms_norm requires rank >= 1");
    assert_eq!(gamma.dims(), &[inner]);
    let rows = x.len() / inner;
    Tensor::build(x.shape().clone(), |out| {
        for r in 0..rows {
            let row = &x.data()[r * inner..(r + 1) * inner];
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / inner as f32;
            let denom = (ms + eps).sqrt();
            for (i, (o, &v)) in out[r * inner..(r + 1) * inner]
                .iter_mut()
                .zip(row)
                .enumerate()
            {
                *o = v / denom * gamma.data()[i];
            }
        }
    })
}

/// Inference-mode batch normalization for NCHW images with per-channel
/// statistics.
pub fn batch_norm_2d(
    x: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Tensor {
    assert_eq!(x.rank(), 4, "batch_norm_2d expects NCHW");
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    for t in [mean, var, gamma, beta] {
        assert_eq!(t.dims(), &[c], "per-channel stats must be [{c}]");
    }
    let plane = h * w;
    Tensor::build([n, c, h, w], |out| {
        for ni in 0..n {
            for ci in 0..c {
                let denom = (var.data()[ci] + eps).sqrt();
                let g = gamma.data()[ci];
                let b = beta.data()[ci];
                let m = mean.data()[ci];
                let base = (ni * c + ci) * plane;
                for i in 0..plane {
                    out[base + i] = (x.data()[base + i] - m) / denom * g + b;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn;

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = randn([4, 64], 11);
        let gamma = Tensor::ones([64]);
        let beta = Tensor::zeros([64]);
        let y = layer_norm(&x, &gamma, &beta, 1e-5);
        for r in 0..4 {
            let row = &y.data()[r * 64..(r + 1) * 64];
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_applies_affine() {
        let x = randn([1, 8], 3);
        let gamma = Tensor::full([8], 2.0);
        let beta = Tensor::full([8], 1.0);
        let base = layer_norm(&x, &Tensor::ones([8]), &Tensor::zeros([8]), 1e-5);
        let affine = layer_norm(&x, &gamma, &beta, 1e-5);
        for i in 0..8 {
            assert!((affine.data()[i] - (base.data()[i] * 2.0 + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn interleaved_rows_equal_the_one_row_loop_bit_for_bit() {
        // Every row count from 1 to 17 (0, 1 and 2 blocks of eight, each
        // with every tail) and prefill's 96, against the one-row-at-a-time
        // loop written out. A row of -0.0 pins where a sum starts, and
        // rows of very different scales tell any two chains apart.
        let inner = 37;
        let gamma = randn([inner], 1);
        let beta = randn([inner], 2);
        let (g, b) = (gamma.data(), beta.data());
        for rows in (1..=17).chain([96]) {
            let mut x = randn([rows, inner], rows as u64);
            for (r, row) in x.data_mut().chunks_mut(inner).enumerate() {
                row.iter_mut()
                    .for_each(|v| *v *= (r % 5) as f32 * 1e3 + 1e-3);
            }
            x.data_mut()[..inner].fill(-0.0);
            let got = layer_norm(&x, &gamma, &beta, 1e-5);
            for (r, (got, row)) in got
                .data()
                .chunks(inner)
                .zip(x.data().chunks(inner))
                .enumerate()
            {
                let mean: f32 = row.iter().sum::<f32>() / inner as f32;
                let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / inner as f32;
                let denom = (var + 1e-5).sqrt();
                for (i, (&got, &v)) in got.iter().zip(row).enumerate() {
                    let want = (v - mean) / denom * g[i] + b[i];
                    assert_eq!(got.to_bits(), want.to_bits(), "rows={rows} row {r} col {i}");
                }
            }
        }
    }

    #[test]
    fn rms_norm_unit_rms() {
        let x = randn([2, 32], 5);
        let y = rms_norm(&x, &Tensor::ones([32]), 1e-6);
        for r in 0..2 {
            let row = &y.data()[r * 32..(r + 1) * 32];
            let rms: f32 = (row.iter().map(|v| v * v).sum::<f32>() / 32.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batch_norm_normalizes_channels() {
        let x = Tensor::from_vec([1, 2, 1, 2], vec![2.0, 4.0, 10.0, 20.0]);
        let mean = Tensor::from_vec([2], vec![3.0, 15.0]);
        let var = Tensor::from_vec([2], vec![1.0, 25.0]);
        let y = batch_norm_2d(
            &x,
            &mean,
            &var,
            &Tensor::ones([2]),
            &Tensor::zeros([2]),
            0.0,
        );
        assert!((y.data()[0] + 1.0).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!((y.data()[2] + 1.0).abs() < 1e-6);
        assert!((y.data()[3] - 1.0).abs() < 1e-6);
    }
}
