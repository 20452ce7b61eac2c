//! Pointwise activations and softmax.

use crate::par;
use crate::tensor::Tensor;

/// Elements from which a `tanhf`-bound map (`gelu`, 25 ns per element)
/// goes out over the worker pool: ~400 µs of work against a measured
/// ~30 µs hand-off (`[16, 1024]`: 406 → 236 µs on two threads,
/// `[96, 1024]`: 2.49 → 1.29 ms). A decode step's `[1, ffn]` stays inline.
const TANH_PAR_MIN_ELEMS: usize = 1 << 14;

/// Elementwise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    map(x, |v| v.max(0.0))
}

/// Elementwise GELU (tanh approximation, as used by GPT-style models).
pub fn gelu(x: &Tensor) -> Tensor {
    map_pooled(x, |v| {
        0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh())
    })
}

/// Elementwise SiLU / swish.
pub fn silu(x: &Tensor) -> Tensor {
    map(x, |v| v / (1.0 + (-v).exp()))
}

/// Elementwise sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    map(x, |v| 1.0 / (1.0 + (-v).exp()))
}

/// Numerically-stable softmax over the innermost dimension.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let dims = x.dims().to_vec();
    assert!(!dims.is_empty(), "softmax requires rank >= 1");
    let inner = *dims.last().expect("non-empty dims");
    let rows = x.len() / inner;
    Tensor::build(dims, |out| {
        for r in 0..rows {
            let row = &x.data()[r * inner..(r + 1) * inner];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (o, &v) in out[r * inner..(r + 1) * inner].iter_mut().zip(row) {
                let e = (v - max).exp();
                *o = e;
                sum += e;
            }
            for o in &mut out[r * inner..(r + 1) * inner] {
                *o /= sum;
            }
        }
    })
}

fn map(x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::build(x.dims().to_vec(), |out| map_into(out, x.data(), &f))
}

fn map_into(out: &mut [f32], xs: &[f32], f: &impl Fn(f32) -> f32) {
    for (o, &v) in out.iter_mut().zip(xs) {
        *o = f(v);
    }
}

/// [`map`] for the `tanhf`-bound `gelu`: from [`TANH_PAR_MIN_ELEMS`] up,
/// whole innermost rows go out over the worker pool. An element is still
/// `f` of its own input alone, so the result is the single-thread loop's,
/// bit for bit. Nothing else comes here: `expf` (`silu`, `sigmoid`) is
/// 2.8 ns per element, so pooling loses below 2¹⁷ elements, which no
/// model reaches, and the cheap maps (`relu`, `add`, `mul`, `scale`,
/// `add_bias`: 5 µs on `[96, 256]`) cost less than one wake-up.
fn map_pooled(x: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    if x.len() < TANH_PAR_MIN_ELEMS {
        return map(x, f);
    }
    let row = *x.dims().last().expect("rank 0 is below any threshold");
    Tensor::build(x.dims().to_vec(), |out| {
        par::par_rows(out, row, |row0, chunk| {
            map_into(chunk, &x.data()[row0 * row..], &f)
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec([4], vec![-2.0, -0.5, 0.0, 3.0]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn gelu_reference_points() {
        let x = Tensor::from_vec([3], vec![0.0, 1.0, -1.0]);
        let y = gelu(&x);
        assert!((y.data()[0] - 0.0).abs() < 1e-6);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn silu_and_sigmoid_relation() {
        let x = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]);
        let s = silu(&x);
        let sig = sigmoid(&x);
        for i in 0..3 {
            assert!((s.data()[i] - x.data()[i] * sig.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn pooled_gelu_equals_the_single_thread_loop_bit_for_bit() {
        // Below, at and above the threshold, and a ragged row count well
        // above it: the whole tensor at once (pooled from the threshold
        // up) against the same function one row at a time (a row is far
        // below the threshold, so that is the plain loop).
        let cols = 512;
        let at = TANH_PAR_MIN_ELEMS / cols;
        for rows in [at - 1, at, at + 1, 2 * at + 3] {
            let x = crate::init::randn([rows, cols], rows as u64);
            let whole = gelu(&x);
            assert_eq!(whole.dims(), x.dims());
            for (r, got) in whole.data().chunks(cols).enumerate() {
                let row = Tensor::from_vec([1, cols], x.data()[r * cols..][..cols].to_vec());
                assert_eq!(got, gelu(&row).data(), "rows={rows} row {r}");
            }
        }
        // Rank 3 splits into its 35 innermost rows; rank 1 is one row,
        // which leaves nothing to split.
        let x = crate::init::randn([7, 5, 1024], 10);
        assert_eq!(gelu(&x).data(), gelu(&x.reshaped([35 * 1024])).data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let y = softmax_lastdim(&x);
        for r in 0..2 {
            let sum: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Large inputs must not overflow (stability check).
        assert!(y.data()[3].is_finite());
        // Monotonicity within a row.
        assert!(y.data()[0] < y.data()[1] && y.data()[1] < y.data()[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec([1, 4], vec![0.1, 0.2, 0.3, 0.4]);
        let shifted = Tensor::from_vec([1, 4], vec![100.1, 100.2, 100.3, 100.4]);
        assert!(softmax_lastdim(&x).approx_eq(&softmax_lastdim(&shifted), 1e-5));
    }
}
