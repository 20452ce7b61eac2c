//! Algebraic identities of the tensor kernels that must hold for any
//! data, because the functional plane is the oracle every other plane is
//! judged against — as seeded loops.

mod common;

use common::draw;
use genie_tensor::{init, ops, IndexTensor, Tensor};

/// Cases per property; a case is a function of its index alone.
const CASES: u64 = 64;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    init::randn([rows, cols], seed)
}

#[test]
fn matmul_associates_within_tolerance() {
    for seed in 0..CASES {
        let [n] = draw(seed, [(1, 6)]);
        let a = tensor(n, n, seed);
        let b = tensor(n, n, seed ^ 0xA);
        let c = tensor(n, n, seed ^ 0xB);
        let left = ops::matmul(&ops::matmul(&a, &b), &c);
        let right = ops::matmul(&a, &ops::matmul(&b, &c));
        assert!(
            left.approx_eq(&right, 1e-2),
            "seed={seed} n={n} max diff {}",
            left.max_abs_diff(&right)
        );
    }
}

#[test]
fn matmul_transpose_identity() {
    for seed in 0..CASES {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let [m, k, n] = draw(seed, [(1, 5), (1, 5), (1, 5)]);
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 1);
        let lhs = ops::transpose2d(&ops::matmul(&a, &b));
        let rhs = ops::matmul(&ops::transpose2d(&b), &ops::transpose2d(&a));
        assert!(lhs.approx_eq(&rhs, 1e-4), "seed={seed} m={m} k={k} n={n}");
    }
}

#[test]
fn layer_norm_is_shift_scale_invariant() {
    for seed in 0..CASES {
        let [cols] = draw(seed, [(2, 32)]);
        let shift = init::uniform([1], -100.0, 100.0, seed ^ 0x5F).data()[0];
        let scale = init::uniform([1], 0.5, 10.0, seed ^ 0x5C).data()[0];
        let x = tensor(1, cols, seed);
        let gamma = Tensor::ones([cols]);
        let beta = Tensor::zeros([cols]);
        let base = ops::layer_norm(&x, &gamma, &beta, 1e-6);
        // y = scale·x + shift normalizes to the same thing.
        let transformed = Tensor::from_vec(
            [1, cols],
            x.data()
                .iter()
                .map(|&v| v * scale + shift)
                .collect::<Vec<_>>(),
        );
        let normed = ops::layer_norm(&transformed, &gamma, &beta, 1e-6);
        assert!(
            normed.approx_eq(&base, 2e-2),
            "seed={seed} cols={cols} shift={shift} scale={scale} diff {}",
            normed.max_abs_diff(&base)
        );
    }
}

#[test]
fn softmax_preserves_argmax() {
    for seed in 0..CASES {
        let [cols] = draw(seed, [(2, 40)]);
        let x = tensor(1, cols, seed);
        let s = ops::softmax_lastdim(&x);
        let am_x = ops::argmax_lastdim(&x);
        let am_s = ops::argmax_lastdim(&s);
        assert_eq!(am_x.data(), am_s.data(), "seed={seed} cols={cols}");
    }
}

#[test]
fn gather_then_index_matches_rows() {
    for seed in 0..CASES {
        let [vocab, dim] = draw(seed, [(1, 30), (1, 8)]);
        let [idx] = draw(seed ^ 0x1D, [(0, vocab)]);
        let table = tensor(vocab, dim, seed);
        let out = ops::gather_rows(&table, &IndexTensor::from_slice(&[idx as i64]));
        for c in 0..dim {
            assert_eq!(out.at(&[0, c]), table.at(&[idx, c]), "seed={seed} c={c}");
        }
    }
}

#[test]
fn pooling_bounds() {
    for seed in 0..CASES {
        // Max pool output elements are ≥ avg pool outputs everywhere.
        let [h] = draw(seed, [(2, 10)]);
        let x = init::uniform([1, 1, h * 2, h * 2], 0.0, 1.0, seed);
        let maxp = ops::pool2d(&x, 2, 2, ops::PoolMode::Max);
        let avgp = ops::pool2d(&x, 2, 2, ops::PoolMode::Avg);
        for (m, a) in maxp.data().iter().zip(avgp.data()) {
            assert!(m >= a, "seed={seed} h={h}: max {m} < avg {a}");
        }
    }
}

#[test]
fn conv_linearity() {
    for seed in 0..CASES {
        // conv(αx) = α·conv(x) with zero bias.
        let alpha = init::uniform([1], -3.0, 3.0, seed ^ 0xA1).data()[0];
        let x = tensor(1, 2 * 6 * 6, seed).reshape([1, 2, 6, 6]);
        let w = tensor(3, 2 * 9, seed ^ 7).reshape([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        let base = ops::conv2d(&x, &w, &bias, 1, 1);
        let scaled_in = ops::scale(&x, alpha);
        let scaled_out = ops::conv2d(&scaled_in, &w, &bias, 1, 1);
        assert!(
            scaled_out.approx_eq(&ops::scale(&base, alpha), 1e-3),
            "seed={seed} alpha={alpha}"
        );
    }
}

#[test]
fn attention_rows_are_convex_combinations() {
    for seed in 0..CASES {
        // With v ∈ [0,1], attention outputs stay in [0,1] (convexity of
        // softmax-weighted sums).
        let [tq, tk] = draw(seed, [(1, 4), (1, 6)]);
        let q = tensor(tq, 4, seed);
        let k = tensor(tk, 4, seed ^ 3);
        let v = init::uniform([tk, 4], 0.0, 1.0, seed ^ 4);
        let o = ops::attention(&q, &k, &v, false);
        for &val in o.data() {
            assert!(
                (-1e-5..=1.0 + 1e-5).contains(&val),
                "seed={seed} tq={tq} tk={tk} out of hull: {val}"
            );
        }
    }
}
