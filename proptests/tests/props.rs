//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for any data, because the functional plane is the oracle
//! every other plane is judged against.

use genie_tensor::{init, ops, IndexTensor, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    init::randn([rows, cols], seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associates_within_tolerance(
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let a = tensor(n, n, seed);
        let b = tensor(n, n, seed ^ 0xA);
        let c = tensor(n, n, seed ^ 0xB);
        let left = ops::matmul(&ops::matmul(&a, &b), &c);
        let right = ops::matmul(&a, &ops::matmul(&b, &c));
        prop_assert!(left.approx_eq(&right, 1e-2), "max diff {}", left.max_abs_diff(&right));
    }

    #[test]
    fn matmul_transpose_identity(
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed ^ 1);
        let lhs = ops::transpose2d(&ops::matmul(&a, &b));
        let rhs = ops::matmul(&ops::transpose2d(&b), &ops::transpose2d(&a));
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn layer_norm_is_shift_scale_invariant(
        cols in 2usize..32,
        seed in any::<u64>(),
        shift in -100.0f32..100.0,
        scale in 0.5f32..10.0,
    ) {
        let x = tensor(1, cols, seed);
        let gamma = Tensor::ones([cols]);
        let beta = Tensor::zeros([cols]);
        let base = ops::layer_norm(&x, &gamma, &beta, 1e-6);
        // y = scale·x + shift normalizes to the same thing.
        let transformed = Tensor::from_vec(
            [1, cols],
            x.data().iter().map(|&v| v * scale + shift).collect::<Vec<_>>(),
        );
        let normed = ops::layer_norm(&transformed, &gamma, &beta, 1e-6);
        prop_assert!(normed.approx_eq(&base, 2e-2), "diff {}", normed.max_abs_diff(&base));
    }

    #[test]
    fn softmax_preserves_argmax(
        cols in 2usize..40,
        seed in any::<u64>(),
    ) {
        let x = tensor(1, cols, seed);
        let s = ops::softmax_lastdim(&x);
        let am_x = ops::argmax_lastdim(&x);
        let am_s = ops::argmax_lastdim(&s);
        prop_assert_eq!(am_x.data(), am_s.data());
    }

    #[test]
    fn gather_then_index_matches_rows(
        vocab in 1usize..30,
        dim in 1usize..8,
        pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let table = tensor(vocab, dim, seed);
        let idx = (pick % vocab as u64) as i64;
        let out = ops::gather_rows(&table, &IndexTensor::from_slice(&[idx]));
        for c in 0..dim {
            prop_assert_eq!(out.at(&[0, c]), table.at(&[idx as usize, c]));
        }
    }

    #[test]
    fn pooling_bounds(
        h in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Max pool output elements are ≥ avg pool outputs everywhere.
        let x = init::uniform([1, 1, h * 2, h * 2], 0.0, 1.0, seed);
        let maxp = ops::pool2d(&x, 2, 2, ops::PoolMode::Max);
        let avgp = ops::pool2d(&x, 2, 2, ops::PoolMode::Avg);
        for (m, a) in maxp.data().iter().zip(avgp.data()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn conv_linearity(
        seed in any::<u64>(),
        alpha in -3.0f32..3.0,
    ) {
        // conv(αx) = α·conv(x) with zero bias.
        let x = tensor(1, 2 * 6 * 6, seed).reshape([1, 2, 6, 6]);
        let w = tensor(3, 2 * 9, seed ^ 7).reshape([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        let base = ops::conv2d(&x, &w, &bias, 1, 1);
        let scaled_in = ops::scale(&x, alpha);
        let scaled_out = ops::conv2d(&scaled_in, &w, &bias, 1, 1);
        prop_assert!(scaled_out.approx_eq(&ops::scale(&base, alpha), 1e-3));
    }

    #[test]
    fn attention_rows_are_convex_combinations(
        tq in 1usize..4,
        tk in 1usize..6,
        seed in any::<u64>(),
    ) {
        // With v ∈ [0,1], attention outputs stay in [0,1] (convexity of
        // softmax-weighted sums).
        let q = tensor(tq, 4, seed);
        let k = tensor(tk, 4, seed ^ 3);
        let v = init::uniform([tk, 4], 0.0, 1.0, seed ^ 4);
        let o = ops::attention(&q, &k, &v, false);
        for &val in o.data() {
            prop_assert!((-1e-5..=1.0 + 1e-5).contains(&val), "out of hull: {val}");
        }
    }
}
