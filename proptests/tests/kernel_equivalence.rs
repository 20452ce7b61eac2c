//! Property tests pinning the optimized kernels to the scalar reference.
//!
//! The blocked, simd, and parallel paths accumulate every output element
//! in the same order as the scalar loops (ascending inner index, single
//! f32 accumulator, identical zero-skip), so they must agree **bit for bit**
//! — not merely within a tolerance. These properties are what lets the
//! dispatcher switch paths by size without perturbing any numeric test
//! elsewhere in the workspace.

use genie_tensor::{init, ops};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_paths_bitwise_equal(
        m in 1usize..24,
        k in 1usize..24,
        // Cross the NR=64 column-tile boundary so ragged tiles are hit.
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let a = init::randn([m, k], seed);
        let b = init::randn([k, n], seed ^ 0x9E37);
        let reference = ops::matmul_scalar(&a, &b);
        let blocked = ops::matmul_blocked(&a, &b);
        let simd = ops::matmul_simd(&a, &b);
        let parallel = ops::matmul_parallel(&a, &b);
        let dispatched = ops::matmul(&a, &b);
        prop_assert_eq!(reference.data(), blocked.data());
        prop_assert_eq!(reference.data(), simd.data());
        prop_assert_eq!(reference.data(), parallel.data());
        prop_assert_eq!(reference.data(), dispatched.data());
    }

    #[test]
    fn batched_matmul_paths_bitwise_equal(
        ba in 1usize..4,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let a = init::randn([ba, m, k], seed);
        let b = init::randn([ba, k, n], seed ^ 0x51F1);
        let reference = ops::batched_matmul_scalar(&a, &b);
        let blocked = ops::batched_matmul_blocked(&a, &b);
        let simd = ops::batched_matmul_simd(&a, &b);
        let parallel = ops::batched_matmul_parallel(&a, &b);
        let dispatched = ops::batched_matmul(&a, &b);
        prop_assert_eq!(reference.data(), blocked.data());
        prop_assert_eq!(reference.data(), simd.data());
        prop_assert_eq!(reference.data(), parallel.data());
        prop_assert_eq!(reference.data(), dispatched.data());
    }

    #[test]
    fn conv2d_paths_bitwise_equal(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        hw in 3usize..10,
        kk in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in any::<u64>(),
    ) {
        prop_assume!(kk <= hw);
        let x = init::randn([n, cin, hw, hw], seed);
        let w = init::randn([cout, cin, kk, kk], seed ^ 0xC0);
        let bias = init::randn([cout], seed ^ 0xB1);
        let reference = ops::conv2d_scalar(&x, &w, &bias, stride, padding);
        let simd = ops::conv2d_simd(&x, &w, &bias, stride, padding);
        let parallel = ops::conv2d_parallel(&x, &w, &bias, stride, padding);
        let dispatched = ops::conv2d(&x, &w, &bias, stride, padding);
        prop_assert_eq!(reference.data(), simd.data());
        prop_assert_eq!(reference.data(), parallel.data());
        prop_assert_eq!(reference.data(), dispatched.data());
    }

    #[test]
    fn attention_paths_bitwise_equal(
        heads in 1usize..5,
        dh in 1usize..9,
        tq in 1usize..9,
        tk in 1usize..9,
        causal in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let dm = heads * dh;
        let q = init::randn([tq, dm], seed);
        let k = init::randn([tk, dm], seed ^ 0xAB);
        let v = init::randn([tk, dm], seed ^ 0xCD);
        let reference = ops::multi_head_attention_sequential(&q, &k, &v, heads, causal);
        let parallel = ops::multi_head_attention_parallel(&q, &k, &v, heads, causal);
        let dispatched = ops::multi_head_attention(&q, &k, &v, heads, causal);
        prop_assert_eq!(reference.data(), parallel.data());
        prop_assert_eq!(reference.data(), dispatched.data());
    }

    #[test]
    fn fused_decode_attention_bitwise_equals_sliced_reference(
        heads in 1usize..6,
        dh in 1usize..12,
        // Cross the 8-key unrolled-tile boundary so ragged tails are hit.
        tk in 1usize..24,
        seed in any::<u64>(),
    ) {
        let dm = heads * dh;
        let q = init::randn([1, dm], seed);
        let k = init::randn([tk, dm], seed ^ 0xAB);
        let v = init::randn([tk, dm], seed ^ 0xCD);
        // tq == 1 routes the dispatcher through the fused decode kernel,
        // which must reproduce the slice-per-head reference exactly.
        let reference = ops::multi_head_attention_sequential(&q, &k, &v, heads, true);
        let fused = ops::multi_head_attention(&q, &k, &v, heads, true);
        prop_assert_eq!(reference.data(), fused.data());
    }
}
