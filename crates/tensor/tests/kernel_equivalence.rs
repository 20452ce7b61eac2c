//! The optimized kernels pinned to the scalar reference, as seeded loops.
//!
//! The blocked, simd, and parallel paths accumulate every output element
//! in the same order as the scalar loops (ascending inner index, single
//! f32 accumulator, identical zero-skip), so they must agree **bit for bit**
//! — not merely within a tolerance, and whichever instantiation of the
//! simd row worker this CPU selects. These properties are what lets the
//! dispatcher switch paths by size, and the row worker switch width by
//! ISA, without perturbing any numeric test elsewhere in the workspace.

use genie_tensor::{init, ops, Tensor};

/// Cases per property; a case is a function of its index alone.
const CASES: u64 = 48;

/// One draw per `(lo, hi)` range, `lo..hi` like the proptest strategies
/// this file replaced, from `init`'s seeded stream.
fn draw<const N: usize>(seed: u64, ranges: [(usize, usize); N]) -> [usize; N] {
    let u = init::uniform([N], 0.0, 1.0, seed ^ 0xD1CE);
    std::array::from_fn(|i| {
        let (lo, hi) = ranges[i];
        (lo + (u.data()[i] * (hi - lo) as f32) as usize).min(hi - 1)
    })
}

/// Bit patterns, so `-0.0` is not `0.0` and a `NaN` equals itself.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_matmul_tiers_agree(a: &Tensor, b: &Tensor, case: &str) {
    let reference = bits(&ops::matmul_scalar(a, b));
    assert_eq!(
        reference,
        bits(&ops::matmul_blocked(a, b)),
        "blocked {case}"
    );
    assert_eq!(reference, bits(&ops::matmul_simd(a, b)), "simd {case}");
    assert_eq!(
        reference,
        bits(&ops::matmul_parallel(a, b)),
        "parallel {case}"
    );
    assert_eq!(reference, bits(&ops::matmul(a, b)), "dispatched {case}");
}

#[test]
fn matmul_paths_bitwise_equal() {
    // `n` runs past 2·64 + 32 + 16 + 8 + tail, so every strip width of
    // the row worker's cascade is crossed (and the blocked tier's NR = 64
    // boundary with it); `m` past 2·4 rows per worker, so the parallel
    // tier hands out chunks that start at `row0 > 0`.
    for seed in 0..CASES {
        let [m, k, n] = draw(seed, [(1, 41), (1, 24), (1, 230)]);
        let a = init::randn([m, k], seed);
        let b = init::randn([k, n], seed ^ 0x9E37);
        assert_matmul_tiers_agree(&a, &b, &format!("seed={seed} m={m} k={k} n={n}"));
    }
    // Every row arity as the last tile (incl. `m = 1`, the decode shape)
    // against every stacking of strip widths.
    for m in 1..=9 {
        for n in [1, 8, 24, 31, 64, 75, 96, 128, 189, 191] {
            let a = init::randn([m, 13], (m * n) as u64);
            let b = init::randn([13, n], (m + n) as u64);
            assert_matmul_tiers_agree(&a, &b, &format!("m={m} k=13 n={n}"));
        }
    }
}

#[test]
fn zero_in_a_hides_non_finite_b_on_every_tier() {
    // The `av == 0.0` skip is observable: under an exact zero of either
    // sign in A, `±inf`/`NaN` in B never reach the product (0 · inf is
    // NaN), so the result is finite — and every tier has to skip alike.
    for (m, n) in [(1, 40), (6, 75), (9, 191), (37, 96)] {
        let k = 11;
        let mut a = init::randn([m, k], n as u64);
        let mut b = init::randn([k, n], m as u64);
        for row in a.data_mut().chunks_mut(k) {
            (row[2], row[5], row[9]) = (0.0, -0.0, 0.0);
        }
        b.data_mut()[2 * n..3 * n].fill(f32::INFINITY);
        b.data_mut()[5 * n..6 * n].fill(f32::NAN);
        b.data_mut()[9 * n..10 * n].fill(f32::NEG_INFINITY);
        assert!(ops::matmul_scalar(&a, &b)
            .data()
            .iter()
            .all(|v| v.is_finite()));
        assert_matmul_tiers_agree(&a, &b, &format!("non-finite B, m={m} n={n}"));
    }
}

#[test]
fn batched_matmul_paths_bitwise_equal() {
    for seed in 0..CASES {
        let [ba, m, k, n] = draw(seed, [(1, 6), (1, 12), (1, 12), (1, 120)]);
        let a = init::randn([ba, m, k], seed);
        let b = init::randn([ba, k, n], seed ^ 0x51F1);
        let case = format!("seed={seed} ba={ba} m={m} k={k} n={n}");
        let reference = bits(&ops::batched_matmul_scalar(&a, &b));
        assert_eq!(
            reference,
            bits(&ops::batched_matmul_blocked(&a, &b)),
            "{case}"
        );
        assert_eq!(reference, bits(&ops::batched_matmul_simd(&a, &b)), "{case}");
        assert_eq!(
            reference,
            bits(&ops::batched_matmul_parallel(&a, &b)),
            "{case}"
        );
        assert_eq!(reference, bits(&ops::batched_matmul(&a, &b)), "{case}");
    }
}

#[test]
fn conv2d_paths_bitwise_equal() {
    for seed in 0..CASES {
        let [n, cin, cout, hw, kk, stride, padding] = draw(
            seed,
            [(1, 3), (1, 4), (1, 4), (3, 10), (1, 4), (1, 3), (0, 2)],
        );
        let x = init::randn([n, cin, hw, hw], seed);
        let w = init::randn([cout, cin, kk, kk], seed ^ 0xC0);
        let bias = init::randn([cout], seed ^ 0xB1);
        let case = format!("seed={seed} x={} w={}", x.shape(), w.shape());
        let reference = bits(&ops::conv2d_scalar(&x, &w, &bias, stride, padding));
        let simd = ops::conv2d_simd(&x, &w, &bias, stride, padding);
        let parallel = ops::conv2d_parallel(&x, &w, &bias, stride, padding);
        let dispatched = ops::conv2d(&x, &w, &bias, stride, padding);
        assert_eq!(reference, bits(&simd), "{case}");
        assert_eq!(reference, bits(&parallel), "{case}");
        assert_eq!(reference, bits(&dispatched), "{case}");
    }
}

#[test]
fn attention_paths_bitwise_equal() {
    // Up to 110 keys of up to 32 columns per head: QK^T (`n = tk`) and
    // weights·V (`n = dh`) leave the scalar tier on the larger draws.
    for seed in 0..CASES {
        let [heads, dh, tq, tk, causal] = draw(seed, [(1, 5), (1, 33), (1, 40), (1, 111), (0, 2)]);
        let (dm, causal) = (heads * dh, causal == 1);
        let q = init::randn([tq, dm], seed);
        let k = init::randn([tk, dm], seed ^ 0xAB);
        let v = init::randn([tk, dm], seed ^ 0xCD);
        let case = format!("seed={seed} heads={heads} dh={dh} tq={tq} tk={tk} causal={causal}");
        let reference = ops::multi_head_attention_sequential(&q, &k, &v, heads, causal);
        let parallel = ops::multi_head_attention_parallel(&q, &k, &v, heads, causal);
        let dispatched = ops::multi_head_attention(&q, &k, &v, heads, causal);
        assert_eq!(bits(&reference), bits(&parallel), "{case}");
        assert_eq!(bits(&reference), bits(&dispatched), "{case}");
    }
}

#[test]
fn fused_decode_attention_bitwise_equals_sliced_reference() {
    // `tk` crosses the 8-key unrolled-tile boundary so ragged tails are
    // hit. `tq == 1` routes the dispatcher through the fused decode
    // kernel, which must reproduce the slice-per-head reference exactly.
    for seed in 0..CASES {
        let [heads, dh, tk] = draw(seed, [(1, 6), (1, 12), (1, 24)]);
        let dm = heads * dh;
        let q = init::randn([1, dm], seed);
        let k = init::randn([tk, dm], seed ^ 0xAB);
        let v = init::randn([tk, dm], seed ^ 0xCD);
        let reference = ops::multi_head_attention_sequential(&q, &k, &v, heads, true);
        let fused = ops::multi_head_attention(&q, &k, &v, heads, true);
        assert_eq!(
            bits(&reference),
            bits(&fused),
            "seed={seed} heads={heads} dh={dh} tk={tk}"
        );
    }
}
