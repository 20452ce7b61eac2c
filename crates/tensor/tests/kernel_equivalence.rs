//! Every tier of every kernel family pinned to the scalar reference, as
//! seeded loops over the tiers `stats::PATHS` lists.
//!
//! The blocked, simd, and parallel paths accumulate every output element
//! in the same order as the scalar loops (ascending inner index, single
//! f32 accumulator, identical zero-skip), so they must agree **bit for bit**
//! — not merely within a tolerance, and whichever instantiation of the
//! simd row worker this CPU selects. These properties are what lets the
//! dispatcher switch paths by size, and the row worker switch width by
//! ISA, without perturbing any numeric test elsewhere in the workspace.
//! The quantized tiers are approximate: here they are pinned to their own
//! kernels in `quant`, whose distance from scalar `quant_error.rs` bounds.
//!
//! No test names a tier's function: a tier added to `PATHS` is compared
//! by every loop below, and `assert_matmul_tiers_agree` stops compiling
//! until it says with what.

mod common;

use common::draw;
use genie_tensor::stats::{self, Path, PATHS};
use genie_tensor::{init, ops, pool, quant, Tensor};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Cases per property.
const CASES: u64 = 48;

/// The dispatch counters and the forced tier are process globals, and
/// the tests of a binary run on parallel threads: a test that reads
/// exact counts or forces a tier holds this exclusively, every other
/// test (all of them run kernels) shares it.
static KERNELS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    KERNELS.read().unwrap_or_else(PoisonError::into_inner)
}

/// The kernels to oneself; dropping it — when an assertion unwinds too —
/// clears whatever tier was forced meanwhile.
struct Exclusive {
    _kernels: RwLockWriteGuard<'static, ()>,
}

fn exclusive() -> Exclusive {
    Exclusive {
        _kernels: KERNELS.write().unwrap_or_else(PoisonError::into_inner),
    }
}

impl Drop for Exclusive {
    fn drop(&mut self) {
        stats::force_path(None);
    }
}

/// Bit patterns, so `-0.0` is not `0.0` and a `NaN` equals itself.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Every tier of `matmul_on` against what it has to reproduce bit for
/// bit — the scalar loop for an exact tier, its own kernel in `quant` for
/// a quantized one — and the dispatcher against the scalar loop.
fn assert_matmul_tiers_agree(a: &Tensor, b: &Tensor, case: &str) {
    let scalar = bits(&ops::matmul_scalar(a, b));
    for p in PATHS {
        let want = match p {
            Path::Scalar | Path::Blocked | Path::Simd | Path::Parallel => scalar.clone(),
            Path::Int8 => bits(&quant::matmul_int8(a, b)),
            Path::Fp16 => bits(&quant::matmul_fp16(a, b)),
        };
        assert_eq!(want, bits(&ops::matmul_on(p, a, b)), "{p:?} {case}");
    }
    assert_eq!(scalar, bits(&ops::matmul(a, b)), "dispatched {case}");
}

#[test]
fn matmul_paths_bitwise_equal() {
    let _kernels = shared();
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
    // An empty side on every tier: a shape, and nothing read or written.
    for (m, k, n) in [(0, 4, 5), (3, 0, 5), (3, 4, 0)] {
        let (a, b) = (Tensor::zeros(vec![m, k]), Tensor::zeros(vec![k, n]));
        assert_matmul_tiers_agree(&a, &b, &format!("m={m} k={k} n={n}"));
    }
}

#[test]
fn zero_in_a_hides_non_finite_b_on_every_tier() {
    let _kernels = shared();
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
fn a_lone_zero_in_any_row_and_column_of_a_tile_is_skipped() {
    let _kernels = shared();
    // The row worker looks for a zero in a tile's A rows once and leaves
    // the skip out of a tile that has none, so a scan that misses a row
    // or a column lets `0 · inf` through. One signed zero at a time, in
    // A's last column, in each row in turn: every tile arity and, on the
    // parallel tier, tiles of chunks that start at `row0 > 0`; B's
    // matching row holds `±inf` and `NaN`, at every strip width.
    let k = 7;
    for m in [2, 3, 5, 6, 7, 13] {
        for n in [1, 8, 24, 31, 64, 75, 96, 189] {
            let a = init::randn([m, k], (m * n) as u64);
            let mut b = init::randn([k, n], (m + n) as u64);
            for (j, x) in b.data_mut()[(k - 1) * n..].iter_mut().enumerate() {
                *x = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
            }
            for z in 0..m {
                let mut a = a.clone();
                a.data_mut()[z * k + k - 1] = if z % 2 == 0 { 0.0 } else { -0.0 };
                let scalar = ops::matmul_scalar(&a, &b);
                assert!(scalar.data()[z * n..][..n].iter().all(|v| v.is_finite()));
                assert_matmul_tiers_agree(
                    &a,
                    &b,
                    &format!("zero at ({z}, {}), m={m} n={n}", k - 1),
                );
            }
        }
    }
}

#[test]
fn many_tiles_across_a_block_boundary_on_every_tier() {
    let _kernels = shared();
    // The row worker runs its tiles in blocks of 64 (256 rows), each with
    // its own zero-test mask: one block, a full one, one row past it, a
    // partial second block, and on the parallel tier row counts that
    // split unevenly over the workers (97, 257). One row in every third
    // tile of the first block, and the last row, holds a signed zero in
    // A's last column, over B's `±inf`/`NaN` last row: a mask shifted by
    // a tile lets `0 · inf` through, a dropped partial tile leaves zeros.
    let k = 9;
    for m in [97, 255, 256, 257, 300] {
        for n in [24, 75, 189] {
            let mut a = init::randn([m, k], (m * n) as u64);
            let mut b = init::randn([k, n], (m + n) as u64);
            let zero_rows = (1..64).step_by(3).map(|t| 4 * t + t % 4).filter(|&r| r < m);
            for (z, r) in zero_rows.chain([m - 1]).enumerate() {
                a.data_mut()[r * k + k - 1] = [0.0, -0.0][z % 2];
            }
            for (j, x) in b.data_mut()[(k - 1) * n..].iter_mut().enumerate() {
                *x = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
            }
            let scalar = ops::matmul_scalar(&a, &b);
            assert!(scalar.data()[(m - 1) * n..].iter().all(|v| v.is_finite()));
            assert_matmul_tiers_agree(&a, &b, &format!("m={m} k={k} n={n}"));
        }
    }
}

/// Every tier of `conv2d_on` — the blocked and quantized ones run the
/// scalar kernel — and the dispatcher against the scalar tier.
fn assert_conv_tiers_agree(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, padding: usize) {
    let case = format!(
        "x={} w={} stride={stride} padding={padding}",
        x.shape(),
        w.shape()
    );
    let reference = bits(&ops::conv2d_on(Path::Scalar, x, w, bias, stride, padding));
    for p in PATHS {
        let got = ops::conv2d_on(p, x, w, bias, stride, padding);
        assert_eq!(reference, bits(&got), "{p:?} {case}");
    }
    let dispatched = ops::conv2d(x, w, bias, stride, padding);
    assert_eq!(reference, bits(&dispatched), "dispatched {case}");
}

#[test]
fn conv2d_paths_bitwise_equal() {
    let _kernels = shared();
    for seed in 0..CASES {
        let [n, cin, cout, hw, kk, stride, padding] = draw(
            seed,
            [(1, 3), (1, 4), (1, 4), (3, 10), (1, 4), (1, 3), (0, 2)],
        );
        let x = init::randn([n, cin, hw, hw], seed);
        let w = init::randn([cout, cin, kk, kk], seed ^ 0xC0);
        let bias = init::randn([cout], seed ^ 0xB1);
        assert_conv_tiers_agree(&x, &w, &bias, stride, padding);
    }
    // Wider than tall: stride 2 leaves six output columns (all tail),
    // stride 1 with padding eleven (one full lane block and a tail).
    let x = init::randn([2, 3, 9, 11], 7);
    let w = init::randn([4, 3, 3, 3], 8);
    let bias = init::randn([4], 9);
    assert_conv_tiers_agree(&x, &w, &bias, 2, 1);
    assert_conv_tiers_agree(&x, &w, &bias, 1, 1);
}

/// The sliced head loop the fused one is held to, spelled out: each
/// head's bands copied out of the packed projections, `ops::attention`
/// on them (its products dispatch by size, all exact with nothing
/// forced), the outputs concatenated in head order.
fn sliced(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, causal: bool) -> Tensor {
    let dh = q.dims()[1] / heads;
    let band = |x: &Tensor, h: usize| ops::narrow(x, 1, h * dh, dh);
    (0..heads)
        .map(|h| ops::attention(&band(q, h), &band(k, h), &band(v, h), causal))
        .reduce(|a, b| ops::concat(&a, &b, 1))
        .expect("at least one head")
}

/// Bit patterns with every NaN as one: which NaN an operation returns
/// is not specified, so a NaN output has to be one in both, no more.
fn bits_up_to_nan(t: &Tensor) -> Vec<u32> {
    let nan = f32::NAN.to_bits();
    t.data()
        .iter()
        .map(|v| if v.is_nan() { nan } else { v.to_bits() })
        .collect()
}

/// Every tier of `multi_head_attention_on` and the dispatcher against
/// the sliced loop. The exact tiers run the fused loop; with nothing
/// forced `Int8` and `Fp16` run the sliced loop itself, on exact
/// products.
fn assert_attention_tiers_agree(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    causal: bool,
) -> Tensor {
    let case = format!(
        "q={} k={} heads={heads} causal={causal}",
        q.shape(),
        k.shape()
    );
    let reference = sliced(q, k, v, heads, causal);
    let want = bits_up_to_nan(&reference);
    for p in PATHS {
        let got = ops::multi_head_attention_on(p, q, k, v, heads, causal);
        assert_eq!(want, bits_up_to_nan(&got), "{p:?} {case}");
    }
    let dispatched = ops::multi_head_attention(q, k, v, heads, causal);
    assert_eq!(want, bits_up_to_nan(&dispatched), "dispatched {case}");
    reference
}

#[test]
fn attention_paths_bitwise_equal() {
    let _kernels = shared();
    // Up to 110 keys of up to 32 columns per head: QK^T (`n = tk`) and
    // weights·V (`n = dh`) leave the scalar tier on the larger draws.
    for seed in 0..CASES {
        let [heads, dh, tq, tk, causal] = draw(seed, [(1, 5), (1, 33), (1, 40), (1, 111), (0, 2)]);
        let dm = heads * dh;
        let q = init::randn([tq, dm], seed);
        let k = init::randn([tk, dm], seed ^ 0xAB);
        let v = init::randn([tk, dm], seed ^ 0xCD);
        assert_attention_tiers_agree(&q, &k, &v, heads, causal == 1);
    }
}

#[test]
fn fused_attention_equals_the_sliced_loop_on_every_shape_and_special_value() {
    let _kernels = shared();
    // `(heads, dh, tq, tk)`: chunked prefill (tq < tk), decode (tq = 1),
    // more queries than keys (tq > tk), square prompts with a ragged last
    // tile of queries, ragged and one-column heads, and prefill_wide's
    // 96 × 4 × 64.
    let shapes = [
        (3, 5, 7, 19),
        (2, 16, 1, 33),
        (1, 3, 1, 1),
        (4, 3, 13, 6),
        (2, 7, 9, 9),
        (5, 1, 4, 4),
        (2, 24, 30, 70),
        (4, 64, 96, 96),
    ];
    for (case, &(heads, dh, tq, tk)) in shapes.iter().enumerate() {
        let dm = heads * dh;
        for causal in [false, true] {
            let seed = case as u64;
            let (mut q, k, v) = (
                init::randn([tq, dm], seed),
                init::randn([tk, dm], seed ^ 0xAB),
                init::randn([tk, dm], seed ^ 0xCD),
            );
            // Signed zeros in Q exercise the score's zero skip.
            for (i, x) in q.data_mut().iter_mut().enumerate() {
                if i % 7 == 3 {
                    *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            assert_attention_tiers_agree(&q, &k, &v, heads, causal);

            // ±inf and NaN in Q, K and V: every output the reference
            // leaves finite is the same bits, every NaN a NaN.
            let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0];
            let (mut qs, mut ks, mut vs) = (q.clone(), k.clone(), v.clone());
            for (t, stride) in [(&mut qs, 11), (&mut ks, 13), (&mut vs, 17)] {
                for (i, x) in t.data_mut().iter_mut().enumerate().skip(5) {
                    if i % stride == 0 {
                        *x = specials[i / stride % specials.len()];
                    }
                }
            }
            assert_attention_tiers_agree(&qs, &ks, &vs, heads, causal);

            // Inf and NaN only in the last key's K and V rows: under the
            // mask, no query before the one that sees that key — its tile
            // of four computes the hidden scores — may read them.
            let (mut kl, mut vl) = (k.clone(), v.clone());
            kl.data_mut()[(tk - 1) * dm..].fill(f32::NAN);
            vl.data_mut()[(tk - 1) * dm..].fill(f32::INFINITY);
            let out = assert_attention_tiers_agree(&q, &kl, &vl, heads, causal);
            if causal {
                // Query `i` sees key `tk − 1` from `i = min(tq, tk) − 1` on.
                let hidden = &out.data()[..(tq.min(tk) - 1) * dm];
                assert!(
                    hidden.iter().all(|x| x.is_finite()),
                    "a hidden key reached the output: heads={heads} dh={dh} tq={tq} tk={tk}"
                );
            }
        }
    }
}

/// The one `(family, tier)` cell a call may move, by one.
fn assert_notes(family: &str, tier: Path, call: impl FnOnce() -> Tensor) -> Vec<u32> {
    let before = stats::snapshot();
    let out = bits(&call());
    let moved: Vec<_> = stats::snapshot()
        .since(&before)
        .cells()
        .into_iter()
        .filter(|(op, ..)| *op == family)
        .collect();
    assert_eq!(moved, [(family, tier.label(), 1)], "{family} on {tier:?}");
    out
}

#[test]
fn a_forced_dispatcher_is_the_tier_entry_in_bits_and_in_counts() {
    let a = init::randn([9, 13], 1);
    let b = init::randn([13, 75], 2);
    let x = init::randn([1, 2, 9, 11], 3);
    let w = init::randn([3, 2, 3, 3], 4);
    let bias = init::randn([3], 5);
    let (q, k, v) = (
        init::randn([5, 12], 6),
        init::randn([7, 12], 7),
        init::randn([7, 12], 8),
    );
    let q1 = init::randn([1, 12], 9);
    for p in PATHS {
        // Conv has a kernel of its own on two tiers; the others run, and
        // count as, the scalar one.
        let conv_tier = match p {
            Path::Simd | Path::Parallel => p,
            _ => Path::Scalar,
        };
        let kernels = exclusive();
        let on = [
            assert_notes("matmul", p, || ops::matmul_on(p, &a, &b)),
            assert_notes("conv2d", conv_tier, || {
                ops::conv2d_on(p, &x, &w, &bias, 1, 1)
            }),
        ];
        stats::force_path(Some(p));
        let forced = [
            assert_notes("matmul", p, || ops::matmul(&a, &b)),
            assert_notes("conv2d", conv_tier, || ops::conv2d(&x, &w, &bias, 1, 1)),
        ];
        assert_eq!(on, forced, "{p:?}");
        // Attention's per-head products follow the forced tier through
        // `matmul`, so its two entries are compared under the same force
        // — `q1` is the single-query shape that goes fused when exact.
        for q in [&q, &q1] {
            assert_eq!(
                assert_notes("attention", p, || {
                    ops::multi_head_attention_on(p, q, &k, &v, 3, true)
                }),
                assert_notes("attention", p, || {
                    ops::multi_head_attention(q, &k, &v, 3, true)
                }),
                "{p:?} q={}",
                q.shape()
            );
        }
        drop(kernels);
        assert_eq!(stats::forced_path(), None);
    }
}

#[test]
fn natural_dispatch_notes_the_tier_the_size_rule_names() {
    let _kernels = exclusive();
    // With one core nothing fans out and the simd tier keeps the work
    // (attention: the sequential loop).
    let fan_out = |tier| {
        if pool::size() > 0 {
            Path::Parallel
        } else {
            tier
        }
    };

    // matmul, `2·m·k·n` FLOPs: one column short of each threshold, then on it.
    let a = init::randn([16, 16], 1);
    let n = ops::MATMUL_BLOCK_MIN_FLOPS / (2 * 16 * 16);
    for (n, tier) in [(n - 1, Path::Scalar), (n, Path::Simd)] {
        assert_notes("matmul", tier, || ops::matmul(&a, &init::randn([16, n], 2)));
    }
    let a = init::randn([64, 64], 3);
    let n = ops::MATMUL_PAR_MIN_FLOPS / (2 * 64 * 64);
    for (n, tier) in [(n - 1, Path::Simd), (n, fan_out(Path::Simd))] {
        assert_notes("matmul", tier, || ops::matmul(&a, &init::randn([64, n], 4)));
    }

    // conv2d, `n·cout·oh·ow·cin·kh·kw` MACs: 1×1 kernels over an 8×8
    // plane, one output channel short of each threshold, then on it.
    let conv = |cin: usize, cout: usize| {
        let x = init::randn([1, cin, 8, 8], 5);
        let w = init::randn([cout, cin, 1, 1], 6);
        ops::conv2d(&x, &w, &init::randn([cout], 7), 1, 0)
    };
    let cout = ops::CONV_SIMD_MIN_MACS / (64 * 8);
    assert_notes("conv2d", Path::Scalar, || conv(8, cout - 1));
    assert_notes("conv2d", Path::Simd, || conv(8, cout));
    let cout = ops::CONV_PAR_MIN_MACS / (64 * 64);
    assert_notes("conv2d", Path::Simd, || conv(64, cout - 1));
    assert_notes("conv2d", fan_out(Path::Simd), || conv(64, cout));

    // attention, `4·tq·tk·dm` FLOPs over two heads: one key short of the
    // threshold, then on it; one head never fans out; one query is fused.
    let attention = |tq: usize, tk: usize, heads: usize| {
        let (q, k) = (init::randn([tq, 64], 8), init::randn([tk, 64], 9));
        ops::multi_head_attention(&q, &k, &init::randn([tk, 64], 10), heads, true)
    };
    let tk = ops::ATTENTION_PAR_MIN_FLOPS / (4 * 16 * 64);
    assert_notes("attention", Path::Scalar, || attention(16, tk - 1, 2));
    assert_notes("attention", fan_out(Path::Scalar), || attention(16, tk, 2));
    assert_notes("attention", Path::Scalar, || attention(16, tk, 1));
    assert_notes("attention", Path::Simd, || attention(1, tk, 2));
}
