//! Help-while-waiting under the nesting `prefill_wide` runs hot: an
//! interpreter-style outer `pool::scope` whose jobs each open scopes of
//! their own — the parallel matmul tier (rows over the pool), a row-parallel
//! `gelu`, and head-parallel attention — and a third level: a job whose
//! own scope's jobs each run a parallel-tier matmul, which opens a scope
//! inside them. (Attention's heads call no pool kernel, so the third
//! level is spelled out.) The pool has `cores − 1` workers and every
//! waiting thread runs queued jobs instead of parking, so this must
//! neither deadlock nor lose a row, and it must never grow the pool.
//!
//! This is the test ROADMAP 7(e) asked for beside the pool's one
//! `unsafe`; it is evidence, not proof (see the note in `lib.rs`).

use genie_tensor::stats::{self, Path};
use genie_tensor::{init, ops, pool, Tensor};

/// A few thousand rounds where the kernels are compiled to run (an
/// unoptimized build is ~20× slower per round).
const ROUNDS: usize = if cfg!(debug_assertions) { 200 } else { 3000 };

#[test]
fn nested_scopes_neither_deadlock_nor_lose_a_row() {
    // Sized so every level really fans out and no larger: 2·37·32·448
    // FLOPs is just past the parallel tier's threshold and 37 rows end
    // in a ragged tile, `[37, 448]` is past the pooled-`gelu` threshold,
    // and the third level's products are a head's QK^T and weights·V at
    // 64 tokens × 128 columns (2²⁰ FLOPs).
    let a = init::randn([37, 32], 1);
    let b = init::randn([32, 448], 2);
    let (q, k, v) = (
        init::randn([64, 256], 3),
        init::randn([64, 256], 4),
        init::randn([64, 256], 5),
    );
    let (qh, kt) = (init::randn([64, 128], 6), init::randn([128, 64], 7));
    let want_ffn = ops::gelu(&ops::matmul_scalar(&a, &b));
    let want_attn = ops::multi_head_attention_on(Path::Scalar, &q, &k, &v, 2, true);
    let want_head = ops::matmul_scalar(&qh, &kt);

    // Warm the pool, then hold it to its thread count.
    let ffn_in = ops::matmul_on(Path::Parallel, &a, &b);
    let spawned = pool::threads_spawned();
    // The pooled-`gelu` threshold is private to the crate: that `[37,
    // 448]` crosses it is observed instead. Alone, `gelu` below the
    // threshold runs no pool job at all.
    pool::busy_peak_take();
    let _ = ops::gelu(&ffn_in);
    assert!(
        pool::size() == 0 || pool::busy_peak_take() > 0,
        "`gelu` on {:?} no longer goes out over the pool",
        ffn_in.dims()
    );
    let dispatched = stats::snapshot();

    for round in 0..ROUNDS {
        let mut ffn: [Option<Tensor>; 3] = [None, None, None];
        let mut attn = None;
        let mut heads: [Option<Tensor>; 2] = [None, None];
        pool::scope(|scope| {
            for slot in ffn.iter_mut() {
                scope.spawn(|| *slot = Some(ops::gelu(&ops::matmul_on(Path::Parallel, &a, &b))));
            }
            scope.spawn(|| {
                attn = Some(ops::multi_head_attention_on(
                    Path::Parallel,
                    &q,
                    &k,
                    &v,
                    2,
                    true,
                ))
            });
            scope.spawn(|| {
                pool::scope(|inner| {
                    for slot in heads.iter_mut() {
                        inner.spawn(|| *slot = Some(ops::matmul_on(Path::Parallel, &qh, &kt)));
                    }
                })
            });
        });
        for got in ffn {
            let got = got.expect("scope joined every job");
            assert!(
                got.data() == want_ffn.data(),
                "ffn differs in round {round}"
            );
        }
        let attn = attn.expect("scope joined every job");
        assert!(
            attn.data() == want_attn.data(),
            "attention differs in round {round}"
        );
        for got in heads {
            let got = got.expect("scope joined every job");
            assert!(
                got.data() == want_head.data(),
                "third level differs in round {round}"
            );
        }
    }
    assert_eq!(pool::threads_spawned(), spawned, "the pool grew");
    // Each round ran five parallel-tier matmuls — three FFN, two on the
    // third level — and attention none: its heads are the pool's jobs.
    let parallel = stats::snapshot()
        .since(&dispatched)
        .get("matmul", Path::Parallel);
    assert_eq!(parallel, 5 * ROUNDS as u64);
}
