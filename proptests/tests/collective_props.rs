//! Property suite for the collective algebra: the identities sharded
//! execution leans on must hold *bit for bit*, for any data, any shard
//! count, and any exact dispatch tier.
//!
//! Three identities carry the whole sharding design:
//! - `all_reduce_sum` over k shards ≡ the sequential left fold
//!   `((r0 + r1) + r2) + …` (the fixed-order chain, not a balanced
//!   tree);
//! - `all_gather` over column-split matmuls ≡ the unsplit matmul;
//! - a chain of `matmul_acc` over row splits ≡ the unsplit matmul
//!   (the fold continues across contiguous inner ranges).
//!
//! Each is checked under every exact dispatch path (scalar, blocked,
//! simd, parallel) via `stats::force_path` — the tiers are bit-equal by
//! construction, so forcing them must not perturb the identities.

use genie_tensor::stats::{force_path, Path};
use genie_tensor::{init, ops, Tensor};
use proptest::prelude::*;

/// The bit-exact dispatch tiers (int8/fp16 are approximate by design
/// and covered by the GA3xx error-model tests instead).
const EXACT_PATHS: [Path; 4] = [Path::Scalar, Path::Blocked, Path::Simd, Path::Parallel];

/// Split `total` into `k` contiguous non-empty ranges.
fn ranges(total: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.min(total).max(1);
    let base = total / k;
    let extra = total % k;
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

fn with_each_exact_path(mut check: impl FnMut(Path)) {
    for p in EXACT_PATHS {
        force_path(Some(p));
        check(p);
    }
    force_path(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_reduce_is_bitwise_the_sequential_fold(
        shards in 2usize..8,
        rows in 1usize..6,
        cols in 1usize..40,
        seed in any::<u64>(),
    ) {
        let parts: Vec<Tensor> = (0..shards)
            .map(|r| init::randn([rows, cols], seed ^ (r as u64 * 0x9E37)))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        // Sequential oracle: accumulate shard by shard in rank order.
        let mut seq = parts[0].clone();
        for p in &parts[1..] {
            seq = ops::add(&seq, p);
        }
        let mut failure = None;
        with_each_exact_path(|path| {
            let reduced = ops::all_reduce_sum(&refs);
            if reduced.data() != seq.data() {
                failure = Some(path);
            }
        });
        prop_assert!(failure.is_none(), "all_reduce diverged on {failure:?}");
    }

    #[test]
    fn all_gather_of_column_splits_is_the_unsplit_matmul(
        shards in 2usize..6,
        m in 1usize..6,
        k in 1usize..8,
        n in 2usize..40,
        seed in any::<u64>(),
    ) {
        let x = init::randn([m, k], seed);
        let w = init::randn([k, n], seed ^ 0xC0FFEE);
        let mut failure = None;
        with_each_exact_path(|path| {
            let full = ops::matmul(&x, &w);
            let parts: Vec<Tensor> = ranges(n, shards)
                .into_iter()
                .map(|(s, l)| ops::matmul(&x, &ops::narrow(&w, 1, s, l)))
                .collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            let gathered = ops::all_gather(&refs, 1);
            if gathered.data() != full.data() {
                failure = Some(path);
            }
        });
        prop_assert!(failure.is_none(), "all_gather diverged on {failure:?}");
    }

    #[test]
    fn chained_matmul_acc_over_row_splits_is_the_unsplit_matmul(
        shards in 2usize..6,
        m in 1usize..6,
        k in 2usize..24,
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        let x = init::randn([m, k], seed);
        let w = init::randn([k, n], seed ^ 0xBEEF);
        let mut failure = None;
        with_each_exact_path(|path| {
            let full = ops::matmul(&x, &w);
            // Rank r multiplies its contiguous inner slice and folds
            // into the running partial — the chain all tensor-parallel
            // row splits execute.
            let mut acc: Option<Tensor> = None;
            for (s, l) in ranges(k, shards) {
                let xs = ops::narrow(&x, 1, s, l);
                let ws = ops::narrow(&w, 0, s, l);
                acc = Some(match acc {
                    None => ops::matmul(&xs, &ws),
                    Some(prev) => ops::matmul_acc(&xs, &ws, &prev),
                });
            }
            if acc.unwrap().data() != full.data() {
                failure = Some(path);
            }
        });
        prop_assert!(failure.is_none(), "matmul_acc chain diverged on {failure:?}");
    }

    #[test]
    fn gather_then_reduce_compose_across_two_layers(
        shards in 2usize..5,
        m in 1usize..5,
        d in 2usize..12,
        seed in any::<u64>(),
    ) {
        // The Megatron sandwich in miniature: column-split first layer,
        // elementwise in the middle, row-split second layer folded by
        // matmul_acc — no collective between the two, one exact output.
        let x = init::randn([m, d], seed);
        let w1 = init::randn([d, d * 2], seed ^ 0x11);
        let w2 = init::randn([d * 2, d], seed ^ 0x22);
        let oracle = ops::matmul(&ops::gelu(&ops::matmul(&x, &w1)), &w2);
        let mut failure = None;
        with_each_exact_path(|path| {
            let mut acc: Option<Tensor> = None;
            for (s, l) in ranges(d * 2, shards) {
                let h = ops::gelu(&ops::matmul(&x, &ops::narrow(&w1, 1, s, l)));
                let ws = ops::narrow(&w2, 0, s, l);
                acc = Some(match acc {
                    None => ops::matmul(&h, &ws),
                    Some(prev) => ops::matmul_acc(&h, &ws, &prev),
                });
            }
            if acc.unwrap().data() != oracle.data() {
                failure = Some(path);
            }
        });
        prop_assert!(failure.is_none(), "megatron sandwich diverged on {failure:?}");
    }
}

/// The fixed-order chain is load-bearing: a balanced pairwise tree is a
/// *different* f32 fold and must not be silently substituted. This is a
/// canary, not a property — if it ever fails, the chain and the tree
/// have become indistinguishable on this data and the guard is moot.
#[test]
fn balanced_tree_reduction_is_a_different_fold() {
    let parts: Vec<Tensor> = (0..4).map(|r| init::randn([64, 64], 1000 + r)).collect();
    let refs: Vec<&Tensor> = parts.iter().collect();
    let chain = ops::all_reduce_sum(&refs);
    let tree = ops::add(
        &ops::add(&parts[0], &parts[1]),
        &ops::add(&parts[2], &parts[3]),
    );
    assert_ne!(
        chain.data(),
        tree.data(),
        "expected ((a+b)+c)+d to differ bitwise from (a+b)+(c+d) on random data"
    );
}
