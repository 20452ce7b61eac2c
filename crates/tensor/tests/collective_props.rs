//! The collective algebra as seeded loops: the identities sharded
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
//! Each is checked under every exact tier of `stats::PATHS` (int8/fp16
//! are approximate by design and covered by `quant_error.rs`) via
//! `stats::force_path` — the tiers are bit-equal by construction, so
//! forcing them must not perturb the identities.

mod common;

use common::draw;
use genie_tensor::stats::{force_path, Path, PATHS};
use genie_tensor::{init, ops, Tensor};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cases per property; a case is a function of its index alone.
const CASES: u64 = 48;

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

/// The forced tier is a process global and the tests of this binary
/// run on parallel threads: one at a time may set it.
static FORCING: Mutex<()> = Mutex::new(());

/// Clears the forced tier when dropped: after the loop, and when a
/// failed assertion unwinds out of it.
struct Unforce {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for Unforce {
    fn drop(&mut self) {
        force_path(None);
    }
}

fn with_each_exact_path(mut check: impl FnMut(Path)) {
    let _unforce = Unforce {
        _serial: FORCING.lock().unwrap_or_else(PoisonError::into_inner),
    };
    for p in PATHS.into_iter().filter(|p| !p.is_quantized()) {
        force_path(Some(p));
        check(p);
    }
}

#[test]
fn all_reduce_is_bitwise_the_sequential_fold() {
    for seed in 0..CASES {
        let [shards, rows, cols] = draw(seed, [(2, 8), (1, 6), (1, 40)]);
        let parts: Vec<Tensor> = (0..shards)
            .map(|r| init::randn([rows, cols], seed ^ (r as u64 * 0x9E37)))
            .collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        // Sequential oracle: accumulate shard by shard in rank order.
        let mut seq = parts[0].clone();
        for p in &parts[1..] {
            seq = ops::add(&seq, p);
        }
        with_each_exact_path(|path| {
            let reduced = ops::all_reduce_sum(&refs);
            assert!(
                reduced.data() == seq.data(),
                "all_reduce diverged on {path:?}, seed={seed}"
            );
        });
    }
}

#[test]
fn all_gather_of_column_splits_is_the_unsplit_matmul() {
    for seed in 0..CASES {
        let [shards, m, k, n] = draw(seed, [(2, 6), (1, 6), (1, 8), (2, 40)]);
        let x = init::randn([m, k], seed);
        let w = init::randn([k, n], seed ^ 0xC0FFEE);
        with_each_exact_path(|path| {
            let full = ops::matmul(&x, &w);
            let parts: Vec<Tensor> = ranges(n, shards)
                .into_iter()
                .map(|(s, l)| ops::matmul(&x, &ops::narrow(&w, 1, s, l)))
                .collect();
            let refs: Vec<&Tensor> = parts.iter().collect();
            let gathered = ops::all_gather(&refs, 1);
            assert!(
                gathered.data() == full.data(),
                "all_gather diverged on {path:?}, seed={seed}"
            );
        });
    }
}

#[test]
fn chained_matmul_acc_over_row_splits_is_the_unsplit_matmul() {
    for seed in 0..CASES {
        let [shards, m, k, n] = draw(seed, [(2, 6), (1, 6), (2, 24), (1, 12)]);
        let x = init::randn([m, k], seed);
        let w = init::randn([k, n], seed ^ 0xBEEF);
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
            assert!(
                acc.unwrap().data() == full.data(),
                "matmul_acc chain diverged on {path:?}, seed={seed}"
            );
        });
    }
}

#[test]
fn gather_then_reduce_compose_across_two_layers() {
    for seed in 0..CASES {
        // The Megatron sandwich in miniature: column-split first layer,
        // elementwise in the middle, row-split second layer folded by
        // matmul_acc — no collective between the two, one exact output.
        let [shards, m, d] = draw(seed, [(2, 5), (1, 5), (2, 12)]);
        let x = init::randn([m, d], seed);
        let w1 = init::randn([d, d * 2], seed ^ 0x11);
        let w2 = init::randn([d * 2, d], seed ^ 0x22);
        let oracle = ops::matmul(&ops::gelu(&ops::matmul(&x, &w1)), &w2);
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
            assert!(
                acc.unwrap().data() == oracle.data(),
                "megatron sandwich diverged on {path:?}, seed={seed}"
            );
        });
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
