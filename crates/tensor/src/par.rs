//! Minimal structured parallelism for kernels, built on the persistent
//! worker pool in [`crate::pool`].
//!
//! The functional plane cannot take a thread-pool *dependency*, so it
//! owns a tiny one: workers are spawned once per process and parallel
//! kernels fan disjoint row ranges out over them through
//! [`pool::scope`]. Work is only split when the host actually has spare
//! cores and the task list is wide enough to amortize the queue
//! hand-off; callers gate on a FLOP threshold on top of this. When
//! `available_parallelism()` errors or reports a single core, every
//! helper here degrades to a plain sequential call — no queue, no
//! threads, no per-call setup cost at all.

use crate::pool;
use std::sync::OnceLock;

/// Host core count (or the `GENIE_POOL_THREADS` override), probed once
/// per process: `available_parallelism` can be a syscall, and the kernel
/// hot path must not repeat it per call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(pool::capacity)
}

/// Number of worker threads worth using for `tasks` independent pieces of
/// work: capped by available cores and by the task count itself.
pub(crate) fn worker_count(tasks: usize) -> usize {
    cores().min(tasks).max(1)
}

/// Run `f(start_row, rows_chunk)` over `out` split into contiguous chunks
/// of `row_len`-sized rows, in parallel across available cores. `f`
/// receives the index of the first row in its chunk and the mutable chunk
/// (a whole number of rows). Falls back to a single in-thread call when
/// parallelism would not help.
pub(crate) fn par_rows<F>(out: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert!(row_len > 0 && out.len().is_multiple_of(row_len));
    if out.is_empty() {
        return;
    }
    let rows = out.len() / row_len;
    let workers = worker_count(rows);
    if workers <= 1 {
        f(0, out);
        return;
    }
    // Ceil-divide rows over workers; each chunk is a whole number of rows.
    let rows_per = rows.div_ceil(workers);
    pool::scope(|scope| {
        let mut rest = out;
        let mut row0 = 0;
        while !rest.is_empty() {
            let take = (rows_per * row_len).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let fref = &f;
            let start = row0;
            scope.spawn(move || fref(start, chunk));
            row0 += take / row_len;
            rest = tail;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_covers_every_row_once() {
        // Odd and even row counts, fewer rows than workers included:
        // every row is visited exactly once.
        for rows in [1, 5, 6, 7, 37] {
            let mut out = vec![0.0f32; rows * 3];
            par_rows(&mut out, 3, |row0, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    for v in row.iter_mut() {
                        *v += (row0 + r) as f32 + 1.0;
                    }
                }
            });
            for (r, row) in out.chunks(3).enumerate() {
                assert!(row.iter().all(|&v| v == r as f32 + 1.0), "row {r}: {row:?}");
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut out: Vec<f32> = Vec::new();
        par_rows(&mut out, 4, |_, _| panic!("no work expected"));
    }

    #[test]
    fn repeated_calls_reuse_pool_threads() {
        // The old implementation spawned OS threads per call; the pool
        // must hold its thread count flat across many calls.
        let mut out = vec![0.0f32; 64];
        par_rows(&mut out, 8, |_, chunk| chunk.fill(1.0));
        let spawned = pool::threads_spawned();
        for _ in 0..16 {
            par_rows(&mut out, 8, |_, chunk| chunk.fill(2.0));
        }
        assert_eq!(pool::threads_spawned(), spawned);
    }
}
