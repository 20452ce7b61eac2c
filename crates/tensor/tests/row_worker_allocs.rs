//! The simd row worker allocates nothing.
//!
//! A counting global allocator counts the heap allocations this thread
//! makes. With the arena warm, a matmul's output buffer is a recycled
//! one, so a Simd-tier `matmul_on` — a decode-sized single tile and
//! `prefill_wide`'s widest block — must make no allocation at all: the
//! row worker keeps its zero-test verdicts in a `u64` per block, not in
//! a list. The Simd tier runs on the calling thread, where the counter
//! is.

use genie_tensor::stats::Path;
use genie_tensor::{init, ops};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation (a thread being torn down has no counter left
/// to bump).
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_simd_matmul_allocates_nothing() {
    for (m, k, n) in [(4, 64, 64), (96, 256, 1024)] {
        let a = init::randn([m, k], 1);
        let b = init::randn([k, n], 2);
        // Warm: the first output's buffer goes back to the arena on drop.
        drop(ops::matmul_on(Path::Simd, &a, &b));
        let before = allocations();
        let out = ops::matmul_on(Path::Simd, &a, &b);
        let made = allocations() - before;
        assert_eq!(out.dims(), &[m, n]);
        assert_eq!(made, 0, "[{m},{k}]·[{k},{n}] made {made} allocations");
    }
}
