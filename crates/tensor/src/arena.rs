//! Recycling allocator for kernel output buffers.
//!
//! Every kernel output is an `Arc<[f32]>`. Allocating one per node per
//! step is pure churn in the interpreter's wavefront loop: a dead
//! intermediate's buffer is exactly the right size for the same node on
//! the next step. The arena keeps a bounded free list of uniquely-owned
//! buffers keyed by length; [`Tensor::build`](crate::Tensor::build)
//! draws from it and the interpreter returns dead intermediates via
//! [`recycle`].
//!
//! Buffers are handed out zeroed, so a recycled allocation is
//! observationally identical to a fresh `vec![0.0; len]` — reuse can
//! never change results, only allocation counts. Only buffers with no
//! other strong or weak references are retained; everything else is
//! dropped on the spot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on retained floats (2^22 ≈ 16 MiB) — covers every tensor
/// in the functional-plane test zoo many times over while keeping the
/// worst-case footprint trivial.
const CAPACITY_FLOATS: usize = 1 << 22;

#[derive(Default)]
struct Arena {
    free: HashMap<usize, Vec<Arc<[f32]>>>,
    held_floats: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

static ARENA: OnceLock<Mutex<Arena>> = OnceLock::new();

static EMPTY: OnceLock<Arc<[f32]>> = OnceLock::new();

/// The shared zero-length buffer. `Tensor::into_storage` swaps it in so
/// the tensor's destructor sees shared storage and leaves it alone.
pub fn empty() -> Arc<[f32]> {
    EMPTY.get_or_init(|| Arc::from([] as [f32; 0])).clone()
}

fn arena() -> &'static Mutex<Arena> {
    ARENA.get_or_init(|| Mutex::new(Arena::default()))
}

/// A zeroed buffer of `len` floats, recycled when one of that exact
/// length is free, freshly allocated otherwise.
pub fn alloc_zeroed(len: usize) -> Arc<[f32]> {
    if len > 0 {
        let mut guard = arena().lock().unwrap();
        let reuse = guard.free.get_mut(&len).and_then(Vec::pop);
        if let Some(mut buf) = reuse {
            guard.held_floats -= len;
            guard.hits += 1;
            drop(guard);
            // `recycle` only retains unique buffers, so `get_mut`
            // succeeds; re-checked rather than unwrapped for safety.
            if let Some(slice) = Arc::get_mut(&mut buf) {
                slice.fill(0.0);
                return buf;
            }
        } else {
            guard.misses += 1;
        }
    }
    vec![0.0f32; len].into()
}

/// Offer a dead tensor's storage back to the arena. Shared or oversized
/// buffers are simply dropped.
pub fn recycle(buf: Arc<[f32]>) {
    let len = buf.len();
    if len == 0 || Arc::strong_count(&buf) != 1 || Arc::weak_count(&buf) != 0 {
        return;
    }
    let mut guard = arena().lock().unwrap();
    if guard.held_floats + len > CAPACITY_FLOATS {
        return;
    }
    guard.held_floats += len;
    guard.recycled += 1;
    guard.free.entry(len).or_default().push(buf);
}

/// `(hits, misses, recycled, held_floats)` — allocation-reuse counters
/// for benches and the arena effectiveness test.
pub fn counters() -> (u64, u64, u64, usize) {
    let guard = arena().lock().unwrap();
    (guard.hits, guard.misses, guard.recycled, guard.held_floats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused_and_zeroed() {
        // Use a length no kernel test allocates so the process-global
        // free list is predictable within this test.
        let len = 12_345;
        let mut buf = alloc_zeroed(len);
        Arc::get_mut(&mut buf).unwrap().fill(7.0);
        let ptr = Arc::as_ptr(&buf);
        recycle(buf);
        let again = alloc_zeroed(len);
        assert_eq!(Arc::as_ptr(&again), ptr, "same allocation came back");
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffer zeroed");
    }

    #[test]
    fn shared_buffers_are_not_retained() {
        // The free list for a length no other test allocates, not the
        // process-global counters, which sibling tests bump concurrently.
        let len = 23_456;
        let pooled = || arena().lock().unwrap().free.get(&len).map_or(0, Vec::len);
        let buf = alloc_zeroed(len);
        let extra = Arc::clone(&buf);
        recycle(buf); // refused: strong_count == 2
        assert_eq!(pooled(), 0, "shared buffer must not be pooled");
        drop(extra);
    }

    #[test]
    fn zero_len_is_fine() {
        let buf = alloc_zeroed(0);
        assert!(buf.is_empty());
        recycle(buf);
    }
}
