//! Pinned, network-ready buffer pool (§3.4).
//!
//! Genie allocates tensors in network-registered memory *at creation
//! time*, so sending them later requires no staging copy. We cannot issue
//! real DMA registrations here, but we can make the architectural claim
//! *observable*: the pool counts every staging copy, and the test suite
//! asserts the proactive path performs zero where the reactive path
//! (`pin_memory()` after the fact) performs one per send.

use crate::wire::SharedBytes;
use genie_telemetry::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Statistics shared by all buffers of a pool.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Buffers handed out.
    pub allocations: AtomicU64,
    /// Buffers recycled from the free list.
    pub reuses: AtomicU64,
    /// Staging copies performed (reactive sends).
    pub staging_copies: AtomicU64,
    /// Bytes copied while staging.
    pub staged_bytes: AtomicU64,
    /// Sends that needed no copy (proactive).
    pub zero_copy_sends: AtomicU64,
}

/// A pool of reusable, "registered" buffers.
#[derive(Clone)]
pub struct PinnedPool {
    free: Arc<Mutex<Vec<Vec<u8>>>>,
    stats: Arc<PoolStats>,
}

/// A buffer handed out by the pool. Writing application data directly
/// into it is the proactive path.
pub struct PinnedBuf {
    buf: Vec<u8>,
    pool: PinnedPool,
}

impl PinnedPool {
    /// New empty pool.
    pub fn new() -> Self {
        PinnedPool {
            free: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(PoolStats::default()),
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Allocate a buffer with at least `capacity` bytes, reusing a
    /// recycled buffer when possible.
    pub fn alloc(&self, capacity: usize) -> PinnedBuf {
        self.stats.allocations.fetch_add(1, Ordering::Relaxed);
        let mut free = lock(&self.free);
        let buf = if let Some(pos) = free.iter().position(|b| b.capacity() >= capacity) {
            self.stats.reuses.fetch_add(1, Ordering::Relaxed);
            let mut b = free.swap_remove(pos);
            b.clear();
            b
        } else {
            Vec::with_capacity(capacity)
        };
        PinnedBuf {
            buf,
            pool: self.clone(),
        }
    }

    /// Proactive path: the data already lives in a pool buffer; handing
    /// it to the wire is free.
    pub fn send_proactive(&self, buf: PinnedBuf) -> SharedBytes {
        self.stats.zero_copy_sends.fetch_add(1, Ordering::Relaxed);
        buf.buf.into()
    }

    /// Reactive path: data lives in unregistered memory and must be
    /// staged into a registered buffer first — one copy, which the pool
    /// records. This is what `pin_memory()`-after-the-fact costs.
    pub fn send_reactive(&self, data: &[u8]) -> SharedBytes {
        self.stats.staging_copies.fetch_add(1, Ordering::Relaxed);
        self.stats
            .staged_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut buf = self.alloc(data.len());
        buf.buf.extend_from_slice(data);
        buf.buf.into()
    }

    fn recycle(&self, buf: Vec<u8>) {
        lock(&self.free).push(buf);
    }
}

impl Default for PinnedPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PinnedBuf {
    /// Writable view of the underlying registered buffer.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Return the buffer to the pool unused.
    pub fn release(self) {
        let PinnedBuf { buf, pool } = self;
        pool.recycle(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proactive_path_performs_no_copies() {
        let pool = PinnedPool::new();
        let mut buf = pool.alloc(1024);
        buf.bytes_mut().extend_from_slice(&[7u8; 100]); // app writes directly
        let written_at = buf.bytes_mut().as_ptr();
        let wire = pool.send_proactive(buf);
        assert_eq!(wire.len(), 100);
        assert_eq!(wire.as_ptr(), written_at, "the wire reads the pool buffer");
        assert_eq!(pool.stats().staging_copies.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats().zero_copy_sends.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reactive_path_counts_staging() {
        let pool = PinnedPool::new();
        let unregistered = vec![1u8; 500];
        let wire = pool.send_reactive(&unregistered);
        assert_eq!(wire.len(), 500);
        assert_eq!(pool.stats().staging_copies.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().staged_bytes.load(Ordering::Relaxed), 500);
        assert_eq!(pool.stats().zero_copy_sends.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn released_buffers_are_reused() {
        let pool = PinnedPool::new();
        let buf = pool.alloc(4096);
        buf.release();
        let _again = pool.alloc(1000); // smaller fits the recycled 4096
        assert_eq!(pool.stats().reuses.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().allocations.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn undersized_recycled_buffers_skipped() {
        let pool = PinnedPool::new();
        pool.alloc(16).release();
        let _big = pool.alloc(1 << 20);
        assert_eq!(pool.stats().reuses.load(Ordering::Relaxed), 0);
    }
}
