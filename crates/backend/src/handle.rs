//! Client-side bookkeeping for remote-resident objects.
//!
//! Remote state (weights, KV caches) is referenced by opaque handles with
//! epochs (§3.4, §3.5). The epoch changes whenever the backing state is
//! re-materialized after a failure; a stale-epoch reference is detected at
//! the server rather than silently reading reborn state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A reference to a remote-resident object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RemoteHandle {
    /// Server-side object key.
    pub key: u64,
    /// Epoch at which this reference was minted.
    pub epoch: u64,
    /// Payload size in bytes (client-side accounting).
    pub bytes: u64,
}

/// Allocates keys and tracks live handles for one session.
#[derive(Debug, Default)]
pub struct HandleTable {
    next_key: AtomicU64,
    live: HashMap<String, RemoteHandle>,
}

impl HandleTable {
    /// Fresh table.
    pub fn new() -> Self {
        HandleTable {
            next_key: AtomicU64::new(1),
            live: HashMap::new(),
        }
    }

    /// Allocate a fresh object key.
    pub fn fresh_key(&self) -> u64 {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// Bind a named object (e.g. `"wte"`, `"k_cache_3"`) to a handle.
    pub fn bind(&mut self, name: impl Into<String>, handle: RemoteHandle) {
        self.live.insert(name.into(), handle);
    }

    /// Look up a handle by name.
    pub fn get(&self, name: &str) -> Option<RemoteHandle> {
        self.live.get(name).copied()
    }

    /// Invalidate every handle (device lost): clears the table and
    /// returns what was lost.
    pub fn invalidate_all(&mut self) -> Vec<(String, RemoteHandle)> {
        let mut lost: Vec<_> = self.live.drain().collect();
        lost.sort_by(|a, b| a.0.cmp(&b.0));
        lost
    }

    /// Number of live handles.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no handles are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique() {
        let t = HandleTable::new();
        let a = t.fresh_key();
        let b = t.fresh_key();
        assert_ne!(a, b);
    }

    #[test]
    fn bind_and_lookup() {
        let mut t = HandleTable::new();
        let h = RemoteHandle {
            key: 5,
            epoch: 1,
            bytes: 100,
        };
        t.bind("wte", h);
        assert_eq!(t.get("wte"), Some(h));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidate_returns_sorted_losses() {
        let mut t = HandleTable::new();
        for (i, name) in ["k0", "v0", "a"].iter().enumerate() {
            t.bind(
                *name,
                RemoteHandle {
                    key: i as u64,
                    epoch: 1,
                    bytes: 10,
                },
            );
        }
        let lost = t.invalidate_all();
        assert_eq!(lost.len(), 3);
        assert_eq!(lost[0].0, "a");
        assert!(t.is_empty());
    }
}
