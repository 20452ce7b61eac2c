//! Commit points and idempotent external output (§3.5).
//!
//! Replays may re-execute operators whose results were already observed.
//! Side effects are made safe by scoping them to `(handle, epoch)` and
//! materializing external outputs only after commit points: an output
//! produced twice under the same scope is emitted once.

use std::collections::BTreeSet;

/// A scoped external output: the value plus the `(key, epoch)` scope that
/// produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingOutput<T> {
    /// Scope: resident-object key.
    pub key: u64,
    /// Scope: epoch at production time.
    pub epoch: u64,
    /// Monotone sequence within the scope (e.g. token index).
    pub seq: u64,
    /// The value to emit.
    pub value: T,
}

/// Buffers outputs until commit; deduplicates replays by scope.
#[derive(Debug)]
pub struct CommitLog<T> {
    pending: Vec<PendingOutput<T>>,
    emitted_scopes: BTreeSet<(u64, u64, u64)>,
    committed: Vec<T>,
}

impl<T> Default for CommitLog<T> {
    fn default() -> Self {
        CommitLog {
            pending: Vec::new(),
            emitted_scopes: BTreeSet::new(),
            committed: Vec::new(),
        }
    }
}

impl<T: Clone> CommitLog<T> {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage an output. Duplicate `(key, epoch, seq)` scopes — a replay
    /// reproducing an already-staged value — are dropped.
    pub fn stage(&mut self, output: PendingOutput<T>) -> bool {
        let scope = (output.key, output.epoch, output.seq);
        if self.emitted_scopes.contains(&scope)
            || self
                .pending
                .iter()
                .any(|p| (p.key, p.epoch, p.seq) == scope)
        {
            return false;
        }
        self.pending.push(output);
        true
    }

    /// Commit: externalize all pending outputs in sequence order. After
    /// commit, replays of the same scopes are ignored forever.
    pub fn commit(&mut self) -> Vec<T> {
        self.pending.sort_by_key(|p| (p.key, p.epoch, p.seq));
        let batch: Vec<T> = self.pending.iter().map(|p| p.value.clone()).collect();
        for p in self.pending.drain(..) {
            self.emitted_scopes.insert((p.key, p.epoch, p.seq));
            self.committed.push(p.value);
        }
        batch
    }

    /// Discard pending outputs (failure before commit: the replay will
    /// regenerate them).
    pub fn abort(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }

    /// Everything committed so far.
    pub fn committed(&self) -> &[T] {
        &self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(seq: u64, value: i64) -> PendingOutput<i64> {
        PendingOutput {
            key: 1,
            epoch: 0,
            seq,
            value,
        }
    }

    #[test]
    fn commit_externalizes_in_order() {
        let mut log = CommitLog::new();
        assert!(log.stage(out(2, 20)));
        assert!(log.stage(out(1, 10)));
        let batch = log.commit();
        assert_eq!(batch, vec![10, 20]);
        assert_eq!(log.committed(), &[10, 20]);
    }

    #[test]
    fn replayed_outputs_are_dropped() {
        let mut log = CommitLog::new();
        log.stage(out(1, 10));
        log.commit();
        // Replay reproduces seq 1: dropped.
        assert!(!log.stage(out(1, 10)));
        // Double-stage before commit: dropped too.
        assert!(log.stage(out(2, 20)));
        assert!(!log.stage(out(2, 20)));
        log.commit();
        assert_eq!(log.committed(), &[10, 20]);
    }

    #[test]
    fn new_epoch_is_a_new_scope() {
        let mut log = CommitLog::new();
        log.stage(out(1, 10));
        log.commit();
        // Same seq, new epoch (state rebuilt after failure): legitimate.
        assert!(log.stage(PendingOutput {
            key: 1,
            epoch: 1,
            seq: 1,
            value: 11,
        }));
    }

    #[test]
    fn abort_discards_pending_only() {
        let mut log = CommitLog::new();
        log.stage(out(1, 10));
        log.commit();
        log.stage(out(2, 20));
        assert_eq!(log.abort(), 1);
        assert_eq!(log.committed(), &[10]);
        // The aborted scope may be staged again by the replay.
        assert!(log.stage(out(2, 21)));
    }
}
