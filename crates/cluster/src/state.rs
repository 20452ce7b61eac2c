//! Live cluster state — the mutable view the scheduler consumes alongside
//! the static [`Topology`].

use crate::topology::{DevId, Topology};
use std::collections::BTreeMap;

/// Errors from state mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// Allocation would exceed the device's memory capacity.
    OutOfMemory {
        /// The device that ran out.
        device: DevId,
        /// Bytes requested.
        requested: u64,
        /// Bytes free before the request.
        free: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::OutOfMemory {
                device,
                requested,
                free,
            } => write!(
                f,
                "device {device} out of memory: requested {requested} B, free {free} B"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// Mutable, schedulable cluster state: per-device memory accounting,
/// queued-work estimates, and the fault plan's projection.
#[derive(Clone, Debug, Default)]
pub struct ClusterState {
    mem_used: BTreeMap<DevId, u64>,
    /// Seconds of queued work per device — the scheduler's queuing-delay
    /// input.
    queue_s: BTreeMap<DevId, f64>,
    /// Injected bandwidth derate per host-pair in (0, 1]: the projection
    /// of the fault plan's `Derate` specs (`FaultPlan::project_onto_state`),
    /// the one way a slow link is stated, multiplied into edge costs by
    /// the scheduler. Keyed by unordered host ids.
    link_derate: BTreeMap<(u32, u32), f64>,
    /// Host pairs currently severed by a partition or outage. The
    /// scheduler must not place transfers across them.
    partitioned: std::collections::BTreeSet<(u32, u32)>,
}

impl ClusterState {
    /// Fresh state with nothing allocated.
    pub fn new() -> Self {
        ClusterState::default()
    }

    /// Bytes used on a device.
    pub fn mem_used(&self, dev: DevId) -> u64 {
        self.mem_used.get(&dev).copied().unwrap_or(0)
    }

    /// Bytes free on a device given its spec in `topo`.
    pub fn mem_free(&self, topo: &Topology, dev: DevId) -> u64 {
        topo.device(dev)
            .spec
            .mem_capacity
            .saturating_sub(self.mem_used(dev))
    }

    /// Reserve device memory; fails if it would exceed capacity.
    pub fn alloc(&mut self, topo: &Topology, dev: DevId, bytes: u64) -> Result<(), StateError> {
        let free = self.mem_free(topo, dev);
        if bytes > free {
            return Err(StateError::OutOfMemory {
                device: dev,
                requested: bytes,
                free,
            });
        }
        *self.mem_used.entry(dev).or_insert(0) += bytes;
        Ok(())
    }

    /// Release device memory (saturating).
    pub fn release(&mut self, dev: DevId, bytes: u64) {
        let used = self.mem_used.entry(dev).or_insert(0);
        *used = used.saturating_sub(bytes);
    }

    /// Seconds of work queued on a device.
    pub fn queue_seconds(&self, dev: DevId) -> f64 {
        self.queue_s.get(&dev).copied().unwrap_or(0.0)
    }

    /// Add queued work to a device.
    pub fn enqueue_work(&mut self, dev: DevId, seconds: f64) {
        *self.queue_s.entry(dev).or_insert(0.0) += seconds;
    }

    /// Drain queued work from a device (saturating at zero).
    pub fn drain_work(&mut self, dev: DevId, seconds: f64) {
        let q = self.queue_s.entry(dev).or_insert(0.0);
        *q = (*q - seconds).max(0.0);
    }

    /// Record an injected bandwidth derate on the path between two hosts
    /// (fraction of line rate remaining, in `(0, 1]`; `1.0` clears it).
    pub fn set_link_derate(&mut self, a: u32, b: u32, factor: f64) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let factor = factor.clamp(f64::MIN_POSITIVE, 1.0);
        if factor >= 1.0 {
            self.link_derate.remove(&key);
        } else {
            self.link_derate.insert(key, factor);
        }
    }

    /// Remaining bandwidth fraction between two hosts (1.0 = undegraded).
    pub fn link_derate(&self, a: u32, b: u32) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.link_derate.get(&key).copied().unwrap_or(1.0)
    }

    /// Mark or clear a partition between two hosts.
    pub fn set_partitioned(&mut self, a: u32, b: u32, severed: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        if severed {
            self.partitioned.insert(key);
        } else {
            self.partitioned.remove(&key);
        }
    }

    /// Whether the path between two hosts is currently severed.
    pub fn is_partitioned(&self, a: u32, b: u32) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.partitioned.contains(&key)
    }

    /// Whether any partition is active anywhere in the cluster.
    pub fn has_partitions(&self) -> bool {
        !self.partitioned.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSpec;

    fn topo() -> (Topology, DevId) {
        let mut t = Topology::new();
        let h = t.add_host("s");
        let d = t.add_device(h, GpuSpec::a100_80gb());
        (t, d)
    }

    #[test]
    fn alloc_and_release() {
        let (t, d) = topo();
        let mut s = ClusterState::new();
        s.alloc(&t, d, 1000).unwrap();
        assert_eq!(s.mem_used(d), 1000);
        s.release(d, 400);
        assert_eq!(s.mem_used(d), 600);
        s.release(d, 10_000); // saturates
        assert_eq!(s.mem_used(d), 0);
    }

    #[test]
    fn oom_rejected() {
        let (t, d) = topo();
        let mut s = ClusterState::new();
        let cap = t.device(d).spec.mem_capacity;
        let err = s.alloc(&t, d, cap + 1).unwrap_err();
        assert!(matches!(err, StateError::OutOfMemory { .. }));
        assert!(err.to_string().contains("out of memory"));
        // State unchanged after failure.
        assert_eq!(s.mem_used(d), 0);
    }

    #[test]
    fn queue_accounting() {
        let (_, d) = topo();
        let mut s = ClusterState::new();
        s.enqueue_work(d, 1.5);
        s.enqueue_work(d, 0.5);
        assert_eq!(s.queue_seconds(d), 2.0);
        s.drain_work(d, 3.0);
        assert_eq!(s.queue_seconds(d), 0.0);
    }

    #[test]
    fn link_faults_are_symmetric_and_clearable() {
        let mut s = ClusterState::new();
        s.set_link_derate(2, 0, 0.25);
        assert_eq!(s.link_derate(0, 2), 0.25);
        assert_eq!(s.link_derate(2, 0), 0.25);
        assert_eq!(s.link_derate(0, 1), 1.0, "untouched pairs undegraded");
        s.set_link_derate(2, 0, 1.0);
        assert_eq!(s.link_derate(0, 2), 1.0, "full rate clears the entry");
        s.set_link_derate(0, 1, -3.0);
        assert!(s.link_derate(0, 1) > 0.0, "derate clamps above zero");

        assert!(!s.has_partitions());
        s.set_partitioned(1, 0, true);
        assert!(s.is_partitioned(0, 1));
        assert!(s.has_partitions());
        s.set_partitioned(0, 1, false);
        assert!(!s.is_partitioned(0, 1));
    }
}
