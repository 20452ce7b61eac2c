//! Execution plans: the scheduler's output (§3.3).
//!
//! `genie_scheduler::schedule(srg, cluster_state, policy)` returns the
//! SRG *annotated* with concrete device bindings per node and explicit
//! transfer instructions per cross-device edge, plus a cost estimate — a
//! declarative plan a backend can execute without policy knowledge. The
//! type lives here, beside the [`Diagnostic`]s every plan carries, so the
//! plan passes ([`crate::plan_passes`]) read the plan itself; the
//! scheduler re-exports this module as `genie_scheduler::plan`.

use crate::diag::Diagnostic;
use genie_cluster::{DevId, HostId, Topology};
use genie_srg::{EdgeId, NodeId, Srg, TensorId};

/// Where a node runs. The client sorts before every device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// On the client's CPU (sources, sampling, glue).
    ClientCpu,
    /// On a remote accelerator.
    Device(DevId),
}

impl Location {
    /// The device, if remote.
    pub fn device(self) -> Option<DevId> {
        match self {
            Location::Device(d) => Some(d),
            Location::ClientCpu => None,
        }
    }

    /// The host this location is on.
    pub fn host(self, topo: &Topology) -> HostId {
        self.device()
            .map_or(topo.client_host(), |d| topo.device(d).host)
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::ClientCpu => write!(f, "client"),
            Location::Device(d) => write!(f, "{d}"),
        }
    }
}

/// One scheduled data movement.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    /// The edge this transfer realizes.
    pub edge: EdgeId,
    /// Logical tensor being moved (fan-out edges to the same destination
    /// share one transfer).
    pub tensor: TensorId,
    /// Source location.
    pub from: Location,
    /// Destination location.
    pub to: Location,
    /// Payload bytes.
    pub bytes: u64,
    /// Whether the payload is addressed by a resident-object handle
    /// (weights / KV caches already pinned remotely) — a handle reference
    /// costs bytes only the first time.
    pub via_handle: bool,
}

/// Cost estimate attached to a plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Seconds of kernel execution on the critical path.
    pub compute_s: f64,
    /// Seconds of network transfer on the critical path.
    pub transfer_s: f64,
    /// Seconds of queueing before execution begins.
    pub queue_s: f64,
}

impl CostBreakdown {
    /// Estimated end-to-end latency.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.transfer_s + self.queue_s
    }
}

/// The scheduler's output: placements, transfers, and the estimate.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// Name of the policy that produced this plan.
    pub policy: String,
    /// The (possibly rewritten) graph this plan executes, shared with the
    /// caller's copy until either is written.
    pub srg: Srg,
    /// Location per node, indexed by [`NodeId::index`].
    pub placements: Vec<Location>,
    /// Scheduled transfers in execution order.
    pub transfers: Vec<Transfer>,
    /// Tensors that must be uploaded once and pinned as resident objects
    /// (weights, caches), with their destination and size.
    pub pinned_uploads: Vec<(TensorId, DevId, u64)>,
    /// Cost estimate.
    pub estimate: CostBreakdown,
    /// Findings from the plan-level lint passes (`GA1xx`), recorded by
    /// `genie_scheduler::schedule` so callers can inspect why a placement
    /// is suspect without re-running the analyzer.
    pub diagnostics: Vec<Diagnostic>,
}

impl ExecutionPlan {
    /// Stable attribution label for this plan: `<graph>@<policy>`. Carried
    /// on trace events so a kernel or transfer can be traced back to the
    /// scheduling decision that caused it.
    pub fn label(&self) -> String {
        format!("{}@{}", self.srg.name, self.policy)
    }

    /// Location of a node (defaults to client for unplaced nodes).
    pub fn location(&self, node: NodeId) -> Location {
        self.placements
            .get(node.index())
            .copied()
            .unwrap_or(Location::ClientCpu)
    }

    /// Total bytes crossing the network, excluding handle-addressed reuse.
    pub fn network_bytes(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum::<u64>()
            + self.pinned_uploads.iter().map(|(_, _, b)| *b).sum::<u64>()
    }

    /// Number of distinct devices used.
    pub fn devices_used(&self) -> usize {
        let devs: std::collections::BTreeSet<DevId> =
            self.placements.iter().filter_map(|l| l.device()).collect();
        devs.len()
    }

    /// Render a compact human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "plan[{}]: {} nodes on {} devices, {} transfers ({} B), est {:.3}s",
            self.policy,
            self.placements.len(),
            self.devices_used(),
            self.transfers.len(),
            self.network_bytes(),
            self.estimate.total_s(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_helpers() {
        let c = Location::ClientCpu;
        let d = Location::Device(DevId(3));
        assert_eq!(d.device(), Some(DevId(3)));
        assert_eq!(c.device(), None);
        assert_eq!(format!("{d}"), "d3");
        assert_eq!(format!("{c}"), "client");
        // GA201 walks its channels in this order.
        assert!(c < Location::Device(DevId(0)) && d > Location::Device(DevId(2)));
    }

    #[test]
    fn network_bytes_excludes_handle_reuse() {
        let plan = ExecutionPlan {
            policy: "test".into(),
            srg: Srg::new("g"),
            placements: Vec::new(),
            transfers: vec![
                Transfer {
                    edge: EdgeId::new(0),
                    tensor: TensorId::new(0),
                    from: Location::ClientCpu,
                    to: Location::Device(DevId(0)),
                    bytes: 100,
                    via_handle: false,
                },
                Transfer {
                    edge: EdgeId::new(1),
                    tensor: TensorId::new(1),
                    from: Location::Device(DevId(0)),
                    to: Location::Device(DevId(0)),
                    bytes: 999,
                    via_handle: true,
                },
            ],
            pinned_uploads: vec![(TensorId::new(2), DevId(0), 50)],
            estimate: CostBreakdown::default(),
            diagnostics: Vec::new(),
        };
        assert_eq!(plan.network_bytes(), 150);
    }

    #[test]
    fn cost_breakdown_totals() {
        let c = CostBreakdown {
            compute_s: 1.0,
            transfer_s: 2.0,
            queue_s: 0.5,
        };
        assert_eq!(c.total_s(), 3.5);
    }
}
