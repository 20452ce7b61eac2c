//! Chaos harness (§4g of DESIGN.md): reusable seeded fault fixtures.
//!
//! A [`ChaosConfig`] is the full fault story of one run, derived from a
//! single seed: a `genie-netsim` [`FaultPlan`] for the simulated fabric,
//! the matching scheduler-visible [`ClusterState`] projection, and a
//! transport-level [`ChaosPolicy`] + [`RetryPolicy`] pair for the real
//! TCP plane. Tests sweep seeds; every derived behaviour — fault
//! windows, backoff jitter, stall/drop decisions — is a pure function of
//! the seed, so a failing seed reproduces exactly.
//!
//! ```
//! use genie::chaos::ChaosConfig;
//! use genie::models::Workload;
//!
//! let run = ChaosConfig::for_testbed(42).run_sim(&Workload::ComputerVision.spec_graph());
//! assert!(run.faulty.makespan_s >= 0.0);
//! ```

use genie_cluster::{ClusterState, Topology};
use genie_netsim::{FaultPlan, Nanos, RpcParams};
use genie_scheduler::{schedule, CostModel, ExecutionPlan, SemanticsAware};
use genie_srg::Srg;
use genie_transport::{ChaosPolicy, RetryPolicy};
use std::time::Duration;

/// Per-attempt deadline used by [`ChaosConfig::retry_policy`]; stalls
/// injected by [`ChaosConfig::transport_policy`] sleep past it so they
/// surface as typed timeouts rather than slow successes.
pub const CHAOS_DEADLINE: Duration = Duration::from_millis(150);

/// A seeded chaos fixture.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The simulated-fabric faults; their seed is the one knob, which also
    /// drives retry jitter and the chaotic server's decision stream.
    /// [`FaultPlan::none`] is the fault-free oracle configuration.
    pub faults: FaultPlan,
}

impl ChaosConfig {
    /// A seeded plan sized for [`Topology::paper_testbed`]: two hosts, an
    /// eight-second horizon (weight uploads dominate the first ~4 s), six
    /// faults.
    pub fn for_testbed(seed: u64) -> Self {
        ChaosConfig {
            faults: FaultPlan::generate(seed, 2, Nanos::from_secs_f64(8.0), 6),
        }
    }

    /// Fresh cluster state carrying the scheduler's view of this
    /// schedule: derated links and conservatively-partitioned pairs.
    pub fn planning_state(&self, topo: &Topology) -> ClusterState {
        let mut state = ClusterState::new();
        self.faults
            .project_onto_state(&mut state, topo.hosts().len() as u32);
        state
    }

    /// Transport-plane hostility matched to the seed: delivers faithfully
    /// for the oracle, otherwise drops ~25% of responses and stalls ~10%
    /// past [`CHAOS_DEADLINE`].
    pub fn transport_policy(&self) -> ChaosPolicy {
        if self.faults.specs.is_empty() {
            ChaosPolicy::none()
        } else {
            ChaosPolicy::hostile(self.faults.seed, CHAOS_DEADLINE * 2)
        }
    }

    /// The retry policy a client should pair with
    /// [`transport_policy`](Self::transport_policy): tight per-attempt
    /// deadlines, seed-keyed jitter.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            deadline: CHAOS_DEADLINE,
            seed: self.faults.seed,
        }
    }

    /// Simulate `srg` on the paper testbed under this configuration and
    /// its fault-free oracle, with the semantics-aware policy end to end:
    /// the scheduler plans against [`planning_state`](Self::planning_state)
    /// (rerouting off partitioned hosts), the fabric runs under
    /// [`faults`](Self::faults).
    pub fn run_sim(&self, srg: &Srg) -> ChaosRun {
        let topo = Topology::paper_testbed();
        let cost = CostModel::paper_stack();
        let params = RpcParams::rdma_zero_copy();

        let clean = ClusterState::new();
        let oracle_plan = schedule(srg, &topo, &clean, &cost, &SemanticsAware::new());
        let oracle = genie_backend::simulate_once(&oracle_plan, &topo, &cost, params.clone());

        let state = self.planning_state(&topo);
        let plan = schedule(srg, &topo, &state, &cost, &SemanticsAware::new());
        let rerouted = plan.devices_used() < oracle_plan.devices_used();
        let faulty = genie_backend::simulate_once_faulty(&plan, &topo, &cost, params, &self.faults);
        ChaosRun {
            oracle,
            oracle_plan,
            faulty,
            plan,
            rerouted,
        }
    }
}

/// One simulated chaos run alongside its fault-free oracle.
pub struct ChaosRun {
    /// Report of the fault-free run.
    pub oracle: genie_backend::SimReport,
    /// The oracle's plan.
    pub oracle_plan: ExecutionPlan,
    /// Report of the faulted run.
    pub faulty: genie_backend::SimReport,
    /// The plan scheduled under the fault projection.
    pub plan: ExecutionPlan,
    /// Whether the scheduler pulled work off partitioned devices.
    pub rerouted: bool,
}
