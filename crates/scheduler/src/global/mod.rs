//! Semantics-aware global scheduling (§3.6): *where*.
//!
//! Genie instances submit semantic graphs to a fleet-wide scheduler as
//! first-class workload descriptions. It matches workload rooflines to
//! heterogeneous hardware ([`hetero`]) and admits a tenant only when its
//! plan has no deny-level finding (GA101: a device overcommitted).
//! §3.6's *when* and *how* are the serving engine's (`DisaggConfig`'s
//! prefill/decode pools, batching in a lane).

pub mod hetero;
pub mod tenant;

use crate::cost::CostModel;
use crate::plan::ExecutionPlan;
use crate::policy::SemanticsAware;
use crate::schedule::schedule_checked;
use genie_analysis::{Diagnostic, LintConfig, Severity};
use genie_cluster::{ClusterState, DevId, Topology};
use genie_netsim::Nanos;
use std::collections::BTreeMap;
use tenant::TenantRequest;

/// The fleet-wide scheduler: admits tenant requests, partitions the fleet
/// by hardware affinity, and plans each tenant onto its partition with
/// the semantics-aware local policy. [`step`](Self::step) is its one
/// entry point.
pub struct GlobalScheduler {
    topo: Topology,
    state: ClusterState,
    cost: CostModel,
    tenants: Vec<TenantRequest>,
    /// Resources charged to the live state per planned tenant, so a
    /// departure can hand them back exactly.
    planned: BTreeMap<u64, PlannedResources>,
}

/// What one planned tenant holds on the fleet.
#[derive(Clone, Debug, Default)]
struct PlannedResources {
    pinned: Vec<(DevId, u64)>,
    queued: Vec<(DevId, f64)>,
}

/// One event for [`GlobalScheduler::step`]. A full re-plan is a
/// `Depart` and an `Admit` per tenant.
#[derive(Clone, Debug)]
pub enum FleetEvent {
    /// A tenant arrives (same id replaces any waiting request).
    Admit(TenantRequest),
    /// A tenant leaves; its pinned memory and queued work are released.
    Depart(u64),
}

/// Outcome of one [`GlobalScheduler::step`].
#[derive(Debug)]
pub struct FleetPlan {
    /// Per-tenant plans, keyed by tenant id.
    pub plans: BTreeMap<u64, ExecutionPlan>,
    /// Devices assigned per tenant.
    pub assignments: BTreeMap<u64, Vec<DevId>>,
    /// Tenants whose plans carry deny-level lint findings (GA101: a
    /// device overcommitted), with those findings. Admission control:
    /// these must wait, spill, or shrink.
    pub rejected: BTreeMap<u64, Vec<Diagnostic>>,
}

impl GlobalScheduler {
    /// New scheduler over a fleet.
    pub fn new(topo: Topology, cost: CostModel) -> Self {
        GlobalScheduler {
            state: ClusterState::new(),
            topo,
            cost,
            tenants: Vec::new(),
            planned: BTreeMap::new(),
        }
    }

    /// Apply `events` (arrivals and departures) at simulated time `now`,
    /// then plan every tenant that is not already placed — new arrivals
    /// and previously rejected tenants alike — in ascending tenant-id
    /// order. Queue state carries across tenants, so later ids see
    /// earlier load.
    ///
    /// The id ordering is the admission-control contract: a departure
    /// frees memory, and whichever waiting tenants fit must re-admit in
    /// the same order every time, independent of arrival interleaving.
    /// (An earlier revision iterated in arrival order, so two rounds
    /// bracketing the same departure could admit different survivors.)
    pub fn step(&mut self, now: Nanos, events: Vec<FleetEvent>) -> FleetPlan {
        for event in events {
            match event {
                FleetEvent::Admit(request) => {
                    self.tenants.retain(|t| t.id != request.id);
                    self.tenants.push(request);
                }
                FleetEvent::Depart(id) => {
                    self.tenants.retain(|t| t.id != id);
                    self.release(id);
                }
            }
        }

        let telemetry = genie_telemetry::global();
        telemetry.collector.instant(
            "fleet.step",
            "scheduler",
            genie_telemetry::SemAttrs::new()
                .with("now_s", format!("{:.6}", now.as_secs_f64()))
                .with("tenants", self.tenants.len().to_string()),
        );

        let mut plans = BTreeMap::new();
        let mut assignments = BTreeMap::new();
        let mut rejected = BTreeMap::new();

        // Deterministic admission order: ascending tenant id.
        let mut pending: Vec<TenantRequest> = self
            .tenants
            .iter()
            .filter(|t| !self.planned.contains_key(&t.id))
            .cloned()
            .collect();
        pending.sort_by_key(|t| t.id);

        for t in &pending {
            let class = t.classify();
            // Request-scoped causal breadcrumb: one instant per planned
            // tenant, attributed to the tenant id so the causal analyzer
            // can tie fleet scheduling work back to the request.
            telemetry.collector.instant(
                "fleet.plan_tenant",
                "scheduler",
                genie_telemetry::SemAttrs::new()
                    .request(t.id)
                    .with("class", format!("{class:?}")),
            );
            let devices = hetero::affinity_devices(&self.topo, class);
            // Build a filtered sub-topology view by masking queue state:
            // we bias placement by loading non-affine devices heavily.
            let mut masked = self.state.clone();
            for d in self.topo.devices() {
                if !devices.contains(&d.id) {
                    masked.enqueue_work(d.id, 1e6);
                }
            }
            let policy = SemanticsAware::new();
            let lints = LintConfig::new();
            // Admission control: a plan with deny-level findings is
            // rejected — its load never lands, so later tenants can still
            // admit (and the tenant stays pending for the next step).
            let plan =
                match schedule_checked(&t.srg, &self.topo, &masked, &self.cost, &policy, &lints) {
                    Ok(plan) => plan,
                    Err(report) => {
                        let mut denies = report.diagnostics;
                        denies.retain(|d| d.severity == Severity::Deny);
                        rejected.insert(t.id, denies);
                        continue;
                    }
                };
            // Record load so the next tenant sees it: queued kernel time
            // and pinned memory — remembered per tenant so a departure
            // can release it.
            let mut resources = PlannedResources::default();
            for (node, loc) in plan.srg.nodes().zip(&plan.placements) {
                if let Some(dev) = loc.device() {
                    let gpu = &self.topo.device(dev).spec;
                    let secs = self.cost.kernel_time(node, gpu);
                    self.state.enqueue_work(dev, secs);
                    resources.queued.push((dev, secs));
                }
            }
            for (_, dev, bytes) in &plan.pinned_uploads {
                if self.state.alloc(&self.topo, *dev, *bytes).is_ok() {
                    resources.pinned.push((*dev, *bytes));
                }
            }
            let used: Vec<DevId> = {
                let mut v: Vec<DevId> = plan.placements.iter().filter_map(|l| l.device()).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            self.planned.insert(t.id, resources);
            assignments.insert(t.id, used);
            plans.insert(t.id, plan);
        }

        FleetPlan {
            plans,
            assignments,
            rejected,
        }
    }

    /// Hand back everything a planned tenant was charged for.
    fn release(&mut self, id: u64) {
        if let Some(resources) = self.planned.remove(&id) {
            for (dev, bytes) in resources.pinned {
                self.state.release(dev, bytes);
            }
            for (dev, secs) in resources.queued {
                self.state.drain_work(dev, secs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_analysis::LintCode;
    use genie_models::Workload;

    fn request(id: u64, w: Workload) -> TenantRequest {
        TenantRequest {
            id,
            srg: w.spec_graph(),
        }
    }

    /// One step at time zero admitting `tenants` in the order given.
    fn admit_all(sched: &mut GlobalScheduler, tenants: Vec<TenantRequest>) -> FleetPlan {
        let events = tenants.into_iter().map(FleetEvent::Admit).collect();
        sched.step(Nanos::ZERO, events)
    }

    fn overcommit(d: &Diagnostic) -> bool {
        d.code == LintCode::DeviceOvercommit && d.severity == Severity::Deny
    }

    #[test]
    fn fleet_separates_workload_classes() {
        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::ideal_25g());
        let fleet = admit_all(
            &mut sched,
            vec![
                request(1, Workload::LlmServing),
                request(2, Workload::ComputerVision),
                request(3, Workload::Recommendation),
            ],
        );

        // LLM tenant lands on bandwidth-optimized hardware.
        let llm_devs = &fleet.assignments[&1];
        assert!(llm_devs
            .iter()
            .all(|d| topo.device(*d).spec.class == genie_cluster::GpuClass::BandwidthOptimized));
        // Vision tenant on flagships.
        let vis_devs = &fleet.assignments[&2];
        assert!(vis_devs
            .iter()
            .all(|d| topo.device(*d).spec.class == genie_cluster::GpuClass::Flagship));
        // The production DLRM's 66 GB of embedding tables exceed the
        // 24 GB inference tier: admission control must reject it with a
        // concrete violation rather than plan an unexecutable layout.
        assert!(fleet.rejected.contains_key(&3));
        assert!(fleet.rejected[&3].iter().all(overcommit));

        // On an A100 rack (80 GB devices) the same tenant admits.
        let roomy = Topology::rack(2, 25e9);
        let mut sched = GlobalScheduler::new(roomy, CostModel::paper_stack());
        let fleet = admit_all(&mut sched, vec![request(3, Workload::Recommendation)]);
        assert!(fleet.rejected.is_empty());
        assert_eq!(fleet.plans.len(), 1);
    }

    #[test]
    fn oversized_tenants_are_rejected() {
        // Five GPT-J tenants pinning ~12 GB each onto a fleet whose
        // bandwidth-optimized tier has 2×48 GB: the fleet admits what
        // fits and rejects the rest with concrete violations.
        let topo = Topology::heterogeneous_fleet(1, 25e9);
        let mut sched = GlobalScheduler::new(topo, CostModel::paper_stack());
        let tenants = (1..=5)
            .map(|id| request(id, Workload::LlmServing))
            .collect();
        let fleet = admit_all(&mut sched, tenants);
        assert!(
            !fleet.rejected.is_empty(),
            "48 GB cannot hold 5×12 GB models plus activations"
        );
        assert!(
            fleet.plans.len() + fleet.rejected.len() == 5,
            "every tenant either plans or rejects"
        );
        for denies in fleet.rejected.values() {
            assert!(denies.iter().all(overcommit));
        }
        // At least the first tenants admit.
        assert!(fleet.plans.len() >= 2, "admitted {}", fleet.plans.len());
    }

    #[test]
    fn admission_order_is_deterministic_regardless_of_arrival_order() {
        // Regression: planning used to iterate tenants in arrival
        // order, so the same fleet and tenant set admitted different
        // survivors depending on interleaving. Admission is now sorted by
        // tenant id.
        let plan_with_order = |ids: &[u64]| {
            let topo = Topology::heterogeneous_fleet(1, 25e9);
            let mut sched = GlobalScheduler::new(topo, CostModel::paper_stack());
            let tenants = ids.iter().map(|&id| request(id, Workload::LlmServing));
            let fleet = admit_all(&mut sched, tenants.collect());
            let admitted: Vec<u64> = fleet.plans.keys().copied().collect();
            let rejected: Vec<u64> = fleet.rejected.keys().copied().collect();
            (admitted, rejected, fleet.assignments)
        };
        let forward = plan_with_order(&[1, 2, 3, 4, 5]);
        let shuffled = plan_with_order(&[4, 2, 5, 1, 3]);
        assert_eq!(
            forward, shuffled,
            "admission must not depend on arrival order"
        );
        assert!(!forward.1.is_empty(), "the fixture must actually overflow");
    }

    #[test]
    fn step_readmits_rejected_tenants_after_departure() {
        // Overfill the bandwidth-optimized tier, then depart admitted
        // tenants until the rejected ones fit: each step re-checks the
        // freed memory in ascending id order.
        let topo = Topology::heterogeneous_fleet(1, 25e9);
        let mut sched = GlobalScheduler::new(topo, CostModel::paper_stack());
        let events = (1..=5u64)
            .map(|id| FleetEvent::Admit(request(id, Workload::LlmServing)))
            .collect();
        let fleet = sched.step(Nanos::ZERO, events);
        assert!(!fleet.rejected.is_empty(), "fixture must overflow the tier");
        let admitted: Vec<u64> = fleet.assignments.keys().copied().collect();
        let waiting: Vec<u64> = fleet.rejected.keys().copied().collect();

        // Departing the first admitted tenant frees its slice; the
        // lowest-id waiting tenant admits on the next step.
        let fleet2 = sched.step(
            Nanos::from_secs_f64(1.0),
            vec![FleetEvent::Depart(admitted[0])],
        );
        assert!(
            fleet2.plans.contains_key(&waiting[0]),
            "freed memory must re-admit the lowest waiting id: {:?}",
            fleet2.rejected
        );
        // And an empty step is a no-op: nothing pending, nothing planned.
        let fleet3 = sched.step(Nanos::from_secs_f64(2.0), Vec::new());
        assert!(fleet3.plans.is_empty() && fleet3.rejected.is_empty());
    }

    #[test]
    fn later_tenants_see_earlier_load() {
        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let mut sched = GlobalScheduler::new(topo, CostModel::ideal_25g());
        let fleet = admit_all(
            &mut sched,
            vec![
                request(1, Workload::LlmServing),
                request(2, Workload::LlmServing),
            ],
        );
        // Both are decode-phase LLMs → same class; the second should not
        // necessarily collide with the first if two devices exist.
        let a = &fleet.assignments[&1];
        let b = &fleet.assignments[&2];
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b, "load spreading across the affinity partition");
    }

    #[test]
    fn admission_reads_the_plans_liveness_verdict() {
        // Two 32.4 GB activations live together beside their 32.4 GB sum:
        // no single value exceeds an 80 GB device, but the plan's peak
        // does. Pinned bytes plus the largest transient admitted it.
        let ctx = genie_frontend::capture::CaptureCtx::new("two-live");
        let x = ctx.input("x", [90_000, 90_000], genie_srg::ElemType::F32, None);
        x.relu().add(&x.gelu()).mark_output();
        let tenant = TenantRequest {
            id: 1,
            srg: ctx.finish().srg,
        };
        let mut sched = GlobalScheduler::new(Topology::rack(1, 25e9), CostModel::paper_stack());
        let fleet = admit_all(&mut sched, vec![tenant]);
        assert!(
            fleet.plans.is_empty(),
            "the overcommitted plan must not land"
        );
        let denies = &fleet.rejected[&1];
        assert!(
            !denies.is_empty() && denies.iter().all(overcommit),
            "{denies:?}"
        );
    }
}
