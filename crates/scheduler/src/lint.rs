//! The scheduler's side of the semantic lint gate (§3.3 meets GA1xx).
//!
//! `genie-analysis` defines the plan-level passes against its
//! scheduler-neutral [`PlanFacts`] trait; this module implements that
//! trait for [`ExecutionPlan`] and exposes [`lint_plan`], the entry point
//! [`schedule`](crate::schedule::schedule) uses to record diagnostics on
//! every plan it emits.

use crate::plan::ExecutionPlan;
use genie_analysis::{run_plan_passes, LintConfig, PlanFacts, Report, TransferFact};
use genie_cluster::{ClusterState, DevId, Topology};
use genie_srg::{NodeId, Srg, TensorId};

impl PlanFacts for ExecutionPlan {
    fn subject(&self) -> String {
        format!("{}@{}", self.srg.name, self.policy)
    }

    fn srg(&self) -> &Srg {
        &self.srg
    }

    fn node_device(&self, node: NodeId) -> Option<DevId> {
        self.location(node).device()
    }

    fn transfers(&self) -> Vec<TransferFact> {
        self.transfers
            .iter()
            .map(|t| TransferFact {
                edge: t.edge,
                tensor: t.tensor,
                from: t.from.device(),
                to: t.to.device(),
                bytes: t.bytes,
                via_handle: t.via_handle,
            })
            .collect()
    }

    fn pinned_uploads(&self) -> Vec<(TensorId, DevId, u64)> {
        self.pinned_uploads.clone()
    }
}

/// Run every `GA1xx` plan pass over `plan` against the cluster it was
/// scheduled for, returning the canonical report.
pub fn lint_plan(
    plan: &ExecutionPlan,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
) -> Report {
    run_plan_passes(plan, topo, state, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::plan::{CostBreakdown, Location};
    use crate::policy::{RoundRobin, SemanticsAware};
    use crate::schedule::{schedule, schedule_checked};
    use genie_analysis::{Anchor, LintCode};
    use genie_cluster::{GpuSpec, Link};
    use genie_frontend::capture::CaptureCtx;
    use genie_models::{KvState, TransformerConfig, TransformerLm};
    use genie_srg::{Node, NodeId, OpKind, Residency, TensorMeta};

    fn decode_graph() -> Srg {
        let m = TransformerLm::new_spec(TransformerConfig::tiny());
        let ctx = CaptureCtx::new("decode");
        let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        ctx.finish().srg
    }

    fn tiny_device_topo(mem_capacity: u64) -> Topology {
        let mut t = Topology::new();
        let client = t.add_host("client");
        let server = t.add_host("server");
        let spec = GpuSpec {
            mem_capacity,
            ..GpuSpec::a100_80gb()
        };
        t.add_device(server, spec);
        t.add_link(client, server, Link::PAPER_TESTBED);
        t
    }

    #[test]
    fn scheduled_plans_carry_deny_clean_diagnostics() {
        let srg = decode_graph();
        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let plan = schedule(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
        );
        let denies: Vec<_> = plan
            .diagnostics
            .iter()
            .filter(|d| d.severity == genie_analysis::Severity::Deny)
            .collect();
        assert!(denies.is_empty(), "real plans lint deny-clean: {denies:?}");
    }

    #[test]
    fn schedule_checked_rejects_overcommitted_device() {
        let srg = decode_graph();
        // A "GPU" with 4 KB of memory: even the tiny model's weights
        // cannot be pinned, so GA101 fires at deny level.
        let topo = tiny_device_topo(4096);
        let state = ClusterState::new();
        let err = schedule_checked(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
            &LintConfig::new(),
        )
        .expect_err("4 KB device must overcommit");
        assert!(err.has_deny(), "{err}");
        assert!(
            !err.with_code(LintCode::DeviceOvercommit).is_empty(),
            "{err}"
        );
    }

    #[test]
    fn schedule_checked_warn_override_lets_plan_through() {
        let srg = decode_graph();
        let topo = tiny_device_topo(4096);
        let state = ClusterState::new();
        let cfg = LintConfig::new().warn(LintCode::DeviceOvercommit);
        let plan = schedule_checked(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
            &cfg,
        )
        .expect("demoted to warn, plan goes through");
        assert!(plan
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DeviceOvercommit));
    }

    #[test]
    fn hand_built_overcommit_plan_is_flagged() {
        let topo = tiny_device_topo(1_000_000);
        let dev = topo.devices()[0].id;
        let mut srg = Srg::new("hand");
        let w = srg.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let mm = srg.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        srg.connect(
            w,
            mm,
            TensorMeta::new([1024, 1024], genie_srg::ElemType::F32),
        );
        let tensor = srg.edge(genie_srg::EdgeId::new(0)).tensor;
        let plan = ExecutionPlan {
            policy: "hand".into(),
            srg,
            placements: vec![Location::ClientCpu, Location::Device(dev)],
            transfers: Vec::new(),
            pinned_uploads: vec![(tensor, dev, 8_000_000)], // 8 MB into 1 MB
            estimate: CostBreakdown::default(),
            diagnostics: Vec::new(),
        };
        let r = lint_plan(&plan, &topo, &ClusterState::new(), &LintConfig::new());
        assert!(r.has_deny(), "{r}");
        assert_eq!(r.with_code(LintCode::DeviceOvercommit).len(), 1, "{r}");
    }

    #[test]
    fn round_robin_kv_splits_surface_as_warnings() {
        let srg = decode_graph();
        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let plan = schedule(&srg, &topo, &state, &CostModel::ideal_25g(), &RoundRobin);
        let flagged = |e: genie_srg::EdgeId| {
            plan.diagnostics
                .iter()
                .any(|d| d.code == LintCode::KvCacheNotColocated && d.anchor == Anchor::Edge(e))
        };
        // Blind placement splits KV caches from their consumers. A cache
        // carried in from the client is pinned to the device that reads
        // it, once, and stays quiet; one appended on one device and read
        // on another crosses every step, and the lint records it without
        // rejecting the (legal, just bad) plan.
        let (mut carried, mut appended) = (0, 0);
        for e in srg.edges() {
            let src = srg.node(e.src);
            let reader = plan.location(e.dst);
            if src.residency != Residency::StatefulKvCache || plan.location(e.src) == reader {
                continue;
            }
            if src.op.is_source() {
                carried += 1;
                let dev = reader.device().expect("a decode step reads on a device");
                assert!(
                    plan.pinned_uploads
                        .iter()
                        .any(|&(t, to, _)| t == e.tensor && to == dev),
                    "{} is not pinned to its reader's device",
                    e.id
                );
                assert!(!flagged(e.id), "{} is resident where it is read", e.id);
            } else {
                appended += 1;
                assert!(flagged(e.id), "{} crosses every step unflagged", e.id);
            }
        }
        assert!(
            carried > 0 && appended > 0,
            "{carried} carried, {appended} appended"
        );
    }
}
