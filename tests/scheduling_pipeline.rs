//! Integration: the full capture → annotate → schedule → simulate
//! pipeline across workloads and policies, checking plan invariants and
//! the cross-policy orderings the paper's argument rests on.

use genie::backend::simulate_once;
use genie::models::Workload;
use genie::netsim::RpcParams;
use genie::prelude::*;
use genie::scheduler::Location;

fn plan_for(w: Workload, policy: &dyn Policy, topo: &Topology) -> genie::scheduler::ExecutionPlan {
    let srg = w.spec_graph();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    genie::scheduler::schedule(&srg, topo, &state, &cost, policy)
}

#[test]
fn every_workload_plans_under_every_policy() {
    let topo = Topology::rack(4, 25e9);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(RoundRobin),
        Box::new(LeastLoaded),
        Box::new(DataAware),
        Box::new(SemanticsAware::new()),
    ];
    for w in Workload::ALL {
        for p in &policies {
            let plan = plan_for(w, p.as_ref(), &topo);
            // Invariant: every node is placed.
            assert_eq!(
                plan.placements.len(),
                plan.srg.node_count(),
                "{:?}/{}",
                w,
                plan.policy
            );
            // Invariant: every cross-location edge is covered by a
            // transfer, a pinned upload, or a handle reference.
            for edge in plan.srg.edges() {
                let src = plan.location(edge.src);
                let dst = plan.location(edge.dst);
                if src != dst {
                    let covered = plan.transfers.iter().any(|t| t.edge == edge.id)
                        || plan
                            .pinned_uploads
                            .iter()
                            .any(|(t, _, _)| *t == edge.tensor);
                    assert!(covered, "{:?}: uncovered edge {}", w, edge.id);
                }
            }
            // Invariant: sources sit on the client.
            for node in plan.srg.nodes() {
                if node.op.is_source() {
                    assert_eq!(plan.location(node.id), Location::ClientCpu);
                }
            }
        }
    }
}

#[test]
fn semantics_aware_dominates_blind_policies_on_llm() {
    let topo = Topology::rack(4, 25e9);
    let aware = plan_for(Workload::LlmServing, &SemanticsAware::new(), &topo);
    for blind in [&RoundRobin as &dyn Policy, &LeastLoaded] {
        let plan = plan_for(Workload::LlmServing, blind, &topo);
        let blind_recurring: u64 = plan
            .transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum();
        let aware_recurring: u64 = aware
            .transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum();
        assert!(
            blind_recurring > aware_recurring * 50,
            "{}: {blind_recurring} vs {aware_recurring}",
            plan.policy
        );
    }
}

#[test]
fn simulation_agrees_with_plan_estimates_directionally() {
    let topo = Topology::paper_testbed();
    let cost = CostModel::paper_stack();
    let aware = plan_for(Workload::LlmServing, &SemanticsAware::new(), &topo);
    let blind = plan_for(Workload::LlmServing, &RoundRobin, &topo);
    let ra = simulate_once(&aware, &topo, &cost, RpcParams::tensorpipe_python());
    let rb = simulate_once(&blind, &topo, &cost, RpcParams::tensorpipe_python());
    assert!(ra.makespan_s <= rb.makespan_s);
    assert!(ra.network_bytes <= rb.network_bytes);
}

#[test]
fn plans_are_deterministic() {
    let topo = Topology::rack(3, 25e9);
    let a = plan_for(Workload::Recommendation, &SemanticsAware::new(), &topo);
    let b = plan_for(Workload::Recommendation, &SemanticsAware::new(), &topo);
    assert_eq!(a.placements, b.placements);
    assert_eq!(a.transfers.len(), b.transfers.len());
    assert_eq!(a.network_bytes(), b.network_bytes());
}

/// One fleet tenant submitting workload `w`'s spec graph.
fn tenant(id: u64, w: Workload) -> genie::scheduler::global::tenant::TenantRequest {
    genie::scheduler::global::tenant::TenantRequest {
        id,
        srg: w.spec_graph(),
    }
}

#[test]
fn multi_tenant_example_placement_is_pinned() {
    use genie::analysis::{Anchor, LintCode, Severity};
    use genie::cluster::DevId;
    use genie::scheduler::global::{FleetEvent, GlobalScheduler};

    // `examples/multi_tenant.rs`'s six tenants: three LLMs, a vision
    // model, the production DLRM and a multimodal VQA service.
    let topo = Topology::heterogeneous_fleet(2, 25e9);
    let mut sched = GlobalScheduler::new(topo, CostModel::paper_stack());
    let workloads = [
        Workload::LlmServing,
        Workload::LlmServing,
        Workload::LlmServing,
        Workload::ComputerVision,
        Workload::Recommendation,
        Workload::Multimodal,
    ];
    let events = (1u64..)
        .zip(workloads)
        .map(|(id, w)| FleetEvent::Admit(tenant(id, w)));
    let fleet = sched.step(genie::netsim::Nanos::ZERO, events.collect());

    let devs = |ids: &[u32]| ids.iter().map(|&d| DevId(d)).collect::<Vec<_>>();
    let expected = [
        (1, devs(&[2])),
        (2, devs(&[3])),
        (3, devs(&[2])),
        (4, devs(&[0, 1])),
        (6, devs(&[2, 3])),
    ];
    assert_eq!(fleet.assignments, expected.into_iter().collect());
    assert_eq!(
        fleet.plans.keys().copied().collect::<Vec<_>>(),
        [1, 2, 3, 4, 6]
    );
    // The 66 GB of DLRM tables overcommit the 24 GB L4 it prefers.
    assert_eq!(fleet.rejected.keys().copied().collect::<Vec<_>>(), [5]);
    let denies = &fleet.rejected[&5];
    assert!(!denies.is_empty());
    for d in denies {
        assert_eq!(
            (d.code, d.severity),
            (LintCode::DeviceOvercommit, Severity::Deny)
        );
        assert_eq!(d.anchor, Anchor::Device(DevId(4)), "{d}");
    }
}

#[test]
fn multimodal_lands_by_modality_affinity_in_global_scheduler() {
    use genie::scheduler::global::{FleetEvent, GlobalScheduler};

    let topo = Topology::heterogeneous_fleet(1, 25e9);
    let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
    let events = [
        (1u64, Workload::LlmServing),
        (2, Workload::ComputerVision),
        (3, Workload::Recommendation),
        (4, Workload::Multimodal),
    ]
    .map(|(id, w)| FleetEvent::Admit(tenant(id, w)));
    let fleet = sched.step(genie::netsim::Nanos::ZERO, events.into());
    // The production DLRM (66 GB of tables) exceeds the 24 GB inference
    // tier and is rejected by admission control; the rest plan.
    assert_eq!(fleet.plans.len() + fleet.rejected.len(), 4);
    assert!(fleet.plans.len() >= 3);
    // Admitted tenants produce valid plans with distinct affinity
    // placements for at least two classes.
    let classes: std::collections::BTreeSet<_> = fleet
        .assignments
        .values()
        .flat_map(|devs| devs.iter().map(|d| topo.device(*d).spec.class))
        .collect();
    assert!(
        classes.len() >= 2,
        "fleet must use multiple tiers: {classes:?}"
    );
}
