//! Integration: dynamic recomputation end to end — the scheduler marks a
//! congested transfer for recomputation, and the simulation backend
//! executes the replica instead of the wire, beating the transfer plan.

use genie_cluster::{ClusterState, DevId, ResidentObject, Topology};
use genie_frontend::capture::CaptureCtx;
use genie_netsim::RpcParams;
use genie_scheduler::recompute::{apply_recomputation, recomputation_candidates};
use genie_scheduler::{schedule, CostModel, Location, Policy, SemanticsAware};
use genie_srg::{ElemType, NodeId, Srg, TensorId};

/// A cheap, wide intermediate: act = relu(w) on d0 feeding a consumer
/// forced onto d1. `w` is a pinnable weight whose tensor id we return so
/// the test can make it resident on the consumer's device (making `act`
/// recomputable there).
fn split_graph() -> (Srg, NodeId, NodeId, TensorId) {
    let ctx = CaptureCtx::new("split");
    let w = ctx.parameter("w", [1024, 1024], ElemType::F32, None); // 4 MB
    let act = w.relu(); // cheap producer, 4 MB output
    let proj = ctx.parameter("proj", [1024, 4], ElemType::F32, None);
    let y = act.matmul(&proj);
    y.mark_output();
    let srg = ctx.finish().srg;
    (srg, act.node, y.node, w.tensor)
}

/// A policy wrapper that forces the producer and consumer apart.
struct ForcedSplit {
    producer: NodeId,
    consumer: NodeId,
}

impl Policy for ForcedSplit {
    fn name(&self) -> &'static str {
        "forced_split"
    }
    fn place(&self, srg: &Srg, view: &genie_scheduler::ClusterView<'_>) -> Vec<Location> {
        let devs = view.devices();
        let mut placements = SemanticsAware::new().place(srg, view);
        placements[self.producer.index()] = Location::Device(devs[0]);
        placements[self.consumer.index()] = Location::Device(devs[1]);
        placements
    }
}

#[test]
fn recomputation_beats_congested_transfer_in_simulation() {
    let (srg, producer, consumer, w_tensor) = split_graph();
    let topo = Topology::rack(2, 25e9);
    let mut state = ClusterState::new();
    // The weight is already resident on the consumer's device (a prior
    // session pinned it there) — which is what makes the cheap `relu`
    // recomputable at the consumer.
    state
        .register_resident(
            &topo,
            ResidentObject {
                key: w_tensor.0,
                device: DevId(1),
                bytes: 4 << 20,
                epoch: 1,
            },
        )
        .unwrap();
    // Congest every path severely.
    for a in 0..3u32 {
        for b in a + 1..3 {
            state.set_congestion(a, b, 0.98);
        }
    }
    let cost = CostModel::ideal_25g();
    let policy = ForcedSplit { producer, consumer };
    let plan = schedule(&srg, &topo, &state, &cost, &policy);

    // The producer→consumer edge crosses devices and must be a transfer.
    assert!(plan
        .transfers
        .iter()
        .any(|t| plan.srg.edge(t.edge).src == producer && !t.via_handle));

    // Congestion + local inputs make recomputation attractive.
    let candidates = recomputation_candidates(&plan, &topo, &state, &cost);
    assert!(
        candidates
            .iter()
            .any(|c| plan.srg.edge(c.edge).src == producer),
        "the 4 MB relu output must be a recompute candidate under 98% congestion"
    );

    // Simulate both plans on the congested fabric and compare.
    let run = |p: &genie_scheduler::ExecutionPlan| {
        let mut st = state.clone();
        let mut fabric = genie_netsim::Fabric::new(&topo, &st, RpcParams::rdma_zero_copy());
        genie_backend::SimBackend::new(&topo, &cost).execute(
            p,
            &mut st,
            &mut fabric,
            genie_netsim::Nanos::ZERO,
        )
    };
    let baseline = run(&plan);

    let mut optimized = plan.clone();
    let saved = apply_recomputation(&mut optimized, &candidates);
    assert!(saved > 0.0);
    let report = run(&optimized);

    assert!(
        report.makespan_s < baseline.makespan_s,
        "recompute {} vs transfer {}",
        report.makespan_s,
        baseline.makespan_s
    );
    assert!(report.network_bytes < baseline.network_bytes);
    // The replica kernel actually ran.
    assert!(report
        .trace
        .events()
        .iter()
        .any(|e| matches!(e, genie_netsim::TraceEvent::Kernel { label, .. } if label.starts_with("recompute:"))));
}
