//! Plan-level passes: the post-`schedule()` gate.
//!
//! These checks need placements, transfers, and live cluster state. They
//! read the [`ExecutionPlan`] the scheduler emits — the type is this
//! crate's ([`crate::plan`]). The passes that walk the plan's timeline
//! also read the graph's one topological order, built once per gate.

use crate::dataflow::SrgFlow;
use crate::diag::{timed_pass, Anchor, LintCode, LintConfig, Report};
use crate::plan::{ExecutionPlan, Location};
use genie_cluster::{ClusterState, DevId, Topology};
use genie_srg::{Phase, Residency, TensorId};

/// Run every plan pass under `cfg` — the GA1xx local checks, the GA2xx
/// timeline passes from [`crate::schedule_passes`], and the plan-level
/// GA3xx precision passes — and return the merged report.
pub fn run_plan_passes(
    plan: &ExecutionPlan,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
) -> Report {
    use crate::precision_passes::check_precision_plan;
    use crate::schedule_passes::{
        check_collective_deadlock, check_double_pinning, check_memory_watermark,
        check_transfer_deadlock, check_transfer_ordering,
    };
    let mut report = Report::new(plan.label());
    // The graph's steps in topological order; `None` when it is cyclic.
    let flow = SrgFlow::new(&plan.srg).ok();
    let flow = flow.as_ref();
    timed_pass("lint.memory_watermark", || {
        check_memory_watermark(plan, flow, topo, state, cfg, &mut report)
    });
    timed_pass("lint.transfer_endpoints", || {
        check_transfer_endpoints(plan, cfg, &mut report)
    });
    timed_pass("lint.weight_shipping", || {
        check_weight_shipping(plan, cfg, &mut report)
    });
    timed_pass("lint.kv_colocation", || {
        check_kv_colocation(plan, cfg, &mut report)
    });
    timed_pass("lint.transfer_ordering", || {
        check_transfer_ordering(plan, flow, cfg, &mut report)
    });
    timed_pass("lint.double_pinning", || {
        check_double_pinning(plan, cfg, &mut report)
    });
    timed_pass("lint.transfer_deadlock", || {
        check_transfer_deadlock(plan, cfg, &mut report)
    });
    timed_pass("lint.collective_deadlock", || {
        check_collective_deadlock(plan, flow, cfg, &mut report)
    });
    timed_pass("lint.precision_plan", || {
        check_precision_plan(plan, flow, topo, cfg, &mut report)
    });
    report.finish().record_metrics()
}

/// GA102 — transfer endpoints: each transfer's `from`/`to` must equal the
/// placements of the edge it claims to realize.
fn check_transfer_endpoints(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let srg = &plan.srg;
    for t in &plan.transfers {
        if t.edge.index() >= srg.edge_count() {
            report.push(
                cfg,
                LintCode::TransferEndpointMismatch,
                Anchor::Edge(t.edge),
                format!("transfer references edge {} absent from the graph", t.edge),
            );
            continue;
        }
        let edge = srg.edge(t.edge);
        let src = plan.location(edge.src);
        let dst = plan.location(edge.dst);
        if t.from != src || t.to != dst {
            report.push(
                cfg,
                LintCode::TransferEndpointMismatch,
                Anchor::Edge(t.edge),
                format!(
                    "transfer {}→{} disagrees with placements {src}→{dst}",
                    t.from, t.to
                ),
            );
        }
    }
}

/// GA103 — weight shipping: a persistent weight (or embedding shard)
/// moving to a device by value instead of by handle re-pays its full
/// footprint on every invocation.
fn check_weight_shipping(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let srg = &plan.srg;
    for t in &plan.transfers {
        if t.via_handle || t.to == Location::ClientCpu || t.edge.index() >= srg.edge_count() {
            continue;
        }
        let src = srg.node(srg.edge(t.edge).src);
        if matches!(
            src.residency,
            Residency::PersistentWeight | Residency::EmbeddingTable
        ) {
            report.push(
                cfg,
                LintCode::WeightReshippedByValue,
                Anchor::Edge(t.edge),
                format!(
                    "{} B {} re-ships by value to {}",
                    t.bytes, src.residency, t.to
                ),
            );
        }
    }
}

/// GA104 — KV co-location: a decode-phase `StatefulKvCache` value whose
/// producer and consumer sit on different locations forces growing state
/// across the network every step. A cache carried in from an earlier
/// step (a source node) that the plan pins to its consumer's device is
/// uploaded once and resident where it is read (§3.3's stateful
/// co-location), so that edge counts as co-located. A cache computed in
/// this step on one location and read on another ships every step, pinned
/// or not.
fn check_kv_colocation(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let srg = &plan.srg;
    let mut pinned: Vec<(TensorId, DevId)> = plan
        .pinned_uploads
        .iter()
        .map(|&(t, dev, _)| (t, dev))
        .collect();
    pinned.sort_unstable();
    for edge in srg.edges() {
        let src = srg.node(edge.src);
        if src.residency != Residency::StatefulKvCache {
            continue;
        }
        let dst = srg.node(edge.dst);
        let decodeish = |p: &Phase| matches!(p, Phase::LlmDecode | Phase::Unknown);
        if !decodeish(&src.phase) && !decodeish(&dst.phase) {
            continue;
        }
        let a = plan.location(edge.src);
        let b = plan.location(edge.dst);
        let resident_at_reader = src.op.is_source()
            && b.device()
                .is_some_and(|dev| pinned.binary_search(&(edge.tensor, dev)).is_ok());
        if a != b && !resident_at_reader {
            report.push(
                cfg,
                LintCode::KvCacheNotColocated,
                Anchor::Edge(edge.id),
                format!(
                    "kv cache {} on {a} consumed by {} on {b}",
                    edge.src, edge.dst
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CostBreakdown, Transfer};
    use genie_cluster::GpuSpec;
    use genie_srg::{EdgeId, ElemType, Node, NodeId, OpKind, Srg, TensorMeta};

    /// A hand-built plan for tests: `placements` per node index (nodes
    /// past its end are on the client), no transfers, nothing pinned.
    fn plan(srg: Srg, placements: Vec<Location>) -> ExecutionPlan {
        ExecutionPlan {
            policy: "fake".into(),
            srg,
            placements,
            transfers: Vec::new(),
            pinned_uploads: Vec::new(),
            estimate: CostBreakdown::default(),
            diagnostics: Vec::new(),
        }
    }

    fn tiny_topo(mem_capacity: u64) -> (Topology, DevId) {
        let mut t = Topology::new();
        let h = t.add_host("s");
        let spec = GpuSpec {
            mem_capacity,
            ..GpuSpec::a100_80gb()
        };
        let d = t.add_device(h, spec);
        (t, d)
    }

    /// `w → mm`: node 0 a persistent weight, node 1 its matmul.
    fn two_node_graph() -> (Srg, EdgeId) {
        let mut g = Srg::new("plan-g");
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        let e = g.connect(a, b, TensorMeta::new([1024, 1024], ElemType::F32));
        (g, e)
    }

    fn lint(plan: &ExecutionPlan, topo: &Topology, state: &ClusterState) -> Report {
        run_plan_passes(plan, topo, state, &LintConfig::new())
    }

    #[test]
    fn ga101_overcommit_detected() {
        let (topo, dev) = tiny_topo(1_000_000); // 1 MB device
        let (srg, _) = two_node_graph();
        let plan = ExecutionPlan {
            pinned_uploads: vec![(TensorId::new(0), dev, 8_000_000)], // 8 MB of weights
            ..plan(srg, vec![Location::ClientCpu, Location::Device(dev)])
        };
        let state = ClusterState::new();
        let r = lint(&plan, &topo, &state);
        let hits = r.with_code(LintCode::DeviceOvercommit);
        assert_eq!(hits.len(), 1, "{r}");
        assert!(hits[0].message.contains("only 1000000 B are free"), "{r}");
        assert!(r.has_deny());
    }

    #[test]
    fn ga101_fits_is_clean() {
        let (topo, dev) = tiny_topo(80_000_000_000);
        let (srg, _) = two_node_graph();
        let plan = ExecutionPlan {
            pinned_uploads: vec![(TensorId::new(0), dev, 8_000_000)],
            ..plan(srg, vec![Location::ClientCpu, Location::Device(dev)])
        };
        let state = ClusterState::new();
        assert!(lint(&plan, &topo, &state)
            .with_code(LintCode::DeviceOvercommit)
            .is_empty());
    }

    #[test]
    fn ga102_endpoint_mismatch_detected() {
        let (topo, dev) = tiny_topo(80_000_000_000);
        let (srg, e) = two_node_graph();
        let plan = ExecutionPlan {
            // Claims device→device although the edge runs client→device.
            transfers: vec![Transfer {
                edge: e,
                tensor: TensorId::new(0),
                from: Location::Device(dev),
                to: Location::Device(dev),
                bytes: 64,
                via_handle: true,
            }],
            ..plan(srg, vec![Location::ClientCpu, Location::Device(dev)])
        };
        let state = ClusterState::new();
        let r = lint(&plan, &topo, &state);
        assert_eq!(
            r.with_code(LintCode::TransferEndpointMismatch).len(),
            1,
            "{r}"
        );
    }

    #[test]
    fn ga103_weight_by_value_detected() {
        let (topo, dev) = tiny_topo(80_000_000_000);
        let (srg, e) = two_node_graph();
        let plan = ExecutionPlan {
            transfers: vec![Transfer {
                edge: e,
                tensor: TensorId::new(0),
                from: Location::ClientCpu,
                to: Location::Device(dev),
                bytes: 4 << 20,
                via_handle: false, // weights must go via pinned upload
            }],
            ..plan(srg, vec![Location::ClientCpu, Location::Device(dev)])
        };
        let state = ClusterState::new();
        let r = lint(&plan, &topo, &state);
        assert_eq!(
            r.with_code(LintCode::WeightReshippedByValue).len(),
            1,
            "{r}"
        );
        assert!(!r.has_deny(), "GA103 is warn-level by default");
    }

    #[test]
    fn ga104_split_kv_detected_and_colocated_clean() {
        let mut t = Topology::new();
        let h = t.add_host("s");
        let d0 = Location::Device(t.add_device(h, GpuSpec::a100_80gb()));
        let d1 = t.add_device(h, GpuSpec::a100_80gb());

        let mut g = Srg::new("kv-g");
        let kv = g.add_node(
            Node::new(NodeId::new(0), OpKind::KvAppend, "kv")
                .with_residency(Residency::StatefulKvCache)
                .with_phase(Phase::LlmDecode),
        );
        let seed = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "seed"));
        let row = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "row"));
        g.connect(seed, kv, TensorMeta::new([4, 8], ElemType::F32));
        g.connect(row, kv, TensorMeta::new([1, 8], ElemType::F32));
        let attn = g.add_node(
            Node::new(NodeId::new(0), OpKind::Attention, "attn")
                .with_phase(Phase::LlmDecode)
                .with_cost(genie_srg::CostHints::new(1e6, 1.0, 1.0)),
        );
        let e = g.connect(kv, attn, TensorMeta::new([5, 8], ElemType::F32));
        let client = Location::ClientCpu;

        // kv, seed, row, attn.
        let split = plan(g.clone(), vec![d0, client, client, Location::Device(d1)]);
        let state = ClusterState::new();
        let r = lint(&split, &t, &state);
        assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");
        // Appended to on d0 this step, the cache crosses to d1 every step
        // even when the plan pins it to its reader.
        let pinned = ExecutionPlan {
            pinned_uploads: vec![(g.edge(e).tensor, d1, 160)],
            ..split
        };
        let r = lint(&pinned, &t, &state);
        assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");

        let colocated = plan(g, vec![d0, client, client, d0]);
        assert!(lint(&colocated, &t, &state)
            .with_code(LintCode::KvCacheNotColocated)
            .is_empty());
    }

    #[test]
    fn ga104_kv_source_pinned_to_its_consumers_device_is_colocated() {
        let mut t = Topology::new();
        let h = t.add_host("s");
        let d0 = t.add_device(h, GpuSpec::a100_80gb());
        let d1 = t.add_device(h, GpuSpec::a100_80gb());

        // A KV cache carried in on the client and read by a decode step on
        // d0: the shape `SemanticsAware` gives a decode graph.
        let mut g = Srg::new("kv-pinned");
        let kv = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "kv")
                .with_residency(Residency::StatefulKvCache)
                .with_phase(Phase::LlmDecode),
        );
        let attn = g.add_node(
            Node::new(NodeId::new(0), OpKind::Attention, "attn").with_phase(Phase::LlmDecode),
        );
        let e = g.connect(kv, attn, TensorMeta::new([5, 8], ElemType::F32));
        let tensor = g.edge(e).tensor;
        let pinned = |pins: Vec<(TensorId, DevId, u64)>| ExecutionPlan {
            pinned_uploads: pins,
            ..plan(g.clone(), vec![Location::ClientCpu, Location::Device(d0)])
        };
        let state = ClusterState::new();

        let r = lint(&pinned(vec![(tensor, d0, 160)]), &t, &state);
        assert!(r.with_code(LintCode::KvCacheNotColocated).is_empty(), "{r}");
        // Unpinned, or pinned elsewhere, the cache is split from its reader.
        for pins in [vec![], vec![(tensor, d1, 160)]] {
            let r = lint(&pinned(pins), &t, &state);
            assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");
        }
    }

    #[test]
    fn unknown_device_reported_not_panicked() {
        let (topo, _) = tiny_topo(1_000_000);
        let (srg, _) = two_node_graph();
        let ghost = DevId(42);
        let plan = plan(srg, vec![Location::ClientCpu, Location::Device(ghost)]);
        let state = ClusterState::new();
        let r = lint(&plan, &topo, &state);
        assert_eq!(
            r.with_code(LintCode::TransferEndpointMismatch).len(),
            1,
            "{r}"
        );
    }
}
