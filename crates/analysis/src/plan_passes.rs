//! Plan-level passes: the post-`schedule()` gate.
//!
//! These checks need placements, transfers, and live cluster state, which
//! live in `genie-scheduler` — a crate that itself depends on this one.
//! The dependency is inverted through [`PlanFacts`]: the scheduler
//! implements the trait for its `ExecutionPlan`, and the passes here see
//! only neutral facts (devices, bytes, handles). [`run_plan_passes`]
//! reads those facts once into a `PlanView`, with the graph's one
//! topological order, and every pass reads the view.

use crate::dataflow::SrgFlow;
use crate::diag::{timed_pass, Anchor, LintCode, LintConfig, Report};
use genie_cluster::{ClusterState, DevId, Topology};
use genie_srg::{EdgeId, NodeId, Phase, Residency, Srg, TensorId};

/// One scheduled data movement, reduced to what the lints need.
/// `None` locations mean the client CPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferFact {
    /// The SRG edge this transfer realizes.
    pub edge: EdgeId,
    /// The logical tensor moved.
    pub tensor: TensorId,
    /// Source device (`None` = client).
    pub from: Option<DevId>,
    /// Destination device (`None` = client).
    pub to: Option<DevId>,
    /// Payload bytes.
    pub bytes: u64,
    /// Whether the payload is addressed by resident-object handle.
    pub via_handle: bool,
}

/// The scheduler-neutral view of an execution plan.
pub trait PlanFacts {
    /// A name for the report subject (typically "graph@policy").
    fn subject(&self) -> String;
    /// The graph the plan executes.
    fn srg(&self) -> &Srg;
    /// Device binding of a node (`None` = client CPU).
    fn node_device(&self, node: NodeId) -> Option<DevId>;
    /// All scheduled transfers.
    fn transfers(&self) -> Vec<TransferFact>;
    /// One-time pinned uploads: (tensor, destination, bytes).
    fn pinned_uploads(&self) -> Vec<(TensorId, DevId, u64)>;
}

/// A plan as its passes read it, gathered once per gate: the graph, its
/// topological order, each node's device, and the plan's transfer and
/// pinned-upload lists.
pub(crate) struct PlanView<'a> {
    pub(crate) srg: &'a Srg,
    /// The graph's steps in topological order; `None` when it is cyclic.
    pub(crate) flow: Option<SrgFlow<'a>>,
    /// Device of each node (`None` = client), indexed by [`NodeId::index`].
    devices: Vec<Option<DevId>>,
    pub(crate) transfers: Vec<TransferFact>,
    pub(crate) pinned: Vec<(TensorId, DevId, u64)>,
}

impl<'a> PlanView<'a> {
    pub(crate) fn new(facts: &'a dyn PlanFacts) -> Self {
        let srg = facts.srg();
        PlanView {
            srg,
            flow: SrgFlow::new(srg).ok(),
            devices: srg.node_ids().map(|n| facts.node_device(n)).collect(),
            transfers: facts.transfers(),
            pinned: facts.pinned_uploads(),
        }
    }

    /// Device binding of a node (`None` = client CPU).
    pub(crate) fn device(&self, node: NodeId) -> Option<DevId> {
        self.devices[node.index()]
    }
}

/// Run every plan pass under `cfg` — the GA1xx local checks, the GA2xx
/// timeline passes from [`crate::schedule_passes`], and the plan-level
/// GA3xx precision passes — and return the merged report.
pub fn run_plan_passes(
    facts: &dyn PlanFacts,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
) -> Report {
    use crate::precision_passes::check_precision_plan;
    use crate::schedule_passes::{
        check_collective_deadlock, check_double_pinning, check_memory_watermark,
        check_transfer_deadlock, check_transfer_ordering,
    };
    let plan = PlanView::new(facts);
    let mut report = Report::new(facts.subject());
    timed_pass("lint.memory_watermark", || {
        check_memory_watermark(&plan, topo, state, cfg, &mut report)
    });
    timed_pass("lint.transfer_endpoints", || {
        check_transfer_endpoints(&plan, cfg, &mut report)
    });
    timed_pass("lint.weight_shipping", || {
        check_weight_shipping(&plan, cfg, &mut report)
    });
    timed_pass("lint.kv_colocation", || {
        check_kv_colocation(&plan, cfg, &mut report)
    });
    timed_pass("lint.transfer_ordering", || {
        check_transfer_ordering(&plan, cfg, &mut report)
    });
    timed_pass("lint.double_pinning", || {
        check_double_pinning(&plan, cfg, &mut report)
    });
    timed_pass("lint.transfer_deadlock", || {
        check_transfer_deadlock(&plan, cfg, &mut report)
    });
    timed_pass("lint.collective_deadlock", || {
        check_collective_deadlock(&plan, cfg, &mut report)
    });
    timed_pass("lint.precision_plan", || {
        check_precision_plan(&plan, topo, cfg, &mut report)
    });
    report.finish().record_metrics()
}

/// GA102 — transfer endpoints: each transfer's `from`/`to` must equal the
/// placements of the edge it claims to realize.
fn check_transfer_endpoints(plan: &PlanView, cfg: &LintConfig, report: &mut Report) {
    let srg = plan.srg;
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
        let src_dev = plan.device(edge.src);
        let dst_dev = plan.device(edge.dst);
        if t.from != src_dev || t.to != dst_dev {
            let show = |d: Option<DevId>| d.map_or("client".to_string(), |d| d.to_string());
            report.push(
                cfg,
                LintCode::TransferEndpointMismatch,
                Anchor::Edge(t.edge),
                format!(
                    "transfer {}→{} disagrees with placements {}→{}",
                    show(t.from),
                    show(t.to),
                    show(src_dev),
                    show(dst_dev)
                ),
            );
        }
    }
}

/// GA103 — weight shipping: a persistent weight (or embedding shard)
/// moving to a device by value instead of by handle re-pays its full
/// footprint on every invocation.
fn check_weight_shipping(plan: &PlanView, cfg: &LintConfig, report: &mut Report) {
    let srg = plan.srg;
    for t in &plan.transfers {
        if t.via_handle || t.to.is_none() || t.edge.index() >= srg.edge_count() {
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
                    t.bytes,
                    src.residency,
                    t.to.expect("checked above")
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
fn check_kv_colocation(plan: &PlanView, cfg: &LintConfig, report: &mut Report) {
    let srg = plan.srg;
    let mut pinned: Vec<(TensorId, DevId)> =
        plan.pinned.iter().map(|&(t, dev, _)| (t, dev)).collect();
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
        let a = plan.device(edge.src);
        let b = plan.device(edge.dst);
        let resident_at_reader = src.op.is_source()
            && b.is_some_and(|dev| pinned.binary_search(&(edge.tensor, dev)).is_ok());
        if a != b && !resident_at_reader {
            let show = |d: Option<DevId>| d.map_or("client".to_string(), |d| d.to_string());
            report.push(
                cfg,
                LintCode::KvCacheNotColocated,
                Anchor::Edge(edge.id),
                format!(
                    "kv cache {} on {} consumed by {} on {}",
                    edge.src,
                    show(a),
                    edge.dst,
                    show(b)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_cluster::GpuSpec;
    use genie_srg::{ElemType, Node, OpKind, TensorMeta};
    use std::collections::BTreeMap;

    /// A hand-built plan for tests: the scheduler-free implementation of
    /// [`PlanFacts`].
    struct FakePlan {
        srg: Srg,
        placements: BTreeMap<NodeId, Option<DevId>>,
        transfers: Vec<TransferFact>,
        pinned: Vec<(TensorId, DevId, u64)>,
    }

    impl PlanFacts for FakePlan {
        fn subject(&self) -> String {
            format!("{}@fake", self.srg.name)
        }
        fn srg(&self) -> &Srg {
            &self.srg
        }
        fn node_device(&self, node: NodeId) -> Option<DevId> {
            self.placements.get(&node).copied().flatten()
        }
        fn transfers(&self) -> Vec<TransferFact> {
            self.transfers.clone()
        }
        fn pinned_uploads(&self) -> Vec<(TensorId, DevId, u64)> {
            self.pinned.clone()
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

    fn two_node_graph() -> (Srg, NodeId, NodeId, EdgeId) {
        let mut g = Srg::new("plan-g");
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        let e = g.connect(a, b, TensorMeta::new([1024, 1024], ElemType::F32));
        (g, a, b, e)
    }

    fn lint(facts: &FakePlan, topo: &Topology, state: &ClusterState) -> Report {
        run_plan_passes(facts, topo, state, &LintConfig::new())
    }

    #[test]
    fn ga101_overcommit_detected() {
        let (topo, dev) = tiny_topo(1_000_000); // 1 MB device
        let (srg, a, b, _) = two_node_graph();
        let plan = FakePlan {
            srg,
            placements: [(a, None), (b, Some(dev))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: vec![(TensorId::new(0), dev, 8_000_000)], // 8 MB of weights
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
        let (srg, a, b, _) = two_node_graph();
        let plan = FakePlan {
            srg,
            placements: [(a, None), (b, Some(dev))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: vec![(TensorId::new(0), dev, 8_000_000)],
        };
        let state = ClusterState::new();
        assert!(lint(&plan, &topo, &state)
            .with_code(LintCode::DeviceOvercommit)
            .is_empty());
    }

    #[test]
    fn ga102_endpoint_mismatch_detected() {
        let (topo, dev) = tiny_topo(80_000_000_000);
        let (srg, a, b, e) = two_node_graph();
        let plan = FakePlan {
            srg,
            placements: [(a, None), (b, Some(dev))].into_iter().collect(),
            // Claims device→device although the edge runs client→device.
            transfers: vec![TransferFact {
                edge: e,
                tensor: TensorId::new(0),
                from: Some(dev),
                to: Some(dev),
                bytes: 64,
                via_handle: true,
            }],
            pinned: Vec::new(),
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
        let (srg, a, b, e) = two_node_graph();
        let plan = FakePlan {
            srg,
            placements: [(a, None), (b, Some(dev))].into_iter().collect(),
            transfers: vec![TransferFact {
                edge: e,
                tensor: TensorId::new(0),
                from: None,
                to: Some(dev),
                bytes: 4 << 20,
                via_handle: false, // weights must go via pinned upload
            }],
            pinned: Vec::new(),
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
        let d0 = t.add_device(h, GpuSpec::a100_80gb());
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

        let split = FakePlan {
            srg: g.clone(),
            placements: [(kv, Some(d0)), (attn, Some(d1))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: Vec::new(),
        };
        let state = ClusterState::new();
        let r = lint(&split, &t, &state);
        assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");
        // Appended to on d0 this step, the cache crosses to d1 every step
        // even when the plan pins it to its reader.
        let pinned = FakePlan {
            pinned: vec![(g.edge(e).tensor, d1, 160)],
            ..split
        };
        let r = lint(&pinned, &t, &state);
        assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");

        let colocated = FakePlan {
            srg: g,
            placements: [(kv, Some(d0)), (attn, Some(d0))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: Vec::new(),
        };
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
        let plan = |pins: Vec<(TensorId, DevId, u64)>| FakePlan {
            srg: g.clone(),
            placements: [(kv, None), (attn, Some(d0))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: pins,
        };
        let state = ClusterState::new();

        let r = lint(&plan(vec![(tensor, d0, 160)]), &t, &state);
        assert!(r.with_code(LintCode::KvCacheNotColocated).is_empty(), "{r}");
        // Unpinned, or pinned elsewhere, the cache is split from its reader.
        for pins in [vec![], vec![(tensor, d1, 160)]] {
            let r = lint(&plan(pins), &t, &state);
            assert_eq!(r.with_code(LintCode::KvCacheNotColocated).len(), 1, "{r}");
        }
    }

    #[test]
    fn unknown_device_reported_not_panicked() {
        let (topo, _) = tiny_topo(1_000_000);
        let (srg, a, b, _) = two_node_graph();
        let ghost = DevId(42);
        let plan = FakePlan {
            srg,
            placements: [(a, None), (b, Some(ghost))].into_iter().collect(),
            transfers: Vec::new(),
            pinned: Vec::new(),
        };
        let state = ClusterState::new();
        let r = lint(&plan, &topo, &state);
        assert_eq!(
            r.with_code(LintCode::TransferEndpointMismatch).len(),
            1,
            "{r}"
        );
    }
}
