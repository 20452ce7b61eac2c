//! GA101, GA104 and GA202 read the plan's pins from one sorted vector
//! each; the oracles here are the ordered-set and ordered-map versions
//! they replaced. A seeded loop hands `run_plan_passes` random
//! hand-built plans — pins repeated twice and three times, pins of
//! tensors the graph never carries, kv caches split across devices, and
//! now and then a cyclic graph — and every finding of the three passes
//! must equal the oracle's, text included. A case is a function of its
//! index alone, and a failing case prints the index that reproduces it.

use genie_analysis::dataflow::SrgFlow;
use genie_analysis::plan::{CostBreakdown, ExecutionPlan, Location};
use genie_analysis::{run_plan_passes, Anchor, LintCode, LintConfig, Report, Severity};
use genie_cluster::{ClusterState, DevId, GpuSpec, Topology};
use genie_netsim::XorShift64;
use genie_srg::{ElemType, Node, NodeId, OpKind, Phase, Residency, Srg, TensorId, TensorMeta};
use std::collections::{BTreeMap, BTreeSet};

/// Cases in the loop.
const CASES: u64 = 1_500;

/// The codes the three passes write (GA101 reports a device the
/// topology lacks under GA102's code).
const CODES: [LintCode; 4] = [
    LintCode::DeviceOvercommit,
    LintCode::TransferEndpointMismatch,
    LintCode::KvCacheNotColocated,
    LintCode::DoublePinnedBuffer,
];

/// The device of `node` under `plan` (`None`: the client), as the
/// oracles compare placements.
fn device(plan: &ExecutionPlan, node: NodeId) -> Option<DevId> {
    plan.location(node).device()
}

/// One case's topology and hand-built plan (a location per node, and
/// pins); a panic while it is alive names the index.
struct Case {
    index: u64,
    topo: Topology,
    plan: ExecutionPlan,
}

impl Case {
    fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let mut rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut topo = Topology::new();
        let host = topo.add_host("s");
        let devs: Vec<DevId> = (0..2)
            .map(|_| {
                let mem_capacity = (16 + rng.next_below(240)) << 10;
                topo.add_device(
                    host,
                    GpuSpec {
                        mem_capacity,
                        ..GpuSpec::a100_80gb()
                    },
                )
            })
            .collect();

        let n = 2 + rng.next_below(9) as u32;
        let mut srg = Srg::new("oracle");
        for i in 0..n {
            let op = match rng.next_below(4) {
                0 => OpKind::Input,
                1 => OpKind::Parameter,
                2 => OpKind::MatMul,
                _ => OpKind::KvAppend,
            };
            let phase = [Phase::Unknown, Phase::LlmDecode, Phase::LlmPrefill]
                [rng.next_below(3) as usize]
                .clone();
            let mut node = Node::new(NodeId::new(0), op, format!("n{i}")).with_phase(phase);
            if rng.next_below(3) == 0 {
                node = node.with_residency(Residency::StatefulKvCache);
            }
            srg.add_node(node);
        }
        let cyclic = rng.next_below(16) == 0;
        // The tensor each producer's edges carry, once it has one.
        let mut produced: Vec<Option<TensorId>> = vec![None; n as usize];
        for _ in 0..rng.next_below(2 * n as u64) {
            let (a, b) = (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            );
            if a == b || (a > b && !cyclic) {
                continue;
            }
            let (src, dst) = (NodeId::new(a), NodeId::new(b));
            let rows = 1 + rng.next_below(24) as usize;
            let meta = TensorMeta::new([rows, 256], ElemType::F32);
            match produced[a as usize] {
                Some(t) if rng.next_below(2) == 0 => srg.connect_tensor(src, dst, t, meta),
                _ => {
                    let e = srg.connect(src, dst, meta);
                    produced[a as usize] = Some(srg.edge(e).tensor);
                    e
                }
            };
        }

        let placement = |rng: &mut XorShift64| match rng.next_below(3) {
            0 => Location::ClientCpu,
            d => Location::Device(devs[d as usize - 1]),
        };
        let placements = (0..n).map(|_| placement(&mut rng)).collect();
        let tensors: Vec<TensorId> = srg.edges().map(|e| e.tensor).collect();
        let mut pinned: Vec<(TensorId, DevId, u64)> = Vec::new();
        for _ in 0..rng.next_below(6) {
            let tensor = match tensors.len() {
                len @ 1.. if rng.next_below(4) != 0 => tensors[rng.next_below(len as u64) as usize],
                _ => TensorId::new(1_000 + rng.next_below(4)),
            };
            let dev = devs[rng.next_below(2) as usize];
            pinned.push((tensor, dev, rng.next_below(48) << 10));
        }
        // Repeat some pins (with other bytes), each up to twice more, at
        // random positions.
        for _ in 0..rng.next_below(4) {
            if pinned.is_empty() {
                break;
            }
            let (tensor, dev, _) = pinned[rng.next_below(pinned.len() as u64) as usize];
            for _ in 0..1 + rng.next_below(2) {
                let at = rng.next_below(pinned.len() as u64 + 1) as usize;
                pinned.insert(at, (tensor, dev, rng.next_below(48) << 10));
            }
        }
        Case {
            index,
            topo,
            plan: ExecutionPlan {
                policy: "fake".into(),
                srg,
                placements,
                transfers: Vec::new(),
                pinned_uploads: pinned,
                estimate: CostBreakdown::default(),
                diagnostics: Vec::new(),
            },
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

fn value_bytes(srg: &Srg, node: NodeId) -> u64 {
    srg.out_edges(node)
        .map(|e| e.meta.size_bytes() as u64)
        .max()
        .unwrap_or(0)
        .max(srg.node(node).cost.bytes_written as u64)
}

/// GA101 with a `BTreeSet<TensorId>` of pinned tensors.
fn oracle_watermark(
    plan: &ExecutionPlan,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
    report: &mut Report,
) {
    let srg = &plan.srg;
    let mut demand: BTreeMap<DevId, u64> = BTreeMap::new();
    for &(_, dev, bytes) in &plan.pinned_uploads {
        *demand.entry(dev).or_insert(0) += bytes;
    }
    let Ok(flow) = SrgFlow::new(srg) else {
        let mut transient: BTreeMap<DevId, u64> = BTreeMap::new();
        for node in srg.node_ids() {
            if let Some(dev) = device(plan, node) {
                let e = transient.entry(dev).or_insert(0);
                *e = (*e).max(value_bytes(srg, node));
            }
        }
        for (dev, b) in transient {
            *demand.entry(dev).or_insert(0) += b;
        }
        let caveat = " (pessimistic bound: graph is cyclic, liveness unavailable)";
        return judge(demand, Severity::Warn, caveat, topo, state, cfg, report);
    };
    let pinned_tensors: BTreeSet<TensorId> = plan.pinned_uploads.iter().map(|&(t, ..)| t).collect();
    let steps = flow.order().len();
    let mut sweeps: BTreeMap<DevId, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (v, live) in flow.live_ranges().into_iter().enumerate() {
        let node = flow.node_at(v);
        if srg
            .out_edges(node)
            .any(|e| pinned_tensors.contains(&e.tensor))
        {
            continue;
        }
        let bytes = value_bytes(srg, node);
        if bytes == 0 {
            continue;
        }
        let consumers = srg.out_edges(node).map(|e| e.dst);
        let devs: BTreeSet<DevId> = std::iter::once(node)
            .chain(consumers)
            .filter_map(|n| device(plan, n))
            .collect();
        for d in devs {
            let (born, dies) = sweeps
                .entry(d)
                .or_insert_with(|| (vec![0; steps], vec![0; steps]));
            born[*live.start()] += bytes;
            dies[*live.end()] += bytes;
        }
    }
    for (dev, (born, dies)) in sweeps {
        let (mut live, mut peak) = (0u64, 0u64);
        for (b, d) in born.iter().zip(&dies) {
            live += b;
            peak = peak.max(live);
            live -= d;
        }
        *demand.entry(dev).or_insert(0) += peak;
    }
    judge(demand, Severity::Deny, "", topo, state, cfg, report);
}

fn judge(
    demand: BTreeMap<DevId, u64>,
    cap: Severity,
    caveat: &str,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
    report: &mut Report,
) {
    for (dev, required) in demand {
        if dev.0 as usize >= topo.devices().len() {
            report.push(
                cfg,
                LintCode::TransferEndpointMismatch,
                Anchor::Device(dev),
                format!("plan references device {dev} absent from the topology"),
            );
            continue;
        }
        let free = state.mem_free(topo, dev);
        if required > free {
            report.push_capped(
                cfg,
                LintCode::DeviceOvercommit,
                cap,
                Anchor::Device(dev),
                format!("plan needs {required} B on {dev} but only {free} B are free{caveat}"),
            );
        }
    }
}

/// GA104 with a `BTreeSet<(TensorId, DevId)>` of pins.
fn oracle_kv_colocation(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let srg = &plan.srg;
    let pinned: BTreeSet<(TensorId, DevId)> = plan
        .pinned_uploads
        .iter()
        .map(|&(t, dev, _)| (t, dev))
        .collect();
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
        let a = device(plan, edge.src);
        let b = device(plan, edge.dst);
        let resident_at_reader =
            src.op.is_source() && b.is_some_and(|dev| pinned.contains(&(edge.tensor, dev)));
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

/// GA202 with a `BTreeMap<(TensorId, DevId), u64>` of the latest pin.
fn oracle_double_pinning(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let mut seen: BTreeMap<(TensorId, DevId), u64> = BTreeMap::new();
    for &(tensor, dev, bytes) in &plan.pinned_uploads {
        if let Some(prev) = seen.insert((tensor, dev), bytes) {
            report.push(
                cfg,
                LintCode::DoublePinnedBuffer,
                Anchor::Device(dev),
                format!(
                    "tensor {tensor} pinned twice on {dev} ({prev} B and {bytes} B): \
                     the duplicate upload double-counts device memory"
                ),
            );
        }
    }
}

#[test]
fn ga101_ga104_and_ga202_agree_with_their_ordered_set_oracles() {
    let cfg = LintConfig::new();
    let state = ClusterState::new();
    // Cases in which each code fired, plus cases with a triple pin, so
    // the generator provably reaches every branch.
    let mut fired: BTreeMap<String, u64> = BTreeMap::new();
    for index in 0..CASES {
        let case = Case::new(index);
        let got = run_plan_passes(&case.plan, &case.topo, &state, &cfg);
        let mut want = Report::new(case.plan.label());
        oracle_watermark(&case.plan, &case.topo, &state, &cfg, &mut want);
        oracle_kv_colocation(&case.plan, &cfg, &mut want);
        oracle_double_pinning(&case.plan, &cfg, &mut want);
        let want = want.finish();
        for code in CODES {
            assert_eq!(got.with_code(code), want.with_code(code), "{code:?}");
            if !got.with_code(code).is_empty() {
                *fired.entry(format!("{code:?}")).or_default() += 1;
            }
        }
        let (g, pins) = (&case.plan.srg, &case.plan.pinned_uploads);
        let dev = |n: NodeId| device(&case.plan, n);
        if g.edges().any(|e| {
            let src = g.node(e.src);
            src.residency == Residency::StatefulKvCache
                && src.op.is_source()
                && dev(e.src) != dev(e.dst)
                && pins
                    .iter()
                    .any(|p| Some(p.1) == dev(e.dst) && p.0 == e.tensor)
        }) {
            *fired
                .entry("kv cache pinned at its reader".into())
                .or_default() += 1;
        }
        if pins
            .iter()
            .any(|p| pins.iter().filter(|q| (q.0, q.1) == (p.0, p.1)).count() >= 3)
        {
            *fired.entry("triple pin".into()).or_default() += 1;
        }
    }
    for key in [
        "DeviceOvercommit",
        "KvCacheNotColocated",
        "DoublePinnedBuffer",
    ] {
        assert!(fired.get(key).copied().unwrap_or(0) >= 50, "{fired:?}");
    }
    for key in ["triple pin", "kv cache pinned at its reader"] {
        assert!(fired.get(key).copied().unwrap_or(0) >= 20, "{fired:?}");
    }
}
