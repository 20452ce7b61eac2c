//! Schedule-timeline safety passes (GA2xx) and GA101's memory watermark.
//!
//! Where `plan_passes` checks each placement/transfer locally, the
//! passes here reason about the plan's *timeline*: the graph's one
//! topological order, built once per gate and shared by the passes,
//! taken as a schedule that runs the `i`-th node at step `i`.
//!
//! - **GA101** asks which values are live at once. A value is live
//!   exactly from the step that produces it through the step of its
//!   last reader ([`SrgFlow::live_ranges`]), so the watermark is one
//!   interval sweep: one pass over the out-edges charges each value's
//!   bytes to the devices that hold it, a per-device difference array
//!   over the steps records where live ranges begin and end, and the
//!   largest running sum is the device's peak — linear in nodes, edges
//!   and steps per charged device.
//! - **GA201** asks in which order a channel delivers its transfers.
//! - **GA202** asks whether a buffer is pinned twice.
//! - **GA203** asks whether the waits-for relation induced by channel
//!   FIFO order plus data dependencies is acyclic: Kahn's algorithm over
//!   dense vertex vectors, nodes first, then transfers.
//! - **GA204** asks whether devices reach blocking collectives in one
//!   consistent order.
//!
//! [`SrgFlow::live_ranges`]: crate::dataflow::SrgFlow::live_ranges

use crate::dataflow::SrgFlow;
use crate::diag::{Anchor, LintCode, LintConfig, Report, Severity};
use crate::plan::{ExecutionPlan, Location, Transfer};
use genie_cluster::{ClusterState, DevId, Topology};
use genie_srg::{NodeId, Srg, TensorId};
use std::collections::{BTreeMap, BTreeSet};

/// The bytes held by a node's output value: the widest outgoing edge,
/// or the node's own write-footprint hint if larger.
fn value_bytes(srg: &Srg, node: NodeId) -> u64 {
    srg.out_edges(node)
        .map(|e| e.meta.size_bytes() as u64)
        .max()
        .unwrap_or(0)
        .max(srg.node(node).cost.bytes_written as u64)
}

/// GA101 — memory watermark: pinned uploads plus the *liveness-based*
/// peak of simultaneously-live values per device must fit in that
/// device's free memory.
///
/// A value is charged only for the steps on which it is live, to the
/// device of its producer and of each consumer, and values that are
/// backed by a pinned upload are left out of the sweep (they are
/// already counted once, on the pinned side). When the graph has no
/// topological order the pessimistic `pinned + largest transient` sum
/// runs instead, capped at warn level.
pub(crate) fn check_memory_watermark(
    plan: &ExecutionPlan,
    flow: Option<&SrgFlow>,
    topo: &Topology,
    state: &ClusterState,
    cfg: &LintConfig,
    report: &mut Report,
) {
    let Some(flow) = flow else {
        check_device_capacity_pessimistic(plan, topo, state, cfg, report);
        return;
    };
    let srg = &plan.srg;
    let mut demand: BTreeMap<DevId, u64> = BTreeMap::new();
    for &(_, dev, bytes) in &plan.pinned_uploads {
        *demand.entry(dev).or_insert(0) += bytes;
    }
    let mut pinned_tensors: Vec<TensorId> = plan.pinned_uploads.iter().map(|&(t, ..)| t).collect();
    pinned_tensors.sort_unstable();

    // Per device, the bytes whose live range begins (`born`) and ends
    // (`dies`) at each step. A value occupies memory on the device that
    // computes it and on the device of every consumer it is copied to;
    // `None` (the client CPU) is not capacity-checked.
    let steps = flow.order().len();
    let mut sweeps: BTreeMap<DevId, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    let mut devs: Vec<DevId> = Vec::new();
    for (v, live) in flow.live_ranges().into_iter().enumerate() {
        let node = flow.node_at(v);
        if srg
            .out_edges(node)
            .any(|e| pinned_tensors.binary_search(&e.tensor).is_ok())
        {
            continue; // backed by a pinned upload, charged once above
        }
        let bytes = value_bytes(srg, node);
        if bytes == 0 {
            continue;
        }
        devs.clear();
        let consumers = srg.out_edges(node).map(|e| e.dst);
        for d in std::iter::once(node)
            .chain(consumers)
            .filter_map(|n| plan.location(n).device())
        {
            if !devs.contains(&d) {
                devs.push(d);
            }
        }
        for &d in &devs {
            let (born, dies) = sweeps
                .entry(d)
                .or_insert_with(|| (vec![0; steps], vec![0; steps]));
            born[*live.start()] += bytes;
            dies[*live.end()] += bytes;
        }
    }
    // High watermark per device: the largest running total of live bytes.
    for (dev, (born, dies)) in sweeps {
        let (mut live, mut peak) = (0u64, 0u64);
        for (b, d) in born.iter().zip(&dies) {
            live += b;
            peak = peak.max(live);
            live -= d;
        }
        *demand.entry(dev).or_insert(0) += peak;
    }
    judge_demand(demand, Severity::Deny, "", topo, state, cfg, report);
}

/// The pre-liveness GA101: pinned uploads plus the single largest
/// transient per device. Pessimistic (ignores live ranges), so findings
/// are capped at [`Severity::Warn`]; used only when the graph is cyclic
/// and no topological timeline exists.
fn check_device_capacity_pessimistic(
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
    let mut transient: BTreeMap<DevId, u64> = BTreeMap::new();
    for node in srg.node_ids() {
        if let Some(dev) = plan.location(node).device() {
            let e = transient.entry(dev).or_insert(0);
            *e = (*e).max(value_bytes(srg, node));
        }
    }
    for (dev, b) in transient {
        *demand.entry(dev).or_insert(0) += b;
    }
    let caveat = " (pessimistic bound: graph is cyclic, liveness unavailable)";
    judge_demand(demand, Severity::Warn, caveat, topo, state, cfg, report);
}

/// GA101's verdict on per-device demand: a device the topology lacks is
/// a GA102 finding, and demand above a device's free memory a GA101
/// finding of at most `cap` severity whose message ends in `caveat`.
fn judge_demand(
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

/// GA201 — transfer ordering: each channel (source, destination pair)
/// delivers its transfers in the order the plan lists them. A transfer
/// queued behind one whose consumer runs *later* in the topological
/// order arrives after its own consumer's start.
pub(crate) fn check_transfer_ordering(
    plan: &ExecutionPlan,
    flow: Option<&SrgFlow>,
    cfg: &LintConfig,
    report: &mut Report,
) {
    let srg = &plan.srg;
    let Some(flow) = flow else {
        return; // no step order to compare against
    };
    let mut channels: BTreeMap<(Location, Location), Vec<&Transfer>> = BTreeMap::new();
    for t in &plan.transfers {
        if t.edge.index() >= srg.edge_count() {
            continue; // GA102 reports dangling edges
        }
        channels.entry((t.from, t.to)).or_default().push(t);
    }
    for ((from, to), list) in channels {
        let mut latest: Option<(usize, genie_srg::EdgeId)> = None;
        for t in list {
            let consumer = srg.edge(t.edge).dst;
            let Some(step) = flow.index_of(consumer) else {
                continue;
            };
            if let Some((blocker_step, blocker)) = latest {
                if step < blocker_step {
                    report.push(
                        cfg,
                        LintCode::TransferOrderHazard,
                        Anchor::Edge(t.edge),
                        format!(
                            "transfer for {} is queued on channel {from}→{to} behind the \
                             transfer for {blocker} whose consumer runs later (step {step} < \
                             step {blocker_step}): FIFO delivery lands it after its \
                             consumer starts",
                            t.edge
                        ),
                    );
                }
            }
            let advance = match latest {
                Some((blocker_step, _)) => step > blocker_step,
                None => true,
            };
            if advance {
                latest = Some((step, t.edge));
            }
        }
    }
}

/// GA202 — double pinning: the same tensor pinned twice onto the same
/// device within one plan double-counts (and double-occupies) device
/// memory.
pub(crate) fn check_double_pinning(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    // Sorted, each (tensor, device)'s pins are a run in plan order.
    let mut pins: Vec<(TensorId, DevId, usize)> = plan
        .pinned_uploads
        .iter()
        .enumerate()
        .map(|(i, &(tensor, dev, _))| (tensor, dev, i))
        .collect();
    pins.sort_unstable();
    let mut repeats: Vec<(usize, u64)> = pins
        .windows(2)
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .map(|w| (w[1].2, plan.pinned_uploads[w[0].2].2))
        .collect();
    repeats.sort_unstable();
    for (i, prev) in repeats {
        let (tensor, dev, bytes) = plan.pinned_uploads[i];
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

/// GA203 — static deadlock: build the waits-for graph over compute
/// steps and transfers (data dependencies, transfer issue/landing, and
/// per-channel FIFO delivery order) and reject plans whose waits-for
/// relation is cyclic — at runtime every participant would block
/// forever on the others.
pub(crate) fn check_transfer_deadlock(plan: &ExecutionPlan, cfg: &LintConfig, report: &mut Report) {
    let srg = &plan.srg;
    let transfers: Vec<&Transfer> = plan
        .transfers
        .iter()
        .filter(|t| t.edge.index() < srg.edge_count())
        .collect();
    if transfers.is_empty() {
        return;
    }
    // Vertex `i < n` is node `i`, vertex `n + k` transfer `k`. Besides
    // the data dependencies (a consumer waits for each of its
    // producers), a transfer waits for its edge's source node and for
    // the previously-issued transfer on its channel (FIFO), and the
    // edge's destination node waits for the transfer to land.
    let n = srg.node_count();
    let total = n + transfers.len();
    let mut indeg: Vec<usize> = srg.node_ids().map(|id| srg.in_degree(id)).collect();
    indeg.resize(total, 0);
    // (source node, transfer vertex), sorted: a node's transfers are a run.
    let mut issued: Vec<(usize, usize)> = Vec::with_capacity(transfers.len());
    let mut next_on_channel: Vec<Option<usize>> = vec![None; transfers.len()];
    let mut channel_last: BTreeMap<(Location, Location), usize> = BTreeMap::new();
    for (k, t) in transfers.iter().enumerate() {
        let edge = srg.edge(t.edge);
        issued.push((edge.src.index(), n + k));
        indeg[n + k] += 1;
        indeg[edge.dst.index()] += 1;
        if let Some(prev) = channel_last.insert((t.from, t.to), k) {
            next_on_channel[prev] = Some(n + k);
            indeg[n + k] += 1;
        }
    }
    issued.sort_unstable();
    let successors = |v: usize, out: &mut Vec<usize>| {
        out.clear();
        if v < n {
            let node = NodeId::new(v as u32);
            out.extend(srg.out_edges(node).map(|e| e.dst.index()));
            let run = &issued[issued.partition_point(|&(s, _)| s < v)..];
            out.extend(run.iter().take_while(|&&(s, _)| s == v).map(|&(_, t)| t));
        } else {
            out.push(srg.edge(transfers[v - n].edge).dst.index());
            out.extend(next_on_channel[v - n]);
        }
    };
    // Kahn's algorithm; anything left unprocessed sits on or behind a
    // waits-for cycle.
    let mut ready: Vec<usize> = (0..total).filter(|&v| indeg[v] == 0).collect();
    let mut processed = 0usize;
    let mut succs = Vec::new();
    while let Some(v) = ready.pop() {
        processed += 1;
        successors(v, &mut succs);
        for &s in &succs {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if processed == total {
        return;
    }
    // Trim downstream tails so the witness names only the cycle core:
    // repeatedly drop leftovers with no leftover successor.
    let mut leftover: Vec<bool> = indeg.iter().map(|&d| d > 0).collect();
    loop {
        let tail: Vec<usize> = (0..total)
            .filter(|&v| {
                leftover[v] && {
                    successors(v, &mut succs);
                    succs.iter().all(|&s| !leftover[s])
                }
            })
            .collect();
        if tail.is_empty() {
            break;
        }
        for v in tail {
            leftover[v] = false;
        }
    }
    let involved: Vec<&Transfer> = (n..total)
        .filter(|&v| leftover[v])
        .map(|v| transfers[v - n])
        .collect();
    let Some(first) = involved.first() else {
        return; // a cycle purely in the SRG is a graph-level problem
    };
    let names: Vec<String> = involved.iter().map(|t| t.edge.to_string()).collect();
    report.push(
        cfg,
        LintCode::TransferDependencyCycle,
        Anchor::Edge(first.edge),
        format!(
            "transfer dependency cycle: channel FIFO order contradicts data \
             dependencies (transfers for {} wait on each other)",
            names.join(", ")
        ),
    );
}

/// GA204 — collective schedule cycle: blocking collectives (all_reduce /
/// all_gather / send_activation) must be reached by every participating
/// device in one consistent global order.
///
/// A device participates in a collective when it produces one of the
/// collective's inputs; it reaches the collective once its *last* such
/// producer has run, so the device's participation order is the
/// collectives sorted by the maximum topological index of its producers.
/// If device A reaches `c1` before `c2` while device B reaches `c2`
/// before `c1`, each blocks in a collective the other has not entered —
/// the NCCL-style deadlock GA203 cannot see because no single transfer
/// channel is involved. The waits-for graph over collectives (one edge
/// per consecutive pair in each device's order) must be acyclic.
pub(crate) fn check_collective_deadlock(
    plan: &ExecutionPlan,
    flow: Option<&SrgFlow>,
    cfg: &LintConfig,
    report: &mut Report,
) {
    let srg = &plan.srg;
    let collectives: Vec<NodeId> = srg
        .nodes()
        .filter(|n| {
            matches!(
                n.op,
                genie_srg::OpKind::AllReduce
                    | genie_srg::OpKind::AllGather
                    | genie_srg::OpKind::SendActivation
            )
        })
        .map(|n| n.id)
        .collect();
    if collectives.len() < 2 {
        return;
    }
    let Some(flow) = flow else {
        return; // cyclic SRG: GA203 / graph passes own that finding
    };
    let index: BTreeMap<NodeId, usize> = collectives
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();

    // Per device: (reach step, collective) for every collective the
    // device feeds.
    let mut orders: BTreeMap<DevId, Vec<(usize, usize)>> = BTreeMap::new();
    for (&c, &ci) in &index {
        let mut reach: BTreeMap<DevId, usize> = BTreeMap::new();
        for e in srg.in_edges(c) {
            let Some(dev) = plan.location(e.src).device() else {
                continue;
            };
            let Some(step) = flow.index_of(e.src) else {
                continue;
            };
            let r = reach.entry(dev).or_insert(step);
            *r = (*r).max(step);
        }
        for (dev, step) in reach {
            orders.entry(dev).or_default().push((step, ci));
        }
    }

    // Waits-for edges between consecutive collectives per device.
    let n = collectives.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    let mut blamed_dev: BTreeMap<(usize, usize), DevId> = BTreeMap::new();
    for (dev, mut list) in orders {
        list.sort();
        for pair in list.windows(2) {
            let (a, b) = (pair[0].1, pair[1].1);
            if a != b {
                succs[a].push(b);
                indeg[b] += 1;
                blamed_dev.entry((a, b)).or_insert(dev);
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut processed = 0usize;
    while let Some(v) = ready.pop() {
        processed += 1;
        for &s in &succs[v] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if processed == n {
        return;
    }
    let leftover: Vec<usize> = (0..n).filter(|&v| indeg[v] > 0).collect();
    let names: Vec<&str> = leftover
        .iter()
        .map(|&v| srg.node(collectives[v]).name.as_str())
        .collect();
    let devs: BTreeSet<DevId> = blamed_dev
        .iter()
        .filter(|((a, b), _)| leftover.contains(a) && leftover.contains(b))
        .map(|(_, &d)| d)
        .collect();
    let devs: Vec<String> = devs.iter().map(|d| d.to_string()).collect();
    report.push(
        cfg,
        LintCode::CollectiveScheduleCycle,
        Anchor::Node(collectives[leftover[0]]),
        format!(
            "collective schedule cycle: devices [{}] reach collectives [{}] in \
             contradictory orders — each would block in a collective another \
             device has not entered",
            devs.join(", "),
            names.join(", ")
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CostBreakdown;
    use genie_cluster::GpuSpec;
    use genie_srg::{EdgeId, ElemType, Node, OpKind, Residency, TensorMeta};

    const CLIENT: Location = Location::ClientCpu;

    /// A hand-built plan: `placements` per node index, nothing moved.
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

    fn two_dev_topo(mem_capacity: u64) -> (Topology, Location, Location) {
        let mut t = Topology::new();
        let h = t.add_host("s");
        let spec = GpuSpec {
            mem_capacity,
            ..GpuSpec::a100_80gb()
        };
        let d0 = t.add_device(h, spec.clone());
        let d1 = t.add_device(h, spec);
        (t, Location::Device(d0), Location::Device(d1))
    }

    fn xfer(edge: EdgeId, tensor: u64, from: Location, to: Location) -> Transfer {
        Transfer {
            edge,
            tensor: TensorId::new(tensor),
            from,
            to,
            bytes: 64,
            via_handle: false,
        }
    }

    /// A chain `a → b → c` where each value dies as soon as its consumer
    /// runs: the liveness watermark is one value + its consumer's
    /// output, never the sum of all three.
    #[test]
    fn watermark_uses_live_ranges_not_sum() {
        let mut g = Srg::new("chain");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        let m = TensorMeta::new([250, 1000], ElemType::F32); // 1 MB each
        g.connect(a, b, m.clone());
        g.connect(b, c, m.clone());
        let d = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "d"));
        g.connect(c, d, m);

        // 2.5 MB device: any two adjacent 1 MB values fit, all three
        // would not. The liveness peak (2 MB: a value plus its
        // consumer's output) fits, while a naive all-values sum (3 MB)
        // would not.
        let (topo, d0, _) = two_dev_topo(2_500_000);
        let plan = plan(g, vec![d0; 4]);
        let state = ClusterState::new();
        let mut r = Report::new("t");
        check_memory_watermark(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &topo,
            &state,
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        assert!(
            r.with_code(LintCode::DeviceOvercommit).is_empty(),
            "live ranges never overlap more than 2 MB: {r}"
        );
    }

    #[test]
    fn watermark_counts_overlapping_lives() {
        // A fan-out where `a` stays live across both consumers: peak is
        // a + b + c alive together at step c.
        let mut g = Srg::new("fan");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "c"));
        let m = TensorMeta::new([250, 1000], ElemType::F32); // 1 MB each
        g.connect(a, b, m.clone());
        g.connect(a, c, m.clone());
        g.connect(b, c, m.clone());
        let d = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "d"));
        g.connect(c, d, m);

        let (topo, d0, _) = two_dev_topo(2_500_000);
        let plan = plan(g, vec![d0; 4]);
        let state = ClusterState::new();
        let mut r = Report::new("t");
        check_memory_watermark(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &topo,
            &state,
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        let hits = r.with_code(LintCode::DeviceOvercommit);
        assert_eq!(hits.len(), 1, "a+b+c live together = 3 MB > 2.5 MB: {r}");
        assert!(hits[0].message.contains("only 2500000 B are free"), "{r}");
    }

    /// The GA101 pessimism fix: the old sum double-counted a pinned
    /// weight — once as a pinned upload and again as the producing
    /// node's transient — and flagged plans that actually fit.
    #[test]
    fn pinned_backed_value_not_double_counted() {
        let mut g = Srg::new("pin");
        let w = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        let e = g.connect(w, mm, TensorMeta::new([1000, 2000], ElemType::F32)); // 8 MB
        let tensor = g.edge(e).tensor;

        // 10 MB free: pinned 8 MB fits; the old 8 MB + 8 MB = 16 MB
        // double count would have flagged it.
        let (topo, d0, _) = two_dev_topo(10_000_000);
        let plan = ExecutionPlan {
            pinned_uploads: vec![(tensor, d0.device().unwrap(), 8_000_000)],
            ..plan(g, vec![d0; 2])
        };
        let state = ClusterState::new();

        let mut old = Report::new("old");
        check_device_capacity_pessimistic(&plan, &topo, &state, &LintConfig::new(), &mut old);
        assert_eq!(
            old.finish().with_code(LintCode::DeviceOvercommit).len(),
            1,
            "the pessimistic sum double-counts the pinned weight"
        );

        let mut new = Report::new("new");
        check_memory_watermark(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &topo,
            &state,
            &LintConfig::new(),
            &mut new,
        );
        let new = new.finish();
        assert!(
            new.with_code(LintCode::DeviceOvercommit).is_empty(),
            "liveness charges the pinned weight once: {new}"
        );
    }

    #[test]
    fn cyclic_graph_falls_back_to_warn_level_sum() {
        let mut g = Srg::new("cyc");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let m = TensorMeta::new([250, 1000], ElemType::F32);
        g.connect(a, b, m.clone());
        g.connect(b, a, m); // cycle: no topological timeline
        let (topo, d0, _) = two_dev_topo(500_000); // 0.5 MB: 1 MB transient overcommits
        let plan = plan(g, vec![d0; 2]);
        let state = ClusterState::new();
        let mut r = Report::new("t");
        check_memory_watermark(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &topo,
            &state,
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        let hits = r.with_code(LintCode::DeviceOvercommit);
        assert_eq!(hits.len(), 1, "{r}");
        assert_eq!(hits[0].severity, Severity::Warn, "fallback is warn-capped");
        assert!(!r.has_deny());
    }

    fn ordering_fixture() -> (Srg, EdgeId, EdgeId) {
        // a → early (consumed at step 1), a → late-chain (consumed last);
        // nodes a, early, mid, late.
        let mut g = Srg::new("ord");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let early = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "early"));
        let mid = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "mid"));
        let late = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "late"));
        let m = TensorMeta::new([4, 4], ElemType::F32);
        let e_early = g.connect(a, early, m.clone());
        g.connect(early, mid, m.clone());
        g.connect(mid, late, m.clone());
        let e_late = g.connect(a, late, m);
        (g, e_early, e_late)
    }

    #[test]
    fn ga201_inverted_channel_order_flagged() {
        let (g, e_early, e_late) = ordering_fixture();
        let (topo, d0, _) = two_dev_topo(80_000_000_000);
        let _ = topo;
        // Channel client→d0 lists the late consumer's transfer FIRST:
        // FIFO delivery parks the early consumer's payload behind it.
        let plan = ExecutionPlan {
            transfers: vec![xfer(e_late, 1, CLIENT, d0), xfer(e_early, 0, CLIENT, d0)],
            ..plan(g, vec![CLIENT, d0, CLIENT, d0])
        };
        let mut r = Report::new("t");
        check_transfer_ordering(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        let hits = r.with_code(LintCode::TransferOrderHazard);
        assert_eq!(hits.len(), 1, "{r}");
        assert_eq!(hits[0].anchor, Anchor::Edge(e_early), "{r}");
        assert!(r.has_deny());
    }

    #[test]
    fn ga201_consumer_order_is_clean() {
        let (g, e_early, e_late) = ordering_fixture();
        let (_, d0, _) = two_dev_topo(80_000_000_000);
        let plan = ExecutionPlan {
            transfers: vec![xfer(e_early, 0, CLIENT, d0), xfer(e_late, 1, CLIENT, d0)],
            ..plan(g, vec![CLIENT, d0, CLIENT, d0])
        };
        let mut r = Report::new("t");
        check_transfer_ordering(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &LintConfig::new(),
            &mut r,
        );
        assert!(r
            .finish()
            .with_code(LintCode::TransferOrderHazard)
            .is_empty());
    }

    #[test]
    fn ga202_in_plan_double_pin_denied() {
        let (g, ..) = ordering_fixture();
        let (_, d0, _) = two_dev_topo(80_000_000_000);
        let d0 = d0.device().unwrap();
        let plan = ExecutionPlan {
            pinned_uploads: vec![(TensorId::new(7), d0, 1024), (TensorId::new(7), d0, 1024)],
            ..plan(g, Vec::new())
        };
        let mut r = Report::new("t");
        check_double_pinning(&plan, &LintConfig::new(), &mut r);
        let r = r.finish();
        assert_eq!(r.with_code(LintCode::DoublePinnedBuffer).len(), 1, "{r}");
        assert!(r.has_deny());
    }

    #[test]
    fn ga203_fifo_against_dataflow_deadlocks() {
        // x → y (cross-device, e2), y → z local, z → w (cross-device,
        // e1). Listing e1's transfer before e2's on the same channel
        // makes e2 wait behind e1, but e1's source z needs e2's payload
        // first: a waits-for cycle.
        let mut g = Srg::new("dl");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let y = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "y"));
        let z = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "z"));
        let w = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "w"));
        let m = TensorMeta::new([4, 4], ElemType::F32);
        let e2 = g.connect(x, y, m.clone());
        g.connect(y, z, m.clone());
        let e1 = g.connect(z, w, m);
        let (_, d0, d1) = two_dev_topo(80_000_000_000);
        let plan = ExecutionPlan {
            // Both transfers share one declared channel (d0→d1), FIFO
            // order [e1, e2]: e2 waits behind e1, while e1's source z
            // transitively needs e2's payload.
            transfers: vec![xfer(e1, 2, d0, d1), xfer(e2, 0, d0, d1)],
            ..plan(g, vec![d0, d1, d1, d0])
        };
        let mut r = Report::new("t");
        check_transfer_deadlock(&plan, &LintConfig::new(), &mut r);
        let r = r.finish();
        let hits = r.with_code(LintCode::TransferDependencyCycle);
        assert_eq!(hits.len(), 1, "{r}");
        assert!(r.has_deny());
        assert!(hits[0].message.contains("cycle"), "{r}");
    }

    #[test]
    fn ga203_consistent_order_is_clean() {
        let mut g = Srg::new("dl-ok");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let y = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "y"));
        let z = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "z"));
        let w = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "w"));
        let m = TensorMeta::new([4, 4], ElemType::F32);
        let e2 = g.connect(x, y, m.clone());
        g.connect(y, z, m.clone());
        let e1 = g.connect(z, w, m);
        let (_, d0, d1) = two_dev_topo(80_000_000_000);
        let plan = ExecutionPlan {
            transfers: vec![xfer(e2, 0, d0, d1), xfer(e1, 2, d0, d1)],
            ..plan(g, vec![d0, d1, d1, d0])
        };
        let mut r = Report::new("t");
        check_transfer_deadlock(&plan, &LintConfig::new(), &mut r);
        assert!(r
            .finish()
            .with_code(LintCode::TransferDependencyCycle)
            .is_empty());
    }

    /// Two collectives whose producers land on two devices in
    /// contradictory orders: d0 reaches c1 early and c2 late, d1 reaches
    /// c2 early and c1 late — each device blocks in a collective the
    /// other has not entered.
    fn collective_fixture(contradictory: bool) -> ExecutionPlan {
        let mut g = Srg::new("coll");
        let m = TensorMeta::new([4, 4], ElemType::F32);
        let p0 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "p0")); // d0 early
        let p1 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "p1")); // d1 early
        let q0 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "q0")); // d0 late
        let q1 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "q1")); // d1 late
        let c1 = g.add_node(Node::new(NodeId::new(0), OpKind::AllReduce, "c1"));
        let c2 = g.add_node(Node::new(NodeId::new(0), OpKind::AllReduce, "c2"));
        g.connect(p0, c1, m.clone());
        g.connect(p1, c2, m.clone());
        if contradictory {
            // c1 also needs d1's LATE producer, c2 also needs d0's late.
            g.connect(q1, c1, m.clone());
            g.connect(q0, c2, m.clone());
        } else {
            // Both devices reach c1 early and c2 late: consistent.
            g.connect(p1, c1, m.clone());
            g.connect(q1, c2, m.clone());
            g.connect(q0, c2, m.clone());
        }
        let (_, d0, d1) = two_dev_topo(80_000_000_000);
        // p0, p1, q0, q1, c1, c2.
        plan(g, vec![d0, d1, d0, d1, d0, d1])
    }

    #[test]
    fn ga204_contradictory_collective_orders_denied() {
        let plan = collective_fixture(true);
        let mut r = Report::new("t");
        check_collective_deadlock(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        let hits = r.with_code(LintCode::CollectiveScheduleCycle);
        assert_eq!(hits.len(), 1, "{r}");
        assert!(r.has_deny());
        assert!(hits[0].message.contains("contradictory orders"), "{r}");
    }

    #[test]
    fn ga204_consistent_collective_order_is_clean() {
        let plan = collective_fixture(false);
        let mut r = Report::new("t");
        check_collective_deadlock(
            &plan,
            SrgFlow::new(&plan.srg).ok().as_ref(),
            &LintConfig::new(),
            &mut r,
        );
        assert!(r
            .finish()
            .with_code(LintCode::CollectiveScheduleCycle)
            .is_empty());
    }
}
