//! `validate` and `mark_criticality` read their scratch state by dense
//! index and from sorted vectors; the oracles here are the ordered-map
//! versions they replaced, kept verbatim. A seeded loop builds random
//! graphs with duplicate slots (high slot numbers included), tensors
//! produced by two nodes, cycles, empty payloads, dangling edges and
//! fan-in and fan-out above three, and both functions must agree with
//! their oracle exactly: the same errors in the same order, the same
//! edges tagged.

use genie::srg::critical_path::{critical_path_by_hints, mark_criticality};
use genie::srg::json::Value;
use genie::srg::traverse::topo_order;
use genie::srg::validate::{validate, ValidationError};
use genie::srg::{
    CostHints, Criticality, Edge, EdgeId, ElemType, Node, NodeId, OpKind, Residency, Srg, TensorId,
    TensorMeta,
};
use std::collections::{BTreeMap, BTreeSet};

/// Cases in the loop.
const CASES: u64 = 3_000;

/// SplitMix64: a case is a function of its index alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// Case `index`'s graph: up to a dozen nodes and thirty edges, most of
/// them forward, each case with a hub that most edges touch.
fn random_graph(index: u64) -> Srg {
    let mut rng = SplitMix(index);
    let mut g = Srg::new(format!("case{index}"));
    let n = 1 + rng.below(12) as u32;
    for i in 0..n {
        let op = match rng.below(5) {
            0 => OpKind::Input,
            1 => OpKind::Parameter,
            2 => OpKind::MatMul,
            3 => OpKind::Reshape,
            _ => OpKind::Add,
        };
        let mut node = Node::new(NodeId::new(0), op, format!("n{i}")).with_cost(CostHints::new(
            rng.below(100) as f64,
            0.0,
            0.0,
        ));
        if rng.one_in(6) {
            node = node.with_residency(Residency::StatefulKvCache);
        }
        g.add_node(node);
    }
    let hub = rng.below(n as u64) as u32;
    let mut tensors: Vec<TensorId> = Vec::new();
    for _ in 0..rng.below(31) {
        let mut ends = [rng.below(n as u64) as u32, rng.below(n as u64) as u32];
        if rng.one_in(2) {
            ends[rng.below(2) as usize] = hub;
        }
        if ends[0] == ends[1] && !rng.one_in(8) {
            continue; // a self-loop: a cycle, but not every case's
        }
        if ends[0] > ends[1] && !rng.one_in(10) {
            ends.swap(0, 1); // one back edge in ten closes a cycle
        }
        let (src, dst) = (NodeId::new(ends[0]), NodeId::new(ends[1]));
        let tensor = match tensors.len() {
            len @ 1.. if rng.one_in(6) => tensors[rng.below(len as u64) as usize],
            _ => g.fresh_tensor(),
        };
        tensors.push(tensor);
        let dims = if rng.one_in(10) { [0, 4] } else { [2, 4] };
        let meta = TensorMeta::new(dims, ElemType::F32);
        let slot = match rng.below(8) {
            0 => [0, 1, 63, 64, 127, 128, 200, 255][rng.below(8) as usize],
            1 => rng.below(3) as u8,
            _ => g.in_degree(dst) as u8,
        };
        g.add_edge(Edge::new(EdgeId::new(0), src, dst, tensor, meta).with_slot(slot));
    }
    if g.edge_count() > 0 && rng.one_in(8) {
        g = with_dangling_edges(&g, &mut rng);
    }
    g
}

/// `g` with one or two edge ends pointed past the last node, through
/// its JSON form: nothing else builds such a graph.
fn with_dangling_edges(g: &Srg, rng: &mut SplitMix) -> Srg {
    let mut doc = g.to_json();
    let Value::Object(members) = &mut doc else {
        panic!("a graph document is an object");
    };
    let (_, Value::Array(edges)) = members
        .iter_mut()
        .find(|(k, _)| k == "edges")
        .expect("edges")
    else {
        panic!("edges is an array");
    };
    for _ in 0..1 + rng.below(2) {
        let i = rng.below(edges.len() as u64) as usize;
        let Value::Object(edge) = &mut edges[i] else {
            panic!("an edge is an object");
        };
        let end = if rng.one_in(2) { "src" } else { "dst" };
        let (_, v) = edge.iter_mut().find(|(k, _)| k == end).expect("end");
        *v = (g.node_count() as u64 + rng.below(3)).into();
    }
    Srg::from_json(&doc).expect("a dangling edge still loads")
}

/// The ordered-map `validate`, as it was before it read dense scratch.
fn oracle_validate(g: &Srg) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    for edge in g.edges() {
        if edge.src.index() >= g.node_count() || edge.dst.index() >= g.node_count() {
            errors.push(ValidationError::DanglingEdge {
                edge: edge.id,
                src: edge.src,
                dst: edge.dst,
            });
        }
    }
    if !errors.is_empty() {
        return errors;
    }
    if let Err(e) = topo_order(g) {
        errors.push(ValidationError::Cycle { witness: e.witness });
    }
    for node in g.nodes() {
        let in_deg = g.in_degree(node.id);
        if node.op.is_source() && in_deg > 0 {
            errors.push(ValidationError::SourceWithInputs { node: node.id });
        }
        if !node.op.is_source() && in_deg == 0 {
            errors.push(ValidationError::OrphanCompute { node: node.id });
        }
        let mut slots_seen = BTreeSet::new();
        for edge in g.in_edges(node.id) {
            if !slots_seen.insert(edge.dst_slot) {
                errors.push(ValidationError::DuplicateSlot {
                    node: node.id,
                    slot: edge.dst_slot,
                });
            }
        }
    }
    for edge in g.edges() {
        let src_node = g.node(edge.src);
        let is_cache_seed = src_node.residency == Residency::StatefulKvCache;
        if edge.meta.size_bytes() == 0 && !src_node.op.is_metadata_only() && !is_cache_seed {
            errors.push(ValidationError::EmptyPayload {
                src: edge.src,
                dst: edge.dst,
            });
        }
    }
    let mut producer: BTreeMap<TensorId, NodeId> = BTreeMap::new();
    for edge in g.edges() {
        match producer.get(&edge.tensor) {
            Some(&p) if p != edge.src => {
                errors.push(ValidationError::TensorMultiplyProduced {
                    first: p,
                    second: edge.src,
                });
            }
            _ => {
                producer.insert(edge.tensor, edge.src);
            }
        }
    }
    errors
}

/// The ordered-set `mark_criticality`, as it was before it read a
/// `Vec<bool>`.
fn oracle_mark_criticality(g: &mut Srg, bytes_per_flop: f64) -> bool {
    let Ok(cp) = critical_path_by_hints(g, bytes_per_flop) else {
        return false;
    };
    let on_path: BTreeSet<NodeId> = cp.path.iter().copied().collect();
    for e in g.parts_mut().1 {
        if on_path.contains(&e.src) && on_path.contains(&e.dst) {
            e.criticality = Criticality::Critical;
        }
    }
    true
}

fn criticality(g: &Srg) -> Vec<Criticality> {
    g.edges().map(|e| e.criticality).collect()
}

#[test]
fn validate_and_mark_criticality_agree_with_their_ordered_map_oracles() {
    // How often each kind of error (and a wide node) was seen, so the
    // generator provably reaches every branch.
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for index in 0..CASES {
        let g = random_graph(index);
        let errors = validate(&g);
        assert_eq!(errors, oracle_validate(&g), "failing case: {index}");
        for e in &errors {
            let kind = match e {
                ValidationError::DanglingEdge { .. } => "dangling",
                ValidationError::Cycle { .. } => "cycle",
                ValidationError::SourceWithInputs { .. } => "source with inputs",
                ValidationError::OrphanCompute { .. } => "orphan",
                ValidationError::DuplicateSlot { slot: 64.., .. } => "duplicate high slot",
                ValidationError::DuplicateSlot { .. } => "duplicate slot",
                ValidationError::EmptyPayload { .. } => "empty payload",
                ValidationError::TensorMultiplyProduced { .. } => "two producers",
            };
            *seen.entry(kind).or_default() += 1;
        }
        if matches!(errors.first(), Some(ValidationError::DanglingEdge { .. })) {
            continue; // criticality indexes edge ends freely
        }
        if g.node_ids()
            .any(|n| g.in_degree(n) > 3 && g.out_degree(n) > 3)
        {
            *seen.entry("fan-in and fan-out above three").or_default() += 1;
        }
        let bytes_per_flop = [0.0, 1e-3, 1.0][(index % 3) as usize];
        let (mut got, mut want) = (g.clone(), g);
        let ok = mark_criticality(&mut got, bytes_per_flop).is_ok();
        assert_eq!(
            ok,
            oracle_mark_criticality(&mut want, bytes_per_flop),
            "failing case: {index}"
        );
        assert_eq!(
            criticality(&got),
            criticality(&want),
            "failing case: {index}"
        );
        if ok && got.edges().any(|e| e.criticality == Criticality::Critical) {
            *seen.entry("critical edges").or_default() += 1;
        }
    }
    for kind in [
        "dangling",
        "cycle",
        "source with inputs",
        "orphan",
        "duplicate high slot",
        "duplicate slot",
        "empty payload",
        "two producers",
        "fan-in and fan-out above three",
        "critical edges",
    ] {
        assert!(
            seen.get(kind).copied().unwrap_or(0) >= 20,
            "{kind}: {seen:?}"
        );
    }
}
