//! The Semantically-Rich Graph container.

use crate::annotations::{Phase, TensorMeta};
use crate::edge::Edge;
use crate::ids::{EdgeId, NodeId, TensorId};
use crate::node::Node;
use std::collections::HashMap;
use std::sync::Arc;

/// A Semantically-Rich Graph: a DAG of operations (nodes) connected by data
/// dependencies (edges), each carrying the §3.1 annotation schema.
///
/// The SRG is *declarative*: it specifies what the application intends to
/// compute, not how or where. Schedulers consume it and return a plan that
/// shares it, with device bindings and transfer schedules beside it;
/// backends execute that plan. Nodes and edges are stored in flat vectors
/// indexed by their ids so the whole structure serializes cheaply and
/// deterministically. They are shared copy-on-write: a clone costs a
/// reference count, and the first write to a shared graph copies it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Srg {
    /// Human-readable graph name (e.g. `"gptj.decode.step17"`).
    pub name: String,
    body: Arc<Body>,
    next_tensor: u64,
}

/// What clones of a graph share until one of them writes.
#[derive(Clone, Debug, Default, PartialEq)]
struct Body {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per node, parallel to `nodes`.
    out_adj: Vec<Adj>,
    /// Incoming edge ids per node, parallel to `nodes`.
    in_adj: Vec<Adj>,
}

/// One node's edge ids in ascending order: inline up to three, then on the heap.
#[derive(Clone)]
enum Adj {
    Inline(u8, [EdgeId; 3]),
    Spilled(Vec<EdgeId>),
}

const _: () = assert!(std::mem::size_of::<Adj>() <= std::mem::size_of::<Vec<EdgeId>>());

impl Adj {
    const EMPTY: Adj = Adj::Inline(0, [EdgeId::new(0); 3]);

    #[inline]
    fn as_slice(&self) -> &[EdgeId] {
        match self {
            Adj::Inline(len, ids) => &ids[..*len as usize],
            Adj::Spilled(ids) => ids,
        }
    }

    fn push(&mut self, id: EdgeId) {
        match self {
            Adj::Inline(3, ids) => *self = Adj::Spilled([&ids[..], &[id]].concat()),
            Adj::Inline(len, ids) => {
                ids[*len as usize] = id;
                *len += 1;
            }
            Adj::Spilled(ids) => ids.push(id),
        }
    }

    /// Drop the ids from `edges` on; a spilled list keeps its allocation.
    fn truncate(&mut self, edges: usize) {
        let keep = self.as_slice().partition_point(|e| e.index() < edges);
        match self {
            Adj::Inline(len, _) => *len = keep as u8,
            Adj::Spilled(ids) => ids.truncate(keep),
        }
    }
}

impl PartialEq for Adj {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Adj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Body {
    fn add_node(&mut self, mut node: Node) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        node.id = id;
        self.nodes.push(node);
        self.out_adj.push(Adj::EMPTY);
        self.in_adj.push(Adj::EMPTY);
        id
    }

    fn connect(&mut self, src: NodeId, dst: NodeId, tensor: TensorId, meta: TensorMeta) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src {src} out of bounds");
        assert!(dst.index() < self.nodes.len(), "dst {dst} out of bounds");
        let slot = self.in_adj[dst.index()].as_slice().len() as u8;
        self.add_edge(Edge::new(EdgeId::new(0), src, dst, tensor, meta).with_slot(slot))
    }

    fn add_edge(&mut self, mut edge: Edge) -> EdgeId {
        assert!(edge.src.index() < self.nodes.len());
        assert!(edge.dst.index() < self.nodes.len());
        let id = EdgeId::new(self.edges.len() as u32);
        edge.id = id;
        self.out_adj[edge.src.index()].push(id);
        self.in_adj[edge.dst.index()].push(id);
        self.edges.push(edge);
        id
    }
}

impl Srg {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Srg {
            name: name.into(),
            ..Default::default()
        }
    }

    /// A graph over `nodes` and `edges` as given (ids must match
    /// positions), adjacency rebuilt here. An edge end that names no node
    /// gets no adjacency entry: `validate` reports such an edge, and
    /// nothing else may walk the graph before it has.
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        edges: Vec<Edge>,
        next_tensor: u64,
    ) -> Self {
        let mut out_adj = vec![Adj::EMPTY; nodes.len()];
        let mut in_adj = vec![Adj::EMPTY; nodes.len()];
        for e in &edges {
            if let Some(adj) = out_adj.get_mut(e.src.index()) {
                adj.push(e.id);
            }
            if let Some(adj) = in_adj.get_mut(e.dst.index()) {
                adj.push(e.id);
            }
        }
        let body = Body {
            nodes,
            edges,
            out_adj,
            in_adj,
        };
        Srg {
            name,
            body: Arc::new(body),
            next_tensor,
        }
    }

    /// The one way to write to the body: copies it first if a clone
    /// shares it.
    fn body_mut(&mut self) -> &mut Body {
        Arc::make_mut(&mut self.body)
    }

    /// The id the next [`Srg::fresh_tensor`] will hand out.
    pub(crate) fn next_tensor(&self) -> u64 {
        self.next_tensor
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.body.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.body.edges.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.body.nodes.is_empty()
    }

    /// Append a pre-built node, renumbering its id to the next slot.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.body_mut().add_node(node)
    }

    /// Append a pre-built node fed by `inputs` — `(source, tensor, meta)`
    /// in slot order — as [`Srg::add_node`] then one
    /// [`Srg::connect_tensor`] per input, copying a shared body once.
    pub fn add_node_fed(
        &mut self,
        node: Node,
        inputs: impl IntoIterator<Item = (NodeId, TensorId, TensorMeta)>,
    ) -> NodeId {
        let body = self.body_mut();
        let id = body.add_node(node);
        for (src, tensor, meta) in inputs {
            body.connect(src, id, tensor, meta);
        }
        id
    }

    /// Allocate a fresh logical tensor id.
    pub fn fresh_tensor(&mut self) -> TensorId {
        let id = TensorId::new(self.next_tensor);
        self.next_tensor += 1;
        id
    }

    /// Connect `src → dst` with the given payload metadata, allocating a
    /// fresh tensor id for the value.
    pub fn connect(&mut self, src: NodeId, dst: NodeId, meta: TensorMeta) -> EdgeId {
        let tensor = self.fresh_tensor();
        self.connect_tensor(src, dst, tensor, meta)
    }

    /// Connect `src → dst` carrying an existing logical tensor (fan-out).
    pub fn connect_tensor(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tensor: TensorId,
        meta: TensorMeta,
    ) -> EdgeId {
        self.body_mut().connect(src, dst, tensor, meta)
    }

    /// Add a fully-specified edge (used when splicing graphs). The edge id
    /// is renumbered; adjacency is updated.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        self.next_tensor = self.next_tensor.max(edge.tensor.0 + 1);
        self.body_mut().add_edge(edge)
    }

    /// Cut the graph back to its first `nodes` nodes and first `edges`
    /// edges, as if nothing after them had been added; the next fresh
    /// tensor id becomes `next_tensor`. The kept edges must connect kept
    /// nodes only (true of any prefix of a graph built node by node, each
    /// node's in-edges added with it — what a capture does). Allocations
    /// of the kept part are retained.
    pub fn truncate(&mut self, nodes: usize, edges: usize, next_tensor: u64) {
        let body = self.body_mut();
        body.nodes.truncate(nodes);
        body.in_adj.truncate(nodes);
        body.out_adj.truncate(nodes);
        body.edges.truncate(edges);
        debug_assert!(
            body.edges
                .iter()
                .all(|e| e.src.index() < nodes && e.dst.index() < nodes),
            "kept edges must connect kept nodes"
        );
        for adj in body.out_adj.iter_mut().chain(&mut body.in_adj) {
            adj.truncate(edges);
        }
        self.next_tensor = next_tensor;
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.body.nodes[id.index()]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.body_mut().nodes[id.index()]
    }

    /// Immutable edge access.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.body.edges[id.index()]
    }

    /// Mutable edge access.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.body_mut().edges[id.index()]
    }

    /// All nodes and all edges, mutably, in id order, copying a shared
    /// body once for any number of writes.
    pub fn parts_mut(&mut self) -> (&mut [Node], &mut [Edge]) {
        let body = self.body_mut();
        (&mut body.nodes, &mut body.edges)
    }

    /// Fallible node access.
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.body.nodes.get(id.index())
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.body.nodes.iter()
    }

    /// All node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// All edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.body.edges.iter()
    }

    /// All nodes, mutably (used by annotation passes).
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.body_mut().nodes.iter_mut()
    }

    /// Outgoing edges of a node. This, `in_edges` and the two degrees are
    /// `#[inline]`: other crates' hot loops call them out of line otherwise.
    #[inline]
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.body.out_adj[id.index()]
            .as_slice()
            .iter()
            .map(|e| &self.body.edges[e.index()])
    }

    /// Incoming edges of a node, ordered by destination slot.
    #[inline]
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.body.in_adj[id.index()]
            .as_slice()
            .iter()
            .map(|e| &self.body.edges[e.index()])
    }

    /// Direct predecessors (deduplicated, in slot order).
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        first_of_each(self.in_edges(id).map(|e| e.src))
    }

    /// Direct successors (deduplicated).
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        first_of_each(self.out_edges(id).map(|e| e.dst))
    }

    /// In-degree counted in edges.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.body.in_adj[id.index()].as_slice().len()
    }

    /// Out-degree counted in edges.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.body.out_adj[id.index()].as_slice().len()
    }

    /// Nodes with no incoming edges (graph inputs / parameters).
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Nodes with no outgoing edges (graph outputs).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }

    /// The distinct phases present, in first-appearance order.
    pub fn phases(&self) -> Vec<Phase> {
        let mut out: Vec<Phase> = Vec::new();
        for node in self.nodes() {
            if !out.contains(&node.phase) {
                out.push(node.phase.clone());
            }
        }
        out
    }

    /// Ids of nodes belonging to the given phase.
    pub fn nodes_in_phase(&self, phase: &Phase) -> Vec<NodeId> {
        self.nodes()
            .filter(|n| &n.phase == phase)
            .map(|n| n.id)
            .collect()
    }

    /// Histogram of operator mnemonics, deterministic ordering.
    pub fn op_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for node in self.nodes() {
            *counts.entry(node.op.mnemonic().to_string()).or_default() += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }

    /// Total flops across all nodes.
    pub fn total_flops(&self) -> f64 {
        self.nodes().map(|n| n.cost.flops).sum()
    }
}

/// `ids` without repeats, each at its first place: a scan of the short
/// output, which costs less than a set at a node's degree.
fn first_of_each(ids: impl Iterator<Item = NodeId>) -> Vec<NodeId> {
    let mut out = Vec::new();
    for id in ids {
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::ElemType;
    use crate::node::OpKind;
    use std::collections::BTreeSet;

    fn diamond() -> Srg {
        // a → b, a → c, b → d, c → d
        let mut g = Srg::new("diamond");
        let meta = TensorMeta::new([2, 2], ElemType::F32);
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        let d = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "d"));
        g.connect(a, b, meta.clone());
        g.connect(a, c, meta.clone());
        g.connect(b, d, meta.clone());
        g.connect(c, d, meta);
        g
    }

    #[test]
    fn adjacency_bookkeeping() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let a = NodeId::new(0);
        let d = NodeId::new(3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.successors(a), vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.predecessors(d), vec![NodeId::new(1), NodeId::new(2)]);
    }

    /// One step of building [`hub`]: a relu node, or an edge between
    /// two nodes already there.
    #[derive(Clone, Copy)]
    enum Step {
        Node,
        Edge(u32, u32),
    }

    /// Five sources, a hub fed by all five, then five sinks each fed by
    /// the hub: both of the hub's lists spill.
    const HUB: [Step; 21] = {
        use Step::{Edge as E, Node as N};
        [
            N,
            N,
            N,
            N,
            N,
            N,
            E(0, 5),
            E(1, 5),
            E(2, 5),
            E(3, 5),
            E(4, 5),
            N,
            E(5, 6),
            N,
            E(5, 7),
            N,
            E(5, 8),
            N,
            E(5, 9),
            N,
            E(5, 10),
        ]
    };
    const HUB_ID: NodeId = NodeId::new(5);

    fn play(g: &mut Srg, steps: &[Step]) {
        for &step in steps {
            match step {
                Step::Node => {
                    g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "n"));
                }
                Step::Edge(src, dst) => {
                    let meta = TensorMeta::new([2, 2], ElemType::F32);
                    g.connect(NodeId::new(src), NodeId::new(dst), meta);
                }
            }
        }
    }

    fn hub() -> Srg {
        let mut g = Srg::new("hub");
        play(&mut g, &HUB);
        g
    }

    #[test]
    fn truncate_restores_the_prefix() {
        let meta = TensorMeta::new([2, 2], ElemType::F32);
        let mut prefix = Srg::new("diamond");
        let a = prefix.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = prefix.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "b"));
        let c = prefix.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        prefix.connect(a, b, meta.clone());
        prefix.connect(a, c, meta);

        let mut g = diamond();
        g.truncate(3, 2, 2);
        assert_eq!(g, prefix);
        assert_eq!(g.out_degree(b), 0, "edges into the dropped node are gone");
        // Growing it again gives back the diamond.
        let d = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "d"));
        g.connect(b, d, TensorMeta::new([2, 2], ElemType::F32));
        g.connect(c, d, TensorMeta::new([2, 2], ElemType::F32));
        assert_eq!(g, diamond());

        // A spilled list cut below three and grown again: the hub's
        // in-list after two of its edges, its out-list after two.
        for (cut, ins, outs) in [(8, 2, 0), (15, 5, 2)] {
            let mut prefix = Srg::new("hub");
            play(&mut prefix, &HUB[..cut]);
            let mut g = hub();
            let edges = prefix.edge_count();
            g.truncate(prefix.node_count(), edges, edges as u64);
            assert_eq!(g, prefix, "cut after step {cut}");
            assert_eq!((g.in_degree(HUB_ID), g.out_degree(HUB_ID)), (ins, outs));
            let ids: Vec<EdgeId> = g.in_edges(HUB_ID).map(|e| e.id).collect();
            assert_eq!(ids, (0..ins as u32).map(EdgeId::new).collect::<Vec<_>>());
            play(&mut g, &HUB[cut..]);
            assert_eq!(g, hub(), "regrown after step {cut}");
        }
    }

    #[test]
    fn a_clone_shares_until_written_and_a_write_never_reaches_the_other_copy() {
        const A: NodeId = NodeId::new(0);
        const D: NodeId = HUB_ID;
        fn meta() -> TensorMeta {
            TensorMeta::new([2], ElemType::F32)
        }
        fn relu() -> Node {
            Node::new(A, OpKind::Relu, "e")
        }
        type Write = fn(&mut Srg);
        let writes: [(&str, Write); 10] = [
            ("add_node", |g| {
                g.add_node(relu());
            }),
            ("add_node_fed", |g| {
                g.add_node_fed(relu(), [(D, TensorId::new(9), meta())]);
            }),
            ("connect", |g| {
                g.connect(A, D, meta());
            }),
            ("connect_tensor", |g| {
                g.connect_tensor(A, D, TensorId::new(0), meta());
            }),
            ("add_edge", |g| {
                g.add_edge(g.edge(EdgeId::new(0)).clone());
            }),
            ("truncate", |g| g.truncate(6, 2, 2)),
            ("node_mut", |g| g.node_mut(D).name = "renamed".into()),
            ("edge_mut", |g| g.edge_mut(EdgeId::new(2)).meta = meta()),
            ("nodes_mut", |g| {
                g.nodes_mut().for_each(|n| n.phase = Phase::LlmDecode)
            }),
            ("parts_mut", |g| g.parts_mut().1[0].meta = meta()),
        ];
        let snapshot = hub();
        for (name, write) in writes {
            let original = hub();
            let mut copy = original.clone();
            assert!(Arc::ptr_eq(&original.body, &copy.body), "{name}");
            write(&mut copy);
            assert_ne!(copy, snapshot, "{name} wrote nothing");
            assert_eq!(original, snapshot, "{name} on a clone reached the original");
            let mut original = hub();
            let copy = original.clone();
            write(&mut original);
            assert_eq!(copy, snapshot, "{name} on the original reached a clone");
            // A body nobody else holds is written in place.
            let body = Arc::as_ptr(&original.body);
            write(&mut original);
            assert_eq!(Arc::as_ptr(&original.body), body, "{name} copied");
        }
    }

    #[test]
    fn slots_assigned_in_connection_order() {
        let g = diamond();
        let d = NodeId::new(3);
        let slots: Vec<u8> = g.in_edges(d).map(|e| e.dst_slot).collect();
        assert_eq!(slots, vec![0, 1]);
    }

    #[test]
    fn fan_out_shares_tensor_id() {
        let mut g = Srg::new("fanout");
        let meta = TensorMeta::new([4], ElemType::F32);
        let p = g.add_node(Node::new(NodeId::new(0), OpKind::Parameter, "w"));
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "x"));
        let y = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "y"));
        let t = g.fresh_tensor();
        g.connect_tensor(p, x, t, meta.clone());
        g.connect_tensor(p, y, t, meta);
        let tensors: BTreeSet<TensorId> = g.edges().map(|e| e.tensor).collect();
        assert_eq!(tensors.len(), 1);
    }

    #[test]
    fn phases_in_first_appearance_order() {
        let mut g = diamond();
        g.node_mut(NodeId::new(1)).phase = Phase::LlmPrefill;
        g.node_mut(NodeId::new(2)).phase = Phase::LlmDecode;
        let phases = g.phases();
        assert_eq!(
            phases,
            vec![Phase::Unknown, Phase::LlmPrefill, Phase::LlmDecode]
        );
        assert_eq!(g.nodes_in_phase(&Phase::LlmDecode), vec![NodeId::new(2)]);
    }

    #[test]
    fn op_histogram_sorted() {
        let g = diamond();
        let hist = g.op_histogram();
        assert_eq!(
            hist,
            vec![
                ("add".to_string(), 1),
                ("input".to_string(), 1),
                ("matmul".to_string(), 1),
                ("relu".to_string(), 1),
            ]
        );
    }

    #[test]
    fn graph_json_roundtrip_rebuilds_adjacency() {
        for g in [diamond(), hub()] {
            let back = Srg::from_json(&g.to_json()).unwrap();
            // Equality covers the private adjacency lists too.
            assert_eq!(back, g);
            assert_eq!(
                back.successors(NodeId::new(0)),
                g.successors(NodeId::new(0))
            );
        }
        let back = Srg::from_json(&hub().to_json()).unwrap();
        assert_eq!(
            back.predecessors(HUB_ID),
            (0..5).map(NodeId::new).collect::<Vec<_>>()
        );
        assert_eq!(
            back.successors(HUB_ID),
            (6..11).map(NodeId::new).collect::<Vec<_>>()
        );
    }
}
