//! Graph traversal algorithms: topological order, reachability, levels.

use crate::graph::Srg;
use crate::ids::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Error returned when an SRG contains a cycle (and therefore is not a
/// valid dataflow graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleError {
    /// A node known to participate in (or be downstream of) a cycle.
    pub witness: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a cycle through {}", self.witness)
    }
}

impl std::error::Error for CycleError {}

/// Kahn's algorithm. Returns node ids in a deterministic topological order
/// (ties broken by ascending id), or a [`CycleError`].
pub fn topo_order(g: &Srg) -> Result<Vec<NodeId>, CycleError> {
    // When every edge runs from a lower id to a higher one — true of any
    // graph recorded call by call, as a capture is — id order is what
    // the loop below returns: once every lower id is out, a node is
    // ready and the smallest ready one.
    if g.edges().all(|e| e.src < e.dst) {
        return Ok(g.node_ids().collect());
    }
    let n = g.node_count();
    let mut in_deg: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId::new(i as u32))).collect();
    // A min-heap gives deterministic smallest-id-first ordering (a node
    // becomes ready exactly once, so it never holds duplicates).
    let mut ready: BinaryHeap<Reverse<NodeId>> = g
        .node_ids()
        .filter(|&id| in_deg[id.index()] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(next)) = ready.pop() {
        order.push(next);
        for edge in g.out_edges(next) {
            let d = edge.dst;
            in_deg[d.index()] -= 1;
            if in_deg[d.index()] == 0 {
                ready.push(Reverse(d));
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        let witness = g
            .node_ids()
            .find(|&id| in_deg[id.index()] > 0)
            .expect("cycle implies a node with residual in-degree");
        Err(CycleError { witness })
    }
}

/// All nodes reachable from `roots` following edges forward, including the
/// roots themselves.
pub fn descendants(g: &Srg, roots: &[NodeId]) -> BTreeSet<NodeId> {
    let mut seen: BTreeSet<NodeId> = roots.iter().copied().collect();
    let mut queue: VecDeque<NodeId> = roots.iter().copied().collect();
    while let Some(n) = queue.pop_front() {
        for edge in g.out_edges(n) {
            if seen.insert(edge.dst) {
                queue.push_back(edge.dst);
            }
        }
    }
    seen
}

/// Assign each node its longest-path depth from any source (level 0 =
/// sources). Nodes at the same level are mutually independent given all
/// prior levels have run — the basis for the scheduler's parallelism
/// analysis and pipelining.
pub fn levels(g: &Srg) -> Result<Vec<usize>, CycleError> {
    let order = topo_order(g)?;
    let mut level = vec![0usize; g.node_count()];
    for &n in &order {
        for edge in g.out_edges(n) {
            let d = edge.dst.index();
            level[d] = level[d].max(level[n.index()] + 1);
        }
    }
    Ok(level)
}

/// Maximum number of mutually-independent nodes at any level — a cheap
/// upper bound on exploitable operator parallelism.
pub fn max_width(g: &Srg) -> Result<usize, CycleError> {
    let lv = levels(g)?;
    let mut counts = std::collections::HashMap::new();
    for l in lv {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    Ok(counts.values().copied().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, TensorMeta};
    use crate::node::{Node, OpKind};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], ElemType::F32)
    }

    fn chain(n: usize) -> Srg {
        let mut g = Srg::new("chain");
        let mut prev = None;
        for i in 0..n {
            let id = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, format!("n{i}")));
            if let Some(p) = prev {
                g.connect(p, id, meta());
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn topo_of_chain_is_identity() {
        let g = chain(5);
        let order = topo_order(&g).unwrap();
        assert_eq!(order, (0..5).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn topo_respects_edges_not_insertion() {
        // Insert c before b, but wire a→b→c.
        let mut g = Srg::new("ooo");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "c"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        g.connect(a, b, meta());
        g.connect(b, c, meta());
        let order = topo_order(&g).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn cycle_detected() {
        let mut g = chain(3);
        // close the loop 2 → 0
        g.connect(NodeId::new(2), NodeId::new(0), meta());
        let err = topo_order(&g).unwrap_err();
        assert!(err.witness.index() < 3);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn reachability() {
        let g = chain(4);
        let desc = descendants(&g, &[NodeId::new(1)]);
        assert_eq!(
            desc,
            [1, 2, 3]
                .map(NodeId::new)
                .into_iter()
                .collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn levels_and_width_of_diamond() {
        let mut g = Srg::new("d");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        let d = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "d"));
        g.connect(a, b, meta());
        g.connect(a, c, meta());
        g.connect(b, d, meta());
        g.connect(c, d, meta());
        assert_eq!(levels(&g).unwrap(), vec![0, 1, 1, 2]);
        assert_eq!(max_width(&g).unwrap(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = Srg::new("empty");
        assert!(topo_order(&g).unwrap().is_empty());
        assert_eq!(max_width(&g).unwrap(), 0);
    }
}
