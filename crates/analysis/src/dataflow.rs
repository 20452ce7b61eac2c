//! The SRG as a flow: its nodes in one deterministic topological order.
//!
//! The propagating lints in this crate — error intervals (GA3xx) and
//! `Critical` reachability — walk that order once: forward, so each
//! node is evaluated after every producer it reads, or in reverse, after
//! every consumer. An acyclic graph needs nothing more, and
//! [`SrgFlow::new`] refuses a cyclic one. Liveness needs no walk either:
//! over a topological order a value is live on one interval, which
//! [`SrgFlow::live_ranges`] reads off the out-edges directly;
//! `tests/live_ranges_props.rs` holds it to a backward liveness loop.

use genie_srg::traverse::{topo_order, CycleError};
use genie_srg::{NodeId, Srg};
use std::ops::RangeInclusive;

/// An [`Srg`] in its deterministic topological order: vertex `i` is the
/// `i`-th node of that order, so producers precede consumers.
pub struct SrgFlow<'a> {
    srg: &'a Srg,
    order: Vec<NodeId>,
    /// Vertex of each node, indexed by [`NodeId::index`].
    index: Vec<usize>,
}

impl<'a> SrgFlow<'a> {
    /// Build the flow; fails with the witness cycle on a cyclic graph.
    pub fn new(srg: &'a Srg) -> Result<Self, CycleError> {
        let order = topo_order(srg)?;
        let mut index = vec![0; order.len()];
        for (v, n) in order.iter().enumerate() {
            index[n.index()] = v;
        }
        Ok(SrgFlow { srg, order, index })
    }

    /// The node at vertex `i` of the topological order.
    pub fn node_at(&self, i: usize) -> NodeId {
        self.order[i]
    }

    /// The vertex index of a node.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.index.get(node.index()).copied()
    }

    /// The underlying topological order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Read as a schedule that runs vertex `i` at step `i`: the steps
    /// during which each vertex's value is resident, from the step that
    /// produces it through the last step that reads it (only its own
    /// step when nothing does). Entry `v` is vertex `v`'s range.
    pub fn live_ranges(&self) -> Vec<RangeInclusive<usize>> {
        self.order
            .iter()
            .enumerate()
            .map(|(v, &n)| {
                let last = self.srg.out_edges(n).map(|e| self.index[e.dst.index()]);
                v..=last.max().unwrap_or(v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_srg::{ElemType, Node, OpKind, TensorMeta};

    /// `n` nodes `0 → 1 → … → n-1`: vertex `i` of its flow is node `i`.
    fn chain(n: usize) -> Srg {
        let mut g = Srg::new("chain");
        for i in 0..n {
            let id = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, format!("n{i}")));
            if i > 0 {
                g.connect(
                    NodeId::new(i as u32 - 1),
                    id,
                    TensorMeta::new([4], ElemType::F32),
                );
            }
        }
        g
    }

    #[test]
    fn chain_flow_live_ranges() {
        let g = chain(3);
        let t = SrgFlow::new(&g).expect("acyclic");
        assert_eq!(t.live_ranges(), vec![0..=1, 1..=2, 2..=2]);
        assert!(SrgFlow::new(&chain(0)).expect("empty").order().is_empty());
    }

    #[test]
    fn srg_flow_follows_topo_order() {
        let mut g = Srg::new("flow");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        g.connect(a, b, TensorMeta::new([4], ElemType::F32));
        g.connect(b, c, TensorMeta::new([4], ElemType::F32));
        let flow = SrgFlow::new(&g).expect("acyclic");
        assert_eq!(flow.order().len(), 3);
        let ia = flow.index_of(a).unwrap();
        let ic = flow.index_of(c).unwrap();
        assert!(ia < ic, "producer precedes consumer in topo order");
        assert_eq!(flow.node_at(ia), a);
    }
}
