//! Replay-cut computation for lineage-based fault tolerance (§3.5).
//!
//! When remote state is lost (a device fails, a handle's epoch is
//! invalidated), the runtime must recompute exactly the subgraph whose
//! outputs are gone, re-reading only surviving inputs. `replay_cut` computes
//! that minimal subgraph from the SRG — the SRG *is* the lineage.

use crate::graph::Srg;
use crate::ids::NodeId;
use std::collections::BTreeSet;

/// The minimal recomputation plan after losing the outputs of `lost`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayCut {
    /// Nodes that must re-execute, in ascending id order (a valid relative
    /// execution order is obtained by topo-sorting the induced subgraph).
    pub replay: BTreeSet<NodeId>,
    /// Frontier nodes *outside* the replay set whose (surviving) outputs
    /// feed the replay set — the data that must be re-fetched, not
    /// recomputed.
    pub frontier: BTreeSet<NodeId>,
}

/// Compute the replay cut: all lost nodes plus every ancestor whose output
/// is not in `available` (the set of nodes whose outputs survive, e.g.
/// because they are client-side inputs or checkpointed on a healthy
/// device).
///
/// Walks backward from `lost`, stopping at available nodes; those become
/// the frontier.
pub fn replay_cut(g: &Srg, lost: &BTreeSet<NodeId>, available: &BTreeSet<NodeId>) -> ReplayCut {
    let mut replay: BTreeSet<NodeId> = BTreeSet::new();
    let mut frontier: BTreeSet<NodeId> = BTreeSet::new();
    let mut stack: Vec<NodeId> = lost.iter().copied().collect();

    while let Some(n) = stack.pop() {
        if replay.contains(&n) {
            continue;
        }
        if available.contains(&n) && !lost.contains(&n) {
            frontier.insert(n);
            continue;
        }
        replay.insert(n);
        for edge in g.in_edges(n) {
            stack.push(edge.src);
        }
    }

    ReplayCut { replay, frontier }
}

/// Fraction of total graph cost (flops) that the replay cut saves versus
/// re-running the whole graph. This is the headline win of lineage-based
/// recovery over restart.
pub fn replay_savings(g: &Srg, cut: &ReplayCut) -> f64 {
    let total: f64 = g.total_flops();
    if total <= 0.0 {
        return 0.0;
    }
    let replayed: f64 = cut.replay.iter().map(|&n| g.node(n).cost.flops).sum();
    1.0 - replayed / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{CostHints, ElemType, TensorMeta};
    use crate::node::{Node, OpKind};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], ElemType::F32)
    }

    /// input(0) → a(1) → b(2) → c(3) → out(4), with a second input(5) → c.
    fn pipeline() -> Srg {
        let mut g = Srg::new("p");
        let i = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "in"));
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "a")
                .with_cost(CostHints::new(10.0, 0.0, 0.0)),
        );
        let b = g.add_node(
            Node::new(NodeId::new(0), OpKind::Relu, "b").with_cost(CostHints::new(20.0, 0.0, 0.0)),
        );
        let c = g.add_node(
            Node::new(NodeId::new(0), OpKind::Add, "c").with_cost(CostHints::new(30.0, 0.0, 0.0)),
        );
        let o = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        let i2 = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "in2"));
        g.connect(i, a, meta());
        g.connect(a, b, meta());
        g.connect(b, c, meta());
        g.connect(c, o, meta());
        g.connect(i2, c, meta());
        g
    }

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn cut_stops_at_available_nodes() {
        let g = pipeline();
        // Lost: c. Available: b's output survives, inputs survive.
        let cut = replay_cut(&g, &set(&[3]), &set(&[0, 2, 5]));
        assert_eq!(cut.replay, set(&[3]));
        assert_eq!(cut.frontier, set(&[2, 5]));
    }

    #[test]
    fn cut_extends_through_unavailable_ancestors() {
        let g = pipeline();
        // Lost: c. Only raw inputs available → must replay a, b, c.
        let cut = replay_cut(&g, &set(&[3]), &set(&[0, 5]));
        assert_eq!(cut.replay, set(&[1, 2, 3]));
        assert_eq!(cut.frontier, set(&[0, 5]));
    }

    #[test]
    fn lost_node_replays_even_if_listed_available() {
        // A node can be stale-available (old epoch); losing it wins.
        let g = pipeline();
        let cut = replay_cut(&g, &set(&[2]), &set(&[0, 2, 5]));
        assert!(cut.replay.contains(&NodeId::new(2)));
    }

    #[test]
    fn savings_reflect_skipped_flops() {
        let g = pipeline();
        let cut = replay_cut(&g, &set(&[3]), &set(&[0, 2, 5]));
        // total = 60 flops, replayed = 30 → 50% saved.
        let savings = replay_savings(&g, &cut);
        assert!((savings - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_loss_is_a_noop() {
        let g = pipeline();
        let cut = replay_cut(&g, &BTreeSet::new(), &set(&[0, 5]));
        assert!(cut.replay.is_empty());
        assert!(cut.frontier.is_empty());
        assert_eq!(replay_savings(&g, &cut), 1.0);
    }
}
