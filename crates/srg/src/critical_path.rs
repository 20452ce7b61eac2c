//! Critical-path analysis over cost-annotated SRGs.
//!
//! The scheduler uses the critical path twice: to tag edges with
//! [`Criticality::Critical`](crate::annotations::Criticality) so the
//! backend prioritizes their transfers, and to lower-bound the makespan of
//! any placement.

use crate::annotations::Criticality;
use crate::graph::Srg;
use crate::ids::NodeId;
use crate::traverse::{topo_order, CycleError};

/// Result of a critical-path computation.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Nodes on the longest weighted path, in execution order.
    pub path: Vec<NodeId>,
    /// Total weight along the path (same unit as the weight function).
    pub length: f64,
    /// Earliest-start time per node under infinite parallelism.
    pub earliest_start: Vec<f64>,
}

/// Compute the critical path where each node costs `node_weight(node)` and
/// each edge costs `edge_weight(edge)` (typically estimated compute seconds
/// and transfer seconds respectively).
pub fn critical_path(
    g: &Srg,
    mut node_weight: impl FnMut(&crate::node::Node) -> f64,
    mut edge_weight: impl FnMut(&crate::edge::Edge) -> f64,
) -> Result<CriticalPath, CycleError> {
    let order = topo_order(g)?;
    let n = g.node_count();
    let mut start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];

    for &id in &order {
        let w = node_weight(g.node(id));
        finish[id.index()] = start[id.index()] + w;
        for edge in g.out_edges(id) {
            let arrive = finish[id.index()] + edge_weight(edge);
            let d = edge.dst.index();
            if arrive > start[d] {
                start[d] = arrive;
                pred[d] = Some(id);
            }
        }
    }

    let (end, &length) = match finish
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights must not be NaN"))
    {
        Some(x) => x,
        None => {
            return Ok(CriticalPath {
                path: Vec::new(),
                length: 0.0,
                earliest_start: Vec::new(),
            })
        }
    };

    let mut path = vec![NodeId::new(end as u32)];
    while let Some(p) = pred[path.last().expect("path non-empty").index()] {
        path.push(p);
    }
    path.reverse();

    Ok(CriticalPath {
        path,
        length,
        earliest_start: start,
    })
}

/// Compute the critical path using the SRG's own cost hints: node weight =
/// flops (as a unitless proxy), edge weight = payload bytes scaled by
/// `bytes_per_flop` to express the relative expense of moving versus
/// computing.
pub fn critical_path_by_hints(g: &Srg, bytes_per_flop: f64) -> Result<CriticalPath, CycleError> {
    critical_path(g, |n| n.cost.flops, |e| e.transfer_bytes() * bytes_per_flop)
}

/// Tag every edge whose two ends lie on the critical path as
/// [`Criticality::Critical`](crate::annotations::Criticality::Critical).
pub fn mark_criticality(g: &mut Srg, bytes_per_flop: f64) -> Result<(), CycleError> {
    let cp = critical_path_by_hints(g, bytes_per_flop)?;
    let mut on_path = vec![false; g.node_count()];
    for n in &cp.path {
        on_path[n.index()] = true;
    }
    for e in g.parts_mut().1 {
        if on_path[e.src.index()] && on_path[e.dst.index()] {
            e.criticality = Criticality::Critical;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{CostHints, ElemType, TensorMeta};
    use crate::node::{Node, OpKind};

    fn meta(elems: usize) -> TensorMeta {
        TensorMeta::new([elems], ElemType::F32)
    }

    /// a → b (heavy) → d and a → c (light) → d.
    fn weighted_diamond() -> Srg {
        let mut g = Srg::new("wd");
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "a").with_cost(CostHints::new(1.0, 0.0, 0.0)),
        );
        let b = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "b")
                .with_cost(CostHints::new(100.0, 0.0, 0.0)),
        );
        let c = g.add_node(
            Node::new(NodeId::new(0), OpKind::Relu, "c").with_cost(CostHints::new(1.0, 0.0, 0.0)),
        );
        let d = g.add_node(
            Node::new(NodeId::new(0), OpKind::Add, "d").with_cost(CostHints::new(1.0, 0.0, 0.0)),
        );
        g.connect(a, b, meta(4));
        g.connect(a, c, meta(4));
        g.connect(b, d, meta(4));
        g.connect(c, d, meta(4));
        g
    }

    #[test]
    fn heavy_branch_is_critical() {
        let g = weighted_diamond();
        let cp = critical_path_by_hints(&g, 0.0).unwrap();
        assert_eq!(
            cp.path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(cp.length, 102.0);
    }

    #[test]
    fn edge_weight_can_flip_the_path() {
        let mut g = weighted_diamond();
        // Make the a→b edge enormous so the light branch wins:
        // path cost via b = 1 + 4*4*w + 100 + 1; via c = 1 + 1 + 1.
        let heavy_edge = g.edges().find(|e| e.dst == NodeId::new(1)).unwrap().id;
        g.edge_mut(heavy_edge).meta = meta(1_000_000);
        g.edge_mut(heavy_edge).rate = crate::annotations::Rate::passthrough(4_000_000.0);
        let cp = critical_path_by_hints(&g, 1.0).unwrap();
        assert!(cp.path.contains(&NodeId::new(1)));
        assert!(cp.length > 4_000_000.0);
    }

    #[test]
    fn earliest_start_respects_dependencies() {
        let g = weighted_diamond();
        let cp = critical_path_by_hints(&g, 0.0).unwrap();
        // d starts after b finishes (1 + 100).
        assert_eq!(cp.earliest_start[3], 101.0);
        // c starts after a finishes.
        assert_eq!(cp.earliest_start[2], 1.0);
    }

    #[test]
    fn mark_criticality_tags_path_edges() {
        let mut g = weighted_diamond();
        mark_criticality(&mut g, 0.0).unwrap();
        let crit_edges: Vec<_> = g
            .edges()
            .filter(|e| e.criticality == Criticality::Critical)
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        assert_eq!(crit_edges, vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn empty_graph_has_zero_length() {
        let g = Srg::new("empty");
        let cp = critical_path_by_hints(&g, 1.0).unwrap();
        assert!(cp.path.is_empty());
        assert_eq!(cp.length, 0.0);
    }
}
