//! Graph-rewrite pre-pass (§3.3 extension point 1).
//!
//! Rewrites run before placement and return a transformed SRG. The
//! built-in rewrite fuses straight-line elementwise chains into single
//! `Fused` nodes: fewer nodes means fewer kernel launches, fewer
//! scheduling decisions, and no chance of a blind policy splitting a
//! pointwise chain across the network.

use genie_srg::{Edge, Node, NodeId, OpKind, Srg};
use std::collections::BTreeMap;

/// Whether an op is a cheap pointwise candidate for fusion.
fn fusible(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Relu | OpKind::Gelu | OpKind::Silu | OpKind::Add | OpKind::Mul | OpKind::Softmax
    )
}

/// Fuse maximal straight-line chains of pointwise ops (each node with one
/// input edge, one output edge, both fusible). Returns the rewritten graph
/// and the number of nodes eliminated.
pub fn fuse_elementwise_chains(srg: &Srg) -> (Srg, usize) {
    // Identify chain interior: fusible node whose single predecessor is
    // fusible and has out-degree 1.
    let mut absorbed_into: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let order = match genie_srg::traverse::topo_order(srg) {
        Ok(o) => o,
        Err(_) => return (srg.clone(), 0),
    };

    // chain_head[n] = the head node this run starts from.
    let mut chain_head: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for &id in &order {
        let node = srg.node(id);
        if !fusible(&node.op) {
            continue;
        }
        // Single data input from a fusible predecessor with fan-out 1?
        let preds: Vec<_> = srg.in_edges(id).collect();
        if preds.len() == 1 {
            let p = preds[0].src;
            if fusible(&srg.node(p).op) && srg.out_degree(p) == 1 {
                let head = chain_head.get(&p).copied().unwrap_or(p);
                chain_head.insert(id, head);
                absorbed_into.insert(id, head);
                continue;
            }
        }
        chain_head.insert(id, id);
    }

    if absorbed_into.is_empty() {
        return (srg.clone(), 0);
    }

    // Build the rewritten graph: absorbed nodes disappear; their head
    // becomes a Fused node accumulating cost; edges re-route.
    let mut out = Srg::new(srg.name.clone());
    let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();

    // Count absorbed per head and accumulate costs.
    let mut absorbed_count: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut fused_cost: BTreeMap<NodeId, genie_srg::CostHints> = BTreeMap::new();
    for (&node, &head) in &absorbed_into {
        *absorbed_count.entry(head).or_insert(0) += 1;
        let acc = fused_cost.entry(head).or_insert(srg.node(head).cost);
        *acc = acc.combine(&srg.node(node).cost);
    }

    for &id in &order {
        if absorbed_into.contains_key(&id) {
            continue;
        }
        let mut node: Node = srg.node(id).clone();
        if let Some(&count) = absorbed_count.get(&id) {
            node.op = OpKind::Fused(count + 1);
            node.name = format!("fused_{}", node.name).into();
            node.cost = fused_cost[&id];
        }
        let new_id = out.add_node(node);
        remap.insert(id, new_id);
    }

    // The exit of each chain: follow absorbed tail edges to the outside.
    // An edge src is remapped to the head's new id if absorbed.
    let resolve = |id: NodeId| -> NodeId {
        let head = absorbed_into.get(&id).copied().unwrap_or(id);
        remap[&head]
    };
    for edge in srg.edges() {
        // Internal chain edges vanish.
        if absorbed_into.get(&edge.dst).copied()
            == Some(absorbed_into.get(&edge.src).copied().unwrap_or(edge.src))
        {
            continue;
        }
        let mut e: Edge = edge.clone();
        e.src = resolve(edge.src);
        e.dst = resolve(edge.dst);
        out.add_edge(e);
    }

    (out, absorbed_into.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::ElemType;

    #[test]
    fn pointwise_chain_fuses() {
        let ctx = CaptureCtx::new("chain");
        let x = ctx.input("x", [4, 4], ElemType::F32, None);
        let w = ctx.parameter("w", [4, 4], ElemType::F32, None);
        // matmul → relu → gelu → silu: the three activations fuse.
        let y = x.matmul(&w).relu().gelu().silu();
        y.mark_output();
        let srg = ctx.finish().srg;
        let before = srg.node_count();
        let (fused, eliminated) = fuse_elementwise_chains(&srg);
        assert_eq!(eliminated, 2, "gelu and silu absorb into relu");
        assert_eq!(fused.node_count(), before - 2);
        assert!(genie_srg::validate::validate(&fused).is_empty());
        let f = fused
            .nodes()
            .find(|n| matches!(n.op, OpKind::Fused(_)))
            .unwrap();
        assert_eq!(f.op, OpKind::Fused(3));
        // Cost accumulated from all three.
        assert!(f.cost.flops >= 3.0 * 16.0);
    }

    #[test]
    fn fan_out_blocks_fusion() {
        let ctx = CaptureCtx::new("fanout");
        let x = ctx.input("x", [2, 2], ElemType::F32, None);
        let a = x.relu();
        let b = a.gelu(); // a has two consumers → cannot absorb b
        let c = a.silu();
        b.add(&c).mark_output();
        let srg = ctx.finish().srg;
        let (_, eliminated) = fuse_elementwise_chains(&srg);
        assert_eq!(eliminated, 0);
    }

    #[test]
    fn non_pointwise_graph_unchanged() {
        let ctx = CaptureCtx::new("mm");
        let x = ctx.input("x", [2, 2], ElemType::F32, None);
        let w = ctx.parameter("w", [2, 2], ElemType::F32, None);
        x.matmul(&w).mark_output();
        let srg = ctx.finish().srg;
        let (fused, eliminated) = fuse_elementwise_chains(&srg);
        assert_eq!(eliminated, 0);
        assert_eq!(fused.node_count(), srg.node_count());
    }

    #[test]
    fn fused_graph_preserves_connectivity() {
        let ctx = CaptureCtx::new("c");
        let x = ctx.input("x", [2, 2], ElemType::F32, None);
        let y = x.relu().gelu();
        let w = ctx.parameter("w", [2, 2], ElemType::F32, None);
        y.matmul(&w).mark_output();
        let srg = ctx.finish().srg;
        let (fused, _) = fuse_elementwise_chains(&srg);
        // input → fused → matmul, with w → matmul.
        let order = genie_srg::traverse::topo_order(&fused).unwrap();
        assert_eq!(order.len(), fused.node_count());
        let mm = fused.nodes().find(|n| n.op == OpKind::MatMul).unwrap();
        assert_eq!(fused.in_degree(mm.id), 2);
    }
}
