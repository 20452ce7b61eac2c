//! Sharding planner over the SRG: partition a captured graph into
//! pipeline stages × tensor-parallel ranks, then splice first-class
//! collective nodes onto every cut edge.
//!
//! This is the graph-level half of multi-device execution, the natural
//! companion to [`crate::cut`]: where `replay_cut` walks *backward* from
//! lost state, the planner walks *forward* over a [`ShardSpec`],
//! producing (a) a total assignment of nodes to shards, (b) the set of
//! edges the assignment cuts, and (c) a [`ShardedGraph`] in which each
//! cut edge `src → dst` is re-routed `src → collective → dst`. The
//! collective kind is chosen from the producer's tensor-parallel
//! annotations: a partial-sum producer gets an [`OpKind::AllReduce`], a
//! sliced producer an [`OpKind::AllGather`], and everything else a
//! point-to-point [`OpKind::SendActivation`]. The scheduler then places
//! shards on distinct devices and the spliced collectives become real
//! link traffic priced by the cost model.
//!
//! The transformation is exactly invertible: [`recompose`] strips the
//! collectives and restores the original topology bit-for-bit
//! (`cut_props.rs` pins cover-exactly-once, cut-edges ≡ collectives,
//! and the round trip as properties).

use crate::annotations::Residency;
use crate::graph::Srg;
use crate::ids::{EdgeId, NodeId};
use crate::node::{Node, OpKind};
use crate::traverse::topo_order;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How to shard a model: `pipeline_stages` contiguous layer blocks,
/// each split over `tensor_parallel` ranks. The linear shard id of
/// `(stage, rank)` is `stage * tensor_parallel + rank`; shard 0 is the
/// single-device case when both factors are 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Number of pipeline stages (contiguous layer blocks), ≥ 1.
    pub pipeline_stages: u32,
    /// Tensor-parallel ranks per stage (row/column-split matmuls), ≥ 1.
    pub tensor_parallel: u32,
}

impl ShardSpec {
    /// The unsharded single-device spec.
    pub fn single() -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: 1,
        }
    }

    /// Pure pipeline parallelism over `stages` stages.
    pub fn pipeline(stages: u32) -> Self {
        ShardSpec {
            pipeline_stages: stages,
            tensor_parallel: 1,
        }
    }

    /// Pure tensor parallelism over `ranks` ranks.
    pub fn tensor(ranks: u32) -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: ranks,
        }
    }

    /// Combined pipeline × tensor parallelism.
    pub fn new(pipeline_stages: u32, tensor_parallel: u32) -> Self {
        ShardSpec {
            pipeline_stages,
            tensor_parallel,
        }
    }

    /// Total shard (device) count.
    pub fn shards(&self) -> u32 {
        self.pipeline_stages * self.tensor_parallel
    }

    /// Linear shard id of `(stage, rank)`.
    pub fn shard_id(&self, stage: u32, rank: u32) -> u32 {
        stage * self.tensor_parallel + rank
    }

    /// Stage of a linear shard id.
    pub fn stage_of(&self, shard: u32) -> u32 {
        shard / self.tensor_parallel
    }

    /// Tensor-parallel rank of a linear shard id.
    pub fn rank_of(&self, shard: u32) -> u32 {
        shard % self.tensor_parallel
    }

    /// Whether this is the degenerate single-device spec.
    pub fn is_single(&self) -> bool {
        self.shards() == 1
    }

    /// Both factors must be ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.pipeline_stages == 0 || self.tensor_parallel == 0 {
            return Err(format!(
                "ShardSpec factors must be >= 1, got {} x {}",
                self.pipeline_stages, self.tensor_parallel
            ));
        }
        Ok(())
    }

    /// Compact label for reports: `"pp2xtp4"`.
    pub fn label(&self) -> String {
        format!("pp{}xtp{}", self.pipeline_stages, self.tensor_parallel)
    }
}

/// Producer-side attribute marking a tensor-parallel *partial sum*
/// (a row-split matmul's contribution); a cut edge leaving such a node
/// becomes an [`OpKind::AllReduce`].
pub const ATTR_TP_PARTIAL: &str = "tp_partial";
/// Producer-side attribute naming the dimension a tensor-parallel
/// *slice* was split along (a column-split matmul's output); a cut edge
/// leaving such a node becomes an [`OpKind::AllGather`] over that dim.
pub const ATTR_TP_SLICE_DIM: &str = "tp_slice_dim";
/// Attribute carrying a node's tensor-parallel rank within its stage.
pub const ATTR_TP_RANK: &str = "tp_rank";
/// Attribute on spliced collectives: the original cut edge id.
pub const ATTR_CUT_EDGE: &str = "cut_edge";
/// Attribute on spliced collectives: producing shard.
pub const ATTR_FROM_SHARD: &str = "from_shard";
/// Attribute on spliced collectives: consuming shard.
pub const ATTR_TO_SHARD: &str = "to_shard";

/// A total assignment of every node to exactly one linear shard id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The spec this partition realizes.
    pub spec: ShardSpec,
    /// Node → linear shard id; total over the partitioned graph.
    pub assignment: BTreeMap<NodeId, u32>,
}

impl Partition {
    /// Nodes assigned to `shard`, ascending.
    pub fn shard_nodes(&self, shard: u32) -> BTreeSet<NodeId> {
        self.assignment
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&n, _)| n)
            .collect()
    }

    /// True when every node of `g` is assigned exactly once and every
    /// assigned shard id is in range — the cover property `cut_props.rs`
    /// pins for arbitrary graphs.
    pub fn covers_exactly_once(&self, g: &Srg) -> bool {
        g.node_count() == self.assignment.len()
            && g.node_ids().all(|n| {
                self.assignment
                    .get(&n)
                    .is_some_and(|&s| s < self.spec.shards())
            })
    }
}

/// Layer index parsed from a module path like `"h.3.attn.q"` or
/// `"transformer.h.17.mlp"`: the numeric segment following an `"h"`
/// segment.
fn layer_of(module_path: &str) -> Option<u32> {
    let mut parts = module_path.split('.');
    while let Some(seg) = parts.next() {
        if seg == "h" {
            if let Some(next) = parts.next() {
                if let Ok(l) = next.parse::<u32>() {
                    return Some(l);
                }
            }
        }
    }
    None
}

/// Partition `g` under `spec`.
///
/// Stage assignment walks the topological order carrying the stage of
/// the most recent layer-tagged node (module paths `h.<i>`): layer `l`
/// of `L` maps to stage `l * stages / L`, pre-layer nodes (embedding)
/// ride stage 0, post-layer nodes (head, sampling) ride the last
/// stage touched. Rank assignment reads the producer's
/// [`ATTR_TP_RANK`] annotation (0 when absent), so a capture that
/// split its matmuls row/column-wise lands each split on its own rank
/// while un-split graphs collapse onto rank 0. The result is total:
/// every node gets exactly one shard.
pub fn partition(g: &Srg, spec: &ShardSpec) -> Partition {
    spec.validate().expect("valid ShardSpec");
    let layers: u32 = g
        .nodes()
        .filter_map(|n| layer_of(&n.module_path))
        .max()
        .map_or(0, |l| l + 1);
    let stages = spec.pipeline_stages;
    let stage_of_layer = |l: u32| -> u32 {
        if layers == 0 {
            0
        } else {
            (((l as u64) * stages as u64) / layers as u64).min(stages as u64 - 1) as u32
        }
    };
    let order = topo_order(g).expect("partition requires an acyclic SRG");
    let mut assignment = BTreeMap::new();
    let mut current_stage = 0u32;
    for n in order {
        let node = g.node(n);
        if let Some(l) = layer_of(&node.module_path) {
            current_stage = stage_of_layer(l);
        }
        let rank = node
            .attrs
            .get(ATTR_TP_RANK)
            .and_then(|r| r.parse::<u32>().ok())
            .unwrap_or(0)
            .min(spec.tensor_parallel - 1);
        assignment.insert(n, spec.shard_id(current_stage, rank));
    }
    Partition {
        spec: *spec,
        assignment,
    }
}

/// Edges whose producer and consumer land on different shards,
/// ascending by edge id. Every one of these becomes exactly one
/// collective in [`insert_collectives`].
pub fn cut_edges(g: &Srg, part: &Partition) -> Vec<EdgeId> {
    g.edges()
        .filter(|e| part.assignment[&e.src] != part.assignment[&e.dst])
        .map(|e| e.id)
        .collect()
}

/// The graph with collectives spliced onto every cut edge, plus the
/// books needed to invert the transformation and to place shards.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    /// The rewritten graph. Original nodes keep their ids (they are
    /// copied in id order); collectives are appended after them.
    pub srg: Srg,
    /// Original-graph node count (ids below this are original nodes).
    pub original_nodes: usize,
    /// Original cut edge → the collective spliced onto it.
    pub collectives: BTreeMap<EdgeId, NodeId>,
    /// Shard of every node in `srg`, collectives included (a collective
    /// executes on the consuming shard).
    pub assignment: BTreeMap<NodeId, u32>,
    /// The spec this graph was sharded under.
    pub spec: ShardSpec,
}

impl ShardedGraph {
    /// Ids of the spliced collective nodes, ascending.
    pub fn collective_nodes(&self) -> BTreeSet<NodeId> {
        self.collectives.values().copied().collect()
    }

    /// Total bytes every collective moves over the fabric (the payload
    /// of each original cut edge).
    pub fn collective_bytes(&self) -> u64 {
        self.collectives
            .keys()
            .map(|&e| {
                let orig = self.srg.in_edges(self.collectives[&e]).next();
                orig.map_or(0, |edge| edge.meta.size_bytes() as u64)
            })
            .sum()
    }
}

/// Splice a collective onto every cut edge of `part`, re-routing
/// `src → dst` as `src → collective → dst`. Node ids of the original
/// graph are preserved; relative edge order is preserved, so slots and
/// tensor ids survive and [`recompose`] can restore the input exactly.
pub fn insert_collectives(g: &Srg, part: &Partition) -> ShardedGraph {
    let mut out = Srg::new(format!("{}.{}", g.name, part.spec.label()));
    for id in g.node_ids() {
        out.add_node(g.node(id).clone());
    }
    let mut collectives = BTreeMap::new();
    let mut assignment: BTreeMap<NodeId, u32> = part.assignment.clone();
    for edge in g.edges() {
        let (src_shard, dst_shard) = (part.assignment[&edge.src], part.assignment[&edge.dst]);
        if src_shard == dst_shard {
            out.add_edge(edge.clone());
            continue;
        }
        let producer = g.node(edge.src);
        let (op, mnemonic) = if producer.attrs.contains_key(ATTR_TP_PARTIAL) {
            (OpKind::AllReduce, "all_reduce")
        } else if producer.attrs.contains_key(ATTR_TP_SLICE_DIM) {
            (OpKind::AllGather, "all_gather")
        } else {
            (OpKind::SendActivation, "send")
        };
        let bytes = edge.meta.size_bytes() as f64;
        let mut coll = Node::new(
            NodeId::new(0),
            op,
            format!("{mnemonic}.{}->{}", src_shard, dst_shard),
        )
        .with_phase(producer.phase.clone())
        .with_residency(Residency::EphemeralActivation)
        .with_module_path(producer.module_path.clone())
        .with_cost(crate::annotations::CostHints::new(0.0, bytes, bytes))
        .with_attr(ATTR_CUT_EDGE, edge.id.to_string())
        .with_attr(ATTR_FROM_SHARD, src_shard.to_string())
        .with_attr(ATTR_TO_SHARD, dst_shard.to_string());
        if let Some(dim) = producer.attrs.get(ATTR_TP_SLICE_DIM) {
            coll.attrs.insert("dim".into(), dim.clone());
        }
        let c = out.add_node(coll);
        // src → collective carries the producer's tensor; collective →
        // dst delivers a fresh tensor into the consumer's original slot
        // with the original rate/criticality, so transfer pricing is
        // unchanged.
        out.connect_tensor(edge.src, c, edge.tensor, edge.meta.clone());
        let delivered = out.fresh_tensor();
        let mut hop = crate::edge::Edge::new(
            crate::ids::EdgeId::new(0),
            c,
            edge.dst,
            delivered,
            edge.meta.clone(),
        )
        .with_slot(edge.dst_slot)
        .with_rate(edge.rate)
        .with_criticality(edge.criticality);
        hop.id = crate::ids::EdgeId::new(0); // renumbered by add_edge
        out.add_edge(hop);
        collectives.insert(edge.id, c);
        assignment.insert(c, dst_shard);
    }
    ShardedGraph {
        srg: out,
        original_nodes: g.node_count(),
        collectives,
        assignment,
        spec: part.spec,
    }
}

/// Invert [`insert_collectives`]: strip the spliced collectives and
/// reconnect each cut edge directly, restoring the original topology
/// (same node ids, ops, attrs; same edge endpoints, slots, tensors, in
/// the same relative order).
pub fn recompose(sh: &ShardedGraph) -> Srg {
    let colls = sh.collective_nodes();
    let mut out = Srg::new(
        sh.srg
            .name
            .rsplit_once('.')
            .map(|(base, _)| base.to_string())
            .unwrap_or_else(|| sh.srg.name.clone()),
    );
    for id in sh.srg.node_ids().take(sh.original_nodes) {
        out.add_node(sh.srg.node(id).clone());
    }
    for edge in sh.srg.edges() {
        if colls.contains(&edge.dst) {
            // First hop into a collective: dropped, its payload is
            // restored when the second hop is reconnected below.
            continue;
        }
        if colls.contains(&edge.src) {
            let inbound = sh
                .srg
                .in_edges(edge.src)
                .next()
                .expect("collective has exactly one producer");
            let mut restored = edge.clone();
            restored.src = inbound.src;
            restored.tensor = inbound.tensor;
            out.add_edge(restored);
            continue;
        }
        out.add_edge(edge.clone());
    }
    out
}

/// Structural equality: same nodes (id order, op, name, attrs, cost)
/// and same edges (endpoints, slots, tensors, metas, in order). Used by
/// the round-trip property; `Srg` itself intentionally has no `Eq`.
pub fn same_structure(a: &Srg, b: &Srg) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes().zip(b.nodes()).all(|(x, y)| x == y)
        && a.edges().zip(b.edges()).all(|(x, y)| x == y)
}

/// Per-shard induced subgraphs (shard id ascending), each with its
/// old→new node map — the per-device views a backend executes.
pub fn shard_subgraphs(g: &Srg, part: &Partition) -> Vec<(Srg, HashMap<NodeId, NodeId>)> {
    (0..part.spec.shards())
        .map(|s| g.induced_subgraph(&part.shard_nodes(s)))
        .collect()
}

/// Lineage recovery for a severed shard: the replay cut when every
/// node on `shard` loses its outputs and everything on surviving
/// shards is still available. Bridges the planner to
/// [`crate::cut::replay_cut`] for chaos recovery of distributed plans.
pub fn shard_loss_replay(g: &Srg, part: &Partition, shard: u32) -> crate::cut::ReplayCut {
    let lost = part.shard_nodes(shard);
    let available: BTreeSet<NodeId> = g.node_ids().filter(|n| !lost.contains(n)).collect();
    crate::cut::replay_cut(g, &lost, &available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2, 4], ElemType::F32)
    }

    /// input → h.0.mm → h.1.mm → out
    fn layered() -> Srg {
        let mut g = Srg::new("layered");
        let i = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "in"));
        let a = g
            .add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm0").with_module_path("h.0.mlp"));
        let b = g
            .add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm1").with_module_path("h.1.mlp"));
        let o = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        g.connect(i, a, meta());
        g.connect(a, b, meta());
        g.connect(b, o, meta());
        g
    }

    #[test]
    fn spec_arithmetic() {
        let s = ShardSpec::new(2, 4);
        assert_eq!(s.shards(), 8);
        assert_eq!(s.shard_id(1, 3), 7);
        assert_eq!(s.stage_of(7), 1);
        assert_eq!(s.rank_of(7), 3);
        assert!(ShardSpec::single().is_single());
        assert!(ShardSpec::new(0, 2).validate().is_err());
        assert_eq!(s.label(), "pp2xtp4");
    }

    #[test]
    fn pipeline_partition_cuts_between_layers() {
        let g = layered();
        let part = partition(&g, &ShardSpec::pipeline(2));
        assert!(part.covers_exactly_once(&g));
        // in + h.0 on stage 0; h.1 + out on stage 1.
        assert_eq!(part.assignment[&NodeId::new(0)], 0);
        assert_eq!(part.assignment[&NodeId::new(1)], 0);
        assert_eq!(part.assignment[&NodeId::new(2)], 1);
        assert_eq!(part.assignment[&NodeId::new(3)], 1);
        let cuts = cut_edges(&g, &part);
        assert_eq!(cuts.len(), 1, "exactly the h.0→h.1 edge");
    }

    #[test]
    fn collectives_match_cut_edges_and_round_trip() {
        let g = layered();
        let part = partition(&g, &ShardSpec::pipeline(2));
        let cuts = cut_edges(&g, &part);
        let sh = insert_collectives(&g, &part);
        assert_eq!(sh.collectives.len(), cuts.len());
        assert_eq!(sh.srg.node_count(), g.node_count() + cuts.len());
        for &c in sh.collectives.values() {
            assert_eq!(sh.srg.node(c).op, OpKind::SendActivation);
        }
        assert!(topo_order(&sh.srg).is_ok(), "splice keeps the DAG acyclic");
        let back = recompose(&sh);
        assert!(same_structure(&g, &back));
    }

    #[test]
    fn tp_attrs_pick_collective_kinds() {
        let mut g = Srg::new("tp");
        let p = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "partial")
                .with_attr(ATTR_TP_PARTIAL, "sum")
                .with_attr(ATTR_TP_RANK, "1"),
        );
        let s = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "slice").with_attr(ATTR_TP_SLICE_DIM, "1"),
        );
        let sink = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "sum"));
        g.connect(p, sink, meta());
        g.connect(s, sink, meta());
        let part = partition(&g, &ShardSpec::tensor(2));
        // rank 1 producer lands on shard 1, rank-0 nodes on shard 0.
        assert_eq!(part.assignment[&p], 1);
        assert_eq!(part.assignment[&sink], 0);
        let sh = insert_collectives(&g, &part);
        let kinds: Vec<OpKind> = sh
            .collectives
            .values()
            .map(|&c| sh.srg.node(c).op.clone())
            .collect();
        assert!(kinds.contains(&OpKind::AllReduce));
        assert!(sh.collective_bytes() > 0);
    }

    #[test]
    fn shard_loss_replays_only_the_lost_stage_cone() {
        let g = layered();
        let part = partition(&g, &ShardSpec::pipeline(2));
        let cut = shard_loss_replay(&g, &part, 1);
        // Losing stage 1 replays h.1 + out, fetching h.0's output.
        assert!(cut.replay.contains(&NodeId::new(2)));
        assert!(cut.frontier.contains(&NodeId::new(1)));
        assert!(!cut.replay.contains(&NodeId::new(1)));
    }
}
