//! Property suite for the sharding planner (`genie_srg::shard`):
//! random layered DAGs and transformer-shaped graphs, arbitrary
//! `ShardSpec`s, three invariants.
//!
//! 1. **Cover exactly once** — `partition` assigns every node exactly
//!    one in-range shard id.
//! 2. **Cuts ≡ collectives** — `insert_collectives` splices exactly one
//!    collective per cut edge, keeps the graph acyclic, and places each
//!    collective on the consuming shard.
//! 3. **Round trip** — `recompose` restores the original graph
//!    structure bit-for-bit.

use genie_srg::shard::{
    cut_edges, insert_collectives, partition, recompose, same_structure, shard_subgraphs,
    ShardSpec, ATTR_TP_RANK,
};
use genie_srg::traverse::topo_order;
use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
use proptest::prelude::*;

fn meta(cols: usize) -> TensorMeta {
    TensorMeta::new([2, cols.max(1)], ElemType::F32)
}

/// A random layered DAG shaped like a captured model: an input, then
/// `layers` blocks tagged `h.<i>`, each with `width` nodes carrying
/// tensor-parallel ranks, wired forward (within-layer fan-in plus a
/// skip edge now and then), then an output.
fn layered_dag(layers: usize, width: usize, ranks: u32, edge_bits: u64) -> Srg {
    let mut g = Srg::new("prop");
    let input = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "in"));
    let mut prev: Vec<NodeId> = vec![input];
    let mut bits = edge_bits;
    for l in 0..layers {
        let mut cur = Vec::new();
        for w in 0..width {
            let rank = (w as u32) % ranks.max(1);
            let n = g.add_node(
                Node::new(NodeId::new(0), OpKind::MatMul, format!("mm{l}_{w}"))
                    .with_module_path(format!("h.{l}.mlp"))
                    .with_attr(ATTR_TP_RANK, rank.to_string()),
            );
            // Always at least one in-edge from the previous layer;
            // extra fan-in decided by the bit stream.
            g.connect(prev[w % prev.len()], n, meta(w + 1));
            if prev.len() > 1 && (bits & 1) == 1 {
                g.connect(prev[(w + 1) % prev.len()], n, meta(w + 2));
            }
            bits = bits.rotate_right(1);
            cur.push(n);
        }
        prev = cur;
    }
    let out = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
    for (i, &n) in prev.iter().enumerate() {
        if i == 0 || (bits >> i) & 1 == 1 {
            g.connect(n, out, meta(i + 1));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_covers_every_node_exactly_once(
        layers in 1usize..6,
        width in 1usize..5,
        pp in 1u32..5,
        tp in 1u32..5,
        edge_bits in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, tp, edge_bits);
        let spec = ShardSpec::new(pp, tp);
        let part = partition(&g, &spec);
        prop_assert!(part.covers_exactly_once(&g));
        // The per-shard node sets tile the graph: disjoint by
        // construction of a map, and their sizes sum to the total.
        let total: usize = (0..spec.shards())
            .map(|s| part.shard_nodes(s).len())
            .sum();
        prop_assert_eq!(total, g.node_count());
        // Induced subgraphs agree with the assignment.
        let subs = shard_subgraphs(&g, &part);
        prop_assert_eq!(subs.len(), spec.shards() as usize);
        let sub_total: usize = subs.iter().map(|(sg, _)| sg.node_count()).sum();
        prop_assert_eq!(sub_total, g.node_count());
    }

    #[test]
    fn collectives_are_exactly_the_cut_edges(
        layers in 1usize..6,
        width in 1usize..5,
        pp in 1u32..5,
        tp in 1u32..5,
        edge_bits in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, tp, edge_bits);
        let part = partition(&g, &ShardSpec::new(pp, tp));
        let cuts = cut_edges(&g, &part);
        let sh = insert_collectives(&g, &part);
        // One collective per cut edge, no extras, DAG preserved.
        prop_assert_eq!(sh.collectives.len(), cuts.len());
        prop_assert_eq!(sh.srg.node_count(), g.node_count() + cuts.len());
        prop_assert_eq!(
            sh.srg.edge_count(),
            g.edge_count() + cuts.len(),
            "each cut edge becomes two hops"
        );
        prop_assert!(topo_order(&sh.srg).is_ok());
        for (&cut, &coll) in &sh.collectives {
            prop_assert!(cuts.contains(&cut));
            // The collective runs on the consuming shard and bridges
            // exactly the shards of the original endpoints.
            let hop_out = sh.srg.edges().find(|e| e.src == coll).unwrap();
            prop_assert_eq!(sh.assignment[&coll], sh.assignment[&hop_out.dst]);
            let hop_in = sh.srg.in_edges(coll).next().unwrap();
            prop_assert!(
                part.assignment[&hop_in.src] != sh.assignment[&coll],
                "collective must bridge distinct shards"
            );
        }
        // Single-device spec: nothing to cut, nothing spliced.
        if pp == 1 && tp == 1 {
            prop_assert!(sh.collectives.is_empty());
        }
    }

    #[test]
    fn recompose_round_trips_bit_for_bit(
        layers in 1usize..6,
        width in 1usize..5,
        pp in 1u32..5,
        tp in 1u32..5,
        edge_bits in any::<u64>(),
    ) {
        let g = layered_dag(layers, width, tp, edge_bits);
        let part = partition(&g, &ShardSpec::new(pp, tp));
        let sh = insert_collectives(&g, &part);
        let back = recompose(&sh);
        prop_assert!(
            same_structure(&g, &back),
            "recompose(insert_collectives(g)) != g"
        );
        // Idempotence through a second trip.
        let part2 = partition(&back, &ShardSpec::new(pp, tp));
        prop_assert_eq!(&part.assignment, &part2.assignment);
    }
}
