//! Properties of the sharding planner (`genie_srg::shard`) over random
//! layered DAGs and arbitrary `ShardSpec`s, as seeded loops: a case is
//! a function of its index alone, and a failing case prints the index
//! that reproduces it. Three invariants.
//!
//! 1. **Cover exactly once** — `partition` assigns every node exactly
//!    one in-range shard id.
//! 2. **Cuts ≡ collectives** — `insert_collectives` splices exactly one
//!    collective per cut edge, keeps the graph acyclic, and places each
//!    collective on the consuming shard.
//! 3. **Round trip** — `recompose` restores the original graph
//!    structure bit-for-bit.

use genie_netsim::XorShift64;
use genie_srg::shard::{
    cut_edges, insert_collectives, partition, recompose, same_structure, shard_subgraphs,
    ShardSpec, ATTR_TP_RANK,
};
use genie_srg::traverse::topo_order;
use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};

/// Cases per property.
const CASES: u64 = 64;

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

/// One case: a graph of 1..6 layers of 1..5 nodes and a spec of 1..5
/// pipeline stages by 1..5 ranks. A panic while it is alive names the
/// index.
struct Case {
    index: u64,
    graph: Srg,
    pp: u32,
    tp: u32,
}

impl Case {
    fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let mut rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut pick = |lo: u64, hi: u64| lo + rng.next_below(hi - lo);
        let (layers, width) = (pick(1, 6) as usize, pick(1, 5) as usize);
        let (pp, tp) = (pick(1, 5) as u32, pick(1, 5) as u32);
        let graph = layered_dag(layers, width, tp, rng.next_u64());
        Case {
            index,
            graph,
            pp,
            tp,
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

#[test]
fn partition_covers_every_node_exactly_once() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let spec = ShardSpec::new(case.pp, case.tp);
        let part = partition(g, &spec);
        assert!(part.covers_exactly_once(g));
        // The per-shard node sets tile the graph: disjoint by
        // construction of a map, and their sizes sum to the total.
        let total: usize = (0..spec.shards()).map(|s| part.shard_nodes(s).len()).sum();
        assert_eq!(total, g.node_count());
        // Induced subgraphs agree with the assignment.
        let subs = shard_subgraphs(g, &part);
        assert_eq!(subs.len(), spec.shards() as usize);
        let sub_total: usize = subs.iter().map(|(sg, _)| sg.node_count()).sum();
        assert_eq!(sub_total, g.node_count());
    }
}

#[test]
fn collectives_are_exactly_the_cut_edges() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let part = partition(g, &ShardSpec::new(case.pp, case.tp));
        let cuts = cut_edges(g, &part);
        let sh = insert_collectives(g, &part);
        // One collective per cut edge, no extras, DAG preserved.
        assert_eq!(sh.collectives.len(), cuts.len());
        assert_eq!(sh.srg.node_count(), g.node_count() + cuts.len());
        assert_eq!(
            sh.srg.edge_count(),
            g.edge_count() + cuts.len(),
            "each cut edge becomes two hops"
        );
        assert!(topo_order(&sh.srg).is_ok());
        for (&cut, &coll) in &sh.collectives {
            assert!(cuts.contains(&cut));
            // The collective runs on the consuming shard and bridges
            // exactly the shards of the original endpoints.
            let hop_out = sh.srg.edges().find(|e| e.src == coll).unwrap();
            assert_eq!(sh.assignment[&coll], sh.assignment[&hop_out.dst]);
            let hop_in = sh.srg.in_edges(coll).next().unwrap();
            assert!(
                part.assignment[&hop_in.src] != sh.assignment[&coll],
                "collective must bridge distinct shards"
            );
        }
        // Single-device spec: nothing to cut, nothing spliced.
        if case.pp == 1 && case.tp == 1 {
            assert!(sh.collectives.is_empty());
        }
    }
}

#[test]
fn recompose_round_trips_bit_for_bit() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let spec = ShardSpec::new(case.pp, case.tp);
        let part = partition(g, &spec);
        let sh = insert_collectives(g, &part);
        let back = recompose(&sh);
        assert!(
            same_structure(g, &back),
            "recompose(insert_collectives(g)) != g"
        );
        // Idempotence through a second trip.
        let part2 = partition(&back, &spec);
        assert_eq!(part.assignment, part2.assignment);
    }
}
