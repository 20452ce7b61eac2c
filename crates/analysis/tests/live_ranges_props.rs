//! GA101's interval liveness (`SrgFlow::live_ranges`) agrees with a
//! backward liveness pass over the step timeline and with per-step
//! brute-force recomputation, as a seeded loop. A case is a function of
//! its index alone, and a failing case prints the index that reproduces
//! it.

use genie_analysis::dataflow::SrgFlow;
use genie_netsim::XorShift64;
use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
use std::collections::BTreeSet;

/// Cases in the loop.
const CASES: u64 = 64;

/// One case's random DAG; a panic while it is alive names the index.
struct Case {
    index: u64,
    graph: Srg,
}

impl Case {
    /// 1..10 nodes and up to 23 candidate edges with endpoints in 0..16,
    /// reduced mod the node count and kept only when they point from a
    /// lower to a higher index — so every graph is acyclic by construction.
    fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let mut rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = 1 + rng.next_below(9) as usize;
        let mut graph = Srg::new("prop");
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| graph.add_node(Node::new(NodeId::new(0), OpKind::Relu, format!("n{i}"))))
            .collect();
        for _ in 0..rng.next_below(24) {
            let (a, b) = (
                rng.next_below(16) as usize % n,
                rng.next_below(16) as usize % n,
            );
            if a < b {
                graph.connect(nodes[a], nodes[b], TensorMeta::new([4], ElemType::F32));
            }
        }
        Case { index, graph }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

/// The oracle: per-step live sets from classic backward liveness over
/// the topological order's step timeline, one reverse pass over the
/// chain of steps. Step `i` runs the `i`-th node; entry `i` holds the
/// producers whose values are resident while step `i` runs, its own
/// output included.
fn backward_live_sets(g: &Srg, flow: &SrgFlow) -> Vec<BTreeSet<NodeId>> {
    let mut live = BTreeSet::new(); // live after the last step: nothing
    let mut during = vec![BTreeSet::new(); flow.order().len()];
    for (i, &node) in flow.order().iter().enumerate().rev() {
        live.remove(&node); // defined here, dead before this step
        live.extend(g.predecessors(node)); // used here, live from its producer on
        during[i] = live.clone();
        during[i].insert(node);
    }
    during
}

/// GA101's live ranges agree with backward liveness and with
/// their brute-force interval definition: node `m` is live during step
/// `i` of the topological order iff `pos(m) <= i <= last_use(m)`, where
/// `last_use` is the latest consumer position (or the definition itself
/// when nothing consumes the value).
#[test]
fn live_ranges_match_backward_liveness_and_interval_brute_force() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let flow = SrgFlow::new(g).expect("built acyclic");
        let ranges = flow.live_ranges();
        let live = backward_live_sets(g, &flow);
        assert_eq!(ranges.len(), flow.order().len());
        assert_eq!(live.len(), flow.order().len());
        for (i, set) in live.iter().enumerate() {
            let from_ranges: BTreeSet<NodeId> = (0..flow.order().len())
                .filter(|&v| ranges[v].contains(&i))
                .map(|v| flow.node_at(v))
                .collect();
            assert_eq!(&from_ranges, set, "live set at step {i}");
            for (pos, node) in flow.order().iter().enumerate() {
                let last = g
                    .successors(*node)
                    .into_iter()
                    .filter_map(|s| flow.index_of(s))
                    .max()
                    .unwrap_or(pos)
                    .max(pos);
                assert_eq!(
                    ranges[pos],
                    pos..=last,
                    "node {node:?} (pos {pos}, last use {last})"
                );
                let expected = pos <= i && i <= last;
                assert_eq!(
                    set.contains(node),
                    expected,
                    "step {i} node {node:?} (pos {pos}, last use {last})"
                );
            }
        }
    }
}
