//! Properties of the generic fixpoint solver: termination within the
//! fuel budget, convergence to a genuine fixpoint, agreement of forward
//! reachability with brute-force closure, and agreement of the packaged
//! liveness analysis with per-step brute-force recomputation — as seeded
//! loops. A case is a function of its index alone, and a failing case
//! prints the index that reproduces it.

use genie_analysis::dataflow::{solve, Direction, FlowGraph, SetLattice, SrgFlow};
use genie_analysis::live_value_sets;
use genie_netsim::XorShift64;
use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
use std::collections::BTreeSet;

/// Cases per property.
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

/// The transfer used throughout: out(v) = in(v) ∪ {node(v)} — forward
/// ancestors, backward descendants. Monotone over the powerset lattice.
fn reach(flow: &SrgFlow, v: usize, input: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut s = input.clone();
    s.insert(flow.node_at(v));
    s
}

/// The worklist drains on every random DAG, in both directions,
/// within the documented fuel budget.
#[test]
fn solver_terminates_and_converges() {
    for case in 0..CASES {
        let case = Case::new(case);
        let flow = SrgFlow::new(&case.graph).expect("built acyclic");
        let lat = SetLattice::<NodeId>::new();
        for direction in [Direction::Forward, Direction::Backward] {
            let fx = solve(&lat, &flow, direction, |v, input| reach(&flow, v, input));
            assert!(fx.converged, "{direction:?} must drain its worklist");
            assert!(fx.iterations <= 64 * flow.len() + 64);
        }
    }
}

/// The answer is a true fixpoint of the monotone transfer: every
/// recorded input is exactly the join of its upstream outputs, and
/// re-evaluating the transfer on that input reproduces the output.
#[test]
fn solution_is_a_fixpoint() {
    for case in 0..CASES {
        let case = Case::new(case);
        let flow = SrgFlow::new(&case.graph).expect("built acyclic");
        let lat = SetLattice::<NodeId>::new();
        for direction in [Direction::Forward, Direction::Backward] {
            let fx = solve(&lat, &flow, direction, |v, input| reach(&flow, v, input));
            for v in 0..flow.len() {
                let upstream = match direction {
                    Direction::Forward => flow.preds(v),
                    Direction::Backward => flow.succs(v),
                };
                let mut input = BTreeSet::new();
                for u in upstream {
                    input = input.union(&fx.outputs[u]).cloned().collect();
                }
                assert_eq!(fx.inputs[v], input, "input at {v} ({direction:?})");
                let again = reach(&flow, v, &input);
                assert_eq!(fx.outputs[v], again, "output at {v} ({direction:?})");
            }
        }
    }
}

/// Forward reachability from the solver equals the brute-force
/// ancestor closure computed by naive repeated relaxation.
#[test]
fn forward_reachability_matches_brute_force() {
    for case in 0..CASES {
        let case = Case::new(case);
        let flow = SrgFlow::new(&case.graph).expect("built acyclic");
        let lat = SetLattice::<NodeId>::new();
        let fx = solve(&lat, &flow, Direction::Forward, |v, input| {
            reach(&flow, v, input)
        });
        assert!(fx.converged);

        // Brute force: relax every edge n times — more than the longest
        // possible path, so the closure is complete.
        let len = flow.len();
        let mut anc: Vec<BTreeSet<NodeId>> = (0..len)
            .map(|v| std::iter::once(flow.node_at(v)).collect())
            .collect();
        for _ in 0..len {
            for v in 0..len {
                for p in flow.preds(v) {
                    let from = anc[p].clone();
                    anc[v].extend(from);
                }
            }
        }
        for (v, a) in anc.iter().enumerate() {
            assert_eq!(&fx.outputs[v], a, "ancestors of vertex {v}");
        }
    }
}

/// The packaged liveness analysis agrees with its brute-force
/// interval definition: node `m` is live during step `i` of the
/// topological order iff `pos(m) <= i <= last_use(m)`, where
/// `last_use` is the latest consumer position (or the definition
/// itself when nothing consumes the value).
#[test]
fn liveness_matches_interval_brute_force() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let flow = SrgFlow::new(g).expect("built acyclic");
        let live = live_value_sets(g).expect("built acyclic");
        assert_eq!(live.len(), flow.len());
        for (i, set) in live.iter().enumerate() {
            for (pos, node) in flow.order().iter().enumerate() {
                let last = g
                    .successors(*node)
                    .into_iter()
                    .filter_map(|s| flow.index_of(s))
                    .max()
                    .unwrap_or(pos)
                    .max(pos);
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
