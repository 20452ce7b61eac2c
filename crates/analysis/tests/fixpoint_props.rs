//! Properties of the generic fixpoint solver: termination within the
//! fuel budget, convergence to a genuine fixpoint, agreement of forward
//! reachability with brute-force closure — and agreement of GA101's
//! interval liveness (`SrgFlow::live_ranges`) with both a backward
//! liveness solve over the step timeline and per-step brute-force
//! recomputation — as seeded loops. A case is a function of its index
//! alone, and a failing case prints the index that reproduces it.

use genie_analysis::dataflow::{solve, Direction, FlowGraph, Lattice, SrgFlow};
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

/// The powerset lattice over nodes: `bottom = ∅`, `join = ∪`.
struct NodeSets;

impl Lattice for NodeSets {
    type Elem = BTreeSet<NodeId>;
    fn bottom(&self) -> BTreeSet<NodeId> {
        BTreeSet::new()
    }
    fn join(&self, a: &BTreeSet<NodeId>, b: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        a.union(b).copied().collect()
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
        let lat = NodeSets;
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
        let lat = NodeSets;
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
        let lat = NodeSets;
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

/// A linear chain of `steps` vertices: a plan's step timeline, where
/// step `i` happens-before step `i + 1`.
struct Timeline(usize);

impl FlowGraph for Timeline {
    fn len(&self) -> usize {
        self.0
    }
    fn preds(&self, v: usize) -> Vec<usize> {
        (v > 0).then(|| v - 1).into_iter().collect()
    }
    fn succs(&self, v: usize) -> Vec<usize> {
        (v + 1 < self.0).then_some(v + 1).into_iter().collect()
    }
}

/// The oracle: per-step live sets from a backward liveness solve over
/// the topological order's step timeline. Step `i` runs the `i`-th node;
/// entry `i` holds the producers whose values are resident while step
/// `i` runs, its own output included.
fn solved_live_sets(g: &Srg, flow: &SrgFlow) -> Vec<BTreeSet<NodeId>> {
    let lat = NodeSets;
    let fx = solve(
        &lat,
        &Timeline(flow.len()),
        Direction::Backward,
        |i, live_out| {
            let node = flow.node_at(i);
            let mut live_in = live_out.clone();
            live_in.remove(&node); // defined here, dead before this step
            live_in.extend(g.predecessors(node)); // used here, live from its producer on
            live_in
        },
    );
    assert!(fx.converged, "liveness is monotone over a finite lattice");
    (0..flow.len())
        .map(|i| {
            let mut during = fx.outputs[i].clone();
            during.insert(flow.node_at(i));
            during
        })
        .collect()
}

/// GA101's live ranges agree with the backward liveness solve and with
/// their brute-force interval definition: node `m` is live during step
/// `i` of the topological order iff `pos(m) <= i <= last_use(m)`, where
/// `last_use` is the latest consumer position (or the definition itself
/// when nothing consumes the value).
#[test]
fn live_ranges_match_liveness_solve_and_interval_brute_force() {
    for case in 0..CASES {
        let case = Case::new(case);
        let g = &case.graph;
        let flow = SrgFlow::new(g).expect("built acyclic");
        let ranges = flow.live_ranges();
        let solved = solved_live_sets(g, &flow);
        assert_eq!(ranges.len(), flow.len());
        assert_eq!(solved.len(), flow.len());
        for (i, set) in solved.iter().enumerate() {
            let from_ranges: BTreeSet<NodeId> = (0..flow.len())
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
