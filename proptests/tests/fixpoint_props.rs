//! Property tests for the generic fixpoint solver: termination within
//! the fuel budget, convergence to a genuine fixpoint, agreement of
//! forward reachability with brute-force closure, and agreement of the
//! packaged liveness analysis with per-step brute-force recomputation.

use genie_analysis::dataflow::{solve, Direction, FlowGraph, SetLattice, SrgFlow};
use genie_analysis::live_value_sets;
use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a random DAG: `n` nodes, candidate edges reduced mod `n` and
/// kept only when they point from a lower to a higher index — so every
/// generated graph is acyclic by construction.
fn random_dag(n: usize, raw_edges: &[(usize, usize)]) -> Srg {
    let mut g = Srg::new("prop");
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(Node::new(NodeId::new(0), OpKind::Relu, format!("n{i}"))))
        .collect();
    for &(a, b) in raw_edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            g.connect(nodes[a], nodes[b], TensorMeta::new([4], ElemType::F32));
        }
    }
    g
}

/// The transfer used throughout: out(v) = in(v) ∪ {node(v)} — forward
/// ancestors, backward descendants. Monotone over the powerset lattice.
fn reach(flow: &SrgFlow, v: usize, input: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut s = input.clone();
    s.insert(flow.node_at(v));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worklist drains on every random DAG, in both directions,
    /// within the documented fuel budget.
    #[test]
    fn solver_terminates_and_converges(
        n in 1usize..10,
        raw in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let g = random_dag(n, &raw);
        let flow = SrgFlow::new(&g).expect("built acyclic");
        let lat = SetLattice::<NodeId>::new();
        for direction in [Direction::Forward, Direction::Backward] {
            let fx = solve(&lat, &flow, direction, |v, input| reach(&flow, v, input));
            prop_assert!(fx.converged, "{direction:?} must drain its worklist");
            prop_assert!(fx.iterations <= 64 * flow.len() + 64);
        }
    }

    /// The answer is a true fixpoint of the monotone transfer: every
    /// recorded input is exactly the join of its upstream outputs, and
    /// re-evaluating the transfer on that input reproduces the output.
    #[test]
    fn solution_is_a_fixpoint(
        n in 1usize..10,
        raw in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let g = random_dag(n, &raw);
        let flow = SrgFlow::new(&g).expect("built acyclic");
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
                prop_assert_eq!(&fx.inputs[v], &input, "input at {} ({:?})", v, direction);
                let again = reach(&flow, v, &input);
                prop_assert_eq!(&fx.outputs[v], &again, "output at {} ({:?})", v, direction);
            }
        }
    }

    /// Forward reachability from the solver equals the brute-force
    /// ancestor closure computed by naive repeated relaxation.
    #[test]
    fn forward_reachability_matches_brute_force(
        n in 1usize..10,
        raw in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let g = random_dag(n, &raw);
        let flow = SrgFlow::new(&g).expect("built acyclic");
        let lat = SetLattice::<NodeId>::new();
        let fx = solve(&lat, &flow, Direction::Forward, |v, input| reach(&flow, v, input));
        prop_assert!(fx.converged);

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
            prop_assert_eq!(&fx.outputs[v], a, "ancestors of vertex {}", v);
        }
    }

    /// The packaged liveness analysis agrees with its brute-force
    /// interval definition: node `m` is live during step `i` of the
    /// topological order iff `pos(m) <= i <= last_use(m)`, where
    /// `last_use` is the latest consumer position (or the definition
    /// itself when nothing consumes the value).
    #[test]
    fn liveness_matches_interval_brute_force(
        n in 1usize..10,
        raw in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let g = random_dag(n, &raw);
        let flow = SrgFlow::new(&g).expect("built acyclic");
        let live = live_value_sets(&g).expect("built acyclic");
        prop_assert_eq!(live.len(), flow.len());
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
                prop_assert_eq!(
                    set.contains(node),
                    expected,
                    "step {} node {:?} (pos {}, last use {})",
                    i, node, pos, last
                );
            }
        }
    }
}
