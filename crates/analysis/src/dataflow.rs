//! Generic fixpoint dataflow framework.
//!
//! The propagating lints in this crate — error intervals (GA3xx) and
//! `Critical` reachability — are instances of the same classic scheme:
//! pick a join-semilattice of abstract values, pick a flow graph (the
//! SRG in topological order), pick a monotone transfer function per
//! vertex, and iterate a worklist to the least fixpoint. This module is
//! that scheme, factored once so every pass reuses the solver instead of
//! hand-rolling its own traversal. Liveness needs no solve: over a
//! topological order a value is live on one interval, which
//! [`SrgFlow::live_ranges`] reads off the out-edges directly.
//!
//! The solver is deliberately tiny and `std`-only:
//!
//! - [`Lattice`] — bottom element + join; the element type only needs
//!   `Clone + PartialEq + Debug`.
//! - [`FlowGraph`] — vertices are `0..len()`, with `preds`/`succs`
//!   adjacency. [`SrgFlow`] adapts an [`Srg`] through its deterministic
//!   topological order.
//! - [`solve`] — a worklist iteration in the chosen [`Direction`], with
//!   a fuel cap so a non-monotone transfer function degrades into
//!   `converged == false` instead of an infinite loop.
//!
//! For a monotone transfer function over a finite-height lattice the
//! solver terminates at the unique least fixpoint regardless of visit
//! order; the seeded loops in `tests/fixpoint_props.rs` pin termination,
//! monotone convergence, and agreement with brute-force recomputation,
//! and hold [`SrgFlow::live_ranges`] to a backward liveness solve.

use genie_srg::traverse::{topo_order, CycleError};
use genie_srg::{NodeId, Srg};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::ops::RangeInclusive;

/// A join-semilattice: the abstract domain a dataflow analysis runs over.
///
/// Implementations must satisfy the usual laws — `join` is associative,
/// commutative, idempotent, and `bottom` is its identity — and the
/// transfer functions handed to [`solve`] should be monotone with
/// respect to the induced order (`a ⊑ b  ⇔  join(a, b) == b`).
pub trait Lattice {
    /// The abstract value.
    type Elem: Clone + PartialEq + Debug;
    /// The least element (identity of `join`).
    fn bottom(&self) -> Self::Elem;
    /// Least upper bound of two elements.
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
}

/// Which way facts flow along the graph's edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (e.g. error intervals).
    Forward,
    /// Facts flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// The shape a dataflow analysis walks: vertices `0..len()` plus
/// adjacency. Adjacency returns owned `Vec`s so implementations can
/// compute it on the fly (index translation, filtering).
pub trait FlowGraph {
    /// Number of vertices.
    fn len(&self) -> usize;
    /// Whether the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Vertices with an edge into `v`.
    fn preds(&self, v: usize) -> Vec<usize>;
    /// Vertices `v` has an edge into.
    fn succs(&self, v: usize) -> Vec<usize>;
}

/// An [`Srg`] adapted to [`FlowGraph`]: vertex `i` is the `i`-th node of
/// the deterministic topological order, so a single forward (or
/// backward) sweep of the solver visits producers before (or after)
/// consumers.
pub struct SrgFlow<'a> {
    srg: &'a Srg,
    order: Vec<NodeId>,
    /// Vertex of each node, indexed by [`NodeId::index`].
    index: Vec<usize>,
}

impl<'a> SrgFlow<'a> {
    /// Build the adapter; fails with the witness cycle on a cyclic graph.
    pub fn new(srg: &'a Srg) -> Result<Self, CycleError> {
        let order = topo_order(srg)?;
        let mut index = vec![0; order.len()];
        for (v, n) in order.iter().enumerate() {
            index[n.index()] = v;
        }
        Ok(SrgFlow { srg, order, index })
    }

    /// The node at vertex `i` of the topological order.
    pub fn node_at(&self, i: usize) -> NodeId {
        self.order[i]
    }

    /// The vertex index of a node.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.index.get(node.index()).copied()
    }

    /// The underlying topological order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Read as a schedule that runs vertex `i` at step `i`: the steps
    /// during which each vertex's value is resident, from the step that
    /// produces it through the last step that reads it (only its own
    /// step when nothing does). Entry `v` is vertex `v`'s range.
    pub fn live_ranges(&self) -> Vec<RangeInclusive<usize>> {
        self.order
            .iter()
            .enumerate()
            .map(|(v, &n)| {
                let last = self.srg.out_edges(n).map(|e| self.index[e.dst.index()]);
                v..=last.max().unwrap_or(v)
            })
            .collect()
    }

    /// Vertices of `nodes`, first mention only (parallel edges collapse).
    fn vertices(&self, nodes: impl Iterator<Item = NodeId>) -> Vec<usize> {
        let mut out = Vec::new();
        for n in nodes {
            let v = self.index[n.index()];
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl FlowGraph for SrgFlow<'_> {
    fn len(&self) -> usize {
        self.order.len()
    }
    fn preds(&self, v: usize) -> Vec<usize> {
        self.vertices(self.srg.in_edges(self.order[v]).map(|e| e.src))
    }
    fn succs(&self, v: usize) -> Vec<usize> {
        self.vertices(self.srg.out_edges(self.order[v]).map(|e| e.dst))
    }
}

/// The result of a fixpoint solve: per-vertex `inputs` (the join over
/// the upstream side) and `outputs` (the transfer function applied to
/// the input), plus how hard the solver worked.
#[derive(Clone, Debug)]
pub struct Fixpoint<E> {
    /// Per-vertex join of upstream outputs (predecessors when forward,
    /// successors when backward).
    pub inputs: Vec<E>,
    /// Per-vertex transfer-function output.
    pub outputs: Vec<E>,
    /// Transfer-function evaluations performed.
    pub iterations: usize,
    /// False iff the fuel cap tripped before the worklist drained
    /// (possible only for non-monotone transfer functions).
    pub converged: bool,
}

/// Worklist fixpoint iteration of `transfer` over `graph` in the given
/// `direction`.
///
/// The transfer function receives the vertex index and the join of the
/// upstream outputs and returns the vertex's new output. Monotone
/// transfer functions over finite-height lattices always converge; a
/// fuel cap of `64 · len + 64` evaluations bounds pathological inputs,
/// reported via [`Fixpoint::converged`].
pub fn solve<L, G, F>(
    lattice: &L,
    graph: &G,
    direction: Direction,
    mut transfer: F,
) -> Fixpoint<L::Elem>
where
    L: Lattice,
    G: FlowGraph,
    F: FnMut(usize, &L::Elem) -> L::Elem,
{
    let n = graph.len();
    let mut inputs: Vec<L::Elem> = (0..n).map(|_| lattice.bottom()).collect();
    let mut outputs: Vec<L::Elem> = (0..n).map(|_| lattice.bottom()).collect();
    // Seed in an order that needs one sweep for DAG-shaped inputs.
    let mut queue: VecDeque<usize> = match direction {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    let mut queued = vec![true; n];
    let fuel = n.saturating_mul(64).saturating_add(64);
    let mut iterations = 0usize;
    while let Some(v) = queue.pop_front() {
        queued[v] = false;
        if iterations >= fuel {
            // Put the vertex back so the drain check below sees the
            // unfinished work.
            queue.push_front(v);
            break;
        }
        iterations += 1;
        let upstream = match direction {
            Direction::Forward => graph.preds(v),
            Direction::Backward => graph.succs(v),
        };
        let mut input = lattice.bottom();
        for u in upstream {
            input = lattice.join(&input, &outputs[u]);
        }
        let out = transfer(v, &input);
        inputs[v] = input;
        if out != outputs[v] {
            outputs[v] = out;
            let downstream = match direction {
                Direction::Forward => graph.succs(v),
                Direction::Backward => graph.preds(v),
            };
            for d in downstream {
                if !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    let converged = queue.is_empty();
    Fixpoint {
        inputs,
        outputs,
        iterations,
        converged,
    }
}

/// The max-of-nonnegative-reals lattice: `bottom = 0`, `join = max`.
/// Used for worst-case error-interval propagation (GA3xx), where `+∞`
/// encodes "no static bound".
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxLattice;

impl Lattice for MaxLattice {
    type Elem = f64;
    fn bottom(&self) -> f64 {
        0.0
    }
    fn join(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }
}

/// The two-point boolean lattice: `bottom = false`, `join = ∨`. Used
/// for "is anything critical downstream of here" reachability.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoolOrLattice;

impl Lattice for BoolOrLattice {
    type Elem = bool;
    fn bottom(&self) -> bool {
        false
    }
    fn join(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_srg::{ElemType, Node, OpKind, TensorMeta};
    use std::collections::BTreeSet;

    /// The powerset lattice over vertices: `bottom = ∅`, `join = ∪`.
    struct Sets;

    impl Lattice for Sets {
        type Elem = BTreeSet<usize>;
        fn bottom(&self) -> BTreeSet<usize> {
            BTreeSet::new()
        }
        fn join(&self, a: &BTreeSet<usize>, b: &BTreeSet<usize>) -> BTreeSet<usize> {
            a.union(b).copied().collect()
        }
    }

    /// `n` nodes `0 → 1 → … → n-1`: vertex `i` of its flow is node `i`.
    fn chain(n: usize) -> Srg {
        let mut g = Srg::new("chain");
        for i in 0..n {
            let id = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, format!("n{i}")));
            if i > 0 {
                g.connect(
                    NodeId::new(i as u32 - 1),
                    id,
                    TensorMeta::new([4], ElemType::F32),
                );
            }
        }
        g
    }

    #[test]
    fn chain_flow_adjacency_and_live_ranges() {
        let g = chain(3);
        let t = SrgFlow::new(&g).expect("acyclic");
        assert_eq!(t.len(), 3);
        assert_eq!(t.preds(0), Vec::<usize>::new());
        assert_eq!(t.preds(2), vec![1]);
        assert_eq!(t.succs(0), vec![1]);
        assert_eq!(t.succs(2), Vec::<usize>::new());
        assert_eq!(t.live_ranges(), vec![0..=1, 1..=2, 2..=2]);
        assert!(SrgFlow::new(&chain(0)).expect("empty").is_empty());
    }

    #[test]
    fn forward_reachability_on_a_chain() {
        // Transfer: out(v) = in(v) ∪ {v}. Fixpoint: out(v) = {0..=v}.
        let g = chain(5);
        let t = SrgFlow::new(&g).expect("acyclic");
        let fx = solve(&Sets, &t, Direction::Forward, |v, input| {
            let mut s = input.clone();
            s.insert(v);
            s
        });
        assert!(fx.converged);
        assert_eq!(fx.outputs[4], (0..=4).collect());
        assert_eq!(fx.outputs[0], std::iter::once(0).collect());
    }

    #[test]
    fn backward_liveness_on_a_chain() {
        // Step v defines value v and uses value v-1: classic liveness.
        let g = chain(4);
        let t = SrgFlow::new(&g).expect("acyclic");
        let fx = solve(&Sets, &t, Direction::Backward, |v, live_out| {
            let mut s = live_out.clone();
            s.remove(&v); // defined here
            if v > 0 {
                s.insert(v - 1); // used here
            }
            s
        });
        assert!(fx.converged);
        // Before step 3, value 2 is live; before step 1, value 0 is live.
        assert_eq!(fx.outputs[3], std::iter::once(2).collect());
        assert_eq!(fx.outputs[1], std::iter::once(0).collect());
        assert_eq!(fx.outputs[0], BTreeSet::new());
    }

    #[test]
    fn max_lattice_propagates_peaks_forward() {
        let g = chain(4);
        let t = SrgFlow::new(&g).expect("acyclic");
        let fx = solve(&MaxLattice, &t, Direction::Forward, |v, input| {
            input.max(if v == 1 { 7.0 } else { 1.0 })
        });
        assert!(fx.converged);
        assert_eq!(fx.outputs[0], 1.0);
        assert_eq!(fx.outputs[3], 7.0);
    }

    #[test]
    fn srg_flow_follows_topo_order() {
        let mut g = Srg::new("flow");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "c"));
        g.connect(a, b, TensorMeta::new([4], ElemType::F32));
        g.connect(b, c, TensorMeta::new([4], ElemType::F32));
        let flow = SrgFlow::new(&g).expect("acyclic");
        assert_eq!(flow.len(), 3);
        let ia = flow.index_of(a).unwrap();
        let ic = flow.index_of(c).unwrap();
        assert!(ia < ic, "producer precedes consumer in topo order");
        assert_eq!(flow.node_at(ia), a);
        assert_eq!(flow.preds(ia), Vec::<usize>::new());

        // Downstream-of-`a` reachability via BoolOr, backward from c.
        let fx = solve(&BoolOrLattice, &flow, Direction::Backward, |v, down| {
            *down || flow.node_at(v) == c
        });
        assert!(fx.converged);
        assert!(fx.outputs[ia], "c is downstream of a");
    }

    #[test]
    fn non_monotone_transfer_hits_fuel_not_hang() {
        // Two mutually-dependent vertices plus a transfer function that
        // climbs an infinite ascending chain never stabilize; the fuel
        // cap must report non-convergence instead of spinning forever.
        struct Ring;
        impl FlowGraph for Ring {
            fn len(&self) -> usize {
                2
            }
            fn preds(&self, v: usize) -> Vec<usize> {
                vec![1 - v]
            }
            fn succs(&self, v: usize) -> Vec<usize> {
                vec![1 - v]
            }
        }
        let mut counter = 0.0;
        let fx = solve(&MaxLattice, &Ring, Direction::Forward, |_, _| {
            counter += 1.0;
            counter
        });
        assert!(!fx.converged);
        assert!(fx.iterations <= 64 * 2 + 64);
    }

    #[test]
    fn diamond_joins_both_branches() {
        let mut g = Srg::new("diamond");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let l = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "l"));
        let r = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "r"));
        let j = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "j"));
        let m = TensorMeta::new([4], ElemType::F32);
        g.connect(a, l, m.clone());
        g.connect(a, r, m.clone());
        g.connect(l, j, m.clone());
        g.connect(r, j, m);
        let flow = SrgFlow::new(&g).expect("acyclic");
        let fx = solve(&Sets, &flow, Direction::Forward, |v, input| {
            let mut s = input.clone();
            s.insert(v);
            s
        });
        assert!(fx.converged);
        let ij = flow.index_of(j).unwrap();
        let all = [a, l, r, j].map(|n| flow.index_of(n).unwrap());
        assert_eq!(fx.outputs[ij], all.into_iter().collect());
    }
}
