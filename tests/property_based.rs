//! Property-based tests over the platform's core invariants — as seeded
//! loops. A case is a function of its index alone, and a failing case
//! prints the index that reproduces it.

use genie::netsim::XorShift64;
use genie::prelude::*;
use genie::srg::traverse;
use genie::tensor::{ops, Tensor};

/// Cases per property.
const CASES: u64 = 48;

/// One case's draws; a panic while it is alive names the index.
struct Case {
    index: u64,
    rng: XorShift64,
}

impl Case {
    fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Case { index, rng }
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.next_below((hi - lo) as u64) as usize
    }

    /// A random capture: `levels_lo..levels_hi` levels, each `1..width_hi`
    /// wide, and a drawn edge seed.
    fn capture(
        &mut self,
        width_hi: usize,
        levels_lo: usize,
        levels_hi: usize,
    ) -> genie::frontend::CapturedGraph {
        let widths = (0..self.int(levels_lo, levels_hi))
            .map(|_| self.int(1, width_hi))
            .collect();
        random_capture(widths, self.rng.next_u64())
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

/// Build a random layered DAG capture: `widths` nodes per level, each
/// consuming 1–2 values from the previous level.
fn random_capture(widths: Vec<usize>, edges_seed: u64) -> genie::frontend::CapturedGraph {
    let ctx = CaptureCtx::new("prop");
    let mut prev: Vec<genie::frontend::LazyTensor> = (0..widths[0].max(1))
        .map(|i| {
            ctx.input(
                &format!("in{i}"),
                [2, 2],
                ElemType::F32,
                Some(genie::tensor::init::randn([2, 2], i as u64)),
            )
        })
        .collect();
    let mut rng = edges_seed;
    let mut next_u = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    for w in widths.iter().skip(1) {
        let mut level = Vec::new();
        for _ in 0..(*w).max(1) {
            let a = &prev[next_u() % prev.len()];
            let node = match next_u() % 3 {
                0 => a.relu(),
                1 => a.gelu(),
                _ => {
                    let b = &prev[next_u() % prev.len()];
                    a.add(b)
                }
            };
            level.push(node);
        }
        prev = level;
    }
    for t in &prev {
        t.mark_output();
    }
    ctx.finish()
}

/// Every random capture is a valid SRG with a consistent topo order.
#[test]
fn captures_always_validate() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let cap = case.capture(5, 1, 6);
        assert!(genie::srg::validate::validate(&cap.srg).is_empty());
        let order = traverse::topo_order(&cap.srg).unwrap();
        assert_eq!(order.len(), cap.srg.node_count());
        // Topological property: every edge goes forward in the order.
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for e in cap.srg.edges() {
            assert!(pos[&e.src] < pos[&e.dst]);
        }
    }
}

/// Interpreting a capture is deterministic and total for valid graphs.
#[test]
fn interpretation_is_deterministic() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let cap = case.capture(4, 1, 5);
        let a = genie::frontend::interp::execute(&cap.srg, &cap.values).unwrap();
        let b = genie::frontend::interp::execute(&cap.srg, &cap.values).unwrap();
        for (k, v) in &a {
            assert_eq!(v, &b[k]);
        }
    }
}

/// Scheduling places every node and never loses transfers, for any
/// policy and any graph.
#[test]
fn schedule_total_and_consistent() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let cap = case.capture(4, 1, 5);
        let topo = Topology::rack(case.int(1, 5), 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        for policy in [
            &RoundRobin as &dyn Policy,
            &DataAware,
            &SemanticsAware::new(),
        ] {
            let plan = genie::scheduler::schedule(&cap.srg, &topo, &state, &cost, policy);
            assert_eq!(plan.placements.len(), cap.srg.node_count());
            // Transfers reference real edges and cross locations.
            for t in &plan.transfers {
                let e = plan.srg.edge(t.edge);
                assert!(plan.location(e.src) != plan.location(e.dst));
            }
        }
    }
}

/// Tensor algebra invariants under random data.
#[test]
fn tensor_invariants() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let (rows, cols, seed) = (case.int(1, 6), case.int(1, 6), case.rng.next_u64());
        let a = genie::tensor::init::randn([rows, cols], seed);
        // Transpose is an involution.
        assert_eq!(ops::transpose2d(&ops::transpose2d(&a)), a.clone());
        // Softmax rows sum to 1.
        let s = ops::softmax_lastdim(&a);
        for r in 0..rows {
            let sum: f32 = s.data()[r * cols..(r + 1) * cols].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        // relu is idempotent.
        let r1 = ops::relu(&a);
        assert_eq!(ops::relu(&r1), r1.clone());
        // concat then narrow is identity.
        let b = genie::tensor::init::randn([rows, cols], seed ^ 1);
        let cat = ops::concat(&a, &b, 0);
        assert_eq!(ops::narrow(&cat, 0, 0, rows), a);
        assert_eq!(ops::narrow(&cat, 0, rows, rows), b);
    }
}

/// Matmul distributes over addition: (A+B)·C = A·C + B·C.
#[test]
fn matmul_distributes() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let (n, seed) = (case.int(1, 5), case.rng.next_u64());
        let a = genie::tensor::init::randn([n, n], seed);
        let b = genie::tensor::init::randn([n, n], seed ^ 2);
        let c = genie::tensor::init::randn([n, n], seed ^ 3);
        let lhs = ops::matmul(&ops::add(&a, &b), &c);
        let rhs = ops::add(&ops::matmul(&a, &c), &ops::matmul(&b, &c));
        assert!(lhs.approx_eq(&rhs, 1e-3));
    }
}

/// Wire codec round-trips arbitrary payloads: any bit pattern, with the
/// non-finite ones replaced by zero.
#[test]
fn transport_payload_roundtrip() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let finite: Vec<f32> = (0..case.int(0, 64))
            .map(|_| f32::from_bits(case.rng.next_u64() as u32))
            .map(|x| if x.is_finite() { x } else { 0.0 })
            .collect();
        let n = finite.len();
        let p = genie::transport::TensorPayload::from_f32(vec![n], &finite);
        let req = genie::transport::Request {
            id: 1,
            body: genie::transport::RequestBody::Upload { key: 9, tensor: p },
            trace: None,
        };
        let back = genie::transport::Request::decode(req.encode().unwrap()).unwrap();
        assert_eq!(back, req);
    }
}

/// SRG JSON serialization round-trips any capture.
#[test]
fn srg_json_roundtrip() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let cap = case.capture(4, 1, 4);
        let json = genie::srg::serialize::to_json(&cap.srg).unwrap();
        let back = genie::srg::serialize::from_json(&json).unwrap();
        assert_eq!(back.node_count(), cap.srg.node_count());
        assert_eq!(back.edge_count(), cap.srg.edge_count());
        let j2 = genie::srg::serialize::to_json(&back).unwrap();
        assert_eq!(json, j2);
    }
}

#[test]
fn tensor_zeros_shape_edge_cases() {
    // Deterministic edge cases outside the seeded loops.
    let empty = Tensor::zeros(vec![0usize, 4]);
    assert_eq!(empty.len(), 0);
    let grown = ops::concat(&empty, &Tensor::ones([1, 4]), 0);
    assert_eq!(grown.dims(), &[1, 4]);
}
