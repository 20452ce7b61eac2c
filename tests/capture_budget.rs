//! Allocation budgets of the control path.
//!
//! A counting global allocator counts the heap allocations this thread
//! makes and the bytes it holds. The re-traced step: from `RecaptureSession::begin` through
//! `finish` (the `GA0xx`/`GA3xx` gate included, which runs in full on
//! every step) for one lane-step of `decode_small`'s model at B = 1 and
//! B = 4 members. The cold path: one GPT-J decode graph captured afresh
//! and carried through annotation, validation, both lint gates,
//! scheduling and simulation, as `compile_zoo` does. The held graph:
//! the bytes per node one finished GPT-J decode capture keeps. Counts are
//! deterministic where timings are not, so the bounds are the counts
//! measured when they were set. Debug builds also record every re-trace
//! cold into a shadow graph and check more, so the bounds hold in
//! `--release` only (CI's release test step runs them).

use genie::analysis::{run_srg_passes, LintConfig};
use genie::backend::simulate_once;
use genie::cluster::{ClusterState, Topology};
use genie::frontend::capture::CaptureCtx;
use genie::frontend::{annotate, patterns, RecaptureSession};
use genie::models::{KvState, TransformerConfig, TransformerLm};
use genie::netsim::RpcParams;
use genie::scheduler::{schedule_with_lints, CostModel, SemanticsAware};
use genie::srg::Phase;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `grown` bytes net of `freed` (a thread being
/// torn down has no counters left to bump).
fn count(grown: usize, freed: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + grown as i64 - freed as i64));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// `decode_small`'s model (perfbench's `workloads::decode_small`).
fn decode_small_model() -> TransformerLm {
    let mut c = TransformerConfig::tiny();
    c.layers = 2;
    c.d_model = 64;
    c.heads = 4;
    c.ffn_mult = 4;
    c.vocab = 512;
    TransformerLm::new_functional(c, 11)
}

/// Allocations in record + finish of a re-traced decode step of `b`
/// members, each at KV 16: the steps before it have the same structure,
/// so every call of the measured one matches the previous capture.
fn retraced_step_allocations(model: &TransformerLm, b: usize) -> u64 {
    let prompt: Vec<i64> = (0..16).collect();
    let (token, kv) = model.prefill_step(&prompt);
    let members: Vec<(&[i64], &KvState)> = vec![(std::slice::from_ref(&token), &kv); b];
    let mut session = RecaptureSession::new();
    let mut step = || {
        // The span ring keeps its capacity across drains, so only the
        // first steps grow it.
        drop(genie::telemetry::global().collector.drain());
        let before = allocations();
        let ctx = session.begin("decode");
        let caps = model.capture_batch(&ctx, Phase::LlmDecode, &members);
        let wanted = ctx.phase_scope(Phase::LlmDecode, || {
            let mut wanted = Vec::with_capacity(caps.len() * (1 + 2 * model.config.layers));
            for cap in &caps {
                let sampled = cap.logits.sample();
                sampled.mark_output();
                wanted.push(sampled.node);
                wanted.extend(cap.k_caches.iter().chain(&cap.v_caches).map(|t| t.node));
            }
            wanted
        });
        drop(caps);
        session.finish(&ctx);
        let spent = allocations() - before;
        drop(ctx);
        session
            .execute_outputs(&wanted)
            .expect("decode step executes");
        spent
    };
    for _ in 0..3 {
        step();
    }
    step()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds also record every re-trace cold; run with --release"
)]
fn a_retraced_decode_step_records_and_lints_within_its_allocation_budget() {
    let model = decode_small_model();
    for (b, budget) in [(1, B1_BUDGET), (4, B4_BUDGET)] {
        let spent = retraced_step_allocations(&model, b);
        assert!(
            spent <= budget,
            "B = {b}: record + finish made {spent} allocations, budget {budget}"
        );
    }
}

/// The counts measured when the budget was set (and re-measured, equal,
/// once node names, module paths and attributes were held in place: the
/// hit path compares them and builds none); the same steps made 191
/// (B = 1) and 388 (B = 4) before the hit path stopped allocating.
const B1_BUDGET: u64 = 29;
const B4_BUDGET: u64 = 37;

/// Allocations of one pass of `compile_zoo`'s `gptj_decode` family, from
/// `CaptureCtx::new` to the simulated plan, after three passes have
/// warmed the cost model's memo and the span ring.
fn cold_gptj_decode_allocations() -> u64 {
    let lm = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let (policy, lints) = (SemanticsAware::new(), LintConfig::new());
    let pass = || {
        drop(genie::telemetry::global().collector.drain());
        let before = allocations();
        let ctx = CaptureCtx::new("gptj_decode");
        let cap = lm.capture_decode_step(&ctx, 7, &KvState::default());
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        drop(cap);
        let mut srg = ctx.finish().srg;
        drop(ctx);
        patterns::run_all(&mut srg);
        annotate::finalize(&mut srg, 1e-3);
        assert!(srg.validate_all().is_ok());
        let report = run_srg_passes(&srg, &lints);
        let plan = schedule_with_lints(&srg, &topo, &state, &cost, &policy, &lints);
        let sim = simulate_once(&plan, &topo, &cost, RpcParams::tensorpipe_python());
        let spent = allocations() - before;
        assert!(!report.has_deny() && sim.makespan_s > 0.0);
        spent
    };
    for _ in 0..3 {
        pass();
    }
    pass()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds check more and allocate more; run with --release"
)]
fn a_cold_gptj_decode_graph_compiles_within_its_allocation_budget() {
    let spent = cold_gptj_decode_allocations();
    assert!(
        spent <= COLD_BUDGET,
        "capture to simulation made {spent} allocations, budget {COLD_BUDGET}"
    );
}

/// The count measured when the budget was set. The same pass made 1 222
/// while the simulator registered every pinned upload as a resident
/// object in a cluster state it then dropped; 1 349 while a spec capture
/// bound every empty KV cache a zero-row `Tensor`;
/// 3 415 while each node owned its name, module path and attributes as
/// heap `String`s in a `BTreeMap`, every kernel trace event cloned its
/// node's name and the recognizers collected sets; and 5 706 while
/// validation, criticality and the plan lints kept ordered maps keyed by
/// ids, every trace event cloned its plan label and each adjacency list
/// was a `Vec`.
const COLD_BUDGET: u64 = 1_175;

/// Bytes per node that one finished GPT-J decode capture holds: what
/// dropping the held `CapturedGraph` frees, so span records the capture
/// left in the process-global collector do not count as graph.
fn held_gptj_decode_bytes_per_node() -> f64 {
    let lm = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let capture = || {
        let ctx = CaptureCtx::new("gptj_decode");
        let cap = lm.capture_decode_step(&ctx, 7, &KvState::default());
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        drop(cap);
        ctx.finish()
    };
    drop(capture());
    let held = capture();
    let nodes = held.srg.node_count();
    let before = live_bytes();
    drop(held);
    (before - live_bytes()) as f64 / nodes as f64
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the bound is measured on release builds; run with --release"
)]
fn a_held_gptj_decode_capture_stays_within_its_bytes_per_node() {
    let per_node = held_gptj_decode_bytes_per_node();
    assert!(
        per_node <= HELD_BYTES_PER_NODE,
        "a held capture keeps {per_node:.1} B per node, budget {HELD_BYTES_PER_NODE}"
    );
}

/// The bytes per node measured when the bound was set (653 nodes; 463.9,
/// rounded up to the next tenth). The same capture held 472.5 B per node
/// while it bound every empty KV cache a zero-row `Tensor`, and 528.0
/// while each node owned its name, module path and attribute strings on
/// the heap. Upstream Genie reports about 250 B per node.
const HELD_BYTES_PER_NODE: f64 = 464.0;
