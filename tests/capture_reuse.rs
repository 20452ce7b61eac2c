//! A step whose capture matches the previous one re-traces it: same
//! graph, same lint verdicts, same tokens as a cold capture — and the
//! steps that do not match complete cold and become the next baseline.
//!
//! The reuse counters are process-global, so every test here holds
//! [`serial`] for its whole body.

use genie::analysis::{LintCode, LintConfig};
use genie::frontend::capture::{CaptureCtx, CapturedGraph};
use genie::frontend::{interp, RecaptureSession};
use genie::models::{KvState, TransformerConfig, TransformerLm};
use genie::srg::{ElemType, NodeId};
use std::sync::{Barrier, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `genie_capture_reuse_total` as `[miss, hit, diverged]`.
fn outcomes() -> [u64; 3] {
    ["miss", "hit", "diverged"].map(|outcome| {
        genie::telemetry::global()
            .metrics
            .counter("genie_capture_reuse_total", &[("outcome", outcome)])
            .get()
    })
}

/// Outcomes counted since `before` was read.
fn since(before: [u64; 3]) -> [u64; 3] {
    let now = outcomes();
    [0, 1, 2].map(|i| now[i] - before[i])
}

const MISS: [u64; 3] = [1, 0, 0];
const HIT: [u64; 3] = [0, 1, 0];
const DIVERGED: [u64; 3] = [0, 0, 1];

/// The `decode_small` benchmark model.
fn decode_small_config() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        d_model: 64,
        heads: 4,
        ffn_mult: 4,
        vocab: 512,
        ..TransformerConfig::tiny()
    }
}

/// Record one decode step plus its sampling into `ctx`; the nodes to run it for.
fn capture_decode(
    model: &TransformerLm,
    ctx: &CaptureCtx,
    token: i64,
    kv: &KvState,
) -> Vec<NodeId> {
    let cap = model.capture_decode_step(ctx, token, kv);
    let sampled = cap.logits.sample();
    sampled.mark_output();
    std::iter::once(&sampled)
        .chain(&cap.k_caches)
        .chain(&cap.v_caches)
        .map(|lt| lt.node)
        .collect()
}

/// Token and grown KV out of a step's executed outputs.
fn unpack(values: &[genie::frontend::Value], layers: usize) -> (i64, KvState) {
    let cache = |v: &genie::frontend::Value| v.as_f("kv cache").clone();
    let (k, v) = values[1..].split_at(layers);
    let kv = KvState {
        k: k.iter().map(cache).collect(),
        v: v.iter().map(cache).collect(),
    };
    (values[0].as_i("token").data()[0], kv)
}

/// One decode step the way it was done before reuse existed.
fn cold_decode(model: &TransformerLm, token: i64, kv: &KvState) -> (CapturedGraph, i64, KvState) {
    let ctx = CaptureCtx::new("decode");
    let wanted = capture_decode(model, &ctx, token, kv);
    let cap = ctx.finish();
    let values = interp::execute_outputs(&cap.srg, &cap.values, &wanted).expect("executes");
    let (token, kv) = unpack(&values, model.config.layers);
    (cap, token, kv)
}

#[test]
fn reused_steps_equal_cold_steps_token_for_token_and_graph_for_graph() {
    let _serial = serial();
    for config in [decode_small_config(), TransformerConfig::tiny()] {
        let model = TransformerLm::new_functional(config, 11);
        let prompt = [3, 1, 4, 1, 5, 9, 2, 6];
        let steps = 32;

        // Through the model's own sessions.
        let before = outcomes();
        let generated = model.generate(&prompt, steps + 1);
        assert_eq!(
            since(before),
            [2, steps as u64 - 1, 0],
            "one miss per phase"
        );

        // Through a session held here, next to a cold capture of each step.
        let (mut token, mut kv) = model.prefill_step(&prompt);
        let mut tokens = vec![token];
        let mut session = RecaptureSession::new();
        for step in 0..steps {
            let (cold, cold_token, cold_kv) = cold_decode(&model, token, &kv);
            let ctx = session.begin("decode");
            let wanted = capture_decode(&model, &ctx, token, &kv);
            let before = outcomes();
            let cap = session.finish(&ctx);
            assert_eq!(
                since(before),
                if step == 0 { MISS } else { HIT },
                "step {step}"
            );
            assert_eq!(cap.srg, cold.srg, "step {step}");
            assert_eq!(cap.values, cold.values, "step {step}");
            assert_eq!(cap.outputs, cold.outputs, "step {step}");
            let values = session.execute_outputs(&wanted).expect("executes");
            (token, kv) = unpack(&values, model.config.layers);
            assert_eq!(token, cold_token, "step {step}");
            assert_eq!((&kv.k, &kv.v), (&cold_kv.k, &cold_kv.v), "step {step}");
            tokens.push(token);
        }
        assert_eq!(tokens, generated);
    }
}

#[test]
fn a_plan_keeps_the_graph_it_was_scheduled_on_while_the_session_retraces_it() {
    use genie::cluster::{ClusterState, Topology};
    use genie::scheduler::{schedule, CostModel, SemanticsAware};
    let _serial = serial();
    let model = TransformerLm::new_functional(decode_small_config(), 11);
    let (topo, state, cost) = (
        Topology::paper_testbed(),
        ClusterState::new(),
        CostModel::ideal_25g(),
    );
    let (mut token, mut kv) = model.prefill_step(&[3, 1, 4, 1, 5, 9]);
    let mut session = RecaptureSession::new();
    let mut planned: Option<(genie::scheduler::ExecutionPlan, CapturedGraph)> = None;
    for step in 0..4 {
        let (cold, _, _) = cold_decode(&model, token, &kv);
        let ctx = session.begin("decode");
        let wanted = capture_decode(&model, &ctx, token, &kv);
        let before = outcomes();
        let cap = session.finish(&ctx);
        assert_eq!(since(before), if step == 0 { MISS } else { HIT });
        // The re-trace wrote to the graph the previous plan shares; the
        // write copied it, so the plan still holds the step it priced.
        if let Some((plan, cold_then)) = &planned {
            assert_eq!(plan.srg, cold_then.srg, "step {step}");
            assert_ne!(plan.srg, cap.srg, "step {step}: KV length moved");
        }
        let plan = schedule(&cap.srg, &topo, &state, &cost, &SemanticsAware::new());
        assert_eq!(plan.srg, cold.srg, "step {step}");
        planned = Some((plan, cold));
        let values = session.execute_outputs(&wanted).expect("executes");
        (token, kv) = unpack(&values, model.config.layers);
    }
}

#[test]
fn interleaved_requests_at_other_kv_lengths_all_hit() {
    let _serial = serial();
    let model = TransformerLm::new_functional(decode_small_config(), 11);
    let prompt = |len: usize| {
        (0..len as i64)
            .map(|i| (i * 37 + 5) % 512)
            .collect::<Vec<_>>()
    };
    // Three requests, prefilled to KV lengths 9, 14 and 23.
    let before = outcomes();
    let mut requests = [9, 14, 23].map(|len| model.prefill_step(&prompt(len)));
    assert_eq!(since(before), [1, 2, 0], "prompt length is not structure");
    model.decode_step(requests[0].0, &requests[0].1); // the decode phase's one miss

    for (turn, r) in [0, 1, 0, 2, 1, 2, 2, 0].into_iter().enumerate() {
        let (token, kv) = &requests[r];
        let (_, cold_token, cold_kv) = cold_decode(&model, *token, kv);
        let before = outcomes();
        let (next, grown) = model.decode_step(*token, kv);
        assert_eq!(since(before), HIT, "turn {turn}: KV length {}", kv.len());
        assert_eq!(next, cold_token, "turn {turn}");
        assert_eq!(grown.k, cold_kv.k, "turn {turn}");
        assert_eq!(grown.len(), kv.len() + 1);
        requests[r] = (next, grown);
    }
}

#[test]
fn batched_steps_hit_at_one_batch_size_and_diverge_once_when_it_changes() {
    let _serial = serial();
    let model = TransformerLm::new_functional(decode_small_config(), 11);
    let prompts = [vec![3i64, 1, 4], vec![1, 5, 9, 2, 6], vec![5, 3]];
    let refs: Vec<&[i64]> = prompts.iter().map(Vec::as_slice).collect();
    let mut batch = model.prefill_batch(&refs);
    let step = |batch: &mut Vec<(i64, KvState)>| {
        let members: Vec<(i64, &KvState)> = batch.iter().map(|(t, kv)| (*t, kv)).collect();
        let before = outcomes();
        *batch = model.decode_batch(&members);
        since(before)
    };
    assert_eq!(step(&mut batch), MISS, "the decode session's first step");
    for s in 0..4 {
        assert_eq!(step(&mut batch), HIT, "B = 3, step {s}");
    }
    batch.pop();
    assert_eq!(step(&mut batch), DIVERGED, "B = 3 -> 2");
    assert_eq!(step(&mut batch), HIT, "B = 2");
}

/// A region whose shape depends on `variant`: an extra `gelu` when it is
/// 1, and nothing after the `relu` when it is 2.
fn branching(ctx: &CaptureCtx, variant: usize, width: usize) {
    let x = ctx.input("x", [1, width], ElemType::F32, None);
    let mut h = ctx.scope("body", || x.relu());
    if variant == 2 {
        h.mark_output();
        return;
    }
    if variant == 1 {
        h = h.gelu();
    }
    h.add(&x).mark_output();
}

#[test]
fn a_branch_diverges_completes_cold_and_becomes_the_next_baseline() {
    let _serial = serial();
    let mut session = RecaptureSession::new();
    let expect = [
        (0, MISS),
        (0, HIT),
        (1, DIVERGED), // gelu where the add was
        (1, HIT),      // the new structure is what is compared next
        (0, DIVERGED), // add where the gelu was
        (2, DIVERGED), // stops short: a mismatch found at finish
        (2, HIT),
        (0, DIVERGED), // carries on past the end of the previous capture
    ];
    for (step, (variant, outcome)) in expect.into_iter().enumerate() {
        let width = 8 + step; // sizes move every step; they are not structure
        let cold = CaptureCtx::new("branching");
        branching(&cold, variant, width);
        let cold = cold.finish();

        let ctx = session.begin("branching");
        branching(&ctx, variant, width);
        let before = outcomes();
        let cap = session.finish(&ctx);
        assert_eq!(since(before), outcome, "step {step}");
        assert_eq!(cap.srg, cold.srg, "step {step}");
        assert_eq!(cap.outputs, cold.outputs, "step {step}");
        assert!(cap.values.is_empty());
    }
}

#[test]
fn a_deny_that_depends_on_size_is_reported_at_its_own_step() {
    let _serial = serial();
    // A matmul over zero rows carries zero FLOPs, which GA005 denies.
    let region = |ctx: &CaptureCtx, rows: usize| {
        let x = ctx.input("x", [rows, 16], ElemType::F32, None);
        let w = ctx.parameter("w", [16, 16], ElemType::F32, None);
        x.matmul(&w).mark_output();
    };
    let cfg = LintConfig::new();
    let mut session = RecaptureSession::new();
    let expect = [
        (4, MISS),
        (2, HIT),
        (0, HIT),  // re-traced in full, then denied by the gate
        (3, MISS), // the denied capture was dropped
        (1, HIT),
        (0, HIT),
    ];
    for (step, (rows, outcome)) in expect.into_iter().enumerate() {
        let cold = CaptureCtx::new("rows");
        region(&cold, rows);
        let cold = cold.finish_checked(&cfg);

        let ctx = session.begin("rows");
        region(&ctx, rows);
        let before = outcomes();
        let ours = session.finish_checked(&ctx, &cfg);
        assert_eq!(since(before), outcome, "step {step}");
        match (ours, cold) {
            (Ok(ours), Ok(cold)) => {
                assert!(rows > 0, "step {step}");
                assert_eq!(ours.srg, cold.srg, "step {step}");
            }
            (Err(ours), Err(cold)) => {
                assert_eq!(rows, 0, "step {step}");
                assert_eq!(ours.to_string(), cold.to_string(), "step {step}");
                assert!(
                    !ours.with_code(LintCode::ZeroFlopCompute).is_empty(),
                    "{ours}"
                );
            }
            _ => panic!("step {step}: re-traced and cold captures disagree on the gate"),
        }
    }
}

#[test]
fn two_threads_stepping_one_model_both_match_generate() {
    let _serial = serial();
    let model = TransformerLm::new_functional(decode_small_config(), 11);
    let steps = 24;
    let prompts = [
        vec![3i64, 1, 4, 1, 5, 9],
        vec![2i64, 7, 1, 8, 2, 8, 1, 8, 2, 8],
    ];
    let expected = prompts.each_ref().map(|p| model.clone().generate(p, steps));

    // Both threads leave the barrier into the same two sessions; whoever
    // finds one taken steps cold, and neither may notice.
    let start = Barrier::new(prompts.len());
    let got = std::thread::scope(|scope| {
        let handles = prompts.each_ref().map(|prompt| {
            let (model, start) = (&model, &start);
            scope.spawn(move || {
                start.wait();
                let (mut token, mut kv) = model.prefill_step(prompt);
                let mut tokens = vec![token];
                for _ in 1..steps {
                    // A batch of the request twice: both members step alike.
                    let twice = model.decode_batch(&[(token, &kv), (token, &kv)]);
                    let [a, b]: [(i64, KvState); 2] = twice.try_into().expect("two members");
                    assert_eq!((a.0, &a.1.k), (b.0, &b.1.k));
                    (token, kv) = a;
                    tokens.push(token);
                }
                tokens
            })
        });
        handles.map(|h| h.join().expect("stepping thread panicked"))
    });
    assert_eq!(got, expected);
}
