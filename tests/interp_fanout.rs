//! The interpreter fans a level out over the worker pool by cost, not
//! by count. Alone in its test binary, in one `#[test]`: the pool's
//! busy peak is process-global, and the interpreter drains it into the
//! `genie_worker_pool_busy` gauge at the end of every run.

use genie::frontend::capture::CaptureCtx;
use genie::frontend::{interp, RecaptureSession};
use genie::models::{TransformerConfig, TransformerLm};
use genie::srg::ElemType;
use genie::tensor::{init, pool};

/// Highest pool occupancy `run` caused (0 = nothing ran on the pool).
fn pool_peak_during(run: impl FnOnce()) -> f64 {
    let gauge = genie::telemetry::global()
        .metrics
        .gauge("genie_worker_pool_busy", &[]);
    pool::busy_peak_take();
    gauge.set(0.0);
    run();
    gauge.get()
}

fn transformer(d_model: usize) -> TransformerLm {
    let config = TransformerConfig {
        d_model,
        heads: 4,
        ffn_mult: 4,
        vocab: 512,
        ..TransformerConfig::tiny()
    };
    TransformerLm::new_functional(config, 11)
}

#[test]
fn levels_fan_out_by_cost_not_by_count() {
    // A `decode_small`-sized decode step: 55 nodes, levels up to ~25
    // wide, every kernel far below the parallel tier. Nothing may reach
    // the pool — neither a kernel nor a level.
    let small = transformer(64);
    let (token, kv) = small.prefill_step(&[3, 1, 4, 1, 5, 9, 2, 6]);
    let ctx = CaptureCtx::new("decode");
    small
        .capture_decode_step(&ctx, token, &kv)
        .logits
        .sample()
        .mark_output();
    let decode = ctx.finish();
    let widest = genie::srg::traverse::max_width(&decode.srg).expect("acyclic");
    assert!(widest >= 2, "the step has levels a count gate would ship");
    let peak = pool_peak_during(|| {
        interp::execute(&decode.srg, &decode.values).expect("decode executes");
        interp::execute_outputs(&decode.srg, &decode.values, &decode.outputs)
            .expect("decode executes");
    });
    assert_eq!(peak, 0.0, "a cheap step stays off the pool");

    if pool::size() == 0 {
        return; // single core: nothing ever fans out
    }

    // Four independent half-threshold matmuls: each below the kernels'
    // parallel tier, together above the level gate — only level fan-out
    // can put them on the pool.
    let ctx = CaptureCtx::new("four_matmuls");
    let x = ctx.input("x", [64, 64], ElemType::F32, Some(init::randn([64, 64], 1)));
    for i in 0..4u64 {
        let w = ctx.parameter(
            "w",
            [64, 64],
            ElemType::F32,
            Some(init::randn([64, 64], 2 + i)),
        );
        x.matmul(&w).mark_output();
    }
    let wide = ctx.finish();
    let peak = pool_peak_during(|| {
        interp::execute(&wide.srg, &wide.values).expect("executes");
    });
    assert!(peak >= 1.0, "a costly level fans out (peak {peak})");
    let peak = pool_peak_during(|| {
        interp::execute_sequential(&wide.srg, &wide.values).expect("executes");
    });
    assert_eq!(peak, 0.0, "the sequential reference never touches the pool");

    // The same four matmuls as two steps of one session, few rows and
    // then many: the second step re-traces the first and runs on its
    // plan, and the gate still reads the FLOPs the graph states now.
    let mut session = RecaptureSession::new();
    let reuse_hits = genie::telemetry::global()
        .metrics
        .counter("genie_capture_reuse_total", &[("outcome", "hit")]);
    for (rows, fans_out) in [(8, false), (64, true)] {
        let ctx = session.begin("four_matmuls");
        let x = ctx.input(
            "x",
            [rows, 64],
            ElemType::F32,
            Some(init::randn([rows, 64], 1)),
        );
        let outputs: Vec<_> = (0..4u64)
            .map(|i| {
                let w = init::randn([64, 64], 2 + i);
                let y = x.matmul(&ctx.parameter("w", [64, 64], ElemType::F32, Some(w)));
                y.mark_output();
                y.node
            })
            .collect();
        let hits_before = reuse_hits.get();
        session.finish(&ctx);
        assert_eq!(reuse_hits.get() - hits_before, fans_out as u64);
        let peak = pool_peak_during(|| {
            session.execute_outputs(&outputs).expect("executes");
        });
        assert_eq!(peak >= 1.0, fans_out, "{rows} rows: peak {peak}");
    }

    // A d_model-256, 128-token prefill still uses the pool.
    let big = transformer(256);
    let prompt: Vec<i64> = (0..128).map(|i| (i * 13) % 512).collect();
    let ctx = CaptureCtx::new("prefill");
    big.capture_prefill(&ctx, &prompt).logits.mark_output();
    let prefill = ctx.finish();
    let peak = pool_peak_during(|| {
        interp::execute(&prefill.srg, &prefill.values).expect("prefill executes");
    });
    assert!(peak >= 1.0, "a wide prefill fans out (peak {peak})");
}
