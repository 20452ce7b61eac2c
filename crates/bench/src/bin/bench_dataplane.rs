//! Regenerate `BENCH_dataplane.json`: before/after numbers for the
//! data-plane overhaul — kernel dispatch paths (scalar reference vs
//! cache-blocked vs parallel), zero-copy tensor plumbing, wavefront vs
//! sequential interpretation, and the scheduler's kernel-time cache.
//!
//! Pass `--quick` (CI) to shrink problem sizes and repetition counts.
//! Timing is hand-rolled (`std::time::Instant` medians): the workspace
//! has no benchmark framework and this binary ships with the crate.

use genie_bench::report::{render_table, write_artifact};
use genie_cluster::{ClusterState, Topology};
use genie_frontend::capture::CaptureCtx;
use genie_frontend::interp;
use genie_models::{KvState, TransformerConfig, TransformerLm};
use genie_scheduler::{schedule, CostModel, SemanticsAware};
use genie_srg::{json::Value, json_object};
use genie_tensor::stats::{self, Path};
use genie_tensor::{init, ops};
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f` (after one warmup).
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn matmul_section(quick: bool) -> (Value, Vec<Vec<String>>) {
    let sizes: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[128, 256, 512]
    };
    let reps = if quick { 2 } else { 5 };
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &n in sizes {
        let a = init::randn([n, n], 1);
        let b = init::randn([n, n], 2);
        // Each tier checked against the scalar reference, then timed.
        let reference = ops::matmul_scalar(&a, &b);
        let [scalar, blocked, parallel] = [Path::Scalar, Path::Blocked, Path::Parallel].map(|p| {
            assert_eq!(reference.data(), ops::matmul_on(p, &a, &b).data(), "{p:?}");
            median_secs(reps, || ops::matmul_on(p, &a, &b).len())
        });
        let speedup_blocked = scalar / blocked.max(1e-12);
        let speedup_parallel = scalar / parallel.max(1e-12);
        table.push(vec![
            format!("{n}x{n}"),
            format!("{:.1}", scalar * 1e3),
            format!("{:.1}", blocked * 1e3),
            format!("{:.1}", parallel * 1e3),
            format!("{speedup_blocked:.2}x"),
            format!("{speedup_parallel:.2}x"),
        ]);
        rows.push(json_object! {
            "size": n,
            "scalar_s": scalar,
            "blocked_s": blocked,
            "parallel_s": parallel,
            "speedup_blocked": speedup_blocked,
            "speedup_parallel": speedup_parallel,
        });
    }
    (Value::from(rows), table)
}

/// The simd tier alone on perfbench's `matmul_gflops_wide` shape: the
/// number that moves with the artifact's `isa`.
fn simd_wide_section(quick: bool) -> Value {
    let (a, b) = (init::randn([128, 256], 3), init::randn([256, 1024], 4));
    let reps = if quick { 5 } else { 15 };
    let simd = median_secs(reps, || ops::matmul_on(Path::Simd, &a, &b).len());
    let gflops = 2.0 * (128 * 256 * 1024) as f64 / simd.max(1e-12) / 1e9;
    json_object! { "shape": "[128,256]x[256,1024]", "simd_s": simd, "simd_gflops": gflops }
}

fn zero_copy_section(quick: bool) -> Value {
    let n = if quick { 512 } else { 1024 };
    let reps = if quick { 100 } else { 1000 };
    let t = init::randn([n, n], 3);
    let clone = median_secs(reps, || t.clone().len());
    let reshape = median_secs(reps, || t.reshaped([n * n]).len());
    let deep = median_secs(reps, || {
        genie_tensor::Tensor::from_vec([n, n], t.data().to_vec()).len()
    });
    json_object! {
        "elements": n * n,
        "clone_s": clone,
        "reshaped_s": reshape,
        "deep_copy_s": deep,
        "clone_speedup_vs_deep_copy": deep / clone.max(1e-12),
    }
}

fn interp_section(quick: bool) -> Value {
    let model = TransformerLm::new_functional(TransformerConfig::tiny(), 7);
    let prompt: Vec<i64> = (0..if quick { 8 } else { 24 }).collect();
    let ctx = CaptureCtx::new("prefill");
    let cap = model.capture_prefill(&ctx, &prompt);
    cap.logits.mark_output();
    let logits_node = cap.logits.node;
    let captured = ctx.finish();

    // Wavefront must agree with the sequential oracle exactly.
    let seq = interp::execute_sequential(&captured.srg, &captured.values).unwrap();
    let wave = interp::execute(&captured.srg, &captured.values).unwrap();
    assert_eq!(seq[&logits_node], wave[&logits_node]);

    let reps = if quick { 3 } else { 10 };
    let sequential = median_secs(reps, || {
        interp::execute_sequential(&captured.srg, &captured.values)
            .unwrap()
            .len()
    });
    let wavefront = median_secs(reps, || {
        interp::execute(&captured.srg, &captured.values)
            .unwrap()
            .len()
    });
    let outputs_only = median_secs(reps, || {
        interp::execute_outputs(&captured.srg, &captured.values, &[logits_node])
            .unwrap()
            .len()
    });
    json_object! {
        "graph": "transformer_tiny_prefill",
        "nodes": captured.srg.node_count(),
        "prompt_tokens": prompt.len(),
        "sequential_s": sequential,
        "wavefront_s": wavefront,
        "wavefront_outputs_only_s": outputs_only,
        "wavefront_speedup": sequential / wavefront.max(1e-12),
    }
}

fn decode_section(quick: bool) -> Value {
    // Decode-throughput workload: a functional transformer sized so the
    // per-step kernels land in the SIMD tier (d_model=64, ffn=256), run
    // through greedy generation — per-step capture plus wavefront
    // interpretation, i.e. the full eager data plane.
    let mut config = TransformerConfig::tiny();
    config.layers = 2;
    config.d_model = 64;
    config.heads = 4;
    config.vocab = 512;
    config.ffn_mult = 4;
    let model = TransformerLm::new_functional(config, 11);
    let prompt: Vec<i64> = (1..9).collect();
    let steps = if quick { 12 } else { 48 };
    let reps = if quick { 3 } else { 5 };

    // Best-of-N wall clock: the max over reps approximates uncontended
    // speed on a loaded host better than the median does, and throughput
    // gates care about what the machine *can* do.
    let mut tokens_per_s = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(model.generate(&prompt, steps).len());
        tokens_per_s = tokens_per_s.max(steps as f64 / t0.elapsed().as_secs_f64());
    }

    // Machine calibration: a fixed scalar matmul timed the same way.
    // `normalized_tokens_per_calib` (tokens per calibration-matmul-time)
    // cancels host speed to first order, so the committed baseline
    // transfers across machines.
    let ca = init::randn([96, 96], 21);
    let cb = init::randn([96, 96], 22);
    let mut calibration_s = f64::INFINITY;
    for _ in 0..reps.max(3) {
        let t0 = Instant::now();
        std::hint::black_box(ops::matmul_scalar(&ca, &cb).len());
        calibration_s = calibration_s.min(t0.elapsed().as_secs_f64());
    }

    json_object! {
        "workload": "greedy decode: layers=2 d_model=64 heads=4 ffn=256 vocab=512",
        "quick": quick,
        "steps": steps,
        "tokens_per_s": tokens_per_s,
        "calibration_scalar_matmul96_s": calibration_s,
        "normalized_tokens_per_calib": tokens_per_s * calibration_s,
    }
}

/// Compare this run's decode throughput against the committed baseline
/// (`BENCH_dataplane.baseline.json`, overridable via
/// `GENIE_BENCH_BASELINE`). Fails on a >10% regression of the
/// calibration-normalized tokens/s.
fn check_baseline(decode: &Value) -> Result<String, String> {
    let path = std::env::var("GENIE_BENCH_BASELINE")
        .unwrap_or_else(|_| "BENCH_dataplane.baseline.json".to_string());
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("baseline {path} unreadable: {e} (run --update-baseline to pin)"))?;
    let base =
        genie_srg::json::parse(&text).map_err(|e| format!("baseline {path} unparsable: {e}"))?;
    if base["decode"]["quick"] != decode["quick"] {
        return Err(format!(
            "baseline {path} was pinned in quick={} mode but this run is quick={}; \
             re-run in the matching mode",
            base["decode"]["quick"], decode["quick"]
        ));
    }
    let base_norm = base["decode"]["normalized_tokens_per_calib"]
        .as_f64()
        .ok_or_else(|| format!("baseline {path} lacks decode.normalized_tokens_per_calib"))?;
    let norm = decode["normalized_tokens_per_calib"]
        .as_f64()
        .unwrap_or(0.0);
    if norm < base_norm * 0.9 {
        return Err(format!(
            "decode throughput regressed: normalized {norm:.4} < 90% of baseline {base_norm:.4} \
             ({path})"
        ));
    }
    Ok(format!(
        "baseline gate OK: normalized {norm:.4} vs baseline {base_norm:.4} (floor {:.4})",
        base_norm * 0.9
    ))
}

/// Rewrite the committed baseline from this run's numbers.
fn update_baseline(decode: &Value) -> std::io::Result<()> {
    let path = std::env::var("GENIE_BENCH_BASELINE")
        .unwrap_or_else(|_| "BENCH_dataplane.baseline.json".to_string());
    let baseline = json_object! {
        "bench": "dataplane",
        "method": "best-of-N greedy-decode tokens/s, normalized by a scalar 96x96x96 \
                   matmul timed in the same process; gate fails below 90% of \
                   normalized_tokens_per_calib. Re-pin with --update-baseline.",
        "decode": decode.clone(),
    };
    std::fs::write(&path, format!("{baseline:#}\n"))
}

fn cost_cache_section(quick: bool) -> Value {
    // GPT-J decode-step graph: the per-request planning workload.
    let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let ctx = CaptureCtx::new("decode");
    let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
    cap.logits.sample().mark_output();
    let srg = ctx.finish().srg;

    let topo = Topology::rack(4, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let policy = SemanticsAware::new();

    cost.clear_cache();
    let t0 = Instant::now();
    std::hint::black_box(
        schedule(&srg, &topo, &state, &cost, &policy)
            .transfers
            .len(),
    );
    let cold = t0.elapsed().as_secs_f64();
    let reps = if quick { 3 } else { 10 };
    let warm = median_secs(reps, || {
        schedule(&srg, &topo, &state, &cost, &policy)
            .transfers
            .len()
    });
    let cache = cost.cache_stats();
    json_object! {
        "graph": "gptj_6b_decode_step",
        "nodes": srg.node_count(),
        "cold_schedule_s": cold,
        "warm_schedule_s": warm,
        "warm_speedup": cold / warm.max(1e-12),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_entries": cache.entries,
        "cache_hit_rate": cache.hit_rate(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--check-baseline");
    let pin = args.iter().any(|a| a == "--update-baseline");
    let before = stats::snapshot();

    let (matmul, matmul_table) = matmul_section(quick);
    let simd_wide = simd_wide_section(quick);
    let zero_copy = zero_copy_section(quick);
    let interp_cmp = interp_section(quick);
    let decode = decode_section(quick);
    let cost_cache = cost_cache_section(quick);

    let after = stats::snapshot().since(&before);
    let dispatch: Vec<Value> = after
        .cells()
        .into_iter()
        .map(|(op, path, n)| json_object! { "op": op, "path": path, "calls": n })
        .collect();
    let by_tier: Vec<Value> = after
        .by_path()
        .into_iter()
        .map(|(path, n)| json_object! { "tier": path, "calls": n })
        .collect();

    let artifact = json_object! {
        "bench": "dataplane",
        "quick": quick,
        "matmul": matmul,
        "zero_copy": zero_copy,
        "interp": interp_cmp,
        "decode": decode,
        "cost_cache": cost_cache,
        "kernel_dispatch": dispatch,
        "dispatch_by_tier": by_tier,
        "isa": stats::isa(),
        "simd_wide": simd_wide,
        "worker_pool": json_object! {
            "size": genie_tensor::pool::size(),
            "threads_spawned": genie_tensor::pool::threads_spawned(),
            "busy_peak": genie_tensor::pool::busy_peak_take(),
        },
    };
    let path = write_artifact("BENCH_dataplane", &artifact).expect("artifact written");
    let (interp_cmp, decode) = (&artifact["interp"], &artifact["decode"]);
    let cost_cache = &artifact["cost_cache"];

    println!(
        "{}",
        render_table(
            &[
                "matmul",
                "scalar ms",
                "blocked ms",
                "parallel ms",
                "blocked x",
                "parallel x"
            ],
            &matmul_table,
        )
    );
    println!(
        "interp tiny-prefill: sequential {:.2} ms, wavefront {:.2} ms ({:.2}x)",
        interp_cmp["sequential_s"].as_f64().unwrap_or(0.0) * 1e3,
        interp_cmp["wavefront_s"].as_f64().unwrap_or(0.0) * 1e3,
        interp_cmp["wavefront_speedup"].as_f64().unwrap_or(0.0),
    );
    println!(
        "cost cache: cold {:.2} ms, warm {:.2} ms ({:.2}x), hit rate {:.1}%",
        cost_cache["cold_schedule_s"].as_f64().unwrap_or(0.0) * 1e3,
        cost_cache["warm_schedule_s"].as_f64().unwrap_or(0.0) * 1e3,
        cost_cache["warm_speedup"].as_f64().unwrap_or(0.0),
        cost_cache["cache_hit_rate"].as_f64().unwrap_or(0.0) * 100.0,
    );
    println!(
        "decode: {:.0} tokens/s (normalized {:.4}), pool {} threads, isa {} ({:.1} GFLOP/s simd)",
        decode["tokens_per_s"].as_f64().unwrap_or(0.0),
        decode["normalized_tokens_per_calib"]
            .as_f64()
            .unwrap_or(0.0),
        genie_tensor::pool::size(),
        stats::isa(),
        artifact["simd_wide"]["simd_gflops"].as_f64().unwrap_or(0.0),
    );
    let tier_mix: Vec<String> = artifact["dispatch_by_tier"]
        .as_array()
        .map(|rows| {
            rows.iter()
                .map(|r| format!("{}={}", r["tier"].as_str().unwrap_or("?"), r["calls"]))
                .collect()
        })
        .unwrap_or_default();
    println!("dispatch tiers: {}", tier_mix.join(" "));
    println!("artifact: {}", path.display());

    if pin {
        update_baseline(decode).expect("baseline written");
        println!("baseline pinned to BENCH_dataplane.baseline.json");
    }
    if gate {
        match check_baseline(decode) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }
}
