//! Regenerate `BENCH_serving.json`: the serving runtime's offered-load ×
//! fleet-size sweep at GPT-J scale — p50/p99 TTFT, aggregate tokens/s,
//! and shed rate per point, batched vs. unbatched decode.
//!
//! The sweep is entirely on the virtual clock (spec plane), so it runs in
//! milliseconds of wall time and is bit-deterministic: the artifact only
//! changes when the engine or the cost model does.
//!
//! Pass `--quick` (CI) for the 3-point load sweep on a single lane.
//!
//! Pass `--disagg` for the prefill/decode disaggregation frontier
//! instead: colocated fleets vs. equal-total-lane disaggregated fleets
//! (dedicated prefill lanes shipping KV prefixes over the 25 Gbps
//! fabric under the planner policy), written to `BENCH_disagg.json`.
//! The run asserts the disaggregated layout dominates the colocated one
//! (lower p50 TTFT at no worse aggregate tokens/s) on at least one
//! load × fleet point — the DistServe/Splitwise claim, reproduced on
//! the virtual clock.

use genie_bench::report::{render_table, write_artifact};
use genie_bench::workload::gptj_arrivals;
use genie_models::TransformerConfig;
use genie_serving::{DisaggConfig, ServingConfig, ServingLoop, ServingModel};
use genie_srg::json_object;

fn serving_config(lanes: u32, batched: bool) -> ServingConfig {
    ServingConfig {
        lanes,
        batched,
        kv_capacity_bytes: 16 << 30,
        max_queue: 1024,
        record_telemetry: false,
        ..ServingConfig::paper_testbed()
    }
}

fn disagg_main(quick: bool) {
    let loads: &[f64] = if quick {
        &[2.0, 4.0]
    } else {
        &[1.0, 2.0, 4.0, 6.0]
    };
    // Equal total lanes per fleet: `total` colocated lanes vs.
    // `total - 1` decode lanes + 1 dedicated prefill lane.
    let fleets: &[u32] = if quick { &[2] } else { &[2, 3] };
    let horizon_s = if quick { 4.0 } else { 10.0 };
    let model = TransformerConfig::gptj_6b();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut dominated = 0usize;
    for &total in fleets {
        for &load in loads {
            let requests = gptj_arrivals(42, load, horizon_s, (32, 96), 4);
            let colocated = ServingLoop::new(
                ServingModel::Spec(model.clone()),
                serving_config(total, true),
            )
            .run(&requests);
            let mut dconf = serving_config(total - 1, true);
            dconf.disagg = Some(DisaggConfig::paper_testbed(1));
            let disagg = ServingLoop::new(ServingModel::Spec(model.clone()), dconf).run(&requests);
            let point_dominates = disagg.ttft_p50() < colocated.ttft_p50()
                && disagg.tokens_per_s() >= 0.95 * colocated.tokens_per_s()
                && disagg.shed_rate() <= colocated.shed_rate();
            if point_dominates {
                dominated += 1;
            }
            for (mode, report) in [("colocated", &colocated), ("disagg", &disagg)] {
                table.push(vec![
                    format!("{load:.1}"),
                    total.to_string(),
                    mode.to_string(),
                    report.completed().to_string(),
                    format!("{:.1}", report.shed_rate() * 100.0),
                    format!("{:.1}", report.ttft_p50() * 1e3),
                    format!("{:.1}", report.ttft_p99() * 1e3),
                    format!("{:.0}", report.tokens_per_s()),
                    report.migrations.to_string(),
                    report.reprefills_planned.to_string(),
                ]);
            }
            let mode_json = |report: &genie_serving::ServingReport| {
                json_object! {
                    "requests": requests.len(),
                    "completed": report.completed(),
                    "shed_rate": report.shed_rate(),
                    "ttft_p50_s": report.ttft_p50(),
                    "ttft_p99_s": report.ttft_p99(),
                    "tokens_per_s": report.tokens_per_s(),
                    "makespan_s": report.makespan.as_secs_f64(),
                    "migrations": report.migrations,
                    "migrations_completed": report.migrations_completed,
                    "migrations_failed": report.migrations_failed,
                    "migrated_kv_bytes": report.migrated_kv_bytes,
                    "reprefills_planned": report.reprefills_planned,
                    "reprefills_evicted": report.reprefills_evicted,
                    "reprefills_migration": report.reprefills_migration,
                }
            };
            rows.push(json_object! {
                "offered_load_req_s": load,
                "total_lanes": total,
                "colocated": mode_json(&colocated),
                "disagg": mode_json(&disagg),
                "disagg_dominates": point_dominates,
            });
        }
    }

    assert!(
        dominated >= 1,
        "disaggregation must dominate colocated serving on at least one \
         load × fleet point of the frontier"
    );

    let artifact = json_object! {
        "bench": "disagg",
        "quick": quick,
        "model": "gptj_6b",
        "seed": 42u64,
        "policy": "planner",
        "fabric": json_object! { "bandwidth_bps": 25e9, "latency_s": 250e-6 },
        "dominated_points": dominated,
        "sweep": rows,
    };
    let path = write_artifact("BENCH_disagg", &artifact).expect("artifact written");

    println!(
        "{}",
        render_table(
            &[
                "load req/s",
                "lanes",
                "mode",
                "completed",
                "shed %",
                "ttft p50 ms",
                "ttft p99 ms",
                "tok/s",
                "migr",
                "replan"
            ],
            &table,
        )
    );
    println!(
        "disagg dominates colocated on {dominated} point(s); artifact: {}",
        path.display()
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--disagg") {
        disagg_main(quick);
        return;
    }
    let loads: &[f64] = if quick {
        &[0.5, 2.0, 4.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let fleets: &[u32] = if quick { &[1] } else { &[1, 2] };
    let horizon_s = if quick { 4.0 } else { 10.0 };
    let model = TransformerConfig::gptj_6b();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &lanes in fleets {
        for &load in loads {
            let requests = gptj_arrivals(42, load, horizon_s, (32, 96), 4);
            let mut per_mode = Vec::new();
            for batched in [true, false] {
                let report = ServingLoop::new(
                    ServingModel::Spec(model.clone()),
                    serving_config(lanes, batched),
                )
                .run(&requests);
                // Bucket-interpolated p99 alongside the exact
                // nearest-rank one: the histogram path is what live
                // metrics collection would report.
                let reg = genie_telemetry::MetricsRegistry::new();
                let hist =
                    reg.histogram("ttft_seconds", &[], &genie_telemetry::DEFAULT_TIME_BOUNDS);
                for t in report.ttfts() {
                    hist.observe(t);
                }
                let ttft_p99_hist = reg
                    .snapshot()
                    .histogram("ttft_seconds", &[])
                    .map_or(0.0, |h| h.quantile(0.99));
                per_mode.push(json_object! {
                    "batched": batched,
                    "requests": requests.len(),
                    "completed": report.completed(),
                    "shed_rate": report.shed_rate(),
                    "ttft_p50_s": report.ttft_p50(),
                    "ttft_p99_s": report.ttft_p99(),
                    "ttft_p99_hist_s": ttft_p99_hist,
                    "tokens_per_s": report.tokens_per_s(),
                    "makespan_s": report.makespan.as_secs_f64(),
                    "preemptions": report.preemptions,
                    "steps": report.steps,
                });
                table.push(vec![
                    format!("{load:.1}"),
                    lanes.to_string(),
                    if batched { "batched" } else { "unbatched" }.to_string(),
                    report.completed().to_string(),
                    format!("{:.1}", report.shed_rate() * 100.0),
                    format!("{:.1}", report.ttft_p50() * 1e3),
                    format!("{:.1}", report.ttft_p99() * 1e3),
                    format!("{:.0}", report.tokens_per_s()),
                ]);
            }
            rows.push(json_object! {
                "offered_load_req_s": load,
                "lanes": lanes,
                "modes": per_mode,
            });
        }
    }

    // Acceptance check: at offered load >= 4 req/s, continuous batching
    // must beat unbatched decode on aggregate tokens/s (weight reads are
    // amortized across the batch on a memory-bound decode step). Below
    // that an unbatched lane (~150 tok/s) keeps up with the offered load,
    // so both modes deliver it and tie to the bit.
    for row in &rows {
        let load = row["offered_load_req_s"].as_f64().unwrap();
        if load < 4.0 {
            continue;
        }
        let modes = row["modes"].as_array().unwrap();
        let tps_of = |want: bool| {
            modes
                .iter()
                .find(|m| m["batched"].as_bool() == Some(want))
                .and_then(|m| m["tokens_per_s"].as_f64())
                .unwrap_or(0.0)
        };
        assert!(
            tps_of(true) > tps_of(false),
            "load {load}: batched {} tok/s must beat unbatched {} tok/s",
            tps_of(true),
            tps_of(false)
        );
    }

    let artifact = json_object! {
        "bench": "serving",
        "quick": quick,
        "model": "gptj_6b",
        "seed": 42u64,
        "sweep": rows,
    };
    let path = write_artifact("BENCH_serving", &artifact).expect("artifact written");

    println!(
        "{}",
        render_table(
            &[
                "load req/s",
                "lanes",
                "mode",
                "completed",
                "shed %",
                "ttft p50 ms",
                "ttft p99 ms",
                "tok/s"
            ],
            &table,
        )
    );
    println!("artifact: {}", path.display());
}
