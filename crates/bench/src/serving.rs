//! The serving engine's benches: the load × fleet sweep, the
//! disaggregation frontier, sharded decode and critical-path blame. All
//! run on the virtual clock (spec plane), so each takes milliseconds of
//! wall time and is bit-deterministic: an artifact only changes when the
//! engine or the cost model does.

use crate::report::{render_table, Report};
use crate::workload::{gptj_arrivals, serve};
use genie_backend::{batched_step_time, sharded_step_time, StepWork};
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_netsim::{FaultPlan, FaultSpec, Nanos};
use genie_serving::{DisaggConfig, MigrationPolicy, ServingConfig, ServingReport};
use genie_srg::shard::ShardSpec;
use genie_srg::{json::Value, json_object};
use genie_telemetry::causal::{self, BlameFractions, BlameReport, WhatIf};

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

/// `BENCH_serving.json`: the serving runtime's offered-load × fleet-size
/// sweep at GPT-J scale — p50/p99 TTFT, aggregate tokens/s, and shed rate
/// per point, batched vs. unbatched decode. Asserts that batching beats
/// unbatched decode on tokens/s at every load ≥ 4 req/s.
pub fn bench_serving() -> Report {
    let model = TransformerConfig::gptj_6b();
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for lanes in [1u32, 2] {
        for load in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let requests = gptj_arrivals(42, load, 10.0, (32, 96), 4);
            let mut per_mode = Vec::new();
            for batched in [true, false] {
                let report = serve(&model, serving_config(lanes, batched), &requests);
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

    // At offered load >= 4 req/s, continuous batching must beat
    // unbatched decode on aggregate tokens/s (weight reads are amortized
    // across the batch on a memory-bound decode step). Below that an
    // unbatched lane (~150 tok/s) keeps up with the offered load, so both
    // modes deliver it and tie to the bit.
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

    let mut r = Report::default();
    r.artifact(
        "BENCH_serving",
        json_object! {
            "bench": "serving",
            "model": "gptj_6b",
            "seed": 42u64,
            "sweep": rows,
        },
    );
    writeln!(
        r,
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
    r
}

/// `BENCH_disagg.json`: the prefill/decode disaggregation frontier —
/// colocated fleets vs. equal-total-lane disaggregated fleets (dedicated
/// prefill lanes shipping KV prefixes over the 25 Gbps fabric under the
/// planner policy). Asserts that the disaggregated layout dominates the
/// colocated one (lower p50 TTFT at no worse aggregate tokens/s) on at
/// least one load × fleet point — the DistServe/Splitwise claim,
/// reproduced on the virtual clock.
pub fn bench_disagg() -> Report {
    let model = TransformerConfig::gptj_6b();
    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut dominated = 0usize;
    // Equal total lanes per fleet: `total` colocated lanes vs.
    // `total - 1` decode lanes + 1 dedicated prefill lane.
    for total in [2u32, 3] {
        for load in [1.0, 2.0, 4.0, 6.0] {
            let requests = gptj_arrivals(42, load, 10.0, (32, 96), 4);
            let colocated = serve(&model, serving_config(total, true), &requests);
            let mut dconf = serving_config(total - 1, true);
            dconf.disagg = Some(DisaggConfig::paper_testbed(1));
            let disagg = serve(&model, dconf, &requests);
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
            let mode_json = |report: &ServingReport| {
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

    let mut r = Report::default();
    r.artifact(
        "BENCH_disagg",
        json_object! {
            "bench": "disagg",
            "model": "gptj_6b",
            "seed": 42u64,
            "policy": "planner",
            "fabric": json_object! { "bandwidth_bps": 25e9, "latency_s": 250e-6 },
            "dominated_points": dominated,
            "sweep": rows,
        },
    );
    writeln!(
        r,
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
    writeln!(r, "disagg dominates colocated on {dominated} point(s)");
    r
}

/// Steady-state decode step of [`bench_sharding`]: a full continuous
/// batch, every member one token in, 64 tokens of KV resident each.
const DECODE_MEMBERS: u64 = 8;
const KV_PER_MEMBER: u64 = 64;

/// Device-to-device fabric latency for the sharding sweep: a rack-scale
/// accelerator fabric (NVLink/ICI class), not the paper's 250 us
/// network-attached testbed — that contrast is the `paper_fabric`
/// section.
const FABRIC_LATENCY_S: f64 = 5e-6;

/// Client-facing link (token/logit traffic), identical in every layout
/// so the comparison isolates the fabric.
const CLIENT: Link = Link::PAPER_TESTBED;

fn decode_work() -> StepWork {
    StepWork {
        decode_members: DECODE_MEMBERS,
        kv_resident_tokens: DECODE_MEMBERS * KV_PER_MEMBER,
        ..StepWork::default()
    }
}

/// Decode tokens/s of one priced step of a lane sharded as `spec` over
/// `fabric`: members over the barrier time (compute + client link +
/// collectives).
fn tokens_per_s(cfg: &TransformerConfig, (spec, fabric): (ShardSpec, Link)) -> (f64, f64, f64) {
    let work = decode_work();
    let gpu = GpuSpec::a100_80gb();
    let (cost, collective_s, _) =
        sharded_step_time(cfg, &work, &gpu, &CLIENT, true, &spec, &fabric);
    let step_s = cost.total_s() + collective_s;
    (work.tokens_produced() as f64 / step_s, step_s, collective_s)
}

fn sharding_serving_section(cfg: &TransformerConfig) -> Value {
    let requests = gptj_arrivals(42, 4.0, 2.0, (32, 96), 2);
    // One rack link serves as the client link and as the fabric.
    let rack = Link::new(100e9, FABRIC_LATENCY_S);
    let config = |shard| {
        let mut c = ServingConfig::paper_testbed();
        c.max_batch = DECODE_MEMBERS as usize;
        c.client = rack;
        c.record_telemetry = false;
        c.shard = shard;
        c
    };
    let flat = serve(cfg, config(None), &requests);
    let tp2 = config(Some((ShardSpec::tensor(2), rack)));
    let sharded = serve(cfg, tp2, &requests);
    assert_eq!(flat.completed(), requests.len(), "flat run must complete");
    assert_eq!(
        sharded.completed(),
        requests.len(),
        "sharded run must complete"
    );
    assert!(
        sharded.makespan < flat.makespan,
        "end-to-end: tensor(2) on the 100 Gbps fabric must drain the \
         batch sooner than one device ({:?} vs {:?})",
        sharded.makespan,
        flat.makespan
    );
    json_object! {
        "spec": "pp1xtp2",
        "fabric_gbps": 100.0,
        "requests": requests.len(),
        "flat_makespan_s": flat.makespan.as_secs_f64(),
        "sharded_makespan_s": sharded.makespan.as_secs_f64(),
        "flat_tokens_per_s": flat.tokens_per_s(),
        "sharded_tokens_per_s": sharded.tokens_per_s(),
    }
}

/// `BENCH_sharding.json`: scaling efficiency of sharded GPT-J decode
/// versus device-to-device fabric bandwidth.
///
/// For each shard layout (tensor-parallel, pipeline, combined) the sweep
/// prices one steady-state decode step with
/// `genie_backend::sharded_step_time` across fabric bandwidths — each
/// lane the `(ShardSpec, Link)` pair `ServingConfig::shard` holds — and
/// reports decode tokens/s, speedup over the single-device oracle, and
/// scaling efficiency (`speedup / devices`). A `serving` section
/// cross-checks the step-cost curve end to end: the serving loop runs the
/// same shard spec behind `ServingConfig::shard` and must finish a fixed
/// request batch sooner than the flat single-device lane.
///
/// The report asserts every headline claim:
///
/// - efficiency is monotone non-decreasing in fabric bandwidth for every
///   layout (the collective wire term is the only bandwidth-dependent
///   cost);
/// - at least one multi-device layout beats single-device decode
///   tokens/s outright;
/// - 2-way tensor parallelism holds efficiency >= 0.6 at 100 Gbps (the
///   CI jq gate re-checks this from the shipped schema);
/// - on the paper testbed's 250 us fabric the same layout *loses* to one
///   device — per-layer collective latency swamps the split weight
///   stream. Disaggregation changed the meaning of "2x devices".
pub fn bench_sharding() -> Report {
    let layouts: &[(u32, u32)] = &[(1, 2), (1, 4), (2, 1), (4, 1), (2, 2)];
    let cfg = TransformerConfig::gptj_6b();

    // Single-device oracle: same step, no fabric in the price.
    let work = decode_work();
    let base = batched_step_time(
        &cfg,
        &work,
        &GpuSpec::a100_80gb(),
        CLIENT.bandwidth_bps,
        CLIENT.latency_s,
        true,
    );
    let single_tps = work.tokens_produced() as f64 / base.total_s();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut beats_single = 0usize;
    for &(pp, tp) in layouts {
        let lane = ShardSpec::new(pp, tp);
        let (spec, shards) = (lane.label(), lane.shards());
        let mut prev_eff = f64::NEG_INFINITY;
        for gbps in [10.0, 25.0, 50.0, 100.0, 200.0] {
            let fabric = Link::new(gbps * 1e9, FABRIC_LATENCY_S);
            let (tps, step_s, collective_s) = tokens_per_s(&cfg, (lane, fabric));
            let speedup = tps / single_tps;
            let efficiency = speedup / shards as f64;
            assert!(
                efficiency >= prev_eff,
                "{spec}: efficiency must be monotone in fabric bandwidth \
                 ({efficiency} at {gbps} Gbps after {prev_eff})"
            );
            prev_eff = efficiency;
            if tps > single_tps {
                beats_single += 1;
            }
            table.push(vec![
                spec.clone(),
                shards.to_string(),
                format!("{gbps:.0}"),
                format!("{:.2}", step_s * 1e3),
                format!("{:.0}", collective_s * 1e6),
                format!("{tps:.0}"),
                format!("{speedup:.2}x"),
                format!("{:.2}", efficiency),
            ]);
            rows.push(json_object! {
                "spec": spec.clone(),
                "pipeline_stages": pp,
                "tensor_parallel": tp,
                "shards": shards,
                "fabric_gbps": gbps,
                "step_s": step_s,
                "collective_s": collective_s,
                "tokens_per_s": tps,
                "speedup": speedup,
                "efficiency": efficiency,
            });
        }
    }

    assert!(
        beats_single >= 1,
        "at least one multi-device layout must beat single-device decode \
         tokens/s ({single_tps:.0})"
    );
    let tp2_at_100 = rows
        .iter()
        .find(|r| r["spec"].as_str() == Some("pp1xtp2") && r["fabric_gbps"].as_f64() == Some(100.0))
        .expect("sweep must include pp1xtp2 at 100 Gbps");
    assert!(
        tp2_at_100["efficiency"].as_f64().unwrap() >= 0.6,
        "2-way tensor parallelism must hold efficiency >= 0.6 at 100 Gbps"
    );

    // The paper's fabric: same 2-way split, 250 us device-to-device
    // latency. 56 collective rounds per step price in at ~14 ms against
    // a ~3 ms stage — the split loses outright.
    let paper_lane = (ShardSpec::tensor(2), Link::PAPER_TESTBED);
    let (paper_tps, paper_step_s, paper_collective_s) = tokens_per_s(&cfg, paper_lane);
    assert!(
        paper_tps < single_tps,
        "on the 250 us network-attached fabric, tensor(2) must lose to \
         one device ({paper_tps:.0} vs {single_tps:.0} tok/s)"
    );

    let serving = sharding_serving_section(&cfg);

    let mut r = Report::default();
    r.artifact(
        "BENCH_sharding",
        json_object! {
            "bench": "sharding",
            "model": "gptj_6b",
            "seed": 42u64,
            "work": json_object! {
                "decode_members": DECODE_MEMBERS,
                "kv_resident_tokens": DECODE_MEMBERS * KV_PER_MEMBER,
            },
            "fabric_latency_s": FABRIC_LATENCY_S,
            "single_tokens_per_s": single_tps,
            "sweep": rows,
            "paper_fabric": json_object! {
                "spec": paper_lane.0.label(),
                "fabric_gbps": paper_lane.1.bandwidth_bps / 1e9,
                "fabric_latency_s": paper_lane.1.latency_s,
                "step_s": paper_step_s,
                "collective_s": paper_collective_s,
                "tokens_per_s": paper_tps,
                "speedup": paper_tps / single_tps,
            },
            "serving": serving,
        },
    );
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "layout",
                "devices",
                "fabric Gbps",
                "step ms",
                "collective us",
                "tok/s",
                "speedup",
                "efficiency"
            ],
            &table,
        )
    );
    writeln!(
        r,
        "single device: {single_tps:.0} tok/s; paper fabric tp2: {paper_tps:.0} tok/s"
    );
    r
}

/// Render blame fractions field by field — the schema the CI jq gate
/// sums over, so every category (including `collective`) must appear.
fn fractions_json(f: &BlameFractions) -> Value {
    json_object! {
        "queue": f.queue,
        "compute": f.compute,
        "transfer": f.transfer,
        "fault": f.fault,
        "reprefill": f.reprefill,
        "migrate": f.migrate,
        "collective": f.collective,
    }
}

const BLAME_SEED: u64 = 42;
const CHAOS_SEED: u64 = 7;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        CHAOS_SEED,
        vec![
            FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.25,
            },
            FaultSpec::Jitter {
                a: 0,
                b: 1,
                max: Nanos::from_millis(2),
            },
        ],
    )
}

/// Serve the pinned blame trace under `fault_plan`, colocated or — the
/// disaggregated scenario — behind `disagg`.
fn blame_run(fault_plan: Option<FaultPlan>, disagg: Option<DisaggConfig>) -> ServingReport {
    let requests = gptj_arrivals(BLAME_SEED, 4.0, 4.0, (16, 48), 4);
    let config = ServingConfig {
        max_batch: 4,
        fault_plan,
        disagg,
        record_telemetry: false,
        ..ServingConfig::paper_testbed()
    };
    serve(&TransformerConfig::gptj_6b(), config, &requests)
}

/// Analyze one scenario and enforce every blame invariant.
fn analyze_checked(label: &str, report: &ServingReport) -> BlameReport {
    let blame = causal::analyze(&report.causal_doc());
    for r in &blame.requests {
        let sum = r.fractions.sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "{label}: request {} blame fractions sum to {sum}, not 1",
            r.request
        );
        assert_eq!(
            r.blame.total_ns(),
            r.ttlt_ns,
            "{label}: request {} blamed ns must equal TTLT",
            r.request
        );
        let first = r.critical_path.first().expect("non-empty path");
        let last = r.critical_path.last().expect("non-empty path");
        assert_eq!(
            first.start_ns, r.arrival_ns,
            "{label}: path starts at arrival"
        );
        assert_eq!(
            last.end_ns, r.finished_ns,
            "{label}: path ends at completion"
        );
        for w in r.critical_path.windows(2) {
            assert_eq!(
                w[0].end_ns, w[1].start_ns,
                "{label}: request {} critical path has a gap",
                r.request
            );
        }
        assert!(
            WhatIf::zero_faults().replay(r) <= r.ttlt_ns,
            "{label}: zero-fault replay must not predict slower than observed"
        );
    }
    blame
}

/// Aggregate mean fractions over a blame report (by total ns, so long
/// requests weigh more — this is "where did the *time* go").
fn mean_fractions(blame: &BlameReport) -> (f64, f64, f64, f64, f64, f64) {
    let total: u64 = blame.requests.iter().map(|r| r.ttlt_ns).sum();
    if total == 0 {
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }
    let t = total as f64;
    let sum = |f: &dyn Fn(&causal::BlameBreakdown) -> u64| -> f64 {
        blame.requests.iter().map(|r| f(&r.blame)).sum::<u64>() as f64 / t
    };
    (
        sum(&|b| b.queue_ns),
        sum(&|b| b.compute_prefill_ns + b.compute_decode_ns),
        sum(&|b| b.transfer_ns()),
        sum(&|b| b.fault_ns),
        sum(&|b| b.reprefill_ns),
        sum(&|b| b.migrate_ns),
    )
}

fn scenario_json(blame: &BlameReport, report: &ServingReport) -> Value {
    let what_ifs = [
        causal::what_if(blame, "observed", &WhatIf::observed()),
        causal::what_if(blame, "link_bandwidth_2x", &WhatIf::link_bandwidth(2.0)),
        causal::what_if(blame, "zero_faults", &WhatIf::zero_faults()),
        causal::what_if(blame, "infinite_lanes", &WhatIf::infinite_lanes()),
    ];
    json_object! {
        "completed": blame.requests.len(),
        "shed": blame.shed,
        "profile_p50": fractions_json(&blame.profile_p50),
        "profile_p99": fractions_json(&blame.profile_p99),
        "what_if": what_ifs.iter().map(|w| json_object! {
            "scenario": w.scenario.clone(),
            "observed_mean_ns": w.observed_mean_ns,
            "predicted_mean_ns": w.predicted_mean_ns,
            "speedup": w.speedup,
        }).collect::<Vec<_>>(),
        "slo": json_object! {
            "per_tenant": report.slo.per_tenant.iter().map(|(t, s)| json_object! {
                "tenant": *t,
                "observed": s.observed,
                "violations": s.violations,
                "burn_rate": s.burn_rate,
            }).collect::<Vec<_>>(),
        },
    }
}

/// `BENCH_blame.json`: per-request critical-path blame for a pinned-seed
/// serving run, with and without a chaos fault schedule, plus what-if
/// speedup bounds (2x link bandwidth, zero faults, infinite lanes).
///
/// This is the "where did my latency go?" harness: every completed
/// request's lifetime is tiled into queue / compute / transfer / fault /
/// re-prefill nanoseconds that sum to its TTLT *exactly*, and the report
/// asserts every invariant:
///
/// - blame fractions sum to 1 ± 1e-6 for every request;
/// - the critical path tiles `[arrival, finished]` with no gaps;
/// - the zero-fault what-if never predicts slower than observed;
/// - same-seed reruns produce a byte-identical blame report.
pub fn trace_analyze() -> Report {
    let baseline = blame_run(None, None);
    let chaos = blame_run(Some(chaos_plan()), None);
    // One prefill lane shipping every KV prefix to the decode lane, so
    // `kv.migrate` wire time shows up as its own blame category.
    let disagg = blame_run(
        None,
        Some(DisaggConfig {
            policy: MigrationPolicy::AlwaysShip,
            ..DisaggConfig::paper_testbed(1)
        }),
    );

    let baseline_blame = analyze_checked("baseline", &baseline);
    let chaos_blame = analyze_checked("chaos", &chaos);
    let disagg_blame = analyze_checked("disagg", &disagg);

    // Determinism: a same-seed rerun must reproduce the blame report
    // byte for byte.
    let rerun = analyze_checked("chaos-rerun", &blame_run(Some(chaos_plan()), None));
    assert_eq!(
        chaos_blame, rerun,
        "same-seed blame reports must be bit-identical"
    );

    // The chaos schedule must actually surface as fault blame.
    let chaos_fault_ns: u64 = chaos_blame.requests.iter().map(|r| r.blame.fault_ns).sum();
    assert!(
        chaos_fault_ns > 0,
        "chaos run produced no fault-attributed time"
    );

    // And shipped KV prefixes must surface as migrate blame.
    let migrate_ns: u64 = disagg_blame
        .requests
        .iter()
        .map(|r| r.blame.migrate_ns)
        .sum();
    assert!(
        migrate_ns > 0,
        "disagg run produced no migration-attributed time"
    );

    let mut table = Vec::new();
    for (label, blame) in [
        ("baseline", &baseline_blame),
        ("chaos", &chaos_blame),
        ("disagg", &disagg_blame),
    ] {
        let (queue, compute, transfer, fault, reprefill, migrate) = mean_fractions(blame);
        let zero_faults = causal::what_if(blame, "zero_faults", &WhatIf::zero_faults());
        let bw2 = causal::what_if(blame, "bw2x", &WhatIf::link_bandwidth(2.0));
        table.push(vec![
            label.to_string(),
            blame.requests.len().to_string(),
            format!("{:.1}", queue * 100.0),
            format!("{:.1}", compute * 100.0),
            format!("{:.1}", transfer * 100.0),
            format!("{:.1}", fault * 100.0),
            format!("{:.1}", reprefill * 100.0),
            format!("{:.1}", migrate * 100.0),
            format!("{:.2}x", zero_faults.speedup),
            format!("{:.2}x", bw2.speedup),
        ]);
    }

    let mut r = Report::default();
    r.artifact(
        "BENCH_blame",
        json_object! {
            "bench": "blame",
            "seed": BLAME_SEED,
            "chaos_seed": CHAOS_SEED,
            "model": "gptj_6b",
            // Per-request blame for the chaos run: the CI schema gate
            // checks these fractions sum to 1 ± 1e-6.
            "requests": chaos_blame.requests.iter().map(|r| json_object! {
                "request": r.request,
                "ttlt_ns": r.ttlt_ns,
                "fractions": fractions_json(&r.fractions),
            }).collect::<Vec<_>>(),
            "baseline": scenario_json(&baseline_blame, &baseline),
            "chaos": scenario_json(&chaos_blame, &chaos),
            "disagg": scenario_json(&disagg_blame, &disagg),
        },
    );
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "scenario",
                "completed",
                "queue %",
                "compute %",
                "transfer %",
                "fault %",
                "reprefill %",
                "migrate %",
                "zero-fault",
                "2x link"
            ],
            &table,
        )
    );
    r
}
