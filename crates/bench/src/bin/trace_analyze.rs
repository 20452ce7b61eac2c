//! Regenerate `BENCH_blame.json`: per-request critical-path blame for a
//! pinned-seed serving run, with and without a chaos fault schedule,
//! plus what-if speedup bounds (2x link bandwidth, zero faults,
//! infinite lanes).
//!
//! This is the "where did my latency go?" harness: every completed
//! request's lifetime is tiled into queue / compute / transfer / fault /
//! re-prefill nanoseconds that sum to its TTLT *exactly*, and the
//! artifact fails loudly (asserts) if any invariant breaks:
//!
//! - blame fractions sum to 1 ± 1e-6 for every request;
//! - the critical path tiles `[arrival, finished]` with no gaps;
//! - the zero-fault what-if never predicts slower than observed;
//! - same-seed reruns produce a byte-identical blame report.
//!
//! Entirely on the virtual clock (spec plane): milliseconds of wall
//! time, bit-deterministic output.

use genie_bench::report::{render_table, write_artifact};
use genie_bench::workload::gptj_arrivals;
use genie_models::TransformerConfig;
use genie_netsim::{FaultPlan, FaultSchedule, FaultSpec, Nanos};
use genie_serving::{
    DisaggConfig, MigrationPolicy, ServingConfig, ServingLoop, ServingModel, ServingReport,
};
use genie_srg::{json::Value, json_object};
use genie_telemetry::causal::{self, BlameFractions, BlameReport, WhatIf};

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

const SEED: u64 = 42;
const CHAOS_SEED: u64 = 7;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        CHAOS_SEED,
        FaultSchedule {
            specs: vec![
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
        },
    )
}

/// Serve the pinned trace under `fault_plan`, colocated or — the
/// disaggregated scenario — behind `disagg`.
fn run(fault_plan: Option<FaultPlan>, disagg: Option<DisaggConfig>) -> ServingReport {
    let requests = gptj_arrivals(SEED, 4.0, 4.0, (16, 48), 4);
    let config = ServingConfig {
        max_batch: 4,
        fault_plan,
        disagg,
        record_telemetry: false,
        ..ServingConfig::paper_testbed()
    };
    ServingLoop::new(ServingModel::Spec(TransformerConfig::gptj_6b()), config).run(&requests)
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

fn main() {
    let baseline = run(None, None);
    let chaos = run(Some(chaos_plan()), None);
    // One prefill lane shipping every KV prefix to the decode lane, so
    // `kv.migrate` wire time shows up as its own blame category.
    let disagg = run(
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
    let rerun = analyze_checked("chaos-rerun", &run(Some(chaos_plan()), None));
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

    let artifact = json_object! {
        "bench": "blame",
        "seed": SEED,
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
    };
    let path = write_artifact("BENCH_blame", &artifact).expect("artifact written");

    println!(
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
    println!("artifact: {}", path.display());
}
