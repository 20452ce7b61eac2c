//! Golden suite for causal blame analysis.
//!
//! Three pins:
//!
//! 1. **Bit-stability** — the pinned-seed blame report serializes to
//!    the same bytes on every run (the whole causal pipeline is a pure
//!    function of the request trace + config).
//! 2. **Fault attribution** — a chaos fault schedule surfaces as
//!    `fault` blame, not inflated `compute` blame: the roofline compute
//!    nanoseconds of a chaotic run stay within the fault-free run's
//!    envelope.
//! 3. **What-if soundness** — replaying the chaos trace with zero
//!    faults predicts a latency no worse than observed, and the
//!    identity scenario reproduces observed TTLT exactly.

use genie::models::TransformerConfig;
use genie::netsim::{FaultPlan, FaultSpec, Nanos};
use genie::serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel, ServingReport};
use genie::telemetry::causal::{self, WhatIf};

fn requests() -> Vec<genie::serving::ServingRequest> {
    ArrivalConfig {
        seed: 42,
        rate_per_s: 4.0,
        horizon: Nanos::from_secs_f64(3.0),
        prompt_len: (16, 48),
        decode_tokens: (8, 24),
        vocab: 50400,
        tenants: 3,
    }
    .generate()
}

fn run(fault_plan: Option<FaultPlan>) -> ServingReport {
    let mut config = ServingConfig::paper_testbed();
    config.max_batch = 4;
    config.fault_plan = fault_plan;
    config.record_telemetry = false;
    ServingLoop::new(ServingModel::Spec(TransformerConfig::gptj_6b()), config)
        .run_audited(&requests())
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        29,
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

#[test]
fn pinned_seed_blame_is_bit_stable() {
    let a = causal::analyze(&run(None).causal_doc());
    let b = causal::analyze(&run(None).causal_doc());
    assert!(!a.requests.is_empty(), "pinned seed must complete requests");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "same-seed blame must render byte-identically"
    );
    for r in &a.requests {
        assert!(
            (r.fractions.sum() - 1.0).abs() < 1e-6,
            "request {} fractions sum to {}",
            r.request,
            r.fractions.sum()
        );
        assert_eq!(r.blame.total_ns(), r.ttlt_ns);
        assert_eq!(r.critical_path.first().unwrap().start_ns, r.arrival_ns);
        assert_eq!(r.critical_path.last().unwrap().end_ns, r.finished_ns);
    }
}

#[test]
fn chaos_is_blamed_to_fault_not_compute() {
    let clean = causal::analyze(&run(None).causal_doc());
    let chaos = causal::analyze(&run(Some(chaos_plan())).causal_doc());

    let fault_ns: u64 = chaos.requests.iter().map(|r| r.blame.fault_ns).sum();
    assert!(fault_ns > 0, "chaos run must accrue fault blame");
    let clean_fault_ns: u64 = clean.requests.iter().map(|r| r.blame.fault_ns).sum();
    assert_eq!(clean_fault_ns, 0, "fault-free run accrues no fault blame");

    // Compute blame is roofline time, which faults cannot inflate: the
    // worst per-step compute cost is bounded by the full-batch step, so
    // mean per-step compute in the chaotic run stays within 2x of the
    // clean run's (the chaotic run may batch differently, not slower).
    let mean_step_compute = |r: &causal::BlameReport| {
        let compute: u64 = r
            .requests
            .iter()
            .map(|b| b.blame.compute_prefill_ns + b.blame.compute_decode_ns)
            .sum();
        let steps: usize = r.requests.iter().map(|b| b.critical_path.len()).sum();
        compute as f64 / steps.max(1) as f64
    };
    assert!(
        mean_step_compute(&chaos) < 2.0 * mean_step_compute(&clean),
        "fault time must not leak into compute blame"
    );
}

#[test]
fn migrate_blame_is_attributed_and_tiles_the_lifetime() {
    // Disaggregated run with every prefix shipped: `kv.migrate` spans
    // carry request attribution, and migration wire time surfaces as
    // its own blame category while each request's blamed nanoseconds
    // still tile [arrival, finished] exactly.
    use genie::serving::{DisaggConfig, MigrationPolicy};

    let run_disagg = || {
        let mut config = ServingConfig::paper_testbed();
        config.max_batch = 4;
        config.record_telemetry = false;
        let mut d = DisaggConfig::paper_testbed(1);
        d.policy = MigrationPolicy::AlwaysShip;
        config.disagg = Some(d);
        ServingLoop::new(ServingModel::Spec(TransformerConfig::gptj_6b()), config)
            .run_audited(&requests())
    };
    let report = run_disagg();
    assert!(report.migrations > 0, "AlwaysShip must migrate prefixes");

    // Every kv.migrate span names its request and the fabric endpoints.
    let migrate_spans: Vec<_> = report
        .spans()
        .into_iter()
        .filter(|s| s.name == "kv.migrate")
        .collect();
    assert_eq!(
        migrate_spans.len() as u64,
        report.migrations,
        "one kv.migrate span per migration"
    );
    let mut attributed = std::collections::BTreeSet::new();
    for s in &migrate_spans {
        let request = s.attrs.request.expect("kv.migrate span names a request");
        attributed.insert(request);
        for key in ["from_lane", "to_lane", "bytes", "outcome"] {
            assert!(
                s.attrs.extra.iter().any(|(k, _)| k == key),
                "kv.migrate span for request {request} is missing `{key}`"
            );
        }
    }

    let blame = causal::analyze(&report.causal_doc());
    let migrate_ns: u64 = blame.requests.iter().map(|r| r.blame.migrate_ns).sum();
    assert!(migrate_ns > 0, "shipped prefixes must accrue migrate blame");
    for r in &blame.requests {
        assert!(
            (r.fractions.sum() - 1.0).abs() < 1e-6,
            "request {} fractions sum to {}",
            r.request,
            r.fractions.sum()
        );
        assert_eq!(
            r.blame.total_ns(),
            r.ttlt_ns,
            "request {}: blame (migrate included) must tile its lifetime",
            r.request
        );
        if r.blame.migrate_ns > 0 {
            assert!(
                attributed.contains(&r.request),
                "request {} accrued migrate blame without a kv.migrate span",
                r.request
            );
        }
    }

    // The disaggregated blame pipeline is bit-stable under replay.
    let again = causal::analyze(&run_disagg().causal_doc());
    assert_eq!(blame, again, "same-seed disagg blame must be identical");
}

#[test]
fn zero_fault_what_if_bounds_the_chaos_run() {
    let chaos = causal::analyze(&run(Some(chaos_plan())).causal_doc());
    for r in &chaos.requests {
        assert_eq!(
            WhatIf::observed().replay(r),
            r.ttlt_ns,
            "identity replay reproduces observed TTLT"
        );
        assert!(
            WhatIf::zero_faults().replay(r) <= r.ttlt_ns,
            "removing faults can only help"
        );
        assert!(
            WhatIf::infinite_lanes().replay(r) <= r.ttlt_ns,
            "removing queueing can only help"
        );
    }
    let delta = causal::what_if(&chaos, "zero_faults", &WhatIf::zero_faults());
    assert!(
        delta.predicted_mean_ns <= delta.observed_mean_ns,
        "aggregate zero-fault prediction must not exceed observed"
    );
    assert!(delta.speedup >= 1.0);
}
