//! Telemetry is a projection of the report — and only when asked for.
//!
//! The collector and registry are process-global, so this is the only
//! test in its binary: a disaggregated, planner-priced run with
//! `record_telemetry = false` must leave both untouched (the planner's
//! `kv.plan` instant used to leak regardless of the flag), and the same
//! run with the flag on must return the same report and publish exactly
//! its projections.

use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{
    ArrivalConfig, DisaggConfig, EventKind, ServingConfig, ServingLoop, ServingModel,
};
use genie_telemetry::SpanRecord;

#[test]
fn telemetry_is_off_when_off_and_equals_the_report_when_on() {
    let model = TransformerConfig::gptj_6b();
    let requests = ArrivalConfig {
        seed: 17,
        rate_per_s: 30.0,
        horizon: Nanos::from_secs_f64(1.5),
        prompt_len: (8, 96),
        decode_tokens: (4, 24),
        vocab: model.vocab,
        tenants: 2,
    }
    .generate();
    let mut config = ServingConfig::paper_testbed();
    config.kv_capacity_bytes = model.kv_bytes_per_token() * 400;
    config.disagg = Some(DisaggConfig::paper_testbed(1));
    let run = |record_telemetry: bool| {
        let mut config = config.clone();
        config.record_telemetry = record_telemetry;
        ServingLoop::new(ServingModel::Spec(model.clone()), config).run_audited(&requests)
    };
    let t = genie_telemetry::global();

    let quiet = run(false);
    assert!(
        quiet.migrations > 0 && quiet.reprefills_planned > 0,
        "the planner must have priced both ways: {} shipped, {} recomputed",
        quiet.migrations,
        quiet.reprefills_planned
    );
    assert!(quiet.preemptions > 0, "the KV budget must force evictions");
    assert!(
        t.collector.is_empty(),
        "an unrecorded run wrote {} records to the global collector",
        t.collector.len()
    );
    let snap = t.metrics.snapshot();
    assert!(
        !snap.render_prometheus().contains("genie_serving_"),
        "an unrecorded run registered serving metrics"
    );

    let report = run(true);
    assert_eq!(report.events, quiet.events, "recording moved an event");
    assert_eq!(report.slices, quiet.slices, "recording moved a slice");
    assert_eq!(report.outcomes, quiet.outcomes);
    assert!(
        report == quiet,
        "recording moved a counter, makespan or SLO"
    );
    let snap = t.metrics.snapshot();
    let counter = |name: &str, labels: &[(&str, &str)]| snap.counter(name, labels).unwrap_or(0);
    assert_eq!(counter("genie_serving_steps_total", &[]), report.steps);
    assert_eq!(
        counter("genie_serving_preempt_total", &[]),
        report.preemptions
    );
    assert_eq!(
        counter("genie_serving_reprefill_total", &[]),
        report.reprefills
    );
    assert_eq!(
        counter("genie_serving_migration_total", &[]),
        report.migrations
    );
    assert_eq!(
        counter("genie_serving_migration_failed_total", &[]),
        report.migrations_failed
    );
    assert_eq!(
        counter("genie_serving_tokens_total", &[]),
        report.tokens_generated()
    );
    let requests_total = "genie_serving_requests_total";
    assert_eq!(
        counter(requests_total, &[("outcome", "completed")]),
        report.completed() as u64
    );
    assert_eq!(
        counter(requests_total, &[("outcome", "shed")]),
        report.shed() as u64
    );
    let shed_by_reason: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "genie_serving_shed_total")
        .map(|c| c.value)
        .sum();
    assert_eq!(shed_by_reason, report.shed() as u64);

    // One TTFT observation per request that produced a token, one
    // latency observation per token.
    let mut first_tokens = std::collections::BTreeSet::new();
    for e in &report.events {
        if matches!(e.kind, EventKind::Token { .. }) {
            first_tokens.insert(e.request);
        }
    }
    let count = |name: &str| snap.histogram(name, &[]).map_or(0, |h| h.count);
    assert_eq!(
        count("genie_serving_ttft_seconds"),
        first_tokens.len() as u64
    );
    assert_eq!(
        count("genie_serving_token_latency_seconds"),
        report.tokens_generated()
    );
    for (tenant, slo) in &report.slo.per_tenant {
        let label = tenant.to_string();
        let gauge = snap.gauge("genie_slo_burn_rate", &[("tenant", label.as_str())]);
        assert_eq!(gauge, Some(slo.burn_rate));
    }

    // The collector holds one `kv.plan` instant per priced prefix, then
    // the report's spans in projection order, field for field (the
    // collector stamps its own arrival sequence over `seq`).
    let records = t.collector.drain();
    let plans = records.iter().filter(|r| r.name == "kv.plan").count() as u64;
    assert!(plans >= report.migrations && plans > 0);
    let published: Vec<SpanRecord> = records
        .into_iter()
        .filter(|r| r.name != "kv.plan")
        .map(|r| SpanRecord { seq: r.id, ..r })
        .collect();
    assert_eq!(published, report.spans());
}
