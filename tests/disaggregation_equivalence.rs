//! Differential suite: prefill/decode disaggregation is pinned
//! bit-for-bit to the sequential per-request oracle.
//!
//! Migrating a KV prefix across lanes (or losing the transfer and
//! re-prefilling from lineage) must be *semantically invisible*: for
//! every functional zoo transformer, across arrival seeds and batch
//! sizes, each completed request's token stream must equal
//! `TransformerLm::generate(prompt, total_tokens)` exactly — whether
//! its prefix shipped over the fabric, was recomputed at the decode
//! pool by planner choice, or both across a chaotic run.

use genie::cluster::{GpuSpec, Link};
use genie::models::functional_transformers;
use genie::netsim::Nanos;
use genie::serving::{
    ArrivalConfig, DisaggConfig, MigrationPolicy, ServingConfig, ServingLoop, ServingModel,
    ServingRequest,
};

fn disagg_config(max_batch: usize, policy: MigrationPolicy) -> ServingConfig {
    let mut d = DisaggConfig::paper_testbed(1);
    d.policy = policy;
    ServingConfig {
        lanes: 1,
        max_batch,
        batched: true,
        kv_capacity_bytes: 1 << 30,
        queue_budget: Nanos::from_secs_f64(1e6),
        max_queue: 10_000,
        gpu: GpuSpec::a100_80gb(),
        client: Link::PAPER_TESTBED,
        fault_plan: None,
        record_telemetry: false,
        disagg: Some(d),
        shard: None,
    }
}

#[test]
fn disaggregated_tokens_match_sequential_oracle_across_zoo_seeds_and_batches() {
    for (name, m) in functional_transformers() {
        for seed in [1u64, 7, 42, 1009] {
            let requests = ArrivalConfig {
                seed,
                rate_per_s: 40.0,
                horizon: Nanos::from_secs_f64(0.25),
                prompt_len: (2, 6),
                decode_tokens: (2, 5),
                vocab: m.config.vocab,
                tenants: 2,
            }
            .generate();
            assert!(!requests.is_empty(), "{name} seed {seed}: empty trace");
            let oracle: Vec<(u64, Vec<i64>)> = requests
                .iter()
                .map(|r| (r.id, m.generate(&r.prompt, r.total_tokens)))
                .collect();
            for max_batch in [1usize, 2, 8] {
                for policy in [
                    MigrationPolicy::Planner,
                    MigrationPolicy::AlwaysShip,
                    MigrationPolicy::AlwaysReprefill,
                ] {
                    let report = ServingLoop::new(
                        ServingModel::Functional(m.clone()),
                        disagg_config(max_batch, policy),
                    )
                    .run_audited(&requests);
                    assert_eq!(
                        report.completed(),
                        requests.len(),
                        "{name} seed {seed} batch {max_batch} {policy:?}: \
                         everyone must complete"
                    );
                    for (id, want) in &oracle {
                        assert_eq!(
                            report.tokens_for(*id),
                            Some(want.as_slice()),
                            "{name} seed {seed} batch {max_batch} {policy:?} \
                             request {id}: disaggregated decode diverged from \
                             the sequential oracle"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn forced_migration_on_every_request_is_oracle_exact() {
    // AlwaysShip + roomy capacity: every single request's KV prefix
    // crosses the fabric before its first decode step. The migrated
    // cache must be byte-equivalent to the one the oracle would have
    // built in place.
    for (name, m) in functional_transformers() {
        let requests: Vec<ServingRequest> = (1..=5u64)
            .map(|id| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::from_millis(id),
                prompt: vec![id as i64 % 7, 1, 2, (id as i64) % 5],
                total_tokens: 8,
            })
            .collect();
        let report = ServingLoop::new(
            ServingModel::Functional(m.clone()),
            disagg_config(8, MigrationPolicy::AlwaysShip),
        )
        .run_audited(&requests);
        assert_eq!(report.completed(), 5, "{name}: everyone completes");
        assert_eq!(
            report.migrations, 5,
            "{name}: every request's prefix must migrate"
        );
        assert_eq!(report.migrations_completed, 5);
        assert_eq!(report.migrations_failed, 0);
        for r in &requests {
            let want = m.generate(&r.prompt, r.total_tokens);
            assert_eq!(
                report.tokens_for(r.id),
                Some(want.as_slice()),
                "{name} request {}: migrated KV produced different tokens",
                r.id
            );
        }
    }
}

#[test]
fn planned_reprefill_at_the_decode_pool_is_oracle_exact() {
    // AlwaysReprefill: the prefix is dropped at the prefill lane and
    // rebuilt from lineage (prompt + generated prefix) at the decode
    // pool — the migration-free baseline must also be bit-exact, and
    // every re-prefill must be attributed to the planner.
    for (name, m) in functional_transformers() {
        let requests: Vec<ServingRequest> = (1..=4u64)
            .map(|id| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::ZERO,
                prompt: vec![3, id as i64 % 5, 1],
                total_tokens: 6,
            })
            .collect();
        let report = ServingLoop::new(
            ServingModel::Functional(m.clone()),
            disagg_config(8, MigrationPolicy::AlwaysReprefill),
        )
        .run_audited(&requests);
        assert_eq!(report.completed(), 4, "{name}: everyone completes");
        assert_eq!(report.migrations, 0, "{name}: baseline never ships");
        assert_eq!(
            report.reprefills_planned, 4,
            "{name}: one planned re-prefill per request"
        );
        for r in &requests {
            let want = m.generate(&r.prompt, r.total_tokens);
            assert_eq!(
                report.tokens_for(r.id),
                Some(want.as_slice()),
                "{name} request {}: lineage re-prefill diverged",
                r.id
            );
        }
    }
}

#[test]
fn disaggregated_run_replays_bit_identically() {
    let (_, m) = functional_transformers().remove(0);
    let requests = ArrivalConfig {
        seed: 5,
        rate_per_s: 40.0,
        horizon: Nanos::from_secs_f64(0.2),
        prompt_len: (2, 5),
        decode_tokens: (2, 4),
        vocab: m.config.vocab,
        tenants: 2,
    }
    .generate();
    let conf = disagg_config(4, MigrationPolicy::Planner);
    let a =
        ServingLoop::new(ServingModel::Functional(m.clone()), conf.clone()).run_audited(&requests);
    let b = ServingLoop::new(ServingModel::Functional(m), conf).run_audited(&requests);
    assert_eq!(a.events, b.events, "same inputs must replay identically");
    assert_eq!(a.outcomes, b.outcomes);
}
