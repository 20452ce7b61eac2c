//! Property suite for KV-prefix migration under disaggregated serving:
//! seeded loads over one or two decode and prefill lanes, under each
//! migration policy, with KV tight enough that prefixes are shipped,
//! recomputed and preempted.
//!
//! `run_audited` audits every report ([`ServingLoop::audit`]), re-deriving from
//! the event log and counters alone (the log is the engine's public
//! contract, so these hold for any consumer replaying it):
//!
//! 1. the migration state machine: `MigrateStart` → `MigrateDone` |
//!    `MigrateFail`, from a prefill lane to a decode lane, nothing
//!    decoding while the prefix is on the wire, and no start at all
//!    under `AlwaysReprefill`;
//! 2. no KV bytes lost or double-counted: every event's resident plus
//!    in-flight bytes equal what the log implies and fit each lane, and
//!    the migration and re-prefill-cause counters equal their counts in
//!    the log;
//! 3. exactly one terminal event per offered request, migrations or not.
//!
//! And the loop is a pure function of (requests, config): same seed ⇒
//! byte-identical logs, outcomes, and migration counters.
//!
//! A seeded loop: a case is a function of its index alone, and a failing
//! case prints the index that reproduces it.

mod common;

use common::Case;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{
    ArrivalConfig, DisaggConfig, MigrationPolicy, ServingConfig, ServingLoop, ServingModel,
};

fn config(
    lanes: u32,
    prefill_lanes: u32,
    max_batch: usize,
    kv_tokens: u64,
    policy: MigrationPolicy,
) -> ServingConfig {
    let cfg = TransformerConfig::tiny();
    let mut d = DisaggConfig::paper_testbed(prefill_lanes);
    d.policy = policy;
    ServingConfig {
        lanes,
        max_batch,
        batched: true,
        kv_capacity_bytes: kv_tokens * cfg.kv_bytes_per_token(),
        queue_budget: Nanos::from_millis(200),
        max_queue: 64,
        gpu: GpuSpec::a100_80gb(),
        client: Link::PAPER_TESTBED,
        fault_plan: None,
        record_telemetry: false,
        disagg: Some(d),
        shard: None,
    }
}

fn policy_of(idx: u8) -> MigrationPolicy {
    match idx % 3 {
        0 => MigrationPolicy::Planner,
        1 => MigrationPolicy::AlwaysShip,
        _ => MigrationPolicy::AlwaysReprefill,
    }
}

#[test]
fn migration_invariants_hold() {
    for case in 0..32 {
        let mut case = Case::new(case);
        let seed = case.rng.next_u64();
        let rate = case.pick(20, 99) as u32;
        let lanes = case.pick(1, 2) as u32;
        let prefill_lanes = case.pick(1, 2) as u32;
        let max_batch = case.pick(1, 4) as usize;
        let kv_tokens = case.pick(24, 96);
        let policy_idx = case.pick(0, 2) as u8;
        let model = TransformerConfig::tiny();
        let requests = ArrivalConfig {
            seed,
            rate_per_s: f64::from(rate),
            horizon: Nanos::from_secs_f64(0.2),
            prompt_len: (1, 6),
            decode_tokens: (1, 6),
            vocab: model.vocab,
            tenants: 2,
        }
        .generate();
        let conf = config(
            lanes,
            prefill_lanes,
            max_batch,
            kv_tokens,
            policy_of(policy_idx),
        );
        let engine = ServingLoop::new(ServingModel::Spec(model), conf);
        let report = engine.run_audited(&requests);

        // Deterministic replay: identical inputs, identical log and
        // migration accounting.
        let again = engine.run_audited(&requests);
        assert_eq!(&report.events, &again.events);
        assert_eq!(&report.outcomes, &again.outcomes);
        assert_eq!(report.migrations, again.migrations);
        assert_eq!(report.migrated_kv_bytes, again.migrated_kv_bytes);
    }
}
