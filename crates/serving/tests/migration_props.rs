//! Property suite for KV-prefix migration under disaggregated serving.
//!
//! Everything is asserted from the *event log and counters alone* — the
//! log is the engine's public contract, so these hold for any consumer
//! replaying it:
//!
//! 1. single residency: between a `MigrateStart` and its matching
//!    `MigrateDone`/`MigrateFail` the request is in flight — no tokens
//!    decode, no second migration starts, and exactly one resolution
//!    event follows every start;
//! 2. no KV bytes are lost or double-counted: resident-plus-in-flight
//!    bytes never exceed fleet capacity (every lane, prefill included),
//!    and the migration counters partition exactly
//!    (`migrations == completed + failed`, re-prefill causes partition
//!    the re-prefill total);
//! 3. exactly one terminal event per offered request, migrations or not;
//! 4. the loop is a pure function of (requests, config): same seed ⇒
//!    byte-identical logs, outcomes, and migration counters.
//!
//! A seeded loop: a case is a function of its index alone, and a failing
//! case prints the index that reproduces it.

mod common;

use common::Case;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{
    ArrivalConfig, DisaggConfig, EventKind, MigrationPolicy, ServingConfig, ServingLoop,
    ServingModel,
};
use std::collections::BTreeMap;

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
        let report =
            ServingLoop::new(ServingModel::Spec(model.clone()), conf.clone()).run(&requests);

        // 1. Single residency through migration: the event log's
        //    migration state machine is Start → (Done | Fail), never
        //    nested, and nothing decodes while in flight.
        let mut in_flight: BTreeMap<u64, u32> = BTreeMap::new();
        let mut starts = 0u64;
        let mut resolutions = 0u64;
        for e in &report.events {
            match &e.kind {
                EventKind::MigrateStart { from, to, bytes } => {
                    assert!(
                        !in_flight.contains_key(&e.request),
                        "request {} started a second migration mid-flight",
                        e.request
                    );
                    assert!(from != to, "migration to the same lane");
                    assert!(
                        u64::from(*from) >= u64::from(conf.lanes),
                        "migrations depart prefill lanes only (from {from})"
                    );
                    assert!(
                        u64::from(*to) < u64::from(conf.lanes),
                        "migrations land on decode lanes only (to {to})"
                    );
                    assert!(*bytes > 0, "empty migration payload");
                    in_flight.insert(e.request, *to);
                    starts += 1;
                }
                EventKind::MigrateDone { to } | EventKind::MigrateFail { to } => {
                    let expected = in_flight.remove(&e.request);
                    assert_eq!(
                        expected,
                        Some(*to),
                        "resolution without a matching start for request {}",
                        e.request
                    );
                    resolutions += 1;
                }
                EventKind::Token { .. } => {
                    assert!(
                        !in_flight.contains_key(&e.request),
                        "request {} decoded while its KV was on the wire",
                        e.request
                    );
                }
                _ => {}
            }
        }
        assert!(in_flight.is_empty(), "unresolved migrations at drain");
        assert_eq!(starts, resolutions, "every start resolves exactly once");

        // 2. Bytes conserved: resident + in-flight never exceeds fleet
        //    capacity, and the counters partition exactly.
        let total_lanes =
            u64::from(conf.lanes) + u64::from(conf.disagg.as_ref().unwrap().prefill_lanes);
        let fleet_cap = conf.kv_capacity_bytes * total_lanes;
        for e in &report.events {
            assert!(
                e.kv_resident_bytes <= fleet_cap,
                "resident {} > fleet capacity {} at {:?}",
                e.kv_resident_bytes,
                fleet_cap,
                e
            );
        }
        assert!(report.peak_kv_bytes <= fleet_cap);
        assert_eq!(
            report.migrations,
            report.migrations_completed + report.migrations_failed,
            "migration counters must partition"
        );
        assert_eq!(starts, report.migrations);
        assert_eq!(
            report.reprefills,
            report.reprefills_evicted + report.reprefills_migration + report.reprefills_planned,
            "re-prefill cause counters must partition the total"
        );
        if matches!(
            conf.disagg.as_ref().unwrap().policy,
            MigrationPolicy::AlwaysReprefill
        ) {
            assert_eq!(report.migrations, 0u64, "baseline never ships");
        }

        // 3. Exactly one terminal event per offered request.
        let mut terminals: BTreeMap<u64, usize> = BTreeMap::new();
        for e in &report.events {
            if matches!(e.kind, EventKind::Complete | EventKind::Shed(_)) {
                *terminals.entry(e.request).or_insert(0) += 1;
            }
        }
        assert_eq!(
            terminals.len(),
            requests.len(),
            "every request must terminate"
        );
        for (id, count) in &terminals {
            assert_eq!(*count, 1usize, "request {} terminated {} times", id, count);
        }
        assert_eq!(report.outcomes.len(), requests.len());

        // 4. Deterministic replay: identical inputs, identical log and
        //    migration accounting.
        let again = ServingLoop::new(ServingModel::Spec(model), conf).run(&requests);
        assert_eq!(&report.events, &again.events);
        assert_eq!(&report.outcomes, &again.outcomes);
        assert_eq!(report.migrations, again.migrations);
        assert_eq!(report.migrated_kv_bytes, again.migrated_kv_bytes);
    }
}
