//! Property suite for the serving loop's admission invariants.
//!
//! Everything is asserted from the *event log alone* — the log is the
//! engine's public contract, so the properties hold for any consumer
//! replaying it:
//!
//! 1. resident KV bytes never exceed fleet capacity (lanes × per-lane);
//! 2. no request is admitted after waiting past the SLO queue budget
//!    (stale waiters shed, with a typed reason, instead);
//! 3. every offered request gets exactly one terminal event;
//! 4. the loop is a pure function of (requests, config): same seed ⇒
//!    identical logs.
//!
//! A seeded loop: a case is a function of its index alone, and a failing
//! case prints the index that reproduces it.

mod common;

use common::Case;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{ArrivalConfig, EventKind, ServingConfig, ServingLoop, ServingModel};
use std::collections::BTreeMap;

fn config(lanes: u32, max_batch: usize, kv_tokens: u64, budget_ms: u64) -> ServingConfig {
    let cfg = TransformerConfig::tiny();
    ServingConfig {
        lanes,
        max_batch,
        batched: true,
        kv_capacity_bytes: kv_tokens * cfg.kv_bytes_per_token(),
        queue_budget: Nanos::from_millis(budget_ms),
        max_queue: 32,
        gpu: GpuSpec::a100_80gb(),
        client: Link::PAPER_TESTBED,
        fault_plan: None,
        record_telemetry: false,
        disagg: None,
        shard: None,
    }
}

#[test]
fn admission_invariants_hold() {
    for case in 0..64 {
        let mut case = Case::new(case);
        let seed = case.rng.next_u64();
        let rate = case.pick(20, 99) as u32;
        let lanes = case.pick(1, 2) as u32;
        let max_batch = case.pick(1, 4) as usize;
        let kv_tokens = case.pick(8, 64);
        let budget_ms = case.pick(5, 60);
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
        let conf = config(lanes, max_batch, kv_tokens, budget_ms);
        let report =
            ServingLoop::new(ServingModel::Spec(model.clone()), conf.clone()).run(&requests);

        // 1. Fleet-wide KV residency never exceeds capacity.
        let fleet_cap = conf.kv_capacity_bytes * u64::from(lanes);
        for e in &report.events {
            assert!(
                e.kv_resident_bytes <= fleet_cap,
                "resident {} > capacity {} at {:?}",
                e.kv_resident_bytes,
                fleet_cap,
                e
            );
        }

        // 2. No admission after the SLO budget expired; waiting restarts
        //    at arrival and at each preemption.
        let mut enqueued: BTreeMap<u64, Nanos> = BTreeMap::new();
        for e in &report.events {
            match &e.kind {
                EventKind::Arrive | EventKind::Preempt => {
                    enqueued.insert(e.request, e.at);
                }
                EventKind::Admit { .. } => {
                    let since = enqueued[&e.request];
                    assert!(
                        e.at.saturating_sub(since) <= conf.queue_budget,
                        "request {} admitted after {:?} > budget {:?}",
                        e.request,
                        e.at.saturating_sub(since),
                        conf.queue_budget
                    );
                }
                _ => {}
            }
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

        // 4. Deterministic replay: identical inputs, identical log.
        let again = ServingLoop::new(ServingModel::Spec(model), conf).run(&requests);
        assert_eq!(&report.events, &again.events);
    }
}
