//! Property suite for the serving loop's admission path: seeded loads
//! over one or two lanes, small batches, tight KV and short queue
//! budgets, so queue-full, over-budget and KV-capacity shedding and LRU
//! preemption all happen.
//!
//! `run_audited` audits every report ([`ServingLoop::audit`]), re-deriving from
//! the event log alone that resident KV never exceeds a lane's capacity,
//! that no request is admitted after waiting past the queue budget, and
//! that every offered request ends in exactly one terminal event (the
//! log is the engine's public contract, so the laws hold for any
//! consumer replaying it). And the loop is a pure function of (requests,
//! config): same seed ⇒ identical logs.
//!
//! A seeded loop: a case is a function of its index alone, and a failing
//! case prints the index that reproduces it.

mod common;

use common::Case;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel};

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
        let engine = ServingLoop::new(ServingModel::Spec(model), conf);
        let report = engine.run_audited(&requests);

        // Deterministic replay: identical inputs, identical log.
        let again = engine.run_audited(&requests);
        assert_eq!(&report.events, &again.events);
    }
}
