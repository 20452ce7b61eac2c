//! Differential suite: the continuous-batching serving loop is pinned
//! bit-for-bit to the sequential per-request oracle.
//!
//! For every functional zoo transformer, across arrival seeds and batch
//! sizes, each completed request's token stream must equal
//! `TransformerLm::generate(prompt, total_tokens)` exactly — including
//! through forced KV eviction and lineage-style re-prefill, where the
//! engine rebuilds a victim's cache from prompt + generated prefix.

use genie::cluster::{GpuSpec, Link};
use genie::models::{functional_transformers, TransformerConfig, TransformerLm};
use genie::netsim::Nanos;
use genie::serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel, ServingRequest};
use genie::telemetry::causal::MemberPhase;

fn roomy_config(max_batch: usize) -> ServingConfig {
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
        disagg: None,
        shard: None,
    }
}

#[test]
fn serving_tokens_match_sequential_oracle_across_zoo_seeds_and_batches() {
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
                let report =
                    ServingLoop::new(ServingModel::Functional(m.clone()), roomy_config(max_batch))
                        .run_audited(&requests);
                assert_eq!(
                    report.completed(),
                    requests.len(),
                    "{name} seed {seed} batch {max_batch}: everyone must complete"
                );
                for (id, want) in &oracle {
                    assert_eq!(
                        report.tokens_for(*id),
                        Some(want.as_slice()),
                        "{name} seed {seed} batch {max_batch} request {id}: \
                         batched decode diverged from the sequential oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn eviction_and_reprefill_preserve_oracle_tokens() {
    for (name, m) in functional_transformers() {
        // Capacity of 15 KV tokens: two 4-token prompts prefill fine, but
        // their caches outgrow the lane mid-decode, forcing an LRU
        // eviction of a request that already generated tokens and, later,
        // a real re-prefill over prompt + prefix.
        let mut conf = roomy_config(2);
        conf.kv_capacity_bytes = 15 * m.config.kv_bytes_per_token();
        let requests: Vec<ServingRequest> = (1..=2u64)
            .map(|id| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::ZERO,
                prompt: vec![id as i64, 1, 2, 3],
                total_tokens: 12,
            })
            .collect();
        let report =
            ServingLoop::new(ServingModel::Functional(m.clone()), conf).run_audited(&requests);
        assert!(report.preemptions >= 1, "{name}: tight capacity must evict");
        assert!(report.reprefills >= 1, "{name}: evictee must re-prefill");
        for r in &requests {
            let want = m.generate(&r.prompt, r.total_tokens);
            assert_eq!(
                report.tokens_for(r.id),
                Some(want.as_slice()),
                "{name} request {}: re-prefill must restore exact KV state",
                r.id
            );
        }
    }
}

/// `decode_small`'s own traffic: four requests arriving together, batched
/// four wide, so each step runs one batched graph that shrinks as
/// requests finish.
#[test]
fn decode_small_traffic_matches_the_oracle() {
    let config = TransformerConfig {
        layers: 2,
        d_model: 64,
        heads: 4,
        ffn_mult: 4,
        vocab: 512,
        ..TransformerConfig::tiny()
    };
    let m = TransformerLm::new_functional(config, 11);
    let requests: Vec<ServingRequest> = [(8, 12), (10, 16), (13, 20), (16, 24)]
        .into_iter()
        .zip(1u64..)
        .map(|((prompt, total_tokens), id)| ServingRequest {
            id,
            tenant: 0,
            arrival: Nanos::ZERO,
            prompt: (0..prompt)
                .map(|i| (i * 37 + id as i64 * 11) % 512)
                .collect(),
            total_tokens,
        })
        .collect();
    let report = ServingLoop::new(ServingModel::Functional(m.clone()), roomy_config(4))
        .run_audited(&requests);
    for r in &requests {
        let want = m.generate(&r.prompt, r.total_tokens);
        assert_eq!(
            report.tokens_for(r.id),
            Some(want.as_slice()),
            "request {}",
            r.id
        );
    }
}

/// A lane-step that re-prefills one member while others decode runs both
/// batches in one step, and every token still equals the oracle's. KV
/// capacity sweeps from tight to roomy; some of those runs must hold
/// such a step.
#[test]
fn a_reprefill_beside_decodes_matches_the_oracle() {
    for (name, m) in functional_transformers() {
        let requests: Vec<ServingRequest> = [8, 12, 16]
            .into_iter()
            .zip(1u64..)
            .map(|(total_tokens, id)| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::ZERO,
                prompt: vec![id as i64, 1, 2, 3],
                total_tokens,
            })
            .collect();
        let mut mixed = 0;
        for tokens in 16..=40 {
            let mut conf = roomy_config(3);
            conf.kv_capacity_bytes = tokens * m.config.kv_bytes_per_token();
            let report =
                ServingLoop::new(ServingModel::Functional(m.clone()), conf).run_audited(&requests);
            mixed += report.slices.iter().any(|s| {
                let has = |phase| s.members.iter().any(|m| m.phase == phase);
                has(MemberPhase::Reprefill) && has(MemberPhase::Decode)
            }) as usize;
            // A lone member that can never fit is shed; the rest complete.
            for r in &requests {
                if let Some(got) = report.tokens_for(r.id) {
                    let want = m.generate(&r.prompt, r.total_tokens);
                    assert_eq!(got, want, "{name} {tokens} request {}", r.id);
                }
            }
        }
        assert!(
            mixed > 0,
            "{name}: a re-prefill must share a step with decodes"
        );
    }
}

#[test]
fn functional_serving_replays_bit_identically() {
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
    let a = ServingLoop::new(ServingModel::Functional(m.clone()), roomy_config(4))
        .run_audited(&requests);
    let b = ServingLoop::new(ServingModel::Functional(m), roomy_config(4)).run_audited(&requests);
    assert_eq!(a.events, b.events, "same inputs must replay identically");
    assert_eq!(a.outcomes, b.outcomes);
}
