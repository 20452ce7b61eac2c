//! Simulated execution of batched decode steps (continuous batching).
//!
//! The serving runtime (`genie-serving`) advances a virtual clock one
//! *engine step* at a time: every resident request either prefills its
//! prompt or decodes one token. This module owns every price of such a
//! step (DESIGN.md §4n) — batched, sharded, re-prefill — over one
//! decomposition into terms and the roofline the §3.3 cost model uses
//! for kernels; the point being the paper's "How" argument (§3.6):
//! tenants that share a model fingerprint amortize the weight read, so a
//! batched decode step costs barely more than a single-request step.

use genie_cluster::{serialization_s, GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_scheduler::CostModel;
use genie_srg::shard::ShardSpec;

/// The work one engine step performs on one device lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepWork {
    /// Requests prefilling this step.
    pub prefill_members: u64,
    /// Total prompt tokens processed by the prefilling members.
    pub prefill_tokens: u64,
    /// Requests decoding exactly one token this step.
    pub decode_members: u64,
    /// KV-cache tokens resident across all stepped members (attention
    /// reads them all).
    pub kv_resident_tokens: u64,
}

impl StepWork {
    /// True when the step has no members.
    pub fn is_empty(&self) -> bool {
        self.prefill_members == 0 && self.decode_members == 0
    }

    /// Number of requests touched this step.
    pub fn members(&self) -> u64 {
        self.prefill_members + self.decode_members
    }

    /// New tokens produced this step (one per member: prefill samples its
    /// first token, decode its next).
    pub fn tokens_produced(&self) -> u64 {
        self.members()
    }
}

/// Priced breakdown of one engine step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCost {
    /// Device-side roofline seconds.
    pub compute_s: f64,
    /// Network seconds (RPC rounds plus token/ID payloads).
    pub network_s: f64,
    /// Fixed round-trip component of `network_s` (RPC rounds × 2 ×
    /// one-way latency) — unaffected by link bandwidth.
    pub net_latency_s: f64,
    /// Serialization component of `network_s` (payload bytes over the
    /// link) — scales inversely with bandwidth, which is what causal
    /// what-if replays need to estimate a faster link.
    pub net_payload_s: f64,
}

impl StepCost {
    /// Total step seconds (the simulated device and the wire serialize:
    /// tokens must arrive before the step and return after it).
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.network_s
    }
}

/// One engine step decomposed into the terms every price below reads;
/// each keeps its own operand order (f64 `+` is not associative).
struct StepTerms {
    /// Tokens run forward: prompt tokens plus one per decoding member.
    new_tokens: f64,
    flops: f64,
    /// Decode is memory-bound and this dominates: batching streams the
    /// weights once per step, the unbatched baseline once per member.
    weight_stream_bytes: f64,
    /// Attention reads every resident token and writes the new ones.
    kv_traffic_bytes: f64,
    /// Token IDs in, sampled IDs out, 8 bytes each; prompt IDs too.
    payload_bytes: f64,
    /// A batched step folds every member into one RPC round trip.
    rpc_rounds: f64,
}

impl StepTerms {
    fn of(cfg: &TransformerConfig, work: &StepWork, batched: bool) -> Self {
        let new_tokens = work.prefill_tokens + work.decode_members;
        let per_step_or_member = if batched { 1 } else { work.members() } as f64;
        StepTerms {
            new_tokens: new_tokens as f64,
            flops: new_tokens as f64 * cfg.flops_per_token(),
            weight_stream_bytes: per_step_or_member * cfg.weight_bytes() as f64,
            kv_traffic_bytes: (work.kv_resident_tokens + new_tokens) as f64
                * cfg.kv_bytes_per_token() as f64,
            payload_bytes: (new_tokens + work.members()) as f64 * 8.0,
            rpc_rounds: per_step_or_member,
        }
    }

    /// Roofline seconds of the whole step on one device.
    fn device_s(&self, gpu: &GpuSpec, compute_eff: f64, mem_eff: f64) -> f64 {
        let bytes = self.weight_stream_bytes + self.kv_traffic_bytes;
        gpu.roofline(self.flops, bytes, compute_eff, mem_eff)
    }

    /// `compute_s` plus the client link's payload and round trips.
    fn cost(&self, compute_s: f64, client: &Link) -> StepCost {
        let net_latency_s = self.rpc_rounds * 2.0 * client.latency_s;
        let net_payload_s = serialization_s(self.payload_bytes, client.bandwidth_bps);
        StepCost {
            compute_s,
            network_s: net_latency_s + net_payload_s,
            net_latency_s,
            net_payload_s,
        }
    }
}

/// Price one engine step of `work` for `cfg` on `gpu` behind a client
/// link of `bandwidth_bps` bits/s and `latency_s` one way.
///
/// `batched` is the continuous-batching switch: when true the whole step
/// is one fused kernel sweep (weights stream through the device once,
/// one RPC round covers every member); when false each member pays its
/// own weight read and its own RPC round — the Orca-style baseline the
/// §3.6 batching argument is measured against.
pub fn batched_step_time(
    cfg: &TransformerConfig,
    work: &StepWork,
    gpu: &GpuSpec,
    bandwidth_bps: f64,
    latency_s: f64,
    batched: bool,
) -> StepCost {
    if work.is_empty() {
        return StepCost::default();
    }
    let terms = StepTerms::of(cfg, work, batched);
    let compute_s = terms.device_s(gpu, 1.0, 1.0);
    terms.cost(compute_s, &Link::new(bandwidth_bps, latency_s))
}

/// Price one engine step of `work` when the lane's model is sharded per
/// `spec` over the device↔device `fabric`, behind `client`. Returns the
/// per-device [`StepCost`] (compute is the pipeline barrier; network is
/// the client link's), the collective seconds the fabric adds —
/// all_gather/all_reduce rounds for tensor parallelism, activation hops
/// for pipeline stages — and the part of them that is serialization
/// (the rest is rounds × fabric latency).
///
/// The compute model matches the functional sharded capture
/// (`genie-models`): weights split `shards` ways (each device streams
/// `1/shards` of them), KV splits across pipeline stages (each stage
/// holds its own layers' caches) but not across tensor ranks, and a
/// pipeline only overlaps across in-flight members — one resident
/// request fills a single stage at a time and gets no speedup.
pub fn sharded_step_time(
    cfg: &TransformerConfig,
    work: &StepWork,
    gpu: &GpuSpec,
    client: &Link,
    batched: bool,
    spec: &ShardSpec,
    fabric: &Link,
) -> (StepCost, f64, f64) {
    // The bubble factor below is `x * b / b` at pp = 1: not `x` in f64.
    if work.is_empty() || spec.shards() <= 1 {
        let (bandwidth_bps, latency_s) = (client.bandwidth_bps, client.latency_s);
        let flat = batched_step_time(cfg, work, gpu, bandwidth_bps, latency_s, batched);
        return (flat, 0.0, 0.0);
    }
    let terms = StepTerms::of(cfg, work, batched);
    let shards = spec.shards() as f64;
    let pp = spec.pipeline_stages as f64;
    let tp = spec.tensor_parallel as f64;

    // One stage's kernel sweep: 1/shards of the weight stream and flops,
    // 1/pp of the KV reads (caches live with their layers).
    let stage_bytes = terms.weight_stream_bytes / shards + terms.kv_traffic_bytes / pp;
    let stage_compute = gpu.kernel_time(terms.flops / shards, stage_bytes);
    // Pipeline fill/drain bubbles: `b` in-flight members keep at most
    // `b` stages busy, so the per-step barrier is the classic
    // (pp - 1 + b) / b microbatch factor (b = 1 → ×pp, no speedup).
    let b = work.members().max(1) as f64;
    let compute_s = stage_compute * (pp - 1.0 + b) / b;

    // Collectives per step: tensor parallelism runs one all_gather
    // (attention output) and one all_reduce-shaped chain (MLP row
    // partials) per layer, each moving (tp-1)/tp of the activation;
    // pipeline parallelism ships the activation across pp-1 stage hops.
    let act_bytes = terms.new_tokens * cfg.d_model as f64 * cfg.elem.size_bytes() as f64;
    let mut collective_bytes = 0.0f64;
    let mut collective_rounds = 0u64;
    if spec.tensor_parallel > 1 {
        let rounds = 2 * cfg.layers as u64;
        collective_bytes += rounds as f64 * act_bytes * (tp - 1.0) / tp;
        collective_rounds += rounds;
    }
    let hops = spec.pipeline_stages as u64 - 1;
    collective_bytes += hops as f64 * act_bytes;
    collective_rounds += hops;
    let collective_payload_s = serialization_s(collective_bytes, fabric.bandwidth_bps);
    let collective_s = collective_payload_s + collective_rounds as f64 * fabric.latency_s;

    let cost = terms.cost(compute_s, client);
    (cost, collective_s, collective_payload_s)
}

/// Both ways to get a finished prefill's KV prefix to its decode host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationPrice {
    /// Seconds to ship the bytes as one call on the migration fabric.
    pub ship_s: f64,
    /// Seconds to recompute the prefix at the destination from lineage.
    pub reprefill_s: f64,
}

impl MigrationPrice {
    /// Ties ship: the bytes exist, recompute burns the decode host.
    pub fn ships(&self) -> bool {
        self.ship_s <= self.reprefill_s
    }
}

/// Price ship-vs-re-prefill for a `kv_tokens`-long prefix under `cost`'s
/// network and kernel efficiencies. Re-prefill is a lone prefill's terms
/// through the same roofline: at unit efficiency, the very `compute_s`
/// [`batched_step_time`] charges for that pass. The calibration decides
/// the direction: the measured stack (derated kernels, 0.45 s per call)
/// re-prefills short prefixes and ships long ones; an ideal fabric does
/// the reverse — recompute always pays the weight-read floor.
pub fn price_migration(
    cfg: &TransformerConfig,
    gpu: &GpuSpec,
    cost: &CostModel,
    kv_tokens: u64,
) -> MigrationPrice {
    let lone_prefill = StepWork {
        prefill_members: 1,
        prefill_tokens: kv_tokens,
        ..StepWork::default()
    };
    let terms = StepTerms::of(cfg, &lone_prefill, true);
    let kv_bytes = cfg.kv_bytes_per_token() * kv_tokens;
    MigrationPrice {
        ship_s: cost.transfer_time(kv_bytes as f64),
        reprefill_s: terms.device_s(gpu, cost.compute_efficiency, cost.memory_efficiency),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gptj_step(decode_members: u64, batched: bool) -> StepCost {
        let cfg = TransformerConfig::gptj_6b();
        let work = StepWork {
            prefill_members: 0,
            prefill_tokens: 0,
            decode_members,
            kv_resident_tokens: decode_members * 64,
        };
        batched_step_time(&cfg, &work, &GpuSpec::a100_80gb(), 25e9, 250e-6, batched)
    }

    #[test]
    fn batched_decode_amortizes_the_weight_read() {
        let one = gptj_step(1, true);
        let eight = gptj_step(8, true);
        // Eight tenants decode in barely more time than one: the weight
        // stream dominates and is shared.
        assert!(
            eight.total_s() < one.total_s() * 1.5,
            "{eight:?} vs {one:?}"
        );
        // The unbatched baseline pays the stream per member.
        let eight_unbatched = gptj_step(8, false);
        assert!(
            eight_unbatched.compute_s > eight.compute_s * 6.0,
            "{} vs {}",
            eight_unbatched.compute_s,
            eight.compute_s
        );
        assert!(eight_unbatched.network_s > eight.network_s * 6.0);
    }

    #[test]
    fn network_split_sums_to_network_total() {
        let c = gptj_step(8, true);
        assert!(
            (c.net_latency_s + c.net_payload_s - c.network_s).abs() < 1e-12,
            "{c:?}"
        );
        assert!(c.net_latency_s > 0.0 && c.net_payload_s > 0.0);
    }

    #[test]
    fn decode_step_is_memory_bound_on_a100() {
        // One GPT-J decode step ≈ weights / HBM bandwidth ≈ 6 ms.
        let one = gptj_step(1, true);
        assert!(
            (4e-3..10e-3).contains(&one.compute_s),
            "step {}",
            one.compute_s
        );
    }

    fn sharded_gptj(pp: u32, tp: u32, fabric_bw: f64) -> (StepCost, f64, f64) {
        let cfg = TransformerConfig::gptj_6b();
        let work = StepWork {
            prefill_members: 0,
            prefill_tokens: 0,
            decode_members: 8,
            kv_resident_tokens: 8 * 64,
        };
        sharded_step_time(
            &cfg,
            &work,
            &GpuSpec::a100_80gb(),
            &Link::PAPER_TESTBED,
            true,
            &ShardSpec::new(pp, tp),
            &Link::new(fabric_bw, 5e-6),
        )
    }

    #[test]
    fn single_shard_matches_batched_pricing() {
        let (cost, coll, coll_payload) = sharded_gptj(1, 1, 100e9);
        let base = gptj_step(8, true);
        assert_eq!(cost, base);
        assert_eq!((coll, coll_payload), (0.0, 0.0));
    }

    #[test]
    fn tensor_parallel_splits_the_weight_stream() {
        let base = gptj_step(8, true);
        let (tp2, coll, _) = sharded_gptj(1, 2, 100e9);
        // Decode is weight-stream bound; two ranks stream half each.
        assert!(tp2.compute_s < base.compute_s * 0.6, "{tp2:?} vs {base:?}");
        assert!(coll > 0.0);
        // Two devices beat one on wall clock at a 100 Gbps fabric.
        assert!(tp2.compute_s + coll < base.compute_s);
    }

    #[test]
    fn collectives_pay_their_bytes_in_bits_and_their_rounds_in_latency() {
        // DESIGN §4m's worked example: 28 layers × 2 rounds, each moving
        // half of 8 tokens × 4096 × 2 B — 1 835 008 B, 146.8 µs at
        // 100 Gbps, plus 56 × 5 µs.
        let (_, coll, coll_payload) = sharded_gptj(1, 2, 100e9);
        assert_eq!(coll_payload, serialization_s(1_835_008.0, 100e9));
        assert_eq!(coll, coll_payload + 56.0 * 5e-6);
        assert!((coll - (146.8e-6 + 56.0 * 5e-6)).abs() < 1e-9, "{coll}");
    }

    #[test]
    fn collective_time_shrinks_with_fabric_bandwidth() {
        let (_, slow, _) = sharded_gptj(1, 2, 10e9);
        let (_, fast, _) = sharded_gptj(1, 2, 100e9);
        assert!(slow > fast, "{slow} vs {fast}");
    }

    #[test]
    fn pipeline_needs_in_flight_members_to_overlap() {
        let cfg = TransformerConfig::gptj_6b();
        let one = StepWork {
            prefill_members: 0,
            prefill_tokens: 0,
            decode_members: 1,
            kv_resident_tokens: 64,
        };
        let (client, fabric) = (Link::PAPER_TESTBED, Link::new(100e9, 5e-6));
        let pp2 = ShardSpec::pipeline(2);
        let gpu = GpuSpec::a100_80gb();
        let (solo, ..) = sharded_step_time(&cfg, &one, &gpu, &client, true, &pp2, &fabric);
        let base = batched_step_time(&cfg, &one, &gpu, 25e9, 250e-6, true);
        // One member fills one stage at a time: no compute speedup.
        assert!(
            (solo.compute_s - base.compute_s).abs() < base.compute_s * 0.05,
            "{} vs {}",
            solo.compute_s,
            base.compute_s
        );
        // Eight members keep both stages busy.
        let eight = StepWork {
            decode_members: 8,
            kv_resident_tokens: 8 * 64,
            ..one
        };
        let (busy, ..) = sharded_step_time(&cfg, &eight, &gpu, &client, true, &pp2, &fabric);
        let base8 = batched_step_time(&cfg, &eight, &gpu, 25e9, 250e-6, true);
        assert!(busy.compute_s < base8.compute_s * 0.7);
    }

    fn gptj_migration(cost: &CostModel, kv_tokens: u64) -> MigrationPrice {
        let cfg = TransformerConfig::gptj_6b();
        price_migration(&cfg, &GpuSpec::a100_80gb(), cost, kv_tokens)
    }

    #[test]
    fn short_prefix_reprefills_long_prefix_ships_on_paper_stack() {
        let paper = CostModel::paper_stack();
        let short = gptj_migration(&paper, 64);
        assert!(!short.ships() && short.reprefill_s < short.ship_s);
        let long = gptj_migration(&paper, 4096);
        assert!(long.ships() && long.ship_s < long.reprefill_s);
        // Nothing resident: shipping still pays the per-call overhead,
        // recompute only the weight-read floor.
        let empty = gptj_migration(&paper, 0);
        assert!(!empty.ships());
    }

    #[test]
    fn calibration_flips_the_crossover_direction() {
        // On an ideal zero-copy fabric with full-efficiency kernels the
        // direction is the opposite of the measured stack's: recompute
        // per token beats the wire — long prefixes re-prefill — while
        // tiny prefixes ship because recompute still pays the whole
        // weight-read floor (~6 ms for 12.1 GB at 2 TB/s) and a few KV
        // pages cross 25 GbE faster.
        let ideal = CostModel::ideal_25g();
        assert!(gptj_migration(&ideal, 16).ships());
        for tokens in [256u64, 2048, 16384] {
            let price = gptj_migration(&ideal, tokens);
            assert!(!price.ships(), "{tokens} tokens: {price:?}");
        }
    }

    #[test]
    fn migration_costs_are_monotone_in_prefix_length() {
        let paper = CostModel::paper_stack();
        let mut prev = gptj_migration(&paper, 0);
        for tokens in [128u64, 512, 2048, 8192] {
            let price = gptj_migration(&paper, tokens);
            assert!(price.ship_s >= prev.ship_s && price.reprefill_s >= prev.reprefill_s);
            prev = price;
        }
    }

    #[test]
    fn empty_step_is_free_and_prefill_counts_tokens() {
        assert_eq!(
            batched_step_time(
                &TransformerConfig::tiny(),
                &StepWork::default(),
                &GpuSpec::a100_80gb(),
                25e9,
                250e-6,
                true,
            )
            .total_s(),
            0.0
        );
        // Prefill runs every prompt token forward, decode one token per
        // member: FLOPs scale with `prefill_tokens`. Device seconds need
        // not — a short prefill of a small model is memory-bound, and a
        // decode against a long cache moves more bytes.
        let prefill = |tokens| StepWork {
            prefill_members: 1,
            prefill_tokens: tokens,
            decode_members: 0,
            kv_resident_tokens: 0,
        };
        let decode = |resident| StepWork {
            prefill_members: 0,
            prefill_tokens: 0,
            decode_members: 1,
            kv_resident_tokens: resident,
        };
        let cfg = TransformerConfig::tiny();
        let flops = |work: &StepWork| StepTerms::of(&cfg, work, true).flops;
        assert_eq!(flops(&prefill(64)), 64.0 * flops(&decode(64)));
        assert_eq!(flops(&prefill(64)), 2.0 * flops(&prefill(32)));

        // Where prefill is compute-bound, the seconds follow: GPT-J, a
        // 2048-token prompt against one decode over the same cache.
        let cfg = TransformerConfig::gptj_6b();
        let gpu = GpuSpec::a100_80gb();
        let p = batched_step_time(&cfg, &prefill(2048), &gpu, 25e9, 250e-6, true);
        let d = batched_step_time(&cfg, &decode(2048), &gpu, 25e9, 250e-6, true);
        assert!(p.compute_s > d.compute_s, "{p:?} vs {d:?}");
    }
}
