//! KV-migration planning for prefill/decode disaggregation.
//!
//! When a request finishes its prefill on a prefill-lane host, its KV
//! prefix must reach a decode-lane host before the first decode step.
//! There are exactly two ways to get it there, and which is cheaper is a
//! genuine cost question the fleet scheduler answers with the same
//! calibrated [`CostModel`] it prices everything else with:
//!
//! - **Ship** the prefix over the fabric: `kv_bytes_per_token × tokens`
//!   at the link's goodput, plus per-call overhead and latency. On the
//!   paper's measured stack (1.4 GB/s, 0.45 s/call) this is expensive
//!   for short prefixes and linear in prefix length.
//! - **Re-prefill** at the decode host from request lineage: one prefill
//!   pass priced by the efficiency-derated roofline — compute grows with
//!   prefix length, but the weight-read floor is paid regardless.
//!
//! On the measured stack, short prefixes re-prefill (the weight read is
//! cheaper than an RPC) and long prefixes ship (derated recompute grows
//! faster than wire time). The crossover *direction* flips with the
//! calibration: on an ideal zero-copy fabric with full-efficiency
//! kernels, per-token recompute beats the wire — long prefixes
//! re-prefill from lineage — which is the §3 translation argument in
//! miniature: semantics beat bytes once the datapath stops taxing them.

use super::GlobalScheduler;
use crate::cost::CostModel;
use genie_cluster::GpuSpec;
use serde::{Deserialize, Serialize};

/// What to do with a finished prefill's KV prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationDecision {
    /// Ship the resident KV bytes over the fabric to the decode host.
    Ship,
    /// Recompute the prefix at the decode host from request lineage.
    Reprefill,
}

/// One priced migration: both alternatives and the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Request being moved.
    pub request: u64,
    /// Source lane (prefill host).
    pub from: u32,
    /// Destination lane (decode host).
    pub to: u32,
    /// Resident prefix length in tokens.
    pub kv_tokens: u64,
    /// Bytes on the wire if shipped.
    pub kv_bytes: u64,
    /// Estimated seconds to ship the prefix.
    pub ship_s: f64,
    /// Estimated seconds to re-prefill at the destination.
    pub reprefill_s: f64,
    /// The cheaper alternative (ties ship: bytes already exist).
    pub decision: MigrationDecision,
}

/// Prices ship-vs-reprefill for one model on one device class.
///
/// Holds the model constants the scheduler crate cannot know itself
/// (it deliberately does not depend on `genie-models`): callers pass
/// `TransformerConfig::{kv_bytes_per_token, flops_per_token,
/// weight_bytes}` at construction.
#[derive(Clone, Debug)]
pub struct KvMigrationPlanner {
    cost: CostModel,
    gpu: GpuSpec,
    /// KV-cache bytes per resident token
    /// (`layers × kv_heads × head_dim × 2 × dtype`).
    pub bytes_per_token: u64,
    /// Forward-pass FLOPs per token (≈ 2 × params).
    pub flops_per_token: f64,
    /// Weight bytes streamed once per prefill pass.
    pub weight_bytes: u64,
}

impl KvMigrationPlanner {
    /// New planner over a cost model, device, and model constants.
    pub fn new(
        cost: CostModel,
        gpu: GpuSpec,
        bytes_per_token: u64,
        flops_per_token: f64,
        weight_bytes: u64,
    ) -> Self {
        KvMigrationPlanner {
            cost,
            gpu,
            bytes_per_token,
            flops_per_token,
            weight_bytes,
        }
    }

    /// Wire bytes for a prefix of `tokens`.
    pub fn kv_bytes(&self, tokens: u64) -> u64 {
        self.bytes_per_token * tokens
    }

    /// Seconds to ship `kv_bytes` over the fabric as one call.
    pub fn ship_time(&self, kv_bytes: u64) -> f64 {
        self.cost.transfer_time(kv_bytes as f64)
    }

    /// Seconds to recompute a `tokens`-long prefix at the destination:
    /// the efficiency-derated roofline of one prefill pass (weight read
    /// plus KV writes on the byte side).
    pub fn reprefill_time(&self, tokens: u64) -> f64 {
        let flops = tokens as f64 * self.flops_per_token;
        let bytes = self.weight_bytes as f64 + self.kv_bytes(tokens) as f64;
        let compute = flops / (self.gpu.peak_flops * self.cost.compute_efficiency);
        let memory = bytes / (self.gpu.mem_bandwidth * self.cost.memory_efficiency);
        self.gpu.kernel_launch_overhead + compute.max(memory)
    }

    /// Price both alternatives for one finished prefill and pick the
    /// cheaper (ties ship: the bytes already exist, recompute burns the
    /// decode host). Pure: touches no telemetry sink.
    pub fn price(&self, request: u64, from: u32, to: u32, kv_tokens: u64) -> MigrationPlan {
        let kv_bytes = self.kv_bytes(kv_tokens);
        let ship_s = self.ship_time(kv_bytes);
        let reprefill_s = self.reprefill_time(kv_tokens);
        let decision = if ship_s <= reprefill_s {
            MigrationDecision::Ship
        } else {
            MigrationDecision::Reprefill
        };
        MigrationPlan {
            request,
            from,
            to,
            kv_tokens,
            kv_bytes,
            ship_s,
            reprefill_s,
            decision,
        }
    }

    /// [`price`](Self::price), recorded as a `kv.plan` instant on the
    /// process-global collector.
    pub fn plan(&self, request: u64, from: u32, to: u32, kv_tokens: u64) -> MigrationPlan {
        let plan = self.price(request, from, to, kv_tokens);
        genie_telemetry::global().collector.instant(
            "kv.plan",
            "scheduler",
            genie_telemetry::SemAttrs::new()
                .request(request)
                .with("from", from.to_string())
                .with("to", to.to_string())
                .with("kv_tokens", kv_tokens.to_string())
                .with("ship_s", format!("{:.6}", plan.ship_s))
                .with("reprefill_s", format!("{:.6}", plan.reprefill_s))
                .with("decision", format!("{:?}", plan.decision)),
        );
        plan
    }
}

impl GlobalScheduler {
    /// Build a KV-migration planner priced with this fleet's cost model.
    /// The model constants come from the caller (typically
    /// `TransformerConfig`); the device is the decode-side spec.
    pub fn kv_migration_planner(
        &self,
        gpu: GpuSpec,
        bytes_per_token: u64,
        flops_per_token: f64,
        weight_bytes: u64,
    ) -> KvMigrationPlanner {
        KvMigrationPlanner::new(
            self.cost.clone(),
            gpu,
            bytes_per_token,
            flops_per_token,
            weight_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPT-J-ish constants: 458 752 KV bytes/token, ~12.1 GB weights,
    /// ~12.1 GFLOP/token.
    fn gptj_planner(cost: CostModel) -> KvMigrationPlanner {
        KvMigrationPlanner::new(cost, GpuSpec::a100_80gb(), 458_752, 12.1e9, 12_100_000_000)
    }

    #[test]
    fn short_prefix_reprefills_long_prefix_ships_on_paper_stack() {
        let p = gptj_planner(CostModel::paper_stack());
        let short = p.plan(1, 2, 0, 64);
        assert_eq!(short.decision, MigrationDecision::Reprefill);
        assert!(short.reprefill_s < short.ship_s);
        let long = p.plan(2, 2, 0, 4096);
        assert_eq!(long.decision, MigrationDecision::Ship);
        assert!(long.ship_s < long.reprefill_s);
    }

    #[test]
    fn calibration_flips_the_crossover_direction() {
        // The decision is a genuine function of the calibration, and the
        // two stacks flip it in *opposite* directions. On the measured
        // paper stack (derated kernels, 1.4 GB/s RPC) short prefixes
        // recompute and long ones ship. On an ideal zero-copy fabric with
        // full-efficiency kernels, recompute per token beats the wire —
        // long prefixes re-prefill — while tiny prefixes ship because
        // recompute still pays the whole weight-read floor (~6 ms for
        // 12.1 GB at 2 TB/s) and a few KV pages cross 25 GbE faster.
        let ideal = gptj_planner(CostModel::ideal_25g());
        let tiny = ideal.plan(3, 1, 0, 16);
        assert_eq!(tiny.decision, MigrationDecision::Ship);
        for tokens in [256u64, 2048, 16384] {
            let plan = ideal.plan(3, 1, 0, tokens);
            assert_eq!(
                plan.decision,
                MigrationDecision::Reprefill,
                "{tokens} tokens: ship {} vs reprefill {}",
                plan.ship_s,
                plan.reprefill_s
            );
        }
    }

    #[test]
    fn costs_are_monotone_in_prefix_length() {
        let p = gptj_planner(CostModel::paper_stack());
        let mut prev_ship = 0.0;
        let mut prev_re = 0.0;
        for tokens in [0u64, 128, 512, 2048, 8192] {
            let plan = p.plan(4, 1, 0, tokens);
            assert!(plan.ship_s >= prev_ship);
            assert!(plan.reprefill_s >= prev_re);
            assert_eq!(plan.kv_bytes, 458_752 * tokens);
            prev_ship = plan.ship_s;
            prev_re = plan.reprefill_s;
        }
    }

    #[test]
    fn empty_prefix_reprefills() {
        // Nothing resident: shipping still pays the per-call overhead,
        // recompute pays only the weight-read floor.
        let p = gptj_planner(CostModel::paper_stack());
        let plan = p.plan(5, 1, 0, 0);
        assert_eq!(plan.decision, MigrationDecision::Reprefill);
        assert_eq!(plan.kv_bytes, 0);
    }

    #[test]
    fn global_scheduler_exposes_its_calibration() {
        use genie_cluster::Topology;
        let sched = GlobalScheduler::new(Topology::rack(2, 25e9), CostModel::paper_stack());
        let p = sched.kv_migration_planner(GpuSpec::a100_80gb(), 458_752, 12.1e9, 12_100_000_000);
        // Same verdicts as a planner built directly on the same model.
        let direct = gptj_planner(CostModel::paper_stack());
        for tokens in [64u64, 4096] {
            assert_eq!(
                p.plan(6, 1, 0, tokens).decision,
                direct.plan(6, 1, 0, tokens).decision
            );
        }
    }
}
