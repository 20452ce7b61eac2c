//! Capture-time sharding of the transformer LM: tensor/pipeline
//! parallelism whose collectives are first-class SRG nodes.
//!
//! [`ShardedTransformerLm`] records [`TransformerLm`]'s own forward pass
//! (the unsharded capture is its [`ShardSpec::single()`] case) with the
//! weight matrices split across tensor-parallel ranks and the layers
//! across pipeline stages, inserting the collectives the fabric must
//! carry:
//!
//! * **column-split** projections (`wq`/`wk`/`wv`, `w1`, `lm_head`)
//!   compute disjoint output columns per rank and reassemble with a
//!   rank-ordered [`all_gather`] — bit-exact because each output column
//!   accumulates over the full inner dimension regardless of the split;
//! * **row-split** projections (`wo`, `w2`) chain per-rank
//!   [`matmul_acc`] partials in ascending rank order — bit-exact because
//!   `matmul_acc` *continues* the scalar fold over contiguous inner
//!   ranges rather than summing independent partials (f32 addition is
//!   not associative; an `all_reduce` of independent row-split partials
//!   would NOT reproduce the oracle's bits);
//! * **[`send_activation`]** hops carry the residual stream between
//!   pipeline stages and return chain results to a stage's rank 0.
//!
//! The w1→gelu→w2 pair uses the Megatron pattern: no collective between
//! them — each rank applies gelu to its own column slice and feeds its
//! row slice of w2 directly.
//!
//! Every captured node, weights included, is attributed to a shard
//! (`shard = stage * tp + rank`); the map drives the fabric accounting
//! ([`ShardExecReport::of`]), the sharded placement policy, and the
//! netsim pricing of cut-edge traffic. The arithmetic runs on the one
//! interpreter: sharding moves no value.
//!
//! [`all_gather`]: genie_frontend::capture::CaptureCtx::all_gather
//! [`matmul_acc`]: genie_frontend::capture::LazyTensor::matmul_acc
//! [`send_activation`]: genie_frontend::capture::LazyTensor::send_activation

use crate::transformer::{KvState, LmCapture, TransformerLm};
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_frontend::interp::execute_sequential;
use genie_frontend::shard::ShardExecReport;
use genie_srg::shard::ShardSpec;
use genie_srg::{NodeId, Phase};
use std::collections::BTreeMap;

/// A transformer LM captured under a [`ShardSpec`]. Functionally
/// identical to the wrapped model — `generate_sharded` is pinned
/// bit-for-bit against [`TransformerLm::generate`] — but its captures
/// expose the multi-device structure to the scheduler and the fabric.
#[derive(Clone, Debug)]
pub struct ShardedTransformerLm {
    /// The underlying (unsharded) model.
    pub model: TransformerLm,
    /// How to shard it.
    pub spec: ShardSpec,
}

/// One sharded capture: the usual LM handles plus the shard assignment.
pub struct ShardedLmCapture {
    /// Each member's logits / grown caches, in order, as in the
    /// unsharded capture (one member for this module's captures).
    pub caps: Vec<LmCapture>,
    /// Shard id of every captured node. A node it omits is on shard 0,
    /// as every reader takes it; at one shard it omits them all.
    pub shard_of: BTreeMap<NodeId, u32>,
}

impl ShardedTransformerLm {
    /// Wrap `model` under `spec`. Panics if the spec is malformed or the
    /// model's dimensions don't divide across the tensor-parallel ranks.
    pub fn new(model: TransformerLm, spec: ShardSpec) -> Self {
        spec.validate().expect("invalid shard spec");
        let tp = spec.tensor_parallel as usize;
        let cfg = &model.config;
        assert_eq!(
            cfg.d_model % tp,
            0,
            "d_model {} must divide across {tp} tensor-parallel ranks",
            cfg.d_model
        );
        assert_eq!(
            (cfg.d_model * cfg.ffn_mult) % tp,
            0,
            "ffn dim must divide across {tp} tensor-parallel ranks"
        );
        assert!(
            spec.pipeline_stages as usize <= cfg.layers,
            "{} pipeline stages need at least that many layers (have {})",
            spec.pipeline_stages,
            cfg.layers
        );
        ShardedTransformerLm { model, spec }
    }

    /// Pipeline stage owning layer `layer` (contiguous blocks).
    pub fn stage_of_layer(&self, layer: usize) -> u32 {
        crate::transformer::stage_of_layer(self.spec, self.model.config.layers, layer)
    }

    /// Capture the sharded prefill graph for a prompt.
    pub fn capture_prefill(&self, ctx: &CaptureCtx, prompt: &[i64]) -> ShardedLmCapture {
        let cold = KvState::default();
        (self.model).capture_sharded(ctx, self.spec, Phase::LlmPrefill, &[(prompt, &cold)])
    }

    /// Capture one sharded decode step given the carried KV state.
    pub fn capture_decode_step(
        &self,
        ctx: &CaptureCtx,
        token: i64,
        kv: &KvState,
    ) -> ShardedLmCapture {
        (self.model).capture_sharded(ctx, self.spec, Phase::LlmDecode, &[(&[token], kv)])
    }

    /// Sharded greedy generation: same semantics as
    /// [`TransformerLm::generate`], each sharded step run through
    /// [`execute_sequential`]. Returns the tokens plus the steps' summed
    /// [`ShardExecReport::of`] (per-shard work, collective counts,
    /// cross-shard bytes).
    pub fn generate_sharded(&self, prompt: &[i64], steps: usize) -> (Vec<i64>, ShardExecReport) {
        assert!(self.model.is_functional(), "generate needs real weights");
        let mut tokens = Vec::with_capacity(steps);
        let mut total = ShardExecReport::default();
        let merge = |r: ShardExecReport, total: &mut ShardExecReport| {
            for (shard, n) in r.nodes_per_shard {
                *total.nodes_per_shard.entry(shard).or_insert(0) += n;
            }
            for (hop, b) in r.traffic {
                *total.traffic.entry(hop).or_insert(0) += b;
            }
            total.collective_ops += r.collective_ops;
            total.collective_bytes += r.collective_bytes;
        };

        // Sample from, finish and run one sharded capture.
        let mut run = |ctx: CaptureCtx, sc: ShardedLmCapture| -> (i64, KvState) {
            let cap = &sc.caps[0];
            let sampled = cap.logits.sample();
            sampled.mark_output();
            for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
                k.mark_output();
                v.mark_output();
            }
            let captured = ctx.finish();
            let values =
                execute_sequential(&captured.srg, &captured.values).expect("sharded step executes");
            merge(ShardExecReport::of(&captured.srg, &sc.shard_of), &mut total);
            let cache = |lt: &LazyTensor| values[&lt.node].as_f("kv cache").clone();
            let kv = KvState {
                k: cap.k_caches.iter().map(cache).collect(),
                v: cap.v_caches.iter().map(cache).collect(),
            };
            (values[&sampled.node].as_i("sampled token").data()[0], kv)
        };

        let ctx = CaptureCtx::new(format!("prefill.{}", self.spec.label()));
        let sc = self.capture_prefill(&ctx, prompt);
        let (mut token, mut kv) = run(ctx, sc);
        tokens.push(token);
        for step in 0..steps.saturating_sub(1) {
            let ctx = CaptureCtx::new(format!("decode.{step}.{}", self.spec.label()));
            let sc = self.capture_decode_step(&ctx, token, &kv);
            (token, kv) = run(ctx, sc);
            tokens.push(token);
        }
        (tokens, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransformerConfig;
    use genie_srg::OpKind;
    use genie_tensor::Tensor;

    fn tiny() -> TransformerLm {
        TransformerLm::new_functional(TransformerConfig::tiny(), 42)
    }

    #[test]
    fn tensor_parallel_generation_is_bit_exact() {
        let m = tiny();
        let oracle = m.generate(&[1, 2, 3], 5);
        let sharded = ShardedTransformerLm::new(m, ShardSpec::tensor(2));
        let (tokens, report) = sharded.generate_sharded(&[1, 2, 3], 5);
        assert_eq!(tokens, oracle, "tp2 must reproduce the oracle bits");
        assert!(report.collective_ops > 0, "tp2 must exercise collectives");
        assert_eq!(report.active_shards(), 2);
    }

    #[test]
    fn pipeline_generation_is_bit_exact() {
        let m = tiny();
        let oracle = m.generate(&[4, 7], 4);
        let sharded = ShardedTransformerLm::new(m, ShardSpec::pipeline(2));
        let (tokens, report) = sharded.generate_sharded(&[4, 7], 4);
        assert_eq!(tokens, oracle);
        assert!(report.cross_shard_bytes() > 0, "stages must exchange bytes");
    }

    #[test]
    fn sharded_capture_contains_collective_nodes() {
        let m = tiny();
        let sharded = ShardedTransformerLm::new(m, ShardSpec::new(2, 2));
        let ctx = CaptureCtx::new("decode.pp2xtp2");
        let sc = sharded.capture_decode_step(&ctx, 0, &KvState::default());
        sc.caps[0].logits.mark_output();
        let (captured, shard_of) = (ctx.finish(), sc.shard_of);
        let gathers = captured
            .srg
            .nodes()
            .filter(|n| n.op == OpKind::AllGather)
            .count();
        let sends = captured
            .srg
            .nodes()
            .filter(|n| n.op == OpKind::SendActivation)
            .count();
        let accs = captured
            .srg
            .nodes()
            .filter(|n| n.op == OpKind::MatMulAcc)
            .count();
        assert!(gathers > 0, "column splits gather");
        assert!(sends > 0, "pipeline + chain returns send");
        assert!(accs > 0, "row splits chain matmul_acc");
        // All four shards own captured nodes.
        let shards: std::collections::BTreeSet<u32> = shard_of.values().copied().collect();
        assert_eq!(shards.len(), 4);
    }

    fn decode_kv(cfg: &TransformerConfig, len: usize) -> KvState {
        let caches = vec![Tensor::zeros([len, cfg.d_model]); cfg.layers];
        KvState {
            k: caches.clone(),
            v: caches,
        }
    }

    #[test]
    fn single_shard_capture_is_the_unsharded_capture() {
        let m = tiny();
        let kv = decode_kv(&m.config, 3);
        let sharded = ShardedTransformerLm::new(m.clone(), ShardSpec::single());
        let plain = |capture: &dyn Fn(&CaptureCtx) -> LmCapture| {
            let ctx = CaptureCtx::new("step");
            capture(&ctx).logits.mark_output();
            ctx.finish().srg
        };
        let shard = |capture: &dyn Fn(&CaptureCtx) -> ShardedLmCapture| {
            let ctx = CaptureCtx::new("step");
            let sc = capture(&ctx);
            sc.caps[0].logits.mark_output();
            (ctx.finish().srg, sc.shard_of)
        };
        let cases = [
            (
                plain(&|ctx| m.capture_prefill(ctx, &[1, 2, 3])),
                shard(&|ctx| sharded.capture_prefill(ctx, &[1, 2, 3])),
            ),
            (
                plain(&|ctx| m.capture_decode_step(ctx, 5, &kv)),
                shard(&|ctx| sharded.capture_decode_step(ctx, 5, &kv)),
            ),
        ];
        for (unsharded, (srg, shard_of)) in cases {
            assert!(srg == unsharded, "{} differs at one shard", srg.name);
            let shard = |n: &genie_srg::Node| shard_of.get(&n.id).copied().unwrap_or(0);
            assert!(srg.nodes().all(|n| shard(n) == 0));
        }
    }

    #[test]
    fn the_report_reads_shapes_only() {
        let cfg = TransformerConfig::tiny();
        let kv = decode_kv(&cfg, 3);
        let functional = tiny();
        let spec = TransformerLm::new_spec(cfg);
        for shards in [ShardSpec::tensor(2), ShardSpec::new(2, 2)] {
            let report = |m: &TransformerLm, decode: bool| {
                let sharded = ShardedTransformerLm::new(m.clone(), shards);
                let ctx = CaptureCtx::new("step");
                let sc = if decode {
                    sharded.capture_decode_step(&ctx, 5, &kv)
                } else {
                    sharded.capture_prefill(&ctx, &[1, 2, 3])
                };
                sc.caps[0].logits.mark_output();
                ShardExecReport::of(&ctx.finish().srg, &sc.shard_of)
            };
            for decode in [false, true] {
                let want = report(&functional, decode);
                assert!(want.collective_ops > 0 && want.cross_shard_bytes() > 0);
                let label = shards.label();
                assert_eq!(report(&spec, decode), want, "{label} decode={decode}");
            }
        }
    }

    #[test]
    fn every_node_and_weight_sits_on_its_stage() {
        let m = TransformerLm::new_spec(TransformerConfig::tiny_deep());
        let kv = decode_kv(&m.config, 4);
        for spec in [
            ShardSpec::pipeline(2),
            ShardSpec::pipeline(3),
            ShardSpec::new(2, 2),
        ] {
            let sharded = ShardedTransformerLm::new(m.clone(), spec);
            let ctx = CaptureCtx::new("decode");
            let sc = sharded.capture_decode_step(&ctx, 0, &kv);
            sc.caps[0].logits.mark_output();
            let srg = ctx.finish().srg;
            let label = spec.label();
            for node in srg.nodes() {
                let shard = *sc.shard_of.get(&node.id).unwrap_or_else(|| {
                    panic!("{label}: {} has no shard", node.name);
                });
                let layer = node.module_path.strip_prefix("h.");
                let layer = layer.and_then(|p| p.split('.').next()?.parse().ok());
                if let (OpKind::Parameter, Some(layer)) = (&node.op, layer) {
                    assert_eq!(
                        shard / spec.tensor_parallel,
                        sharded.stage_of_layer(layer),
                        "{label}: {}.{} off its stage",
                        node.module_path,
                        node.name
                    );
                }
            }
        }
    }

    #[test]
    fn pipeline_traffic_is_activations_only() {
        // Before every weight was declared on its own rank, stage 1's
        // attention weights defaulted to shard 0 and were "shipped": 17 920
        // cross-shard bytes, 16 384 of them weights.
        let sharded = ShardedTransformerLm::new(tiny(), ShardSpec::pipeline(2));
        let (_, report) = sharded.generate_sharded(&[1, 2, 3, 5, 7], 4);
        assert_eq!(report.cross_shard_bytes(), 1536);
        let traffic = BTreeMap::from([((0, 1), 512), ((1, 0), 1024)]);
        assert_eq!(report.traffic, traffic);
    }
}
