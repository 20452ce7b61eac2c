//! Capture-time sharding of the transformer LM: tensor/pipeline
//! parallelism whose collectives are first-class SRG nodes.
//!
//! [`ShardedTransformerLm`] re-captures the same forward pass as
//! [`TransformerLm`] but splits the weight matrices across
//! tensor-parallel ranks and the layers across pipeline stages,
//! inserting the collectives the fabric must carry:
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
//! Every captured node is attributed to a shard
//! (`shard = stage * tp + rank`); the map drives
//! [`genie_frontend::execute_sharded`], the sharded placement policy,
//! and the netsim pricing of cut-edge traffic.
//!
//! [`all_gather`]: genie_frontend::capture::CaptureCtx::all_gather
//! [`matmul_acc`]: genie_frontend::capture::LazyTensor::matmul_acc
//! [`send_activation`]: genie_frontend::capture::LazyTensor::send_activation

use crate::transformer::{KvState, LmCapture, TransformerLm};
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_frontend::shard::{execute_sharded, ShardExecReport};
use genie_srg::shard::ShardSpec;
use genie_srg::{NodeId, Phase};
use genie_tensor::{ops, Tensor};
use std::cell::RefCell;
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
    /// Logits / grown caches, as in the unsharded capture.
    pub cap: LmCapture,
    /// Shard id for every captured node.
    pub shard_of: BTreeMap<NodeId, u32>,
}

/// Region-based shard attribution: snapshot the node counter around a
/// closure and tag everything it created. Inner regions win (they tag
/// first; outer regions only fill the remainder).
struct Tagger<'a> {
    ctx: &'a CaptureCtx,
    map: RefCell<BTreeMap<NodeId, u32>>,
}

impl Tagger<'_> {
    fn on<R>(&self, shard: u32, f: impl FnOnce() -> R) -> R {
        let before = self.ctx.node_count();
        let out = f();
        let after = self.ctx.node_count();
        let mut map = self.map.borrow_mut();
        for i in before..after {
            map.entry(NodeId::new(i as u32)).or_insert(shard);
        }
        out
    }
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
        let stages = self.spec.pipeline_stages as usize;
        let layers = self.model.config.layers;
        ((layer * stages / layers).min(stages - 1)) as u32
    }

    /// Capture the sharded prefill graph for a prompt.
    pub fn capture_prefill(&self, ctx: &CaptureCtx, prompt: &[i64]) -> ShardedLmCapture {
        ctx.phase_scope(Phase::LlmPrefill, || {
            self.capture_forward(ctx, prompt, &KvState::default())
        })
    }

    /// Capture one sharded decode step given the carried KV state.
    pub fn capture_decode_step(
        &self,
        ctx: &CaptureCtx,
        token: i64,
        kv: &KvState,
    ) -> ShardedLmCapture {
        ctx.phase_scope(Phase::LlmDecode, || self.capture_forward(ctx, &[token], kv))
    }

    fn capture_forward(&self, ctx: &CaptureCtx, tokens: &[i64], kv: &KvState) -> ShardedLmCapture {
        let cfg = &self.model.config;
        let spec = self.spec;
        let tp = spec.tensor_parallel;
        let d = cfg.d_model;
        let ffn = d * cfg.ffn_mult;
        let elem = cfg.elem;
        let w = self.model.weights();
        let t = tokens.len();
        let sid = |stage: u32, rank: u32| spec.shard_id(stage, rank);
        let tag = Tagger {
            ctx,
            map: RefCell::new(BTreeMap::new()),
        };

        // Column slice `rank` of a weight payload (output-dim split).
        let col = |payload: Option<&Tensor>, dim: usize, width: usize, rank: u32| {
            payload.map(|p| ops::narrow(p, dim, rank as usize * width, width))
        };

        // Embedding lives on the first stage's rank 0.
        let mut x = tag.on(sid(0, 0), || {
            let ids = if w.is_some() {
                ctx.input_ids("tokens", tokens)
            } else {
                ctx.input_ids_spec("tokens", t)
            };
            let wte = ctx.parameter("wte", [cfg.vocab, d], elem, w.map(|w| w.wte.clone()));
            ctx.scope("embed", || wte.gather(&ids))
        });

        let mut k_caches = Vec::with_capacity(cfg.layers);
        let mut v_caches = Vec::with_capacity(cfg.layers);
        let mut stage = 0u32;

        for layer in 0..cfg.layers {
            let next_stage = self.stage_of_layer(layer);
            if next_stage != stage {
                // Pipeline hop: the residual stream crosses the fabric.
                x = tag.on(sid(next_stage, 0), || {
                    x.send_activation(sid(stage, 0), sid(next_stage, 0))
                });
                stage = next_stage;
            }
            let s = stage;
            let lw = w.map(|w| &w.layers[layer]);
            let cached = kv.k.get(layer).map_or(0, |c| c.dims()[0]);

            x = ctx.scope("h", || {
                ctx.scope(&layer.to_string(), || {
                    let normed = tag.on(sid(s, 0), || {
                        let ln_g = ctx.parameter("ln_g", [d], elem, lw.map(|l| l.ln_g.clone()));
                        let ln_b = ctx.parameter("ln_b", [d], elem, lw.map(|l| l.ln_b.clone()));
                        x.layer_norm(&ln_g, &ln_b, 1e-5)
                    });

                    let (attn_out, kc, vc) = ctx.scope("attn", || {
                        // Column-split q/k/v projections: each rank owns a
                        // d/tp-wide slice; a rank-ordered gather reassembles.
                        let project =
                            |name: &str, pick: fn(&crate::transformer::LayerWeights) -> &Tensor| {
                                if tp == 1 {
                                    let wp = ctx.parameter(
                                        name,
                                        [d, d],
                                        elem,
                                        lw.map(|l| pick(l).clone()),
                                    );
                                    tag.on(sid(s, 0), || normed.matmul(&wp))
                                } else {
                                    let width = d / tp as usize;
                                    let parts: Vec<LazyTensor> = (0..tp)
                                        .map(|r| {
                                            tag.on(sid(s, r), || {
                                                let wp = ctx.parameter(
                                                    &format!("{name}_r{r}"),
                                                    [d, width],
                                                    elem,
                                                    col(lw.map(pick), 1, width, r),
                                                );
                                                normed.matmul(&wp)
                                            })
                                        })
                                        .collect();
                                    let refs: Vec<&LazyTensor> = parts.iter().collect();
                                    tag.on(sid(s, 0), || ctx.all_gather(&refs, 1))
                                }
                            };
                        let q = project("wq", |l| &l.wq);
                        let k_new = project("wk", |l| &l.wk);
                        let v_new = project("wv", |l| &l.wv);

                        // KV cache and attention stay whole on rank 0: the
                        // cache is the serving plane's migration unit.
                        let (o, kc, vc) = tag.on(sid(s, 0), || {
                            let k_in = if cached > 0 {
                                ctx.input(
                                    &format!("k_cache_{layer}"),
                                    [cached, d],
                                    elem,
                                    kv.k.get(layer).cloned().filter(|_| w.is_some()),
                                )
                            } else {
                                ctx.empty_cache(&format!("k_cache_{layer}"), d, elem)
                            };
                            let v_in = if cached > 0 {
                                ctx.input(
                                    &format!("v_cache_{layer}"),
                                    [cached, d],
                                    elem,
                                    kv.v.get(layer).cloned().filter(|_| w.is_some()),
                                )
                            } else {
                                ctx.empty_cache(&format!("v_cache_{layer}"), d, elem)
                            };
                            let kc = k_in.kv_append(&k_new);
                            let vc = v_in.kv_append(&v_new);
                            let o = q.attention(&kc, &vc, cfg.heads, true);
                            (o, kc, vc)
                        });

                        // Row-split output projection: chained matmul_acc in
                        // rank order continues the exact scalar fold.
                        let out = self.row_split_chain(
                            ctx,
                            &tag,
                            &o,
                            "wo",
                            d,
                            d,
                            s,
                            |l: &crate::transformer::LayerWeights| &l.wo,
                            lw,
                        );
                        (out, kc, vc)
                    });
                    let x1 = tag.on(sid(s, 0), || x.add(&attn_out));

                    let mlp_out = ctx.scope("mlp", || {
                        if tp == 1 {
                            tag.on(sid(s, 0), || {
                                let w1 =
                                    ctx.parameter("w1", [d, ffn], elem, lw.map(|l| l.w1.clone()));
                                let w2 =
                                    ctx.parameter("w2", [ffn, d], elem, lw.map(|l| l.w2.clone()));
                                x1.matmul(&w1).gelu().matmul(&w2)
                            })
                        } else {
                            // Megatron pattern: column-split w1, per-rank gelu
                            // on own slice, row-split w2 — no collective in
                            // between; the matmul_acc chain is the reduction.
                            let width = ffn / tp as usize;
                            let mut acc: Option<LazyTensor> = None;
                            for r in 0..tp {
                                acc = Some(tag.on(sid(s, r), || {
                                    let w1r = ctx.parameter(
                                        &format!("w1_r{r}"),
                                        [d, width],
                                        elem,
                                        col(lw.map(|l| &l.w1), 1, width, r),
                                    );
                                    let w2r = ctx.parameter(
                                        &format!("w2_r{r}"),
                                        [width, d],
                                        elem,
                                        lw.map(|l| {
                                            ops::narrow(&l.w2, 0, r as usize * width, width)
                                        }),
                                    );
                                    let h = x1.matmul(&w1r).gelu();
                                    match &acc {
                                        None => h.matmul(&w2r),
                                        Some(a) => h.matmul_acc(&w2r, a),
                                    }
                                }));
                            }
                            let m = acc.expect("tp >= 1");
                            tag.on(sid(s, 0), || m.send_activation(sid(s, tp - 1), sid(s, 0)))
                        }
                    });
                    k_caches.push(kc);
                    v_caches.push(vc);
                    tag.on(sid(s, 0), || x1.add(&mlp_out))
                })
            });
        }

        // LM head on the last stage; vocab-split across ranks when it
        // divides evenly (column split, so gather is exact).
        let last = spec.pipeline_stages - 1;
        let logits = ctx.scope("lm_head", || {
            let normed = tag.on(sid(last, 0), || {
                let lnf_g = ctx.parameter("lnf_g", [d], elem, w.map(|w| w.lnf_g.clone()));
                let lnf_b = ctx.parameter("lnf_b", [d], elem, w.map(|w| w.lnf_b.clone()));
                x.layer_norm(&lnf_g, &lnf_b, 1e-5)
            });
            if tp > 1 && cfg.vocab.is_multiple_of(tp as usize) {
                let width = cfg.vocab / tp as usize;
                let parts: Vec<LazyTensor> = (0..tp)
                    .map(|r| {
                        tag.on(sid(last, r), || {
                            let hr = ctx.parameter(
                                &format!("lm_head_r{r}"),
                                [d, width],
                                elem,
                                col(w.map(|w| &w.lm_head), 1, width, r),
                            );
                            normed.matmul(&hr)
                        })
                    })
                    .collect();
                let refs: Vec<&LazyTensor> = parts.iter().collect();
                tag.on(sid(last, 0), || ctx.all_gather(&refs, 1))
            } else {
                tag.on(sid(last, 0), || {
                    let head = ctx.parameter(
                        "lm_head",
                        [d, cfg.vocab],
                        elem,
                        w.map(|w| w.lm_head.clone()),
                    );
                    normed.matmul(&head)
                })
            }
        });

        ShardedLmCapture {
            cap: LmCapture {
                logits,
                k_caches,
                v_caches,
            },
            shard_of: tag.map.into_inner(),
        }
    }

    /// Row-split `[rows, cols]` projection of `input` across the stage's
    /// ranks: rank r multiplies its slice of the input columns by its
    /// slice of the weight rows, chaining `matmul_acc` so the fold over
    /// the inner dimension is exactly the unsharded one; the final
    /// partial hops back to rank 0.
    #[allow(clippy::too_many_arguments)]
    fn row_split_chain(
        &self,
        ctx: &CaptureCtx,
        tag: &Tagger<'_>,
        input: &LazyTensor,
        name: &str,
        rows: usize,
        cols: usize,
        stage: u32,
        pick: fn(&crate::transformer::LayerWeights) -> &Tensor,
        lw: Option<&crate::transformer::LayerWeights>,
    ) -> LazyTensor {
        let tp = self.spec.tensor_parallel;
        let elem = self.model.config.elem;
        let sid = |rank: u32| self.spec.shard_id(stage, rank);
        if tp == 1 {
            let wp = ctx.parameter(name, [rows, cols], elem, lw.map(|l| pick(l).clone()));
            return tag.on(sid(0), || input.matmul(&wp));
        }
        let width = rows / tp as usize;
        let mut acc: Option<LazyTensor> = None;
        for r in 0..tp {
            acc = Some(tag.on(sid(r), || {
                let wr = ctx.parameter(
                    &format!("{name}_r{r}"),
                    [width, cols],
                    elem,
                    lw.map(|l| ops::narrow(pick(l), 0, r as usize * width, width)),
                );
                let ir = input.narrow(1, r as usize * width, width);
                match &acc {
                    None => ir.matmul(&wr),
                    Some(a) => ir.matmul_acc(&wr, a),
                }
            }));
        }
        let out = acc.expect("tp >= 1");
        tag.on(sid(0), || out.send_activation(sid(tp - 1), sid(0)))
    }

    /// Sharded greedy generation: same semantics as
    /// [`TransformerLm::generate`], executed through the sharded
    /// interpreter. Returns the tokens plus the aggregated execution
    /// report (per-shard work, collective counts, cross-shard bytes).
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
            let sampled = sc.cap.logits.sample();
            sampled.mark_output();
            for (k, v) in sc.cap.k_caches.iter().zip(&sc.cap.v_caches) {
                k.mark_output();
                v.mark_output();
            }
            let captured = ctx.finish();
            let (values, report) = execute_sharded(&captured.srg, &captured.values, &sc.shard_of)
                .expect("sharded step executes");
            merge(report, &mut total);
            let cache = |lt: &LazyTensor| values[&lt.node].as_f("kv cache").clone();
            let kv = KvState {
                k: sc.cap.k_caches.iter().map(cache).collect(),
                v: sc.cap.v_caches.iter().map(cache).collect(),
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
        sc.cap.logits.mark_output();
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
}
