//! Decoder-only transformer LM built on the Genie frontend.
//!
//! One implementation serves both planes: with materialized weights
//! (functional, tiny configs) captures carry payloads and can be executed
//! numerically; without (simulation, GPT-J scale) the same code emits
//! spec-only SRGs whose shapes and costs drive the performance plane.

use crate::config::TransformerConfig;
use crate::sharded::ShardedLmCapture;
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_frontend::interp;
use genie_frontend::value::Value;
use genie_frontend::RecaptureSession;
use genie_srg::shard::ShardSpec;
use genie_srg::{ElemType, NodeId, Phase};
use genie_tensor::{init, ops, Tensor};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-layer weight payloads (functional plane only).
#[derive(Clone, Debug)]
struct LayerWeights {
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    w1: Tensor,
    w2: Tensor,
    ln_g: Tensor,
    ln_b: Tensor,
}

/// A transformer LM. `weights` is `Some` for functional configs.
#[derive(Clone, Debug)]
pub struct TransformerLm {
    /// Architecture.
    pub config: TransformerConfig,
    weights: Option<Arc<ModelWeights>>,
    /// Shared by clones, which capture the same graphs.
    traces: Arc<StepTraces>,
    /// Per layer, the names its captures use, built once rather than per
    /// member-layer of every step: the module scope (`"3"`) and the K and
    /// V cache inputs (`"k_cache_3"`, `"v_cache_3"`).
    layer_names: Arc<[[String; 3]]>,
}

/// [`TransformerLm::layer_names`] for `layers` layers.
fn layer_names(layers: usize) -> Arc<[[String; 3]]> {
    let names = |l: usize| {
        [
            l.to_string(),
            format!("k_cache_{l}"),
            format!("v_cache_{l}"),
        ]
    };
    (0..layers).map(names).collect()
}

/// The [`RecaptureSession`] of each phase's step function, which a step
/// takes for its duration. Every request and every KV length captures
/// the same structure, so one session per (model, phase) serves them
/// all; a step that finds it taken (a concurrent caller has it) gets an
/// empty one and captures cold.
#[derive(Debug, Default)]
struct StepTraces {
    prefill: Mutex<RecaptureSession>,
    decode: Mutex<RecaptureSession>,
}

#[derive(Clone, Debug)]
struct ModelWeights {
    wte: Tensor,
    layers: Vec<LayerWeights>,
    lnf_g: Tensor,
    lnf_b: Tensor,
    lm_head: Tensor,
}

/// The KV state carried between decode steps: per-layer K and V tensors.
#[derive(Clone, Debug, Default)]
pub struct KvState {
    /// K caches per layer, each `[t, d_model]`.
    pub k: Vec<Tensor>,
    /// V caches per layer, each `[t, d_model]`.
    pub v: Vec<Tensor>,
}

impl KvState {
    /// Cached sequence length.
    pub fn len(&self) -> usize {
        self.k.first().map_or(0, |t| t.dims()[0])
    }

    /// True when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes held (f32 functional representation).
    pub fn size_bytes(&self) -> usize {
        self.k
            .iter()
            .chain(self.v.iter())
            .map(|t| t.size_bytes())
            .sum()
    }
}

/// Result of capturing one LM graph: handles to the logits and the grown
/// caches so callers can mark outputs / carry state.
pub struct LmCapture {
    /// Logits for the processed positions, `[t, vocab]` (in a batch of
    /// several members, the member's last position only, `[1, vocab]`).
    pub logits: LazyTensor,
    /// Grown K caches per layer.
    pub k_caches: Vec<LazyTensor>,
    /// Grown V caches per layer.
    pub v_caches: Vec<LazyTensor>,
}

impl TransformerLm {
    /// Functional model with seeded random weights. Intended for tiny
    /// configs; asserts the weights stay under 64 MB.
    pub fn new_functional(config: TransformerConfig, seed: u64) -> Self {
        assert!(
            config.weight_bytes() < 64 << 20,
            "functional models must be small; use spec captures for {} GB",
            config.weight_bytes() >> 30
        );
        assert_eq!(config.elem, ElemType::F32, "functional plane is f32");
        let d = config.d_model;
        let ffn = d * config.ffn_mult;
        let mut next = crate::weight_seeds(seed);
        let mut draw = |shape: [usize; 2], f: f32| ops::scale(&init::randn(shape, next()), f);
        let (fan_d, fan_ffn) = (1.0 / (d as f32).sqrt(), 1.0 / (ffn as f32).sqrt());
        let layers = (0..config.layers)
            .map(|_| LayerWeights {
                wq: draw([d, d], fan_d),
                wk: draw([d, d], fan_d),
                wv: draw([d, d], fan_d),
                wo: draw([d, d], fan_d),
                w1: draw([d, ffn], fan_d),
                w2: draw([ffn, d], fan_ffn),
                ln_g: Tensor::ones([d]),
                ln_b: Tensor::zeros([d]),
            })
            .collect();
        let weights = ModelWeights {
            wte: draw([config.vocab, d], 0.5),
            layers,
            lnf_g: Tensor::ones([d]),
            lnf_b: Tensor::zeros([d]),
            lm_head: draw([d, config.vocab], fan_d),
        };
        TransformerLm {
            layer_names: layer_names(config.layers),
            config,
            weights: Some(Arc::new(weights)),
            traces: Arc::default(),
        }
    }

    /// Spec-only model (no payloads) at any scale — used for the
    /// simulation plane's GPT-J captures.
    pub fn new_spec(config: TransformerConfig) -> Self {
        TransformerLm {
            layer_names: layer_names(config.layers),
            config,
            weights: None,
            traces: Arc::default(),
        }
    }

    /// Whether this model carries real weights.
    pub fn is_functional(&self) -> bool {
        self.weights.is_some()
    }

    /// Capture the prefill graph for a prompt. With payloads when
    /// functional (pass the real `prompt`), spec-only otherwise (only
    /// `prompt.len()` matters).
    pub fn capture_prefill(&self, ctx: &CaptureCtx, prompt: &[i64]) -> LmCapture {
        let cold = KvState::default();
        (self.capture_batch(ctx, Phase::LlmPrefill, &[(prompt, &cold)])).remove(0)
    }

    /// Capture one decode step given the carried KV state. `token` is the
    /// last sampled token.
    pub fn capture_decode_step(&self, ctx: &CaptureCtx, token: i64, kv: &KvState) -> LmCapture {
        (self.capture_batch(ctx, Phase::LlmDecode, &[(&[token], kv)])).remove(0)
    }

    /// Capture one `phase` step of every member (the tokens it feeds in,
    /// the KV it carries) as one graph, one [`LmCapture`] per member. One
    /// member records exactly the one-member graph.
    pub fn capture_batch(
        &self,
        ctx: &CaptureCtx,
        phase: Phase,
        members: &[(&[i64], &KvState)],
    ) -> Vec<LmCapture> {
        let single = ShardSpec::single();
        self.capture_sharded(ctx, single, phase, members).caps
    }

    /// The forward pass under `spec`: embeds every member's tokens as one
    /// stack of rows, runs every block appending to each member's caches,
    /// projects logits, and attributes each node to a shard (`shard =
    /// stage * tp + rank`). The captures above are this pass at
    /// [`ShardSpec::single()`]; see [`crate::sharded`] for how the splits
    /// stay bit-exact. Only a member's q/k/v rows, cache appends, causal
    /// attention (concatenated back into rows) and last logits row are
    /// its own; since every exact matmul tier folds in ascending `p`, its
    /// rows of the stack equal its own pass bit for bit.
    ///
    /// Every weight is declared on the rank that owns it, and each scope
    /// declares its weights before its first op — at one shard that is
    /// the plain transformer's node order, at many it keeps the shard map
    /// total. Layers go to pipeline stages in contiguous blocks; the KV
    /// cache and attention stay whole on each stage's rank 0.
    pub(crate) fn capture_sharded(
        &self,
        ctx: &CaptureCtx,
        spec: ShardSpec,
        phase: Phase,
        members: &[(&[i64], &KvState)],
    ) -> ShardedLmCapture {
        ctx.phase_scope(phase, || {
            let cfg = &self.config;
            let (d, elem, tp) = (cfg.d_model, cfg.elem, spec.tensor_parallel);
            let ranks = tp as usize;
            let w = self.weights.as_ref();
            // `config` is public: another layer count rebuilds the names.
            let names = match self.layer_names.len() == cfg.layers {
                true => self.layer_names.clone(),
                false => layer_names(cfg.layers),
            };
            let tag = Tagger {
                ctx,
                spec,
                map: RefCell::default(),
            };

            // Weights split `n` ways along their `dim`, each slice declared
            // on the rank of `stage` that owns it: slice r of weight i is
            // `[i * n + r]`. One rank holds each whole weight under its
            // own name.
            let split = |stage: u32, n: u32, weights: &[Split<'_>]| {
                let mut out = Vec::with_capacity(weights.len() * n as usize);
                for &(name, shape, dim, full) in weights {
                    let mut part = shape;
                    part[dim] /= n as usize;
                    for r in 0..n {
                        out.push(tag.on(stage, r, || {
                            if n == 1 {
                                return ctx.parameter(name, shape, elem, full.cloned());
                            }
                            let at = r as usize * part[dim];
                            let slice = full.map(|p| ops::narrow(p, dim, at, part[dim]));
                            ctx.parameter(&format!("{name}_r{r}"), part, elem, slice)
                        }));
                    }
                }
                out
            };
            // Column split: each rank computes its slice of the output
            // columns; a rank-ordered gather on rank 0 reassembles them.
            let columns = |stage: u32, input: &LazyTensor, ws: &[LazyTensor]| {
                if let [whole] = ws {
                    return tag.on(stage, 0, || input.matmul(whole));
                }
                let parts: Vec<LazyTensor> = (0..)
                    .zip(ws)
                    .map(|(r, wr)| tag.on(stage, r, || input.matmul(wr)))
                    .collect();
                let refs: Vec<&LazyTensor> = parts.iter().collect();
                tag.on(stage, 0, || ctx.all_gather(&refs, 1))
            };
            // Row split: rank r multiplies `input(r)` by its weight rows,
            // continuing the previous rank's fold; the last partial
            // returns to rank 0.
            let rows = |stage: u32, ws: &[LazyTensor], input: &dyn Fn(u32) -> LazyTensor| {
                let mut acc: Option<LazyTensor> = None;
                for (r, wr) in (0..).zip(ws) {
                    acc = Some(tag.on(stage, r, || match &acc {
                        None => input(r).matmul(wr),
                        Some(a) => input(r).matmul_acc(wr, a),
                    }));
                }
                let out = acc.expect("one rank at least");
                let last = ws.len() as u32 - 1;
                if last == 0 {
                    return out;
                }
                let (from, to) = (spec.shard_id(stage, last), spec.shard_id(stage, 0));
                tag.on(stage, 0, || out.send_activation(from, to))
            };

            // Embedding lives on the first stage's rank 0.
            let tokens: Vec<i64> = members.iter().flat_map(|m| m.0.iter().copied()).collect();
            let mut x = tag.on(0, 0, || {
                let ids = match w {
                    Some(_) => ctx.input_ids("tokens", &tokens),
                    None => ctx.input_ids_spec("tokens", tokens.len()),
                };
                let wte = ctx.parameter("wte", [cfg.vocab, d], elem, w.map(|w| w.wte.clone()));
                ctx.scope("embed", || wte.gather(&ids))
            });

            // Each member's grown K and V caches, per layer.
            let mut caches = vec![(Vec::new(), Vec::new()); members.len()];
            let mut stage = 0;
            for layer in 0..cfg.layers {
                let s = stage_of_layer(spec, cfg.layers, layer);
                if s != stage {
                    // Pipeline hop: the residual stream crosses the fabric.
                    let (from, to) = (spec.shard_id(stage, 0), spec.shard_id(s, 0));
                    x = tag.on(s, 0, || x.send_activation(from, to));
                    stage = s;
                }
                let lw = w.map(|w| &w.layers[layer]);
                let [index, k_cache, v_cache] = &names[layer];
                let block = || {
                    let normed = tag.on(s, 0, || {
                        let ln_g = ctx.parameter("ln_g", [d], elem, lw.map(|l| l.ln_g.clone()));
                        let ln_b = ctx.parameter("ln_b", [d], elem, lw.map(|l| l.ln_b.clone()));
                        x.layer_norm(&ln_g, &ln_b, 1e-5)
                    });

                    let attn_out = ctx.scope("attn", || {
                        let ws = split(
                            s,
                            tp,
                            &[
                                ("wq", [d, d], 1, lw.map(|l| &l.wq)),
                                ("wk", [d, d], 1, lw.map(|l| &l.wk)),
                                ("wv", [d, d], 1, lw.map(|l| &l.wv)),
                                ("wo", [d, d], 0, lw.map(|l| &l.wo)),
                            ],
                        );
                        let [wq, wk, wv, wo] = [0, 1, 2, 3].map(|i| &ws[i * ranks..][..ranks]);
                        let q = columns(s, &normed, wq);
                        let k_new = columns(s, &normed, wk);
                        let v_new = columns(s, &normed, wv);

                        // Each member attends over its own cache, the
                        // serving plane's migration unit, which enters
                        // whole as a stateful input.
                        let o = tag.on(s, 0, || {
                            let (mut outs, mut at) = (Vec::with_capacity(members.len()), 0);
                            for ((tokens, kv), grown) in members.iter().zip(&mut caches) {
                                let mine = |x: &LazyTensor| match members.len() {
                                    1 => x.clone(),
                                    _ => x.narrow(0, at, tokens.len()),
                                };
                                let (q, k_new, v_new) = (mine(&q), mine(&k_new), mine(&v_new));
                                let cached = kv.k.get(layer).map_or(0, |c| c.dims()[0]);
                                let cache = |name: &str, carried: &[Tensor]| {
                                    if cached == 0 {
                                        return ctx.empty_cache(name, d, elem, w.is_some());
                                    }
                                    let payload =
                                        carried.get(layer).cloned().filter(|_| w.is_some());
                                    ctx.input(name, [cached, d], elem, payload)
                                };
                                let (k_in, v_in) = (cache(k_cache, &kv.k), cache(v_cache, &kv.v));
                                let (kc, vc) = (k_in.kv_append(&k_new), v_in.kv_append(&v_new));
                                outs.push(q.attention(&kc, &vc, cfg.heads, true));
                                grown.0.push(kc);
                                grown.1.push(vc);
                                at += tokens.len();
                            }
                            match &outs[..] {
                                [o] => o.clone(),
                                _ => ctx.concat(&outs.iter().collect::<Vec<_>>(), 0),
                            }
                        });
                        let width = d / ranks;
                        rows(s, wo, &|r| match tp {
                            1 => o.clone(),
                            _ => o.narrow(1, r as usize * width, width),
                        })
                    });
                    let x1 = tag.on(s, 0, || x.add(&attn_out));

                    // Megatron pattern: each rank applies gelu to its own
                    // column slice of w1 and feeds its row slice of w2; the
                    // matmul_acc chain is the only reduction.
                    let mlp_out = ctx.scope("mlp", || {
                        let ffn = d * cfg.ffn_mult;
                        let ws = split(
                            s,
                            tp,
                            &[
                                ("w1", [d, ffn], 1, lw.map(|l| &l.w1)),
                                ("w2", [ffn, d], 0, lw.map(|l| &l.w2)),
                            ],
                        );
                        let (w1, w2) = ws.split_at(ranks);
                        rows(s, w2, &|r| x1.matmul(&w1[r as usize]).gelu())
                    });
                    tag.on(s, 0, || x1.add(&mlp_out))
                };
                x = ctx.scope("h", || ctx.scope(index, block));
            }

            // LM head on the last stage, vocabulary split across the ranks
            // when it divides evenly.
            let last = spec.pipeline_stages - 1;
            let head_ranks = if cfg.vocab.is_multiple_of(ranks) {
                tp
            } else {
                1
            };
            let logits = ctx.scope("lm_head", || {
                let (lnf_g, lnf_b) = tag.on(last, 0, || {
                    let g = ctx.parameter("lnf_g", [d], elem, w.map(|w| w.lnf_g.clone()));
                    let b = ctx.parameter("lnf_b", [d], elem, w.map(|w| w.lnf_b.clone()));
                    (g, b)
                });
                let head = ("lm_head", [d, cfg.vocab], 1, w.map(|w| &w.lm_head));
                let head = split(last, head_ranks, &[head]);
                let normed = tag.on(last, 0, || x.layer_norm(&lnf_g, &lnf_b, 1e-5));
                columns(last, &normed, &head)
            });

            // In a batch each member keeps the one row it samples.
            let mut end = 0;
            let caps = (members.iter().zip(caches))
                .map(|((tokens, _), (k_caches, v_caches))| {
                    end += tokens.len();
                    let logits = match members.len() {
                        1 => logits.clone(),
                        _ => tag.on(last, 0, || logits.narrow(0, end - 1, 1)),
                    };
                    LmCapture {
                        logits,
                        k_caches,
                        v_caches,
                    }
                })
                .collect();
            ShardedLmCapture {
                caps,
                shard_of: tag.map.into_inner(),
            }
        })
    }

    /// Functional prefill of `prompt`: capture, lint, interpret. Returns
    /// the first sampled token and the materialized KV cache.
    pub fn prefill_step(&self, prompt: &[i64]) -> (i64, KvState) {
        self.prefill_batch(&[prompt]).remove(0)
    }

    /// One functional incremental decode step for `token` against `kv`:
    /// re-capture (the data-dependent token feeds in), lint, interpret.
    /// Returns the next token and the grown KV cache.
    pub fn decode_step(&self, token: i64, kv: &KvState) -> (i64, KvState) {
        self.decode_batch(&[(token, kv)]).remove(0)
    }

    /// [`prefill_step`](Self::prefill_step) of every prompt as one graph
    /// ([`capture_batch`](Self::capture_batch)): one capture, one lint
    /// gate, one interpretation. Each result, in order, is bit-identical
    /// to the prompt's own `prefill_step`.
    pub fn prefill_batch(&self, prompts: &[&[i64]]) -> Vec<(i64, KvState)> {
        let cold = KvState::default();
        let members: Vec<_> = prompts.iter().map(|p| (*p, &cold)).collect();
        self.run_step(&self.traces.prefill, "prefill", Phase::LlmPrefill, &members)
    }

    /// [`decode_step`](Self::decode_step) of every `(token, kv)` as one
    /// graph; each result is bit-identical to the member's own step.
    pub fn decode_batch(&self, steps: &[(i64, &KvState)]) -> Vec<(i64, KvState)> {
        let members: Vec<_> = (steps.iter())
            .map(|(token, kv)| (std::slice::from_ref(token), *kv))
            .collect();
        self.run_step(&self.traces.decode, "decode", Phase::LlmDecode, &members)
    }

    /// Functional greedy generation: prefill the prompt, then decode
    /// `steps` tokens via per-step re-capture. Returns the generated
    /// tokens. This is the reference semantics every execution mode must
    /// reproduce.
    pub fn generate(&self, prompt: &[i64], steps: usize) -> Vec<i64> {
        assert!(self.is_functional(), "generate needs real weights");
        let mut tokens = Vec::with_capacity(steps);
        let (mut token, mut kv) = self.prefill_step(prompt);
        tokens.push(token);
        for _ in 1..steps {
            (token, kv) = self.decode_step(token, &kv);
            tokens.push(token);
        }
        tokens
    }

    /// Functional full-sequence logits (no cache): processes the whole
    /// sequence in one capture and returns `[t, vocab]` logits. Used to
    /// cross-check the incremental path.
    pub fn full_logits(&self, sequence: &[i64]) -> Tensor {
        assert!(self.is_functional());
        let ctx = CaptureCtx::new("full");
        let cap = self.capture_prefill(&ctx, sequence);
        cap.logits.mark_output();
        let captured = ctx.finish();
        interp::run_single_output(&captured).expect("full forward executes")
    }

    /// Capture one `phase` step of `members` into `ctx` and sample each
    /// member's logits under the same phase, so that every node of the
    /// step carries it. Returns what the next step needs, member by
    /// member: the sampled token, then the grown K and V caches.
    fn capture_step(
        &self,
        ctx: &CaptureCtx,
        phase: Phase,
        members: &[(&[i64], &KvState)],
    ) -> Vec<NodeId> {
        let caps = self.capture_batch(ctx, phase.clone(), members);
        ctx.phase_scope(phase, || {
            let mut wanted = Vec::new();
            for cap in caps {
                let sampled = cap.logits.sample();
                sampled.mark_output();
                let caches = cap.k_caches.iter().chain(&cap.v_caches);
                wanted.extend(std::iter::once(&sampled).chain(caches).map(|lt| lt.node));
            }
            wanted
        })
    }

    /// Capture one step of `members` as the next of `trace`'s session
    /// ([`capture_step`](Self::capture_step)), finish the capture, and run
    /// it for exactly what the next step needs. Interior values are
    /// dropped as they die.
    fn run_step(
        &self,
        trace: &Mutex<RecaptureSession>,
        name: &str,
        phase: Phase,
        members: &[(&[i64], &KvState)],
    ) -> Vec<(i64, KvState)> {
        if members.is_empty() {
            return Vec::new();
        }
        // The lock is held for the two moves only, never across a step.
        let held = "no step panics holding the session lock";
        let mut session = std::mem::take(&mut *trace.lock().expect(held));
        let ctx = session.begin(name);
        let wanted = self.capture_step(&ctx, phase, members);
        session.finish(&ctx);
        let values = session
            .execute_outputs(&wanted)
            .expect("captured step executes");
        *trace.lock().expect(held) = session;
        let cache = |v: &Value| v.as_f("kv cache").clone();
        let layers = self.config.layers;
        (values.chunks(1 + 2 * layers))
            .map(|member| {
                let (k, v) = member[1..].split_at(layers);
                let kv = KvState {
                    k: k.iter().map(cache).collect(),
                    v: v.iter().map(cache).collect(),
                };
                (member[0].as_i("sampled token").data()[0], kv)
            })
            .collect()
    }
}

/// One weight to split across ranks: name, whole shape, the dimension
/// split, and the whole payload on the functional plane.
type Split<'w> = (&'static str, [usize; 2], usize, Option<&'w Tensor>);

/// Pipeline stage of `spec` that owns `layer` of `layers` (contiguous
/// blocks).
pub(crate) fn stage_of_layer(spec: ShardSpec, layers: usize, layer: usize) -> u32 {
    let stages = spec.pipeline_stages as usize;
    ((layer * stages / layers).min(stages - 1)) as u32
}

/// Region-based shard attribution: every node a closure records goes to
/// one shard of the spec. One shard keeps no map (every node is on shard
/// 0): the unsharded capture is the hot path of every functional step.
struct Tagger<'a> {
    ctx: &'a CaptureCtx,
    spec: ShardSpec,
    map: RefCell<BTreeMap<NodeId, u32>>,
}

impl Tagger<'_> {
    fn on<R>(&self, stage: u32, rank: u32, f: impl FnOnce() -> R) -> R {
        if self.spec.shards() == 1 {
            return f();
        }
        let before = self.ctx.node_count();
        let out = f();
        let shard = self.spec.shard_id(stage, rank);
        let created = before..self.ctx.node_count();
        let mut map = self.map.borrow_mut();
        map.extend(created.map(|i| (NodeId::new(i as u32), shard)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::patterns;
    use genie_srg::OpKind;

    fn tiny() -> TransformerLm {
        TransformerLm::new_functional(TransformerConfig::tiny(), 42)
    }

    #[test]
    fn a_decode_batch_step_lints_clean() {
        // Every node of a functional step carries its phase, the sampled
        // tokens included: no GA008 (nor anything else) per member.
        let m = tiny();
        let (token, kv) = m.prefill_step(&[1, 2, 3]);
        let members = vec![(std::slice::from_ref(&token), &kv); 4];
        let ctx = CaptureCtx::new("decode");
        m.capture_step(&ctx, Phase::LlmDecode, &members);
        let cap = ctx.finish();
        let report = genie_analysis::run_srg_passes(&cap.srg, &genie_analysis::LintConfig::new());
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn generation_is_deterministic() {
        let m = tiny();
        let a = m.generate(&[1, 2, 3], 6);
        let b = m.generate(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| (0..32).contains(&t)));
    }

    #[test]
    fn incremental_decode_matches_full_forward() {
        // The KV-cache path must produce the same next-token as running
        // the whole sequence through the model — the correctness property
        // behind every KV-cache optimization in the paper.
        let m = tiny();
        let prompt = vec![5, 9, 2, 7];
        let generated = m.generate(&prompt, 3);

        // Re-derive each generated token from full-sequence logits.
        let mut seq = prompt.clone();
        for &tok in &generated {
            let logits = m.full_logits(&seq);
            let t = seq.len();
            let last = genie_tensor::ops::narrow(&logits, 0, t - 1, 1);
            let argmax = genie_tensor::ops::argmax_lastdim(&last).data()[0];
            assert_eq!(argmax, tok, "divergence at position {t}");
            seq.push(tok);
        }
    }

    #[test]
    fn spec_capture_matches_gptj_shape() {
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let ctx = CaptureCtx::new("gptj.prefill");
        let cap = m.capture_prefill(&ctx, &vec![0; 72]);
        cap.logits.mark_output();
        let captured = ctx.finish();
        assert!(captured.values.is_empty(), "spec capture has no payloads");
        assert_eq!(cap.logits.dims(), &[72, 50400]);
        // 28 layers with attention each.
        let attn = captured
            .srg
            .nodes()
            .filter(|n| n.op == OpKind::Attention)
            .count();
        assert_eq!(attn, 28);
    }

    #[test]
    fn recognizers_classify_spec_decode() {
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let mut kv = KvState::default();
        // Fake a 72-token cache spec by capturing prefill first.
        let ctx = CaptureCtx::new("p");
        let cap = m.capture_prefill(&ctx, &vec![0; 72]);
        let _ = cap;
        // Decode step with a spec cache of length 72: use empty KvState
        // but spec capture path (cached=0 means empty caches; that still
        // recognizes as decode because query length is 1).
        kv.k.clear();
        let ctx = CaptureCtx::new("d");
        let cap = m.capture_decode_step(&ctx, 0, &kv);
        cap.logits.mark_output();
        let mut srg = ctx.finish().srg;
        // Clear phases to exercise the recognizer (capture already tags
        // via phase_scope).
        for node in srg.nodes_mut() {
            node.phase = genie_srg::Phase::Unknown;
        }
        let fired = patterns::run_all(&mut srg);
        assert!(fired.iter().any(|r| r.recognizer == "llm"));
        assert!(srg
            .nodes()
            .filter(|n| n.op == OpKind::Attention)
            .all(|n| n.phase == Phase::LlmDecode));
    }

    #[test]
    fn gptj_layers_detected_as_repeated_blocks() {
        // The FX-style structural pass must recover all 28 transformer
        // blocks from module paths alone.
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let ctx = CaptureCtx::new("p");
        let cap = m.capture_prefill(&ctx, &[0; 8]);
        cap.logits.mark_output();
        let srg = ctx.finish().srg;
        let blocks = genie_frontend::structure::repeated_blocks(&srg);
        let h = blocks.iter().find(|b| b.prefix == "h").expect("h family");
        assert_eq!(h.instances.len(), 28);
        // Every instance carries the same member count (uniform layers).
        let sizes: std::collections::BTreeSet<usize> = h.members.iter().map(|m| m.len()).collect();
        assert_eq!(sizes.len(), 1);
    }

    #[test]
    fn kv_state_accounting() {
        let (_, kv) = tiny().prefill_step(&[1, 2, 3, 4, 5]);
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.k.len(), 2);
        // 2 layers × (K+V) × 5 tokens × 16 dims × 4 bytes
        assert_eq!(kv.size_bytes(), 2 * 2 * 5 * 16 * 4);
    }
}
