//! Decoder-only transformer LM built on the Genie frontend.
//!
//! One implementation serves both planes: with materialized weights
//! (functional, tiny configs) captures carry payloads and can be executed
//! numerically; without (simulation, GPT-J scale) the same code emits
//! spec-only SRGs whose shapes and costs drive the performance plane.

use crate::config::TransformerConfig;
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_frontend::interp;
use genie_frontend::value::Value;
use genie_frontend::RecaptureSession;
use genie_srg::{ElemType, NodeId, Phase};
use genie_tensor::{init, Tensor};
use std::sync::{Arc, Mutex};

/// Per-layer weight payloads (functional plane only).
#[derive(Clone, Debug)]
pub(crate) struct LayerWeights {
    pub(crate) wq: Tensor,
    pub(crate) wk: Tensor,
    pub(crate) wv: Tensor,
    pub(crate) wo: Tensor,
    pub(crate) w1: Tensor,
    pub(crate) w2: Tensor,
    pub(crate) ln_g: Tensor,
    pub(crate) ln_b: Tensor,
}

/// A transformer LM. `weights` is `Some` for functional configs.
#[derive(Clone, Debug)]
pub struct TransformerLm {
    /// Architecture.
    pub config: TransformerConfig,
    weights: Option<ModelWeights>,
    /// Shared by clones, which capture the same graphs.
    traces: Arc<StepTraces>,
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
pub(crate) struct ModelWeights {
    pub(crate) wte: Tensor,
    pub(crate) layers: Vec<LayerWeights>,
    pub(crate) lnf_g: Tensor,
    pub(crate) lnf_b: Tensor,
    pub(crate) lm_head: Tensor,
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
    /// Logits for the processed positions, `[t, vocab]`.
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
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        let scale = |t: Tensor, f: f32| {
            let data = t.data().iter().map(|&x| x * f).collect();
            Tensor::from_vec(t.dims().to_vec(), data)
        };
        let layers = (0..config.layers)
            .map(|_| LayerWeights {
                wq: scale(init::randn([d, d], next()), 1.0 / (d as f32).sqrt()),
                wk: scale(init::randn([d, d], next()), 1.0 / (d as f32).sqrt()),
                wv: scale(init::randn([d, d], next()), 1.0 / (d as f32).sqrt()),
                wo: scale(init::randn([d, d], next()), 1.0 / (d as f32).sqrt()),
                w1: scale(init::randn([d, ffn], next()), 1.0 / (d as f32).sqrt()),
                w2: scale(init::randn([ffn, d], next()), 1.0 / (ffn as f32).sqrt()),
                ln_g: Tensor::ones([d]),
                ln_b: Tensor::zeros([d]),
            })
            .collect();
        let weights = ModelWeights {
            wte: scale(init::randn([config.vocab, d], next()), 0.5),
            layers,
            lnf_g: Tensor::ones([d]),
            lnf_b: Tensor::zeros([d]),
            lm_head: scale(
                init::randn([d, config.vocab], next()),
                1.0 / (d as f32).sqrt(),
            ),
        };
        TransformerLm {
            config,
            weights: Some(weights),
            traces: Arc::default(),
        }
    }

    /// Spec-only model (no payloads) at any scale — used for the
    /// simulation plane's GPT-J captures.
    pub fn new_spec(config: TransformerConfig) -> Self {
        TransformerLm {
            config,
            weights: None,
            traces: Arc::default(),
        }
    }

    /// Whether this model carries real weights.
    pub fn is_functional(&self) -> bool {
        self.weights.is_some()
    }

    /// Crate-internal weight access (the sharded wrapper narrows these).
    pub(crate) fn weights(&self) -> Option<&ModelWeights> {
        self.weights.as_ref()
    }

    /// Capture the prefill graph for a prompt. With payloads when
    /// functional (pass the real `prompt`), spec-only otherwise (only
    /// `prompt.len()` matters).
    pub fn capture_prefill(&self, ctx: &CaptureCtx, prompt: &[i64]) -> LmCapture {
        ctx.phase_scope(Phase::LlmPrefill, || {
            self.capture_forward(ctx, prompt, &KvState::default(), prompt.len())
        })
    }

    /// Capture one decode step given the carried KV state. `token` is the
    /// last sampled token.
    pub fn capture_decode_step(&self, ctx: &CaptureCtx, token: i64, kv: &KvState) -> LmCapture {
        ctx.phase_scope(Phase::LlmDecode, || {
            self.capture_forward(ctx, &[token], kv, 1)
        })
    }

    /// Shared forward capture: embeds `tokens`, runs all blocks appending
    /// to the provided caches, and projects logits.
    fn capture_forward(
        &self,
        ctx: &CaptureCtx,
        tokens: &[i64],
        kv: &KvState,
        t: usize,
    ) -> LmCapture {
        let cfg = &self.config;
        let d = cfg.d_model;
        let elem = cfg.elem;
        let w = self.weights.as_ref();

        let ids = if w.is_some() {
            ctx.input_ids("tokens", tokens)
        } else {
            ctx.input_ids_spec("tokens", t)
        };
        let wte = ctx.parameter("wte", [cfg.vocab, d], elem, w.map(|w| w.wte.clone()));
        let mut x = ctx.scope("embed", || wte.gather(&ids));

        let mut k_caches = Vec::with_capacity(cfg.layers);
        let mut v_caches = Vec::with_capacity(cfg.layers);

        for layer in 0..cfg.layers {
            let lw = w.map(|w| &w.layers[layer]);
            let cached = kv.k.get(layer).map_or(0, |c| c.dims()[0]);
            x = ctx.scope("h", || {
                ctx.scope(&layer.to_string(), || {
                    let ln_g = ctx.parameter("ln_g", [d], elem, lw.map(|l| l.ln_g.clone()));
                    let ln_b = ctx.parameter("ln_b", [d], elem, lw.map(|l| l.ln_b.clone()));
                    let normed = x.layer_norm(&ln_g, &ln_b, 1e-5);

                    let (attn_out, kc, vc) = ctx.scope("attn", || {
                        let wq = ctx.parameter("wq", [d, d], elem, lw.map(|l| l.wq.clone()));
                        let wk = ctx.parameter("wk", [d, d], elem, lw.map(|l| l.wk.clone()));
                        let wv = ctx.parameter("wv", [d, d], elem, lw.map(|l| l.wv.clone()));
                        let wo = ctx.parameter("wo", [d, d], elem, lw.map(|l| l.wo.clone()));
                        let q = normed.matmul(&wq);
                        let k_new = normed.matmul(&wk);
                        let v_new = normed.matmul(&wv);

                        // Carried cache enters as a stateful input.
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

                        let o = q.attention(&kc, &vc, self.config.heads, true);
                        (o.matmul(&wo), kc, vc)
                    });
                    let x1 = x.add(&attn_out);

                    let mlp_out = ctx.scope("mlp", || {
                        let ffn = d * cfg.ffn_mult;
                        let w1 = ctx.parameter("w1", [d, ffn], elem, lw.map(|l| l.w1.clone()));
                        let w2 = ctx.parameter("w2", [ffn, d], elem, lw.map(|l| l.w2.clone()));
                        x1.matmul(&w1).gelu().matmul(&w2)
                    });
                    k_caches.push(kc);
                    v_caches.push(vc);
                    x1.add(&mlp_out)
                })
            });
        }

        let logits = ctx.scope("lm_head", || {
            let lnf_g = ctx.parameter("lnf_g", [d], elem, w.map(|w| w.lnf_g.clone()));
            let lnf_b = ctx.parameter("lnf_b", [d], elem, w.map(|w| w.lnf_b.clone()));
            let head = ctx.parameter(
                "lm_head",
                [d, cfg.vocab],
                elem,
                w.map(|w| w.lm_head.clone()),
            );
            x.layer_norm(&lnf_g, &lnf_b, 1e-5).matmul(&head)
        });

        LmCapture {
            logits,
            k_caches,
            v_caches,
        }
    }

    /// Functional prefill of `prompt`: capture, lint, interpret. Returns
    /// the first sampled token and the materialized KV cache.
    pub fn prefill_step(&self, prompt: &[i64]) -> (i64, KvState) {
        run_step(&self.traces.prefill, "prefill", |ctx| {
            self.capture_prefill(ctx, prompt)
        })
    }

    /// One functional incremental decode step for `token` against `kv`:
    /// re-capture (the data-dependent token feeds in), lint, interpret.
    /// Returns the next token and the grown KV cache.
    pub fn decode_step(&self, token: i64, kv: &KvState) -> (i64, KvState) {
        run_step(&self.traces.decode, "decode", |ctx| {
            self.capture_decode_step(ctx, token, kv)
        })
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
}

/// Capture one step as the next of `trace`'s session, sample from its
/// logits, finish the capture, and run it for exactly what the next step
/// needs: the sampled token and the grown caches. Interior values are
/// dropped as they die.
fn run_step(
    trace: &Mutex<RecaptureSession>,
    name: &str,
    capture: impl FnOnce(&CaptureCtx) -> LmCapture,
) -> (i64, KvState) {
    // The lock is held for the two moves only, never across a step.
    let held = "no step panics holding the session lock";
    let mut session = std::mem::take(&mut *trace.lock().expect(held));
    let ctx = session.begin(name);
    let cap = capture(&ctx);
    let sampled = cap.logits.sample();
    sampled.mark_output();
    session.finish(&ctx);
    let wanted: Vec<NodeId> = std::iter::once(&sampled)
        .chain(&cap.k_caches)
        .chain(&cap.v_caches)
        .map(|lt| lt.node)
        .collect();
    let values = session
        .execute_outputs(&wanted)
        .expect("captured step executes");
    *trace.lock().expect(held) = session;
    let cache = |v: &Value| v.as_f("kv cache").clone();
    let (k, v) = values[1..].split_at(cap.k_caches.len());
    let kv = KvState {
        k: k.iter().map(cache).collect(),
        v: v.iter().map(cache).collect(),
    };
    (values[0].as_i("sampled token").data()[0], kv)
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
        // Spec captures carry no data beyond zero-byte cache seeds.
        assert!(
            captured.values.values().all(|v| v.size_bytes() == 0),
            "spec capture has no payloads"
        );
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
