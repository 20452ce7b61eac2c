//! Multimodal (VQA-style) model: a vision encoder and a text encoder fused
//! into a joint head — the fourth workload family of Table 1.

use crate::config::{CnnConfig, TransformerConfig};
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_srg::{ElemType, Modality, Phase};
use genie_tensor::{init, ops, Tensor};

/// Configuration of the fusion model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultimodalConfig {
    /// Vision tower.
    pub vision: CnnConfig,
    /// Text tower (encoder-style transformer reuse).
    pub text: TransformerConfig,
    /// Joint embedding width.
    pub fusion_dim: usize,
    /// Answer vocabulary.
    pub answers: usize,
}

impl MultimodalConfig {
    /// Simulation-scale VQA model.
    pub fn vqa_like() -> Self {
        MultimodalConfig {
            vision: CnnConfig::resnet_like(),
            text: TransformerConfig::gptj_6b(),
            fusion_dim: 2048,
            answers: 3000,
        }
    }

    /// Tiny functional config.
    pub fn tiny() -> Self {
        MultimodalConfig {
            vision: CnnConfig::tiny(),
            text: TransformerConfig::tiny(),
            fusion_dim: 8,
            answers: 5,
        }
    }
}

/// The multimodal model. Functional only at tiny scale.
#[derive(Clone, Debug)]
pub struct Multimodal {
    /// Architecture.
    pub config: MultimodalConfig,
    weights: Option<FusionWeights>,
}

#[derive(Clone, Debug)]
struct FusionWeights {
    img_proj: Tensor,
    txt_table: Tensor,
    txt_proj: Tensor,
    head_w: Tensor,
}

impl Multimodal {
    /// Functional model (tiny configs only).
    pub fn new_functional(config: MultimodalConfig, seed: u64) -> Self {
        let vis_ch = config.vision.base_channels << ((config.vision.stages - 1) / 2);
        let weights = FusionWeights {
            img_proj: init::uniform([vis_ch, config.fusion_dim], -0.3, 0.3, seed),
            txt_table: init::uniform(
                [config.text.vocab, config.text.d_model],
                -0.3,
                0.3,
                seed + 1,
            ),
            txt_proj: init::uniform(
                [config.text.d_model, config.fusion_dim],
                -0.3,
                0.3,
                seed + 2,
            ),
            head_w: init::uniform([2 * config.fusion_dim, config.answers], -0.3, 0.3, seed + 3),
        };
        Multimodal {
            config,
            weights: Some(weights),
        }
    }

    /// Spec-only model.
    pub fn new_spec(config: MultimodalConfig) -> Self {
        Multimodal {
            config,
            weights: None,
        }
    }

    /// Whether this model carries real weights.
    pub fn is_functional(&self) -> bool {
        self.weights.is_some()
    }

    /// Capture a VQA inference: image + question tokens → answer scores.
    /// The towers are tagged with their modalities; the head fuses them —
    /// exactly the structure the multimodal recognizer and the global
    /// scheduler's modality-aware placement consume.
    pub fn capture_inference(
        &self,
        ctx: &CaptureCtx,
        question: &[i64],
        pixels: Option<Tensor>,
    ) -> LazyTensor {
        let cfg = &self.config;
        let elem = if self.is_functional() {
            ElemType::F32
        } else {
            ElemType::F16
        };
        let w = self.weights.as_ref();

        // Vision tower: a small conv stack then projection.
        let img_vec = ctx.modality_scope(Modality::Vision, || {
            ctx.scope("vision_tower", || {
                let img = cfg.vision.image_size;
                let mut x = ctx.input("image", [1, 3, img, img], elem, pixels);
                for i in 0..cfg.vision.stages {
                    let cout = cfg.vision.base_channels << (i / 2);
                    let cin = if i == 0 {
                        3
                    } else {
                        cfg.vision.base_channels << ((i - 1) / 2)
                    };
                    let cw = ctx.parameter(
                        &format!("conv{i}_w"),
                        [cout, cin, 3, 3],
                        elem,
                        self.is_functional().then(|| {
                            ops::scale(
                                &init::randn([cout, cin, 3, 3], 1000 + i as u64),
                                1.0 / ((cin * 9) as f32).sqrt(),
                            )
                        }),
                    );
                    let cb = ctx.parameter(
                        &format!("conv{i}_b"),
                        [cout],
                        elem,
                        self.is_functional().then(|| Tensor::zeros([cout])),
                    );
                    x = x.conv2d(&cw, &cb, 1, 1).relu();
                    if i % 2 == 1 && x.dims()[2] >= 4 {
                        x = x.pool2d(2, 2, false);
                    }
                }
                let proj = ctx.parameter(
                    "img_proj",
                    [x.dims()[1], cfg.fusion_dim],
                    elem,
                    w.map(|w| w.img_proj.clone()),
                );
                x.global_avg_pool().matmul(&proj).relu()
            })
        });

        // Text tower: embedding mean-pool then projection.
        let txt_vec = ctx.modality_scope(Modality::Text, || {
            ctx.scope("text_tower", || {
                let table = ctx.parameter(
                    "txt_table",
                    [cfg.text.vocab, cfg.text.d_model],
                    elem,
                    w.map(|w| w.txt_table.clone()),
                );
                let ids = if self.is_functional() {
                    ctx.input_ids("question", question)
                } else {
                    ctx.input_ids_spec("question", question.len())
                };
                let emb = table.gather(&ids);
                let pooled = emb
                    .transpose()
                    .mean_lastdim()
                    .reshape([1, cfg.text.d_model]);
                let proj = ctx.parameter(
                    "txt_proj",
                    [cfg.text.d_model, cfg.fusion_dim],
                    elem,
                    w.map(|w| w.txt_proj.clone()),
                );
                pooled.matmul(&proj).relu()
            })
        });

        // Fusion head.
        ctx.phase_scope(Phase::ModalityFusion, || {
            ctx.scope("fusion_head", || {
                let fused = img_vec.concat(&txt_vec, 1);
                let head = ctx.parameter(
                    "head_w",
                    [2 * cfg.fusion_dim, cfg.answers],
                    elem,
                    w.map(|w| w.head_w.clone()),
                );
                fused.matmul(&head)
            })
        })
    }

    /// Functional inference: answer scores `[1, answers]`.
    pub fn answer(&self, question: &[i64], pixels: Tensor) -> Tensor {
        assert!(self.is_functional());
        let ctx = CaptureCtx::new("vqa");
        let out = self.capture_inference(&ctx, question, Some(pixels));
        out.mark_output();
        let cap = ctx.finish();
        genie_frontend::interp::run_single_output(&cap).expect("vqa executes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::patterns;

    #[test]
    fn functional_vqa_runs() {
        let m = Multimodal::new_functional(MultimodalConfig::tiny(), 4);
        let img = init::randn([1, 3, 16, 16], 9);
        let out = m.answer(&[1, 2, 3], img.clone());
        assert_eq!(out.dims(), &[1, 5]);
        let again = m.answer(&[1, 2, 3], img);
        assert_eq!(out, again);
    }

    #[test]
    fn modalities_fuse_in_spec_capture() {
        let m = Multimodal::new_spec(MultimodalConfig::tiny());
        let ctx = CaptureCtx::new("vqa.spec");
        let out = m.capture_inference(&ctx, &[0; 8], None);
        out.mark_output();
        let mut srg = ctx.finish().srg;
        let fired = patterns::run_all(&mut srg);
        assert!(
            fired.iter().any(|r| r.recognizer == "multimodal"),
            "fired: {fired:?}"
        );
        assert_eq!(srg.node(out.node).modality, Modality::Mixed);
    }
}
