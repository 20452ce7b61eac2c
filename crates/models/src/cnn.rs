//! ResNet-style CNN feature extractor + classifier.

use crate::config::CnnConfig;
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_srg::{ElemType, Modality};
use genie_tensor::{init, ops, Tensor};

/// A simple CNN: `stages` conv→relu→(pool every other stage) blocks, then
/// global average pooling and a linear classifier. Channel width doubles
/// every two stages.
#[derive(Clone, Debug)]
pub struct SimpleCnn {
    /// Architecture.
    pub config: CnnConfig,
    weights: Option<Vec<StageWeights>>,
    classifier: Option<(Tensor, Tensor)>,
}

#[derive(Clone, Debug)]
struct StageWeights {
    w: Tensor,
    b: Tensor,
}

impl SimpleCnn {
    /// Channel count of stage `i`.
    fn channels(&self, i: usize) -> usize {
        self.config.base_channels << (i / 2)
    }

    fn in_channels(&self, i: usize) -> usize {
        if i == 0 {
            3
        } else {
            self.channels(i - 1)
        }
    }

    /// Functional model with seeded weights (tiny configs only).
    pub fn new_functional(config: CnnConfig, seed: u64) -> Self {
        assert_eq!(config.elem, ElemType::F32, "functional plane is f32");
        let mut model = SimpleCnn {
            config,
            weights: None,
            classifier: None,
        };
        let mut next = crate::weight_seeds(seed);
        let weights = (0..model.config.stages)
            .map(|i| {
                let cout = model.channels(i);
                let cin = model.in_channels(i);
                StageWeights {
                    w: ops::scale(
                        &init::randn([cout, cin, 3, 3], next()),
                        1.0 / ((cin * 9) as f32).sqrt(),
                    ),
                    b: Tensor::zeros([cout]),
                }
            })
            .collect();
        let last = model.channels(model.config.stages - 1);
        model.classifier = Some((
            ops::scale(
                &init::randn([last, model.config.classes], next()),
                1.0 / (last as f32).sqrt(),
            ),
            Tensor::zeros([model.config.classes]),
        ));
        model.weights = Some(weights);
        model
    }

    /// Spec-only model at any scale.
    pub fn new_spec(config: CnnConfig) -> Self {
        SimpleCnn {
            config,
            weights: None,
            classifier: None,
        }
    }

    /// Whether this model carries real weights.
    pub fn is_functional(&self) -> bool {
        self.weights.is_some()
    }

    /// Capture the inference graph for a batch of `n` images. Pass the
    /// real pixels for functional runs, `None` for spec captures.
    pub fn capture_inference(
        &self,
        ctx: &CaptureCtx,
        n: usize,
        pixels: Option<Tensor>,
    ) -> LazyTensor {
        let cfg = &self.config;
        let img = cfg.image_size;
        ctx.modality_scope(Modality::Vision, || {
            let mut x = ctx.input("images", [n, 3, img, img], cfg.elem, pixels);
            for i in 0..cfg.stages {
                let cout = self.channels(i);
                let cin = self.in_channels(i);
                x = ctx.scope("stage", || {
                    ctx.scope(&i.to_string(), || {
                        let w = ctx.parameter(
                            "w",
                            [cout, cin, 3, 3],
                            cfg.elem,
                            self.weights.as_ref().map(|ws| ws[i].w.clone()),
                        );
                        let b = ctx.parameter(
                            "b",
                            [cout],
                            cfg.elem,
                            self.weights.as_ref().map(|ws| ws[i].b.clone()),
                        );
                        let mut y = x.conv2d(&w, &b, 1, 1).relu();
                        // Downsample every other stage while the map is
                        // large enough.
                        if i % 2 == 1 && y.dims()[2] >= 4 {
                            y = y.pool2d(2, 2, false);
                        }
                        y
                    })
                });
            }
            ctx.scope("classifier", || {
                let last = self.channels(cfg.stages - 1);
                let w = ctx.parameter(
                    "fc_w",
                    [last, cfg.classes],
                    cfg.elem,
                    self.classifier.as_ref().map(|(w, _)| w.clone()),
                );
                let b = ctx.parameter(
                    "fc_b",
                    [cfg.classes],
                    cfg.elem,
                    self.classifier.as_ref().map(|(_, b)| b.clone()),
                );
                x.global_avg_pool().matmul(&w).add_bias(&b)
            })
        })
    }

    /// Functional inference: returns `[n, classes]` scores.
    pub fn infer(&self, pixels: Tensor) -> Tensor {
        assert!(self.is_functional());
        let n = pixels.dims()[0];
        let ctx = CaptureCtx::new("cnn.infer");
        let out = self.capture_inference(&ctx, n, Some(pixels));
        out.mark_output();
        let cap = ctx.finish();
        genie_frontend::interp::run_single_output(&cap).expect("cnn executes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::patterns;
    use genie_srg::{OpKind, Phase};

    #[test]
    fn functional_inference_shapes_and_determinism() {
        let m = SimpleCnn::new_functional(CnnConfig::tiny(), 7);
        let img = init::randn([2, 3, 16, 16], 1);
        let a = m.infer(img.clone());
        let b = m.infer(img);
        assert_eq!(a.dims(), &[2, 10]);
        assert_eq!(a, b);
    }

    #[test]
    fn spec_capture_is_recognized_as_vision_pipeline() {
        let m = SimpleCnn::new_spec(CnnConfig::resnet_like());
        let ctx = CaptureCtx::new("resnet");
        let out = m.capture_inference(&ctx, 1, None);
        out.mark_output();
        let mut srg = ctx.finish().srg;
        // Strip modality to prove the recognizer rediscovers it.
        for node in srg.nodes_mut() {
            node.modality = genie_srg::Modality::Unknown;
        }
        let fired = patterns::run_all(&mut srg);
        assert!(fired.iter().any(|r| r.recognizer == "vision"));
        let convs = srg.nodes().filter(|n| n.op == OpKind::Conv2d).count();
        assert_eq!(convs, 8);
        assert!(srg
            .nodes()
            .filter(|n| n.op == OpKind::Conv2d)
            .all(|n| n.phase == Phase::VisionEncode));
        // Pipeline stages annotated 0..=7.
        let stages: std::collections::BTreeSet<_> = srg
            .nodes()
            .filter_map(|n| n.attrs.get("pipeline_stage").cloned())
            .collect();
        assert_eq!(stages.len(), 8);
    }

    #[test]
    fn different_images_give_different_scores() {
        let m = SimpleCnn::new_functional(CnnConfig::tiny(), 7);
        let a = m.infer(init::randn([1, 3, 16, 16], 10));
        let b = m.infer(init::randn([1, 3, 16, 16], 11));
        assert!(a.max_abs_diff(&b) > 1e-6);
    }
}
