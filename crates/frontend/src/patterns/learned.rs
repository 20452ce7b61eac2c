//! A learned semantic lexicon (§5, "beyond hand-crafted rules").
//!
//! The built-in recognizers are hand-written idiom detectors; the paper
//! asks how systems like Genie could "automatically learn or infer the
//! semantic roles of operations … in novel, unseen AI architectures".
//! This module is a minimal, fully-deterministic instance: graphs are
//! embedded into a fixed feature space (operator mix, structure,
//! roofline statistics) and classified by nearest centroid against
//! labeled exemplars. New exemplars extend the lexicon at runtime — no
//! recompilation, no new recognizer code.

use genie_srg::stats::GraphStats;
use genie_srg::{OpKind, Srg};

/// Dimension of the feature embedding.
pub const FEATURES: usize = 12;

/// Embed a graph as a fixed-length feature vector. Features are
/// scale-normalized (fractions and ratios, not counts) so a 2-layer toy
/// and a 28-layer production model of the same family land close
/// together.
pub fn features(srg: &Srg) -> [f64; FEATURES] {
    let stats = GraphStats::of(srg).unwrap_or_else(|_| GraphStats {
        nodes: 0,
        edges: 0,
        depth: 0,
        max_width: 0,
        parallelism_ratio: 0.0,
        total_flops: 0.0,
        total_bytes: 0.0,
        operational_intensity: None,
        weight_bytes: 0.0,
        stateful_bytes: 0.0,
        activation_bytes: 0.0,
        phases: Vec::new(),
        modalities: Vec::new(),
        sparse_ops: 0,
        dense_ops: 0,
        kv_appends: 0,
    });
    let n = srg.node_count().max(1) as f64;
    let count =
        |f: &dyn Fn(&OpKind) -> bool| srg.nodes().filter(|node| f(&node.op)).count() as f64 / n;
    let total_state = (stats.weight_bytes + stats.stateful_bytes + stats.activation_bytes).max(1.0);
    [
        count(&|op| matches!(op, OpKind::MatMul | OpKind::Attention)),
        count(&|op| matches!(op, OpKind::Conv2d | OpKind::Pool2d)),
        count(&|op| *op == OpKind::EmbeddingGather),
        count(&|op| *op == OpKind::KvAppend),
        count(&|op| matches!(op, OpKind::Concat | OpKind::Slice)),
        count(&|op| op.is_source()),
        stats.parallelism_ratio.min(4.0) / 4.0,
        (stats.depth as f64 / n).min(1.0),
        stats.operational_intensity.unwrap_or(0.0).min(1024.0) / 1024.0,
        stats.weight_bytes / total_state,
        stats.stateful_bytes / total_state,
        (stats.modalities.len() as f64).min(4.0) / 4.0,
    ]
}

/// A labeled exemplar in the lexicon.
#[derive(Clone, Debug)]
pub struct Exemplar {
    /// Class label (e.g. `"llm"`, `"vision"`).
    pub label: String,
    /// Feature centroid for this class.
    pub centroid: [f64; FEATURES],
    /// Number of graphs averaged into the centroid.
    pub support: usize,
}

/// A trainable nearest-centroid lexicon.
#[derive(Clone, Debug, Default)]
pub struct LearnedLexicon {
    exemplars: Vec<Exemplar>,
}

impl LearnedLexicon {
    /// Empty lexicon.
    pub fn new() -> Self {
        LearnedLexicon::default()
    }

    /// Number of known classes.
    pub fn classes(&self) -> usize {
        self.exemplars.len()
    }

    /// Add a labeled graph, creating or refining that label's centroid
    /// (running mean).
    pub fn learn(&mut self, label: &str, srg: &Srg) {
        let x = features(srg);
        match self.exemplars.iter_mut().find(|e| e.label == label) {
            Some(e) => {
                let k = e.support as f64;
                for (c, v) in e.centroid.iter_mut().zip(x) {
                    *c = (*c * k + v) / (k + 1.0);
                }
                e.support += 1;
            }
            None => self.exemplars.push(Exemplar {
                label: label.to_string(),
                centroid: x,
                support: 1,
            }),
        }
    }

    /// Classify a graph: the nearest centroid's label and the distance.
    /// `None` when the lexicon is empty.
    pub fn classify(&self, srg: &Srg) -> Option<(&str, f64)> {
        let x = features(srg);
        self.exemplars
            .iter()
            .map(|e| {
                let d2: f64 = e
                    .centroid
                    .iter()
                    .zip(x)
                    .map(|(c, v)| (c - v) * (c - v))
                    .sum();
                (e.label.as_str(), d2.sqrt())
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
    }

    /// Distances to every class centroid, nearest first.
    pub fn distances(&self, srg: &Srg) -> Vec<(&str, f64)> {
        let x = features(srg);
        let mut dists: Vec<(&str, f64)> = self
            .exemplars
            .iter()
            .map(|e| {
                let d2: f64 = e
                    .centroid
                    .iter()
                    .zip(x)
                    .map(|(c, v)| (c - v) * (c - v))
                    .sum();
                (e.label.as_str(), d2.sqrt())
            })
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        dists
    }

    /// Classify with a confidence margin: `None` unless the best class
    /// beats the runner-up by `margin` (absolute distance). The paper's
    /// adoption story needs the learned path to *abstain* on genuinely
    /// novel architectures rather than guess.
    pub fn classify_confident(&self, srg: &Srg, margin: f64) -> Option<(&str, f64)> {
        let dists = self.distances(srg);
        match dists.as_slice() {
            [] => None,
            [only] => Some(*only),
            [best, second, ..] => {
                if second.1 - best.1 >= margin {
                    Some(*best)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::ElemType;

    fn mlp_graph(layers: usize) -> Srg {
        let ctx = CaptureCtx::new("mlp");
        let mut x = ctx.input("x", [1, 8], ElemType::F32, None);
        for i in 0..layers {
            let w = ctx.parameter(&format!("w{i}"), [8, 8], ElemType::F32, None);
            x = x.matmul(&w).relu();
        }
        x.mark_output();
        ctx.finish().srg
    }

    fn conv_graph(stages: usize) -> Srg {
        let ctx = CaptureCtx::new("cnn");
        let mut x = ctx.input("img", [1, 3, 8, 8], ElemType::F32, None);
        for i in 0..stages {
            let cin = if i == 0 { 3 } else { 4 };
            let w = ctx.parameter(&format!("w{i}"), [4, cin, 3, 3], ElemType::F32, None);
            let b = ctx.parameter(&format!("b{i}"), [4], ElemType::F32, None);
            x = x.conv2d(&w, &b, 1, 1).relu();
        }
        x.mark_output();
        ctx.finish().srg
    }

    #[test]
    fn learns_and_separates_families() {
        let mut lex = LearnedLexicon::new();
        lex.learn("mlp", &mlp_graph(2));
        lex.learn("mlp", &mlp_graph(4));
        lex.learn("cnn", &conv_graph(2));
        lex.learn("cnn", &conv_graph(3));
        assert_eq!(lex.classes(), 2);

        // Unseen depths classify correctly.
        assert_eq!(lex.classify(&mlp_graph(6)).unwrap().0, "mlp");
        assert_eq!(lex.classify(&conv_graph(5)).unwrap().0, "cnn");
    }

    #[test]
    fn centroid_is_running_mean() {
        let mut lex = LearnedLexicon::new();
        lex.learn("mlp", &mlp_graph(2));
        let c1 = lex.exemplars[0].centroid;
        lex.learn("mlp", &mlp_graph(2));
        // Same graph twice: centroid unchanged, support grows.
        assert_eq!(lex.exemplars[0].centroid, c1);
        assert_eq!(lex.exemplars[0].support, 2);
    }

    #[test]
    fn abstains_without_confidence() {
        let mut lex = LearnedLexicon::new();
        lex.learn("mlp", &mlp_graph(3));
        lex.learn("cnn", &conv_graph(3));
        // A graph mixing both families sits between centroids: with a
        // high margin the lexicon must abstain.
        let ctx = CaptureCtx::new("hybrid");
        let img = ctx.input("img", [1, 3, 8, 8], ElemType::F32, None);
        let w = ctx.parameter("w", [4, 3, 3, 3], ElemType::F32, None);
        let b = ctx.parameter("b", [4], ElemType::F32, None);
        let feat = img.conv2d(&w, &b, 1, 1).relu().global_avg_pool();
        let m = ctx.parameter("m", [4, 4], ElemType::F32, None);
        feat.matmul(&m).mark_output();
        let hybrid = ctx.finish().srg;
        // Set the margin just above the hybrid's actual best/runner-up
        // gap: the lexicon must abstain there, and classify just below.
        let d = lex.distances(&hybrid);
        let gap = d[1].1 - d[0].1;
        assert!(lex.classify_confident(&hybrid, gap + 1e-6).is_none());
        assert!(lex.classify_confident(&hybrid, gap - 1e-6).is_some());
    }

    #[test]
    fn empty_lexicon_abstains() {
        let lex = LearnedLexicon::new();
        assert!(lex.classify(&mlp_graph(1)).is_none());
        assert!(lex.classify_confident(&mlp_graph(1), 0.1).is_none());
    }

    #[test]
    fn features_are_scale_invariant_within_family() {
        let shallow = features(&mlp_graph(2));
        let deep = features(&mlp_graph(12));
        let d: f64 = shallow
            .iter()
            .zip(deep)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(d < 0.4, "same family must embed nearby, got {d}");
    }
}
