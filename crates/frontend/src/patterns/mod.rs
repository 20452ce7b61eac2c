//! Pattern recognizers: the "library of idiom detectors" of §3.2.
//!
//! High-level semantics (execution phase, modality) are often implicit in a
//! raw capture. Each recognizer inspects the SRG for a model family's
//! structural signature — a growing KV cache for LLM decode, chained
//! convolutions for vision, pooled embedding gathers for recommendation —
//! and fills in the semantic annotations a scheduler needs.
//!
//! Recognizers never overwrite annotations that are already present:
//! explicit developer hooks (`annotate::annotate_phase`) always win,
//! matching the paper's tiered adoption story (most models work
//! out-of-the-box; novel ones add minimal hints).

pub mod learned;
pub mod llm;
pub mod multimodal;
pub mod recsys;
pub mod vision;

use genie_srg::Srg;

/// Outcome of a recognizer pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recognition {
    /// Name of the recognizer that fired.
    pub recognizer: &'static str,
    /// Number of nodes it annotated.
    pub annotated: usize,
}

/// Run every built-in recognizer in priority order. Returns one entry per
/// recognizer that fired. Multimodal runs last because it composes the
/// modality tags the others produce.
pub fn run_all(srg: &mut Srg) -> Vec<Recognition> {
    let mut out = Vec::new();
    for (name, f) in [
        ("llm", llm::recognize as fn(&mut Srg) -> usize),
        ("vision", vision::recognize),
        ("recsys", recsys::recognize),
        ("multimodal", multimodal::recognize),
    ] {
        let annotated = f(srg);
        if annotated > 0 {
            out.push(Recognition {
                recognizer: name,
                annotated,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::{ElemType, Phase};

    #[test]
    fn run_all_on_plain_graph_fires_nothing() {
        let ctx = CaptureCtx::new("plain");
        let a = ctx.input("a", [2, 2], ElemType::F32, None);
        a.relu().mark_output();
        let mut srg = ctx.finish().srg;
        assert!(run_all(&mut srg).is_empty());
    }

    #[test]
    fn explicit_annotations_survive_recognizers() {
        let ctx = CaptureCtx::new("g");
        let cache = ctx.empty_cache("kv", 4, ElemType::F32, true);
        let x = ctx.input("x", [1, 4], ElemType::F32, None);
        // Developer explicitly tags this as a custom phase.
        let grown = ctx.phase_scope(Phase::Custom("speculative".into()), || cache.kv_append(&x));
        grown.mark_output();
        let mut srg = ctx.finish().srg;
        run_all(&mut srg);
        assert_eq!(
            srg.node(grown.node).phase,
            Phase::Custom("speculative".into()),
            "recognizers must not overwrite explicit hooks"
        );
    }
}
