//! Multimodal fusion recognizer.
//!
//! Runs after the per-modality recognizers (or explicit modality scopes):
//! when a `Concat`/`Add` joins subgraphs carrying *different* modalities,
//! the join and everything downstream is cross-modal fusion — the
//! workload family whose key optimization is modality-aware placement
//! (Table 1).

use genie_srg::{Modality, NodeId, OpKind, Phase, Srg};

/// Annotate fusion points and their downstream cone. Returns nodes
/// annotated (zero when at most one modality is present).
pub fn recognize(srg: &mut Srg) -> usize {
    // Find join nodes whose predecessors carry at least two distinct known
    // modalities.
    let mut joins: Vec<NodeId> = Vec::new();
    for node in srg.nodes() {
        if !matches!(node.op, OpKind::Concat | OpKind::Add) {
            continue;
        }
        let mut known = (srg.in_edges(node.id))
            .map(|e| srg.node(e.src).modality)
            .filter(|m| *m != Modality::Unknown);
        if known.next().is_some_and(|first| known.any(|m| m != first)) {
            joins.push(node.id);
        }
    }
    if joins.is_empty() {
        return 0;
    }

    let downstream = genie_srg::traverse::descendants(srg, &joins);
    let mut annotated = 0;
    let nodes = srg.parts_mut().0;
    for id in downstream {
        let node = &mut nodes[id.index()];
        let mut touched = false;
        if node.phase == Phase::Unknown {
            node.phase = Phase::ModalityFusion;
            touched = true;
        }
        if node.modality != Modality::Mixed {
            node.modality = Modality::Mixed;
            touched = true;
        }
        if touched {
            annotated += 1;
        }
    }
    annotated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::ElemType;

    #[test]
    fn cross_modal_concat_detected() {
        let ctx = CaptureCtx::new("vqa");
        let img_feat = ctx.modality_scope(Modality::Vision, || {
            ctx.input("img_feat", [1, 8], ElemType::F32, None).relu()
        });
        let txt_feat = ctx.modality_scope(Modality::Text, || {
            ctx.input("txt_feat", [1, 8], ElemType::F32, None).relu()
        });
        let fused = img_feat.concat(&txt_feat, 1);
        let w = ctx.parameter("w", [16, 4], ElemType::F32, None);
        let y = fused.matmul(&w);
        y.mark_output();
        let mut srg = ctx.finish().srg;
        assert!(recognize(&mut srg) > 0);
        assert_eq!(srg.node(fused.node).modality, Modality::Mixed);
        assert_eq!(srg.node(fused.node).phase, Phase::ModalityFusion);
        assert_eq!(srg.node(y.node).modality, Modality::Mixed);
    }

    #[test]
    fn single_modality_concat_ignored() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.modality_scope(Modality::Text, || {
            ctx.input("a", [1, 4], ElemType::F32, None)
        });
        let b = ctx.modality_scope(Modality::Text, || {
            ctx.input("b", [1, 4], ElemType::F32, None)
        });
        a.concat(&b, 1).mark_output();
        let mut srg = ctx.finish().srg;
        assert_eq!(recognize(&mut srg), 0);
    }

    #[test]
    fn unknown_modalities_do_not_trigger() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.input("a", [1, 4], ElemType::F32, None);
        let b = ctx.input("b", [1, 4], ElemType::F32, None);
        a.concat(&b, 1).mark_output();
        let mut srg = ctx.finish().srg;
        assert_eq!(recognize(&mut srg), 0);
    }
}
