//! LLM phase recognizer.
//!
//! The paper's canonical example (§3.2): "a recurrent loop with a growing
//! KV cache is characteristic of LLM decoding". Our captures are per-step
//! graphs, so the signature is: the graph contains `KvAppend` nodes, and
//! the attention *query* length distinguishes the phases — prefill attends
//! with the full prompt (`tq > 1`), decode with a single new token
//! (`tq = 1`).

use genie_srg::{Modality, OpKind, Phase, Srg};

/// Annotate LLM phases and text modality. Returns the number of nodes
/// annotated; zero when the graph shows no LLM signature.
pub fn recognize(srg: &mut Srg) -> usize {
    let has_kv = srg.nodes().any(|n| n.op == OpKind::KvAppend);
    if !has_kv {
        return 0;
    }

    // Query length = dim 0 of the first input edge of any Attention node.
    let mut query_len: Option<usize> = None;
    for node in srg.nodes() {
        if node.op == OpKind::Attention {
            if let Some(edge) = srg.in_edges(node.id).next() {
                query_len = Some(edge.meta.shape.first().copied().unwrap_or(1));
                break;
            }
        }
    }
    let phase = match query_len {
        Some(1) => Phase::LlmDecode,
        Some(_) => Phase::LlmPrefill,
        // KV appends without attention: treat as decode bookkeeping.
        None => Phase::LlmDecode,
    };

    let mut annotated = 0;
    for node in srg.nodes_mut() {
        let mut touched = false;
        if node.phase == Phase::Unknown {
            node.phase = phase.clone();
            touched = true;
        }
        if node.modality == Modality::Unknown {
            node.modality = Modality::Text;
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

    fn llm_step(query_len: usize) -> Srg {
        let ctx = CaptureCtx::new("step");
        let cache = ctx.empty_cache("kv", 8, ElemType::F32, true);
        let q = ctx.input("q", [query_len, 8], ElemType::F32, None);
        let grown = cache.kv_append(&q);
        let o = q.attention(&grown, &grown, 2, true);
        o.mark_output();
        ctx.finish().srg
    }

    #[test]
    fn decode_detected_for_single_token_queries() {
        let mut srg = llm_step(1);
        let n = recognize(&mut srg);
        assert!(n > 0);
        assert!(srg.nodes().all(|node| node.phase == Phase::LlmDecode));
        assert!(srg.nodes().all(|node| node.modality == Modality::Text));
    }

    #[test]
    fn prefill_detected_for_prompt_length_queries() {
        let mut srg = llm_step(72);
        recognize(&mut srg);
        assert!(srg.nodes().all(|node| node.phase == Phase::LlmPrefill));
    }

    #[test]
    fn no_kv_cache_means_no_match() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.input("a", [2, 2], ElemType::F32, None);
        a.relu().mark_output();
        let mut srg = ctx.finish().srg;
        assert_eq!(recognize(&mut srg), 0);
    }
}
