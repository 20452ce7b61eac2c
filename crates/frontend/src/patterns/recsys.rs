//! Recommendation-model recognizer: sparse + dense mix.
//!
//! DLRM-style models gather from large embedding tables (sparse, hot/cold
//! access) and feed the pooled embeddings into dense MLP towers. The
//! recognizer tags gathers and their tables as `EmbeddingLookup` /
//! `EmbeddingTable` and the downstream dense compute as
//! `DenseInteraction` — the split that makes the paper's "intelligent data
//! tiering" (Table 1) possible.

use genie_srg::{Modality, NodeId, OpKind, Phase, Residency, Srg};
use std::collections::BTreeSet;

/// Annotate recommendation phases. Returns nodes annotated (zero without
/// the sparse+dense signature).
pub fn recognize(srg: &mut Srg) -> usize {
    let gathers: Vec<NodeId> = srg
        .nodes()
        .filter(|n| n.op == OpKind::EmbeddingGather)
        .map(|n| n.id)
        .collect();
    let has_dense = srg.nodes().any(|n| n.op == OpKind::MatMul);
    // Attention implies a transformer, not a recsys tower — and LLM
    // embeddings (token lookup) also use gathers, so require no KV cache.
    let has_kv = srg.nodes().any(|n| n.op == OpKind::KvAppend);
    if gathers.is_empty() || !has_dense || has_kv {
        return 0;
    }

    let mut annotated = 0;

    // Sparse side: gathers, their index inputs, and their tables.
    let mut sparse: BTreeSet<NodeId> = BTreeSet::new();
    for &g in &gathers {
        sparse.insert(g);
        for pred in srg.predecessors(g) {
            sparse.insert(pred);
        }
    }
    let downstream = genie_srg::traverse::descendants(srg, &gathers);
    let nodes = srg.parts_mut().0;
    for &id in &sparse {
        let node = &mut nodes[id.index()];
        let mut touched = false;
        if node.phase == Phase::Unknown {
            node.phase = Phase::EmbeddingLookup;
            touched = true;
        }
        if node.modality == Modality::Unknown {
            node.modality = Modality::Tabular;
            touched = true;
        }
        if node.op == OpKind::Parameter && node.residency == Residency::PersistentWeight {
            node.residency = Residency::EmbeddingTable;
            touched = true;
        }
        if touched {
            annotated += 1;
        }
    }

    // Dense side: everything downstream of the gathers.
    for id in downstream {
        if sparse.contains(&id) {
            continue;
        }
        let node = &mut nodes[id.index()];
        let mut touched = false;
        if node.phase == Phase::Unknown {
            node.phase = Phase::DenseInteraction;
            touched = true;
        }
        if node.modality == Modality::Unknown {
            node.modality = Modality::Tabular;
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

    fn dlrm_like() -> Srg {
        let ctx = CaptureCtx::new("rec");
        let table = ctx.parameter("emb", [1000, 16], ElemType::F32, None);
        let ids = ctx.input_ids_spec("ids", 8);
        let pooled = table.gather_sum(&ids);
        let w = ctx.parameter("w", [16, 4], ElemType::F32, None);
        let y = pooled.reshape([1, 16]).matmul(&w).relu();
        y.mark_output();
        ctx.finish().srg
    }

    #[test]
    fn sparse_dense_split_annotated() {
        let mut srg = dlrm_like();
        assert!(recognize(&mut srg) > 0);
        let table = srg.nodes().find(|n| n.name == "emb").unwrap();
        assert_eq!(table.residency, Residency::EmbeddingTable);
        assert_eq!(table.phase, Phase::EmbeddingLookup);
        let mm = srg.nodes().find(|n| n.op == OpKind::MatMul).unwrap();
        assert_eq!(mm.phase, Phase::DenseInteraction);
        assert_eq!(mm.modality, Modality::Tabular);
    }

    #[test]
    fn llm_token_embedding_not_misclassified() {
        // Gather + matmul + KV cache = LLM, not recsys.
        let ctx = CaptureCtx::new("llm");
        let table = ctx.parameter("wte", [100, 8], ElemType::F32, None);
        let ids = ctx.input_ids_spec("ids", 1);
        let x = table.gather(&ids);
        let cache = ctx.empty_cache("kv", 8, ElemType::F32, true);
        let grown = cache.kv_append(&x);
        let o = x.attention(&grown, &grown, 1, true);
        o.mark_output();
        let mut srg = ctx.finish().srg;
        assert_eq!(recognize(&mut srg), 0);
    }

    #[test]
    fn pure_dense_not_matched() {
        let ctx = CaptureCtx::new("mlp");
        let x = ctx.input("x", [1, 4], ElemType::F32, None);
        let w = ctx.parameter("w", [4, 4], ElemType::F32, None);
        x.matmul(&w).mark_output();
        let mut srg = ctx.finish().srg;
        assert_eq!(recognize(&mut srg), 0);
    }
}
