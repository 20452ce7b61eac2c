//! Aggregate statistics over SRGs.
//!
//! These summaries drive the Table-1 workload characterization: given only
//! a captured SRG, `GraphStats` recovers each workload family's
//! computation pattern and memory-access profile — evidence that the
//! framework layer sees what lower layers cannot.

use crate::annotations::{Modality, Phase, Residency};
use crate::graph::Srg;
use crate::node::OpKind;
use crate::traverse::{levels, max_width, CycleError};

/// Summary statistics of one SRG.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Longest-path depth (levels).
    pub depth: usize,
    /// Maximum number of mutually independent nodes at one level.
    pub max_width: usize,
    /// `max_width / depth`: > 1 indicates a parallel-friendly graph, « 1 a
    /// sequential chain.
    pub parallelism_ratio: f64,
    /// Total FLOPs across nodes.
    pub total_flops: f64,
    /// Total device-memory traffic across nodes (bytes).
    pub total_bytes: f64,
    /// Aggregate operational intensity (FLOP/byte); `None` if no traffic.
    pub operational_intensity: Option<f64>,
    /// Bytes held in persistent weights.
    pub weight_bytes: f64,
    /// Bytes held in stateful caches (KV, embedding).
    pub stateful_bytes: f64,
    /// Bytes in ephemeral activations crossing edges.
    pub activation_bytes: f64,
    /// Distinct phases present (labels).
    pub phases: Vec<String>,
    /// Distinct modalities present (labels).
    pub modalities: Vec<String>,
    /// Count of sparse gather ops (embedding lookups).
    pub sparse_ops: usize,
    /// Count of dense compute ops (matmul / conv / attention).
    pub dense_ops: usize,
    /// Count of KV-cache append ops.
    pub kv_appends: usize,
}

impl GraphStats {
    /// Compute statistics for a graph.
    pub fn of(g: &Srg) -> Result<GraphStats, CycleError> {
        let depth = levels(g)?.into_iter().max().map_or(0, |d| d + 1);
        let width = max_width(g)?;
        let total_flops = g.total_flops();
        let total_bytes: f64 = g.nodes().map(|n| n.cost.bytes_total()).sum();

        let mut weight_bytes = 0.0;
        let mut stateful_bytes = 0.0;
        let mut activation_bytes = 0.0;
        let mut counted = std::collections::BTreeSet::new();
        for edge in g.edges() {
            if !counted.insert(edge.tensor) {
                continue;
            }
            let bytes = edge.meta.size_bytes() as f64;
            match g.node(edge.src).residency {
                Residency::PersistentWeight => weight_bytes += bytes,
                Residency::StatefulKvCache | Residency::EmbeddingTable => stateful_bytes += bytes,
                Residency::EphemeralActivation | Residency::Unknown => activation_bytes += bytes,
                _ => {}
            }
        }

        let mut sparse_ops = 0;
        let mut dense_ops = 0;
        let mut kv_appends = 0;
        for node in g.nodes() {
            match node.op {
                OpKind::EmbeddingGather => sparse_ops += 1,
                OpKind::MatMul | OpKind::Conv2d | OpKind::Attention => dense_ops += 1,
                OpKind::KvAppend => kv_appends += 1,
                _ => {}
            }
        }

        let phases: Vec<String> = g
            .phases()
            .iter()
            .filter(|p| **p != Phase::Unknown)
            .map(|p| p.label().to_string())
            .collect();
        let mut modalities: Vec<String> = Vec::new();
        for node in g.nodes() {
            if node.modality != Modality::Unknown {
                let label = node.modality.label().to_string();
                if !modalities.contains(&label) {
                    modalities.push(label);
                }
            }
        }

        Ok(GraphStats {
            nodes: g.node_count(),
            edges: g.edge_count(),
            depth,
            max_width: width,
            parallelism_ratio: if depth > 0 {
                width as f64 / depth as f64
            } else {
                0.0
            },
            total_flops,
            total_bytes,
            operational_intensity: if total_bytes > 0.0 {
                Some(total_flops / total_bytes)
            } else {
                None
            },
            weight_bytes,
            stateful_bytes,
            activation_bytes,
            phases,
            modalities,
            sparse_ops,
            dense_ops,
            kv_appends,
        })
    }

    /// Heuristic classification of the computation pattern, mirroring the
    /// vocabulary of Table 1 in the paper.
    pub fn computation_pattern(&self) -> &'static str {
        if self.kv_appends > 0
            && self
                .phases
                .iter()
                .any(|p| p == Phase::LlmDecode.label() || p == Phase::LlmPrefill.label())
        {
            "sequential, phased (prefill/decode)"
        } else if self.modalities.len() > 1 {
            "cross-modal fusion"
        } else if self.sparse_ops > 0 && self.dense_ops > 0 {
            "sparse + dense mix"
        } else if self.parallelism_ratio < 0.2 && self.depth > 8 {
            "layer-sequential, regular"
        } else {
            "layer-parallel, regular"
        }
    }

    /// Heuristic classification of the dominant memory-access profile.
    pub fn memory_access_profile(&self) -> &'static str {
        if self.stateful_bytes > 0.0 && self.kv_appends > 0 {
            "streaming KV cache"
        } else if self.modalities.len() > 1 {
            "heterogeneous patterns"
        } else if self.sparse_ops > 0 {
            "hot/cold embeddings"
        } else {
            "predictable feature maps"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{CostHints, ElemType, TensorMeta};
    use crate::ids::NodeId;
    use crate::node::Node;

    #[test]
    fn stats_of_llm_like_graph() {
        let mut g = Srg::new("llm");
        let w = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let x = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "x").with_residency(Residency::ModelInput),
        );
        let mm = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "mm")
                .with_phase(Phase::LlmDecode)
                .with_cost(CostHints::new(1000.0, 100.0, 100.0)),
        );
        let kv = g.add_node(
            Node::new(NodeId::new(0), OpKind::KvAppend, "kv")
                .with_phase(Phase::LlmDecode)
                .with_residency(Residency::StatefulKvCache),
        );
        g.connect(w, mm, TensorMeta::new([64, 64], ElemType::F16));
        g.connect(x, mm, TensorMeta::new([1, 64], ElemType::F16));
        g.connect(mm, kv, TensorMeta::new([1, 64], ElemType::F16));
        let s = GraphStats::of(&g).unwrap();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.kv_appends, 1);
        assert_eq!(s.weight_bytes, 64.0 * 64.0 * 2.0);
        assert_eq!(
            s.computation_pattern(),
            "sequential, phased (prefill/decode)"
        );
        assert_eq!(s.memory_access_profile(), "predictable feature maps"); // stateful bytes counted on kv's *output* edges
        assert_eq!(s.phases, vec!["llm_decode"]);
    }

    #[test]
    fn recsys_pattern_detected() {
        let mut g = Srg::new("rec");
        let t = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "table")
                .with_residency(Residency::EmbeddingTable),
        );
        let gather = g.add_node(Node::new(NodeId::new(0), OpKind::EmbeddingGather, "g"));
        let mlp = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mlp"));
        g.connect(t, gather, TensorMeta::new([1000, 16], ElemType::F32));
        g.connect(gather, mlp, TensorMeta::new([8, 16], ElemType::F32));
        let s = GraphStats::of(&g).unwrap();
        assert_eq!(s.computation_pattern(), "sparse + dense mix");
        assert_eq!(s.memory_access_profile(), "hot/cold embeddings");
    }

    #[test]
    fn intensity_none_without_traffic() {
        let g = Srg::new("empty");
        let s = GraphStats::of(&g).unwrap();
        assert_eq!(s.operational_intensity, None);
        assert_eq!(s.depth, 0);
    }
}
