//! SRG nodes: operations with the common annotation schema.

use crate::annotations::{CostHints, Modality, Phase, Residency};
use crate::ids::{DeviceId, NodeId};
use crate::name::{Attrs, Name};
use std::fmt;

/// The operation a node performs. Genie's scheduler never needs framework
/// internals, but it does benefit from knowing the operator *family* (a
/// matmul has different roofline behaviour than a gather), so the SRG keeps
/// a coarse, framework-neutral vocabulary plus an escape hatch for opaque
/// custom kernels (§3.7).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Dense matrix multiply (including batched).
    MatMul,
    /// Fused scaled-dot-product attention.
    Attention,
    /// Layer normalization.
    LayerNorm,
    /// RMS normalization.
    RmsNorm,
    /// Softmax.
    Softmax,
    /// GELU activation.
    Gelu,
    /// ReLU activation.
    Relu,
    /// SiLU/Swish activation.
    Silu,
    /// Embedding-table gather.
    EmbeddingGather,
    /// 2-D convolution.
    Conv2d,
    /// Pooling (max/avg).
    Pool2d,
    /// Batch normalization.
    BatchNorm,
    /// Elementwise add.
    Add,
    /// Elementwise multiply.
    Mul,
    /// Concatenate along a dimension.
    Concat,
    /// Slice / narrow.
    Slice,
    /// Reshape / view (metadata only).
    Reshape,
    /// Transpose / permute.
    Transpose,
    /// Reduction (sum/mean/max over dims).
    Reduce,
    /// Append a (key, value) block to a KV cache — the signature operation
    /// of LLM decode.
    KvAppend,
    /// Sample / argmax over logits, collapsing a vocab-sized tensor to one
    /// token id.
    Sample,
    /// Collective sum over per-shard partials (fixed rank order, so the
    /// reduction is deterministic and bit-reproducible).
    AllReduce,
    /// Collective concatenation of per-shard slices along a dimension,
    /// in ascending rank order.
    AllGather,
    /// Point-to-point activation send between pipeline stages.
    SendActivation,
    /// Matmul that continues a carried accumulator: `init + a @ b`,
    /// folding `a @ b`'s reduction on top of `init` element-by-element.
    /// The building block of bit-exact row-parallel sharding.
    MatMulAcc,
    /// Graph input placeholder.
    Input,
    /// Materialized parameter (weight) placeholder.
    Parameter,
    /// Graph output marker.
    Output,
    /// A fused region (a peer's fusion pass or a hand-built graph; no pass
    /// here produces one); carries the number of original nodes it absorbed.
    Fused(u32),
    /// Opaque user kernel: the frontend captured its I/O signature only and
    /// relies on developer-provided cost annotations.
    CustomKernel(String),
}

impl OpKind {
    /// Whether this op only manipulates metadata (no device work).
    pub fn is_metadata_only(&self) -> bool {
        matches!(self, OpKind::Reshape | OpKind::Transpose)
    }

    /// Whether this node introduces data into the graph rather than
    /// computing on predecessors.
    pub fn is_source(&self) -> bool {
        matches!(self, OpKind::Input | OpKind::Parameter)
    }

    /// Short mnemonic used in reports and DOT output.
    pub fn mnemonic(&self) -> &str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::Attention => "attention",
            OpKind::LayerNorm => "layer_norm",
            OpKind::RmsNorm => "rms_norm",
            OpKind::Softmax => "softmax",
            OpKind::Gelu => "gelu",
            OpKind::Relu => "relu",
            OpKind::Silu => "silu",
            OpKind::EmbeddingGather => "embedding",
            OpKind::Conv2d => "conv2d",
            OpKind::Pool2d => "pool2d",
            OpKind::BatchNorm => "batch_norm",
            OpKind::Add => "add",
            OpKind::Mul => "mul",
            OpKind::Concat => "concat",
            OpKind::Slice => "slice",
            OpKind::Reshape => "reshape",
            OpKind::Transpose => "transpose",
            OpKind::Reduce => "reduce",
            OpKind::KvAppend => "kv_append",
            OpKind::Sample => "sample",
            OpKind::AllReduce => "all_reduce",
            OpKind::AllGather => "all_gather",
            OpKind::SendActivation => "send",
            OpKind::MatMulAcc => "matmul_acc",
            OpKind::Input => "input",
            OpKind::Parameter => "parameter",
            OpKind::Output => "output",
            OpKind::Fused(_) => "fused",
            OpKind::CustomKernel(name) => name,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One operation in the SRG, annotated per the §3.1 schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// Id within the owning graph.
    pub id: NodeId,
    /// Operator family.
    pub op: OpKind,
    /// Human-readable name (usually derived from the module hierarchy).
    pub name: Name,
    /// Dotted path in the source model's module hierarchy, e.g.
    /// `"transformer.h.17.attn"`. Filled by the structural annotation pass.
    pub module_path: Name,
    /// Execution phase this node belongs to.
    pub phase: Phase,
    /// Residency classification of this node's *output*.
    pub residency: Residency,
    /// Modality of the data this node processes.
    pub modality: Modality,
    /// Cost estimates for one invocation.
    pub cost: CostHints,
    /// Device binding assigned by the scheduler; `None` until planned.
    pub device: Option<DeviceId>,
    /// Free-form key/value metadata (kept ordered for deterministic
    /// serialization).
    pub attrs: Attrs,
}

impl Node {
    /// Create a minimally-annotated node. Frontends fill the rest via the
    /// tiered annotation pipeline.
    pub fn new(id: NodeId, op: OpKind, name: impl Into<Name>) -> Self {
        Node {
            id,
            op,
            name: name.into(),
            module_path: Name::EMPTY,
            phase: Phase::Unknown,
            residency: Residency::Unknown,
            modality: Modality::Unknown,
            cost: CostHints::ZERO,
            device: None,
            attrs: Attrs::default(),
        }
    }

    /// Builder-style phase annotation.
    pub fn with_phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// Builder-style residency annotation.
    pub fn with_residency(mut self, residency: Residency) -> Self {
        self.residency = residency;
        self
    }

    /// Builder-style modality annotation.
    pub fn with_modality(mut self, modality: Modality) -> Self {
        self.modality = modality;
        self
    }

    /// Builder-style cost annotation.
    pub fn with_cost(mut self, cost: CostHints) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style module path annotation.
    pub fn with_module_path(mut self, path: impl Into<Name>) -> Self {
        self.module_path = path.into();
        self
    }

    /// Builder-style attribute.
    pub fn with_attr(mut self, key: impl Into<Name>, value: impl Into<Name>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_annotations() {
        let n = Node::new(NodeId::new(0), OpKind::MatMul, "q_proj")
            .with_phase(Phase::LlmPrefill)
            .with_residency(Residency::EphemeralActivation)
            .with_modality(Modality::Text)
            .with_module_path("h.0.attn.q")
            .with_attr("heads", "16");
        assert_eq!(n.phase, Phase::LlmPrefill);
        assert_eq!(n.residency, Residency::EphemeralActivation);
        assert_eq!(n.attrs["heads"], "16");
    }

    #[test]
    fn op_kind_classification() {
        assert!(OpKind::Reshape.is_metadata_only());
        assert!(!OpKind::MatMul.is_metadata_only());
        assert!(OpKind::Parameter.is_source());
        assert!(OpKind::Input.is_source());
        assert!(!OpKind::Output.is_source());
    }

    #[test]
    fn custom_kernel_mnemonic() {
        let op = OpKind::CustomKernel("my_flash_attn".into());
        assert_eq!(op.mnemonic(), "my_flash_attn");
    }

    #[test]
    fn node_json_roundtrip() {
        let mut n = Node::new(NodeId::new(3), OpKind::KvAppend, "kv")
            .with_phase(Phase::LlmDecode)
            .with_residency(Residency::StatefulKvCache)
            .with_attr("b", "2")
            .with_attr("a", "1");
        for op in [
            OpKind::KvAppend,
            OpKind::Fused(3),
            OpKind::CustomKernel("x".into()),
        ] {
            n.op = op;
            n.device = n.device.xor(Some(crate::ids::DeviceId::new(7)));
            let json = n.to_json().to_string();
            let back = Node::from_json(&crate::json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, n, "{json}");
        }
        let json = n.to_json().to_string();
        // Ids are bare numbers, payload variants one-key objects, attrs sorted.
        assert!(json.starts_with(r#"{"id":3,"op":{"CustomKernel":"x"},"name":"kv","#));
        assert!(
            json.ends_with(r#""device":7,"attrs":{"a":"1","b":"2"}}"#),
            "{json}"
        );
    }
}
