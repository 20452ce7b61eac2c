//! The SRG annotation schema (§3.1 of the paper).
//!
//! Nodes carry [`Phase`], [`Residency`], [`Modality`], and [`CostHints`];
//! edges carry [`TensorMeta`], [`Rate`], and [`Criticality`]. This schema is
//! the *contract* between frontends and schedulers: it is everything a
//! scheduler may rely on, and nothing framework-specific.

use std::fmt;

/// Execution-phase tag. Phases partition a workload into regions with
/// distinct resource profiles (e.g. LLM prefill is compute-bound and
/// parallelizable; decode is memory-bound and sequential).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// No phase information is available (the default for raw captures).
    #[default]
    Unknown,
    /// LLM prompt processing: compute-bound, parallelizable across tokens.
    LlmPrefill,
    /// LLM autoregressive generation: memory-bound, sequential, depends on a
    /// growing KV cache.
    LlmDecode,
    /// Vision feature extraction (convolutional / patch-embedding stages).
    VisionEncode,
    /// Sparse embedding lookup (recommendation models).
    EmbeddingLookup,
    /// Dense interaction / MLP portion of a recommendation model.
    DenseInteraction,
    /// Cross-modal fusion in multimodal models.
    ModalityFusion,
    /// Forward pass of training.
    TrainForward,
    /// Backward pass of training.
    TrainBackward,
    /// A phase named by an explicit developer hook
    /// (`genie.annotate_phase(...)` in the paper's API).
    Custom(String),
}

impl Phase {
    /// Short label used in reports and DOT output.
    pub fn label(&self) -> &str {
        match self {
            Phase::Unknown => "unknown",
            Phase::LlmPrefill => "llm_prefill",
            Phase::LlmDecode => "llm_decode",
            Phase::VisionEncode => "vision_encode",
            Phase::EmbeddingLookup => "embedding_lookup",
            Phase::DenseInteraction => "dense_interaction",
            Phase::ModalityFusion => "modality_fusion",
            Phase::TrainForward => "train_forward",
            Phase::TrainBackward => "train_backward",
            Phase::Custom(name) => name,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Intended lifetime and reuse properties of a data product. Residency is
/// the single most valuable cue for a disaggregation scheduler: it separates
/// a 12 GB reusable weight from a 1 MB one-shot activation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Residency {
    /// Unclassified (the default for raw captures).
    #[default]
    Unknown,
    /// Immutable model parameters: upload once, reuse forever.
    PersistentWeight,
    /// Intermediate activation consumed within the same graph execution.
    EphemeralActivation,
    /// Mutable per-session state that grows across steps (the LLM KV cache).
    StatefulKvCache,
    /// Input fed by the client for this request.
    ModelInput,
    /// Output returned to the client for this request.
    ModelOutput,
    /// Embedding-table shard with skewed (hot/cold) access.
    EmbeddingTable,
    /// Optimizer state (training workloads).
    OptimizerState,
}

impl Residency {
    /// Whether data of this residency should be pinned near compute across
    /// invocations rather than re-shipped.
    pub fn prefers_remote_pinning(self) -> bool {
        matches!(
            self,
            Residency::PersistentWeight
                | Residency::StatefulKvCache
                | Residency::EmbeddingTable
                | Residency::OptimizerState
        )
    }

    /// Short label used in reports and DOT output.
    pub fn label(self) -> &'static str {
        match self {
            Residency::Unknown => "unknown",
            Residency::PersistentWeight => "persistent_weight",
            Residency::EphemeralActivation => "ephemeral_activation",
            Residency::StatefulKvCache => "stateful_kv_cache",
            Residency::ModelInput => "model_input",
            Residency::ModelOutput => "model_output",
            Residency::EmbeddingTable => "embedding_table",
            Residency::OptimizerState => "optimizer_state",
        }
    }
}

impl fmt::Display for Residency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Data modality processed by an operation, enabling placement on
/// specialized accelerators (§3.1, §3.6 "heterogeneous placement").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Modality {
    /// Unclassified.
    #[default]
    Unknown,
    /// Natural-language tokens.
    Text,
    /// Images / video frames.
    Vision,
    /// Audio waveforms or spectrograms.
    Audio,
    /// Tabular / categorical features (recommendation).
    Tabular,
    /// Output of cross-modal fusion.
    Mixed,
}

impl Modality {
    /// Short label used in reports and DOT output.
    pub fn label(self) -> &'static str {
        match self {
            Modality::Unknown => "unknown",
            Modality::Text => "text",
            Modality::Vision => "vision",
            Modality::Audio => "audio",
            Modality::Tabular => "tabular",
            Modality::Mixed => "mixed",
        }
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Profiling- or model-based cost estimates attached to a node.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct CostHints {
    /// Estimated floating-point operations for one invocation.
    pub flops: f64,
    /// Estimated bytes read from device memory.
    pub bytes_read: f64,
    /// Estimated bytes written to device memory.
    pub bytes_written: f64,
}

impl CostHints {
    /// A zero-cost hint (metadata-only operations).
    pub const ZERO: CostHints = CostHints {
        flops: 0.0,
        bytes_read: 0.0,
        bytes_written: 0.0,
    };

    /// Construct hints from flops and total memory traffic split.
    pub fn new(flops: f64, bytes_read: f64, bytes_written: f64) -> Self {
        Self {
            flops,
            bytes_read,
            bytes_written,
        }
    }

    /// Total device-memory traffic in bytes.
    pub fn bytes_total(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Operational intensity in FLOP/byte; `None` when no memory traffic is
    /// recorded (pure-metadata ops).
    pub fn operational_intensity(&self) -> Option<f64> {
        let bytes = self.bytes_total();
        if bytes > 0.0 {
            Some(self.flops / bytes)
        } else {
            None
        }
    }
}

/// Element types for tensors flowing along edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 32-bit IEEE float.
    F32,
    /// 16-bit IEEE float.
    F16,
    /// bfloat16.
    Bf16,
    /// 8-bit signed integer (quantized inference).
    I8,
    /// 32-bit signed integer (token ids, indices).
    I32,
    /// 64-bit signed integer (embedding indices).
    I64,
    /// Single-byte boolean masks.
    Bool,
}

impl ElemType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> usize {
        match self {
            ElemType::F32 | ElemType::I32 => 4,
            ElemType::F16 | ElemType::Bf16 => 2,
            ElemType::I8 | ElemType::Bool => 1,
            ElemType::I64 => 8,
        }
    }

    /// Short label used in reports and DOT output.
    pub fn label(self) -> &'static str {
        match self {
            ElemType::F32 => "f32",
            ElemType::F16 => "f16",
            ElemType::Bf16 => "bf16",
            ElemType::I8 => "i8",
            ElemType::I32 => "i32",
            ElemType::I64 => "i64",
            ElemType::Bool => "bool",
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Shape and precision of the data flowing along an edge.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TensorMeta {
    /// Dimension sizes, outermost first. Empty means scalar.
    pub shape: Vec<usize>,
    /// Element type.
    pub elem: ElemType,
}

impl TensorMeta {
    /// Construct metadata.
    pub fn new(shape: impl Into<Vec<usize>>, elem: ElemType) -> Self {
        Self {
            shape: shape.into(),
            elem,
        }
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.iter().product()
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.num_elements() * self.elem.size_bytes()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }
}

/// Data-volume change between producer and consumer (e.g. a sampling
/// operator that keeps 1 of 50,400 logits). The scheduler uses rates for
/// network bandwidth reservation (§3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rate {
    /// Bytes produced per invocation of the producer.
    pub produced_bytes: f64,
    /// Bytes actually consumed per invocation of the consumer.
    pub consumed_bytes: f64,
}

impl Rate {
    /// A pass-through rate for a tensor of `bytes` bytes.
    pub fn passthrough(bytes: f64) -> Self {
        Self {
            produced_bytes: bytes,
            consumed_bytes: bytes,
        }
    }
}

impl Default for Rate {
    fn default() -> Self {
        Rate {
            produced_bytes: 0.0,
            consumed_bytes: 0.0,
        }
    }
}

/// Whether a data dependency sits on the critical path of execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// Transfer can be deferred or overlapped freely.
    Background,
    /// Ordinary dependency (the default).
    #[default]
    Normal,
    /// On the critical path: the scheduler should prioritize this transfer.
    Critical,
}

impl Criticality {
    /// Short label used in reports and DOT output.
    pub fn label(self) -> &'static str {
        match self {
            Criticality::Background => "background",
            Criticality::Normal => "normal",
            Criticality::Critical => "critical",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_phase_label() {
        let p = Phase::Custom("speculative_draft".into());
        assert_eq!(p.label(), "speculative_draft");
        assert_eq!(format!("{p}"), "speculative_draft");
    }

    #[test]
    fn residency_pinning_preferences() {
        assert!(Residency::PersistentWeight.prefers_remote_pinning());
        assert!(Residency::StatefulKvCache.prefers_remote_pinning());
        assert!(!Residency::EphemeralActivation.prefers_remote_pinning());
    }

    #[test]
    fn cost_hints_intensity() {
        let h = CostHints::new(100.0, 40.0, 10.0);
        assert_eq!(h.bytes_total(), 50.0);
        assert_eq!(h.operational_intensity(), Some(2.0));
        assert_eq!(CostHints::ZERO.operational_intensity(), None);
    }

    #[test]
    fn tensor_meta_sizes() {
        let m = TensorMeta::new([2, 3, 4], ElemType::F16);
        assert_eq!(m.num_elements(), 24);
        assert_eq!(m.size_bytes(), 48);
        assert_eq!(m.rank(), 3);
        let scalar = TensorMeta::new(Vec::new(), ElemType::F32);
        assert_eq!(scalar.num_elements(), 1);
        assert_eq!(scalar.size_bytes(), 4);
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemType::F32.size_bytes(), 4);
        assert_eq!(ElemType::F16.size_bytes(), 2);
        assert_eq!(ElemType::I64.size_bytes(), 8);
        assert_eq!(ElemType::Bool.size_bytes(), 1);
    }

    #[test]
    fn criticality_ordering() {
        assert!(Criticality::Background < Criticality::Normal);
        assert!(Criticality::Normal < Criticality::Critical);
    }

    #[test]
    fn annotation_json_roundtrip() {
        let meta = TensorMeta::new([72, 4096], ElemType::F16);
        let json = meta.to_json().to_string();
        assert_eq!(json, r#"{"shape":[72,4096],"elem":"F16"}"#);
        let back = TensorMeta::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, meta);

        // A custom phase keeps its own name: one spelled like a built-in
        // label must not come back as the built-in.
        for phase in [Phase::Custom("llm_decode".into()), Phase::LlmDecode] {
            let json = phase.to_json().to_string();
            let back = Phase::from_json(&crate::json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, phase, "{json}");
        }
        assert_eq!(
            Phase::Custom("x".into()).to_json().to_string(),
            r#"{"Custom":"x"}"#
        );
    }
}
