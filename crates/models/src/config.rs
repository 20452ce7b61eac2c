//! Model configurations.
//!
//! Two regimes share each config type: *simulation-scale* presets matching
//! the paper's workloads (GPT-J-6B with ~12 GB of fp16 weights) whose
//! captures carry no payloads, and *functional-scale* presets small enough
//! to execute with real arithmetic in tests.

use genie_srg::ElemType;

/// Decoder-only transformer LM configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Number of transformer blocks.
    pub layers: usize,
    /// Model (residual stream) width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// FFN inner width as a multiple of `d_model`.
    pub ffn_mult: usize,
    /// Weight / activation element type (sets traffic volumes).
    pub elem: ElemType,
}

impl TransformerConfig {
    /// GPT-J-6B: 28 layers, d_model 4096, 16 heads, vocab 50400, fp16 —
    /// the paper's evaluation model (~12.1 GB of weights).
    pub fn gptj_6b() -> Self {
        TransformerConfig {
            layers: 28,
            d_model: 4096,
            heads: 16,
            vocab: 50400,
            ffn_mult: 4,
            elem: ElemType::F16,
        }
    }

    /// A tiny functional config for numeric tests.
    pub fn tiny() -> Self {
        TransformerConfig {
            layers: 2,
            d_model: 16,
            heads: 2,
            vocab: 32,
            ffn_mult: 2,
            elem: ElemType::F32,
        }
    }

    /// A shallow-but-wide functional variant: exercises kernels whose
    /// rows are longer than [`tiny`](Self::tiny)'s.
    pub fn tiny_wide() -> Self {
        TransformerConfig {
            layers: 1,
            d_model: 24,
            heads: 3,
            vocab: 48,
            ffn_mult: 3,
            elem: ElemType::F32,
        }
    }

    /// A deeper functional variant: more KV layers to carry per decode
    /// step, a smaller residual stream.
    pub fn tiny_deep() -> Self {
        TransformerConfig {
            layers: 3,
            d_model: 12,
            heads: 2,
            vocab: 24,
            ffn_mult: 2,
            elem: ElemType::F32,
        }
    }

    /// Parameters per layer: 4 attention projections (d²) + 2 FFN mats
    /// (d · ffn · 2) + 2 layer-norm vectors (negligible but counted).
    pub fn params_per_layer(&self) -> u64 {
        let d = self.d_model as u64;
        let ffn = d * self.ffn_mult as u64;
        4 * d * d + 2 * d * ffn + 4 * d
    }

    /// Total parameter count including embeddings, final norm, and LM
    /// head.
    pub fn total_params(&self) -> u64 {
        let d = self.d_model as u64;
        let v = self.vocab as u64;
        self.layers as u64 * self.params_per_layer() + 2 * v * d + 2 * d
    }

    /// Total weight bytes at the configured precision.
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * self.elem.size_bytes() as u64
    }

    /// KV-cache bytes added per token: K and V of `d_model` per layer.
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.d_model as u64 * self.elem.size_bytes() as u64
    }

    /// Approximate FLOPs to process one token (the standard 2·params
    /// estimate for a decoder-only LM).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.total_params() as f64
    }

    /// Bytes of logits returned for one position.
    pub fn logits_bytes(&self) -> u64 {
        self.vocab as u64 * 4 // logits materialize in f32
    }
}

/// Simple CNN (ResNet-style feature extractor) configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CnnConfig {
    /// Convolutional stages.
    pub stages: usize,
    /// Channels per stage (doubling handled by the model builder).
    pub base_channels: usize,
    /// Input image side (square, NCHW with 3 input channels).
    pub image_size: usize,
    /// Classifier classes.
    pub classes: usize,
    /// Element type.
    pub elem: ElemType,
}

impl CnnConfig {
    /// ResNet-50-ish scale for simulation.
    pub fn resnet_like() -> Self {
        CnnConfig {
            stages: 8,
            base_channels: 64,
            image_size: 224,
            classes: 1000,
            elem: ElemType::F16,
        }
    }

    /// Tiny functional config.
    pub fn tiny() -> Self {
        CnnConfig {
            stages: 3,
            base_channels: 4,
            image_size: 16,
            classes: 10,
            elem: ElemType::F32,
        }
    }
}

/// DLRM-style recommender configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlrmConfig {
    /// Number of sparse embedding tables.
    pub tables: usize,
    /// Rows per table.
    pub rows_per_table: usize,
    /// Embedding dimension.
    pub embedding_dim: usize,
    /// Dense-feature width.
    pub dense_features: usize,
    /// Hidden width of the interaction MLP.
    pub mlp_hidden: usize,
    /// Lookups per table per request (multi-hot).
    pub lookups_per_table: usize,
    /// Element type.
    pub elem: ElemType,
}

impl DlrmConfig {
    /// Production-ish scale for simulation (tables in the tens of GB).
    pub fn production_like() -> Self {
        DlrmConfig {
            tables: 26,
            rows_per_table: 10_000_000,
            embedding_dim: 128,
            dense_features: 13,
            mlp_hidden: 1024,
            lookups_per_table: 32,
            elem: ElemType::F16,
        }
    }

    /// Tiny functional config.
    pub fn tiny() -> Self {
        DlrmConfig {
            tables: 3,
            rows_per_table: 50,
            embedding_dim: 8,
            dense_features: 4,
            mlp_hidden: 16,
            lookups_per_table: 4,
            elem: ElemType::F32,
        }
    }

    /// Total embedding-table bytes.
    pub fn table_bytes(&self) -> u64 {
        (self.tables * self.rows_per_table * self.embedding_dim) as u64
            * self.elem.size_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gptj_matches_published_size() {
        let c = TransformerConfig::gptj_6b();
        let params = c.total_params() as f64;
        // GPT-J is ~6.05B params; our block accounting should land within
        // a few percent.
        assert!(
            (5.7e9..6.4e9).contains(&params),
            "GPT-J params came out as {params:e}"
        );
        let gb = c.weight_bytes() as f64 / 1e9;
        assert!((11.0..13.0).contains(&gb), "weights {gb} GB");
    }

    #[test]
    fn gptj_kv_slice_matches_paper() {
        // The paper's ΔKV mode ships ~1.0 MB per token; GPT-J's fp16 KV is
        // 2·28·4096·2 = 458 KB, and their prototype stores f32 (~917 KB).
        let c = TransformerConfig::gptj_6b();
        let fp16 = c.kv_bytes_per_token();
        assert_eq!(fp16, 2 * 28 * 4096 * 2);
        let f32_equiv = fp16 * 2;
        assert!((900_000..1_050_000).contains(&(f32_equiv as usize)));
    }

    #[test]
    fn decode_is_memory_bound_on_a100() {
        // Operational intensity of a decode step = flops / weight bytes
        // read ≈ 1 FLOP/byte, far below the A100 ridge (~156).
        let c = TransformerConfig::gptj_6b();
        let intensity = c.flops_per_token() / c.weight_bytes() as f64;
        assert!(intensity < 2.0);
    }

    #[test]
    fn tiny_configs_are_small() {
        assert!(TransformerConfig::tiny().weight_bytes() < 1_000_000);
        assert!(DlrmConfig::tiny().table_bytes() < 100_000);
    }

    #[test]
    fn dlrm_tables_dwarf_mlp() {
        let c = DlrmConfig::production_like();
        assert!(c.table_bytes() > 50 * (1 << 30)); // tens of GB sparse
    }
}
