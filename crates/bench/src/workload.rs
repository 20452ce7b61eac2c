//! The §4 evaluation workload — GPT-J serving one request — and the
//! request trace the serving benches offer the same model.

use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_serving::{
    ArrivalConfig, ServingConfig, ServingLoop, ServingModel, ServingReport, ServingRequest,
};

/// The evaluation request: a 72-token prompt followed by autoregressive
/// decoding.
#[derive(Clone, Debug, PartialEq)]
pub struct LlmWorkload {
    /// Model architecture (GPT-J-6B in the paper).
    pub config: TransformerConfig,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Decode steps.
    pub decode_tokens: usize,
}

impl LlmWorkload {
    /// The paper's setup: 72-token prompt, 50 decode steps.
    pub fn paper() -> Self {
        LlmWorkload {
            config: TransformerConfig::gptj_6b(),
            prompt_tokens: 72,
            decode_tokens: 50,
        }
    }

    /// Weight bytes at model precision (fp16 for GPT-J ⇒ ~12.1 GB).
    pub fn weight_bytes(&self) -> f64 {
        self.config.weight_bytes() as f64
    }

    /// KV-cache delta per decoded token. The paper's prototype stores KV
    /// in f32 regardless of weight precision ("~1.0 MB" per token), so we
    /// charge 2 elements-widths.
    pub fn kv_delta_bytes(&self) -> f64 {
        (self.config.kv_bytes_per_token() * 2) as f64
    }

    /// Logits returned for one position (f32).
    pub fn logits_bytes(&self) -> f64 {
        self.config.logits_bytes() as f64
    }

    /// Prompt payload (i64 token ids).
    pub fn prompt_bytes(&self) -> f64 {
        (self.prompt_tokens * 8) as f64
    }

    /// Hidden-state activation crossing a stage boundary during prefill
    /// (`[prompt, d_model]` at model precision).
    pub fn boundary_activation_bytes(&self) -> f64 {
        (self.prompt_tokens * self.config.d_model * self.config.elem.size_bytes()) as f64
    }
}

/// The serving benches' open-loop trace: `rate_per_s` requests per
/// second until `horizon_s` on the virtual clock, prompts of 16–48
/// tokens drawn from GPT-J's vocabulary, `decode_tokens` (min, max)
/// generated per request, round-robin over `tenants`.
pub fn gptj_arrivals(
    seed: u64,
    rate_per_s: f64,
    horizon_s: f64,
    decode_tokens: (usize, usize),
    tenants: u64,
) -> Vec<ServingRequest> {
    ArrivalConfig {
        seed,
        rate_per_s,
        horizon: Nanos::from_secs_f64(horizon_s),
        prompt_len: (16, 48),
        decode_tokens,
        vocab: TransformerConfig::gptj_6b().vocab,
        tenants,
    }
    .generate()
}

/// Serve `requests` on `model`'s spec plane under `config`; a report
/// that breaks a serving law fails the bench.
pub(crate) fn serve(
    model: &TransformerConfig,
    config: ServingConfig,
    requests: &[ServingRequest],
) -> ServingReport {
    ServingLoop::new(ServingModel::Spec(model.clone()), config).run_audited(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_volumes_match_reported_magnitudes() {
        let w = LlmWorkload::paper();
        // ~12.1 GB of weights.
        assert!((11e9..13e9).contains(&w.weight_bytes()));
        // ~1.0 MB KV delta per token (paper's words).
        assert!((0.85e6..1.05e6).contains(&w.kv_delta_bytes()));
        // ~200 KB of logits per position.
        assert!((190e3..210e3).contains(&w.logits_bytes()));
        assert_eq!(w.prompt_bytes(), 72.0 * 8.0);
    }
}
