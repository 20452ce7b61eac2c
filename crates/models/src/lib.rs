//! # genie-models — the workload zoo
//!
//! Concrete models for each workload family the paper studies (Table 1):
//!
//! - [`transformer::TransformerLm`] — decoder-only LM with KV caching.
//!   The GPT-J-6B preset ([`config::TransformerConfig::gptj_6b`]) drives
//!   the §4 evaluation; tiny presets execute numerically for correctness
//!   tests (including the incremental-decode ≡ full-forward equivalence
//!   that underpins every KV-cache optimization).
//! - [`cnn::SimpleCnn`] — ResNet-style vision model whose conv stages the
//!   scheduler pipelines.
//! - [`dlrm::Dlrm`] — recommendation model mixing sparse embedding bags
//!   with dense MLPs.
//! - [`multimodal::Multimodal`] — VQA-style fusion of a vision tower and a
//!   text tower.
//!
//! Every model captures through `genie-frontend` in two regimes: with
//! payloads (functional, tiny) or spec-only (simulation, paper scale).
//! [`zoo::Workload`] packages the paper-scale spec graph of each family
//! with the full annotation pipeline applied.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnn;
pub mod config;
pub mod dlrm;
pub mod multimodal;
pub mod sharded;
pub mod transformer;
pub mod zoo;

pub use cnn::SimpleCnn;
pub use config::{CnnConfig, DlrmConfig, TransformerConfig};
pub use dlrm::Dlrm;
pub use multimodal::{Multimodal, MultimodalConfig};
pub use sharded::{ShardedLmCapture, ShardedTransformerLm};
pub use transformer::{KvState, LmCapture, TransformerLm};
pub use zoo::{functional_transformers, Workload};

/// The LCG whose successive outputs seed a functional model's weight
/// draws, one tensor each.
pub(crate) fn weight_seeds(mut s: u64) -> impl FnMut() -> u64 {
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s
    }
}
