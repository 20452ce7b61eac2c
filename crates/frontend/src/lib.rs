//! # genie-frontend — capturing application intent
//!
//! The frontend is Genie's answer to the semantic translation gap: instead
//! of intercepting driver calls (too late — semantics already lost) or
//! asking developers to orchestrate remote execution by hand (too manual),
//! it *defers execution* at the framework layer and records what the
//! application meant to compute.
//!
//! The capture pipeline mirrors §3.2's three tiers:
//!
//! 1. **Automated graph construction** — [`capture::LazyTensor`] proxies
//!    intercept every operation (the `__torch_dispatch__` analogue) and
//!    append annotated nodes to an SRG, checking shapes eagerly and
//!    deriving cost hints from operator type and shapes.
//! 2. **Automated structural annotation** — [`structure`] reads the
//!    `nn.Module`-style scope hierarchy ([`capture::CaptureCtx::scope`])
//!    and detects repeated blocks (stacked transformer layers).
//! 3. **Semi-automated semantic annotation** — [`patterns`] recognizers
//!    identify model idioms (growing KV cache ⇒ decode, conv chains ⇒
//!    vision pipeline, pooled gathers ⇒ recommendation, cross-modal joins
//!    ⇒ fusion); [`annotate`] provides the explicit developer hooks that
//!    override them, plus the finalization pass (rates + criticality).
//!
//! [`interp`] is the reference interpreter that executes captured graphs
//! with real arithmetic — the ground truth every backend is tested
//! against. [`recapture`] handles data-dependent control flow by
//! re-capturing per dynamic region (§3.7), and keeps that affordable on
//! a per-token path: a step whose calls match the previous step's is
//! re-traced into the graph that already exists and runs on the
//! execution plan that was already computed, while the lint gate still
//! sees every step in full.
//!
//! ```
//! use genie_frontend::prelude::*;
//!
//! let ctx = CaptureCtx::new("tiny");
//! let x = ctx.input("x", [2, 4], ElemType::F32, Some(genie_tensor::init::randn([2, 4], 1)));
//! let w = ctx.parameter("w", [4, 4], ElemType::F32, Some(genie_tensor::init::randn([4, 4], 2)));
//! let y = x.matmul(&w).gelu();
//! y.mark_output();
//! let cap = ctx.finish();
//! let out = genie_frontend::interp::run_single_output(&cap).unwrap();
//! assert_eq!(out.dims(), &[2, 4]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotate;
pub mod capture;
pub mod interp;
pub mod patterns;
pub mod recapture;
pub mod shard;
pub mod structure;
pub mod value;

pub use capture::{CaptureCtx, CapturedGraph, LazyTensor};
pub use recapture::RecaptureSession;
pub use shard::ShardExecReport;
pub use value::Value;

/// Convenient glob import for frontend users.
pub mod prelude {
    pub use crate::capture::{CaptureCtx, CapturedGraph, LazyTensor};
    pub use crate::recapture::RecaptureSession;
    pub use crate::value::Value;
    pub use genie_srg::{ElemType, Modality, Phase, Residency};
}
