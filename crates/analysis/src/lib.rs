//! # genie-analysis — the semantic lint engine
//!
//! The paper's thesis is that application semantics are *lost in
//! translation* as computation descends the stack; this crate is the gate
//! that keeps the semantics the platform still has **coherent**. Structural
//! well-formedness lives in `genie_srg::validate`; everything semantic —
//! shapes that must compose, phases that must not invert, KV caches that
//! must not leak into arbitrary consumers, plans that must fit device
//! memory — is checked here, as a multi-pass static analyzer with
//! compiler-style diagnostics.
//!
//! Four pass families share one [`diag`] framework and the generic
//! fixpoint solver in [`dataflow`]:
//!
//! - **SRG passes** ([`srg_passes`], codes `GA0xx`) run at capture time —
//!   `genie-frontend` fails fast when a finished capture carries
//!   deny-level findings.
//! - **Plan passes** ([`plan_passes`], codes `GA1xx`) run inside
//!   `genie-scheduler::schedule` as a post-gate over placements and
//!   transfers, reported through the scheduler-neutral
//!   [`plan_passes::PlanFacts`] trait.
//! - **Schedule-timeline passes** ([`schedule_passes`], codes `GA2xx`)
//!   reason over the plan's step timeline: the liveness-based memory
//!   watermark, channel-FIFO transfer-ordering hazards, double pinning,
//!   and static transfer-deadlock detection.
//! - **Precision passes** ([`precision_passes`], codes `GA3xx`)
//!   propagate worst-case error intervals through the graph and deny
//!   plans whose `Criticality`/tolerance annotations demand tighter
//!   bounds than the scheduled kernel tier or device class delivers.
//!
//! Severities and whole families are per-graph configurable via
//! [`LintConfig`]; reports render both human-readable and as JSON
//! (`cargo run --release -p genie-bench -- lint_report` emits one per
//! model-zoo workload). Pass runners emit per-pass timing spans and a
//! `genie_lint_findings_total{code}` counter through `genie-telemetry`.
//!
//! ```
//! use genie_analysis::{run_srg_passes, LintConfig};
//! use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
//!
//! let mut g = Srg::new("bad");
//! let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
//! let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
//! let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
//! g.connect(a, mm, TensorMeta::new([2, 3], ElemType::F32));
//! g.connect(b, mm, TensorMeta::new([5, 7], ElemType::F32)); // 3 != 5
//! let report = run_srg_passes(&g, &LintConfig::new());
//! assert!(report.has_deny());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataflow;
pub mod diag;
pub mod plan_passes;
pub mod precision_passes;
pub mod schedule_passes;
pub mod srg_passes;

pub use diag::{Anchor, Diagnostic, LintCode, LintConfig, LintFamily, Report, Severity};
pub use plan_passes::{run_plan_passes, PlanFacts, TransferFact};
pub use precision_passes::{
    check_precision_consistency, device_class_error_factor, elem_eps, error_bounds,
    error_bounds_with, error_factor, requested_tier, tier_for_node, ErrorBounds, CRITICALITY_SLACK,
    KERNEL_TIER_ATTR, TOLERANCE_ATTR,
};
pub use schedule_passes::check_cross_plan_pinning;
pub use srg_passes::run_srg_passes;
