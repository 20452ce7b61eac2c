//! # genie-scheduler — semantics-driven optimization
//!
//! The pluggable policy engine of §3.3: consumes a declarative SRG plus a
//! view of the cluster and produces an [`plan::ExecutionPlan`] with
//! concrete device bindings and explicit transfer instructions.
//!
//! The core interface is the pure function
//! [`schedule()`](schedule::schedule)`(srg, topology, state, cost_model, policy)`.
//! Policies ([`policy`]) span the §2.2 design space from semantically
//! blind (round-robin, least-loaded) through data-aware (ΔKV-grade) to
//! Genie's [`policy::SemanticsAware`], which implements the paper's three
//! showcase optimizations: stateful co-location, pipelined CNN inference
//! ([`pipeline`]), and dynamic recomputation under congestion
//! ([`recompute`]). The three extension points of §3.3 map directly:
//!
//! 1. graph rewrites — [`rewrite::fuse_elementwise_chains`];
//! 2. placement policy — the [`policy::Policy`] trait;
//! 3. runtime hint adaptation — the congestion-aware
//!    [`recompute::recomputation_candidates`].
//!
//! [`global`] scales the same machinery fleet-wide (§3.6): heterogeneous
//! placement, elastic phase-aware scaling, cross-tenant decode batching,
//! and admission control on the plan's deny-level findings (GA101 for a
//! device a plan overcommits) — the gate [`schedule_checked`] applies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod cost;
pub mod global;
pub mod lint;
pub mod pipeline;
pub mod plan;
pub mod plan_dot;
pub mod policy;
pub mod recompute;
pub mod rewrite;
pub mod schedule;
pub mod view;

pub use cost::{CostCacheStats, CostModel};
pub use lint::lint_plan;
pub use plan::{CostBreakdown, ExecutionPlan, Location, Transfer};
pub use policy::{DataAware, LeastLoaded, Policy, RoundRobin, SemanticsAware, Sharded};
pub use schedule::{schedule, schedule_checked, schedule_with_lints};
pub use view::ClusterView;
