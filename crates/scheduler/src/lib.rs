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
//! Genie's [`policy::SemanticsAware`], which places by annotation
//! (stateful co-location, CNN pipeline stages, embedding tiering). It
//! does not run [`pipeline`] (pipelined-CNN pricing) or
//! [`adapt::HintAdapter`]; their own callers do. Two of the three
//! extension points of §3.3 map directly:
//!
//! 1. placement policy — the [`policy::Policy`] trait;
//! 2. runtime hint adaptation — [`adapt::HintAdapter`]. Congestion-aware
//!    recomputation is priced ([`CostModel::recompute_advantage`]) but no
//!    pass applies it.
//!
//! The third, graph rewrites, has no pass here: an elementwise-chain
//! fusion would eliminate no node of any zoo or control-path graph, since
//! no pointwise op there takes its one input from a pointwise op with one
//! consumer.
//!
//! [`global`] answers §3.6's *where* fleet-wide: placement by roofline
//! affinity, admission on the plan's deny-level findings (GA101) — the
//! gate [`schedule_checked`] applies. *When* and *how* are `genie-serving`'s.
//!
//! The plan type is `genie-analysis`'s ([`plan`] re-exports its module),
//! so the lint gate every plan passes, [`lint_plan`], reads the plan the
//! scheduler emits and no copy of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod cost;
pub mod global;
pub mod pipeline;
pub mod plan_dot;
pub mod policy;
pub mod schedule;
pub mod view;

pub use cost::{CostCacheStats, CostModel};
pub use genie_analysis::plan;
/// Run every plan pass (`GA1xx`, `GA2xx`, plan-level `GA3xx`) over a plan
/// against the cluster it was scheduled for: the gate
/// [`schedule`](schedule::schedule) records on every plan it emits.
pub use genie_analysis::run_plan_passes as lint_plan;
pub use plan::{CostBreakdown, ExecutionPlan, Location, Transfer};
pub use policy::{DataAware, LeastLoaded, Policy, RoundRobin, SemanticsAware, Sharded};
pub use schedule::{schedule, schedule_checked, schedule_with_lints};
pub use view::ClusterView;
