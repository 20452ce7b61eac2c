//! # genie-serving — the continuous-batching serving runtime
//!
//! The paper's LLM-serving story (§3.6, Table 1) is ultimately about a
//! *loop*: requests arrive, share a model, and decode together, with KV
//! caches pinned near the accelerator. This crate builds that loop as a
//! deterministic discrete-event engine over the repo's existing planes:
//!
//! - [`ArrivalConfig`] — seeded open-loop (Poisson) arrival traces on
//!   the virtual clock; a `u64` seed replays the whole offered load.
//! - [`ServingLoop`] — the engine: one state struct with a handler per
//!   phase over a single [`genie_netsim::EventQueue`] agenda of
//!   arrivals and migration landings. SLO-budgeted admission queue,
//!   continuous batching across lanes, per-lane KV residency with LRU
//!   eviction and lineage-style re-prefill, typed shedding
//!   ([`ShedReason`]) under overload, and optional fault schedules
//!   ([`genie_netsim::FaultPlan`]) that degrade throughput instead of
//!   wedging the loop.
//! - [`ServingModel`] — functional (tiny, bit-exact against the
//!   sequential [`generate`](genie_models::TransformerLm::generate)
//!   oracle) or spec (GPT-J scale, roofline-priced batched steps via
//!   [`genie_backend::sharded_step_time`]).
//! - [`ServingConfig`] states every network as a [`genie_cluster::Link`]:
//!   the `client` link each step's tokens cross, a sharded lane's fabric
//!   beside its `ShardSpec` in `shard`, and [`DisaggConfig`]'s
//!   `migration` link, which prices ship-vs-re-prefill as
//!   `CostModel::over` it.
//! - [`ServingReport`] — what the engine writes: outcomes, the
//!   deterministic event log, per-lane step slices and counters.
//!   Everything else is a view of those: TTFT percentiles, the spans
//!   for the Perfetto exporter, and (when enabled) the
//!   `genie_serving_*` metrics published to the process-global sinks
//!   from the finished report. [`ServingLoop::audit`] replays the log
//!   against every serving [`Law`], and blame analysis borrows it as it
//!   is ([`ServingReport::causal_doc`]).
//! - [`fleet::bind_tenant`] — admission through the global scheduler
//!   (refused on the plan's deny-level findings) to derive lanes and KV budget.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod audit;
pub mod engine;
pub mod fleet;
pub mod report;
pub mod request;
pub mod slo;

pub use arrivals::ArrivalConfig;
pub use audit::{AuditSummary, Law, Violation};
pub use engine::{DisaggConfig, MigrationPolicy, ServingConfig, ServingLoop, ServingModel};
pub use fleet::{bind_tenant, FleetBinding};
pub use report::{percentile, ServingReport};
pub use request::{EventKind, LogEvent, Outcome, ServingRequest, ShedReason};
pub use slo::{SloStats, SloTracker, TenantSlo};
