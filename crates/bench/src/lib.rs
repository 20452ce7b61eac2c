//! # genie-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations DESIGN.md calls out. Each regeneration is a function that
//! returns a [`Report`] — the text it prints and the artifacts it writes
//! under `target/experiments/` — and [`REPORTS`] lists them all. The
//! package's one binary runs them: `cargo run --release -p genie-bench --
//! <name>…` (no name runs every report). `tests/experiments_doc.rs`
//! checks each report's text against its block in EXPERIMENTS.md.
//!
//! | artifact | data | report |
//! |---|---|---|
//! | Table 1 (workload characterization) | [`characterize`] | [`paper::table1`] |
//! | Figure 1 (semantic visibility across the stack) | [`stack_levels`] | [`paper::figure1`] |
//! | Table 2 (four execution modes) | [`modes`] | [`paper::table2`] |
//! | Table 3 (decode-latency scaling) | [`modes::table3`] | [`paper::table3`] |
//! | ablations of DESIGN.md §4 | | [`ablations`] |
//! | serving sweep, disaggregation, sharding, blame | | [`serving`] |
//! | lint report, Perfetto export | | [`zoo`] |
//!
//! [`calibration`] documents how the simulator's transport constants were
//! refit from the paper's own cells; [`workload`] fixes the GPT-J request
//! the tables measure and the arrival trace the serving benches offer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod calibration;
pub mod characterize;
pub mod modes;
pub mod paper;
pub mod report;
pub mod serving;
pub mod stack_levels;
pub mod workload;
pub mod zoo;

pub use calibration::Calibration;
pub use modes::{run_phase, table2, table3, Mode, PhaseMetrics, PhaseRun, Table2Row};
pub use report::Report;
pub use workload::LlmWorkload;

/// A function that runs one report.
pub type RunReport = fn() -> Report;

/// Every report, by the name the binary takes.
pub const REPORTS: &[(&str, RunReport)] = &[
    ("table1", paper::table1),
    ("figure1", paper::figure1),
    ("table2", paper::table2),
    ("table3", paper::table3),
    ("ablation_colocation", ablations::ablation_colocation),
    ("ablation_pipeline", ablations::ablation_pipeline),
    ("ablation_recompute", ablations::ablation_recompute),
    ("ablation_zerocopy", ablations::ablation_zerocopy),
    ("ablation_rpc", ablations::ablation_rpc),
    ("ablation_multitenant", ablations::ablation_multitenant),
    ("ablation_lineage", ablations::ablation_lineage),
    ("ablation_fleet", ablations::ablation_fleet),
    ("ablation_lexicon", ablations::ablation_lexicon),
    ("bench_serving", serving::bench_serving),
    ("bench_disagg", serving::bench_disagg),
    ("bench_sharding", serving::bench_sharding),
    ("trace_analyze", serving::trace_analyze),
    ("lint_report", zoo::lint_report),
    ("trace_export", zoo::trace_export),
];
