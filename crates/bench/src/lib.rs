//! # genie-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations DESIGN.md calls out:
//!
//! | artifact | module | binary |
//! |---|---|---|
//! | Table 1 (workload characterization) | [`characterize`] | `table1` |
//! | Figure 1 (semantic visibility across the stack) | [`stack_levels`] | `figure1` |
//! | Table 2 (four execution modes) | [`modes`] | `table2` |
//! | Table 3 (decode-latency scaling) | [`modes::table3`] | `table3` |
//!
//! [`calibration`] documents how the simulator's transport constants were
//! refit from the paper's own cells; [`workload`] fixes the GPT-J request
//! the tables measure and the arrival trace the serving benches offer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod characterize;
pub mod modes;
pub mod report;
pub mod stack_levels;
pub mod workload;

pub use calibration::Calibration;
pub use modes::{run_phase, table2, table3, Mode, PhaseMetrics, PhaseRun, Table2Row};
pub use workload::LlmWorkload;
