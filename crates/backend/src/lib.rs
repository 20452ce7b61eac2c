//! # genie-backend — executing the plan
//!
//! Backends realize a scheduler's plan on concrete substrates (§3.4).
//! Three are provided, one per plane of the reproduction:
//!
//! - [`local::LocalBackend`] — real arithmetic on the client CPU: the
//!   "Local (Upper Bound)" mode of §4 and the numerical oracle;
//! - [`remote::RemoteSession`] / [`remote::spawn_server`] — real remote
//!   execution over `genie-transport` TCP: pinned uploads, handle+epoch
//!   references ([`handle::RemoteHandle`]), per-step graph shipping, and
//!   crash injection as a fault fixture;
//! - [`sim::simulate_once`] — list-scheduled simulation of one plan at
//!   paper scale: roofline kernel times, FIFO links, and each pinned
//!   upload sent once before the kernels on its device. Reuse across
//!   steps is the remote plane's: the executor that holds the bytes owns
//!   the handles.
//!
//! The three backends consume the *same* SRG and plans — the portability
//! claim at the heart of the paper's architecture.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decode;
pub mod handle;
pub mod local;
pub mod remote;
pub mod sim;

pub use decode::{
    batched_step_time, price_migration, sharded_step_time, MigrationPrice, StepCost, StepWork,
};
pub use handle::{HandleTable, RemoteHandle};
pub use local::LocalBackend;
pub use remote::{
    classify_error, spawn_chaotic_server, spawn_server, ErrorClass, GenieExecutor, RemoteSession,
};
pub use sim::{simulate_once, simulate_once_faulty, SimReport};
