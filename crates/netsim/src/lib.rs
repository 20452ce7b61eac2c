//! # genie-netsim — deterministic discrete-event network simulation
//!
//! The performance plane of Genie's evaluation. Since the paper's testbed
//! (A100 server, 25 GbE, TensorPipe RPC) is hardware we substitute, this
//! crate models exactly the quantities that set the shape of Tables 2–3:
//!
//! - [`link::LinkSim`] — FIFO-serialized point-to-point links with
//!   propagation latency;
//! - [`rpc::RpcChannel`] — RPC transports parameterized by session-init
//!   cost, per-call overhead, and effective goodput, with calibrated
//!   presets (`RpcParams::tensorpipe_python` reproduces the paper's
//!   measured stack, `RpcParams::rdma_zero_copy` the §3.4 target
//!   datapath);
//! - [`fabric::Fabric`] — per-host-pair channels over a
//!   `genie_cluster::Topology`;
//! - [`queue::EventQueue`] / [`time::Nanos`] — a deterministic event core
//!   (integer nanoseconds, ties broken by a caller key, then insertion
//!   order); the serving engine's agenda and the bench fleet run on it;
//! - [`fault::FaultPlan`] — seeded, wall-clock-free fault injection:
//!   bandwidth derates, latency jitter, link outages and host partitions,
//!   and the one reader of them: [`link::LinkSim`], the serving engine
//!   and the scheduler's projection all ask the plan, and the fabric
//!   surfaces its windows as trace marks;
//! - [`trace::Trace`] — flat records from which latency, traffic, and the
//!   paper's "effective GPU utilization" metric are computed.
//!
//! ```
//! use genie_netsim::{rpc::{RpcChannel, RpcParams}, link::LinkSim, time::Nanos};
//!
//! let link = LinkSim::new(25e9 / 8.0, Nanos::from_micros(250));
//! let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
//! let ready = ch.ensure_session(Nanos::ZERO);
//! let t = ch.call_sync(ready, 1 << 20, 4096, Nanos::from_millis(5));
//! assert!(t.response_delivered > ready);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod fault;
pub mod link;
pub mod queue;
pub mod rpc;
pub mod time;
pub mod trace;

pub use fabric::Fabric;
pub use fault::{FaultPlan, FaultSpec, TransferOutcome, XorShift64};
pub use link::LinkSim;
pub use queue::EventQueue;
pub use rpc::{CallTiming, OnewayTiming, RpcChannel, RpcParams};
pub use time::Nanos;
pub use trace::{Trace, TraceEvent};
