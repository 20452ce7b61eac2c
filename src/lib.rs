//! # Genie — framework-layer AI accelerator disaggregation
//!
//! A from-scratch Rust implementation of the Genie platform from *"Lost
//! in Translation: The Search for Meaning in Network-Attached AI
//! Accelerator Disaggregation"* (HotNets '25): a semantics-aware runtime
//! that captures application intent at the ML-framework layer into a
//! **Semantically-Rich Graph (SRG)** and uses it to schedule and execute
//! work on disaggregated, network-attached accelerators.
//!
//! This crate is the facade over the platform's workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`srg`] | the SRG IR: annotations, validation, traversal, serialization |
//! | [`analysis`] | semantic lint engine: `GA0xx` graph + `GA1xx` plan passes |
//! | [`tensor`] | CPU tensor kernels (the functional plane's arithmetic) |
//! | [`frontend`] | lazy-tensor intent capture, recognizers, re-capture |
//! | [`models`] | model zoo: transformer LM, CNN, DLRM, multimodal |
//! | [`cluster`] | accelerator/NIC/topology descriptions + live state |
//! | [`netsim`] | deterministic discrete-event network simulation |
//! | [`transport`] | real TCP transport: framing, codec, RPC, pinned pools |
//! | [`scheduler`] | cost model, policies, global scheduling |
//! | [`telemetry`] | cross-layer spans, metrics registry, Perfetto export |
//! | [`backend`] | local / simulated / remote-over-TCP execution |
//! | [`serving`] | continuous-batching serving loop: SLO queue, KV residency |
//! | [`bench`](mod@bench) | regeneration of every table and figure in the paper |
//!
//! ## Quickstart
//!
//! ```
//! use genie::prelude::*;
//!
//! // 1. Capture intent: code runs lazily, building an SRG.
//! let ctx = CaptureCtx::new("quickstart");
//! let x = ctx.input("x", [1, 8], ElemType::F32, Some(genie::tensor::init::randn([1, 8], 1)));
//! let w = ctx.parameter("w", [8, 8], ElemType::F32, Some(genie::tensor::init::randn([8, 8], 2)));
//! let y = x.matmul(&w).gelu();
//! y.mark_output();
//! let cap = ctx.finish();
//!
//! // 2. Schedule it onto a disaggregated pool.
//! let topo = Topology::paper_testbed();
//! let state = ClusterState::new();
//! let cost = CostModel::ideal_25g();
//! let plan = genie::scheduler::schedule(&cap.srg, &topo, &state, &cost, &SemanticsAware::new());
//! assert!(plan.devices_used() >= 1);
//!
//! // 3. Execute functionally and check the math.
//! let out = genie::backend::LocalBackend.execute_outputs(&cap).unwrap();
//! assert_eq!(out[0].as_f("y").dims(), &[1, 8]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;

pub use genie_analysis as analysis;
pub use genie_backend as backend;
pub use genie_bench as bench;
pub use genie_cluster as cluster;
pub use genie_frontend as frontend;
pub use genie_models as models;
pub use genie_netsim as netsim;
pub use genie_scheduler as scheduler;
pub use genie_serving as serving;
pub use genie_srg as srg;
pub use genie_telemetry as telemetry;
pub use genie_tensor as tensor;
pub use genie_transport as transport;

/// The items most programs need.
pub mod prelude {
    pub use crate::chaos::ChaosConfig;
    pub use genie_backend::{LocalBackend, RemoteSession};
    pub use genie_cluster::{ClusterState, Topology};
    pub use genie_frontend::capture::{CaptureCtx, CapturedGraph, LazyTensor};
    pub use genie_frontend::value::Value;
    pub use genie_frontend::RecaptureSession;
    pub use genie_scheduler::{
        schedule, CostModel, DataAware, ExecutionPlan, LeastLoaded, Policy, RoundRobin,
        SemanticsAware,
    };
    pub use genie_serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel};
    pub use genie_srg::{ElemType, Modality, Phase, Residency, Srg};
}
