//! # genie-cluster — hardware substrate description
//!
//! Static and dynamic descriptions of a disaggregated accelerator pool:
//!
//! - [`GpuSpec`]: per-accelerator roofline parameters (peak FLOP/s, memory
//!   bandwidth, capacity) with presets matching the paper's A100-80GB
//!   testbed and a heterogeneous fleet for §3.6 experiments;
//! - [`Topology`]: hosts, devices, and links — the `cluster_state` input to
//!   `schedule(srg, cluster_state, policy)`;
//! - [`ClusterState`]: live memory accounting, per-device work queues, and
//!   the fault layer's projection onto host pairs (link derates and
//!   partitions) that the scheduler prices.
//!
//! ```
//! use genie_cluster::{Topology, ClusterState};
//!
//! let topo = Topology::paper_testbed();
//! let mut state = ClusterState::new();
//! let dev = topo.devices()[0].id;
//! state.alloc(&topo, dev, 12 << 30).unwrap(); // pin 12 GB of weights
//! assert!(state.mem_free(&topo, dev) > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gpu;
pub mod state;
pub mod topology;

pub use gpu::{GpuClass, GpuSpec, GIB};
pub use state::{ClusterState, StateError};
pub use topology::{serialization_s, DevId, Device, Host, HostId, Link, Topology};
