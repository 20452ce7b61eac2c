//! # genie-srg — the Semantically-Rich Graph
//!
//! The SRG is the "narrow waist" of the Genie platform: a portable,
//! declarative DAG that captures *what* an AI application intends to
//! compute together with the high-level semantics — execution phases, data
//! residency, modality, cost hints, criticality — that are lost when
//! computation descends to driver- or PCIe-level interfaces.
//!
//! Frontends (see `genie-frontend`) construct SRGs by intercepting
//! framework operations; schedulers (`genie-scheduler`) consume them as a
//! declarative specification and return placement-annotated copies;
//! backends (`genie-backend`) execute the plan. This crate defines the data
//! model and the graph algorithms everything else shares:
//!
//! - [`Srg`], [`Node`], [`Edge`] and the §3.1 annotation schema
//!   ([`Phase`], [`Residency`], [`Modality`], [`CostHints`],
//!   [`TensorMeta`], [`Rate`], [`Criticality`]);
//! - traversal and analysis: [`traverse::topo_order`], [`traverse::levels`],
//!   [`critical_path::critical_path`], [`stats::GraphStats`];
//! - validation ([`validate::validate`]) and portable serialization
//!   ([`serialize::to_json`], [`dot::to_dot`]).
//!
//! ## Example
//!
//! ```
//! use genie_srg::{Srg, Node, OpKind, NodeId, Phase, Residency, TensorMeta, ElemType};
//!
//! let mut g = Srg::new("tiny_decode_step");
//! let w = g.add_node(
//!     Node::new(NodeId::new(0), OpKind::Parameter, "wte")
//!         .with_residency(Residency::PersistentWeight),
//! );
//! let x = g.add_node(
//!     Node::new(NodeId::new(0), OpKind::Input, "token")
//!         .with_residency(Residency::ModelInput),
//! );
//! let mm = g.add_node(
//!     Node::new(NodeId::new(0), OpKind::MatMul, "logits").with_phase(Phase::LlmDecode),
//! );
//! g.connect(w, mm, TensorMeta::new([50400, 4096], ElemType::F16));
//! g.connect(x, mm, TensorMeta::new([1, 4096], ElemType::F16));
//!
//! assert!(genie_srg::validate::validate(&g).is_empty());
//! let order = genie_srg::traverse::topo_order(&g).unwrap();
//! assert_eq!(order.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotations;
pub mod critical_path;
pub mod dot;
pub mod edge;
pub mod graph;
pub mod ids;
pub mod json;
pub mod name;
pub mod node;
pub mod serialize;
pub mod shard;
pub mod stats;
pub mod traverse;
pub mod validate;

pub use annotations::{
    CostHints, Criticality, ElemType, Modality, Phase, Rate, Residency, TensorMeta,
};
pub use edge::Edge;
pub use graph::Srg;
pub use ids::{DeviceId, EdgeId, NodeId, TensorId};
pub use name::{Attrs, Name};
pub use node::{Node, OpKind};
pub use shard::ShardSpec;
