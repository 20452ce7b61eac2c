//! Structural validation of SRGs.
//!
//! A frontend must emit a *well-formed* SRG before handing it to a
//! scheduler; `validate` is the gate. It checks the invariants the rest of
//! the platform relies on so downstream code can index freely.

use crate::graph::Srg;
use crate::ids::{EdgeId, NodeId};
use crate::traverse::topo_order;
use std::fmt;

/// A violated SRG invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// An edge references a node id outside the graph. Checked first:
    /// every other invariant (and most of the platform) indexes endpoint
    /// nodes freely and would panic on such an edge.
    DanglingEdge {
        /// The offending edge.
        edge: EdgeId,
        /// Its (possibly out-of-range) producer.
        src: NodeId,
        /// Its (possibly out-of-range) consumer.
        dst: NodeId,
    },
    /// The graph contains a cycle.
    Cycle {
        /// A node participating in the cycle.
        witness: NodeId,
    },
    /// A source-kind node (`Input`/`Parameter`) has incoming edges.
    SourceWithInputs {
        /// The offending node.
        node: NodeId,
    },
    /// A non-source node has no incoming edges (it could never produce a
    /// value).
    OrphanCompute {
        /// The offending node.
        node: NodeId,
    },
    /// Two edges deliver to the same (node, slot) pair.
    DuplicateSlot {
        /// The consuming node.
        node: NodeId,
        /// The contested operand slot.
        slot: u8,
    },
    /// An edge payload has zero bytes but its producer is not
    /// metadata-only; data must actually flow.
    EmptyPayload {
        /// The offending edge's producer.
        src: NodeId,
        /// The offending edge's consumer.
        dst: NodeId,
    },
    /// The same logical tensor is produced by two different nodes.
    TensorMultiplyProduced {
        /// First producer observed.
        first: NodeId,
        /// Conflicting second producer.
        second: NodeId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DanglingEdge { edge, src, dst } => {
                write!(f, "edge {edge} ({src}->{dst}) references a missing node")
            }
            ValidationError::Cycle { witness } => {
                write!(f, "cycle through {witness}")
            }
            ValidationError::SourceWithInputs { node } => {
                write!(f, "source node {node} has incoming edges")
            }
            ValidationError::OrphanCompute { node } => {
                write!(f, "compute node {node} has no inputs")
            }
            ValidationError::DuplicateSlot { node, slot } => {
                write!(f, "node {node} receives two edges on slot {slot}")
            }
            ValidationError::EmptyPayload { src, dst } => {
                write!(f, "edge {src}->{dst} carries an empty payload")
            }
            ValidationError::TensorMultiplyProduced { first, second } => {
                write!(f, "tensor produced by both {first} and {second}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate all SRG invariants, returning every violation found (empty =
/// valid). Deterministic ordering.
pub fn validate(g: &Srg) -> Vec<ValidationError> {
    let mut errors = Vec::new();

    // Dangling endpoints make every node-indexing check below (and
    // `topo_order` itself) unsound, so detect them and stop early.
    for edge in g.edges() {
        if edge.src.index() >= g.node_count() || edge.dst.index() >= g.node_count() {
            errors.push(ValidationError::DanglingEdge {
                edge: edge.id,
                src: edge.src,
                dst: edge.dst,
            });
        }
    }
    if !errors.is_empty() {
        return errors;
    }

    if let Err(e) = topo_order(g) {
        errors.push(ValidationError::Cycle { witness: e.witness });
    }

    for node in g.nodes() {
        let in_deg = g.in_degree(node.id);
        if node.op.is_source() && in_deg > 0 {
            errors.push(ValidationError::SourceWithInputs { node: node.id });
        }
        if !node.op.is_source() && in_deg == 0 {
            errors.push(ValidationError::OrphanCompute { node: node.id });
        }
        // Slot uniqueness among incoming edges: one bit per `u8` slot.
        let mut slots_seen = [0u64; 4];
        for edge in g.in_edges(node.id) {
            let (word, bit) = (usize::from(edge.dst_slot / 64), edge.dst_slot % 64);
            if slots_seen[word] & 1 << bit != 0 {
                errors.push(ValidationError::DuplicateSlot {
                    node: node.id,
                    slot: edge.dst_slot,
                });
            }
            slots_seen[word] |= 1 << bit;
        }
    }

    for edge in g.edges() {
        // Empty payloads are ill-formed except for stateful-cache seeds: a
        // KV cache legitimately starts at shape [0, d] before the first
        // append.
        let src_node = g.node(edge.src);
        let is_cache_seed = src_node.residency == crate::annotations::Residency::StatefulKvCache;
        if edge.meta.size_bytes() == 0 && !src_node.op.is_metadata_only() && !is_cache_seed {
            errors.push(ValidationError::EmptyPayload {
                src: edge.src,
                dst: edge.dst,
            });
        }
    }

    // Single-producer property for logical tensors. Sorted, a tensor's
    // edges are a run in id order, each held to the first one's producer.
    let mut by_tensor: Vec<(crate::ids::TensorId, usize, NodeId)> = g
        .edges()
        .enumerate()
        .map(|(i, e)| (e.tensor, i, e.src))
        .collect();
    by_tensor.sort_unstable();
    let mut conflicts: Vec<(usize, NodeId, NodeId)> = Vec::new();
    for run in by_tensor.chunk_by(|a, b| a.0 == b.0) {
        let first = run[0].2;
        for &(_, i, second) in &run[1..] {
            if second != first {
                conflicts.push((i, first, second));
            }
        }
    }
    conflicts.sort_unstable();
    for (_, first, second) in conflicts {
        errors.push(ValidationError::TensorMultiplyProduced { first, second });
    }

    errors
}

/// Every violation found in one graph, displayable as a single
/// `;`-joined message — the error type of [`Srg::validate_all`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationErrors(pub Vec<ValidationError>);

impl fmt::Display for ValidationErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msgs: Vec<String> = self.0.iter().map(|e| e.to_string()).collect();
        write!(f, "{}", msgs.join("; "))
    }
}

impl std::error::Error for ValidationErrors {}

impl Srg {
    /// Validate every structural invariant, returning the complete list of
    /// violations as one joinable error (`Ok(())` when well-formed).
    pub fn validate_all(&self) -> Result<(), ValidationErrors> {
        let errors = validate(self);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(ValidationErrors(errors))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, TensorMeta};
    use crate::node::{Node, OpKind};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], ElemType::F32)
    }

    fn valid_graph() -> Srg {
        let mut g = Srg::new("ok");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        g.connect(a, b, meta());
        g
    }

    #[test]
    fn valid_graph_passes() {
        assert!(validate(&valid_graph()).is_empty());
    }

    #[test]
    fn orphan_compute_detected() {
        let mut g = valid_graph();
        g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "floating"));
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::OrphanCompute { node } if node.index() == 2)));
    }

    #[test]
    fn source_with_inputs_detected() {
        let mut g = valid_graph();
        let p = g.add_node(Node::new(NodeId::new(0), OpKind::Parameter, "w"));
        g.connect(NodeId::new(1), p, meta());
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::SourceWithInputs { .. })));
    }

    #[test]
    fn cycle_detected() {
        let mut g = valid_graph();
        g.connect(NodeId::new(1), NodeId::new(1), meta());
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::Cycle { .. })));
    }

    #[test]
    fn empty_payload_detected() {
        let mut g = Srg::new("empty-payload");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        g.connect(a, b, TensorMeta::new([0], ElemType::F32));
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::EmptyPayload { .. })));
    }

    #[test]
    fn empty_cache_seed_is_legal() {
        use crate::annotations::Residency;
        let mut g = Srg::new("kv-seed");
        let seed = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "kv")
                .with_residency(Residency::StatefulKvCache),
        );
        let app = g.add_node(Node::new(NodeId::new(0), OpKind::KvAppend, "append"));
        let row = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "row"));
        g.connect(seed, app, TensorMeta::new([0, 4], ElemType::F32));
        g.connect(row, app, TensorMeta::new([1, 4], ElemType::F32));
        assert!(validate(&g).is_empty());
    }

    #[test]
    fn multiply_produced_tensor_detected() {
        let mut g = Srg::new("multi-prod");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "c"));
        let t = g.fresh_tensor();
        g.connect_tensor(a, c, t, meta());
        g.connect_tensor(b, c, t, meta());
        let errs = validate(&g);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::TensorMultiplyProduced { .. })));
    }

    #[test]
    fn error_display_messages() {
        let e = ValidationError::OrphanCompute {
            node: NodeId::new(7),
        };
        assert_eq!(e.to_string(), "compute node n7 has no inputs");
        let e = ValidationError::DanglingEdge {
            edge: EdgeId::new(0),
            src: NodeId::new(1),
            dst: NodeId::new(99),
        };
        assert_eq!(e.to_string(), "edge e0 (n1->n99) references a missing node");
    }

    /// `connect_tensor` asserts endpoint bounds, so a dangling edge can
    /// only arrive from outside — e.g. a corrupted serialized graph.
    fn tampered_graph() -> Srg {
        let json = crate::serialize::to_json(&valid_graph()).unwrap();
        assert!(json.contains(r#""src":0,"dst":1,"#), "{json}");
        crate::serialize::from_json(&json.replace(r#""dst":1,"#, r#""dst":99,"#)).unwrap()
    }

    #[test]
    fn dangling_edge_detected_without_panicking() {
        let errs = validate(&tampered_graph());
        assert_eq!(
            errs,
            vec![ValidationError::DanglingEdge {
                edge: EdgeId::new(0),
                src: NodeId::new(0),
                dst: NodeId::new(99),
            }]
        );
    }

    #[test]
    fn validate_all_joins_every_violation() {
        let mut g = valid_graph();
        g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "floating"));
        g.connect(NodeId::new(1), NodeId::new(1), meta());
        let err = g.validate_all().expect_err("two violations");
        assert!(err.0.len() >= 2, "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("; "), "{msg}");
        assert!(msg.contains("cycle"), "{msg}");
        assert!(msg.contains("no inputs"), "{msg}");
        assert!(valid_graph().validate_all().is_ok());
    }
}
