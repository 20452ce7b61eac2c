//! Graphviz DOT export for SRG inspection and debugging.

use crate::annotations::{Criticality, Phase};
use crate::graph::Srg;
use std::fmt::Write as _;

/// Render the graph in Graphviz DOT syntax. Nodes are clustered by phase
/// and colored by residency so the semantic structure is visible at a
/// glance — the human-readable view of what a semantically-blind layer
/// cannot see.
pub fn to_dot(g: &Srg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(&g.name));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");

    // Group nodes by phase into clusters for readability.
    let phases = g.phases();
    for (ci, phase) in phases.iter().enumerate() {
        let members = g.nodes_in_phase(phase);
        let clustered = *phase != Phase::Unknown;
        if clustered {
            let _ = writeln!(out, "  subgraph cluster_{ci} {{");
            let _ = writeln!(out, "    label=\"{}\";", escape(phase.label()));
            let _ = writeln!(out, "    style=dashed;");
        }
        for id in members {
            let node = g.node(id);
            let color = match node.residency {
                crate::annotations::Residency::PersistentWeight => "lightblue",
                crate::annotations::Residency::StatefulKvCache => "lightsalmon",
                crate::annotations::Residency::EphemeralActivation => "white",
                crate::annotations::Residency::ModelInput => "lightgreen",
                crate::annotations::Residency::ModelOutput => "gold",
                crate::annotations::Residency::EmbeddingTable => "plum",
                crate::annotations::Residency::OptimizerState => "gray80",
                crate::annotations::Residency::Unknown => "gray95",
            };
            let indent = if clustered { "    " } else { "  " };
            let _ = writeln!(
                out,
                "{indent}{} [label=\"{}\\n{}\", style=filled, fillcolor={color}];",
                node.id.index(),
                escape(&node.name),
                node.op.mnemonic(),
            );
        }
        if clustered {
            let _ = writeln!(out, "  }}");
        }
    }

    for edge in g.edges() {
        let style = match edge.criticality {
            Criticality::Critical => " [color=red, penwidth=2]",
            Criticality::Background => " [style=dotted]",
            Criticality::Normal => "",
        };
        let _ = writeln!(
            out,
            "  {} -> {}{};",
            edge.src.index(),
            edge.dst.index(),
            style
        );
    }

    let _ = writeln!(out, "}}");
    out
}

/// `s` as the body of a DOT double-quoted string: backslashes and
/// quotes escaped.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, Residency, TensorMeta};
    use crate::ids::NodeId;
    use crate::node::{Node, OpKind};

    #[test]
    fn dot_output_contains_structure() {
        let mut g = Srg::new("demo");
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "weights")
                .with_residency(Residency::PersistentWeight)
                .with_phase(Phase::LlmDecode),
        );
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "proj"));
        g.connect(a, b, TensorMeta::new([2, 2], ElemType::F16));
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("lightblue"));
        assert!(dot.contains("cluster_"));
        assert!(dot.contains("llm_decode"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn critical_edges_highlighted() {
        let mut g = Srg::new("crit");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let e = g.connect(a, b, TensorMeta::new([2], ElemType::F32));
        g.edge_mut(e).criticality = Criticality::Critical;
        assert!(to_dot(&g).contains("color=red"));
    }

    #[test]
    fn names_are_escaped() {
        let mut g = Srg::new("quo\"te");
        g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x\"y"));
        let dot = to_dot(&g);
        assert!(dot.contains("quo\\\"te"));
        assert!(dot.contains("x\\\"y"));
    }
}
