//! DOT rendering of execution plans: the SRG colored by placement, with
//! transfers as labeled cross-device edges — the picture a human asks for
//! when debugging a placement.

use crate::plan::{ExecutionPlan, Location};
use genie_srg::dot::escape;
use std::fmt::Write as _;

/// Stable fill colors per device index (cycled).
const DEVICE_COLORS: [&str; 6] = [
    "lightblue",
    "lightsalmon",
    "palegreen",
    "plum",
    "khaki",
    "lightcyan",
];

/// Render a plan as Graphviz DOT: nodes grouped into clusters per
/// location, scheduled transfers drawn bold with byte labels, handle
/// references dotted.
pub fn plan_to_dot(plan: &ExecutionPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(&plan.srg.name));
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");

    // Group nodes by location.
    let mut locations = plan.placements.clone();
    locations.sort();
    locations.dedup();
    for (ci, loc) in locations.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{ci} {{");
        let _ = writeln!(out, "    label=\"{loc}\";");
        let color = match loc {
            Location::ClientCpu => "gray92",
            Location::Device(d) => DEVICE_COLORS[d.0 as usize % DEVICE_COLORS.len()],
        };
        let _ = writeln!(out, "    style=filled; color={color};");
        for node in plan.srg.nodes() {
            if plan.location(node.id) == *loc {
                let _ = writeln!(
                    out,
                    "    {} [label=\"{}\\n{}\"];",
                    node.id.index(),
                    escape(&node.name),
                    node.op.mnemonic()
                );
            }
        }
        let _ = writeln!(out, "  }}");
    }

    // Edges: transfers annotated, local edges plain.
    for edge in plan.srg.edges() {
        let transfer = plan.transfers.iter().find(|t| t.edge == edge.id);
        match transfer {
            Some(t) if t.via_handle => {
                let _ = writeln!(
                    out,
                    "  {} -> {} [style=dotted, label=\"handle\"];",
                    edge.src.index(),
                    edge.dst.index()
                );
            }
            Some(t) => {
                let _ = writeln!(
                    out,
                    "  {} -> {} [penwidth=2, color=red, label=\"{} B\"];",
                    edge.src.index(),
                    edge.dst.index(),
                    t.bytes
                );
            }
            None => {
                let _ = writeln!(out, "  {} -> {};", edge.src.index(), edge.dst.index());
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::policy::RoundRobin;
    use crate::schedule::schedule;
    use genie_cluster::{ClusterState, Topology};
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::ElemType;

    #[test]
    fn plan_dot_shows_placements_and_transfers() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [4, 4], ElemType::F32, None);
        let y = x.relu().gelu();
        y.mark_output();
        let srg = ctx.finish().srg;
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let plan = schedule(&srg, &topo, &state, &cost, &RoundRobin);
        let dot = plan_to_dot(&plan);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("label=\"client\""));
        assert!(dot.contains("label=\"d0\""));
        assert!(dot.contains(" B\""), "transfer byte labels present");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn names_with_backslashes_and_quotes_stay_inside_their_strings() {
        let ctx = CaptureCtx::new("a\\ \"b\"");
        let x = ctx.input("x\\", [4, 4], ElemType::F32, None);
        x.relu().mark_output();
        let srg = ctx.finish().srg;
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let dot = plan_to_dot(&schedule(&srg, &topo, &state, &cost, &RoundRobin));
        assert!(dot.starts_with("digraph \"a\\\\ \\\"b\\\"\" {"), "{dot}");
        assert!(dot.contains("[label=\"x\\\\\\n"), "{dot}");
    }
}
