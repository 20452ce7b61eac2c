//! Round-robin placement: the paper's strawman of semantic blindness
//! (§2.2 — "spreading each request across available GPU resources with a
//! round-robin policy").

use super::{place_with, Policy};
use crate::plan::Location;
use crate::view::ClusterView;
use genie_srg::Srg;

/// Treats every operation as independent and identical, cycling through
/// devices in topological order. Maximally "fair", maximally oblivious:
/// large stateful tensors ping-pong across the network.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl Policy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location> {
        let devices = view.devices();
        assert!(!devices.is_empty(), "no devices in pool");
        let mut i = 0usize;
        place_with(srg, |_| {
            let d = devices[i % devices.len()];
            i += 1;
            Location::Device(d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::chain_graph;
    use super::*;
    use crate::cost::CostModel;
    use genie_cluster::{ClusterState, Topology};

    #[test]
    fn cycles_across_devices() {
        let srg = chain_graph();
        let topo = Topology::rack(3, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let p = RoundRobin.place(&srg, &view);
        let used: std::collections::BTreeSet<_> = p.iter().filter_map(|l| l.device()).collect();
        assert_eq!(used.len(), 3, "all devices touched");
        // Inputs stay on the client.
        let input = srg.nodes().find(|n| n.name == "x").unwrap().id;
        assert_eq!(p[input.index()], Location::ClientCpu);
    }

    #[test]
    fn sources_originate_on_client() {
        let srg = chain_graph();
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let p = RoundRobin.place(&srg, &view);
        for node in srg.nodes() {
            if node.op.is_source() {
                assert_eq!(
                    p[node.id.index()],
                    Location::ClientCpu,
                    "{} on client",
                    node.name
                );
            }
        }
    }
}
