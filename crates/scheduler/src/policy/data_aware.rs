//! Data-aware greedy placement: §2.2's "slightly better" baseline that
//! prices data movement per decision but still sees operations as
//! independent — the placement analogue of the ΔKV execution mode.

use super::{place_with, Policy};
use crate::plan::Location;
use crate::view::ClusterView;
use genie_srg::Srg;

/// Greedy minimum-ingress placement: each operation goes to the device
/// that minimizes the bytes that must move to it right now, given where
/// its inputs already landed. With no lookahead and no notion of phases,
/// it gravitates to one device (saving transfers) but can never discover
/// phase-level splits like prefill/decode disaggregation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataAware;

impl Policy for DataAware {
    fn name(&self) -> &'static str {
        "data_aware"
    }

    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location> {
        let devices = view.devices();
        assert!(!devices.is_empty(), "no devices in pool");
        // Track where producers landed as we sweep in topo order.
        let mut landed = vec![Location::ClientCpu; srg.node_count()];
        let placements = place_with(srg, |id| {
            let mut best = (f64::INFINITY, devices[0]);
            for &dev in &devices {
                let mut ingress = 0.0;
                for edge in srg.in_edges(id) {
                    if landed[edge.src.index()] != Location::Device(dev) {
                        ingress += edge.transfer_bytes();
                    }
                }
                // Small queue-aware tiebreak keeps it from collapsing onto
                // a hot device when ingress ties.
                let score = ingress + view.state.queue_seconds(dev) * 1e3;
                if score < best.0 {
                    best = (score, dev);
                }
            }
            let loc = Location::Device(best.1);
            landed[id.index()] = loc;
            loc
        });
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::chain_graph;
    use super::*;
    use crate::cost::CostModel;
    use genie_cluster::{ClusterState, Topology};

    #[test]
    fn chain_collapses_to_one_device() {
        let srg = chain_graph();
        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let p = DataAware.place(&srg, &view);
        let used: std::collections::BTreeSet<_> = p.iter().filter_map(|l| l.device()).collect();
        assert_eq!(used.len(), 1, "a pure chain has no reason to cross devices");
    }
}
