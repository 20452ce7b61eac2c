//! Least-loaded placement: blind to semantics, aware of queues.

use super::{place_with, Policy};
use crate::plan::Location;
use crate::view::ClusterView;
use genie_srg::Srg;
use std::collections::BTreeMap;

/// Sends each operation to the device with the least pending work
/// (cluster queue plus work this plan has already assigned). Balances
/// load well and scatters state just as badly as round-robin.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl Policy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least_loaded"
    }

    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location> {
        let devices = view.devices();
        assert!(!devices.is_empty(), "no devices in pool");
        let mut assigned: BTreeMap<genie_cluster::DevId, f64> = devices
            .iter()
            .map(|&d| (d, view.state.queue_seconds(d)))
            .collect();
        place_with(srg, |id| {
            let node = srg.node(id);
            let dev = *assigned
                .iter()
                .min_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .expect("finite load")
                        .then(a.0.cmp(b.0))
                })
                .expect("devices non-empty")
                .0;
            let gpu = &view.topo.device(dev).spec;
            *assigned.get_mut(&dev).expect("known device") += view.cost.kernel_time(node, gpu);
            Location::Device(dev)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::chain_graph;
    use super::*;
    use crate::cost::CostModel;
    use genie_cluster::{ClusterState, DevId, Topology};

    #[test]
    fn avoids_busy_devices() {
        let srg = chain_graph();
        let topo = Topology::rack(2, 25e9);
        let mut state = ClusterState::new();
        state.enqueue_work(DevId(0), 100.0); // device 0 is slammed
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let p = LeastLoaded.place(&srg, &view);
        assert!(
            p.iter().filter_map(|l| l.device()).all(|d| d == DevId(1)),
            "all work should land on the idle device"
        );
    }

    #[test]
    fn balances_on_equal_queues() {
        let srg = chain_graph();
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let p = LeastLoaded.place(&srg, &view);
        let used: std::collections::BTreeSet<_> = p.iter().filter_map(|l| l.device()).collect();
        assert_eq!(used.len(), 2, "work spreads when queues tie");
    }
}
