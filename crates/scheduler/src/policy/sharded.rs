//! Sharded placement: honor a capture-time shard assignment, mapping
//! shard *i* to the *i*-th device in the pool.
//!
//! Where the other policies decide placement from graph structure, this
//! one carries a decision already made by the sharded model capture
//! (`genie_models::sharded`): every node's shard id picks its device, so
//! the cross-shard edges are exactly the transfers the shared derivation
//! emits. Nodes absent from the map ride shard 0.

use super::{place_with, Policy};
use crate::plan::Location;
use crate::view::ClusterView;
use genie_srg::{NodeId, Srg};
use std::collections::BTreeMap;

/// Places each node on the device its shard id selects.
#[derive(Clone, Debug, Default)]
pub struct Sharded {
    /// Shard id per node; missing nodes fall back to shard 0.
    pub shard_of: BTreeMap<NodeId, u32>,
}

impl Sharded {
    /// Policy for a capture's shard assignment.
    pub fn new(shard_of: BTreeMap<NodeId, u32>) -> Self {
        Sharded { shard_of }
    }

    /// Highest shard id referenced (the device count this plan needs).
    pub fn shards(&self) -> u32 {
        self.shard_of.values().max().map_or(0, |&s| s) + 1
    }
}

impl Policy for Sharded {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location> {
        let devices = view.devices();
        assert!(!devices.is_empty(), "no devices in pool");
        assert!(
            self.shards() as usize <= devices.len(),
            "plan needs {} devices, pool has {}",
            self.shards(),
            devices.len()
        );
        place_with(srg, |id| {
            let shard = self.shard_of.get(&id).copied().unwrap_or(0) as usize;
            Location::Device(devices[shard])
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
    fn nodes_land_on_their_shards_and_sources_on_client() {
        let srg = chain_graph();
        // Alternate compute nodes between two shards.
        let mut shard_of = BTreeMap::new();
        for (i, n) in srg.nodes().filter(|n| !n.op.is_source()).enumerate() {
            shard_of.insert(n.id, (i % 2) as u32);
        }
        let policy = Sharded::new(shard_of.clone());
        assert_eq!(policy.shards(), 2);

        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        let placed = policy.place(&srg, &view);
        let devices = view.devices();
        for (id, shard) in &shard_of {
            assert_eq!(
                placed[id.index()],
                Location::Device(devices[*shard as usize])
            );
        }
        let input = srg.nodes().find(|n| n.name == "x").unwrap().id;
        assert_eq!(placed[input.index()], Location::ClientCpu);
    }

    #[test]
    #[should_panic(expected = "devices")]
    fn refuses_pools_smaller_than_the_plan() {
        let srg = chain_graph();
        let mut shard_of = BTreeMap::new();
        for n in srg.nodes() {
            shard_of.insert(n.id, 3);
        }
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = ClusterView::new(&topo, &state, &cost);
        Sharded::new(shard_of).place(&srg, &view);
    }
}
