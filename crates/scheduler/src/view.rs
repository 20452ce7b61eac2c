//! The scheduler's read-only view of the cluster.

use crate::cost::CostModel;
use genie_cluster::{ClusterState, DevId, Topology};

/// Everything `schedule()` may consult: static topology, live state, and
/// the cost model. Bundled so policies have one handle.
#[derive(Clone, Copy)]
pub struct ClusterView<'a> {
    /// Static cluster description.
    pub topo: &'a Topology,
    /// Live allocations / queues / link derates / partitions.
    pub state: &'a ClusterState,
    /// Pluggable cost model.
    pub cost: &'a CostModel,
}

impl<'a> ClusterView<'a> {
    /// Construct a view.
    pub fn new(topo: &'a Topology, state: &'a ClusterState, cost: &'a CostModel) -> Self {
        ClusterView { topo, state, cost }
    }

    /// All device ids in the pool.
    pub fn devices(&self) -> Vec<DevId> {
        self.topo.devices().iter().map(|d| d.id).collect()
    }

    /// The least-loaded device by queued seconds, ties to the lowest id.
    pub fn least_loaded(&self) -> Option<DevId> {
        self.devices().into_iter().min_by(|&a, &b| {
            self.state
                .queue_seconds(a)
                .partial_cmp(&self.state.queue_seconds(b))
                .expect("finite queues")
                .then(a.cmp(&b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_tracks_queues() {
        let topo = Topology::rack(3, 25e9);
        let mut state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        state.enqueue_work(DevId(0), 5.0);
        state.enqueue_work(DevId(1), 1.0);
        let view = ClusterView::new(&topo, &state, &cost);
        assert_eq!(view.least_loaded(), Some(DevId(2)));
    }
}
