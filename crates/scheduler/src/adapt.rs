//! Runtime hint adaptation (§3.3, extension point 3).
//!
//! Policies decide with a cost model; the cost model is only as good as
//! its network constants. The [`HintAdapter`] folds live measurements —
//! RTT probes and observed transfer goodput — into
//! exponentially-weighted averages and rewrites the cost model between
//! planning rounds, so decisions like dynamic recomputation track the
//! network the session actually has rather than the one it assumed.

use crate::cost::CostModel;

/// EWMA-based adapter from live measurements to cost-model constants.
#[derive(Clone, Debug)]
pub struct HintAdapter {
    /// Smoothing factor in `(0, 1]`: weight of the newest sample.
    pub alpha: f64,
    rtt_s: Option<f64>,
    bandwidth: Option<f64>,
    /// Samples folded in so far.
    pub samples: usize,
}

impl HintAdapter {
    /// Adapter with the conventional TCP-style smoothing (α = 1/8).
    pub fn new() -> Self {
        HintAdapter {
            alpha: 0.125,
            rtt_s: None,
            bandwidth: None,
            samples: 0,
        }
    }

    /// Fold in a measured round-trip time (e.g. from a transport ping).
    pub fn observe_rtt(&mut self, rtt_s: f64) {
        assert!(rtt_s.is_finite() && rtt_s >= 0.0, "bad RTT sample");
        self.rtt_s = Some(match self.rtt_s {
            Some(prev) => prev + self.alpha * (rtt_s - prev),
            None => rtt_s,
        });
        self.samples += 1;
    }

    /// Fold in an observed bulk transfer: `bytes` delivered in
    /// `seconds` of wall clock.
    pub fn observe_transfer(&mut self, bytes: u64, seconds: f64) {
        if seconds <= 0.0 || bytes == 0 {
            return;
        }
        let goodput = bytes as f64 * 8.0 / seconds;
        self.bandwidth = Some(match self.bandwidth {
            Some(prev) => prev + self.alpha * (goodput - prev),
            None => goodput,
        });
        self.samples += 1;
    }

    /// Current smoothed RTT, if any samples arrived.
    pub fn rtt(&self) -> Option<f64> {
        self.rtt_s
    }

    /// Current smoothed goodput in bits/s, if any samples arrived.
    pub fn bandwidth(&self) -> Option<f64> {
        self.bandwidth
    }

    /// Rewrite a cost model with the measured constants. One-way latency
    /// is taken as RTT/2. Unmeasured fields keep their priors.
    pub fn apply(&self, cost: &mut CostModel) {
        if let Some(rtt) = self.rtt_s {
            cost.link.latency_s = rtt / 2.0;
        }
        if let Some(bw) = self.bandwidth {
            cost.link.bandwidth_bps = bw;
        }
    }
}

impl Default for HintAdapter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_cluster::GpuSpec;
    use genie_srg::{CostHints, Node, NodeId, OpKind};

    #[test]
    fn ewma_converges_and_damps_outliers() {
        let mut a = HintAdapter::new();
        for _ in 0..100 {
            a.observe_rtt(0.001);
        }
        assert!((a.rtt().unwrap() - 0.001).abs() < 1e-6);
        // One wild outlier barely moves the estimate.
        a.observe_rtt(1.0);
        assert!(a.rtt().unwrap() < 0.13);
        assert_eq!(a.samples, 101);
    }

    #[test]
    fn first_sample_initializes() {
        let mut a = HintAdapter::new();
        assert!(a.rtt().is_none());
        a.observe_rtt(0.004);
        assert_eq!(a.rtt(), Some(0.004));
        a.observe_transfer(1_000_000, 0.01);
        assert_eq!(a.bandwidth(), Some(8e8));
    }

    #[test]
    fn degenerate_transfers_ignored() {
        let mut a = HintAdapter::new();
        a.observe_transfer(0, 1.0);
        a.observe_transfer(100, 0.0);
        assert!(a.bandwidth().is_none());
        assert_eq!(a.samples, 0);
    }

    #[test]
    fn applied_measurements_flip_recompute_decisions() {
        // With the optimistic prior the 64 MB fetch looks fine; after the
        // adapter learns the link is actually slow, recomputation wins by
        // an order of magnitude more — live hints change real decisions.
        let gpu = GpuSpec::a100_80gb();
        let producer = Node::new(NodeId::new(0), OpKind::Gelu, "act")
            .with_cost(CostHints::new(100e6, 64e6, 64e6));
        let mut cost = CostModel::ideal_25g();
        let before = cost.recompute_advantage(&producer, 64e6, &gpu, 0.0);

        let mut adapter = HintAdapter::new();
        for _ in 0..50 {
            adapter.observe_transfer(64_000_000, 2.0); // 32 MB/s = 256 Mbit/s measured
            adapter.observe_rtt(0.040);
        }
        adapter.apply(&mut cost);
        assert!((cost.link.bandwidth_bps - 256e6).abs() / 256e6 < 0.01);
        assert!((cost.link.latency_s - 0.020).abs() < 1e-6);
        let after = cost.recompute_advantage(&producer, 64e6, &gpu, 0.0);
        assert!(after > before * 10.0, "before {before}, after {after}");
    }
}
