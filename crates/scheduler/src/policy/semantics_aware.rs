//! The semantics-aware policy: Genie's placement logic (§3.3).
//!
//! Reads the SRG's annotations and applies, without any per-application
//! code:
//!
//! - **Stateful co-location** — every node in a stateful phase
//!   (`LlmDecode`) lands on one home device, the least-loaded, where its
//!   KV cache is pinned, eliminating cache movement.
//! - **Pipeline parallelism** — `VisionEncode` nodes follow their
//!   `pipeline_stage` attribute across devices so stages overlap.
//! - **Data tiering** — `EmbeddingLookup` goes to the device with the
//!   most free memory; `DenseInteraction` to the fastest compute.
//! - **Modality affinity** — mixed/fusion nodes join the device holding
//!   the largest upstream state.
//! - **Rate-aware output placement** — volume-collapsing ops (`Sample`)
//!   run next to their producer so only the collapsed bytes cross the
//!   network.

use super::{place_with, Policy};
use crate::plan::Location;
use crate::view::ClusterView;
use genie_cluster::DevId;
use genie_srg::{OpKind, Phase, Srg};

/// Genie's semantics-aware placement policy. Pipeline stages spread
/// over every available device.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemanticsAware;

impl SemanticsAware {
    /// The semantics-aware policy.
    pub fn new() -> Self {
        SemanticsAware
    }
}

impl Policy for SemanticsAware {
    fn name(&self) -> &'static str {
        "semantics_aware"
    }

    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location> {
        let devices = view.devices();
        assert!(!devices.is_empty(), "no devices in pool");

        // Availability filter: a fleet-level scheduler communicates
        // partition decisions by loading out-of-partition devices; any
        // device queued far beyond the minimum is treated as unavailable.
        let min_q = devices
            .iter()
            .map(|&d| view.state.queue_seconds(d))
            .fold(f64::INFINITY, f64::min);
        let avail: Vec<DevId> = devices
            .iter()
            .copied()
            .filter(|&d| view.state.queue_seconds(d) <= min_q + 1e3)
            .collect();
        let avail = if avail.is_empty() {
            devices.clone()
        } else {
            avail
        };

        // Home device for stateful phases: the least-loaded device.
        let home = avail
            .iter()
            .copied()
            .min_by(|&a, &b| {
                view.state
                    .queue_seconds(a)
                    .partial_cmp(&view.state.queue_seconds(b))
                    .expect("finite queues")
                    .then(a.cmp(&b))
            })
            .expect("avail non-empty");

        let by_key = |f: &dyn Fn(DevId) -> f64| -> DevId {
            avail
                .iter()
                .copied()
                .max_by(|&a, &b| f(a).partial_cmp(&f(b)).expect("finite").then(b.cmp(&a)))
                .expect("avail non-empty")
        };
        let tier_mem = by_key(&|d| view.state.mem_free(view.topo, d) as f64);
        let tier_compute = by_key(&|d| view.topo.device(d).spec.peak_flops);

        // Pre-pass: producer placements for rate-aware co-location are
        // resolved lazily via this table as we sweep in topo order.
        let mut landed: Vec<Option<DevId>> = vec![None; srg.node_count()];

        let placements = place_with(srg, |id| {
            let node = srg.node(id);
            let dev = match (&node.phase, &node.op) {
                // Collapse-rate ops sit with their producer: ship 8 bytes,
                // not 200 KB of logits.
                (_, OpKind::Sample) => srg
                    .predecessors(id)
                    .first()
                    .and_then(|p| landed[p.index()])
                    .unwrap_or(home),
                // Stateful co-location.
                (Phase::LlmDecode, _) | (Phase::LlmPrefill, _) => home,
                // Pipelined CNN inference.
                (Phase::VisionEncode, _) => {
                    let stage: usize = node
                        .attrs
                        .get("pipeline_stage")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    avail[stage % avail.len()]
                }
                // Tiering.
                (Phase::EmbeddingLookup, _) => tier_mem,
                (Phase::DenseInteraction, _) => tier_compute,
                // Fusion: follow the heaviest upstream producer.
                (Phase::ModalityFusion, _) => srg
                    .in_edges(id)
                    .max_by(|a, b| {
                        a.transfer_bytes()
                            .partial_cmp(&b.transfer_bytes())
                            .expect("finite bytes")
                    })
                    .and_then(|e| landed[e.src.index()])
                    .unwrap_or(home),
                // Unknown phases: stay near inputs (home).
                _ => home,
            };
            landed[id.index()] = Some(dev);
            Location::Device(dev)
        });
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use genie_cluster::{ClusterState, Topology};
    use genie_frontend::capture::CaptureCtx;
    use genie_models::{CnnConfig, SimpleCnn, TransformerConfig, TransformerLm};

    fn view_fixture(
        topo: &Topology,
        state: &ClusterState,
        cost: &CostModel,
    ) -> ClusterView<'static> {
        // SAFETY-free lifetime juggling: tests just leak.
        let topo: &'static Topology = Box::leak(Box::new(topo.clone()));
        let state: &'static ClusterState = Box::leak(Box::new(state.clone()));
        let cost: &'static CostModel = Box::leak(Box::new(cost.clone()));
        ClusterView::new(topo, state, cost)
    }

    #[test]
    fn decode_colocates_on_one_device() {
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let ctx = CaptureCtx::new("d");
        let cap = m.capture_decode_step(&ctx, 0, &genie_models::KvState::default());
        cap.logits.sample().mark_output();
        let srg = ctx.finish().srg;

        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = view_fixture(&topo, &state, &cost);
        let p = SemanticsAware::new().place(&srg, &view);
        let used: std::collections::BTreeSet<_> = p.iter().filter_map(|l| l.device()).collect();
        assert_eq!(used.len(), 1, "decode must pin to the cache's device");
    }

    #[test]
    fn vision_pipeline_spreads_stages() {
        let m = SimpleCnn::new_spec(CnnConfig::resnet_like());
        let ctx = CaptureCtx::new("v");
        m.capture_inference(&ctx, 1, None).mark_output();
        let mut srg = ctx.finish().srg;
        genie_frontend::patterns::run_all(&mut srg);

        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = view_fixture(&topo, &state, &cost);
        let p = SemanticsAware::new().place(&srg, &view);
        let used: std::collections::BTreeSet<_> = p.iter().filter_map(|l| l.device()).collect();
        assert!(used.len() >= 3, "8 stages over 4 devices: {used:?}");
    }

    #[test]
    fn sample_sits_with_logits_producer() {
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let ctx = CaptureCtx::new("d");
        let cap = m.capture_decode_step(&ctx, 0, &genie_models::KvState::default());
        let tok = cap.logits.sample();
        tok.mark_output();
        let srg = ctx.finish().srg;

        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let view = view_fixture(&topo, &state, &cost);
        let p = SemanticsAware::new().place(&srg, &view);
        assert_eq!(p[tok.node.index()], p[cap.logits.node.index()]);
    }
}
