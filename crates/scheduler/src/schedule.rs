//! The scheduler's core entry point:
//! `plan = schedule(srg, cluster_state, policy)` (§3.3).
//!
//! Policies only choose *where* nodes run; this module does the shared
//! work that makes placements executable and comparable:
//!
//! 1. derive transfers for every cross-location edge, deduplicated per
//!    `(tensor, destination)` — a value ships at most once per device;
//! 2. route pinnable residencies (weights, KV caches, embedding tables)
//!    bound for a device as one-time pinned uploads, which its later
//!    consumers there read by handle;
//! 3. estimate end-to-end latency via a critical-path pass over kernel
//!    and transfer times plus queue delays.

use crate::cost::CostModel;
use crate::plan::{CostBreakdown, ExecutionPlan, Location, Transfer};
use crate::policy::Policy;
use crate::view::ClusterView;
use genie_analysis::{LintConfig, Report, Severity};
use genie_cluster::{ClusterState, Topology};
use genie_srg::{Srg, TensorId};
use std::collections::BTreeSet;

/// Produce an execution plan for `srg` on the given cluster using
/// `policy`. Pure: neither the graph nor the cluster state is mutated.
///
/// Every plan is run through the `GA1xx` plan lints (under the default
/// [`LintConfig`]) and carries the findings in
/// [`ExecutionPlan::diagnostics`]; use [`schedule_checked`] to turn
/// deny-level findings into a hard error.
pub fn schedule(
    srg: &Srg,
    topo: &Topology,
    state: &ClusterState,
    cost: &CostModel,
    policy: &dyn Policy,
) -> ExecutionPlan {
    schedule_with_lints(srg, topo, state, cost, policy, &LintConfig::new())
}

/// [`schedule`] with a caller-supplied lint policy governing the `GA1xx`
/// severities recorded on the plan.
pub fn schedule_with_lints(
    srg: &Srg,
    topo: &Topology,
    state: &ClusterState,
    cost: &CostModel,
    policy: &dyn Policy,
    lints: &LintConfig,
) -> ExecutionPlan {
    let telemetry = genie_telemetry::global();
    let begin = std::time::Instant::now();
    let mut span = telemetry.collector.span_with(
        "schedule",
        "scheduler",
        genie_telemetry::SemAttrs::new()
            .with("graph", srg.name.clone())
            .with("policy", policy.name()),
    );
    let view = ClusterView::new(topo, state, cost);
    let mut placements = policy.place(srg, &view);

    // Fault awareness: a device whose host is partitioned from the client
    // is unreachable for the lifetime of this plan, so scheduling work
    // there would stall the run. Reroute those placements to the client —
    // slower, but correct — and count the degradation.
    if state.has_partitions() {
        let client = topo.client_host();
        let mut reroutes = 0u64;
        for loc in &mut placements {
            if let Location::Device(dev) = *loc {
                let host = topo.device(dev).host;
                if state.is_partitioned(client.0, host.0) {
                    *loc = Location::ClientCpu;
                    reroutes += 1;
                }
            }
        }
        if reroutes > 0 {
            telemetry
                .metrics
                .counter("genie_schedule_reroutes_total", &[("reason", "partition")])
                .add(reroutes);
        }
    }

    let mut transfers = Vec::new();
    let mut pinned_uploads: Vec<(TensorId, genie_cluster::DevId, u64)> = Vec::new();
    let mut arrived: BTreeSet<(TensorId, Location)> = BTreeSet::new();
    // Transfer seconds per edge id; summed in id order below.
    let mut edge_cost: Vec<Option<f64>> = vec![None; srg.edge_count()];

    for dst in genie_srg::traverse::topo_order(srg).expect("valid SRG") {
        let dst_loc = placements[dst.index()];
        for edge in srg.in_edges(dst) {
            let (eid, src_loc) = (edge.id, placements[edge.src.index()]);
            if src_loc == dst_loc {
                continue;
            }
            let bytes = edge.transfer_bytes() as u64;
            // Effective bandwidth between two placements: a derated link
            // divides goodput, multiplying the time estimate for anything
            // crossing it.
            let derate = state.link_derate(src_loc.host(topo).0, dst_loc.host(topo).0);
            // An already-shipped tensor goes by handle and costs nothing; a
            // pinnable one bound for a device is a one-time upload, priced
            // at streaming rate, and no transfer.
            let fan_out = !arrived.insert((edge.tensor, dst_loc));
            let pin_to = dst_loc
                .device()
                .filter(|_| srg.node(edge.src).residency.prefers_remote_pinning());
            let (via_handle, secs) = match pin_to {
                _ if fan_out => (true, None),
                Some(dev) => {
                    pinned_uploads.push((edge.tensor, dev, bytes));
                    edge_cost[eid.index()] = Some(cost.streaming_time(bytes as f64) / derate);
                    continue;
                }
                None => (false, Some(cost.transfer_time(bytes as f64) / derate)),
            };
            edge_cost[eid.index()] = secs;
            transfers.push(Transfer {
                edge: eid,
                tensor: edge.tensor,
                from: src_loc,
                to: dst_loc,
                bytes,
                via_handle,
            });
        }
    }

    // Cost estimate: critical path with device-aware kernel times and the
    // transfer costs derived above.
    let cp = genie_srg::critical_path::critical_path(
        srg,
        |node| match placements[node.id.index()] {
            Location::Device(dev) if !node.op.is_source() => {
                cost.kernel_time(node, &topo.device(dev).spec)
            }
            _ => 0.0,
        },
        |edge| edge_cost[edge.id.index()].unwrap_or(0.0),
    )
    .expect("valid SRG");

    let queue_s = placements
        .iter()
        .filter_map(|l| l.device())
        .map(|d| state.queue_seconds(d))
        .fold(0.0, f64::max);

    let transfer_s: f64 = edge_cost.iter().flatten().sum();
    let compute_s = (cp.length - transfer_s).max(0.0);

    let mut plan = ExecutionPlan {
        policy: policy.name().to_string(),
        srg: srg.clone(),
        placements,
        transfers,
        pinned_uploads,
        estimate: CostBreakdown {
            compute_s,
            transfer_s,
            queue_s,
        },
        diagnostics: Vec::new(),
    };
    plan.diagnostics = crate::lint_plan(&plan, topo, state, lints).diagnostics;

    let label = plan.label();
    span.annotate(|a| a.plan = Some(label.clone()));
    telemetry
        .metrics
        .counter("genie_schedule_plans_total", &[("policy", policy.name())])
        .inc();
    let wire = plan.transfers.iter().filter(|t| !t.via_handle).count() as u64;
    let handle = plan.transfers.len() as u64 - wire;
    telemetry
        .metrics
        .counter("genie_schedule_transfers_total", &[("kind", "wire")])
        .add(wire);
    telemetry
        .metrics
        .counter("genie_schedule_transfers_total", &[("kind", "handle")])
        .add(handle);
    telemetry
        .metrics
        .counter("genie_schedule_pinned_uploads_total", &[])
        .add(plan.pinned_uploads.len() as u64);
    for d in &plan.diagnostics {
        telemetry
            .metrics
            .counter(
                "genie_schedule_lint_findings_total",
                &[("severity", d.severity.label())],
            )
            .inc();
        let mut attrs = genie_telemetry::SemAttrs::new()
            .plan(label.clone())
            .with("severity", d.severity.label())
            .with("message", d.message.clone());
        if let genie_analysis::Anchor::Node(n) = d.anchor {
            attrs.node = Some(n);
        }
        telemetry
            .collector
            .instant(format!("lint.{}", d.code), "scheduler", attrs);
    }
    telemetry
        .metrics
        .histogram(
            "genie_schedule_seconds",
            &[],
            &genie_telemetry::DEFAULT_TIME_BOUNDS,
        )
        .observe(begin.elapsed().as_secs_f64());
    telemetry
        .metrics
        .gauge("genie_cost_cache_hit_rate", &[])
        .set(cost.cache_stats().hit_rate());
    plan
}

/// [`schedule`], gated: returns `Err` with the full lint report when any
/// plan-level finding is deny under `lints` (e.g. the plan overcommits a
/// device's memory). Demote a code with [`LintConfig::warn`] to accept
/// such plans anyway.
pub fn schedule_checked(
    srg: &Srg,
    topo: &Topology,
    state: &ClusterState,
    cost: &CostModel,
    policy: &dyn Policy,
    lints: &LintConfig,
) -> Result<ExecutionPlan, Report> {
    let plan = schedule_with_lints(srg, topo, state, cost, policy, lints);
    if plan
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Deny)
    {
        return Err(Report {
            subject: plan.label(),
            diagnostics: plan.diagnostics,
        });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DataAware, RoundRobin, SemanticsAware};
    use genie_analysis::{Anchor, LintCode};
    use genie_cluster::{GpuSpec, Link};
    use genie_frontend::capture::CaptureCtx;
    use genie_models::{KvState, TransformerConfig, TransformerLm};
    use genie_srg::{ElemType, Node, NodeId, OpKind, Residency, TensorMeta};

    fn decode_graph() -> Srg {
        decode_graph_of(TransformerConfig::gptj_6b())
    }

    fn decode_graph_of(config: TransformerConfig) -> Srg {
        let m = TransformerLm::new_spec(config);
        let ctx = CaptureCtx::new("decode");
        let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        ctx.finish().srg
    }

    #[test]
    fn semantics_aware_moves_orders_of_magnitude_less() {
        let srg = decode_graph();
        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();

        let blind = schedule(&srg, &topo, &state, &cost, &RoundRobin);
        let aware = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());

        // Round-robin ships activations between every pair of adjacent
        // ops; semantics-aware ships the token in and the sampled token
        // out, with weights as one-time pinned uploads in both cases.
        let blind_recurring: u64 = blind
            .transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum();
        let aware_recurring: u64 = aware
            .transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum();
        assert!(
            blind_recurring > aware_recurring.max(1) * 100,
            "blind {blind_recurring} vs aware {aware_recurring}"
        );
    }

    #[test]
    fn pinned_weights_upload_once_and_never_cross_the_wire() {
        let srg = decode_graph();
        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();

        // Weights become pinned uploads (~12 GB), never wire transfers.
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        let upload_bytes: u64 = plan.pinned_uploads.iter().map(|(_, _, b)| b).sum();
        assert!(
            upload_bytes > 11_000_000_000,
            "weights go as pinned uploads: {upload_bytes}"
        );
        let weights_on_wire = plan.transfers.iter().filter(|t| {
            !t.via_handle && srg.node(srg.edge(t.edge).src).residency == Residency::PersistentWeight
        });
        assert_eq!(weights_on_wire.count(), 0, "no weight ships by value");
    }

    #[test]
    fn estimate_reflects_placement_quality() {
        let srg = decode_graph();
        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let blind = schedule(&srg, &topo, &state, &cost, &RoundRobin);
        let aware = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        assert!(
            aware.estimate.total_s() < blind.estimate.total_s(),
            "aware {} vs blind {}",
            aware.estimate.total_s(),
            blind.estimate.total_s()
        );
    }

    #[test]
    fn fan_out_ships_once_per_destination() {
        // One weight consumed by two ops on the same device: one upload.
        let ctx = CaptureCtx::new("fanout");
        let x = ctx.input("x", [1, 8], ElemType::F32, None);
        let w = ctx.parameter("w", [8, 8], ElemType::F32, None);
        let a = x.matmul(&w);
        let b = x.matmul(&w);
        a.add(&b).mark_output();
        let srg = ctx.finish().srg;

        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let plan = schedule(&srg, &topo, &state, &cost, &DataAware);
        // Input x crosses once for real; its second consumer reuses.
        let x_edges: Vec<_> = plan
            .transfers
            .iter()
            .filter(|t| t.from == Location::ClientCpu)
            .collect();
        let real: usize = x_edges.iter().filter(|t| !t.via_handle).count();
        let reused: usize = x_edges.iter().filter(|t| t.via_handle).count();
        assert_eq!(real, 1, "{x_edges:?}");
        // Two handle reuses: x's second consumer and w's second consumer
        // (w's first consumer is a pinned upload, not a transfer).
        assert_eq!(reused, 2);
        assert_eq!(plan.pinned_uploads.len(), 1);
    }

    #[test]
    fn scheduling_feeds_telemetry() {
        // Global metrics are shared across tests: assert growth only.
        let plans = || {
            genie_telemetry::global()
                .metrics
                .snapshot()
                .counter("genie_schedule_plans_total", &[("policy", "round_robin")])
                .unwrap_or(0)
        };
        let before = plans();
        let srg = decode_graph();
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let plan = schedule(&srg, &topo, &state, &cost, &RoundRobin);
        assert!(plans() > before);
        let label = plan.label();
        let records = genie_telemetry::global().collector.snapshot();
        assert!(
            records
                .iter()
                .any(|r| r.name == "schedule" && r.attrs.plan.as_deref() == Some(label.as_str())),
            "schedule span carries the plan label"
        );
    }

    #[test]
    fn repeated_scheduling_warms_cost_cache() {
        let srg = decode_graph();
        let topo = Topology::rack(2, 25e9);
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let policy = SemanticsAware::new();

        schedule(&srg, &topo, &state, &cost, &policy);
        let cold = cost.cache_stats();
        schedule(&srg, &topo, &state, &cost, &policy);
        let warm = cost.cache_stats();

        assert!(warm.hits > cold.hits, "re-scheduling must hit the cache");
        assert_eq!(
            warm.misses, cold.misses,
            "no new estimates on an identical re-schedule"
        );
        let gauge = genie_telemetry::global()
            .metrics
            .snapshot()
            .gauge("genie_cost_cache_hit_rate", &[]);
        assert!(gauge.is_some(), "hit-rate gauge published");
    }

    #[test]
    fn degraded_link_inflates_transfer_estimate() {
        let srg = decode_graph();
        let topo = Topology::paper_testbed();
        let cost = CostModel::ideal_25g();

        let healthy = ClusterState::new();
        let base = schedule(&srg, &topo, &healthy, &cost, &SemanticsAware::new());

        // Client (host 0) to gpu-server (host 1) at 25% bandwidth.
        let mut state = ClusterState::new();
        state.set_link_derate(0, 1, 0.25);
        let derated = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());

        assert_eq!(
            base.placements, derated.placements,
            "derating slows transfers but does not move work"
        );
        assert!(
            derated.estimate.transfer_s > base.estimate.transfer_s * 3.9,
            "4x less bandwidth ~4x the transfer estimate: {} vs {}",
            derated.estimate.transfer_s,
            base.estimate.transfer_s
        );
    }

    #[test]
    fn partitioned_host_reroutes_to_client() {
        let srg = decode_graph();
        let topo = Topology::paper_testbed();
        let cost = CostModel::ideal_25g();

        let mut state = ClusterState::new();
        state.set_partitioned(0, 1, true);

        let reroutes = || {
            genie_telemetry::global()
                .metrics
                .snapshot()
                .counter("genie_schedule_reroutes_total", &[("reason", "partition")])
                .unwrap_or(0)
        };
        let before = reroutes();
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        assert!(
            plan.placements.iter().all(|l| *l == Location::ClientCpu),
            "nothing may be placed across a severed link"
        );
        assert!(plan.transfers.is_empty() && plan.pinned_uploads.is_empty());
        assert!(reroutes() > before, "reroutes are counted");

        // Healing the partition restores remote placement.
        state.set_partitioned(0, 1, false);
        let healed = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        assert!(healed
            .placements
            .iter()
            .any(|l| matches!(l, Location::Device(_))));
    }

    #[test]
    fn plan_summary_is_printable() {
        let srg = decode_graph();
        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let cost = CostModel::ideal_25g();
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        let s = plan.summary();
        assert!(s.contains("semantics_aware"));
        assert!(s.contains("devices"));
    }

    fn tiny_device_topo(mem_capacity: u64) -> Topology {
        let mut t = Topology::new();
        let client = t.add_host("client");
        let server = t.add_host("server");
        let spec = GpuSpec {
            mem_capacity,
            ..GpuSpec::a100_80gb()
        };
        t.add_device(server, spec);
        t.add_link(client, server, Link::PAPER_TESTBED);
        t
    }

    #[test]
    fn scheduled_plans_carry_deny_clean_diagnostics() {
        let srg = decode_graph_of(TransformerConfig::tiny());
        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let plan = schedule(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
        );
        let denies: Vec<_> = plan
            .diagnostics
            .iter()
            .filter(|d| d.severity == genie_analysis::Severity::Deny)
            .collect();
        assert!(denies.is_empty(), "real plans lint deny-clean: {denies:?}");
    }

    #[test]
    fn schedule_checked_rejects_overcommitted_device() {
        let srg = decode_graph_of(TransformerConfig::tiny());
        // A "GPU" with 4 KB of memory: even the tiny model's weights
        // cannot be pinned, so GA101 fires at deny level.
        let topo = tiny_device_topo(4096);
        let state = ClusterState::new();
        let err = schedule_checked(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
            &LintConfig::new(),
        )
        .expect_err("4 KB device must overcommit");
        assert!(err.has_deny(), "{err}");
        assert!(
            !err.with_code(LintCode::DeviceOvercommit).is_empty(),
            "{err}"
        );
    }

    #[test]
    fn schedule_checked_warn_override_lets_plan_through() {
        let srg = decode_graph_of(TransformerConfig::tiny());
        let topo = tiny_device_topo(4096);
        let state = ClusterState::new();
        let cfg = LintConfig::new().warn(LintCode::DeviceOvercommit);
        let plan = schedule_checked(
            &srg,
            &topo,
            &state,
            &CostModel::ideal_25g(),
            &SemanticsAware::new(),
            &cfg,
        )
        .expect("demoted to warn, plan goes through");
        assert!(plan
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::DeviceOvercommit));
    }

    #[test]
    fn hand_built_overcommit_plan_is_flagged() {
        let topo = tiny_device_topo(1_000_000);
        let dev = topo.devices()[0].id;
        let mut srg = Srg::new("hand");
        let w = srg.add_node(
            Node::new(NodeId::new(0), OpKind::Parameter, "w")
                .with_residency(Residency::PersistentWeight),
        );
        let mm = srg.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        srg.connect(
            w,
            mm,
            TensorMeta::new([1024, 1024], genie_srg::ElemType::F32),
        );
        let tensor = srg.edge(genie_srg::EdgeId::new(0)).tensor;
        let plan = ExecutionPlan {
            policy: "hand".into(),
            srg,
            placements: vec![Location::ClientCpu, Location::Device(dev)],
            transfers: Vec::new(),
            pinned_uploads: vec![(tensor, dev, 8_000_000)], // 8 MB into 1 MB
            estimate: CostBreakdown::default(),
            diagnostics: Vec::new(),
        };
        let r = crate::lint_plan(&plan, &topo, &ClusterState::new(), &LintConfig::new());
        assert!(r.has_deny(), "{r}");
        assert_eq!(r.with_code(LintCode::DeviceOvercommit).len(), 1, "{r}");
    }

    #[test]
    fn round_robin_kv_splits_surface_as_warnings() {
        let srg = decode_graph_of(TransformerConfig::tiny());
        let topo = Topology::rack(4, 25e9);
        let state = ClusterState::new();
        let plan = schedule(&srg, &topo, &state, &CostModel::ideal_25g(), &RoundRobin);
        let flagged = |e: genie_srg::EdgeId| {
            plan.diagnostics
                .iter()
                .any(|d| d.code == LintCode::KvCacheNotColocated && d.anchor == Anchor::Edge(e))
        };
        // Blind placement splits KV caches from their consumers. A cache
        // carried in from the client is pinned to the device that reads
        // it, once, and stays quiet; one appended on one device and read
        // on another crosses every step, and the lint records it without
        // rejecting the (legal, just bad) plan.
        let (mut carried, mut appended) = (0, 0);
        for e in srg.edges() {
            let src = srg.node(e.src);
            let reader = plan.location(e.dst);
            if src.residency != Residency::StatefulKvCache || plan.location(e.src) == reader {
                continue;
            }
            if src.op.is_source() {
                carried += 1;
                let dev = reader.device().expect("a decode step reads on a device");
                assert!(
                    plan.pinned_uploads
                        .iter()
                        .any(|&(t, to, _)| t == e.tensor && to == dev),
                    "{} is not pinned to its reader's device",
                    e.id
                );
                assert!(!flagged(e.id), "{} is resident where it is read", e.id);
            } else {
                appended += 1;
                assert!(flagged(e.id), "{} crosses every step unflagged", e.id);
            }
        }
        assert!(
            carried > 0 && appended > 0,
            "{carried} carried, {appended} appended"
        );
    }
}
