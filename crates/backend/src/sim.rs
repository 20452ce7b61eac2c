//! The simulation backend — the performance plane: walks an
//! [`ExecutionPlan`] over the network model, producing a timing/traffic
//! trace. Kernels take their cost-model roofline time on the placed
//! device; every scheduled transfer occupies the FIFO link between the
//! endpoints' hosts; pinned uploads happen once up front, before any
//! kernel on their device.
//!
//! It has no agenda. [`simulate_once`] is one pass of list scheduling in
//! topological order over `Fabric`'s FIFO links: a start time is final
//! when it is computed, and no event is ever held for a future instant
//! that a later decision could reorder, so there is nothing for
//! `netsim::EventQueue` to own.

use genie_cluster::{DevId, Topology};
use genie_netsim::{Fabric, FaultPlan, Nanos, RpcParams, Trace, TraceEvent};
use genie_scheduler::{CostModel, ExecutionPlan, Location};
use std::collections::BTreeMap;

/// Summary of one simulated plan execution.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Wall-clock makespan in seconds.
    pub makespan_s: f64,
    /// Total network payload bytes moved.
    pub network_bytes: u64,
    /// Kernel-busy seconds per device.
    pub busy_s: BTreeMap<DevId, f64>,
    /// The paper's "effective GPU utilization": total kernel time over
    /// wall clock, for the busiest device.
    pub utilization: f64,
    /// Full event trace.
    pub trace: Trace,
}

/// Simulate `plan` from time zero over a fresh `fabric`, with any fault
/// plan already installed.
fn execute(
    plan: &ExecutionPlan,
    topo: &Topology,
    cost: &CostModel,
    fabric: &mut Fabric,
) -> SimReport {
    let mut trace = Trace::new();
    let client = topo.client_host();
    let mut network_bytes: u64 = 0;
    let plan_label: std::sync::Arc<str> = plan.label().into();

    let telemetry = genie_telemetry::global();
    let attrs = genie_telemetry::SemAttrs::new().plan(&*plan_label);
    let mut span = telemetry
        .collector
        .span_with("sim.execute", "backend", attrs);
    let kernel_hist = telemetry.metrics.histogram(
        "genie_sim_kernel_seconds",
        &[],
        &genie_telemetry::DEFAULT_TIME_BOUNDS,
    );
    let queue_hist = telemetry.metrics.histogram(
        "genie_sim_queue_delay_seconds",
        &[],
        &genie_telemetry::DEFAULT_TIME_BOUNDS,
    );
    let mut kernels_n: u64 = 0;
    let mut transfers_n: u64 = 0;

    // Session establishment on every channel this plan touches.
    let mut session_ready = Nanos::ZERO;
    let mut touched_hosts: Vec<genie_cluster::HostId> = Vec::new();
    for loc in &plan.placements {
        if let Some(dev) = loc.device() {
            let host = topo.device(dev).host;
            if !touched_hosts.contains(&host) {
                touched_hosts.push(host);
            }
        }
    }
    for &host in &touched_hosts {
        let t = fabric.channel(client, host).ensure_session(Nanos::ZERO);
        session_ready = session_ready.max(t);
    }

    // One-time pinned uploads (weights, cache seeds).
    let mut pin_ready: BTreeMap<DevId, Nanos> = BTreeMap::new();
    for (_, dev, bytes) in &plan.pinned_uploads {
        let host = topo.device(*dev).host;
        let timing = {
            let ch = fabric.channel(client, host);
            let issue = session_ready + ch.params.per_call_overhead;
            ch.send_oneway_timed(issue, *bytes)
        };
        let delivered = timing.delivered;
        network_bytes += *bytes;
        transfers_n += 1;
        queue_hist.observe(timing.queue_delay.as_secs_f64());
        trace.push(
            TraceEvent::transfer(client.0, host.0, *bytes, session_ready, delivered)
                .with_plan(plan_label.clone())
                .with_queue_delay(timing.queue_delay),
        );
        let e = pin_ready.entry(*dev).or_insert(delivered);
        *e = (*e).max(delivered);
    }

    // Per-node earliest finish times, by node id.
    let mut finish = vec![session_ready; plan.srg.node_count()];
    let mut device_free: BTreeMap<DevId, Nanos> = BTreeMap::new();
    // Transfer delivery, by edge id.
    let mut delivered_at: Vec<Option<Nanos>> = vec![None; plan.srg.edge_count()];
    // Each node's outbound wire transfers, in plan order.
    let mut outbound = vec![Vec::new(); finish.len()];
    for t in plan.transfers.iter().filter(|t| !t.via_handle) {
        outbound[plan.srg.edge(t.edge).src.index()].push(t);
    }

    let order = genie_srg::traverse::topo_order(&plan.srg).expect("valid plan graph");
    for &id in &order {
        let node = plan.srg.node(id);
        let loc = plan.location(id);

        // Data readiness: producer finish plus any scheduled transfer.
        let mut ready = session_ready;
        for edge in plan.srg.in_edges(id) {
            let p = finish[edge.src.index()];
            ready = ready.max(delivered_at[edge.id.index()].unwrap_or(p)).max(p);
        }
        if let Some(dev) = loc.device() {
            if let Some(&t) = pin_ready.get(&dev) {
                ready = ready.max(t);
            }
        }

        // Execute the node.
        let end = match loc {
            Location::ClientCpu => ready, // client glue is free at sim scale
            Location::Device(dev) => {
                if node.op.is_source() || node.op.is_metadata_only() {
                    ready
                } else {
                    let gpu = &topo.device(dev).spec;
                    let dur = Nanos::from_secs_f64(cost.kernel_time(node, gpu));
                    let begin = ready.max(device_free.get(&dev).copied().unwrap_or(session_ready));
                    let end = begin + dur;
                    device_free.insert(dev, end);
                    kernels_n += 1;
                    kernel_hist.observe(dur.as_secs_f64());
                    trace.push(
                        TraceEvent::kernel(dev.0, node.name.clone(), begin, end)
                            .with_node(id)
                            .with_plan(plan_label.clone()),
                    );
                    end
                }
            }
        };
        finish[id.index()] = end;

        // Issue this node's outbound scheduled transfers.
        for t in &outbound[id.index()] {
            let (from_host, to_host) = (t.from.host(topo), t.to.host(topo));
            if from_host == to_host {
                delivered_at[t.edge.index()] = Some(end);
                continue;
            }
            let timing = {
                let ch = fabric.channel(from_host, to_host);
                let issue = end + ch.params.per_call_overhead;
                ch.send_oneway_timed(issue, t.bytes)
            };
            network_bytes += t.bytes;
            transfers_n += 1;
            queue_hist.observe(timing.queue_delay.as_secs_f64());
            trace.push(
                TraceEvent::transfer(from_host.0, to_host.0, t.bytes, end, timing.delivered)
                    .with_node(id)
                    .with_plan(plan_label.clone())
                    .with_queue_delay(timing.queue_delay),
            );
            delivered_at[t.edge.index()] = Some(timing.delivered);
        }
    }

    let makespan = trace
        .makespan()
        .max(finish.iter().copied().max().unwrap_or(Nanos::ZERO));
    let span_s = makespan.as_secs_f64();
    let mut busy_s = BTreeMap::new();
    for dev in topo.devices() {
        let b = trace.device_busy_seconds(dev.id.0);
        if b > 0.0 {
            busy_s.insert(dev.id, b);
        }
    }
    let utilization = if span_s > 0.0 {
        busy_s.values().copied().fold(0.0, f64::max) / span_s
    } else {
        0.0
    };

    telemetry
        .metrics
        .counter("genie_sim_kernels_total", &[])
        .add(kernels_n);
    telemetry
        .metrics
        .counter("genie_sim_transfers_total", &[])
        .add(transfers_n);
    for (dev, busy) in &busy_s {
        let dev_label = dev.to_string();
        let labels = [("device", dev_label.as_str())];
        telemetry
            .metrics
            .gauge("genie_sim_device_busy_seconds", &labels)
            .set(*busy);
    }
    // Transmissions perturbed by the installed fault plan during this
    // execution (netsim itself is telemetry-free, so the backend owns
    // the counter).
    let faults_injected = fabric.faults_injected();
    if faults_injected > 0 {
        telemetry
            .metrics
            .counter("genie_fault_injected_total", &[])
            .add(faults_injected);
    }
    span.annotate(|a| {
        a.extra.push(("makespan_s".into(), format!("{span_s:.6}")));
        a.extra
            .push(("network_bytes".into(), network_bytes.to_string()));
        if faults_injected > 0 {
            a.extra
                .push(("faults_injected".into(), faults_injected.to_string()));
        }
    });
    SimReport {
        makespan_s: span_s,
        network_bytes,
        busy_s,
        utilization,
        trace,
    }
}

/// Build a fabric with the given transport and simulate one plan from
/// time zero.
pub fn simulate_once(
    plan: &ExecutionPlan,
    topo: &Topology,
    cost: &CostModel,
    params: RpcParams,
) -> SimReport {
    execute(plan, topo, cost, &mut Fabric::new(topo, params))
}

/// [`simulate_once`] with an installed fault plan: links degrade, jitter,
/// and go down per the plan's seeded schedule, and the plan's fault
/// windows are merged into the report's trace so exports attribute them.
pub fn simulate_once_faulty(
    plan: &ExecutionPlan,
    topo: &Topology,
    cost: &CostModel,
    params: RpcParams,
    faults: &FaultPlan,
) -> SimReport {
    let mut fabric = Fabric::new(topo, params);
    fabric.apply_fault_plan(faults);
    let mut report = execute(plan, topo, cost, &mut fabric);
    for event in fabric.fault_events() {
        report.trace.push(event.clone());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_cluster::ClusterState;
    use genie_frontend::capture::CaptureCtx;
    use genie_models::{KvState, TransformerConfig, TransformerLm};
    use genie_scheduler::{schedule, RoundRobin, SemanticsAware};
    use genie_srg::ElemType;

    fn decode_plan(policy: &dyn genie_scheduler::Policy) -> (ExecutionPlan, Topology) {
        let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
        let ctx = CaptureCtx::new("decode");
        let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
        cap.logits.sample().mark_output();
        let srg = ctx.finish().srg;
        let topo = Topology::paper_testbed();
        let state = ClusterState::new();
        let cost = CostModel::paper_stack();
        let plan = schedule(&srg, &topo, &state, &cost, policy);
        (plan, topo)
    }

    #[test]
    fn semantics_aware_decode_simulates_sanely() {
        let (plan, topo) = decode_plan(&SemanticsAware::new());
        let cost = CostModel::paper_stack();
        let report = simulate_once(&plan, &topo, &cost, RpcParams::rdma_zero_copy());
        // Weights (~12 GB) dominate the one-time traffic.
        assert!(report.network_bytes > 11_000_000_000);
        assert!(report.makespan_s > 0.0);
        assert!(!report.busy_s.is_empty());
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    }

    #[test]
    fn blind_policy_ships_more_and_takes_longer() {
        let cost = CostModel::paper_stack();
        let (aware_plan, topo) = decode_plan(&SemanticsAware::new());
        let (blind_plan, _) = decode_plan(&RoundRobin);
        let aware = simulate_once(&aware_plan, &topo, &cost, RpcParams::tensorpipe_python());
        let blind = simulate_once(&blind_plan, &topo, &cost, RpcParams::tensorpipe_python());
        // Same single device in the paper testbed, but round-robin still
        // bounces activations through the client.
        assert!(blind.network_bytes >= aware.network_bytes);
        assert!(blind.makespan_s >= aware.makespan_s);
    }

    #[test]
    fn simulation_reports_busy_metrics() {
        let (plan, topo) = decode_plan(&SemanticsAware::new());
        let cost = CostModel::paper_stack();
        let report = simulate_once(&plan, &topo, &cost, RpcParams::rdma_zero_copy());
        let snap = genie_telemetry::global().metrics.snapshot();
        assert!(snap.counter("genie_sim_kernels_total", &[]).unwrap_or(0) > 0);
        // Every busy device reports its simulated busy seconds.
        for dev in report.busy_s.keys() {
            let dev = dev.to_string();
            let busy = snap
                .gauge("genie_sim_device_busy_seconds", &[("device", dev.as_str())])
                .expect("busy gauge");
            assert!(busy > 0.0);
        }
    }

    #[test]
    fn faulty_simulation_is_slower_counted_and_attributed() {
        use genie_netsim::FaultSpec;
        let (plan, topo) = decode_plan(&SemanticsAware::new());
        let cost = CostModel::paper_stack();
        let oracle = simulate_once(&plan, &topo, &cost, RpcParams::rdma_zero_copy());

        let metric = || {
            genie_telemetry::global()
                .metrics
                .snapshot()
                .counter("genie_fault_injected_total", &[])
                .unwrap_or(0)
        };
        let before = metric();
        // Derate the client link to 10%: the 12 GB weight upload slows ~10x.
        let faults = FaultPlan::new(
            3,
            vec![FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.1,
            }],
        );
        let degraded =
            simulate_once_faulty(&plan, &topo, &cost, RpcParams::rdma_zero_copy(), &faults);
        assert!(
            degraded.makespan_s > oracle.makespan_s * 2.0,
            "degraded {} vs oracle {}",
            degraded.makespan_s,
            oracle.makespan_s
        );
        assert_eq!(degraded.network_bytes, oracle.network_bytes);
        assert!(metric() > before, "fault injections counted");
        assert!(
            degraded.trace.events().iter().any(
                |e| matches!(e, TraceEvent::Mark { label, .. } if label.starts_with("fault."))
            ),
            "fault windows attributed in the trace"
        );
        // Same seed, same timeline.
        let again = simulate_once_faulty(&plan, &topo, &cost, RpcParams::rdma_zero_copy(), &faults);
        assert_eq!(again.makespan_s, degraded.makespan_s);
    }

    #[test]
    fn trace_records_kernels_and_transfers() {
        let ctx = CaptureCtx::new("tiny");
        let x = ctx.input("x", [64, 64], ElemType::F32, None);
        let w = ctx.parameter("w", [64, 64], ElemType::F32, None);
        x.matmul(&w).mark_output();
        let srg = ctx.finish().srg;
        let topo = Topology::paper_testbed();
        let cost = CostModel::ideal_25g();
        let state = ClusterState::new();
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        let report = simulate_once(&plan, &topo, &cost, RpcParams::rdma_zero_copy());
        let kernels = report
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
            .count();
        let transfers = report
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transfer { .. }))
            .count();
        assert_eq!(kernels, 1, "one matmul");
        assert!(transfers >= 2, "input + weight upload");
    }
}
