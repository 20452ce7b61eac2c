//! Integration: cross-layer telemetry — the Perfetto/Chrome trace export
//! over a zoo model, and the metric surface the run leaves behind.

use genie::backend::{simulate_once, simulate_once_faulty};
use genie::models::Workload;
use genie::netsim::{FaultPlan, FaultSpec, Nanos, RpcParams};
use genie::prelude::*;
use genie::srg::json;
use genie::telemetry::ChromeTrace;

/// Golden-shape test: a scheduled + simulated zoo run exports a
/// Chrome-trace JSON document where every kernel slice carries SRG-node
/// and phase attribution and the device/link tracks are named.
#[test]
fn trace_export_attributes_every_kernel() {
    let w = Workload::ComputerVision;
    let srg = w.spec_graph();
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let plan = genie::scheduler::schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
    let report = simulate_once(&plan, &topo, &cost, RpcParams::tensorpipe_python());

    let mut chrome = ChromeTrace::new();
    chrome.push_sim_trace(&report.trace, Some(&srg), Some(&plan.label()));
    let doc = json::parse(&chrome.to_json_string()).unwrap();

    let events = doc["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty(), "trace document must hold events");

    let kernels: Vec<&json::Value> = events
        .iter()
        .filter(|e| e["cat"].as_str() == Some("sim.kernel"))
        .collect();
    assert!(!kernels.is_empty(), "simulated run must emit kernel slices");
    for k in &kernels {
        assert_eq!(
            k["ph"].as_str(),
            Some("X"),
            "kernel events are complete slices"
        );
        assert!(k["dur"].as_f64().unwrap() >= 0.0);
        assert!(
            k["args"]["node"].as_u64().is_some(),
            "kernel slice missing SRG node attribution: {k}"
        );
        assert!(
            k["args"]["phase"].as_str().is_some(),
            "kernel slice missing phase attribution: {k}"
        );
        assert_eq!(k["args"]["plan"].as_str(), Some(plan.label().as_str()));
    }

    // Track naming metadata: a process-name record per simulated pid.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("process_name"))
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(names.iter().any(|n| n.contains("devices")));
    assert!(names.iter().any(|n| n.contains("links")));
}

/// Golden-shape test for injected faults: a run under a fault plan
/// exports its fault windows as instant events in their own `sim.fault`
/// category, at the window's exact simulated timestamps, so Perfetto
/// shows when and why the fabric was degraded.
#[test]
fn trace_export_attributes_fault_windows() {
    let srg = Workload::ComputerVision.spec_graph();
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let plan = genie::scheduler::schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
    let faults = FaultPlan::new(
        11,
        vec![
            FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.5,
            },
            FaultSpec::LinkDown {
                a: 0,
                b: 1,
                from: Nanos::from_millis(2),
                until: Nanos::from_millis(5),
            },
        ],
    );
    let report = simulate_once_faulty(&plan, &topo, &cost, RpcParams::tensorpipe_python(), &faults);

    let mut chrome = ChromeTrace::new();
    chrome.push_sim_trace(&report.trace, Some(&srg), Some(&plan.label()));
    let doc = json::parse(&chrome.to_json_string()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();

    let fault_events: Vec<&json::Value> = events
        .iter()
        .filter(|e| e["cat"].as_str() == Some("sim.fault"))
        .collect();
    assert_eq!(
        fault_events.len(),
        3,
        "derate mark + link-down begin/end: {fault_events:?}"
    );
    for f in &fault_events {
        assert_eq!(
            f["ph"].as_str(),
            Some("i"),
            "fault windows export as instants"
        );
        let name = f["name"].as_str().unwrap();
        assert!(name.starts_with("fault."), "attributed label: {name}");
    }
    // The window's endpoints land at their exact simulated microseconds.
    let ts_of = |needle: &str| {
        fault_events
            .iter()
            .find(|f| f["name"].as_str().unwrap().contains(needle))
            .unwrap_or_else(|| panic!("no fault event containing {needle}"))["ts"]
            .as_f64()
            .unwrap()
    };
    assert_eq!(ts_of("link_down") /* begin */, 2_000.0);
    assert_eq!(ts_of("end"), 5_000.0);
    // Ordinary marks stay out of the fault category.
    assert!(events
        .iter()
        .filter(|e| e["cat"].as_str() == Some("sim.mark"))
        .all(|e| !e["name"].as_str().unwrap_or("").starts_with("fault.")));
}

/// Runtime spans recorded during capture/scheduling surface in the same
/// exported document, and the metrics registry reports the per-device
/// busy gauge after a simulation.
#[test]
fn runtime_spans_and_busy_metrics_surface() {
    let w = Workload::LlmServing;
    let srg = w.spec_graph();
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let plan = genie::scheduler::schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
    let _report = simulate_once(&plan, &topo, &cost, RpcParams::rdma_zero_copy());

    let telemetry = genie::telemetry::global();
    let records = telemetry.collector.snapshot();
    let mut chrome = ChromeTrace::new();
    chrome.push_records(&records, Some(&srg));
    let doc = json::parse(&chrome.to_json_string()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e["name"].as_str() == Some("schedule")
                && e["cat"].as_str() == Some("scheduler")),
        "scheduling span must appear on the runtime track"
    );
    assert!(
        events
            .iter()
            .any(|e| e["name"].as_str() == Some("sim.execute")
                && e["cat"].as_str() == Some("backend")),
        "simulation span must appear on the runtime track"
    );

    let snap = telemetry.metrics.snapshot();
    let prom = snap.render_prometheus();
    assert!(prom.contains("genie_sim_device_busy_seconds"));
}

/// Golden-shape test for the serving runtime: a pinned-seed serving run
/// exports a stable `serving.step` span track on the simulated-device
/// rows, and its `genie_serving_*` metrics surface in the Prometheus
/// rendering with the expected histogram shape.
#[test]
fn serving_run_exports_spans_and_metrics() {
    use genie::models::TransformerConfig;
    use genie::serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel};

    let model = TransformerConfig::gptj_6b();
    let requests = ArrivalConfig {
        seed: 7,
        rate_per_s: 4.0,
        horizon: Nanos::from_secs_f64(2.0),
        prompt_len: (16, 32),
        decode_tokens: (8, 16),
        vocab: model.vocab,
        tenants: 2,
    }
    .generate();
    let conf = ServingConfig::paper_testbed();
    let run =
        || ServingLoop::new(ServingModel::Spec(model.clone()), conf.clone()).run_audited(&requests);
    let a = run();
    let b = run();
    assert!(a.completed() > 0, "pinned seed must complete requests");

    // Stable shape: the same seed renders byte-identical trace documents
    // (the report carries its own deterministic span ids, so the export
    // is independent of whatever else the process-global collector saw).
    let doc_of = |r: &genie::serving::ServingReport| {
        let mut chrome = ChromeTrace::new();
        chrome.push_records(&r.spans(), None);
        chrome.to_json_string()
    };
    assert_eq!(
        doc_of(&a),
        doc_of(&b),
        "serving trace export must be stable"
    );

    let doc = json::parse(&doc_of(&a)).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let steps: Vec<&json::Value> = events
        .iter()
        .filter(|e| e["cat"].as_str() == Some("serving"))
        .collect();
    assert_eq!(
        steps.len() as u64,
        a.steps,
        "one serving.step slice per engine step"
    );
    for s in &steps {
        assert_eq!(s["name"].as_str(), Some("serving.step"));
        assert_eq!(s["ph"].as_str(), Some("X"), "steps are complete slices");
        assert_eq!(
            s["pid"].as_u64(),
            Some(2),
            "serving steps ride the simulated-device rows"
        );
        assert!(
            s["args"]["members"].as_str().is_some(),
            "batch size attributed: {s}"
        );
        assert_eq!(s["args"]["phase"].as_str(), Some("llm_decode"));
    }

    // Metrics surface: TTFT histogram with the default time bounds, plus
    // request/token counters.
    let snap = genie::telemetry::global().metrics.snapshot();
    let prom = snap.render_prometheus();
    assert!(prom.contains("genie_serving_ttft_seconds_bucket"));
    assert!(prom.contains("genie_serving_ttft_seconds_count"));
    assert!(prom.contains("genie_serving_tokens_total"));
    assert!(prom.contains("genie_serving_requests_total"));
    let hist = snap
        .histogram("genie_serving_ttft_seconds", &[])
        .expect("serving TTFT histogram registered");
    assert!(
        hist.count >= 2 * a.completed() as u64,
        "both pinned runs observed a TTFT per completion"
    );
}
