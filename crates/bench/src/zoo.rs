//! Tools over the whole model zoo: the semantic lint report and the
//! Perfetto trace export.

use crate::report::{render_table, Report};
use genie_analysis::{run_srg_passes, LintConfig, LintFamily, Severity};
use genie_backend::simulate_once;
use genie_cluster::{ClusterState, Topology};
use genie_models::Workload;
use genie_netsim::RpcParams;
use genie_scheduler::{schedule, CostModel, SemanticsAware};
use genie_srg::json_object;
use genie_telemetry::{render_top, ChromeTrace};

/// The full semantic lint suite — `GA0xx` graph passes, `GA1xx` plan
/// passes, `GA2xx` schedule-timeline passes, and `GA3xx` precision
/// passes — over every workload family of the model zoo: a per-family
/// summary table plus a machine-readable artifact. Asserts that no graph
/// or plan report carries a deny-level finding.
pub fn lint_report() -> Report {
    let mut r = Report::default();
    r.line("Semantic lint report — GA0xx graph / GA1xx plan / GA2xx schedule / GA3xx precision\n");
    let cfg = LintConfig::new();
    let topo = Topology::rack(4, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::ideal_25g();

    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    let mut denied = Vec::new();
    for w in Workload::ALL {
        let srg = w.spec_graph();
        let graph_report = run_srg_passes(&srg, &cfg);
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        let plan_report = genie_scheduler::lint_plan(&plan, &topo, &state, &cfg);
        let reports = [&graph_report, &plan_report];

        let mut row = vec![
            w.name().to_string(),
            format!("{} nodes / {} edges", srg.node_count(), srg.edge_count()),
        ];
        for fam in LintFamily::ALL {
            // `deny/warn/info` counts for one family, over both reports.
            let count = |sev: Severity| -> usize {
                reports
                    .iter()
                    .flat_map(|r| r.diagnostics.iter())
                    .filter(|d| d.code.family() == fam && d.severity == sev)
                    .count()
            };
            row.push(format!(
                "{} deny / {} warn / {} info",
                count(Severity::Deny),
                count(Severity::Warn),
                count(Severity::Info),
            ));
        }
        denied.extend(
            reports
                .into_iter()
                .filter(|r| r.has_deny())
                .map(|r| r.render()),
        );
        rows.push(row);
        artifacts.push(json_object! {
            "workload": w.name(),
            "nodes": srg.node_count(),
            "edges": srg.edge_count(),
            "graph": graph_report.to_json(),
            "plan": plan_report.to_json(),
        });
    }

    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Workload",
                "Graph size",
                "Graph (GA0xx)",
                "Plan (GA1xx)",
                "Schedule (GA2xx)",
                "Precision (GA3xx)"
            ],
            &rows
        )
    );
    r.artifact("lint_report", artifacts.into());
    assert!(
        denied.is_empty(),
        "every zoo capture and plan must be deny-clean:\n{}",
        denied.concat()
    );
    writeln!(r);
    r.line("every zoo capture and plan is deny-clean.");
    r
}

/// A Chrome-trace / Perfetto JSON timeline for each model-zoo family.
///
/// For each family (`llm`, `cv`, `dlrm`, `vqa`) the report captures the
/// spec graph, schedules it with the semantics-aware policy, simulates
/// the plan on the paper testbed, and converts both the runtime spans
/// (capture, schedule, lint instants) and the simulator's device/link
/// trace into one artifact, `trace_<family>`; `trace_metrics` holds the
/// process's metrics. Load a trace in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Spans carry host-clock timestamps, so this
/// is the one report whose output differs from run to run.
pub fn trace_export() -> Report {
    let mut r = Report::default();
    r.line("Perfetto trace export — semantics-aware scheduling on the paper testbed\n");
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let telemetry = genie_telemetry::global();

    let mut rows = Vec::new();
    for (key, w) in [
        ("llm", Workload::LlmServing),
        ("cv", Workload::ComputerVision),
        ("dlrm", Workload::Recommendation),
        ("vqa", Workload::Multimodal),
    ] {
        // Start each family from a clean span buffer so every exported
        // trace holds exactly one run; metrics stay cumulative.
        telemetry.collector.drain();

        let srg = w.spec_graph();
        let plan = schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        let report = simulate_once(&plan, &topo, &cost, RpcParams::tensorpipe_python());

        let records = telemetry.collector.drain();
        let mut chrome = ChromeTrace::new();
        chrome.push_records(&records, Some(&srg));
        chrome.push_sim_trace(&report.trace, Some(&srg), Some(&plan.label()));

        r.artifact(&format!("trace_{key}"), chrome.to_json());
        rows.push(vec![
            w.name().to_string(),
            srg.node_count().to_string(),
            chrome.events.len().to_string(),
            format!("{:.3}", report.makespan_s * 1e3),
            format!("{:.1}", report.network_bytes as f64 / 1e6),
        ]);
    }

    writeln!(
        r,
        "\n{}",
        render_table(
            &[
                "Workload",
                "SRG nodes",
                "Trace events",
                "Makespan [ms]",
                "Net [MB]"
            ],
            &rows,
        )
    );

    let snapshot = telemetry.metrics.snapshot();
    r.artifact("trace_metrics", snapshot.to_json());
    writeln!(r);
    writeln!(
        r,
        "{}",
        render_top(&snapshot, &telemetry.collector.snapshot())
    );
    r
}
