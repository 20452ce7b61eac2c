//! Runs the full semantic lint suite — `GA0xx` graph passes, `GA1xx`
//! plan passes, `GA2xx` schedule-timeline passes, and `GA3xx` precision
//! passes — over every workload family of the model zoo and emits a
//! per-family summary table plus a machine-readable artifact. Exits
//! non-zero when any graph or plan report carries a deny-level finding.
//!
//! Run with: `cargo run -p genie-bench --bin lint_report`

use genie_analysis::{run_srg_passes, LintConfig, LintFamily, Report, Severity};
use genie_bench::report::{render_table, write_artifact};
use genie_cluster::{ClusterState, Topology};
use genie_models::Workload;
use genie_scheduler::{schedule, CostModel, SemanticsAware};
use genie_srg::json_object;

fn main() {
    println!(
        "Semantic lint report — GA0xx graph / GA1xx plan / GA2xx schedule / GA3xx precision\n"
    );
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

        let mut row = vec![
            w.name().to_string(),
            format!("{} nodes / {} edges", srg.node_count(), srg.edge_count()),
        ];
        for fam in LintFamily::ALL {
            row.push(family_summary(fam, &[&graph_report, &plan_report]));
        }
        denied.extend(
            [&graph_report, &plan_report]
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

    println!(
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
    let path = write_artifact("lint_report", &artifacts.into()).expect("artifact written");
    println!("artifact: {}\n", path.display());
    if !denied.is_empty() {
        eprintln!(
            "every zoo capture and plan must be deny-clean:\n{}",
            denied.concat()
        );
        std::process::exit(1);
    }
    println!("every zoo capture and plan is deny-clean.");
}

/// `deny/warn/info` counts for one family, summed over `reports`.
fn family_summary(fam: LintFamily, reports: &[&Report]) -> String {
    let count = |sev: Severity| -> usize {
        reports
            .iter()
            .flat_map(|r| r.diagnostics.iter())
            .filter(|d| d.code.family() == fam && d.severity == sev)
            .count()
    };
    format!(
        "{} deny / {} warn / {} info",
        count(Severity::Deny),
        count(Severity::Warn),
        count(Severity::Info),
    )
}
