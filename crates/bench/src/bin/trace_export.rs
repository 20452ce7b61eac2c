//! Exports a Chrome-trace / Perfetto JSON timeline for model-zoo runs.
//!
//! For each requested workload family the tool captures the spec graph,
//! schedules it with the semantics-aware policy, simulates the plan on
//! the paper testbed, and converts both the runtime spans (capture,
//! schedule, lint instants) and the simulator's device/link trace into
//! one Chrome-trace JSON file per family under `target/experiments/`.
//! Load the file in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run -p genie-bench --bin trace_export -- llm`
//! Families: `llm`, `cv`, `dlrm`, `vqa`, or `all` (default).

use genie_backend::simulate_once;
use genie_bench::report::{render_table, write_artifact};
use genie_cluster::{ClusterState, Topology};
use genie_models::Workload;
use genie_netsim::RpcParams;
use genie_scheduler::{schedule, CostModel, SemanticsAware};
use genie_telemetry::{render_top, ChromeTrace};

fn family(arg: &str) -> Option<(&'static str, Workload)> {
    match arg {
        "llm" => Some(("llm", Workload::LlmServing)),
        "cv" => Some(("cv", Workload::ComputerVision)),
        "dlrm" => Some(("dlrm", Workload::Recommendation)),
        "vqa" => Some(("vqa", Workload::Multimodal)),
        _ => None,
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<(&'static str, Workload)> = if arg == "all" {
        vec![
            ("llm", Workload::LlmServing),
            ("cv", Workload::ComputerVision),
            ("dlrm", Workload::Recommendation),
            ("vqa", Workload::Multimodal),
        ]
    } else {
        match family(&arg) {
            Some(pair) => vec![pair],
            None => {
                eprintln!("unknown family '{arg}': expected llm | cv | dlrm | vqa | all");
                std::process::exit(2);
            }
        }
    };

    println!("Perfetto trace export — semantics-aware scheduling on the paper testbed\n");
    let topo = Topology::paper_testbed();
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let telemetry = genie_telemetry::global();

    let mut rows = Vec::new();
    for (key, w) in &selected {
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

        let name = format!("trace_{key}");
        let path = write_artifact(&name, &chrome.to_json()).expect("artifact written");
        println!("{key:>5}: {}", path.display());
        rows.push(vec![
            w.name().to_string(),
            srg.node_count().to_string(),
            chrome.events.len().to_string(),
            format!("{:.3}", report.makespan_s * 1e3),
            format!("{:.1}", report.network_bytes as f64 / 1e6),
        ]);
    }

    println!(
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
    let path = write_artifact("trace_metrics", &snapshot.to_json()).expect("artifact written");
    println!("metrics artifact: {}\n", path.display());
    println!("{}", render_top(&snapshot, &telemetry.collector.snapshot()));
}
