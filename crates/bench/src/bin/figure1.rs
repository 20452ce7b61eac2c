//! Figure-1 analog: quantifies the semantic translation gap by counting
//! the semantic facts recoverable at each interposition level.
//!
//! Run with: `cargo run -p genie-bench --bin figure1`

use genie_bench::report::{render_table, write_artifact};
use genie_bench::stack_levels::semantic_visibility;

fn main() {
    println!("Figure 1 analog — semantic facts visible at each stack level");
    println!("(what is \"lost in translation\" as computation descends)\n");
    let visibility = semantic_visibility();
    let artifact: Vec<_> = visibility.iter().map(|r| r.to_json()).collect();
    let rows: Vec<Vec<String>> = visibility
        .into_iter()
        .map(|r| {
            vec![
                r.workload,
                r.level.to_string(),
                r.op_kinds.to_string(),
                r.phases.to_string(),
                r.residencies.to_string(),
                r.modalities.to_string(),
                r.structure.to_string(),
                r.total.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Workload",
                "Level",
                "Ops",
                "Phases",
                "Residency",
                "Modality",
                "Structure",
                "Total"
            ],
            &rows
        )
    );
    let path = write_artifact("figure1", &artifact.into()).expect("artifact written");
    println!("artifact: {}\n", path.display());
    println!("PCIe sees DMA bursts (0 facts); the driver sees kernel names only;");
    println!("the framework layer sees everything the scheduler needs.");
}
