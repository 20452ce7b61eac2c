//! Ablation: dynamic recomputation under congestion (§3.3).
//!
//! Sweeps background congestion and reports when fetching a cheap
//! intermediate across the wire loses to recomputing it at the consumer.
//!
//! Run with: `cargo run -p genie-bench --bin ablation_recompute`

use genie_bench::report::render_table;
use genie_cluster::GpuSpec;
use genie_scheduler::CostModel;
use genie_srg::{CostHints, Node, NodeId, OpKind};

fn main() {
    let cost = CostModel::ideal_25g();
    let gpu = GpuSpec::a100_80gb();

    // A cheap elementwise intermediate: 100 MFLOP producing 64 MB.
    let producer = Node::new(NodeId::new(0), OpKind::Gelu, "activation")
        .with_cost(CostHints::new(100e6, 64e6, 64e6));
    let bytes = 64e6;

    println!("Ablation — dynamic recomputation (64 MB intermediate, 100 MFLOP)\n");
    let mut rows = Vec::new();
    for congestion in [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99] {
        let advantage = cost.recompute_advantage(&producer, bytes, &gpu, congestion);
        let recompute_s = cost.kernel_time(&producer, &gpu);
        let fetch_s = advantage + recompute_s;
        rows.push(vec![
            format!("{:.0}%", congestion * 100.0),
            format!("{:.2}", fetch_s * 1e3),
            format!("{:.3}", recompute_s * 1e3),
            if advantage > 0.0 {
                "recompute"
            } else {
                "fetch"
            }
            .to_string(),
            format!("{:+.2}", advantage * 1e3),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Congestion",
                "Fetch [ms]",
                "Recompute [ms]",
                "Decision",
                "Saved [ms]"
            ],
            &rows
        )
    );
    println!("recomputation always wins for this tensor: moving 64 MB costs more than");
    println!("0.3 ms of GELU even on an idle link — and the gap widens 100× under");
    println!("congestion. The scheduler flips per-edge using live RTT hints (§3.3).");
}
