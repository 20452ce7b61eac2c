//! Recommendation serving: sparse embedding tiering (§3.3, Table 1).
//!
//! The DLRM graph mixes tens of GB of cold embedding tables with a small
//! hot MLP. The recognizer tags tables as `EmbeddingTable`; the
//! semantics-aware policy tiers them onto the device with the most free
//! memory while the dense interaction rides the fastest compute.
//!
//! Run with: `cargo run --example recommendation`

use genie::models::{Dlrm, DlrmConfig};
use genie::prelude::*;

fn main() {
    // Functional prediction on the tiny config.
    let cfg = DlrmConfig::tiny();
    let model = Dlrm::new_functional(cfg.clone(), 3);
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|t| {
            (0..cfg.lookups_per_table)
                .map(|i| ((t * 13 + i * 7) % cfg.rows_per_table) as i64)
                .collect()
        })
        .collect();
    let score = model.predict(&ids, genie::tensor::init::randn([1, cfg.dense_features], 5));
    println!("click probability: {score:.4}");

    // Production-scale spec capture.
    let cfg = DlrmConfig::production_like();
    println!(
        "\nproduction DLRM: {} tables × {} rows × {} dims = {:.1} GB sparse",
        cfg.tables,
        cfg.rows_per_table,
        cfg.embedding_dim,
        cfg.table_bytes() as f64 / 1e9
    );
    let model = Dlrm::new_spec(cfg.clone());
    let ctx = CaptureCtx::new("dlrm.infer");
    let id_lists: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|_| vec![0; cfg.lookups_per_table])
        .collect();
    model.capture_inference(&ctx, &id_lists, None).mark_output();
    let mut srg = ctx.finish().srg;
    genie::frontend::patterns::run_all(&mut srg);

    let tables = srg
        .nodes()
        .filter(|n| n.residency == Residency::EmbeddingTable)
        .count();
    println!("recognizer classified {tables} embedding tables for tiering");

    // Schedule over a heterogeneous fleet: tables should tier onto the
    // roomy device, dense compute onto the fast one.
    let topo = Topology::heterogeneous_fleet(1, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();
    let plan = genie::scheduler::schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
    println!("\n{}", plan.summary());

    let mut per_phase: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        Default::default();
    for (n, loc) in plan.srg.nodes().zip(&plan.placements) {
        if n.phase != Phase::Unknown {
            per_phase
                .entry(n.phase.label().to_string())
                .or_default()
                .insert(loc.to_string());
        }
    }
    for (phase, devs) in per_phase {
        println!("  phase {phase:<18} → {devs:?}");
    }
}
