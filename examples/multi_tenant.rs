//! Semantics-aware global scheduling across tenants (§3.6's *where*).
//!
//! Six tenants with different workload classes submit their semantic
//! graphs to the fleet scheduler, which places each by roofline
//! affinity on heterogeneous hardware and refuses a tenant whose plan
//! overcommits a device (GA101). §3.6's other two questions are the
//! serving engine's: *when* is `DisaggConfig`'s phase-sized
//! prefill/decode pools (`cargo run --release -p genie-bench --
//! bench_disagg`), *how* is cross-tenant batching in a lane priced by
//! `batched_step_time` (`… -- ablation_multitenant`).
//!
//! Run with: `cargo run --example multi_tenant`

use genie::models::Workload;
use genie::netsim::Nanos;
use genie::prelude::*;
use genie::scheduler::global::tenant::TenantRequest;
use genie::scheduler::global::{FleetEvent, GlobalScheduler};

fn main() {
    let topo = Topology::heterogeneous_fleet(2, 25e9);
    println!("fleet:");
    for d in topo.devices() {
        println!("  {}: {} ({:?})", d.id, d.spec.name, d.spec.class);
    }

    let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
    let tenants = [
        (1, Workload::LlmServing, "chatbot-a"),
        (2, Workload::LlmServing, "chatbot-b (same model)"),
        (3, Workload::LlmServing, "code-assistant"),
        (4, Workload::ComputerVision, "photo-tagger"),
        (5, Workload::Recommendation, "feed-ranker"),
        (6, Workload::Multimodal, "vqa-service"),
    ];
    let events = tenants
        .iter()
        .map(|&(id, w, _)| {
            let srg = w.spec_graph();
            FleetEvent::Admit(TenantRequest { id, srg })
        })
        .collect();
    let fleet = sched.step(Nanos::ZERO, events);

    println!("\nWHERE — heterogeneous placement (admission on the plan's lint verdict):");
    for (id, _, name) in &tenants {
        match fleet.assignments.get(id) {
            Some(devs) => {
                let classes: std::collections::BTreeSet<_> = devs
                    .iter()
                    .map(|d| format!("{:?}", topo.device(*d).spec.class))
                    .collect();
                println!("  {name:<26} → {devs:?} {classes:?}");
            }
            None => println!("  {name:<26} → REJECTED: {}", fleet.rejected[id][0]),
        }
    }
}
