//! Semantics-aware global scheduling across tenants (§3.6).
//!
//! Six tenants with different workload classes submit their semantic
//! graphs to the fleet scheduler, which answers the paper's three
//! questions: *where* (heterogeneous placement by roofline affinity),
//! *when* (phase-aware elastic scaling), and *how* (cross-tenant decode
//! batching for tenants sharing a public model).
//!
//! Run with: `cargo run --example multi_tenant`

use genie::backend::{batched_step_time, StepWork};
use genie::cluster::GpuSpec;
use genie::models::{TransformerConfig, Workload};
use genie::prelude::*;
use genie::scheduler::global::elastic;
use genie::scheduler::global::tenant::{Slo, TenantRequest};
use genie::scheduler::global::GlobalScheduler;

fn main() {
    let topo = Topology::heterogeneous_fleet(2, 25e9);
    println!("fleet:");
    for d in topo.devices() {
        println!("  {}: {} ({:?})", d.id, d.spec.name, d.spec.class);
    }

    let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
    let tenants = [
        (1, Workload::LlmServing, 1001, "chatbot-a"),
        (2, Workload::LlmServing, 1001, "chatbot-b (same model)"),
        (3, Workload::LlmServing, 2002, "code-assistant"),
        (4, Workload::ComputerVision, 3003, "photo-tagger"),
        (5, Workload::Recommendation, 4004, "feed-ranker"),
        (6, Workload::Multimodal, 5005, "vqa-service"),
    ];
    for (id, w, fp, name) in &tenants {
        sched.admit(TenantRequest {
            id: *id,
            name: name.to_string(),
            srg: w.spec_graph(),
            slo: Slo::Interactive,
            model_fingerprint: *fp,
        });
    }

    let fleet = sched.plan_round();

    println!("\nWHERE — heterogeneous placement (admission on the plan's lint verdict):");
    for (id, _, _, name) in &tenants {
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

    println!("\nHOW — cross-tenant decode batching:");
    let (cfg, gpu) = (TransformerConfig::gptj_6b(), GpuSpec::a100_80gb());
    for group in &fleet.batch_groups {
        if group.tenants.len() > 1 {
            // The engine's price of one decode step over 72-token
            // contexts, each tenant on its own against all in one batch.
            let members = group.tenants.len() as u64;
            let work = StepWork {
                decode_members: members,
                kv_resident_tokens: members * 72,
                ..StepWork::default()
            };
            let step_s =
                |batched| batched_step_time(&cfg, &work, &gpu, 25e9, 250e-6, batched).total_s();
            println!(
                "  model {:>5}: tenants {:?} batch together → {:.2}× decode throughput",
                group.fingerprint,
                group.tenants,
                step_s(false) / step_s(true)
            );
        }
    }

    println!("\nWHEN — phase-aware elastic scaling (8 s prefill burst, 100 s decode):");
    let prefill_devs = elastic::recommend_devices(&Phase::LlmPrefill, 8.0, 1.0, 8);
    let decode_devs = elastic::recommend_devices(&Phase::LlmDecode, 100.0, 1.0, 8);
    let (elastic_cost, static_cost) = elastic::elasticity_savings(8.0, 100.0, 1.0, 8);
    println!("  prefill: scale out to {prefill_devs} devices");
    println!("  decode:  scale back to {decode_devs} device");
    println!(
        "  device-seconds: elastic {elastic_cost:.0} vs static-peak {static_cost:.0} ({:.1}× saved)",
        static_cost / elastic_cost
    );
}
