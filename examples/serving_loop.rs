//! The continuous-batching serving runtime end to end (§3.6's loop).
//!
//! An LLM tenant is admitted through the global scheduler (memory
//! admission control decides its lanes and KV budget), then a seeded
//! open-loop trace drives the serving engine twice — continuous batching
//! on and off — to show where the throughput of disaggregated LLM
//! serving actually comes from: amortizing the ~12 GB weight read of a
//! memory-bound decode step across the whole batch.
//!
//! Run with: `cargo run --example serving_loop`

use genie::models::{TransformerConfig, Workload};
use genie::netsim::Nanos;
use genie::prelude::*;
use genie::scheduler::global::tenant::TenantRequest;
use genie::scheduler::global::GlobalScheduler;
use genie::serving::{bind_tenant, ShedReason};
use genie::srg::shard::ShardSpec;

fn main() {
    // 1. Fleet admission: where may this tenant's serving loop live?
    let topo = Topology::heterogeneous_fleet(1, 25e9);
    let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
    let model = TransformerConfig::gptj_6b();
    let tenant = TenantRequest {
        id: 1,
        srg: Workload::LlmServing.spec_graph(),
    };
    let single = ShardSpec::single();
    let binding = bind_tenant(&mut sched, &topo, &model, tenant, single, Nanos::ZERO);
    let requests = ArrivalConfig {
        seed: 42,
        rate_per_s: 8.0,
        horizon: Nanos::from_secs_f64(4.0),
        prompt_len: (16, 48),
        decode_tokens: (32, 64),
        vocab: model.vocab,
        tenants: 2,
    }
    .generate();
    if !binding.admitted {
        // A refused tenant sheds its whole trace with a typed reason.
        let shed =
            genie::serving::ServingReport::all_shed(&requests, ShedReason::AdmissionRejected);
        println!("tenant refused by admission control: {} shed", shed.shed());
        return;
    }
    println!(
        "admitted onto {:?}: {} lane(s), {:.1} GB KV budget each",
        binding.devices,
        binding.lanes,
        binding.kv_capacity_bytes as f64 / 1e9
    );

    // 2. Serve the same offered load with and without batched decode,
    // on the device and behind the client link the topology states.
    let device = topo.device(binding.devices[0]);
    let client = topo.link_between(topo.client_host(), device.host);
    let client = *client.expect("the fleet links the client to every host");
    println!(
        "\noffered load: {} requests over {:.0} s (seed 42)",
        requests.len(),
        4.0
    );
    for batched in [true, false] {
        let config = ServingConfig {
            lanes: binding.lanes,
            max_batch: 8,
            batched,
            kv_capacity_bytes: binding.kv_capacity_bytes,
            queue_budget: Nanos::from_secs_f64(2.0),
            max_queue: 256,
            gpu: device.spec.clone(),
            client,
            fault_plan: None,
            record_telemetry: false,
            disagg: None,
            shard: None,
        };
        let report = ServingLoop::new(ServingModel::Spec(model.clone()), config).run(&requests);
        println!(
            "  {:<9}: {}/{} completed, shed {:>4.1}%, ttft p50 {:>6.1} ms p99 {:>6.1} ms, {:>5.0} tok/s",
            if batched { "batched" } else { "unbatched" },
            report.completed(),
            requests.len(),
            report.shed_rate() * 100.0,
            report.ttft_p50() * 1e3,
            report.ttft_p99() * 1e3,
            report.tokens_per_s()
        );
    }
    println!(
        "\nthe gap is the weight read: one ~12 GB sweep per batched step, one per member otherwise"
    );
}
