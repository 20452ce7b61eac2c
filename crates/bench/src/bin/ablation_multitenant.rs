//! Ablation: cross-tenant decode batching (§3.6 "How").
//!
//! Sweeps the number of tenants sharing one public LLM and compares fleet
//! throughput with and without semantic batching, at the price the
//! serving engine charges for the step (`genie_backend::batched_step_time`).
//! Only a scheduler that sees model identity in the request (the SRG's
//! weight fingerprint) can apply it.
//!
//! Run with: `cargo run -p genie-bench --bin ablation_multitenant`

use genie_backend::{batched_step_time, StepWork};
use genie_bench::report::render_table;
use genie_cluster::GpuSpec;
use genie_models::TransformerConfig;

/// Context each tenant's request holds: the paper's 72-token prompt.
const KV_PER_TENANT: u64 = 72;

fn main() {
    let (cfg, gpu) = (TransformerConfig::gptj_6b(), GpuSpec::a100_80gb());
    println!("Ablation — cross-tenant decode batching (GPT-J on an A100, 25 Gbps / 250 µs)\n");
    let mut rows = Vec::new();
    for b in [1u64, 2, 4, 8, 16, 32] {
        let work = StepWork {
            decode_members: b,
            kv_resident_tokens: b * KV_PER_TENANT,
            ..StepWork::default()
        };
        let step_s =
            |batched| batched_step_time(&cfg, &work, &gpu, 25e9, 250e-6, batched).total_s();
        let (serial, batched) = (step_s(false), step_s(true));
        rows.push(vec![
            b.to_string(),
            format!("{:.1}", batched * 1e3),
            format!("{:.1}", b as f64 / serial),
            format!("{:.1}", b as f64 / batched),
            format!("{:.2}x", serial / batched),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Tenants",
                "Batched step [ms]",
                "tok/s serial",
                "tok/s batched",
                "Speedup"
            ],
            &rows
        )
    );
    println!("memory-bound decode reads the 12 GB of weights once per step no matter");
    println!("the batch, and one RPC round covers every member — identifying \"two");
    println!("requests to the same public LLM\" (§3.6) is worth nearly the batch size");
    println!("in fleet decode throughput until KV reads catch up with the weights.");
}
