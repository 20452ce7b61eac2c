//! Ablation: lineage recovery vs full restart (§3.5).
//!
//! A GPT-J session decodes 200 tokens after a 72-token prompt and loses
//! its KV after `k` of them. Restart redoes the prompt's prefill and the
//! `k − 1` decode steps that produced the lost tokens. Lineage rebuilds
//! the same KV the way the serving engine's re-prefill does: one prefill
//! over prompt + generated prefix − 1. Both sides are priced at the step
//! price the engine charges (`genie_backend::batched_step_time`) on an
//! A100 behind the 25 Gbps / 250 µs link. The bin asserts that lineage
//! is cheaper at every `k` and that the saving grows with `k`.
//!
//! Run with: `cargo run -p genie-bench --bin ablation_lineage`

use genie_backend::{batched_step_time, StepWork};
use genie_bench::report::render_table;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;

/// The paper's prompt length.
const PROMPT: u64 = 72;
/// Tokens the session decodes.
const DECODE: u64 = 200;

fn main() {
    let (cfg, gpu, link) = (
        TransformerConfig::gptj_6b(),
        GpuSpec::a100_80gb(),
        Link::PAPER_TESTBED,
    );
    let step_s = |work: StepWork| {
        batched_step_time(&cfg, &work, &gpu, link.bandwidth_bps, link.latency_s, true).total_s()
    };
    let prefill_s = |tokens: u64| {
        step_s(StepWork {
            prefill_members: 1,
            prefill_tokens: tokens,
            ..StepWork::default()
        })
    };
    // The decode step that samples token `i + 1` reads the KV of the
    // prompt and of tokens 1..i−1 (token i is its input).
    let decode_s = |i: u64| {
        step_s(StepWork {
            decode_members: 1,
            kv_resident_tokens: PROMPT + i - 1,
            ..StepWork::default()
        })
    };

    println!("Ablation — lineage recovery vs restart (GPT-J on an A100, 25 Gbps / 250 µs)\n");
    println!("The KV is lost after k of 200 decoded tokens. Restart redoes the prefill");
    println!("and the k − 1 decode steps; lineage re-prefills prompt + k − 1 tokens once.\n");

    let mut rows = Vec::new();
    let (mut restart, mut last_saving) = (prefill_s(PROMPT), 1.0);
    for k in 2..=DECODE {
        restart += decode_s(k - 1);
        let lineage = prefill_s(PROMPT + k - 1);
        let saving = restart / lineage;
        assert!(
            lineage < restart,
            "k = {k}: lineage {lineage} s ≥ restart {restart} s"
        );
        assert!(
            saving > last_saving,
            "k = {k}: saving {saving} ≤ {last_saving}"
        );
        last_saving = saving;
        if [10, 50, 100, 150, 200].contains(&k) {
            rows.push(vec![
                k.to_string(),
                format!("{:.1}", restart * 1e3),
                format!("{:.1}", lineage * 1e3),
                format!("{saving:.1}x"),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Lost after k",
                "Restart redo [ms]",
                "Lineage re-prefill [ms]",
                "Saving"
            ],
            &rows
        )
    );
    println!("decode is weight-stream bound, so each redone step costs about as much");
    println!("as the whole re-prefill: lost KV rebuilds as one parallel prefill-shaped");
    println!("pass instead of a sequential re-decode — \"recovery of long-running decode");
    println!("loops without restarting prefill\" (§3.5).");
}
