//! Regenerates Table 2: end-to-end latency, network traffic, and
//! effective GPU utilization for the four execution modes, prefill and
//! decode phases.
//!
//! Run with: `cargo run -p genie-bench --bin table2`

use genie_bench::report::{fmt_mb, fmt_pct, fmt_secs, render_table, write_artifact};
use genie_bench::{table2, Calibration, LlmWorkload};

fn main() {
    let w = LlmWorkload::paper();
    let cal = Calibration::paper();
    let rows = table2(&w, &cal);

    println!(
        "Table 2 — GPT-J ({:.1} GB fp16) on A100-80GB over 25 GbE,",
        w.weight_bytes() / 1e9
    );
    println!(
        "{}-token prompt + {}-token decode; TensorPipe-calibrated transport\n",
        w.prompt_tokens, w.decode_tokens
    );

    for (phase, pick) in [
        ("Prefill (72-token prompt)", 0usize),
        ("Decode (50 tokens)", 1usize),
    ] {
        println!("{phase}");
        let paper: [[&str; 3]; 4] = if pick == 0 {
            [
                ["0.21", "0.0", "100.0"],
                ["216", "149,258", "0.1"],
                ["110", "4.31", "0.2"],
                ["111", "5.56", "0.2"],
            ]
        } else {
            [
                ["1.53", "0.0", "99.1"],
                ["783", "95,438", "0.3"],
                ["131", "52.3", "1.5"],
                ["116", "11.3", "1.8"],
            ]
        };
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .zip(paper)
            .map(|(r, p)| {
                let m = if pick == 0 { r.prefill } else { r.decode };
                vec![
                    r.mode.label().to_string(),
                    fmt_secs(m.latency_s),
                    fmt_mb(m.net_mb),
                    fmt_pct(m.gpu_util_pct),
                    m.rpc_calls.to_string(),
                    format!("{} / {} / {}", p[0], p[1], p[2]),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Mode",
                    "Latency [s]",
                    "Net [MB]",
                    "GPU Util [%]",
                    "RPCs",
                    "(paper: s / MB / %)",
                ],
                &table_rows,
            )
        );
    }

    let artifact: Vec<_> = rows.iter().map(|r| r.to_json()).collect();
    let path = write_artifact("table2", &artifact.into()).expect("artifact written");
    println!("artifact: {}\n", path.display());

    let naive = &rows[1];
    let sa = &rows[3];
    println!("traffic reduction, semantics-aware vs naive:");
    println!(
        "  prefill {:>9.0}x   decode {:>7.0}x   (paper: >26,000x and >8,400x)",
        naive.prefill.net_mb / sa.prefill.net_mb,
        naive.decode.net_mb / sa.decode.net_mb
    );
}
