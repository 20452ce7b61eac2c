//! The paper's evaluation: Tables 1–3 and Figure 1.

use crate::characterize;
use crate::modes;
use crate::report::{fmt_mb, fmt_pct, fmt_secs, render_table, Report};
use crate::stack_levels::semantic_visibility;
use crate::{Calibration, LlmWorkload};
use genie_srg::json::Value;

/// Table 1: semantic characteristics of the four workload families,
/// derived mechanically from their captured SRGs.
pub fn table1() -> Report {
    let mut r = Report::default();
    r.line("Table 1 — workload characteristics recovered from captured SRGs\n");
    let table = characterize::table1();
    let artifact: Vec<_> = table.iter().map(|row| row.to_json()).collect();
    let rows: Vec<Vec<String>> = table
        .into_iter()
        .map(|row| {
            vec![
                row.workload,
                row.computation_pattern,
                row.memory_access,
                row.key_optimization,
                format!("{} nodes, phases: {}", row.nodes, row.phases.join("+")),
            ]
        })
        .collect();
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Workload",
                "Computation Pattern",
                "Memory Access",
                "Key Optimization",
                "Evidence (from graph)"
            ],
            &rows
        )
    );
    r.artifact("table1", artifact.into());
    writeln!(r);
    r.line("paper's rows: sequential-phased / layer-parallel / sparse+dense / cross-modal;");
    r.line("all four recovered from graph statistics alone (no per-model logic).");
    r
}

/// Figure-1 analog: quantifies the semantic translation gap by counting
/// the semantic facts recoverable at each interposition level.
pub fn figure1() -> Report {
    let mut r = Report::default();
    r.line("Figure 1 analog — semantic facts visible at each stack level");
    r.line("(what is \"lost in translation\" as computation descends)\n");
    let visibility = semantic_visibility();
    let artifact: Vec<_> = visibility.iter().map(|row| row.to_json()).collect();
    let rows: Vec<Vec<String>> = visibility
        .into_iter()
        .map(|row| {
            vec![
                row.workload,
                row.level.to_string(),
                row.op_kinds.to_string(),
                row.phases.to_string(),
                row.residencies.to_string(),
                row.modalities.to_string(),
                row.structure.to_string(),
                row.total.to_string(),
            ]
        })
        .collect();
    writeln!(
        r,
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
    r.artifact("figure1", artifact.into());
    writeln!(r);
    r.line("PCIe sees DMA bursts (0 facts); the driver sees kernel names only;");
    r.line("the framework layer sees everything the scheduler needs.");
    r
}

/// Table 2: end-to-end latency, network traffic, and effective GPU
/// utilization for the four execution modes, prefill and decode phases.
pub fn table2() -> Report {
    let mut r = Report::default();
    let w = LlmWorkload::paper();
    let rows = modes::table2(&w, &Calibration::paper());

    writeln!(
        r,
        "Table 2 — GPT-J ({:.1} GB fp16) on A100-80GB over 25 GbE,",
        w.weight_bytes() / 1e9
    );
    writeln!(
        r,
        "{}-token prompt + {}-token decode; TensorPipe-calibrated transport\n",
        w.prompt_tokens, w.decode_tokens
    );

    for (phase, pick) in [
        ("Prefill (72-token prompt)", 0usize),
        ("Decode (50 tokens)", 1usize),
    ] {
        writeln!(r, "{phase}");
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
            .map(|(row, p)| {
                let m = if pick == 0 { row.prefill } else { row.decode };
                vec![
                    row.mode.label().to_string(),
                    fmt_secs(m.latency_s),
                    fmt_mb(m.net_mb),
                    fmt_pct(m.gpu_util_pct),
                    m.rpc_calls.to_string(),
                    format!("{} / {} / {}", p[0], p[1], p[2]),
                ]
            })
            .collect();
        writeln!(
            r,
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

    let artifact: Vec<_> = rows.iter().map(|row| row.to_json()).collect();
    r.artifact("table2", artifact.into());
    writeln!(r);

    let naive = &rows[1];
    let sa = &rows[3];
    r.line("traffic reduction, semantics-aware vs naive:");
    writeln!(
        r,
        "  prefill {:>9.0}x   decode {:>7.0}x   (paper: >26,000x and >8,400x)",
        naive.prefill.net_mb / sa.prefill.net_mb,
        naive.decode.net_mb / sa.decode.net_mb
    );
    r
}

/// Table 3: decode-latency scaling with generation length for ΔKV versus
/// Semantics-Aware.
pub fn table3() -> Report {
    let mut r = Report::default();
    let lengths = [50usize, 100, 150, 200];
    let t3 = modes::table3(&LlmWorkload::paper(), &Calibration::paper(), &lengths);

    r.line("Table 3 — decode latency for N tokens [s]\n");
    let paper_dkv = [132.0, 159.9, 181.8, 204.3];
    let paper_sa = [114.0, 118.4, 118.5, 119.2];
    let mut dkv_row = vec!["dKV".to_string()];
    let mut sa_row = vec!["Semantics-Aware".to_string()];
    for (i, (_, dkv, sa)) in t3.iter().enumerate() {
        dkv_row.push(format!("{} ({})", fmt_secs(*dkv), paper_dkv[i]));
        sa_row.push(format!("{} ({})", fmt_secs(*sa), paper_sa[i]));
    }
    writeln!(
        r,
        "{}",
        render_table(
            &["Mode (ours vs paper)", "N=50", "N=100", "N=150", "N=200"],
            &[dkv_row, sa_row]
        )
    );

    // One `[n, dkv_s, sa_s]` triple per generation length.
    let triple = |&(n, dkv, sa): &(usize, f64, f64)| vec![Value::from(n), dkv.into(), sa.into()];
    let artifact: Vec<_> = t3.iter().map(triple).collect();
    r.artifact("table3", artifact.into());
    writeln!(r);
    let dkv_slope = (t3[3].1 - t3[0].1) / 150.0;
    let sa_slope = (t3[3].2 - t3[0].2) / 150.0;
    writeln!(
        r,
        "dKV slope:  {dkv_slope:.3} s/token (paper ~0.48) — linear in N"
    );
    writeln!(
        r,
        "SA slope:   {sa_slope:.4} s/token (paper ~0.035) — nearly constant"
    );
    writeln!(
        r,
        "at N=200 the semantics-aware design is {:.2}x faster (paper ~1.7x)",
        t3[3].1 / t3[3].2
    );
    r
}
