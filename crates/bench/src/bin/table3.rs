//! Regenerates Table 3: decode-latency scaling with generation length
//! for ΔKV versus Semantics-Aware.
//!
//! Run with: `cargo run -p genie-bench --bin table3`

use genie_bench::report::{fmt_secs, render_table, write_artifact};
use genie_bench::{table3, Calibration, LlmWorkload};
use genie_srg::json::Value;

fn main() {
    let w = LlmWorkload::paper();
    let cal = Calibration::paper();
    let lengths = [50usize, 100, 150, 200];
    let t3 = table3(&w, &cal, &lengths);

    println!("Table 3 — decode latency for N tokens [s]\n");
    let mut rows = Vec::new();
    let paper_dkv = [132.0, 159.9, 181.8, 204.3];
    let paper_sa = [114.0, 118.4, 118.5, 119.2];
    let mut dkv_row = vec!["dKV".to_string()];
    let mut sa_row = vec!["Semantics-Aware".to_string()];
    for (i, (_, dkv, sa)) in t3.iter().enumerate() {
        dkv_row.push(format!("{} ({})", fmt_secs(*dkv), paper_dkv[i]));
        sa_row.push(format!("{} ({})", fmt_secs(*sa), paper_sa[i]));
    }
    rows.push(dkv_row);
    rows.push(sa_row);
    println!(
        "{}",
        render_table(
            &["Mode (ours vs paper)", "N=50", "N=100", "N=150", "N=200"],
            &rows
        )
    );

    // One `[n, dkv_s, sa_s]` triple per generation length.
    let triple = |&(n, dkv, sa): &(usize, f64, f64)| vec![Value::from(n), dkv.into(), sa.into()];
    let artifact: Vec<_> = t3.iter().map(triple).collect();
    let path = write_artifact("table3", &artifact.into()).expect("artifact written");
    println!("artifact: {}\n", path.display());
    let dkv_slope = (t3[3].1 - t3[0].1) / 150.0;
    let sa_slope = (t3[3].2 - t3[0].2) / 150.0;
    println!("dKV slope:  {dkv_slope:.3} s/token (paper ~0.48) — linear in N");
    println!("SA slope:   {sa_slope:.4} s/token (paper ~0.035) — nearly constant");
    println!(
        "at N=200 the semantics-aware design is {:.2}x faster (paper ~1.7x)",
        t3[3].1 / t3[3].2
    );
}
