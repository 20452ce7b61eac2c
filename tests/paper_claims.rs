//! Integration checks of the paper's headline claims, as catalogued in
//! DESIGN.md §3 ("expected shape checks"). These are the acceptance tests
//! of the reproduction: if any fails, the evaluation no longer supports
//! the paper's conclusions.

use genie::bench::{table2, table3, Calibration, LlmWorkload, Mode};

fn rows() -> Vec<genie::bench::Table2Row> {
    table2(&LlmWorkload::paper(), &Calibration::paper())
}

#[test]
fn claim_traffic_reduction_orders_of_magnitude() {
    // "reduces traffic by over 8,400× compared to naïve decode … and by
    // over 26,000× in the prefill phase"
    let rows = rows();
    let naive = rows.iter().find(|r| r.mode == Mode::NaiveBlind).unwrap();
    let sa = rows
        .iter()
        .find(|r| r.mode == Mode::SemanticsAware)
        .unwrap();
    assert!(naive.decode.net_mb / sa.decode.net_mb > 8_400.0);
    assert!(naive.prefill.net_mb / sa.prefill.net_mb > 26_000.0);
    // Absolute magnitudes: naive prefill ~145 GB, ΔKV decode ~56 MB, SA
    // decode ~10 MB.
    let dkv = rows.iter().find(|r| r.mode == Mode::DeltaKv).unwrap();
    assert!((100_000.0..200_000.0).contains(&naive.prefill.net_mb));
    assert!((40.0..70.0).contains(&dkv.decode.net_mb));
    assert!((5.0..15.0).contains(&sa.decode.net_mb));
}

#[test]
fn claim_latency_cells_land_near_the_paper() {
    // Every Table 2 latency cell but naive decode (see EXPERIMENTS.md's
    // known discrepancies) within its tolerance of the paper's value.
    let rows = rows();
    let row = |m: Mode| rows.iter().find(|r| r.mode == m).unwrap();
    let close = |ours: f64, paper: f64, tol: f64| {
        assert!(
            (ours - paper).abs() / paper < tol,
            "ours {ours} vs paper {paper}"
        );
    };
    close(row(Mode::Local).prefill.latency_s, 0.21, 0.01);
    close(row(Mode::Local).decode.latency_s, 1.53, 0.01);
    close(row(Mode::NaiveBlind).prefill.latency_s, 216.0, 0.10);
    close(row(Mode::DeltaKv).prefill.latency_s, 110.0, 0.10);
    close(row(Mode::SemanticsAware).prefill.latency_s, 111.0, 0.05);
    close(row(Mode::DeltaKv).decode.latency_s, 131.0, 0.10);
    close(row(Mode::SemanticsAware).decode.latency_s, 116.0, 0.06);
}

#[test]
fn claim_gpu_idles_without_semantics() {
    // "In the Naïve and ΔKV modes, the GPU is idle over 98% of the time"
    let rows = rows();
    for mode in [Mode::NaiveBlind, Mode::DeltaKv] {
        let r = rows.iter().find(|r| r.mode == mode).unwrap();
        assert!(r.decode.gpu_util_pct < 2.0, "{mode:?} must idle >98%");
    }
    // "improves utilization by 6× over the Naïve mode" — demand ≥3×.
    let naive = rows.iter().find(|r| r.mode == Mode::NaiveBlind).unwrap();
    assert!(naive.decode.gpu_util_pct < 1.0);
    let sa = rows
        .iter()
        .find(|r| r.mode == Mode::SemanticsAware)
        .unwrap();
    assert!(sa.decode.gpu_util_pct > 3.0 * naive.decode.gpu_util_pct);
    // "the GPU still remains heavily underutilized"
    assert!(sa.decode.gpu_util_pct < 10.0);
    // The local upper bound keeps its GPU busy.
    let local = rows.iter().find(|r| r.mode == Mode::Local).unwrap();
    assert!((99.0..=100.0).contains(&local.decode.gpu_util_pct));
}

#[test]
fn claim_latency_ordering_is_preserved() {
    let rows = rows();
    let row = |m: Mode| rows.iter().find(|r| r.mode == m).unwrap();
    let lat = |m: Mode| row(m).decode.latency_s;
    assert!(lat(Mode::Local) < lat(Mode::SemanticsAware));
    assert!(lat(Mode::SemanticsAware) < lat(Mode::DeltaKv));
    assert!(lat(Mode::DeltaKv) < lat(Mode::NaiveBlind) / 2.0);
    assert!(
        row(Mode::SemanticsAware).prefill.latency_s < row(Mode::NaiveBlind).prefill.latency_s / 1.5
    );
}

#[test]
fn claim_sa_closes_most_of_the_gap() {
    // SA "closes 88% of the latency gap" to local versus ΔKV. The shared
    // ~109 s session-init floor is a measurement artifact of
    // `/usr/bin/time`; on phase work time, closure =
    // (dkv - sa) / (dkv - local) must be large.
    let cal = Calibration::paper();
    let rows = rows();
    let decode = |m: Mode| rows.iter().find(|r| r.mode == m).unwrap().decode.latency_s;
    let local = decode(Mode::Local);
    let dkv = decode(Mode::DeltaKv) - cal.session_init_s;
    let sa = decode(Mode::SemanticsAware) - cal.session_init_s;
    let closure = (dkv - sa) / (dkv - local);
    assert!(closure > 0.85, "closure {closure}");
}

#[test]
fn claim_delta_kv_linear_sa_flat() {
    // Table 3: "the ΔKV mode's latency grows linearly … the
    // Semantics-Aware mode's latency … remains nearly constant"
    let t3 = table3(
        &LlmWorkload::paper(),
        &Calibration::paper(),
        &[50, 100, 150, 200],
    );
    // Linearity: each ΔKV increment within 20% of the first increment.
    let inc0 = t3[1].1 - t3[0].1;
    for w in t3.windows(2) {
        let inc = w[1].1 - w[0].1;
        assert!(
            (inc - inc0).abs() / inc0 < 0.2,
            "ΔKV not linear: {inc} vs {inc0}"
        );
    }
    // Flatness: SA varies less than 6% over the whole sweep.
    let sa_min = t3.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    let sa_max = t3.iter().map(|r| r.2).fold(0.0, f64::max);
    assert!(
        (sa_max - sa_min) / sa_min < 0.06,
        "SA not flat: {sa_min}..{sa_max}"
    );
    // Slopes per token: ΔKV ≈ 0.48 s, SA ≈ 0.035 s.
    let dkv_slope = (t3[3].1 - t3[0].1) / 150.0;
    let sa_slope = (t3[3].2 - t3[0].2) / 150.0;
    assert!(
        (0.3..0.7).contains(&dkv_slope),
        "ΔKV slope {dkv_slope} (paper 0.48)"
    );
    assert!(sa_slope < 0.05, "SA slope {sa_slope} (paper 0.035)");
    // "By 200 tokens, the Semantics-Aware design is already ~1.7× faster"
    assert!(t3[3].1 / t3[3].2 > 1.6, "ratio {}", t3[3].1 / t3[3].2);
}

#[test]
fn claim_rpc_bound_not_data_bound() {
    // "the remaining performance gap … is almost entirely an artifact of
    // the unoptimized Python RPC transport": swapping only the transport
    // for RDMA must bring semantics-aware decode near the local bound.
    let w = LlmWorkload::paper();
    let local = 50.0 * Calibration::paper().kernel_token_s;
    let rdma = genie::bench::run_phase(
        Mode::SemanticsAware,
        genie::bench::PhaseRun::Decode(50),
        &w,
        &Calibration::rdma(),
    );
    let work = rdma.latency_s - Calibration::rdma().session_init_s;
    assert!(
        work < local * 1.5,
        "RDMA semantics-aware decode {work}s should approach local {local}s"
    );
}

#[test]
fn claim_semantic_awareness_is_not_mode_specific_tuning() {
    // The same calibrated transport serves every mode — only the client
    // strategy differs. Verify by checking all modes share identical
    // kernel totals (the "useful GPU work is virtually identical" row).
    let w = LlmWorkload::paper();
    let cal = Calibration::paper();
    let kernel = 50.0 * cal.kernel_token_s;
    for row in table2(&w, &cal) {
        let implied = row.decode.gpu_util_pct / 100.0 * row.decode.latency_s;
        assert!(
            (implied - kernel).abs() / kernel < 0.01,
            "{:?}: kernel work {implied} differs from {kernel}",
            row.mode
        );
    }
}
