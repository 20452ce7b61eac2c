//! The four execution modes of §4, driven over the simulated transport.
//!
//! Each mode is a mechanistic client strategy, not a curve fit: the Naïve
//! mode really issues one weight re-upload per remote call, ΔKV really
//! ships the per-token KV slice, Semantics-Aware really pins state and
//! streams logits — the latency and traffic columns fall out of the
//! calibrated transport ([`crate::calibration::Calibration`]) and the
//! link's FIFO discipline.

use crate::calibration::Calibration;
use crate::workload::LlmWorkload;
use genie_netsim::{LinkSim, Nanos, RpcChannel};
use genie_srg::{json::Value, json_object};

/// The four §4 execution modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Model and KV cache on the client's own GPU.
    Local,
    /// Semantics-blind: the entire model re-uploads on every remote call;
    /// the KV cache is not preserved between steps.
    NaiveBlind,
    /// Semantics-blind with delta shipping: weights remain remote, each
    /// step ships the new KV slice.
    DeltaKv,
    /// Genie: weights and KV pinned remotely behind handles; each step
    /// moves the token in and the logits out.
    SemanticsAware,
}

impl Mode {
    /// All modes in table order.
    pub const ALL: [Mode; 4] = [
        Mode::Local,
        Mode::NaiveBlind,
        Mode::DeltaKv,
        Mode::SemanticsAware,
    ];

    /// Row label matching the paper's Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Local => "Local (upper bound)",
            Mode::NaiveBlind => "Semantics-Blind, Naive",
            Mode::DeltaKv => "Semantics-Blind, dKV",
            Mode::SemanticsAware => "Semantics-Aware",
        }
    }
}

/// The measured phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseRun {
    /// Prompt processing.
    Prefill,
    /// Autoregressive generation of `n` tokens.
    Decode(usize),
}

/// One table cell triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseMetrics {
    /// End-to-end wall-clock seconds (the paper's `/usr/bin/time`).
    pub latency_s: f64,
    /// Network volume in MB (decimal, as the paper reports).
    pub net_mb: f64,
    /// Effective GPU utilization percent: kernel seconds / wall clock.
    pub gpu_util_pct: f64,
    /// Completed RPC round trips (the evaluation's "network volume via
    /// RPC counters" companion figure; 0 for local execution).
    pub rpc_calls: u64,
}

fn fresh_channel(cal: &Calibration) -> RpcChannel {
    let link = LinkSim::new(25e9 / 8.0, Nanos::from_secs_f64(cal.net_latency_s));
    RpcChannel::new(cal.rpc_params(), link)
}

/// Run one mode through one phase, reproducing the paper's measurement
/// protocol: each phase is a fresh process/session (`/usr/bin/time`), so
/// remote modes pay session establishment each time.
pub fn run_phase(mode: Mode, phase: PhaseRun, w: &LlmWorkload, cal: &Calibration) -> PhaseMetrics {
    let kernel_s = match phase {
        PhaseRun::Prefill => cal.kernel_prefill_s,
        PhaseRun::Decode(n) => n as f64 * cal.kernel_token_s,
    };

    if mode == Mode::Local {
        return PhaseMetrics {
            latency_s: kernel_s,
            net_mb: 0.0,
            gpu_util_pct: 100.0,
            rpc_calls: 0,
        };
    }

    let mut ch = fresh_channel(cal);
    let start = ch.ensure_session(Nanos::ZERO);
    let finish = match (mode, phase) {
        (Mode::NaiveBlind, PhaseRun::Prefill) => {
            // One remote call per module stage; each re-uploads the whole
            // model plus the running activations; the last returns logits.
            let mut t = start;
            let stage_kernel =
                Nanos::from_secs_f64(cal.kernel_prefill_s / cal.prefill_stages as f64);
            for stage in 0..cal.prefill_stages {
                let up = w.weight_bytes() as u64
                    + if stage == 0 {
                        w.prompt_bytes() as u64
                    } else {
                        w.boundary_activation_bytes() as u64
                    };
                let down = if stage + 1 == cal.prefill_stages {
                    w.logits_bytes() as u64
                } else {
                    w.boundary_activation_bytes() as u64
                };
                t = ch.call_sync(t, up, down, stage_kernel).response_delivered;
            }
            t
        }
        (Mode::NaiveBlind, PhaseRun::Decode(n)) => {
            // Every token re-uploads the model; no KV survives between
            // steps, so the server re-runs prefill context each time (we
            // charge only the token kernel — conservative in the
            // blind mode's favor).
            let mut t = start;
            let k = Nanos::from_secs_f64(cal.kernel_token_s);
            for _ in 0..n {
                let up = w.weight_bytes() as u64 + 8;
                let down = w.logits_bytes() as u64;
                t = ch.call_sync(t, up, down, k).response_delivered;
            }
            t
        }
        (Mode::DeltaKv, PhaseRun::Prefill) => {
            // Weights stay remote; per-module calls round-trip activations
            // through the client (the RPC caller owns every return value).
            let mut t = start;
            let stage_kernel =
                Nanos::from_secs_f64(cal.kernel_prefill_s / cal.prefill_stages as f64);
            for stage in 0..cal.prefill_stages {
                let up = if stage == 0 {
                    w.prompt_bytes() as u64
                } else {
                    w.boundary_activation_bytes() as u64
                };
                let down = if stage + 1 == cal.prefill_stages {
                    w.logits_bytes() as u64
                } else {
                    w.boundary_activation_bytes() as u64
                };
                t = ch.call_sync(t, up, down, stage_kernel).response_delivered;
            }
            t
        }
        (Mode::DeltaKv, PhaseRun::Decode(n)) => {
            // One synchronous round trip per token: the client keeps the
            // canonical KV and ships the delta slice each step.
            let mut t = start;
            let k = Nanos::from_secs_f64(cal.kernel_token_s);
            for _ in 0..n {
                let up = w.kv_delta_bytes() as u64 + 8;
                let down = w.logits_bytes() as u64;
                t = ch.call_sync(t, up, down, k).response_delivered;
            }
            t
        }
        (Mode::SemanticsAware, PhaseRun::Prefill) => {
            // One call installs the plan and ships the prompt; weights are
            // already pinned (handles); logits for the final position
            // return.
            let plan_bytes = 10_000u64;
            let t = ch.call_sync(
                start,
                w.prompt_bytes() as u64 + plan_bytes,
                w.logits_bytes() as u64,
                Nanos::from_secs_f64(cal.kernel_prefill_s),
            );
            t.response_delivered
        }
        (Mode::SemanticsAware, PhaseRun::Decode(n)) => {
            // The captured decode loop is installed once; the device runs
            // continuously (KV pinned beside it) while each step's token
            // and logits stream back asynchronously — round trips overlap
            // compute, so only kernel time accumulates.
            let plan_bytes = 10_000u64;
            let install = ch
                .call_sync(start, plan_bytes, 0, Nanos::ZERO)
                .response_delivered;
            let mut last_delivery = install;
            let k = cal.kernel_token_s;
            for step in 0..n {
                let step_done = install + Nanos::from_secs_f64((step + 1) as f64 * k);
                let delivered = ch.send_oneway(step_done, w.logits_bytes() as u64 + 8);
                last_delivery = last_delivery.max(delivered);
            }
            last_delivery
        }
        (Mode::Local, _) => unreachable!("handled above"),
    };

    let latency_s = finish.as_secs_f64();
    PhaseMetrics {
        latency_s,
        net_mb: ch.total_bytes() as f64 / 1e6,
        gpu_util_pct: 100.0 * kernel_s / latency_s,
        rpc_calls: ch.calls,
    }
}

/// One Table-2 row: a mode's prefill and decode metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// The mode.
    pub mode: Mode,
    /// Prefill metrics (72-token prompt).
    pub prefill: PhaseMetrics,
    /// Decode metrics (50 steps).
    pub decode: PhaseMetrics,
}

impl PhaseMetrics {
    /// The cell triple (and RPC count) as it lands in the `table2` artifact.
    pub fn to_json(&self) -> Value {
        json_object! {
            "latency_s": self.latency_s,
            "net_mb": self.net_mb,
            "gpu_util_pct": self.gpu_util_pct,
            "rpc_calls": self.rpc_calls,
        }
    }
}

impl Table2Row {
    /// The row as it lands in the `table2` artifact; the mode goes by its
    /// variant name.
    pub fn to_json(&self) -> Value {
        json_object! {
            "mode": format!("{:?}", self.mode),
            "prefill": self.prefill.to_json(),
            "decode": self.decode.to_json(),
        }
    }
}

/// Regenerate Table 2.
pub fn table2(w: &LlmWorkload, cal: &Calibration) -> Vec<Table2Row> {
    Mode::ALL
        .iter()
        .map(|&mode| Table2Row {
            mode,
            prefill: run_phase(mode, PhaseRun::Prefill, w, cal),
            decode: run_phase(mode, PhaseRun::Decode(w.decode_tokens), w, cal),
        })
        .collect()
}

/// Regenerate Table 3: decode latency for N ∈ `lengths` under ΔKV and
/// Semantics-Aware.
pub fn table3(w: &LlmWorkload, cal: &Calibration, lengths: &[usize]) -> Vec<(usize, f64, f64)> {
    lengths
        .iter()
        .map(|&n| {
            let dkv = run_phase(Mode::DeltaKv, PhaseRun::Decode(n), w, cal);
            let sa = run_phase(Mode::SemanticsAware, PhaseRun::Decode(n), w, cal);
            (n, dkv.latency_s, sa.latency_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LlmWorkload, Calibration) {
        (LlmWorkload::paper(), Calibration::paper())
    }

    #[test]
    fn latency_ordering_matches_paper() {
        let (w, cal) = setup();
        let rows = table2(&w, &cal);
        let by_mode = |m: Mode| rows.iter().find(|r| r.mode == m).unwrap().clone();
        let local = by_mode(Mode::Local);
        let naive = by_mode(Mode::NaiveBlind);
        let dkv = by_mode(Mode::DeltaKv);
        let sa = by_mode(Mode::SemanticsAware);
        // Local « SA ≤ ΔKV « Naive in both phases.
        assert!(local.decode.latency_s < sa.decode.latency_s);
        assert!(sa.decode.latency_s < dkv.decode.latency_s);
        assert!(dkv.decode.latency_s < naive.decode.latency_s / 2.0);
        assert!(sa.prefill.latency_s < naive.prefill.latency_s / 1.5);
    }

    #[test]
    fn traffic_ratios_match_paper_magnitudes() {
        let (w, cal) = setup();
        let rows = table2(&w, &cal);
        let naive = &rows[1];
        let sa = &rows[3];
        // Paper: >8,400× decode traffic reduction, >26,000× prefill.
        assert!(
            naive.decode.net_mb / sa.decode.net_mb > 1_000.0,
            "decode ratio {}",
            naive.decode.net_mb / sa.decode.net_mb
        );
        assert!(
            naive.prefill.net_mb / sa.prefill.net_mb > 10_000.0,
            "prefill ratio {}",
            naive.prefill.net_mb / sa.prefill.net_mb
        );
        // Absolute magnitudes: naive prefill ~145 GB, ΔKV decode ~56 MB,
        // SA decode ~10 MB.
        assert!((100_000.0..200_000.0).contains(&naive.prefill.net_mb));
        assert!((40.0..70.0).contains(&rows[2].decode.net_mb));
        assert!((5.0..15.0).contains(&sa.decode.net_mb));
    }

    #[test]
    fn latency_cells_land_near_paper_values() {
        let (w, cal) = setup();
        let rows = table2(&w, &cal);
        let close = |ours: f64, paper: f64, tol: f64| {
            assert!(
                (ours - paper).abs() / paper < tol,
                "ours {ours} vs paper {paper}"
            );
        };
        close(rows[0].prefill.latency_s, 0.21, 0.01); // local prefill
        close(rows[0].decode.latency_s, 1.53, 0.01); // local decode
        close(rows[1].prefill.latency_s, 216.0, 0.10); // naive prefill
        close(rows[2].prefill.latency_s, 110.0, 0.10); // dKV prefill
        close(rows[3].prefill.latency_s, 111.0, 0.05); // SA prefill
        close(rows[2].decode.latency_s, 131.0, 0.10); // dKV decode
        close(rows[3].decode.latency_s, 116.0, 0.06); // SA decode
    }

    #[test]
    fn gpu_idles_in_blind_modes() {
        let (w, cal) = setup();
        let rows = table2(&w, &cal);
        // Paper: >98% idle in Naive/ΔKV; SA several× better than naive.
        assert!(rows[1].decode.gpu_util_pct < 1.0);
        assert!(rows[2].decode.gpu_util_pct < 2.0);
        assert!(rows[3].decode.gpu_util_pct > 3.0 * rows[1].decode.gpu_util_pct);
        assert!((99.0..=100.0).contains(&rows[0].decode.gpu_util_pct));
    }

    #[test]
    fn table3_shape_linear_vs_flat() {
        let (w, cal) = setup();
        let t3 = table3(&w, &cal, &[50, 100, 150, 200]);
        // ΔKV slope per token.
        let dkv_slope = (t3[3].1 - t3[0].1) / 150.0;
        let sa_slope = (t3[3].2 - t3[0].2) / 150.0;
        assert!(
            (0.3..0.7).contains(&dkv_slope),
            "dKV slope {dkv_slope} (paper 0.48)"
        );
        assert!(sa_slope < 0.05, "SA slope {sa_slope} (paper 0.035)");
        // ≥1.5× at N = 200 (paper: ~1.7×).
        assert!(t3[3].1 / t3[3].2 > 1.5, "ratio {}", t3[3].1 / t3[3].2);
    }

    #[test]
    fn sa_closes_most_of_the_gap() {
        // Paper: SA "closes 88% of the latency gap" to local versus ΔKV.
        // The shared ~109 s session-init floor is a measurement artifact
        // of `/usr/bin/time`; on phase work time, closure =
        // (dkv - sa) / (dkv - local) must be large.
        let (w, cal) = setup();
        let rows = table2(&w, &cal);
        let local = rows[0].decode.latency_s;
        let dkv = rows[2].decode.latency_s - cal.session_init_s;
        let sa = rows[3].decode.latency_s - cal.session_init_s;
        let closure = (dkv - sa) / (dkv - local);
        assert!(closure > 0.85, "closure {closure}");
    }
}
