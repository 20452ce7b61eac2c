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
    // The blind modes: Naive re-uploads the whole model with every call,
    // ΔKV keeps the weights remote.
    let naive = mode == Mode::NaiveBlind;
    let finish = match (mode, phase) {
        (Mode::NaiveBlind | Mode::DeltaKv, PhaseRun::Prefill) => {
            // One remote call per module stage; activations round-trip
            // through the client (the RPC caller owns every return value)
            // and the last call returns logits.
            let resent = if naive { w.weight_bytes() as u64 } else { 0 };
            let mut t = start;
            let stage_kernel =
                Nanos::from_secs_f64(cal.kernel_prefill_s / cal.prefill_stages as f64);
            for stage in 0..cal.prefill_stages {
                let up = resent
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
        (Mode::NaiveBlind | Mode::DeltaKv, PhaseRun::Decode(n)) => {
            // One synchronous round trip per token. Naive re-uploads the
            // model: no KV survives between steps, so the server re-runs
            // prefill context each time (we charge only the token kernel —
            // conservative in the blind mode's favor). ΔKV's client keeps
            // the canonical KV and ships the delta slice each step.
            let up = if naive {
                w.weight_bytes() as u64
            } else {
                w.kv_delta_bytes() as u64
            } + 8;
            let mut t = start;
            let k = Nanos::from_secs_f64(cal.kernel_token_s);
            for _ in 0..n {
                t = ch
                    .call_sync(t, up, w.logits_bytes() as u64, k)
                    .response_delivered;
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
