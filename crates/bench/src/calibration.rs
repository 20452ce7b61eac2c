//! Calibration of the simulator to the paper's measured stack.
//!
//! The paper's absolute numbers come from a specific testbed: GPT-J on an
//! A100-80GB, a CPU-only Python client, TensorPipe RPC over 25 GbE,
//! latency measured with `/usr/bin/time` (i.e. *process* wall clock,
//! including interpreter start, model load, CUDA context, and RPC mesh
//! setup). Refitting every latency cell of Tables 2–3 yields a
//! three-parameter transport model that reproduces the table within a few
//! percent:
//!
//! | constant | value | evidence |
//! |---|---|---|
//! | `rpc.session_init` | 109 s | ΔKV/SA prefill rows are 110/111 s with ≈1 s of work; every remote row shares the same ~109 s floor |
//! | `rpc.per_call_overhead` | 0.45 s | Table 3 ΔKV slope: (204.3 − 132.0)/150 tokens ≈ 0.48 s/token ≈ per-call overhead + ~1 MB transfer + 0.03 s kernel |
//! | `rpc.effective_bandwidth` | 1.4 GB/s | Naïve prefill: 12 weight re-uploads ≈ 147 GB in (216 − 109) s ≈ 1.4 GB/s effective goodput (≈45% of the 25 GbE line rate — serialization-bound) |
//! | `kernel_prefill_s` | 0.21 s | the Local prefill row |
//! | `kernel_token_s` | 0.0306 s | Local decode: 1.53 s / 50 tokens |
//!
//! Cross-checks: the implied decode kernel time matches an A100 roofline
//! at ≈20% memory-bandwidth efficiency (12.1 GB of fp16 weights / (2 TB/s
//! × 0.2) ≈ 30 ms), and the ΔKV per-token payload matches GPT-J's f32 KV
//! slice (2·28·4096·4 ≈ 0.92 MB — the paper says "~1.0 MB").

use genie_netsim::RpcParams;

/// The calibrated constants.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// The transport the table was fitted over: session establishment
    /// (process + CUDA + RPC mesh), the fixed cost per synchronous round
    /// trip, and the effective goodput.
    pub rpc: RpcParams,
    /// Measured A100 kernel time for the 72-token GPT-J prefill.
    pub kernel_prefill_s: f64,
    /// Measured A100 kernel time per decoded token.
    pub kernel_token_s: f64,
    /// Number of module-level remote invocations the prototype issues
    /// during prefill (each re-uploads weights in Naïve mode): fitted
    /// from 149,258 MB ÷ 12,288 MB ≈ 12.
    pub prefill_stages: usize,
}

impl Calibration {
    /// The paper's A100 kernel times and prefill staging behind the
    /// transport `rpc`.
    pub fn over(rpc: &RpcParams) -> Self {
        Calibration {
            rpc: rpc.clone(),
            kernel_prefill_s: 0.21,
            kernel_token_s: 0.0306,
            prefill_stages: 12,
        }
    }

    /// The paper's measured stack.
    pub fn paper() -> Self {
        Self::over(&RpcParams::tensorpipe_python())
    }

    /// The §3.4 target datapath: zero-copy RDMA, no Python.
    pub fn rdma() -> Self {
        Self::over(&RpcParams::rdma_zero_copy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_fit_the_delta_kv_slope() {
        let c = Calibration::paper();
        // Per-token ΔKV cost: overhead + ~0.92 MB + kernel.
        let kv_delta = 2.0 * 28.0 * 4096.0 * 4.0;
        let per_call = c.rpc.per_call_overhead.as_secs_f64();
        let per_token = per_call + kv_delta / c.rpc.effective_bandwidth + c.kernel_token_s;
        let paper_slope = (204.3 - 132.0) / 150.0;
        assert!(
            (per_token - paper_slope).abs() < 0.1,
            "slope {per_token} vs paper {paper_slope}"
        );
    }

    #[test]
    fn paper_constants_fit_naive_prefill() {
        let c = Calibration::paper();
        let weights = 12.1e9;
        let per_call = c.rpc.per_call_overhead.as_secs_f64();
        let latency = c.rpc.session_init.as_secs_f64()
            + c.prefill_stages as f64 * (per_call + weights / c.rpc.effective_bandwidth)
            + c.kernel_prefill_s;
        assert!(
            (latency - 216.0).abs() / 216.0 < 0.05,
            "naive prefill {latency} vs paper 216"
        );
    }

    #[test]
    fn rdma_is_orders_faster_per_call() {
        let p = Calibration::paper();
        let r = Calibration::rdma();
        let per_call = |c: Calibration| c.rpc.per_call_overhead.as_secs_f64();
        assert!(per_call(p) / per_call(r) > 10_000.0);
    }

    #[test]
    fn a_calibration_is_its_transport_and_the_paper_constants_are_the_literals() {
        // Nanoseconds and back lose nothing: no price moves because the
        // stack is stated in `RpcParams` instead of re-typed here.
        let secs = |c: Calibration| {
            let per_call = c.rpc.per_call_overhead.as_secs_f64();
            (
                c.rpc.session_init.as_secs_f64(),
                per_call,
                c.rpc.effective_bandwidth,
            )
        };
        assert_eq!(secs(Calibration::paper()), (109.0, 0.45, 1.4e9));
        assert_eq!(secs(Calibration::rdma()), (1.0, 8e-6, 25e9 / 8.0));
    }
}
