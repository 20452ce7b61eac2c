//! The six workloads. Each is a closed loop with one client: the
//! driver thread calls into the library and waits for the reply, as a
//! caller of this library does.

use crate::calib::Mix;
use crate::json;
use crate::metrics::Metrics;
use crate::trace::Tracer;
use genie_frontend::Value;

mod compile_zoo;
mod decode_small;
mod prefill_wide;
mod replay;
mod rpc_mixed;
mod serve_sim;

/// Input sets per run; set `i` is generated from `seed * 1000 + i`.
pub const INPUT_SETS: usize = 8;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "compile_zoo",
    "decode_small",
    "prefill_wide",
    "rpc_mixed",
    "serve_sim_steady",
    "serve_sim_disagg_chaos",
];

pub trait Workload {
    /// Milliseconds `build` spent constructing models (`models.build_ms`).
    fn model_build_ms(&self) -> f64;

    /// Compute what `check` compares against. Runs after warm-up, off
    /// the set-up clock.
    fn prepare_checks(&mut self);

    /// The traced window starts: zero the counters `per_layer` divides
    /// by the traced op count.
    fn start_counting(&mut self);

    /// One op on input set `set`. Every call into a layer's public
    /// function goes through `tr`; the output is kept for `check`.
    fn op(&mut self, set: usize, tr: &mut Tracer);

    /// Check the output of the last `op` (which ran on `set`).
    fn check(&mut self, set: usize) -> Result<(), String>;

    /// Per-layer metrics of the traced pass: totals from the spans in
    /// `tr` over `ops` traced ops, then this workload's probes and
    /// replays under `probe.*` spans.
    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics);

    /// How strongly this workload's time follows each part of the
    /// calibration kernel.
    fn calib_mix(&self) -> Mix;

    /// Frozen parameters for the run manifest, as rendered JSON.
    fn params_json(&self) -> String;
}

/// Build a workload's state and its input sets from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile_zoo" => Box::new(compile_zoo::CompileZoo::build(seed)),
        "decode_small" => Box::new(decode_small::DecodeSmall::build(seed)),
        "prefill_wide" => Box::new(prefill_wide::PrefillWide::build(seed)),
        "rpc_mixed" => Box::new(rpc_mixed::RpcMixed::build(seed)),
        "serve_sim_steady" => Box::new(serve_sim::ServeSim::steady(seed)),
        "serve_sim_disagg_chaos" => Box::new(serve_sim::ServeSim::disagg_chaos(seed)),
        _ => return None,
    })
}

/// Admits the ops of the first full cycle of input sets after the
/// traced window starts. Counts taken over them repeat exactly for a
/// seed, however many ops the window goes on to hold.
#[derive(Default)]
pub struct FirstCycle {
    admitted: usize,
}

impl FirstCycle {
    /// Whether to count the op about to run.
    pub fn admit(&mut self, tracing: bool) -> bool {
        let yes = tracing && self.admitted < INPUT_SETS;
        if yes {
            self.admitted += 1;
        }
        yes
    }

    /// Ops admitted so far (at least 1, to divide by).
    pub fn ops(&self) -> f64 {
        self.admitted.max(1) as f64
    }
}

/// Span around dropping what an op's calls returned: freeing a graph, a
/// plan or a report of tens of thousands of small allocations is part
/// of the op, and with its own span the op's children tile it.
const RELEASE_SPAN: &str = "release";

/// `[lo, hi]` as JSON, for manifests.
fn range_json((lo, hi): (usize, usize)) -> String {
    list_json(&[lo, hi])
}

fn list_json(values: &[usize]) -> String {
    json::array(values.iter().map(usize::to_string))
}

/// Whether two interpreter values are the same kind, shape and bits.
fn bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F(a), Value::F(b)) => {
            a.dims() == b.dims()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Value::I(a), Value::I(b)) => a.shape() == b.shape() && a.data() == b.data(),
        _ => false,
    }
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cycle_admits_one_cycle_of_traced_ops() {
        let mut gate = FirstCycle::default();
        assert!(!gate.admit(false), "untraced ops are never counted");
        let admitted = (0..3 * INPUT_SETS).filter(|_| gate.admit(true)).count();
        assert_eq!(admitted, INPUT_SETS);
        assert_eq!(gate.ops(), INPUT_SETS as f64);
        assert_eq!(FirstCycle::default().ops(), 1.0);
    }
}
