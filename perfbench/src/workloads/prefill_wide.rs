//! `prefill_wide`: one wide prefill through the same interpreter used
//! the other way — `tensor`'s SIMD/parallel tiers and the worker pool
//! do most of the work and capture little, so a kernel or pool change
//! shows here and a capture/interp-overhead change does not.

use super::replay::{matmul_gflops, Replayer};
use super::{bit_equal, list_json, timed_ms, FirstCycle, Workload, INPUT_SETS};
use crate::calib::Mix;
use crate::json;
use crate::metrics::{ratio, Metrics};
use crate::rng::{set_seed, SplitMix64};
use crate::trace::Tracer;
use genie_backend::LocalBackend;
use genie_frontend::capture::{CaptureCtx, CapturedGraph};
use genie_frontend::{interp, Value};
use genie_models::{TransformerConfig, TransformerLm};

/// Fitted on this workload's ops over quiet and busy spells of the host
/// (README, "Calibration").
const CALIB_MIX: Mix = Mix {
    compute: 0.3,
    parallel: 0.5,
    memory: 0.1,
};
const WEIGHT_SEED: u64 = 13;
/// Prompt lengths of the eight input sets, dealt in a seeded order with
/// seeded contents. The lengths are fixed so host time does not move
/// with the seed; the two middle ones are equal so the median op falls
/// inside a cluster of equal-cost ops, not in the gap between two.
const PROMPT_TOKENS: [usize; INPUT_SETS] = [64, 72, 88, 96, 96, 104, 120, 128];

fn model_config() -> TransformerConfig {
    let mut c = TransformerConfig::tiny();
    c.layers = 2;
    c.d_model = 256;
    c.heads = 4;
    c.ffn_mult = 4;
    c.vocab = 512;
    c
}

fn generate(seed: u64, vocab: usize) -> Vec<Vec<i64>> {
    let lengths = SplitMix64::new(set_seed(seed, INPUT_SETS)).shuffled(&PROMPT_TOKENS);
    (0..INPUT_SETS)
        .map(|i| SplitMix64::new(set_seed(seed, i)).tokens(lengths[i], vocab))
        .collect()
}

#[derive(Default)]
struct Counts {
    nodes: u64,
    edges: u64,
}

pub struct PrefillWide {
    model: TransformerLm,
    sets: Vec<Vec<i64>>,
    oracle: Vec<Vec<Value>>,
    build_ms: f64,
    last: Vec<Value>,
    counts: Counts,
    cycle: FirstCycle,
}

impl PrefillWide {
    pub fn build(seed: u64) -> Self {
        let (build_ms, model) =
            timed_ms(|| TransformerLm::new_functional(model_config(), WEIGHT_SEED));
        PrefillWide {
            sets: generate(seed, model.config.vocab),
            model,
            oracle: Vec::new(),
            build_ms,
            last: Vec::new(),
            counts: Counts::default(),
            cycle: FirstCycle::default(),
        }
    }

    fn capture(&self, prompt: &[i64]) -> CapturedGraph {
        let ctx = CaptureCtx::new("prefill_wide");
        let cap = self.model.capture_prefill(&ctx, prompt);
        cap.logits.mark_output();
        ctx.finish()
    }
}

impl Workload for PrefillWide {
    fn model_build_ms(&self) -> f64 {
        self.build_ms
    }

    fn prepare_checks(&mut self) {
        self.oracle = self
            .sets
            .iter()
            .map(|prompt| {
                let captured = self.capture(prompt);
                let mut all = interp::execute_sequential(&captured.srg, &captured.values)
                    .expect("sequential oracle executes");
                captured
                    .outputs
                    .iter()
                    .map(|id| all.remove(id).expect("output computed"))
                    .collect()
            })
            .collect();
    }

    fn start_counting(&mut self) {
        self.counts = Counts::default();
        self.cycle = FirstCycle::default();
    }

    fn op(&mut self, set: usize, tr: &mut Tracer) {
        let captured = tr.span("frontend.capture", "frontend", |_| {
            self.capture(&self.sets[set])
        });
        self.last = tr.span("backend.execute_outputs", "backend", |_| {
            LocalBackend
                .execute_outputs(&captured)
                .expect("prefill executes")
        });
        if self.cycle.admit(tr.enabled()) {
            self.counts.nodes += captured.srg.node_count() as u64;
            self.counts.edges += captured.srg.edge_count() as u64;
        }
    }

    fn check(&mut self, set: usize) -> Result<(), String> {
        let Some(expected) = self.oracle.get(set) else {
            return Ok(());
        };
        let same = self.last.len() == expected.len()
            && self.last.iter().zip(expected).all(|(a, b)| bit_equal(a, b));
        if same {
            Ok(())
        } else {
            Err(format!(
                "set {set}: outputs are not bit-equal to interp::execute_sequential"
            ))
        }
    }

    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics) {
        let n = ops.max(1) as f64;
        let capture_ms = tr.total_ms("frontend.capture") / n;
        let exec_ms = tr.total_ms("backend.execute_outputs") / n;
        let nodes = self.counts.nodes as f64 / self.cycle.ops();
        m.set("frontend.capture_ms_per_op", capture_ms);
        m.set(
            "frontend.capture_us_per_node",
            ratio(capture_ms * 1e3, nodes),
        );
        m.set("frontend.interp_prefill_ms_per_op", exec_ms);
        m.set(
            "frontend.capture_over_exec_ratio",
            ratio(capture_ms, exec_ms),
        );
        m.set("srg.nodes_per_op", nodes);
        m.set(
            "srg.edges_per_op",
            self.counts.edges as f64 / self.cycle.ops(),
        );

        let mut replayer = Replayer::default();
        for prompt in &self.sets {
            replayer.kernels(&self.capture(prompt).srg, tr);
        }
        let kernel_ms = tr.total_ms("probe.kernel_replay") / self.sets.len() as f64;
        m.set("tensor.kernel_replay_ms_per_op", kernel_ms);
        m.set(
            "frontend.interp_self_ms_per_op",
            (exec_ms - kernel_ms).max(0.0),
        );
        let c = &self.model.config;
        let gflops = tr.span("probe.matmul_wide", "tensor", |_| {
            matmul_gflops(
                PROMPT_TOKENS[INPUT_SETS - 1],
                c.d_model,
                c.d_model * c.ffn_mult,
            )
        });
        m.set("tensor.matmul_gflops_wide", gflops);
    }

    fn calib_mix(&self) -> Mix {
        CALIB_MIX
    }

    fn params_json(&self) -> String {
        let c = &self.model.config;
        json::object([
            ("layers", c.layers.to_string()),
            ("d_model", c.d_model.to_string()),
            ("heads", c.heads.to_string()),
            ("ffn", (c.d_model * c.ffn_mult).to_string()),
            ("vocab", c.vocab.to_string()),
            ("weight_seed", WEIGHT_SEED.to_string()),
            ("prompt_tokens", list_json(&PROMPT_TOKENS)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_are_a_function_of_the_seed() {
        assert_eq!(generate(9, 512), generate(9, 512));
        assert_ne!(generate(9, 512), generate(10, 512));
        let mut lengths: Vec<usize> = generate(9, 512).iter().map(Vec::len).collect();
        lengths.sort_unstable();
        assert_eq!(lengths, PROMPT_TOKENS);
    }
}
