//! `decode_small`: the functional serving loop on the `bench_dataplane`
//! model. Every step re-captures and interprets a graph of tiny
//! tensors, so `frontend` capture/interp and `serving` bookkeeping
//! dominate and kernels are a small share.

use super::replay::{matmul_gflops, Replayer};
use super::serve_sim::ReportCounts;
use super::{list_json, timed_ms, Workload, INPUT_SETS};
use crate::calib::Mix;
use crate::json;
use crate::metrics::{ratio, Metrics};
use crate::rng::{set_seed, SplitMix64};
use crate::trace::Tracer;
use genie_models::{TransformerConfig, TransformerLm};
use genie_netsim::Nanos;
use genie_serving::{ServingConfig, ServingLoop, ServingModel, ServingReport, ServingRequest};

/// Fitted on this workload's ops over quiet and busy spells of the host
/// (README, "Calibration").
const CALIB_MIX: Mix = Mix {
    compute: 0.6,
    parallel: 0.1,
    memory: 0.05,
};
const WEIGHT_SEED: u64 = 11;
const REQUESTS: usize = 4;
/// Prompt lengths and generated-token counts of a set's four requests.
/// Every set holds the same lengths, dealt to its requests in a seeded
/// order with seeded contents, so every op does the same amount of work
/// and host time does not move with the seed.
const PROMPT_TOKENS: [usize; REQUESTS] = [8, 10, 13, 16];
const TOTAL_TOKENS: [usize; REQUESTS] = [12, 16, 20, 24];
const MAX_BATCH: usize = 4;
/// Ops replayed through capture and interp for the per-layer split
/// (one cycle of the input sets).
const REPLAYED_OPS: usize = INPUT_SETS;

fn model_config() -> TransformerConfig {
    let mut c = TransformerConfig::tiny();
    c.layers = 2;
    c.d_model = 64;
    c.heads = 4;
    c.ffn_mult = 4;
    c.vocab = 512;
    c
}

fn generate(seed: u64, vocab: usize) -> Vec<Vec<ServingRequest>> {
    (0..INPUT_SETS)
        .map(|i| {
            let mut rng = SplitMix64::new(set_seed(seed, i));
            let prompts = rng.shuffled(&PROMPT_TOKENS);
            let totals = rng.shuffled(&TOTAL_TOKENS);
            (0..REQUESTS)
                .map(|r| ServingRequest {
                    id: r as u64 + 1,
                    tenant: 0,
                    arrival: Nanos::ZERO,
                    prompt: rng.tokens(prompts[r], vocab),
                    total_tokens: totals[r],
                })
                .collect()
        })
        .collect()
}

pub struct DecodeSmall {
    model: TransformerLm,
    serving: ServingLoop,
    sets: Vec<Vec<ServingRequest>>,
    oracle: Vec<Vec<Vec<i64>>>,
    build_ms: f64,
    last: Option<ServingReport>,
    counts: ReportCounts,
}

impl DecodeSmall {
    pub fn build(seed: u64) -> Self {
        let (build_ms, model) =
            timed_ms(|| TransformerLm::new_functional(model_config(), WEIGHT_SEED));
        let mut config = ServingConfig::paper_testbed();
        config.lanes = 1;
        config.max_batch = MAX_BATCH;
        let serving = ServingLoop::new(ServingModel::Functional(model.clone()), config);
        DecodeSmall {
            sets: generate(seed, model.config.vocab),
            model,
            serving,
            oracle: Vec::new(),
            build_ms,
            last: None,
            counts: ReportCounts::default(),
        }
    }
}

impl Workload for DecodeSmall {
    fn model_build_ms(&self) -> f64 {
        self.build_ms
    }

    fn prepare_checks(&mut self) {
        self.oracle = self
            .sets
            .iter()
            .map(|reqs| {
                reqs.iter()
                    .map(|r| self.model.generate(&r.prompt, r.total_tokens))
                    .collect()
            })
            .collect();
    }

    fn start_counting(&mut self) {
        self.counts = ReportCounts::default();
    }

    fn op(&mut self, set: usize, tr: &mut Tracer) {
        let report = tr.span("serving.run", "serving", |_| {
            self.serving.run(&self.sets[set])
        });
        self.counts.add(&report, tr.enabled());
        self.last = Some(report);
    }

    fn check(&mut self, set: usize) -> Result<(), String> {
        let report = self.last.as_ref().ok_or("no op ran")?;
        let Some(expected) = self.oracle.get(set) else {
            return Ok(());
        };
        for (req, want) in self.sets[set].iter().zip(expected) {
            if report.tokens_for(req.id) != Some(want.as_slice()) {
                return Err(format!(
                    "request {} of set {set}: tokens differ from TransformerLm::generate",
                    req.id
                ));
            }
        }
        Ok(())
    }

    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics) {
        let n = ops.max(1) as f64;
        let run_ms = tr.total_ms("serving.run") / n;
        m.set("serving.run_ms_per_op", run_ms);
        self.counts.set_host_metrics(m, run_ms);

        // The engine captures and interprets inside `run`; replay the
        // same requests through the same public functions.
        // Each replay follows a run of the same set, so the two see the
        // same host and their difference is the engine's own time.
        let mut replayer = Replayer::default();
        for set in 0..REPLAYED_OPS {
            tr.span("probe.serving_run", "serving", |_| {
                std::hint::black_box(self.serving.run(&self.sets[set]));
            });
            for (i, req) in self.sets[set].iter().enumerate() {
                let tokens = replayer.generate(&self.model, &req.prompt, req.total_tokens, tr);
                assert_eq!(
                    Some(&tokens),
                    self.oracle.get(set).map(|o| &o[i]),
                    "replay diverged from the oracle"
                );
            }
        }
        let r = REPLAYED_OPS as f64;
        let capture_ms =
            (tr.total_ms("probe.capture_prefill") + tr.total_ms("probe.capture_decode")) / r;
        let prefill_ms = tr.total_ms("probe.interp_prefill") / r;
        let decode_ms = tr.total_ms("probe.interp_decode") / r;
        let kernel_ms = tr.total_ms("probe.kernel_replay") / r;
        let nodes = replayer.totals.nodes as f64 / r;
        m.set("frontend.capture_ms_per_op", capture_ms);
        m.set(
            "frontend.capture_us_per_node",
            ratio(capture_ms * 1e3, nodes),
        );
        m.set("frontend.interp_prefill_ms_per_op", prefill_ms);
        m.set("frontend.interp_decode_ms_per_op", decode_ms);
        m.set(
            "frontend.interp_self_ms_per_op",
            (prefill_ms + decode_ms - kernel_ms).max(0.0),
        );
        m.set(
            "frontend.capture_over_exec_ratio",
            ratio(capture_ms, prefill_ms + decode_ms),
        );
        m.set("srg.nodes_per_op", nodes);
        m.set("srg.edges_per_op", replayer.totals.edges as f64 / r);
        m.set("tensor.kernel_replay_ms_per_op", kernel_ms);
        let paired_run_ms = tr.total_ms("probe.serving_run") / r;
        m.set(
            "serving.engine_self_ms_per_op",
            (paired_run_ms - capture_ms - prefill_ms - decode_ms).max(0.0),
        );
        let c = &self.model.config;
        let gflops = tr.span("probe.matmul_decode", "tensor", |_| {
            matmul_gflops(1, c.d_model, c.d_model * c.ffn_mult)
        });
        m.set("tensor.matmul_gflops_decode", gflops);
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
            ("lanes", "1".to_string()),
            ("max_batch", MAX_BATCH.to_string()),
            ("requests", REQUESTS.to_string()),
            ("prompt_tokens", list_json(&PROMPT_TOKENS)),
            ("total_tokens", list_json(&TOTAL_TOKENS)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_are_a_function_of_the_seed() {
        assert_eq!(generate(5, 512), generate(5, 512));
        assert_ne!(generate(5, 512), generate(6, 512));
        for reqs in generate(5, 512) {
            assert_eq!(reqs.len(), REQUESTS);
            let mut prompts: Vec<usize> = reqs.iter().map(|r| r.prompt.len()).collect();
            let mut totals: Vec<usize> = reqs.iter().map(|r| r.total_tokens).collect();
            prompts.sort_unstable();
            totals.sort_unstable();
            assert_eq!(prompts, PROMPT_TOKENS);
            assert_eq!(totals, TOTAL_TOKENS);
        }
    }
}
