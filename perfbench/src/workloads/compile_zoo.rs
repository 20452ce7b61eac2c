//! `compile_zoo`: the control path every request pays, on each zoo
//! family — capture, annotate, validate, lint, schedule, simulate.
//! `frontend`, `srg`, `analysis`, `scheduler`, `backend::sim` and
//! `netsim` do all the work; `tensor`, `transport` and `serving` none.

use super::{list_json, range_json, timed_ms, FirstCycle, Workload, INPUT_SETS, RELEASE_SPAN};
use crate::alloc;
use crate::calib::Mix;
use crate::json;
use crate::metrics::{ratio, Metrics};
use crate::rng::{set_seed, SplitMix64};
use crate::stats::median;
use crate::trace::Tracer;
use genie_analysis::{run_srg_passes, LintConfig, Severity};
use genie_backend::simulate_once;
use genie_cluster::{ClusterState, Topology};
use genie_frontend::capture::{CaptureCtx, CapturedGraph};
use genie_frontend::{annotate, patterns};
use genie_models::{
    CnnConfig, Dlrm, DlrmConfig, KvState, Multimodal, MultimodalConfig, SimpleCnn,
    TransformerConfig, TransformerLm,
};
use genie_netsim::rpc::RpcParams;
use genie_scheduler::{lint_plan, schedule_with_lints, CostModel, ExecutionPlan, SemanticsAware};

/// Fitted on this workload's ops over quiet and busy spells of the host
/// (README, "Calibration").
const CALIB_MIX: Mix = Mix {
    compute: 0.55,
    parallel: 0.1,
    memory: 0.0,
};
const FAMILIES: [&str; 5] = ["gptj_decode", "gptj_prefill", "resnet", "dlrm", "vqa"];
const PREFILL_PROMPT: (usize, usize) = (16, 128);
const CNN_BATCHES: [usize; 4] = [1, 4, 8, 16];
const DLRM_LOOKUPS: (usize, usize) = (8, 64);
const VQA_TOKENS: (usize, usize) = (8, 32);
/// Bytes per FLOP below which `annotate::finalize` calls a node
/// compute-bound; the value the zoo itself uses.
const BYTES_PER_FLOP: f64 = 1e-3;

#[derive(Debug, PartialEq)]
struct Inputs {
    decode_token: i64,
    prefill_prompt: Vec<i64>,
    cnn_batch: usize,
    dlrm_ids: Vec<Vec<i64>>,
    vqa_tokens: Vec<i64>,
}

/// What one family's pipeline produced, for the output check.
#[derive(Clone, Debug, PartialEq)]
struct FamilyOut {
    valid: bool,
    denied: bool,
    devices_used: usize,
    makespan_bits: u64,
    network_bytes: u64,
}

/// Sums over the first cycle of input sets of the traced window.
#[derive(Default)]
struct Counts {
    nodes: u64,
    edges: u64,
    findings: u64,
    transfers: u64,
    trace_events: u64,
}

pub struct CompileZoo {
    lm: TransformerLm,
    cnn: SimpleCnn,
    dlrm: Dlrm,
    vqa: Multimodal,
    topo: Topology,
    state: ClusterState,
    cost: CostModel,
    policy: SemanticsAware,
    lints: LintConfig,
    sets: Vec<Inputs>,
    build_ms: f64,
    last: Vec<FamilyOut>,
    first_seen: Vec<Option<Vec<FamilyOut>>>,
    counts: Counts,
    cycle: FirstCycle,
    cache_at_start: (u64, u64),
}

fn generate(seed: u64, dlrm: &DlrmConfig, vocab: usize) -> Vec<Inputs> {
    (0..INPUT_SETS)
        .map(|i| {
            let mut rng = SplitMix64::new(set_seed(seed, i));
            let prompt_len = rng.range(PREFILL_PROMPT.0, PREFILL_PROMPT.1);
            let lookups = rng.range(DLRM_LOOKUPS.0, DLRM_LOOKUPS.1);
            let vqa_len = rng.range(VQA_TOKENS.0, VQA_TOKENS.1);
            Inputs {
                decode_token: rng.range(0, vocab - 1) as i64,
                prefill_prompt: rng.tokens(prompt_len, vocab),
                cnn_batch: CNN_BATCHES[rng.range(0, CNN_BATCHES.len() - 1)],
                dlrm_ids: (0..dlrm.tables)
                    .map(|_| rng.tokens(lookups, dlrm.rows_per_table))
                    .collect(),
                vqa_tokens: rng.tokens(vqa_len, vocab),
            }
        })
        .collect()
}

impl CompileZoo {
    pub fn build(seed: u64) -> Self {
        let dlrm_cfg = DlrmConfig::production_like();
        let lm_cfg = TransformerConfig::gptj_6b();
        let (build_ms, (lm, cnn, dlrm, vqa)) = timed_ms(|| {
            (
                TransformerLm::new_spec(lm_cfg.clone()),
                SimpleCnn::new_spec(CnnConfig::resnet_like()),
                Dlrm::new_spec(dlrm_cfg.clone()),
                Multimodal::new_spec(MultimodalConfig::vqa_like()),
            )
        });
        CompileZoo {
            lm,
            cnn,
            dlrm,
            vqa,
            topo: Topology::paper_testbed(),
            state: ClusterState::new(),
            cost: CostModel::paper_stack(),
            policy: SemanticsAware::new(),
            lints: LintConfig::new(),
            sets: generate(seed, &dlrm_cfg, lm_cfg.vocab),
            build_ms,
            last: Vec::new(),
            first_seen: vec![None; INPUT_SETS],
            counts: Counts::default(),
            cycle: FirstCycle::default(),
            cache_at_start: (0, 0),
        }
    }

    fn capture(&self, family: usize, inputs: &Inputs) -> CapturedGraph {
        let ctx = CaptureCtx::new(FAMILIES[family]);
        match family {
            0 => {
                let cap =
                    self.lm
                        .capture_decode_step(&ctx, inputs.decode_token, &KvState::default());
                cap.logits.sample().mark_output();
                for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
                    k.mark_output();
                    v.mark_output();
                }
            }
            1 => {
                let cap = self.lm.capture_prefill(&ctx, &inputs.prefill_prompt);
                cap.logits.sample().mark_output();
                for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
                    k.mark_output();
                    v.mark_output();
                }
            }
            2 => self
                .cnn
                .capture_inference(&ctx, inputs.cnn_batch, None)
                .mark_output(),
            3 => self
                .dlrm
                .capture_inference(&ctx, &inputs.dlrm_ids, None)
                .mark_output(),
            _ => self
                .vqa
                .capture_inference(&ctx, &inputs.vqa_tokens, None)
                .mark_output(),
        }
        ctx.finish()
    }

    /// One family through the whole pipeline. Returns the finished plan
    /// too, for the plan-pass probe.
    fn pipeline(
        &mut self,
        family: usize,
        set: usize,
        tr: &mut Tracer,
        counting: bool,
    ) -> (FamilyOut, ExecutionPlan) {
        let captured = tr.span("frontend.capture", "frontend", |_| {
            self.capture(family, &self.sets[set])
        });
        let mut srg = captured.srg;
        tr.span("frontend.annotate", "frontend", |_| {
            patterns::run_all(&mut srg);
            annotate::finalize(&mut srg, BYTES_PER_FLOP);
        });
        let valid = tr.span("srg.validate", "srg", |_| srg.validate_all().is_ok());
        let report = tr.span("analysis.srg_passes", "analysis", |_| {
            run_srg_passes(&srg, &self.lints)
        });
        let plan = tr.span("scheduler.schedule", "scheduler", |_| {
            schedule_with_lints(
                &srg,
                &self.topo,
                &self.state,
                &self.cost,
                &self.policy,
                &self.lints,
            )
        });
        let sim = tr.span("backend.simulate", "backend", |_| {
            simulate_once(
                &plan,
                &self.topo,
                &self.cost,
                RpcParams::tensorpipe_python(),
            )
        });
        if counting {
            self.counts.nodes += srg.node_count() as u64;
            self.counts.edges += srg.edge_count() as u64;
            self.counts.findings += (report.diagnostics.len() + plan.diagnostics.len()) as u64;
            self.counts.transfers += plan.transfers.len() as u64;
            self.counts.trace_events += sim.trace.events().len() as u64;
        }
        let denied = report.has_deny()
            || plan
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Deny);
        let out = FamilyOut {
            valid,
            denied,
            devices_used: plan.devices_used(),
            makespan_bits: sim.makespan_s.to_bits(),
            network_bytes: sim.network_bytes,
        };
        tr.span(RELEASE_SPAN, "driver", |_| drop((srg, report, sim)));
        (out, plan)
    }
}

impl Workload for CompileZoo {
    fn model_build_ms(&self) -> f64 {
        self.build_ms
    }

    fn prepare_checks(&mut self) {}

    fn start_counting(&mut self) {
        self.counts = Counts::default();
        self.cycle = FirstCycle::default();
        let stats = self.cost.cache_stats();
        self.cache_at_start = (stats.hits, stats.misses);
    }

    fn op(&mut self, set: usize, tr: &mut Tracer) {
        let counting = self.cycle.admit(tr.enabled());
        self.last = (0..FAMILIES.len())
            .map(|family| {
                let (out, plan) = self.pipeline(family, set, tr, counting);
                tr.span(RELEASE_SPAN, "driver", |_| drop(plan));
                out
            })
            .collect();
    }

    fn check(&mut self, set: usize) -> Result<(), String> {
        for (out, family) in self.last.iter().zip(FAMILIES) {
            if !out.valid {
                return Err(format!("{family}: validate_all found violations"));
            }
            if out.denied {
                return Err(format!("{family}: a deny-level lint finding"));
            }
            if out.devices_used < 1 {
                return Err(format!("{family}: plan uses no device"));
            }
        }
        match &self.first_seen[set] {
            Some(first) if *first != self.last => Err(format!(
                "input set {set} repeated with a different makespan or network volume"
            )),
            Some(_) => Ok(()),
            None => {
                self.first_seen[set] = Some(self.last.clone());
                Ok(())
            }
        }
    }

    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics) {
        let n = ops.max(1) as f64;
        // Counts are per op of the first cycle of input sets; times are
        // per op of the whole traced window.
        let c = self.cycle.ops();
        let nodes = self.counts.nodes as f64 / c;
        let capture_ms = tr.total_ms("frontend.capture") / n;
        m.set("frontend.capture_ms_per_op", capture_ms);
        m.set(
            "frontend.capture_us_per_node",
            ratio(capture_ms * 1e3, nodes),
        );
        m.set(
            "frontend.annotate_ms_per_op",
            tr.total_ms("frontend.annotate") / n,
        );
        m.set("srg.nodes_per_op", nodes);
        m.set("srg.edges_per_op", self.counts.edges as f64 / c);
        m.set("srg.validate_ms_per_op", tr.total_ms("srg.validate") / n);
        m.set(
            "analysis.srg_passes_ms_per_op",
            tr.total_ms("analysis.srg_passes") / n,
        );
        // The k-th pass span of an op belongs to family k: the slowest
        // family's median is the "semantic analysis" yardstick.
        let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
        for (i, span) in tr.named("analysis.srg_passes").enumerate() {
            per_family[i % FAMILIES.len()].push(span.dur_ns() as f64 / 1e6);
        }
        let slowest = per_family.iter().map(|v| median(v)).fold(0.0, f64::max);
        m.set("analysis.srg_passes_ms_max_graph", slowest);
        m.set("analysis.findings_per_op", self.counts.findings as f64 / c);
        let schedule_ms = tr.total_ms("scheduler.schedule") / n;
        m.set("scheduler.schedule_ms_per_op", schedule_ms);
        m.set(
            "scheduler.transfers_per_op",
            self.counts.transfers as f64 / c,
        );
        let stats = self.cost.cache_stats();
        let hits = (stats.hits - self.cache_at_start.0) as f64;
        let misses = (stats.misses - self.cache_at_start.1) as f64;
        m.set("scheduler.cost_cache_hit_ratio", ratio(hits, hits + misses));
        m.set(
            "backend.simulate_ms_per_op",
            tr.total_ms("backend.simulate") / n,
        );
        m.set(
            "netsim.trace_events_per_op",
            self.counts.trace_events as f64 / c,
        );

        // Plan passes already ran inside `schedule_with_lints`; run them
        // again on the finished plans to split the scheduler's own time.
        let plans: Vec<ExecutionPlan> = (0..FAMILIES.len())
            .map(|family| self.pipeline(family, 0, &mut Tracer::new(false), false).1)
            .collect();
        let plan_pass_ms: Vec<f64> = (0..15)
            .map(|_| {
                tr.span("probe.plan_passes", "analysis", |_| {
                    timed_ms(|| {
                        for plan in &plans {
                            std::hint::black_box(lint_plan(
                                plan,
                                &self.topo,
                                &self.state,
                                &self.lints,
                            ));
                        }
                    })
                    .0
                })
            })
            .collect();
        let plan_ms = median(&plan_pass_ms);
        m.set("analysis.plan_passes_ms_per_op", plan_ms);
        m.set(
            "scheduler.schedule_self_ms_per_op",
            (schedule_ms - plan_ms).max(0.0),
        );

        // Graph memory: bytes still allocated once a capture is finished
        // and held, with the span collector off so its records do not
        // count as graph.
        let collector = &genie_telemetry::global().collector;
        let was_enabled = collector.is_enabled();
        collector.set_enabled(false);
        let (mut graph_bytes, mut graph_nodes) = (0i64, 0usize);
        alloc::set_counting(true);
        tr.span("probe.graph_memory", "srg", |_| {
            for family in 0..FAMILIES.len() {
                let before = alloc::snapshot().live_bytes;
                let held = self.capture(family, &self.sets[0]);
                graph_bytes += alloc::snapshot().live_bytes - before;
                graph_nodes += held.srg.node_count();
            }
        });
        alloc::set_counting(false);
        collector.set_enabled(was_enabled);
        m.set(
            "srg.alloc_bytes_per_node",
            ratio(graph_bytes.max(0) as f64, graph_nodes as f64),
        );

        // Telemetry's own cost: alternating blocks of ops with the span
        // collector off and on.
        let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
        tr.span("probe.telemetry_overhead", "telemetry", |_| {
            let mut quiet = Tracer::new(false);
            for block in 0..8 {
                let on = block % 2 == 1;
                collector.set_enabled(on);
                let (ms, ()) = timed_ms(|| {
                    for i in 0..8 {
                        self.op(i % INPUT_SETS, &mut quiet);
                    }
                });
                if on { &mut on_ms } else { &mut off_ms }.push(ms);
                collector.drain();
            }
        });
        collector.set_enabled(was_enabled);
        m.set(
            "telemetry.overhead_ratio",
            ratio(median(&on_ms), median(&off_ms)) - 1.0,
        );
    }

    fn calib_mix(&self) -> Mix {
        CALIB_MIX
    }

    fn params_json(&self) -> String {
        json::object([
            (
                "families",
                json::array(FAMILIES.iter().map(|f| json::string(f))),
            ),
            ("prefill_prompt_tokens", range_json(PREFILL_PROMPT)),
            ("cnn_batches", list_json(&CNN_BATCHES)),
            ("dlrm_lookups_per_table", range_json(DLRM_LOOKUPS)),
            ("vqa_tokens", range_json(VQA_TOKENS)),
            ("policy", json::string("SemanticsAware")),
            ("topology", json::string("paper_testbed")),
            ("cost_model", json::string("paper_stack")),
            ("rpc", json::string("tensorpipe_python")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_are_a_function_of_the_seed() {
        let dlrm = DlrmConfig::production_like();
        let sets = |seed| generate(seed, &dlrm, 50_400);
        assert_eq!(sets(1), sets(1));
        assert_ne!(sets(1), sets(2));
        for s in generate(7, &dlrm, 50_400) {
            assert!((PREFILL_PROMPT.0..=PREFILL_PROMPT.1).contains(&s.prefill_prompt.len()));
            assert!(CNN_BATCHES.contains(&s.cnn_batch));
            assert_eq!(s.dlrm_ids.len(), dlrm.tables);
        }
    }
}
