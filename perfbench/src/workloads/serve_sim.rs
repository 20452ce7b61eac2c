//! `serve_sim_steady` and `serve_sim_disagg_chaos`: the spec-plane
//! serving engine on a Poisson trace. Steady is the engine's common
//! path (arrive, admit, batch, price, retire) below saturation; chaos
//! is the same engine used differently — migration planning, severed
//! transfers, LRU eviction and re-prefill, queue-budget shedding,
//! telemetry recording and blame analysis — above saturation. An engine
//! rewrite that speeds the first and slows the second shows.

use super::{range_json, FirstCycle, Workload, INPUT_SETS, RELEASE_SPAN};
use crate::calib::Mix;
use crate::json;
use crate::metrics::{ratio, Metrics};
use crate::rng::set_seed;
use crate::stats::percentile;
use crate::trace::Tracer;
use genie_backend::{batched_step_time, StepWork};
use genie_models::TransformerConfig;
use genie_netsim::{FaultPlan, Nanos, XorShift64};
use genie_serving::{
    ArrivalConfig, DisaggConfig, EventKind, Outcome, ServingConfig, ServingLoop, ServingModel,
    ServingReport, ServingRequest,
};
use genie_telemetry::causal::{self, BlameReport, WhatIf};
use std::collections::BTreeMap;

const PROMPT_TOKENS: (usize, usize) = (16, 128);
const DECODE_TOKENS: (usize, usize) = (32, 96);
const TENANTS: u64 = 4;
/// A request meets the SLO when its first token arrives within this.
const TTFT_SLO_S: f64 = 0.5;
/// Share of requests sent that must meet the SLO at a sustainable rate.
const GOODPUT_FLOOR: f64 = 0.95;
/// The loop must drain within this long after the arrival horizon.
const DRAIN_SLACK_S: f64 = 2.0;
/// Rates tried for `sim_max_rate_in_slo`, in req/s.
const RATE_LADDER: [u32; 24] = [
    2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46, 48,
];
const CHAOS_FAULTS: usize = 6;
/// The fault schedule is frozen; the run's seed varies the arrivals. A
/// schedule per seed moved an op's cost by 2x from seed to seed (how long
/// the outages last decides how much is shed), which drowned everything
/// else. Schedule 12 severs about a tenth of the migrations and sheds
/// about a quarter of the requests; with 384 MiB of KV per lane the
/// evictor preempts a couple of hundred times per op.
const CHAOS_FAULT_SEED: u64 = 12;

/// What differs between the two workloads.
struct Shape {
    rate_per_s: f64,
    horizon_s: f64,
    /// An op's trace is the first `requests` arrivals of the Poisson
    /// process (`rate_per_s × horizon_s` of them, the expected count), so
    /// the work in an op does not move with the seed by the ±5 % a
    /// Poisson count would.
    requests: usize,
    lanes: u32,
    prefill_lanes: u32,
    kv_mib: u64,
    chaos: bool,
    /// Fitted on this workload's ops over quiet and busy spells of the
    /// host (README, "Calibration").
    mix: Mix,
}

const STEADY: Shape = Shape {
    rate_per_s: 12.0,
    horizon_s: 30.0,
    requests: 360,
    lanes: 2,
    prefill_lanes: 0,
    kv_mib: 16 << 10,
    chaos: false,
    mix: Mix {
        compute: 0.65,
        parallel: 0.05,
        memory: 0.1,
    },
};

const DISAGG_CHAOS: Shape = Shape {
    rate_per_s: 20.0,
    horizon_s: 20.0,
    requests: 400,
    lanes: 3,
    prefill_lanes: 1,
    kv_mib: 384,
    chaos: true,
    mix: Mix {
        compute: 0.55,
        parallel: 0.05,
        memory: 0.05,
    },
};

/// Sums over the reports of the first cycle of input sets of the traced
/// window, so they repeat exactly for a seed.
#[derive(Default)]
pub struct ReportCounts {
    cycle: FirstCycle,
    requests: u64,
    steps: u64,
    events: u64,
    tokens: u64,
    preemptions: u64,
    reprefills: u64,
    migrations: u64,
    migrations_completed: u64,
    shed: u64,
    batch_members: u64,
    slices: u64,
    peak_kv_bytes: u64,
}

impl ReportCounts {
    /// Count `r` if its op belongs to the first cycle.
    pub fn add(&mut self, r: &ServingReport, tracing: bool) {
        if !self.cycle.admit(tracing) {
            return;
        }
        self.requests += r.outcomes.len() as u64;
        self.steps += r.steps;
        self.events += r.events.len() as u64;
        self.tokens += r.tokens_generated();
        self.preemptions += r.preemptions;
        self.reprefills += r.reprefills;
        self.migrations += r.migrations;
        self.migrations_completed += r.migrations_completed;
        self.shed += r.shed() as u64;
        self.batch_members += r.slices.iter().map(|s| s.members.len() as u64).sum::<u64>();
        self.slices += r.slices.len() as u64;
        self.peak_kv_bytes = self.peak_kv_bytes.max(r.peak_kv_bytes);
    }

    /// Work per op, and host time per simulated event when an op takes
    /// `run_ms`.
    pub fn set_host_metrics(&self, m: &mut Metrics, run_ms: f64) {
        let n = self.cycle.ops();
        let events = self.events as f64 / n;
        m.set("serving.sim_requests_per_op", self.requests as f64 / n);
        m.set("serving.sim_steps_per_op", self.steps as f64 / n);
        m.set("serving.sim_events_per_op", events);
        m.set("serving.tokens_per_op", self.tokens as f64 / n);
        m.set("serving.host_us_per_sim_event", ratio(run_ms * 1e3, events));
        m.set("serving.sim_events_per_host_s", ratio(events, run_ms / 1e3));
    }

    /// Behaviour of the modelled system over the same ops.
    fn set_behaviour_metrics(&self, m: &mut Metrics) {
        let n = self.cycle.ops();
        m.set(
            "serving.mean_batch_size",
            ratio(self.batch_members as f64, self.slices as f64),
        );
        m.set("serving.preemptions_per_op", self.preemptions as f64 / n);
        m.set(
            "serving.reprefills_per_step",
            ratio(self.reprefills as f64, self.steps as f64),
        );
        m.set("serving.migrations_per_op", self.migrations as f64 / n);
        m.set(
            "serving.migration_success_ratio",
            ratio(self.migrations_completed as f64, self.migrations as f64),
        );
        m.set(
            "serving.shed_ratio",
            ratio(self.shed as f64, self.requests as f64),
        );
        m.set("serving.peak_kv_bytes", self.peak_kv_bytes as f64);
    }
}

/// FNV-1a over everything a rerun must reproduce: the event log and
/// each request's outcome.
fn fingerprint(r: &ServingReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in &r.events {
        mix(e.at.0);
        mix(e.request);
        mix(e.kv_resident_bytes);
        match &e.kind {
            EventKind::Arrive => mix(1),
            EventKind::Admit { lane } => mix(2 | (*lane as u64) << 8),
            EventKind::Reprefill => mix(3),
            EventKind::Token { value } => mix(4 | (*value as u64) << 8),
            EventKind::Preempt => mix(5),
            EventKind::MigrateStart { from, to, bytes } => {
                mix(6 | (*from as u64) << 8 | (*to as u64) << 40);
                mix(*bytes);
            }
            EventKind::MigrateDone { to } => mix(7 | (*to as u64) << 8),
            EventKind::MigrateFail { to } => mix(8 | (*to as u64) << 8),
            EventKind::Complete => mix(9),
            EventKind::Shed(reason) => mix(10 | (*reason as u64) << 8),
        }
    }
    for (id, o) in &r.outcomes {
        mix(*id);
        match o {
            Outcome::Completed { ttft, finished, .. } => {
                mix(ttft.0);
                mix(finished.0);
            }
            Outcome::Shed { at, .. } => mix(at.0),
        }
    }
    mix(r.makespan.0);
    h
}

/// Requests completed with TTFT within the SLO, over requests sent.
fn goodput_ratio(r: &ServingReport, sent: usize) -> f64 {
    let good = r
        .outcomes
        .values()
        .filter(
            |o| matches!(o, Outcome::Completed { ttft, .. } if ttft.as_secs_f64() <= TTFT_SLO_S),
        )
        .count();
    ratio(good as f64, sent as f64)
}

/// Gaps in ms between consecutive `Token` events of each request.
fn inter_token_gaps_ms(r: &ServingReport) -> Vec<f64> {
    let mut last: BTreeMap<u64, Nanos> = BTreeMap::new();
    let mut gaps = Vec::new();
    for e in &r.events {
        if matches!(e.kind, EventKind::Token { .. }) {
            if let Some(prev) = last.insert(e.request, e.at) {
                gaps.push((e.at.0 - prev.0) as f64 / 1e6);
            }
        }
    }
    gaps
}

/// Admit minus Arrive in ms, first admission of each request.
fn queue_waits_ms(r: &ServingReport) -> Vec<f64> {
    let mut arrived: BTreeMap<u64, Nanos> = BTreeMap::new();
    let mut waits = Vec::new();
    for e in &r.events {
        match e.kind {
            EventKind::Arrive => {
                arrived.insert(e.request, e.at);
            }
            EventKind::Admit { .. } => {
                if let Some(at) = arrived.remove(&e.request) {
                    waits.push((e.at.0 - at.0) as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    waits
}

/// What one op produced, for the output check.
struct Output {
    report: ServingReport,
    blame: Option<BlameReport>,
}

pub struct ServeSim {
    shape: &'static Shape,
    model: TransformerConfig,
    serving: ServingLoop,
    sets: Vec<Vec<ServingRequest>>,
    /// Seed of input set 0, which the rate ladder reuses.
    set0_seed: u64,
    first_seen: Vec<Option<u64>>,
    last: Option<Output>,
    counts: ReportCounts,
}

impl ServeSim {
    pub fn steady(seed: u64) -> Self {
        ServeSim::build(&STEADY, seed)
    }

    pub fn disagg_chaos(seed: u64) -> Self {
        ServeSim::build(&DISAGG_CHAOS, seed)
    }

    fn arrivals(model: &TransformerConfig, seed: u64, rate: f64, horizon_s: f64) -> ArrivalConfig {
        ArrivalConfig {
            seed,
            rate_per_s: rate,
            horizon: Nanos::from_secs_f64(horizon_s),
            prompt_len: PROMPT_TOKENS,
            decode_tokens: DECODE_TOKENS,
            vocab: model.vocab,
            tenants: TENANTS,
        }
    }

    fn config(shape: &Shape) -> ServingConfig {
        let mut c = ServingConfig::paper_testbed();
        c.lanes = shape.lanes;
        c.max_batch = 8;
        c.batched = true;
        c.kv_capacity_bytes = shape.kv_mib << 20;
        c.record_telemetry = shape.chaos;
        if shape.prefill_lanes > 0 {
            c.disagg = Some(DisaggConfig::paper_testbed(shape.prefill_lanes));
        }
        if shape.chaos {
            // Host 0 is the client; lane `l` is host `1 + l`.
            let hosts = 1 + shape.lanes + shape.prefill_lanes;
            c.fault_plan = Some(FaultPlan::generate(
                CHAOS_FAULT_SEED,
                hosts,
                Nanos::from_secs_f64(shape.horizon_s),
                CHAOS_FAULTS,
            ));
        }
        c
    }

    fn build(shape: &'static Shape, seed: u64) -> Self {
        let model = TransformerConfig::gptj_6b();
        ServeSim {
            shape,
            serving: ServingLoop::new(ServingModel::Spec(model.clone()), Self::config(shape)),
            sets: (0..INPUT_SETS)
                .map(|i| {
                    let s = set_seed(seed, i);
                    // Generate past the horizon, then keep the expected count.
                    let mut trace =
                        Self::arrivals(&model, s, shape.rate_per_s, shape.horizon_s * 1.5)
                            .generate();
                    trace.truncate(shape.requests);
                    trace
                })
                .collect(),
            set0_seed: set_seed(seed, 0),
            model,
            first_seen: vec![None; INPUT_SETS],
            last: None,
            counts: ReportCounts::default(),
        }
    }

    /// Highest rate on the ladder that keeps goodput above the floor
    /// and drains in time, on input set 0's seed and configuration.
    fn max_rate_in_slo(&self) -> f64 {
        let deadline = self.shape.horizon_s + DRAIN_SLACK_S;
        RATE_LADDER
            .into_iter()
            .filter(|&rate| {
                let trace = Self::arrivals(
                    &self.model,
                    self.set0_seed,
                    f64::from(rate),
                    self.shape.horizon_s,
                )
                .generate();
                let report = self.serving.run(&trace);
                goodput_ratio(&report, trace.len()) >= GOODPUT_FLOOR
                    && report.makespan.as_secs_f64() <= deadline
            })
            .max()
            .map_or(0.0, f64::from)
    }
}

impl Workload for ServeSim {
    fn model_build_ms(&self) -> f64 {
        // A spec config carries no weights: nothing is built.
        0.0
    }

    fn prepare_checks(&mut self) {}

    fn start_counting(&mut self) {
        self.counts = ReportCounts::default();
    }

    fn op(&mut self, set: usize, tr: &mut Tracer) {
        // A report is tens of thousands of small allocations; freeing the
        // one the caller is done with is part of the op.
        let done = self.last.take();
        tr.span(RELEASE_SPAN, "driver", |_| drop(done));
        let report = tr.span("serving.run", "serving", |_| {
            self.serving.run(&self.sets[set])
        });
        let blame = self.shape.chaos.then(|| {
            let doc = tr.span("serving.causal_doc", "serving", |_| report.causal_doc());
            let blame = tr.span("telemetry.analyze", "telemetry", |_| causal::analyze(&doc));
            tr.span("telemetry.what_if", "telemetry", |_| {
                for (label, w) in [
                    ("link_bandwidth_2x", WhatIf::link_bandwidth(2.0)),
                    ("zero_faults", WhatIf::zero_faults()),
                    ("infinite_lanes", WhatIf::infinite_lanes()),
                ] {
                    std::hint::black_box(causal::what_if(&blame, label, &w));
                }
            });
            blame
        });
        self.counts.add(&report, tr.enabled());
        self.last = Some(Output { report, blame });
    }

    fn check(&mut self, set: usize) -> Result<(), String> {
        let out = self.last.as_ref().ok_or("no op ran")?;
        let report = &out.report;
        let mut terminal: BTreeMap<u64, u32> = BTreeMap::new();
        for e in &report.events {
            if matches!(e.kind, EventKind::Complete | EventKind::Shed(_)) {
                *terminal.entry(e.request).or_default() += 1;
            }
        }
        for req in &self.sets[set] {
            if terminal.get(&req.id) != Some(&1) || !report.outcomes.contains_key(&req.id) {
                return Err(format!(
                    "request {} of set {set} lacks exactly one terminal outcome",
                    req.id
                ));
            }
        }
        if report.outcomes.len() != self.sets[set].len() {
            return Err(format!("set {set}: outcomes for requests never sent"));
        }
        let lanes = (self.shape.lanes + self.shape.prefill_lanes) as u64;
        if report.peak_kv_bytes > lanes * (self.shape.kv_mib << 20) {
            return Err(format!("set {set}: peak KV exceeds capacity"));
        }
        if let Some(blame) = &out.blame {
            if let Some(r) = blame
                .requests
                .iter()
                .find(|r| r.blame.total_ns() != r.ttlt_ns)
            {
                return Err(format!(
                    "request {} of set {set}: blame does not tile its TTLT",
                    r.request
                ));
            }
        }
        let print = fingerprint(report);
        match self.first_seen[set] {
            Some(first) if first != print => {
                Err(format!("set {set}: rerun produced a different report"))
            }
            Some(_) => Ok(()),
            None => {
                self.first_seen[set] = Some(print);
                Ok(())
            }
        }
    }

    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics) {
        let n = ops.max(1) as f64;
        let run_ms = tr.total_ms("serving.run") / n;
        m.set("serving.run_ms_per_op", run_ms);
        self.counts.set_host_metrics(m, run_ms);
        self.counts.set_behaviour_metrics(m);
        if self.shape.chaos {
            m.set(
                "telemetry.analyze_ms_per_op",
                tr.total_ms("telemetry.analyze") / n,
            );
            m.set(
                "telemetry.what_if_ms_per_op",
                tr.total_ms("telemetry.what_if") / n,
            );
        }

        // The modelled system's quality, on input set 0: exact for a seed.
        let report = tr.span("probe.sim_quality", "serving", |_| {
            self.serving.run(&self.sets[0])
        });
        let ttfts_ms: Vec<f64> = report.ttfts().iter().map(|s| s * 1e3).collect();
        m.set("sim_ttft_p50_ms", percentile(&ttfts_ms, 0.50));
        m.set("sim_ttft_p99_ms", percentile(&ttfts_ms, 0.99));
        m.set(
            "sim_itl_p99_ms",
            percentile(&inter_token_gaps_ms(&report), 0.99),
        );
        m.set("sim_tokens_per_s", report.tokens_per_s());
        m.set(
            "sim_goodput_ratio",
            goodput_ratio(&report, self.sets[0].len()),
        );
        m.set(
            "serving.sim_queue_wait_p50_ms",
            percentile(&queue_waits_ms(&report), 0.50),
        );
        let max_rate = tr.span("probe.rate_ladder", "serving", |_| self.max_rate_in_slo());
        m.set("sim_max_rate_in_slo", max_rate);

        // Step pricing is the engine's inner call; time it alone.
        let gpu = genie_cluster::GpuSpec::a100_80gb();
        let work = StepWork {
            prefill_members: 1,
            prefill_tokens: 64,
            decode_members: 7,
            kv_resident_tokens: 7 * 128,
        };
        const PRICE_CALLS: u32 = 200_000;
        let price_ms = tr.span("probe.step_price", "backend", |_| {
            super::timed_ms(|| {
                for _ in 0..PRICE_CALLS {
                    std::hint::black_box(batched_step_time(
                        std::hint::black_box(&self.model),
                        std::hint::black_box(&work),
                        &gpu,
                        25e9,
                        250e-6,
                        true,
                    ));
                }
            })
            .0
        });
        m.set(
            "backend.step_price_us_per_call",
            price_ms * 1e3 / PRICE_CALLS as f64,
        );

        if self.shape.chaos {
            let plan = FaultPlan::generate(
                CHAOS_FAULT_SEED,
                1 + self.shape.lanes + self.shape.prefill_lanes,
                Nanos::from_secs_f64(self.shape.horizon_s),
                CHAOS_FAULTS,
            );
            let mut rng = XorShift64::new(self.set0_seed);
            const OUTCOME_CALLS: u64 = 200_000;
            let outcome_ms = tr.span("probe.fault_outcome", "netsim", |_| {
                super::timed_ms(|| {
                    for i in 0..OUTCOME_CALLS {
                        std::hint::black_box(plan.transfer_outcome(
                            &mut rng,
                            4,
                            1 + (i % 3) as u32,
                            64 << 20,
                            25e9,
                            250e-6,
                            Nanos(i * 100_000),
                        ));
                    }
                })
                .0
            });
            m.set(
                "netsim.fault_outcome_ns_per_call",
                outcome_ms * 1e6 / OUTCOME_CALLS as f64,
            );
        }
    }

    fn calib_mix(&self) -> Mix {
        self.shape.mix
    }

    fn params_json(&self) -> String {
        let s = self.shape;
        json::object([
            ("model", json::string("gptj_6b")),
            ("rate_per_s", json::number(s.rate_per_s)),
            ("horizon_s", json::number(s.horizon_s)),
            ("requests_per_op", s.requests.to_string()),
            ("lanes", s.lanes.to_string()),
            ("prefill_lanes", s.prefill_lanes.to_string()),
            ("max_batch", "8".to_string()),
            ("kv_mib_per_lane", s.kv_mib.to_string()),
            ("prompt_tokens", range_json(PROMPT_TOKENS)),
            ("decode_tokens", range_json(DECODE_TOKENS)),
            ("tenants", TENANTS.to_string()),
            ("faults", if s.chaos { CHAOS_FAULTS } else { 0 }.to_string()),
            ("fault_seed", CHAOS_FAULT_SEED.to_string()),
            ("record_telemetry", s.chaos.to_string()),
            ("ttft_slo_s", json::number(TTFT_SLO_S)),
            ("goodput_floor", json::number(GOODPUT_FLOOR)),
            ("drain_slack_s", json::number(DRAIN_SLACK_S)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_are_a_function_of_the_seed() {
        let traces = |seed| ServeSim::steady(seed).sets;
        assert_eq!(traces(3), traces(3));
        assert_ne!(traces(3), traces(4));
        assert!(traces(3).iter().all(|t| t.len() == STEADY.requests));
    }

    #[test]
    fn gaps_and_waits_follow_the_event_log() {
        let ev = |at, request, kind| genie_serving::LogEvent {
            at: Nanos(at),
            request,
            kind,
            kv_resident_bytes: 0,
        };
        let report = ServingReport {
            events: vec![
                ev(0, 1, EventKind::Arrive),
                ev(2_000_000, 1, EventKind::Admit { lane: 0 }),
                ev(5_000_000, 1, EventKind::Token { value: 7 }),
                ev(9_000_000, 1, EventKind::Token { value: 8 }),
                ev(9_000_000, 1, EventKind::Complete),
            ],
            ..ServingReport::default()
        };
        assert_eq!(queue_waits_ms(&report), vec![2.0]);
        assert_eq!(inter_token_gaps_ms(&report), vec![4.0]);
        assert_ne!(fingerprint(&report), fingerprint(&ServingReport::default()));
    }
}
