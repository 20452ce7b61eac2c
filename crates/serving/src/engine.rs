//! The continuous-batching serving engine.
//!
//! A deterministic discrete-event engine in the Orca/vLLM mold, scaled
//! to the repo's simulation plane: requests arrive on a virtual clock,
//! queue for admission under an SLO budget, and decode *together* —
//! every admitted request contributes one token per batched step, with
//! late arrivals joining mid-flight (continuous batching) instead of
//! waiting for the current batch to drain.
//!
//! Two execution planes share the one loop, mirroring the rest of the
//! repo:
//!
//! - **Functional** ([`ServingModel::Functional`]): a tiny
//!   [`TransformerLm`] with real weights; prefill and decode capture and
//!   execute real SRGs, so the loop's tokens can be pinned bit-for-bit
//!   against the sequential [`generate`](TransformerLm::generate)
//!   oracle.
//! - **Spec** ([`ServingModel::Spec`]): paper-scale configs (GPT-J-6B)
//!   where only the roofline cost of each batched step is simulated and
//!   tokens are synthesized deterministically.
//!
//! KV residency is explicit: each lane (device) has a byte capacity;
//! under pressure the least-recently-stepped request is evicted and
//! re-queued, and on readmission it *re-prefills* over prompt +
//! generated prefix — the lineage-style re-materialization the repo's
//! incremental-decode ≡ full-forward equivalence guarantees is exact.
//!
//! Shape (DESIGN.md, "Serving engine"): one private state struct, one
//! handler per phase listed by [`ServingLoop::run`], one [`EventQueue`]
//! agenda; a step is a global barrier; telemetry derives from the report.
//!
//! Determinism contract: no wall clock, no global RNG, `BTreeMap`
//! iteration everywhere ties break by request id. Same requests + same
//! config ⇒ byte-identical event log, a property the test suite replays.

use crate::report::ServingReport;
use crate::request::{EventKind, LogEvent, Outcome, ServingRequest, ShedReason};
use crate::slo::{SloTracker, TTFT_TARGET};
use genie_backend::{price_migration, sharded_step_time, StepWork};
use genie_cluster::{GpuSpec, Link};
use genie_models::{KvState, TransformerConfig, TransformerLm};
use genie_netsim::{EventQueue, FaultPlan, Nanos, TransferOutcome, XorShift64};
use genie_scheduler::CostModel;
use genie_srg::shard::ShardSpec;
use genie_telemetry::causal::{MemberPhase, StepMember, StepSlice};
use genie_telemetry::SemAttrs;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The model a serving loop executes.
#[derive(Clone, Debug)]
pub enum ServingModel {
    /// Tiny functional LM: real arithmetic, oracle-comparable tokens.
    Functional(TransformerLm),
    /// Paper-scale spec config: roofline costs, synthesized tokens.
    Spec(TransformerConfig),
}

impl ServingModel {
    /// The architecture config (either plane).
    pub fn config(&self) -> &TransformerConfig {
        match self {
            ServingModel::Functional(m) => &m.config,
            ServingModel::Spec(c) => c,
        }
    }
}

/// How a finished prefill's KV prefix reaches the decode pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Price ship-vs-reprefill per request ([`price_migration`]) and take
    /// the cheaper side.
    Planner,
    /// Always ship the prefix (falls back to re-prefill only when no
    /// decode lane has capacity).
    AlwaysShip,
    /// Never ship: every request re-prefills from lineage at the decode
    /// pool — the migration-free disaggregation baseline.
    AlwaysReprefill,
}

/// Prefill/decode disaggregation: dedicated prefill lanes feeding the
/// decode lanes through explicit KV-prefix migrations over the fabric.
#[derive(Clone, Debug)]
pub struct DisaggConfig {
    /// Lanes dedicated to prefill, *in addition to*
    /// [`ServingConfig::lanes`] decode lanes: lane indices
    /// `lanes..lanes + prefill_lanes`.
    pub prefill_lanes: u32,
    /// The prefill↔decode link KV prefixes migrate over.
    pub migration: Link,
    /// Ship-vs-reprefill policy.
    pub policy: MigrationPolicy,
}

impl DisaggConfig {
    /// `prefill_lanes` prefill hosts migrating over
    /// [`Link::PAPER_TESTBED`], planner-priced migrations.
    pub fn paper_testbed(prefill_lanes: u32) -> Self {
        DisaggConfig {
            prefill_lanes,
            migration: Link::PAPER_TESTBED,
            policy: MigrationPolicy::Planner,
        }
    }
}

/// Static configuration of one serving loop.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Decode lanes (devices serving replicas of the model).
    pub lanes: u32,
    /// Max requests batched per lane per step.
    pub max_batch: usize,
    /// Batched pricing (weights read once per step) vs. sequential
    /// per-member pricing — the ablation knob for the batching win.
    pub batched: bool,
    /// KV-cache byte capacity per lane.
    pub kv_capacity_bytes: u64,
    /// SLO budget: max time a request may sit queued before shedding.
    pub queue_budget: Nanos,
    /// Queue length cap; arrivals beyond it shed immediately.
    pub max_queue: usize,
    /// Accelerator executing each lane.
    pub gpu: GpuSpec,
    /// The client↔server link every lane's tokens cross.
    pub client: Link,
    /// Optional fault schedule. Host 0 is the client and lane `l` is host
    /// `1 + l`: lane `l` steps over the `(0, 1 + l)` link, and a
    /// migration from lane `a` to lane `b` travels the `(1 + a, 1 + b)`
    /// link.
    pub fault_plan: Option<FaultPlan>,
    /// Prefill/decode disaggregation (colocated serving when `None`).
    pub disagg: Option<DisaggConfig>,
    /// Shard each lane's model across devices (`pipeline_stages ×
    /// tensor_parallel`) joined by the given device↔device link, which
    /// carries the collectives (blamed to the `collective` causal
    /// category); `None` keeps one device per lane.
    pub shard: Option<(ShardSpec, Link)>,
    /// Publish the finished report's `genie_serving_*` metrics and spans
    /// to the process-global telemetry sinks.
    pub record_telemetry: bool,
}

impl ServingConfig {
    /// One A100 lane behind [`Link::PAPER_TESTBED`], batch 8, 8 GiB of
    /// KV, a 2 s queue budget.
    pub fn paper_testbed() -> Self {
        ServingConfig {
            lanes: 1,
            max_batch: 8,
            batched: true,
            kv_capacity_bytes: 8 << 30,
            queue_budget: Nanos::from_secs_f64(2.0),
            max_queue: 256,
            gpu: GpuSpec::a100_80gb(),
            client: Link::PAPER_TESTBED,
            fault_plan: None,
            disagg: None,
            shard: None,
            record_telemetry: true,
        }
    }
}

/// Why a job lost its KV and must re-prefill on its next step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum ReprefillCause {
    /// LRU-evicted under KV pressure.
    #[default]
    Eviction,
    /// A fabric fault lost the migrating prefix.
    FailedMigration,
    /// The planner priced recompute below shipping (or no decode lane
    /// had capacity for the prefix).
    Planned,
}

impl ReprefillCause {
    /// The report counter a re-prefill of this cause adds to.
    pub(crate) fn counter(self, report: &mut ServingReport) -> &mut u64 {
        match self {
            ReprefillCause::Eviction => &mut report.reprefills_evicted,
            ReprefillCause::FailedMigration => &mut report.reprefills_migration,
            ReprefillCause::Planned => &mut report.reprefills_planned,
        }
    }
}

/// Which lanes a queued job may admit onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pool {
    /// Any prefill lane (fresh requests under disaggregation).
    Prefill,
    /// Any decode lane.
    Decode,
    /// Exactly this lane (the job's KV is already resident there).
    Lane(u32),
}

/// One request's in-flight state (queued or active).
#[derive(Clone, Debug)]
struct Job {
    req: ServingRequest,
    tokens: Vec<i64>,
    kv: Option<KvState>,
    ttft: Option<Nanos>,
    enqueued_at: Nanos,
    last_step: u64,
    /// The lane the job is on, or its prefix is bound for while in flight.
    lane: u32,
    /// KV tokens held: on `lane` while active or in flight, else `landed`.
    kv_tokens: u64,
    /// The decode lane a migrated prefix landed on (queued jobs only;
    /// pins admission to that lane).
    landed: Option<u32>,
    /// What the job's next re-prefill is attributed to.
    reprefill_cause: ReprefillCause,
}

/// What the agenda holds: everything scheduled for a future instant.
enum Event {
    Arrive(ServingRequest),
    /// A migrating KV prefix reaches the end of its transfer, intact or
    /// not: resolved at departure (static faults, seeded RNG), felt now.
    Land(Job, bool),
}

impl Job {
    fn new(req: ServingRequest) -> Self {
        let enqueued_at = req.arrival;
        Job {
            req,
            tokens: Vec::new(),
            kv: None,
            ttft: None,
            enqueued_at,
            last_step: 0,
            lane: 0,
            kv_tokens: 0,
            landed: None,
            reprefill_cause: ReprefillCause::default(),
        }
    }

    /// Hold `tokens` of KV (0: none) on `lane`, counted in `lane_tokens`.
    fn hold_kv(&mut self, lane_tokens: &mut [u64], lane: u32, tokens: u64) {
        let held = &mut lane_tokens[lane as usize];
        *held = *held - self.kv_tokens + tokens;
        self.kv_tokens = tokens;
    }

    /// The job's KV on `lane` is gone (evicted, lost in flight, or not
    /// shipped): its next step re-prefills, attributed to `cause`.
    fn lose_kv(&mut self, lane_tokens: &mut [u64], lane: u32, cause: ReprefillCause) {
        self.hold_kv(lane_tokens, lane, 0);
        self.kv = None;
        self.landed = None;
        self.reprefill_cause = cause;
    }

    /// Resident KV tokens this job will hold after its next step: a
    /// resident job grows by one; a non-resident one (re)prefills over
    /// prompt + all-but-the-last generated token (the last token is the
    /// next decode input, its KV not yet written).
    fn next_resident_tokens(&self, resident_now: u64) -> u64 {
        if resident_now > 0 {
            resident_now + 1
        } else {
            (self.req.prompt.len() + self.tokens.len().saturating_sub(1)) as u64
        }
    }
}

/// The serving engine: construct once, [`run`](Self::run) a trace.
pub struct ServingLoop {
    pub(crate) model: ServingModel,
    pub(crate) config: ServingConfig,
}

impl ServingLoop {
    /// Build a loop for `model` under `config`.
    pub fn new(model: ServingModel, config: ServingConfig) -> Self {
        assert!(config.lanes >= 1, "need at least one lane");
        assert!(config.max_batch >= 1, "need batch capacity of at least 1");
        assert!(config.max_queue >= 1, "need queue capacity of at least 1");
        // A zero or non-finite rate prices a step at infinity or NaN and
        // the virtual clock wraps: reject it here, not three calls deep.
        let rate = |x: f64| x.is_finite() && x > 0.0;
        let delay = |x: f64| x.is_finite() && x >= 0.0;
        let gpu = &config.gpu;
        assert!(
            rate(gpu.peak_flops) && rate(gpu.mem_bandwidth) && delay(gpu.kernel_launch_overhead),
            "device needs finite positive rates and a launch overhead >= 0"
        );
        let mut links = vec![("client", config.client)];
        if let Some((spec, fabric)) = &config.shard {
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            links.push(("fabric", *fabric));
        }
        if let Some(d) = &config.disagg {
            assert!(d.prefill_lanes >= 1, "disaggregation needs a prefill lane");
            links.push(("migration", d.migration));
        }
        for (name, link) in links {
            assert!(
                rate(link.bandwidth_bps) && delay(link.latency_s),
                "{name} link needs a finite bandwidth > 0 and a finite latency >= 0"
            );
        }
        ServingLoop { model, config }
    }

    /// Drive `requests` (any order; the agenda sorts them) to completion
    /// and return the full report. Every request ends with exactly one
    /// terminal outcome: completed or shed with a typed reason.
    pub fn run(&self, requests: &[ServingRequest]) -> ServingReport {
        for r in requests {
            assert!(!r.prompt.is_empty(), "request {} has empty prompt", r.id);
            assert!(r.total_tokens >= 1, "request {} asks for 0 tokens", r.id);
        }
        let ids: BTreeSet<u64> = requests.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), requests.len(), "request ids must be unique");
        let mut sim = Sim::new(self, requests);
        loop {
            // 1–3. Deliver what is due; shed what waited past the budget
            // *before* admission, so no admitted request waited longer.
            sim.pump();
            sim.shed_stale();
            sim.admit();
            // 4. Idle: jump the clock to the next event, or drain out.
            if sim.active.is_empty() {
                let Some(next) = sim.agenda.peek_time() else {
                    break;
                };
                debug_assert!(next > sim.now, "pump left a due event behind");
                sim.now = next;
                continue;
            }
            // 5. Enforce per-lane KV capacity for the upcoming step.
            for lane in 0..sim.lanes {
                while sim.relieve(lane) {}
            }
            if sim.active.is_empty() {
                continue; // everything shed under KV pressure; re-admit
            }
            // 6–9. Lanes step in parallel; the loop ticks at the slowest.
            let step_end = sim.price();
            let finished = sim.execute(step_end);
            sim.retire(finished, step_end);
            sim.depart_prefills(step_end);
            sim.end_step(step_end);
        }
        let report = sim.finish();
        if self.config.record_telemetry {
            report.publish();
        }
        report
    }

    /// [`run`](Self::run), then [`audit`](Self::audit) the report: panics
    /// if it breaks a serving law.
    pub fn run_audited(&self, requests: &[ServingRequest]) -> ServingReport {
        let report = self.run(requests);
        self.audit(requests, &report)
            .unwrap_or_else(|v| panic!("{v}"));
        report
    }
}

/// All state of one [`ServingLoop::run`]; one method per phase.
struct Sim<'a> {
    model: &'a ServingModel,
    config: &'a ServingConfig,
    kv_bytes: u64,
    /// Decode lanes `0..config.lanes`, then any prefill lanes.
    lanes: u32,
    /// Each lane's shard spec and the fabric its collectives ride; one
    /// device (no collectives) when `config.shard` is `None`.
    shard: (ShardSpec, Link),
    /// The migration fabric as a calibration (disaggregated runs only).
    migrate_link: Option<CostModel>,
    /// KV tokens each lane holds or has reserved for an inbound prefix.
    lane_tokens: Vec<u64>,
    /// Admission queue, FIFO in event-time order.
    queue: VecDeque<Job>,
    /// Jobs on a lane (`Job::lane`): the only record of membership.
    active: BTreeMap<u64, Job>,
    /// Future arrivals, then landings, each by request id, per instant.
    agenda: EventQueue<(bool, u64), Event>,
    /// Its `steps` counts steps.
    report: ServingReport,
    now: Nanos,
    chaos_rng: XorShift64,
    slo: SloTracker,
}

impl<'a> Sim<'a> {
    fn new(engine: &'a ServingLoop, requests: &[ServingRequest]) -> Self {
        let (model, config) = (&engine.model, &engine.config);
        let cfg = model.config();
        let kv_bytes = cfg.kv_bytes_per_token();
        let lanes = config.lanes + config.disagg.as_ref().map_or(0, |d| d.prefill_lanes);
        let mut agenda = EventQueue::new();
        for r in requests {
            agenda.schedule(r.arrival, (false, r.id), Event::Arrive(r.clone()));
        }
        let plan_seed = config.fault_plan.as_ref().map(|p| p.seed);
        Sim {
            model,
            config,
            kv_bytes,
            lanes,
            shard: config.shard.unwrap_or((ShardSpec::single(), config.client)),
            // Ship-vs-reprefill is priced on the migration fabric with
            // kernels at unit efficiency, as step pricing runs them: the
            // re-prefill estimate is then the price `price` charges for it.
            migrate_link: config.disagg.as_ref().map(|d| CostModel::over(d.migration)),
            lane_tokens: vec![0; lanes as usize],
            queue: VecDeque::new(),
            active: BTreeMap::new(),
            agenda,
            report: ServingReport::default(),
            now: Nanos::ZERO,
            chaos_rng: XorShift64::new(plan_seed.map_or(1, |s| s ^ 0x5e21_1a7e)),
            slo: SloTracker::default(),
        }
    }

    /// Jobs active on `lane`, in ascending request id.
    fn members(&self, lane: u32) -> impl Iterator<Item = &Job> {
        self.active.values().filter(move |j| j.lane == lane)
    }

    fn push_event(&mut self, at: Nanos, request: u64, kind: EventKind) {
        let kv_resident_bytes = self.lane_tokens.iter().sum::<u64>() * self.kv_bytes;
        self.report.events.push(LogEvent {
            at,
            request,
            kind,
            kv_resident_bytes,
        });
    }

    fn shed(&mut self, id: u64, tenant: u64, reason: ShedReason) {
        self.slo.observe(tenant, true);
        let at = self.now;
        let outcome = Outcome::Shed { reason, at };
        self.report.outcomes.insert(id, outcome);
        self.push_event(at, id, EventKind::Shed(reason));
    }

    /// Phase 1: deliver every agenda event due by `now` into the queue,
    /// so queue FIFO order is event-time order.
    fn pump(&mut self) {
        while self.agenda.peek_time().is_some_and(|t| t <= self.now) {
            let job = match self.agenda.pop().expect("peeked") {
                (at, Event::Arrive(req)) => {
                    self.push_event(at, req.id, EventKind::Arrive);
                    if self.queue.len() >= self.config.max_queue {
                        self.shed(req.id, req.tenant, ShedReason::QueueFull);
                        continue;
                    }
                    Job::new(req)
                }
                (at, Event::Land(mut job, intact)) => {
                    let id = job.req.id;
                    job.enqueued_at = at;
                    let to = job.lane;
                    if intact {
                        self.report.migrations_completed += 1;
                        self.report.migrated_kv_bytes += job.kv_tokens * self.kv_bytes;
                        job.landed = Some(to);
                        self.push_event(at, id, EventKind::MigrateDone { to });
                    } else {
                        self.report.migrations_failed += 1;
                        job.lose_kv(&mut self.lane_tokens, to, ReprefillCause::FailedMigration);
                        self.push_event(at, id, EventKind::MigrateFail { to });
                    }
                    job
                }
            };
            self.queue.push_back(job);
        }
    }

    /// Phase 2: shed queued jobs that waited past the budget.
    fn shed_stale(&mut self) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.now.saturating_sub(self.queue[i].enqueued_at) > self.config.queue_budget {
                // A landed-but-never-admitted job still holds lane
                // residency; release it before recording the shed.
                let mut job = self.queue.remove(i).expect("index in range");
                if let Some(lane) = job.landed {
                    job.hold_kv(&mut self.lane_tokens, lane, 0);
                }
                self.shed(job.req.id, job.req.tenant, ShedReason::QueueOverSlo);
            } else {
                i += 1;
            }
        }
    }

    /// Phase 3: admit FIFO onto the emptiest lane of each job's pool with
    /// batch headroom. Head-of-line blocking is per pool: colocated (one
    /// pool) this is the classic FIFO admit; disaggregated, a stalled
    /// decode pool cannot starve fresh prefills or vice versa.
    fn admit(&mut self) {
        let decode_lanes = self.config.lanes;
        let mut blocked: Vec<Pool> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let job = &self.queue[i];
            let (id, tenant) = (job.req.id, job.req.tenant);
            let (pool, lanes) = match job.landed {
                _ if self.config.disagg.is_none() => (Pool::Decode, 0..decode_lanes),
                Some(lane) => (Pool::Lane(lane), lane..lane + 1),
                None if job.tokens.is_empty() => (Pool::Prefill, decode_lanes..self.lanes),
                None => (Pool::Decode, 0..decode_lanes),
            };
            if blocked.contains(&pool) {
                i += 1;
                continue;
            }
            let need = job.next_resident_tokens(0) * self.kv_bytes;
            if job.landed.is_none() && need > self.config.kv_capacity_bytes {
                self.queue.remove(i);
                self.shed(id, tenant, ShedReason::KvCapacity);
                continue;
            }
            let emptiest = lanes
                .map(|lane| (self.members(lane).count(), lane))
                .filter(|&(members, _)| members < self.config.max_batch)
                .min();
            if let Some((_, lane)) = emptiest {
                let mut job = self.queue.remove(i).expect("index in range");
                job.lane = lane;
                self.push_event(self.now, id, EventKind::Admit { lane });
                self.active.insert(id, job);
            } else {
                blocked.push(pool);
                i += 1;
            }
        }
    }

    /// Phase 5, one relief action if `lane`'s after-step working set
    /// overflows: LRU eviction (least-recently-stepped, ties by id), or
    /// shedding a lone member that can never fit. False once it fits.
    fn relieve(&mut self, lane: u32) -> bool {
        // What the lane holds (members, landed-but-queued prefixes and
        // inbound reservations), plus its running members' growth.
        let mut needed = self.lane_tokens[lane as usize];
        let mut members = 0usize;
        for j in self.members(lane) {
            needed += j.next_resident_tokens(j.kv_tokens) - j.kv_tokens;
            members += 1;
        }
        if needed * self.kv_bytes <= self.config.kv_capacity_bytes {
            return false;
        }
        // Displace an idle landed prefix (latest first) before
        // preempting a running member: the queued job just falls back
        // to lineage re-prefill.
        let idle = self.queue.iter_mut().filter(|j| j.landed == Some(lane));
        let victim = if let Some(job) = idle.max_by_key(|j| (j.enqueued_at, j.req.id)) {
            job.lose_kv(&mut self.lane_tokens, lane, ReprefillCause::Eviction);
            job.req.id
        } else if members == 0 {
            return false;
        } else if members == 1 {
            let lone = self.members(lane).next().expect("counted above");
            let (id, tenant) = (lone.req.id, lone.req.tenant);
            let mut job = self.active.remove(&id).expect("lone member is active");
            job.hold_kv(&mut self.lane_tokens, lane, 0);
            self.shed(id, tenant, ShedReason::KvCapacity);
            return false;
        } else {
            let lru = self.members(lane).min_by_key(|j| (j.last_step, j.req.id));
            let id = lru.expect("members >= 2").req.id;
            let mut job = self.active.remove(&id).expect("victim is active");
            job.lose_kv(&mut self.lane_tokens, lane, ReprefillCause::Eviction);
            job.enqueued_at = self.now;
            self.queue.push_back(job);
            id
        };
        self.report.preemptions += 1;
        self.push_event(self.now, victim, EventKind::Preempt);
        true
    }

    /// Phase 6: price each busy lane's batched step on the roofline
    /// model, degraded through the fault schedule (derate, jitter, and a
    /// stall until a severed link is back). Returns the barrier.
    fn price(&mut self) -> Nanos {
        let c = self.config;
        let mut priced = Vec::new();
        for lane in 0..self.lanes {
            let mut work = StepWork::default();
            let mut members = Vec::new();
            for job in self.members(lane) {
                let resident = job.kv_tokens;
                let phase = if resident > 0 {
                    work.decode_members += 1;
                    work.kv_resident_tokens += resident;
                    MemberPhase::Decode
                } else {
                    work.prefill_members += 1;
                    work.prefill_tokens += job.next_resident_tokens(0);
                    match job.tokens.is_empty() {
                        true => MemberPhase::Prefill,
                        false => MemberPhase::Reprefill,
                    }
                };
                let request = job.req.id;
                members.push(StepMember { request, phase });
            }
            if members.is_empty() {
                continue;
            }
            let (spec, fabric) = &self.shard;
            let (cost, collective_s, fabric_payload_s) = sharded_step_time(
                self.model.config(),
                &work,
                &c.gpu,
                &c.client,
                c.batched,
                spec,
                fabric,
            );
            let mut secs = cost.total_s() + collective_s;
            if let Some(plan) = &c.fault_plan {
                let host = host(lane);
                let (derate, jitter_s) = plan.link_condition(&mut self.chaos_rng, 0, host);
                // The fabric has no host pair of its own: collectives
                // take the client pair's derate.
                secs = cost.compute_s + (cost.network_s + collective_s) / derate + jitter_s;
                let stall = plan.clear_at(0, host, self.now).saturating_sub(self.now);
                secs += stall.as_secs_f64();
            }
            priced.push((lane, cost, collective_s, fabric_payload_s, secs, members));
        }
        let step_secs = priced.iter().map(|p| p.4).fold(0.0f64, f64::max);
        let step_end = self.now + Nanos::from_secs_f64(step_secs);
        // Each slice runs to the *global* barrier end: the residue in a
        // faster lane's slice is synchronization wait, which blame
        // analysis charges to queue. All time over the clean cost is fault.
        for (lane, cost, collective_s, fabric_payload_s, secs, members) in priced {
            let slice = StepSlice::from_secs(
                lane,
                self.report.steps,
                self.now.0,
                step_end.0,
                cost.compute_s,
                cost.net_latency_s,
                cost.net_payload_s,
                (secs - (cost.total_s() + collective_s)).max(0.0),
                members,
            );
            let slice = slice.with_collective(collective_s, fabric_payload_s);
            self.report.slices.push(slice);
        }
        step_end
    }

    /// Phase 7: execute every member — prefill (fresh or re-prefill) or
    /// one incremental decode step. Returns the jobs now complete.
    fn execute(&mut self, step_end: Nanos) -> Vec<(u64, u32)> {
        // This step's slices are its roster, by lane then ascending id.
        let priced = (self.report.slices).partition_point(|s| s.step < self.report.steps);
        let mut finished = Vec::new();
        for s in priced..self.report.slices.len() {
            let mut decoded = self.decode_lane(s).into_iter();
            let lane = self.report.slices[s].lane;
            for m in 0..self.report.slices[s].members.len() {
                let StepMember { request: id, phase } = self.report.slices[s].members[m];
                let done = match phase {
                    MemberPhase::Decode => self.decode_member(lane, id, decoded.next(), step_end),
                    _ => self.prefill_member(lane, id, step_end),
                };
                if done {
                    finished.push((id, lane));
                }
            }
        }
        finished
    }

    /// Slice `s`'s decoding members stepped as one graph, in member order:
    /// the batched step `price` charged the lane. Empty on the spec plane,
    /// whose members synthesize their tokens.
    fn decode_lane(&self, s: usize) -> Vec<(i64, KvState)> {
        let ServingModel::Functional(m) = self.model else {
            return Vec::new();
        };
        let members = self.report.slices[s].members.iter();
        let steps: Vec<(i64, &KvState)> = (members.filter(|m| m.phase == MemberPhase::Decode))
            .map(|m| {
                let job = &self.active[&m.request];
                let last = *job.tokens.last().expect("resident implies generated");
                (last, job.kv.as_ref().expect("functional resident KV"))
            })
            .collect();
        m.decode_batch(&steps)
    }

    /// Build `id`'s KV over prompt + all but the last generated token.
    /// A re-prefill's sample reproduces the generated prefix tail (the
    /// differential suite catches divergence) and is dropped.
    fn prefill_member(&mut self, lane: u32, id: u64, step_end: Nanos) -> bool {
        let job = self.active.get_mut(&id).expect("rostered");
        job.last_step = self.report.steps + 1;
        let generated = job.tokens.len();
        let mut seq = job.req.prompt.clone();
        seq.extend_from_slice(&job.tokens[..generated.saturating_sub(1)]);
        let sampled = match self.model {
            ServingModel::Functional(m) => {
                let (token, kv) = m.prefill_step(&seq);
                job.kv = Some(kv);
                token
            }
            ServingModel::Spec(_) => synth_token(self.model.config(), id, 0),
        };
        if generated == 0 {
            job.tokens.push(sampled);
            job.ttft = Some(step_end.saturating_sub(job.req.arrival));
            let done = job.tokens.len() >= job.req.total_tokens;
            job.hold_kv(&mut self.lane_tokens, lane, seq.len() as u64);
            self.push_event(step_end, id, EventKind::Token { value: sampled });
            return done;
        }
        let done = job.tokens.len() >= job.req.total_tokens;
        *job.reprefill_cause.counter(&mut self.report) += 1;
        self.report.reprefills += 1;
        job.hold_kv(&mut self.lane_tokens, lane, seq.len() as u64);
        self.push_event(self.now, id, EventKind::Reprefill);
        done
    }

    /// Take `id`'s next token: `decoded` on the functional plane.
    fn decode_member(
        &mut self,
        lane: u32,
        id: u64,
        decoded: Option<(i64, KvState)>,
        step_end: Nanos,
    ) -> bool {
        let job = self.active.get_mut(&id).expect("rostered");
        job.last_step = self.report.steps + 1;
        let value = match decoded {
            Some((token, kv)) => {
                job.kv = Some(kv);
                token
            }
            None => synth_token(self.model.config(), id, job.tokens.len()),
        };
        job.tokens.push(value);
        let done = job.tokens.len() >= job.req.total_tokens;
        job.hold_kv(&mut self.lane_tokens, lane, job.kv_tokens + 1);
        self.push_event(step_end, id, EventKind::Token { value });
        done
    }

    /// Phase 8: retire completions — free KV, record outcomes.
    fn retire(&mut self, finished: Vec<(u64, u32)>, step_end: Nanos) {
        for (id, lane) in finished {
            let mut job = self.active.remove(&id).expect("finished job is active");
            job.hold_kv(&mut self.lane_tokens, lane, 0);
            let ttft = job.ttft.expect("completed implies first token");
            let late = ttft > TTFT_TARGET;
            self.slo.observe(job.req.tenant, late);
            let outcome = Outcome::Completed {
                tokens: job.tokens,
                ttft,
                finished: step_end,
            };
            self.report.outcomes.insert(id, outcome);
            self.push_event(step_end, id, EventKind::Complete);
        }
    }

    /// Phase 8b: every request still active on a prefill lane finished
    /// its prefill and leaves for the decode pool. Its KV prefix ships
    /// to the least-loaded decode lane that fits it (ties: lowest) if
    /// the policy agrees; else it is rebuilt there from lineage. The
    /// auditor (`audit.rs`) derives the unlogged drop of a prefix that
    /// stays off the fabric from this phase's place, after `retire`, and
    /// its order, ascending request id: change either in both.
    fn depart_prefills(&mut self, step_end: Nanos) {
        let Some(policy) = self.config.disagg.as_ref().map(|d| d.policy) else {
            return;
        };
        let mut leaving = Vec::new();
        for job in self.active.values().filter(|j| j.lane >= self.config.lanes) {
            leaving.push(job.req.id);
        }
        for id in leaving {
            let mut job = self.active.remove(&id).expect("leaving job is active");
            let from = job.lane;
            let (tokens, room) = (job.kv_tokens, self.config.kv_capacity_bytes / self.kv_bytes);
            let lanes = (0..self.config.lanes).map(|lane| (self.lane_tokens[lane as usize], lane));
            let fits = lanes
                .filter(|&(held, _)| held + tokens <= room)
                .min()
                .map(|(_, l)| l);
            let ship_to = fits.filter(|&to| match policy {
                MigrationPolicy::AlwaysReprefill => false,
                MigrationPolicy::AlwaysShip => true,
                MigrationPolicy::Planner => self.plan_ships(id, from, to, tokens),
            });
            match ship_to {
                Some(to) => self.ship(job, to, tokens, step_end),
                None => {
                    job.lose_kv(&mut self.lane_tokens, from, ReprefillCause::Planned);
                    job.enqueued_at = step_end;
                    self.queue.push_back(job);
                }
            }
        }
    }

    /// Price `id`'s prefix both ways; true when shipping is no dearer.
    /// A recorded run stamps the verdict on the wall clock as a `kv.plan`
    /// instant — the one record that is not a projection of the report.
    fn plan_ships(&self, id: u64, from: u32, to: u32, kv_tokens: u64) -> bool {
        let link = self.migrate_link.as_ref().expect("disaggregated");
        let price = price_migration(self.model.config(), &self.config.gpu, link, kv_tokens);
        if self.config.record_telemetry {
            let attrs = SemAttrs::new()
                .request(id)
                .with("from", from.to_string())
                .with("to", to.to_string())
                .with("kv_tokens", kv_tokens.to_string())
                .with("ship_s", format!("{:.6}", price.ship_s))
                .with("reprefill_s", format!("{:.6}", price.reprefill_s))
                .with("decision", if price.ships() { "Ship" } else { "Reprefill" });
            let collector = &genie_telemetry::global().collector;
            collector.instant("kv.plan", "scheduler", attrs);
        }
        price.ships()
    }

    /// Put `job`'s prefix on the fabric: real simulated link traffic,
    /// resolved now through the fault schedule, landing via the agenda.
    fn ship(&mut self, mut job: Job, to: u32, tokens: u64, step_end: Nanos) {
        let d = self.config.disagg.as_ref().expect("disaggregated");
        let (id, from) = (job.req.id, job.lane);
        // Freed at the source, reserved at the destination.
        job.hold_kv(&mut self.lane_tokens, from, 0);
        job.lane = to;
        job.hold_kv(&mut self.lane_tokens, to, tokens);
        let bytes = tokens * self.kv_bytes;
        let no_faults = FaultPlan::none();
        let plan = self.config.fault_plan.as_ref().unwrap_or(&no_faults);
        let outcome = plan.transfer_outcome(
            &mut self.chaos_rng,
            host(from),
            host(to),
            bytes,
            d.migration.bandwidth_bps,
            d.migration.latency_s,
            step_end,
        );
        self.report.migrations += 1;
        self.push_event(step_end, id, EventKind::MigrateStart { from, to, bytes });
        let (until, intact) = match outcome {
            TransferOutcome::Delivered { done_at } => (done_at, true),
            TransferOutcome::Lost { at } => (at, false),
        };
        self.agenda
            .schedule(until, (true, id), Event::Land(job, intact));
    }

    /// Phase 9: the clock advances to the barrier.
    fn end_step(&mut self, step_end: Nanos) {
        self.now = step_end;
        self.report.steps += 1;
        assert!(self.report.steps < 10_000_000, "run failed to converge");
    }

    /// Close the run: totals. Every change that can raise the resident
    /// total is logged right after it, so the peak is the largest stamp.
    fn finish(mut self) -> ServingReport {
        // Every lane of an idle fleet has batch headroom: nothing waits.
        assert!(self.queue.is_empty(), "drained out with jobs queued");
        self.report.makespan = self.now;
        let stamps = self.report.events.iter().map(|e| e.kv_resident_bytes);
        self.report.peak_kv_bytes = stamps.max().unwrap_or(0);
        self.report.slo = self.slo.stats();
        self.report
    }
}

/// Lane `lane`'s host in a fault plan ([`ServingConfig::fault_plan`]).
fn host(lane: u32) -> u32 {
    1 + lane
}

/// Deterministic synthetic token for the spec plane: a fixed mix of
/// request id and position, reduced into the vocabulary.
fn synth_token(cfg: &TransformerConfig, id: u64, position: usize) -> i64 {
    let mixed = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(position as u64 * 31 + 7);
    (mixed % cfg.vocab as u64) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalConfig;

    fn burst(n: u64, prompt_len: usize, total: usize) -> Vec<ServingRequest> {
        (1..=n)
            .map(|id| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::ZERO,
                prompt: (0..prompt_len)
                    .map(|i| (id as i64 + i as i64) % 32)
                    .collect(),
                total_tokens: total,
            })
            .collect()
    }

    fn spec_config() -> ServingConfig {
        let mut c = ServingConfig::paper_testbed();
        c.record_telemetry = false;
        c
    }

    /// `ServingLoop::new` over a disaggregated `spec_config()` after `edit`.
    fn build(edit: impl FnOnce(&mut ServingConfig, &mut DisaggConfig)) {
        let (mut c, mut d) = (spec_config(), DisaggConfig::paper_testbed(1));
        edit(&mut c, &mut d);
        c.disagg = Some(d);
        ServingLoop::new(ServingModel::Spec(TransformerConfig::tiny()), c);
    }

    #[test]
    #[should_panic(expected = "client link needs a finite bandwidth > 0")]
    fn a_client_link_without_bandwidth_is_rejected() {
        // Used to wedge: an infinite `net_payload_s` saturates the step
        // to `u64::MAX` ns in release and virtual time runs backwards.
        build(|c, _| c.client.bandwidth_bps = 0.0);
    }

    #[test]
    #[should_panic(expected = "client link needs a finite bandwidth > 0")]
    fn a_non_finite_client_latency_is_rejected() {
        build(|c, _| c.client.latency_s = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "fabric link needs a finite bandwidth > 0")]
    fn a_fabric_without_bandwidth_is_rejected() {
        // Would wedge the clock exactly like a client link without one.
        build(|c, _| c.shard = Some((ShardSpec::tensor(2), Link::new(0.0, 5e-6))));
    }

    #[test]
    #[should_panic(expected = "ShardSpec factors must be >= 1, got 0 x 2")]
    fn a_shard_spec_with_a_zero_factor_is_rejected() {
        // Used to be priced silently as one device: `shards() == 0`.
        build(|c, _| c.shard = Some((ShardSpec::new(0, 2), c.client)));
    }

    #[test]
    #[should_panic(expected = "device needs finite positive rates")]
    fn a_device_without_memory_bandwidth_is_rejected() {
        build(|c, _| c.gpu.mem_bandwidth = 0.0);
    }

    #[test]
    #[should_panic(expected = "migration link needs a finite bandwidth > 0")]
    fn an_infinite_migration_bandwidth_is_rejected() {
        build(|_, d| d.migration.bandwidth_bps = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "migration link needs a finite bandwidth > 0")]
    fn a_negative_migration_latency_is_rejected() {
        build(|_, d| d.migration.latency_s = -1e-6);
    }

    #[test]
    fn spec_burst_completes_everyone() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(6, 16, 8);
        let report = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run_audited(&reqs);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.shed(), 0);
        assert_eq!(report.tokens_generated(), 6 * 8);
        assert!(report.makespan > Nanos::ZERO);
        assert!(report.steps >= 8, "8 decode rounds minimum");
        for id in 1..=6 {
            assert_eq!(report.tokens_for(id).map(<[i64]>::len), Some(8));
        }
    }

    #[test]
    fn causal_slices_and_slo_are_recorded() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(4, 16, 8);
        let report = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run_audited(&reqs);
        assert!(!report.slices.is_empty(), "busy lanes record slices");
        let blame = genie_telemetry::causal::analyze(&report.causal_doc());
        assert_eq!(blame.requests.len(), 4);
        for r in &blame.requests {
            assert!(
                (r.fractions.sum() - 1.0).abs() < 1e-6,
                "blame fractions tile: {:?}",
                r.fractions
            );
        }
        let slo = &report.slo.per_tenant[&0];
        assert_eq!(slo.observed, 4, "every completion observed");
        assert!(
            report
                .spans()
                .iter()
                .any(|s| s.category == "causal" && s.attrs.request.is_some()),
            "lifecycle instants attributed to requests"
        );
    }

    #[test]
    fn batched_pricing_beats_sequential() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(8, 16, 16);
        let batched =
            ServingLoop::new(ServingModel::Spec(cfg.clone()), spec_config()).run_audited(&reqs);
        let mut seq_cfg = spec_config();
        seq_cfg.batched = false;
        let sequential = ServingLoop::new(ServingModel::Spec(cfg), seq_cfg).run_audited(&reqs);
        assert!(
            batched.tokens_per_s() > 2.0 * sequential.tokens_per_s(),
            "batching must amortize weight reads: {} vs {}",
            batched.tokens_per_s(),
            sequential.tokens_per_s()
        );
    }

    #[test]
    fn sharded_lane_records_collective_blame_and_beats_one_device() {
        // A fast local fabric (100 Gbps / 5 µs) where 2-way tensor
        // parallelism should win despite the collective tax.
        let fast = |shard: Option<ShardSpec>| {
            let mut c = spec_config();
            c.client = Link::new(100e9, 5e-6);
            c.shard = shard.map(|spec| (spec, c.client));
            c
        };
        let reqs = burst(8, 16, 16);
        let cfg = TransformerConfig::gptj_6b();
        let sharded = ServingLoop::new(
            ServingModel::Spec(cfg.clone()),
            fast(Some(ShardSpec::tensor(2))),
        )
        .run_audited(&reqs);
        let flat = ServingLoop::new(ServingModel::Spec(cfg), fast(None)).run_audited(&reqs);
        assert_eq!(sharded.completed(), 8);

        // Collective time is recorded on the slices and surfaces as its
        // own blame category, with the tiling invariant intact.
        assert!(
            sharded.slices.iter().any(|s| s.collective_ns > 0),
            "sharded steps must attribute collective time"
        );
        assert!(flat.slices.iter().all(|s| s.collective_ns == 0));
        let blame = genie_telemetry::causal::analyze(&sharded.causal_doc());
        let mut saw_collective = false;
        for r in &blame.requests {
            assert!(
                (r.fractions.sum() - 1.0).abs() < 1e-6,
                "blame fractions tile: {:?}",
                r.fractions
            );
            saw_collective |= r.fractions.collective > 0.0;
        }
        assert!(saw_collective, "collective blame must be attributed");

        // Two devices stream half the weights each: faster end-to-end.
        assert!(
            sharded.makespan < flat.makespan,
            "2-way TP on a fast fabric must beat one device: {:?} vs {:?}",
            sharded.makespan,
            flat.makespan
        );
    }

    #[test]
    fn paper_fabric_latency_erodes_the_sharding_win() {
        // Same sweep on the paper's 25 Gbps / 250 µs testbed: every
        // per-layer collective pays the fabric round trip, so 2-way TP
        // loses more to latency than it gains from the split weight
        // stream — the paper's disaggregation-tax argument, quantified.
        let reqs = burst(8, 16, 16);
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = spec_config();
        conf.shard = Some((ShardSpec::tensor(2), conf.client));
        let sharded = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf).run_audited(&reqs);
        let flat = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run_audited(&reqs);
        assert!(
            sharded.makespan > flat.makespan,
            "250 µs collectives must erase the TP win: {:?} vs {:?}",
            sharded.makespan,
            flat.makespan
        );
    }

    #[test]
    fn the_fabric_not_the_client_link_prices_collectives() {
        // A tp2 lane on a 100 Gbps / 5 µs rack fabric behind the paper's
        // 25 Gbps / 250 µs client link.
        let (tp2, fabric) = (ShardSpec::tensor(2), Link::new(100e9, 5e-6));
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(8, 16, 16);
        let mut conf = spec_config();
        conf.shard = Some((tp2, fabric));
        let sharded = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf).run_audited(&reqs);
        let flat =
            ServingLoop::new(ServingModel::Spec(cfg.clone()), spec_config()).run_audited(&reqs);
        assert_eq!(sharded.completed(), 8);
        let (client, gpu) = (Link::PAPER_TESTBED, GpuSpec::a100_80gb());
        for slice in &sharded.slices {
            // Collectives move the new tokens' activations: resident KV
            // does not enter them, so the members alone re-price them.
            let mut work = StepWork::default();
            for m in &slice.members {
                match m.phase {
                    MemberPhase::Decode => work.decode_members += 1,
                    MemberPhase::Prefill => {
                        work.prefill_members += 1;
                        work.prefill_tokens += 16;
                    }
                    MemberPhase::Reprefill => panic!("nothing is evicted from 8 GiB"),
                }
            }
            let collectives = |fabric: &Link| {
                let (_, secs, payload) =
                    sharded_step_time(&cfg, &work, &gpu, &client, true, &tp2, fabric);
                (secs, payload)
            };
            let (on_fabric, payload) = collectives(&fabric);
            let unpriced = StepSlice {
                collective_ns: 0,
                collective_payload_ns: 0,
                ..slice.clone()
            };
            let step = slice.step;
            assert_eq!(
                unpriced.with_collective(on_fabric, payload),
                *slice,
                "step {step}"
            );
            let on_client = collectives(&client).0;
            assert_ne!(
                on_client, on_fabric,
                "step {step}: the client link is not the fabric"
            );
        }
        assert!(
            sharded.makespan < flat.makespan,
            "tp2 on a rack fabric must beat one device behind the same client link: {:?} vs {:?}",
            sharded.makespan,
            flat.makespan
        );
    }

    /// Blame for `burst(8, 16, 16)` on a GPT-J tp2 lane whose client link
    /// is also its fabric.
    fn tp2_blame(link: Link) -> genie_telemetry::causal::BlameReport {
        let mut c = spec_config();
        c.client = link;
        c.shard = Some((ShardSpec::tensor(2), link));
        let model = ServingModel::Spec(TransformerConfig::gptj_6b());
        let report = ServingLoop::new(model, c).run_audited(&burst(8, 16, 16));
        genie_telemetry::causal::analyze(&report.causal_doc())
    }

    #[test]
    fn a_faster_link_removes_bytes_not_round_trips() {
        use genie_telemetry::causal::WhatIf;
        // Paper fabric: 56 × 250 µs of every step's collective time is
        // round latency. A link of unbounded bandwidth removes the
        // serialization of payload and collectives, and nothing else.
        for r in &tp2_blame(Link::PAPER_TESTBED).requests {
            let b = &r.blame;
            let removed = r.ttlt_ns - WhatIf::link_bandwidth(1e9).replay(r);
            assert_eq!(removed, b.net_payload_ns + b.collective_payload_ns);
            assert!(
                b.collective_payload_ns > 0 && b.collective_payload_ns * 10 < b.collective_ns,
                "serialization is a small share of {b:?}"
            );
        }
        // Rack fabric: doubling the link is what re-pricing every step
        // at 200 Gbps gives, within 1 ns per step.
        let doubled = tp2_blame(Link::new(200e9, 5e-6));
        for (r, faster) in tp2_blame(Link::new(100e9, 5e-6))
            .requests
            .iter()
            .zip(&doubled.requests)
        {
            let predicted = WhatIf::link_bandwidth(2.0).replay(r);
            let steps = r.critical_path.len() as u64;
            assert!(
                predicted.abs_diff(faster.ttlt_ns) <= steps,
                "request {}: predicted {predicted} ns, re-priced {} ns",
                r.request,
                faster.ttlt_ns
            );
        }
    }

    #[test]
    fn queue_full_and_slo_shedding_are_typed() {
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = spec_config();
        conf.max_batch = 1;
        conf.max_queue = 2;
        conf.queue_budget = Nanos::from_millis(1);
        let reqs = burst(8, 16, 64);
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run_audited(&reqs);
        assert_eq!(report.outcomes.len(), 8, "every request terminal");
        assert!(report.shed() >= 5, "overload must shed: {}", report.shed());
        let reasons: Vec<ShedReason> = report
            .outcomes
            .values()
            .filter_map(|o| match o {
                Outcome::Shed { reason, .. } => Some(*reason),
                Outcome::Completed { .. } => None,
            })
            .collect();
        assert!(reasons.contains(&ShedReason::QueueFull));
    }

    #[test]
    fn oversized_request_sheds_for_kv_capacity() {
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = spec_config();
        // Capacity below even one request's prompt KV.
        conf.kv_capacity_bytes = cfg.kv_bytes_per_token() * 4;
        let reqs = burst(2, 16, 4);
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run_audited(&reqs);
        assert_eq!(report.completed(), 0);
        assert!(report.outcomes.values().all(|o| matches!(
            o,
            Outcome::Shed {
                reason: ShedReason::KvCapacity,
                ..
            }
        )));
    }

    #[test]
    fn kv_pressure_preempts_and_recovers_in_spec_plane() {
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = spec_config();
        conf.max_batch = 2;
        // Both requests fit at admission, but their KV grows past the
        // capacity mid-decode: the LRU evictor must preempt one *after*
        // it has generated tokens, forcing a genuine re-prefill later.
        conf.kv_capacity_bytes = cfg.kv_bytes_per_token() * 20;
        conf.queue_budget = Nanos::from_secs_f64(30.0);
        let capacity = conf.kv_capacity_bytes;
        let reqs = burst(2, 4, 16);
        let report =
            ServingLoop::new(ServingModel::Spec(cfg.clone()), conf.clone()).run_audited(&reqs);
        assert_eq!(report.completed(), 2, "{:?}", report.outcomes);
        assert!(report.preemptions >= 1, "pressure must evict");
        assert!(report.reprefills >= 1, "evictees must re-prefill");
        assert!(report.peak_kv_bytes <= capacity, "ledger bound");

        // A lone re-prefill is priced as one prefill over prompt + the
        // tokens generated before the eviction − 1 (`ablation_lineage`
        // prices recovery by this shape).
        let mut lone = 0;
        for slice in &report.slices {
            let [member] = slice.members[..] else {
                continue;
            };
            if member.phase != MemberPhase::Reprefill {
                continue;
            }
            let events = report.events.iter().filter(|e| e.request == member.request);
            let generated = events
                .take_while(|e| !matches!(e.kind, EventKind::Preempt))
                .filter(|e| matches!(e.kind, EventKind::Token { .. }))
                .count();
            let req = reqs.iter().find(|r| r.id == member.request);
            let work = StepWork {
                prefill_members: 1,
                prefill_tokens: (req.expect("offered").prompt.len() + generated - 1) as u64,
                ..StepWork::default()
            };
            let price = genie_backend::batched_step_time(
                &cfg,
                &work,
                &conf.gpu,
                conf.client.bandwidth_bps,
                conf.client.latency_s,
                true,
            );
            assert_eq!(slice.compute_ns, (price.compute_s * 1e9).round() as u64);
            lone += 1;
        }
        assert!(lone >= 1, "an evictee re-prefills alone");
    }

    #[test]
    fn same_seed_replays_identically() {
        let arr = ArrivalConfig {
            seed: 11,
            rate_per_s: 40.0,
            horizon: Nanos::from_secs_f64(0.5),
            prompt_len: (4, 12),
            decode_tokens: (2, 8),
            vocab: 50400,
            tenants: 3,
        };
        let cfg = TransformerConfig::gptj_6b();
        let reqs = arr.generate();
        let a = ServingLoop::new(ServingModel::Spec(cfg.clone()), spec_config()).run_audited(&reqs);
        let b = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run_audited(&reqs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.spans().len(), b.spans().len());
    }

    fn disagg_config(policy: MigrationPolicy) -> ServingConfig {
        let mut c = spec_config();
        c.lanes = 1;
        let mut d = DisaggConfig::paper_testbed(1);
        d.policy = policy;
        c.disagg = Some(d);
        c
    }

    #[test]
    fn disagg_ships_every_prefix_and_completes() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(6, 64, 8);
        let report = ServingLoop::new(
            ServingModel::Spec(cfg),
            disagg_config(MigrationPolicy::AlwaysShip),
        )
        .run_audited(&reqs);
        assert_eq!(report.completed(), 6, "{:?}", report.outcomes);
        assert_eq!(report.migrations, 6);
        assert_eq!(report.migrations_completed, 6);
        assert_eq!(report.migrations_failed, 0);
        assert!(report.migrated_kv_bytes > 0);
        assert_eq!(
            report
                .spans()
                .iter()
                .filter(|s| s.name == "kv.migrate")
                .count(),
            6,
            "one migration span per shipped prefix"
        );
        let starts = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrateStart { .. }))
            .count();
        let dones = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrateDone { .. }))
            .count();
        assert_eq!((starts, dones), (6, 6));
    }

    #[test]
    fn always_reprefill_is_the_migration_free_baseline() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(6, 64, 8);
        let report = ServingLoop::new(
            ServingModel::Spec(cfg),
            disagg_config(MigrationPolicy::AlwaysReprefill),
        )
        .run_audited(&reqs);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migrated_kv_bytes, 0);
        assert_eq!(report.reprefills_planned, 6);
        assert_eq!(
            report.reprefills,
            report.reprefills_planned + report.reprefills_evicted + report.reprefills_migration,
            "cause counters partition the re-prefill total"
        );
    }

    #[test]
    fn planner_ships_short_prefixes_and_recomputes_long_ones() {
        // On the engine's unit-efficiency roofline with a 25 Gbps
        // fabric, per-token recompute (~39 µs) undercuts the wire
        // (~147 µs/token) once the prefix amortizes the 12.1 GB
        // weight-read floor (~6 ms): short prompts ship, long re-prefill.
        let cfg = TransformerConfig::gptj_6b();
        let conf = disagg_config(MigrationPolicy::Planner);
        let short = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf.clone())
            .run_audited(&burst(4, 16, 4));
        assert_eq!(short.completed(), 4);
        assert_eq!(short.migrations, 4, "16-token prefixes ship");
        assert_eq!(short.reprefills_planned, 0);
        let long = ServingLoop::new(ServingModel::Spec(cfg), conf).run_audited(&burst(4, 512, 4));
        assert_eq!(long.completed(), 4);
        assert_eq!(long.migrations, 0, "512-token prefixes recompute");
        assert_eq!(long.reprefills_planned, 4);
    }

    #[test]
    fn lost_migration_falls_back_to_lineage_reprefill() {
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = disagg_config(MigrationPolicy::AlwaysShip);
        // Sever the prefill(lane 1, host 2) ↔ decode(lane 0, host 1)
        // link for the whole first second: every early migration dies.
        conf.fault_plan = Some(FaultPlan::new(
            9,
            vec![genie_netsim::FaultSpec::LinkDown {
                a: 1,
                b: 2,
                from: Nanos::ZERO,
                until: Nanos::from_secs_f64(1.0),
            }],
        ));
        conf.queue_budget = Nanos::from_secs_f64(30.0);
        let reqs = burst(4, 64, 8);
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run_audited(&reqs);
        assert_eq!(report.completed(), 4, "{:?}", report.outcomes);
        assert!(report.migrations_failed >= 1, "outage must sever transfers");
        assert_eq!(report.reprefills_migration, report.migrations_failed);
        assert_eq!(
            report.migrations,
            report.migrations_completed + report.migrations_failed
        );
        let fails = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MigrateFail { .. }))
            .count() as u64;
        assert_eq!(fails, report.migrations_failed);
    }

    #[test]
    fn disagg_same_seed_replays_identically() {
        let arr = ArrivalConfig {
            seed: 23,
            rate_per_s: 40.0,
            horizon: Nanos::from_secs_f64(0.5),
            prompt_len: (4, 48),
            decode_tokens: (2, 8),
            vocab: 50400,
            tenants: 2,
        };
        let cfg = TransformerConfig::gptj_6b();
        let conf = disagg_config(MigrationPolicy::Planner);
        let reqs = arr.generate();
        let a = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf.clone()).run_audited(&reqs);
        let b = ServingLoop::new(ServingModel::Spec(cfg), conf).run_audited(&reqs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.spans().len(), b.spans().len());
    }

    #[test]
    fn functional_matches_generate_for_a_solo_request() {
        let m = TransformerLm::new_functional(TransformerConfig::tiny(), 42);
        let prompt = vec![1, 2, 3];
        let oracle = m.generate(&prompt, 5);
        let reqs = vec![ServingRequest {
            id: 1,
            tenant: 0,
            arrival: Nanos::ZERO,
            prompt,
            total_tokens: 5,
        }];
        let report =
            ServingLoop::new(ServingModel::Functional(m), spec_config()).run_audited(&reqs);
        assert_eq!(report.tokens_for(1), Some(oracle.as_slice()));
    }
}
