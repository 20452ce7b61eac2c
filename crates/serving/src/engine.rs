//! The continuous-batching serving loop.
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
//! Determinism contract: no wall clock, no global RNG, `BTreeMap`
//! iteration everywhere ties break by request id. Same requests + same
//! config ⇒ byte-identical event log, a property the test suite replays.

use crate::kv::KvLedger;
use crate::report::ServingReport;
use crate::request::{EventKind, LogEvent, Outcome, ServingRequest, ShedReason};
use crate::slo::{SloConfig, SloTracker};
use genie_backend::{batched_step_time, sharded_step_time, ShardPlan, StepWork};
use genie_cluster::GpuSpec;
use genie_models::{KvState, TransformerConfig, TransformerLm};
use genie_netsim::{FaultPlan, FaultSpec, Nanos, TransferOutcome, XorShift64};
use genie_scheduler::{CostModel, KvMigrationPlanner, MigrationDecision};
use genie_srg::shard::ShardSpec;
use genie_telemetry::causal::{MemberPhase, StepMember, StepSlice};
use genie_telemetry::{SemAttrs, SpanKind, SpanRecord, Track, DEFAULT_TIME_BOUNDS};
use std::collections::{BTreeMap, VecDeque};

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

    /// Whether this plane executes real arithmetic.
    pub fn is_functional(&self) -> bool {
        matches!(self, ServingModel::Functional(_))
    }
}

/// How a finished prefill's KV prefix reaches the decode pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Price ship-vs-reprefill per request with the calibrated
    /// [`KvMigrationPlanner`] and take the cheaper side.
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
    /// [`ServingConfig::lanes`] decode lanes. Lane indices
    /// `lanes..lanes + prefill_lanes`; host ids follow the same
    /// `1 + lane` mapping as decode lanes.
    pub prefill_lanes: u32,
    /// Prefill↔decode fabric bandwidth in bits/s.
    pub migrate_bandwidth_bps: f64,
    /// Prefill↔decode one-way latency in seconds.
    pub migrate_latency_s: f64,
    /// Ship-vs-reprefill policy.
    pub policy: MigrationPolicy,
}

impl DisaggConfig {
    /// `prefill_lanes` prefill hosts on the paper's 25 Gbps / 250 µs
    /// fabric, planner-priced migrations.
    pub fn paper_testbed(prefill_lanes: u32) -> Self {
        DisaggConfig {
            prefill_lanes,
            migrate_bandwidth_bps: 25e9,
            migrate_latency_s: 250e-6,
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
    /// Client↔server link bandwidth in bits/s.
    pub link_bandwidth_bps: f64,
    /// Client↔server one-way link latency in seconds.
    pub link_latency_s: f64,
    /// Optional fault schedule; lane `l` maps to the link between host 0
    /// (client) and host `1 + l` (its server). Migrations between lanes
    /// `a` and `b` travel the `(1 + a, 1 + b)` link.
    pub fault_plan: Option<FaultPlan>,
    /// Prefill/decode disaggregation (colocated serving when `None`).
    pub disagg: Option<DisaggConfig>,
    /// Shard each lane's model across fabric-attached devices
    /// (`pipeline_stages × tensor_parallel`); `None` keeps one device
    /// per lane. Collective traffic rides the same link the lane uses
    /// and is blamed to the `collective` causal category.
    pub shard: Option<ShardSpec>,
    /// Per-tenant SLO policy for burn-rate accounting (TTFT target,
    /// error budget, rolling window, sampling).
    pub slo: SloConfig,
    /// Record `genie_serving_*` metrics and spans into the process-global
    /// telemetry sinks (the report always carries its own copies).
    pub record_telemetry: bool,
}

impl ServingConfig {
    /// One A100 lane behind the paper's 25 Gbps / 250 µs testbed link,
    /// batch 8, 8 GiB of KV, a 2 s queue budget.
    pub fn paper_testbed() -> Self {
        ServingConfig {
            lanes: 1,
            max_batch: 8,
            batched: true,
            kv_capacity_bytes: 8 << 30,
            queue_budget: Nanos::from_secs_f64(2.0),
            max_queue: 256,
            gpu: GpuSpec::a100_80gb(),
            link_bandwidth_bps: 25e9,
            link_latency_s: 250e-6,
            fault_plan: None,
            disagg: None,
            shard: None,
            slo: SloConfig::paper_default(),
            record_telemetry: true,
        }
    }
}

/// Why a job lost its KV and must re-prefill on its next step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReprefillCause {
    /// LRU-evicted under KV pressure.
    Eviction,
    /// A fabric fault lost the migrating prefix.
    FailedMigration,
    /// The planner priced recompute below shipping (or no decode lane
    /// had capacity for the prefix).
    Planned,
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
    lane: u32,
    /// The decode lane a migrated prefix landed on (queued jobs only;
    /// pins admission to that lane).
    landed: Option<u32>,
    /// Pending re-prefill attribution, consumed when the pass runs.
    reprefill_cause: Option<ReprefillCause>,
}

/// A KV prefix in transit between a prefill and a decode lane. The
/// outcome is resolved at departure (the fault schedule is static and
/// the RNG stream deterministic), but takes effect only when the
/// virtual clock reaches it.
#[derive(Clone, Debug)]
struct PendingMigration {
    job: Job,
    to: u32,
    bytes: u64,
    outcome: TransferOutcome,
}

impl PendingMigration {
    /// When the transfer resolves (lands or is reported lost).
    fn event_at(&self) -> Nanos {
        match self.outcome {
            TransferOutcome::Delivered { done_at } => done_at,
            TransferOutcome::Lost { at } => at,
        }
    }
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
            landed: None,
            reprefill_cause: None,
        }
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
    model: ServingModel,
    config: ServingConfig,
}

impl ServingLoop {
    /// Build a loop for `model` under `config`.
    pub fn new(model: ServingModel, config: ServingConfig) -> Self {
        assert!(config.lanes >= 1, "need at least one lane");
        assert!(config.max_batch >= 1, "need batch capacity of at least 1");
        assert!(config.max_queue >= 1, "need queue capacity of at least 1");
        if let Some(d) = &config.disagg {
            assert!(d.prefill_lanes >= 1, "disaggregation needs a prefill lane");
            assert!(
                d.migrate_bandwidth_bps > 0.0,
                "migration link needs bandwidth"
            );
        }
        ServingLoop { model, config }
    }

    /// The configured model.
    pub fn model(&self) -> &ServingModel {
        &self.model
    }

    /// Drive `requests` (any order; sorted internally) to completion and
    /// return the full report. Every request ends with exactly one
    /// terminal outcome: completed or shed with a typed reason.
    pub fn run(&self, requests: &[ServingRequest]) -> ServingReport {
        let cfg = self.model.config().clone();
        let kv_bytes = cfg.kv_bytes_per_token();
        let decode_lanes = self.config.lanes as usize;
        let disagg = self.config.disagg.clone();
        let prefill_lanes = disagg.as_ref().map_or(0, |d| d.prefill_lanes as usize);
        let lanes = decode_lanes + prefill_lanes;
        // Ship-vs-reprefill pricing: the planner's network side is the
        // migration fabric, and its kernel side runs at unit efficiency
        // so its re-prefill estimate matches the engine's own roofline
        // step pricing (`batched_step_time` does not derate either).
        let planner = disagg.as_ref().map(|d| {
            let mut cost = CostModel::ideal_25g();
            cost.network_bandwidth = d.migrate_bandwidth_bps / 8.0;
            cost.network_latency_s = d.migrate_latency_s;
            cost.per_call_overhead_s = 0.0;
            KvMigrationPlanner::new(
                cost,
                self.config.gpu.clone(),
                kv_bytes,
                cfg.flops_per_token(),
                cfg.weight_bytes(),
            )
        });

        let mut pending: Vec<ServingRequest> = requests.to_vec();
        pending.sort_by_key(|r| (r.arrival, r.id));
        for r in &pending {
            assert!(!r.prompt.is_empty(), "request {} has empty prompt", r.id);
            assert!(r.total_tokens >= 1, "request {} asks for 0 tokens", r.id);
        }
        {
            let mut ids: Vec<u64> = pending.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), pending.len(), "request ids must be unique");
        }
        let mut pending: VecDeque<ServingRequest> = pending.into();

        let mut ledger = KvLedger::new(lanes, self.config.kv_capacity_bytes, kv_bytes);
        let mut queue: VecDeque<Job> = VecDeque::new();
        let mut active: BTreeMap<u64, Job> = BTreeMap::new();
        let mut report = ServingReport::default();
        let mut now = Nanos::ZERO;
        let mut steps = 0u64;
        let mut span_id = 1u64;
        let mut chaos_rng = XorShift64::new(
            self.config
                .fault_plan
                .as_ref()
                .map_or(1, |p| p.seed ^ 0x5e21_1a7e),
        );
        let mut slo = SloTracker::new(self.config.slo.clone());
        let mut migrating: BTreeMap<u64, PendingMigration> = BTreeMap::new();

        loop {
            // 1. Pump arrivals and migration landings due by `now` into
            //    the queue, merged in virtual-time order (ties: arrivals
            //    first, then ascending request id) so queue FIFO order
            //    is the event-time order.
            loop {
                let next_arrival = pending
                    .front()
                    .filter(|r| r.arrival <= now)
                    .map(|r| r.arrival);
                let next_landing = migrating
                    .iter()
                    .filter(|(_, m)| m.event_at() <= now)
                    .map(|(id, m)| (m.event_at(), *id))
                    .min();
                let take_arrival = match (next_arrival, next_landing) {
                    (Some(a), Some((l, _))) => a <= l,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_arrival {
                    let req = pending.pop_front().expect("front checked");
                    push_event(&mut report, req.arrival, req.id, EventKind::Arrive, &ledger);
                    if queue.len() >= self.config.max_queue {
                        self.shed(
                            &mut report,
                            &ledger,
                            &mut slo,
                            req.id,
                            req.tenant,
                            ShedReason::QueueFull,
                            now,
                        );
                    } else {
                        queue.push_back(Job::new(req));
                    }
                    continue;
                }
                let (_, id) = next_landing.expect("landing checked");
                let m = migrating.remove(&id).expect("landing id present");
                let mut job = m.job;
                match m.outcome {
                    TransferOutcome::Delivered { done_at } => {
                        let (to, _) = ledger.complete_migration(id);
                        report.migrations_completed += 1;
                        report.migrated_kv_bytes += m.bytes;
                        job.landed = Some(to as u32);
                        job.enqueued_at = done_at;
                        push_event(
                            &mut report,
                            done_at,
                            id,
                            EventKind::MigrateDone { to: m.to },
                            &ledger,
                        );
                    }
                    TransferOutcome::Lost { at } => {
                        ledger.fail_migration(id);
                        report.migrations_failed += 1;
                        job.kv = None;
                        job.landed = None;
                        job.reprefill_cause = Some(ReprefillCause::FailedMigration);
                        job.enqueued_at = at;
                        push_event(
                            &mut report,
                            at,
                            id,
                            EventKind::MigrateFail { to: m.to },
                            &ledger,
                        );
                        if self.config.record_telemetry {
                            genie_telemetry::global()
                                .metrics
                                .counter("genie_serving_migration_failed_total", &[])
                                .inc();
                        }
                    }
                }
                queue.push_back(job);
            }

            // 2. Shed queued requests that already blew the SLO budget —
            //    *before* admission, so no admitted request has waited
            //    longer than the budget.
            let budget = self.config.queue_budget;
            let mut kept: VecDeque<Job> = VecDeque::new();
            while let Some(job) = queue.pop_front() {
                if now.saturating_sub(job.enqueued_at) > budget {
                    // A landed-but-never-admitted job still holds lane
                    // residency; release it before recording the shed.
                    if let Some(lane) = job.landed {
                        ledger.evict(lane as usize, job.req.id);
                    }
                    self.shed(
                        &mut report,
                        &ledger,
                        &mut slo,
                        job.req.id,
                        job.req.tenant,
                        ShedReason::QueueOverSlo,
                        now,
                    );
                } else {
                    kept.push_back(job);
                }
            }
            queue = kept;

            // 3. Admit FIFO onto the emptiest lane of each job's pool
            //    with batch headroom. Pools block independently
            //    (head-of-line blocking is per pool): with one pool
            //    (colocated) this is exactly the classic FIFO admit;
            //    under disaggregation a stalled decode pool cannot
            //    starve fresh prefills or vice versa. A job whose
            //    migrated prefix landed on a lane admits only there.
            let pool_of = |job: &Job| -> Pool {
                if disagg.is_none() {
                    Pool::Decode
                } else if let Some(lane) = job.landed {
                    Pool::Lane(lane)
                } else if job.tokens.is_empty() {
                    Pool::Prefill
                } else {
                    Pool::Decode
                }
            };
            let lane_range = |pool: Pool| -> (usize, usize) {
                match pool {
                    Pool::Decode => (0, decode_lanes),
                    Pool::Prefill => (decode_lanes, lanes),
                    Pool::Lane(l) => (l as usize, l as usize + 1),
                }
            };
            let mut blocked: Vec<Pool> = Vec::new();
            let mut kept: VecDeque<Job> = VecDeque::new();
            while let Some(mut job) = queue.pop_front() {
                let pool = pool_of(&job);
                if blocked.contains(&pool) {
                    kept.push_back(job);
                    continue;
                }
                if job.landed.is_none() {
                    let need = job.next_resident_tokens(0);
                    if need * kv_bytes > self.config.kv_capacity_bytes {
                        self.shed(
                            &mut report,
                            &ledger,
                            &mut slo,
                            job.req.id,
                            job.req.tenant,
                            ShedReason::KvCapacity,
                            now,
                        );
                        continue;
                    }
                }
                let (lo, hi) = lane_range(pool);
                let mut best: Option<(usize, u32)> = None;
                for lane in lo..hi {
                    let members = active.values().filter(|j| j.lane == lane as u32).count();
                    if members < self.config.max_batch && best.is_none_or(|(m, _)| members < m) {
                        best = Some((members, lane as u32));
                    }
                }
                match best {
                    Some((_, lane)) => {
                        job.lane = lane;
                        push_event(
                            &mut report,
                            now,
                            job.req.id,
                            EventKind::Admit { lane },
                            &ledger,
                        );
                        active.insert(job.req.id, job);
                    }
                    None => {
                        blocked.push(pool);
                        kept.push_back(job);
                    }
                }
            }
            queue = kept;

            // 4. Idle: jump the clock to the next arrival or migration
            //    landing, or drain out.
            if active.is_empty() {
                let next_arrival = pending.front().map(|r| r.arrival);
                let next_landing = migrating.values().map(PendingMigration::event_at).min();
                let next = match (next_arrival, next_landing) {
                    (Some(a), Some(l)) => Some(a.min(l)),
                    (a, l) => a.or(l),
                };
                if let Some(t) = next {
                    now = t;
                    continue;
                }
                // Unreachable in practice (an empty fleet always admits or
                // sheds the whole queue above), but guarantee termination
                // with a terminal outcome for every request regardless.
                while let Some(job) = queue.pop_front() {
                    if let Some(lane) = job.landed {
                        ledger.evict(lane as usize, job.req.id);
                    }
                    self.shed(
                        &mut report,
                        &ledger,
                        &mut slo,
                        job.req.id,
                        job.req.tenant,
                        ShedReason::QueueOverSlo,
                        now,
                    );
                }
                break;
            }

            // 5. Enforce per-lane KV capacity for the upcoming step: LRU
            //    eviction (least-recently-stepped, ties by id) until the
            //    after-step working set fits; a lone member that can
            //    never fit is shed.
            for lane in 0..lanes as u32 {
                loop {
                    // The lane's after-step working set: running members'
                    // growth, plus bytes pinned by inbound migration
                    // reservations and landed-but-queued prefixes.
                    let mut needed = ledger.reserved_tokens(lane as usize);
                    for j in queue.iter().filter(|j| j.landed == Some(lane)) {
                        needed += ledger.resident_tokens(lane as usize, j.req.id);
                    }
                    let mut members = 0usize;
                    for j in active.values().filter(|j| j.lane == lane) {
                        needed +=
                            j.next_resident_tokens(ledger.resident_tokens(lane as usize, j.req.id));
                        members += 1;
                    }
                    if needed * kv_bytes <= self.config.kv_capacity_bytes {
                        break;
                    }
                    // Displace an idle landed prefix (latest first)
                    // before preempting a running member: the queued job
                    // just falls back to lineage re-prefill.
                    let idle = queue
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.landed == Some(lane))
                        .max_by_key(|(_, j)| (j.enqueued_at, j.req.id))
                        .map(|(i, _)| i);
                    if let Some(idx) = idle {
                        let job = &mut queue[idx];
                        let id = job.req.id;
                        ledger.evict(lane as usize, id);
                        job.kv = None;
                        job.landed = None;
                        job.reprefill_cause = Some(ReprefillCause::Eviction);
                        report.preemptions += 1;
                        push_event(&mut report, now, id, EventKind::Preempt, &ledger);
                        if self.config.record_telemetry {
                            genie_telemetry::global()
                                .metrics
                                .counter("genie_serving_preempt_total", &[])
                                .inc();
                        }
                        continue;
                    }
                    if members == 0 {
                        break;
                    }
                    if members == 1 {
                        let (id, tenant) = {
                            let j = active
                                .values()
                                .find(|j| j.lane == lane)
                                .expect("counted above");
                            (j.req.id, j.req.tenant)
                        };
                        active.remove(&id);
                        ledger.evict(lane as usize, id);
                        self.shed(
                            &mut report,
                            &ledger,
                            &mut slo,
                            id,
                            tenant,
                            ShedReason::KvCapacity,
                            now,
                        );
                        break;
                    }
                    let victim = active
                        .values()
                        .filter(|j| j.lane == lane)
                        .min_by_key(|j| (j.last_step, j.req.id))
                        .expect("members >= 2")
                        .req
                        .id;
                    let mut job = active.remove(&victim).expect("victim is active");
                    ledger.evict(lane as usize, victim);
                    job.kv = None;
                    job.landed = None;
                    job.enqueued_at = now;
                    job.reprefill_cause = Some(ReprefillCause::Eviction);
                    report.preemptions += 1;
                    push_event(&mut report, now, victim, EventKind::Preempt, &ledger);
                    if self.config.record_telemetry {
                        genie_telemetry::global()
                            .metrics
                            .counter("genie_serving_preempt_total", &[])
                            .inc();
                    }
                    queue.push_back(job);
                }
            }

            // Rosters: member ids per lane, ascending (BTreeMap order).
            let rosters: Vec<Vec<u64>> = (0..lanes as u32)
                .map(|lane| {
                    active
                        .values()
                        .filter(|j| j.lane == lane)
                        .map(|j| j.req.id)
                        .collect()
                })
                .collect();
            if rosters.iter().all(|r| r.is_empty()) {
                continue; // everything shed under KV pressure; re-admit
            }

            // 6. Price each lane's batched step on the roofline model,
            //    then degrade through the fault schedule: derates slow
            //    the wire, jitter adds seeded latency, and a severed link
            //    stalls the lane until its outage window closes.
            let mut lane_secs = vec![0.0f64; lanes];
            // Per-lane causal decomposition of this step: (compute,
            // net-latency, net-payload, fault) seconds plus the member
            // roster with phases, recorded as [`StepSlice`]s for blame
            // analysis.
            let mut lane_parts = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64); lanes];
            let mut lane_members: Vec<Vec<StepMember>> = vec![Vec::new(); lanes];
            for (lane, roster) in rosters.iter().enumerate() {
                if roster.is_empty() {
                    continue;
                }
                let mut prefill_members = 0u64;
                let mut prefill_tokens = 0u64;
                let mut decode_members = 0u64;
                let mut kv_resident_tokens = 0u64;
                for id in roster {
                    let job = &active[id];
                    let resident = ledger.resident_tokens(lane, *id);
                    let phase = if resident > 0 {
                        decode_members += 1;
                        kv_resident_tokens += resident;
                        MemberPhase::Decode
                    } else {
                        prefill_members += 1;
                        prefill_tokens += job.next_resident_tokens(0);
                        if job.tokens.is_empty() {
                            MemberPhase::Prefill
                        } else {
                            MemberPhase::Reprefill
                        }
                    };
                    lane_members[lane].push(StepMember {
                        request: *id,
                        phase,
                    });
                }
                let work = StepWork {
                    prefill_members,
                    prefill_tokens,
                    decode_members,
                    kv_resident_tokens,
                };
                let (cost, collective_s) = match &self.config.shard {
                    Some(spec) if spec.shards() > 1 => sharded_step_time(
                        &cfg,
                        &work,
                        &self.config.gpu,
                        self.config.link_bandwidth_bps,
                        self.config.link_latency_s,
                        self.config.batched,
                        &ShardPlan {
                            pipeline_stages: spec.pipeline_stages,
                            tensor_parallel: spec.tensor_parallel,
                            fabric_bandwidth_bps: self.config.link_bandwidth_bps,
                            fabric_latency_s: self.config.link_latency_s,
                        },
                    ),
                    _ => (
                        batched_step_time(
                            &cfg,
                            &work,
                            &self.config.gpu,
                            self.config.link_bandwidth_bps,
                            self.config.link_latency_s,
                            self.config.batched,
                        ),
                        0.0,
                    ),
                };
                let clean_s = cost.total_s() + collective_s;
                let mut secs = clean_s;
                if let Some(plan) = &self.config.fault_plan {
                    let host = 1 + lane as u32;
                    let mut derate = 1.0f64;
                    let mut jitter = 0.0f64;
                    for fault in plan.faults_for(0, host) {
                        match fault {
                            FaultSpec::Derate { factor, .. } => derate *= factor.max(1e-3),
                            FaultSpec::Jitter { max, .. } => {
                                jitter += chaos_rng.next_f64() * max.as_secs_f64();
                            }
                            _ => {}
                        }
                    }
                    // Collectives ride the same derated fabric.
                    secs = cost.compute_s + (cost.network_s + collective_s) / derate + jitter;
                    // A severed link stalls the lane until every outage
                    // window containing the stall point has closed.
                    let mut resume = now;
                    loop {
                        let mut blocked: Option<Nanos> = None;
                        for fault in plan.faults_for(0, host) {
                            if let Some((from, until)) = fault.window() {
                                if resume >= from && resume < until {
                                    blocked = Some(blocked.map_or(until, |b: Nanos| b.max(until)));
                                }
                            }
                        }
                        match blocked {
                            Some(until) => resume = until,
                            None => break,
                        }
                    }
                    secs += resume.saturating_sub(now).as_secs_f64();
                }
                // Everything the fault schedule added over the clean
                // roofline cost (derate inflation, jitter, outage
                // stall) is fault-attributable time.
                let fault_s = (secs - clean_s).max(0.0);
                lane_parts[lane] = (
                    cost.compute_s,
                    cost.net_latency_s,
                    cost.net_payload_s,
                    fault_s,
                    collective_s,
                );
                lane_secs[lane] = secs;
            }

            // Lanes step in parallel; the loop ticks at the slowest lane.
            let step_secs = lane_secs.iter().copied().fold(0.0f64, f64::max);
            let step_dur = Nanos::from_secs_f64(step_secs);
            let step_end = now + step_dur;

            // Record each busy lane's causal slice against the *global*
            // barrier end: the unassigned residue inside a faster lane's
            // slice is synchronization wait, which blame analysis
            // charges to queue.
            for (lane, members) in lane_members.iter_mut().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let (compute_s, net_latency_s, net_payload_s, fault_s, collective_s) =
                    lane_parts[lane];
                report.slices.push(
                    StepSlice::from_secs(
                        lane as u32,
                        steps,
                        now.0,
                        step_end.0,
                        compute_s,
                        net_latency_s,
                        net_payload_s,
                        fault_s,
                        std::mem::take(members),
                    )
                    .with_collective(collective_s),
                );
            }

            // 7. Execute every member: prefill (fresh or re-prefill) or
            //    one incremental decode step, in ascending request id.
            let mut finished: Vec<(u64, usize)> = Vec::new();
            for (lane, roster) in rosters.iter().enumerate() {
                for id in roster {
                    let resident = ledger.resident_tokens(lane, *id);
                    let job = active.get_mut(id).expect("rostered");
                    if resident == 0 {
                        let generated = job.tokens.len();
                        let mut seq = job.req.prompt.clone();
                        if generated > 0 {
                            seq.extend_from_slice(&job.tokens[..generated - 1]);
                            report.reprefills += 1;
                            match job
                                .reprefill_cause
                                .take()
                                .unwrap_or(ReprefillCause::Eviction)
                            {
                                ReprefillCause::Eviction => report.reprefills_evicted += 1,
                                ReprefillCause::FailedMigration => report.reprefills_migration += 1,
                                ReprefillCause::Planned => report.reprefills_planned += 1,
                            }
                            push_event(&mut report, now, *id, EventKind::Reprefill, &ledger);
                            if self.config.record_telemetry {
                                genie_telemetry::global()
                                    .metrics
                                    .counter("genie_serving_reprefill_total", &[])
                                    .inc();
                            }
                        }
                        match &self.model {
                            ServingModel::Functional(m) => {
                                let (token, kv) = m.prefill_step(&seq);
                                job.kv = Some(kv);
                                if generated == 0 {
                                    job.tokens.push(token);
                                }
                                // A re-prefill's sampled token reproduces
                                // the already-generated prefix tail; the
                                // differential suite catches divergence.
                            }
                            ServingModel::Spec(_) => {
                                if generated == 0 {
                                    job.tokens.push(synth_token(&cfg, *id, 0));
                                }
                            }
                        }
                        ledger.set(lane, *id, seq.len() as u64);
                        if generated == 0 {
                            let ttft = step_end.saturating_sub(job.req.arrival);
                            job.ttft = Some(ttft);
                            let value = *job.tokens.last().expect("first token pushed");
                            push_event(
                                &mut report,
                                step_end,
                                *id,
                                EventKind::Token { value },
                                &ledger,
                            );
                            self.record_token(ttft.as_secs_f64(), step_secs, true);
                        }
                    } else {
                        let last = *job.tokens.last().expect("resident implies generated");
                        let token = match &self.model {
                            ServingModel::Functional(m) => {
                                let kv = job.kv.as_ref().expect("functional resident KV");
                                let (token, kv_next) = m.decode_step(last, kv);
                                job.kv = Some(kv_next);
                                token
                            }
                            ServingModel::Spec(_) => synth_token(&cfg, *id, job.tokens.len()),
                        };
                        job.tokens.push(token);
                        ledger.set(lane, *id, resident + 1);
                        push_event(
                            &mut report,
                            step_end,
                            *id,
                            EventKind::Token { value: token },
                            &ledger,
                        );
                        self.record_token(0.0, step_secs, false);
                    }
                    job.last_step = steps + 1;
                    if job.tokens.len() >= job.req.total_tokens {
                        finished.push((*id, lane));
                    }
                }
            }

            // 8. Retire completions: free KV, record outcomes.
            for (id, lane) in finished {
                let job = active.remove(&id).expect("finished job is active");
                ledger.evict(lane, id);
                let ttft = job.ttft.expect("completed implies first token");
                slo.observe(job.req.tenant, ttft > self.config.slo.ttft_target);
                report.outcomes.insert(
                    id,
                    Outcome::Completed {
                        tokens: job.tokens,
                        ttft,
                        finished: step_end,
                    },
                );
                push_event(&mut report, step_end, id, EventKind::Complete, &ledger);
                if self.config.record_telemetry {
                    genie_telemetry::global()
                        .metrics
                        .counter("genie_serving_requests_total", &[("outcome", "completed")])
                        .inc();
                }
            }

            // 8b. Disaggregation: every request still active on a
            //     prefill lane finished its prefill this step. Price
            //     ship-vs-reprefill with the planner and either put the
            //     KV prefix on the fabric (real simulated link traffic,
            //     resolved through the fault schedule) or evict it and
            //     fall back to lineage re-prefill on the decode pool.
            if let (Some(d), Some(planner)) = (&disagg, &planner) {
                let leaving: Vec<u64> = active
                    .values()
                    .filter(|j| (j.lane as usize) >= decode_lanes)
                    .map(|j| j.req.id)
                    .collect();
                for id in leaving {
                    let mut job = active.remove(&id).expect("leaving job is active");
                    let from_lane = job.lane;
                    let tokens = ledger.resident_tokens(from_lane as usize, id);
                    // Destination: the decode lane with the most free
                    // capacity that fits the prefix (ties: lowest lane).
                    let mut best: Option<(u64, u32)> = None;
                    for lane in 0..decode_lanes {
                        if ledger.fits(lane, tokens) {
                            let free = self.config.kv_capacity_bytes - ledger.lane_bytes(lane);
                            if best.is_none_or(|(f, _)| free > f) {
                                best = Some((free, lane as u32));
                            }
                        }
                    }
                    let ship_to: Option<u32> = match d.policy {
                        MigrationPolicy::AlwaysReprefill => None,
                        MigrationPolicy::AlwaysShip => best.map(|(_, l)| l),
                        MigrationPolicy::Planner => best.map(|(_, l)| l).filter(|&l| {
                            planner.plan(id, from_lane, l, tokens).decision
                                == MigrationDecision::Ship
                        }),
                    };
                    let Some(to) = ship_to else {
                        // Re-prefill from lineage at the decode pool.
                        ledger.evict(from_lane as usize, id);
                        job.kv = None;
                        job.landed = None;
                        job.reprefill_cause = Some(ReprefillCause::Planned);
                        job.enqueued_at = step_end;
                        queue.push_back(job);
                        continue;
                    };
                    ledger.begin_migration(id, from_lane as usize, to as usize);
                    let bytes = tokens * kv_bytes;
                    let outcome = match &self.config.fault_plan {
                        Some(plan) => plan.transfer_outcome(
                            &mut chaos_rng,
                            1 + from_lane,
                            1 + to,
                            bytes,
                            d.migrate_bandwidth_bps,
                            d.migrate_latency_s,
                            step_end,
                        ),
                        None => TransferOutcome::Delivered {
                            done_at: step_end
                                + Nanos::from_secs_f64(
                                    d.migrate_latency_s
                                        + bytes as f64 * 8.0 / d.migrate_bandwidth_bps,
                                ),
                        },
                    };
                    report.migrations += 1;
                    push_event(
                        &mut report,
                        step_end,
                        id,
                        EventKind::MigrateStart {
                            from: from_lane,
                            to,
                            bytes,
                        },
                        &ledger,
                    );
                    let until = match outcome {
                        TransferOutcome::Delivered { done_at } => done_at,
                        TransferOutcome::Lost { at } => at,
                    };
                    let record = SpanRecord {
                        id: span_id,
                        parent: None,
                        name: "kv.migrate".into(),
                        category: "serving".into(),
                        kind: SpanKind::Span,
                        track: Track::Device(to),
                        start_ns: step_end.0,
                        dur_ns: until.saturating_sub(step_end).0,
                        attrs: SemAttrs::new()
                            .request(id)
                            .with("from_lane", from_lane.to_string())
                            .with("to_lane", to.to_string())
                            .with("bytes", bytes.to_string())
                            .with(
                                "outcome",
                                match outcome {
                                    TransferOutcome::Delivered { .. } => "delivered",
                                    TransferOutcome::Lost { .. } => "lost",
                                },
                            ),
                        thread: 1,
                        seq: span_id,
                    };
                    span_id += 1;
                    if self.config.record_telemetry {
                        genie_telemetry::global().collector.push(record.clone());
                        genie_telemetry::global()
                            .metrics
                            .counter("genie_serving_migration_total", &[])
                            .inc();
                    }
                    report.spans.push(record);
                    migrating.insert(
                        id,
                        PendingMigration {
                            job,
                            to,
                            bytes,
                            outcome,
                        },
                    );
                }
            }

            // 9. Emit one serving span per busy lane with deterministic
            //    ids on the lane's device track.
            for (lane, roster) in rosters.iter().enumerate() {
                if roster.is_empty() {
                    continue;
                }
                let record = SpanRecord {
                    id: span_id,
                    parent: None,
                    name: "serving.step".into(),
                    category: "serving".into(),
                    kind: SpanKind::Span,
                    track: Track::Device(lane as u32),
                    start_ns: now.0,
                    dur_ns: step_dur.0,
                    attrs: SemAttrs::new()
                        .phase("llm_decode")
                        .device(lane as u32)
                        .with("members", roster.len().to_string())
                        .with("step", steps.to_string()),
                    thread: 1,
                    seq: span_id,
                };
                span_id += 1;
                if self.config.record_telemetry {
                    genie_telemetry::global().collector.push(record.clone());
                }
                report.spans.push(record);
            }
            if self.config.record_telemetry {
                genie_telemetry::global()
                    .metrics
                    .counter("genie_serving_steps_total", &[])
                    .inc();
            }

            now = step_end;
            steps += 1;
            assert!(steps < 10_000_000, "serving loop failed to converge");
        }

        report.makespan = now;
        report.steps = steps;
        report.peak_kv_bytes = ledger.peak_bytes();
        report.slo = slo.stats();

        // Causal lifecycle instants: one per non-token event, each
        // carrying its request id and a `cause` edge to the request's
        // previous lifecycle instant. Category "causal" keeps them out
        // of the per-step serving-span contract.
        let mut last_causal: BTreeMap<u64, u64> = BTreeMap::new();
        let mut causal_spans: Vec<SpanRecord> = Vec::new();
        for ev in &report.events {
            let name = match &ev.kind {
                EventKind::Arrive => "request.arrive",
                EventKind::Admit { .. } => "request.admit",
                EventKind::Reprefill => "request.reprefill",
                EventKind::Preempt => "request.preempt",
                EventKind::MigrateStart { .. } => "request.migrate_start",
                EventKind::MigrateDone { .. } => "request.migrate_done",
                EventKind::MigrateFail { .. } => "request.migrate_fail",
                EventKind::Complete => "request.complete",
                EventKind::Shed(_) => "request.shed",
                EventKind::Token { .. } => continue,
            };
            let mut attrs = SemAttrs::new().request(ev.request);
            if let EventKind::Admit { lane } = &ev.kind {
                attrs = attrs.device(*lane);
            }
            if let Some(&prev) = last_causal.get(&ev.request) {
                attrs = attrs.cause(prev);
            }
            causal_spans.push(SpanRecord {
                id: span_id,
                parent: None,
                name: name.into(),
                category: "causal".into(),
                kind: SpanKind::Instant,
                track: Track::Runtime,
                start_ns: ev.at.0,
                dur_ns: 0,
                attrs,
                thread: 1,
                seq: span_id,
            });
            last_causal.insert(ev.request, span_id);
            span_id += 1;
        }
        if self.config.record_telemetry {
            let t = genie_telemetry::global();
            for r in &causal_spans {
                t.collector.push(r.clone());
            }
            for (tenant, s) in &report.slo.per_tenant {
                let label = tenant.to_string();
                t.metrics
                    .gauge("genie_slo_burn_rate", &[("tenant", label.as_str())])
                    .set(s.burn_rate);
            }
        }
        report.spans.extend(causal_spans);
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn shed(
        &self,
        report: &mut ServingReport,
        ledger: &KvLedger,
        slo: &mut SloTracker,
        id: u64,
        tenant: u64,
        reason: ShedReason,
        at: Nanos,
    ) {
        slo.observe(tenant, true);
        report.outcomes.insert(id, Outcome::Shed { reason, at });
        push_event(report, at, id, EventKind::Shed(reason), ledger);
        if self.config.record_telemetry {
            let t = genie_telemetry::global();
            t.metrics
                .counter("genie_serving_requests_total", &[("outcome", "shed")])
                .inc();
            t.metrics
                .counter("genie_serving_shed_total", &[("reason", reason.as_str())])
                .inc();
        }
    }

    fn record_token(&self, ttft_s: f64, step_s: f64, first: bool) {
        if !self.config.record_telemetry {
            return;
        }
        let t = genie_telemetry::global();
        t.metrics.counter("genie_serving_tokens_total", &[]).inc();
        t.metrics
            .histogram(
                "genie_serving_token_latency_seconds",
                &[],
                &DEFAULT_TIME_BOUNDS,
            )
            .observe(step_s);
        if first {
            t.metrics
                .histogram("genie_serving_ttft_seconds", &[], &DEFAULT_TIME_BOUNDS)
                .observe(ttft_s);
        }
    }
}

fn push_event(
    report: &mut ServingReport,
    at: Nanos,
    request: u64,
    kind: EventKind,
    ledger: &KvLedger,
) {
    report.events.push(LogEvent {
        at,
        request,
        kind,
        kv_resident_bytes: ledger.total_bytes(),
    });
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

    #[test]
    fn spec_burst_completes_everyone() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(6, 16, 8);
        let report = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run(&reqs);
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
        let report = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run(&reqs);
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
                .spans
                .iter()
                .any(|s| s.category == "causal" && s.attrs.request.is_some()),
            "lifecycle instants attributed to requests"
        );
    }

    #[test]
    fn batched_pricing_beats_sequential() {
        let cfg = TransformerConfig::gptj_6b();
        let reqs = burst(8, 16, 16);
        let batched = ServingLoop::new(ServingModel::Spec(cfg.clone()), spec_config()).run(&reqs);
        let mut seq_cfg = spec_config();
        seq_cfg.batched = false;
        let sequential = ServingLoop::new(ServingModel::Spec(cfg), seq_cfg).run(&reqs);
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
            c.link_bandwidth_bps = 100e9;
            c.link_latency_s = 5e-6;
            c.shard = shard;
            c
        };
        let reqs = burst(8, 16, 16);
        let cfg = TransformerConfig::gptj_6b();
        let sharded = ServingLoop::new(
            ServingModel::Spec(cfg.clone()),
            fast(Some(ShardSpec::tensor(2))),
        )
        .run(&reqs);
        let flat = ServingLoop::new(ServingModel::Spec(cfg), fast(None)).run(&reqs);
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
        conf.shard = Some(ShardSpec::tensor(2));
        let sharded = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf).run(&reqs);
        let flat = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run(&reqs);
        assert!(
            sharded.makespan > flat.makespan,
            "250 µs collectives must erase the TP win: {:?} vs {:?}",
            sharded.makespan,
            flat.makespan
        );
    }

    #[test]
    fn queue_full_and_slo_shedding_are_typed() {
        let cfg = TransformerConfig::gptj_6b();
        let mut conf = spec_config();
        conf.max_batch = 1;
        conf.max_queue = 2;
        conf.queue_budget = Nanos::from_millis(1);
        let reqs = burst(8, 16, 64);
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&reqs);
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
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&reqs);
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
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&reqs);
        assert_eq!(report.completed(), 2, "{:?}", report.outcomes);
        assert!(report.preemptions >= 1, "pressure must evict");
        assert!(report.reprefills >= 1, "evictees must re-prefill");
        assert!(report.peak_kv_bytes <= capacity, "ledger bound");
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
        let a = ServingLoop::new(ServingModel::Spec(cfg.clone()), spec_config()).run(&reqs);
        let b = ServingLoop::new(ServingModel::Spec(cfg), spec_config()).run(&reqs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.spans.len(), b.spans.len());
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
        .run(&reqs);
        assert_eq!(report.completed(), 6, "{:?}", report.outcomes);
        assert_eq!(report.migrations, 6);
        assert_eq!(report.migrations_completed, 6);
        assert_eq!(report.migrations_failed, 0);
        assert!(report.migrated_kv_bytes > 0);
        assert_eq!(
            report
                .spans
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
        .run(&reqs);
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
        let short =
            ServingLoop::new(ServingModel::Spec(cfg.clone()), conf.clone()).run(&burst(4, 16, 4));
        assert_eq!(short.completed(), 4);
        assert_eq!(short.migrations, 4, "16-token prefixes ship");
        assert_eq!(short.reprefills_planned, 0);
        let long = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&burst(4, 512, 4));
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
            genie_netsim::FaultSchedule {
                specs: vec![FaultSpec::LinkDown {
                    a: 1,
                    b: 2,
                    from: Nanos::ZERO,
                    until: Nanos::from_secs_f64(1.0),
                }],
            },
        ));
        conf.queue_budget = Nanos::from_secs_f64(30.0);
        let reqs = burst(4, 64, 8);
        let report = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&reqs);
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
        let a = ServingLoop::new(ServingModel::Spec(cfg.clone()), conf.clone()).run(&reqs);
        let b = ServingLoop::new(ServingModel::Spec(cfg), conf).run(&reqs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.spans.len(), b.spans.len());
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
        let report = ServingLoop::new(ServingModel::Functional(m), spec_config()).run(&reqs);
        assert_eq!(report.tokens_for(1), Some(oracle.as_slice()));
    }
}
