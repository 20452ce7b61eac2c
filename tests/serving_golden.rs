//! The serving engine's behaviour, pinned byte for byte.
//!
//! `ServingLoop::run` gets restructured; what it reports must not move
//! when it does. Eight pinned configurations — together they reach
//! every phase of the engine (queue-full, queue-over-SLO and
//! KV-capacity shedding, LRU preemption, re-prefill by every cause,
//! planner-priced / forced / forbidden migrations, severed transfers,
//! fault-degraded and sharded step pricing, the functional plane) — are
//! run and rendered into `tests/golden/serving_runs.txt`. Each run keeps
//! its exact counts and FNV-1a digests of the event log, causal slices,
//! spans and outcomes, and adds what lets a diff say what moved: the
//! run's total of every `StepCost` field (each slice re-priced from its
//! members) as `f64` bits, per lane the busy ns by blame category, and
//! per request (every k-th one past 100) its arrival, first admission,
//! first token and terminal outcome in ns.

use genie::backend::{sharded_step_time, StepWork};
use genie::models::{TransformerConfig, TransformerLm};
use genie::netsim::{FaultPlan, FaultSpec, Nanos};
use genie::serving::{
    ArrivalConfig, AuditSummary, DisaggConfig, EventKind, MigrationPolicy, Outcome, ServingConfig,
    ServingLoop, ServingModel, ServingReport, ServingRequest, ShedReason,
};
use genie::srg::shard::ShardSpec;
use genie::telemetry::causal::MemberPhase;
use genie::telemetry::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn base() -> ServingConfig {
    let mut c = ServingConfig::paper_testbed();
    c.record_telemetry = false;
    c
}

fn poisson(seed: u64, rate_per_s: f64, horizon_s: f64, vocab: usize) -> Vec<ServingRequest> {
    ArrivalConfig {
        seed,
        rate_per_s,
        horizon: Nanos::from_secs_f64(horizon_s),
        prompt_len: (16, 128),
        decode_tokens: (32, 96),
        vocab,
        tenants: 4,
    }
    .generate()
}

/// Request `id` of a stream with one arrival every `gap_us`.
fn request(id: u64, gap_us: u64, prompt_len: usize, total: usize) -> ServingRequest {
    ServingRequest {
        id,
        tenant: id % 2,
        arrival: Nanos::from_micros(id * gap_us),
        prompt: (0..prompt_len)
            .map(|i| (id as i64 + i as i64) % 32)
            .collect(),
        total_tokens: total,
    }
}

/// Requests `1..=n` of that stream.
fn paced(n: u64, gap_us: u64, prompt_len: usize, total: usize) -> Vec<ServingRequest> {
    (1..=n)
        .map(|id| request(id, gap_us, prompt_len, total))
        .collect()
}

fn disagg(policy: MigrationPolicy) -> ServingConfig {
    let mut c = base();
    c.lanes = 1;
    let mut d = DisaggConfig::paper_testbed(1);
    d.policy = policy;
    c.disagg = Some(d);
    c
}

/// One pinned run: what was offered, under which configuration, what
/// the engine reported, and what its audit replayed.
struct Run {
    name: &'static str,
    model: TransformerConfig,
    config: ServingConfig,
    requests: Vec<ServingRequest>,
    report: ServingReport,
    audit: AuditSummary,
}

fn serve(
    name: &'static str,
    model: ServingModel,
    config: ServingConfig,
    requests: Vec<ServingRequest>,
) -> Run {
    let engine = ServingLoop::new(model.clone(), config.clone());
    let report = engine.run(&requests);
    let audit = (engine.audit(&requests, &report)).unwrap_or_else(|v| panic!("{name}: {v}"));
    let model = model.config().clone();
    Run {
        name,
        model,
        config,
        requests,
        report,
        audit,
    }
}

/// The eight pinned runs.
fn runs() -> Vec<Run> {
    let gptj = TransformerConfig::gptj_6b();
    let spec = |name, conf, reqs| serve(name, ServingModel::Spec(gptj.clone()), conf, reqs);
    let mut out = Vec::new();

    let mut c = base();
    c.lanes = 2;
    out.push(spec(
        "colocated_2lanes_steady",
        c,
        poisson(3, 12.0, 10.0, gptj.vocab),
    ));

    // Sequential pricing saturates one lane: the bounded queue fills and
    // the SLO budget expires.
    let mut c = base();
    c.batched = false;
    c.max_queue = 12;
    c.queue_budget = Nanos::from_millis(400);
    out.push(spec(
        "unbatched_overload",
        c,
        poisson(5, 30.0, 4.0, gptj.vocab),
    ));

    // 40 tokens of KV on one lane: members outgrow it mid-decode (LRU
    // preemption, eviction re-prefill), request 9's 64-token prompt can
    // never fit, and request 10 fits at admission but outgrows the lane
    // on its own.
    let mut c = base();
    c.max_batch = 4;
    c.kv_capacity_bytes = gptj.kv_bytes_per_token() * 40;
    c.queue_budget = Nanos::from_secs_f64(30.0);
    let mut reqs = paced(8, 150, 6, 14);
    reqs.push(request(9, 150, 64, 4));
    reqs.push(request(10, 150, 30, 20));
    out.push(spec("kv_pressure_1lane", c, reqs));

    // The perfbench chaos shape: above saturation, tight KV, six
    // generated faults over five hosts.
    let mut c = base();
    c.lanes = 3;
    c.kv_capacity_bytes = 384 << 20;
    c.disagg = Some(DisaggConfig::paper_testbed(1));
    c.fault_plan = Some(FaultPlan::generate(12, 5, Nanos::from_secs_f64(20.0), 6));
    let mut reqs = poisson(7, 20.0, 30.0, gptj.vocab);
    reqs.truncate(400);
    out.push(spec("disagg_planner_chaos", c, reqs));

    // Prefill (lane 1, host 2) ↔ decode (lane 0, host 1) link down for
    // the first 25 ms, the client link to the decode host derated and
    // jittered throughout. Two decode slots and a 60 ms budget: landed
    // prefixes wait for their lane and some expire holding residency.
    let mut c = disagg(MigrationPolicy::AlwaysShip);
    c.max_batch = 2;
    c.queue_budget = Nanos::from_millis(60);
    c.fault_plan = Some(FaultPlan::new(
        9,
        vec![
            FaultSpec::LinkDown {
                a: 1,
                b: 2,
                from: Nanos::ZERO,
                until: Nanos::from_millis(25),
            },
            FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.5,
            },
            FaultSpec::Jitter {
                a: 0,
                b: 1,
                max: Nanos::from_micros(300),
            },
            FaultSpec::LinkDown {
                a: 0,
                b: 1,
                from: Nanos::from_millis(100),
                until: Nanos::from_millis(130),
            },
        ],
    ));
    out.push(spec(
        "disagg_always_ship_severed",
        c,
        paced(12, 5_000, 48, 10),
    ));

    out.push(spec(
        "disagg_always_reprefill",
        disagg(MigrationPolicy::AlwaysReprefill),
        poisson(11, 10.0, 3.0, gptj.vocab),
    ));

    let mut c = base();
    c.shard = Some((ShardSpec::tensor(2), c.client));
    out.push(spec("tp2_sharded_lane", c, paced(10, 150, 24, 12)));

    let tiny = TransformerLm::new_functional(TransformerConfig::tiny(), 42);
    let mut c = base();
    c.max_batch = 3;
    c.kv_capacity_bytes = tiny.config.kv_bytes_per_token() * 14;
    c.queue_budget = Nanos::from_secs_f64(1e6);
    let reqs = ArrivalConfig {
        seed: 42,
        rate_per_s: 400.0,
        horizon: Nanos::from_secs_f64(0.03),
        prompt_len: (2, 6),
        decode_tokens: (2, 7),
        vocab: tiny.config.vocab,
        tenants: 2,
    }
    .generate();
    out.push(serve(
        "functional_tiny",
        ServingModel::Functional(tiny),
        c,
        reqs,
    ));
    out
}

fn shed_by(r: &ServingReport, why: ShedReason) -> usize {
    r.outcomes
        .values()
        .filter(|o| matches!(o, Outcome::Shed { reason, .. } if *reason == why))
        .count()
}

/// Every field of every span but `attrs.modality`, one span a line.
fn render_spans(spans: &[SpanRecord]) -> String {
    let mut text = String::new();
    for s in spans {
        let a = &s.attrs;
        writeln!(
            text,
            "{} {:?} {} {} {:?} {:?} {} {} node={:?} phase={:?} device={:?} plan={:?} \
             request={:?} cause={:?} extra={:?} thread={} seq={}",
            s.id,
            s.parent,
            s.name,
            s.category,
            s.kind,
            s.track,
            s.start_ns,
            s.dur_ns,
            a.node,
            a.phase,
            a.device,
            a.plan,
            a.request,
            a.cause,
            a.extra,
            s.thread,
            s.seq
        )
        .unwrap();
    }
    text
}

/// The run's total of each `StepCost` field, then of the collective
/// seconds and their payload part, summed in slice order. Each slice is
/// re-priced from its members and the offered prompts: with `g` tokens
/// generated so far, a decoding member reads `prompt + g − 1` resident
/// tokens and a (re-)prefilling one runs that many forward (`g = 0` for
/// a first prefill). The slices alone count `g`: a decode or first
/// prefill emits one token, a re-prefill none.
fn cost_totals(run: &Run) -> [f64; 6] {
    let c = &run.config;
    let prompts: BTreeMap<u64, u64> = (run.requests.iter())
        .map(|q| (q.id, q.prompt.len() as u64))
        .collect();
    let mut generated: BTreeMap<u64, u64> = BTreeMap::new();
    let (spec, fabric) = c.shard.unwrap_or((ShardSpec::single(), c.client));
    let mut totals = [0.0; 6];
    for slice in &run.report.slices {
        let mut work = StepWork::default();
        for m in &slice.members {
            let g = generated.entry(m.request).or_insert(0);
            let tokens = prompts[&m.request] + g.saturating_sub(1);
            if m.phase == MemberPhase::Decode {
                work.decode_members += 1;
                work.kv_resident_tokens += tokens;
            } else {
                work.prefill_members += 1;
                work.prefill_tokens += tokens;
            }
            if m.phase != MemberPhase::Reprefill {
                *g += 1;
            }
        }
        let (cost, collective_s, payload_s) = sharded_step_time(
            &run.model, &work, &c.gpu, &c.client, c.batched, &spec, &fabric,
        );
        let compute_ns = ((cost.compute_s * 1e9).round() as u64).min(slice.end_ns - slice.start_ns);
        let members: Vec<u64> = slice.members.iter().map(|m| m.request).collect();
        assert_eq!(
            compute_ns, slice.compute_ns,
            "{}: step {} lane {}: compute_ns re-priced from requests {members:?} \
             (left) is not the slice's (right)",
            run.name, slice.step, slice.lane
        );
        let terms = [
            cost.compute_s,
            cost.network_s,
            cost.net_latency_s,
            cost.net_payload_s,
            collective_s,
            payload_s,
        ];
        for (total, term) in totals.iter_mut().zip(terms) {
            *total += term;
        }
    }
    totals
}

/// Per lane: its slices, their busy ns, and those ns by blame category.
fn render_lanes(s: &mut String, r: &ServingReport) {
    let mut lanes: BTreeMap<u32, [u64; 9]> = BTreeMap::new();
    for x in &r.slices {
        let lane = lanes.entry(x.lane).or_default();
        let terms = [
            1,
            x.end_ns - x.start_ns,
            x.compute_ns,
            x.net_latency_ns,
            x.net_payload_ns,
            x.fault_ns,
            x.collective_ns,
            x.collective_payload_ns,
            x.sync_ns(),
        ];
        for (sum, term) in lane.iter_mut().zip(terms) {
            *sum += term;
        }
    }
    for (lane, [n, busy, compute, latency, payload, fault, collective, coll_payload, sync]) in lanes
    {
        writeln!(
            s,
            "lane {lane} slices={n} busy={busy} compute={compute} net_latency={latency} \
             net_payload={payload} fault={fault} collective={collective} \
             collective_payload={coll_payload} sync={sync}"
        )
        .unwrap();
    }
}

/// Per request, every k-th past 100: arrival, first admission, first
/// token and terminal outcome, in ns (`-` for what never happened).
fn render_requests(s: &mut String, run: &Run) {
    let mut firsts: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for e in &run.report.events {
        let (admit, token) = firsts.entry(e.request).or_default();
        match e.kind {
            EventKind::Admit { .. } => *admit = admit.or(Some(e.at.0)),
            EventKind::Token { .. } => *token = token.or(Some(e.at.0)),
            _ => {}
        }
    }
    let stride = run.requests.len().div_ceil(100).max(1);
    let shown = run.requests.len().div_ceil(stride);
    let n = run.requests.len();
    writeln!(s, "requests={n} shown={shown} every={stride}").unwrap();
    let ns = |t: Option<u64>| t.map_or("-".to_string(), |t| t.to_string());
    for q in run.requests.iter().step_by(stride) {
        let (admit, token) = firsts.get(&q.id).copied().unwrap_or_default();
        let end = match &run.report.outcomes[&q.id] {
            Outcome::Completed { finished, .. } => format!("completed@{}", finished.0),
            Outcome::Shed { reason, at } => format!("{}@{}", reason.as_str(), at.0),
        };
        writeln!(
            s,
            "req {} arrive={} admit={} first_token={} {end}",
            q.id,
            q.arrival.0,
            ns(admit),
            ns(token)
        )
        .unwrap();
    }
}

fn render(run: &Run) -> String {
    let r = &run.report;
    let mut s = String::new();
    writeln!(s, "== {}", run.name).unwrap();
    writeln!(
        s,
        "steps={} makespan_ns={} peak_kv_bytes={}",
        r.steps, r.makespan.0, r.peak_kv_bytes
    )
    .unwrap();
    writeln!(
        s,
        "completed={} shed_queue_full={} shed_queue_over_slo={} shed_kv_capacity={}",
        r.completed(),
        shed_by(r, ShedReason::QueueFull),
        shed_by(r, ShedReason::QueueOverSlo),
        shed_by(r, ShedReason::KvCapacity),
    )
    .unwrap();
    writeln!(
        s,
        "preemptions={} reprefills={} evicted={} migration={} planned={}",
        r.preemptions,
        r.reprefills,
        r.reprefills_evicted,
        r.reprefills_migration,
        r.reprefills_planned
    )
    .unwrap();
    writeln!(
        s,
        "migrations={} landed={} failed={} migrated_kv_bytes={}",
        r.migrations, r.migrations_completed, r.migrations_failed, r.migrated_kv_bytes
    )
    .unwrap();
    let mut text = String::new();
    for e in &r.events {
        writeln!(
            text,
            "{} {} {:?} {}",
            e.at.0, e.request, e.kind, e.kv_resident_bytes
        )
        .unwrap();
    }
    writeln!(s, "events={} fnv={:016x}", r.events.len(), fnv1a(&text)).unwrap();
    let slices = format!("{:?}", r.slices);
    writeln!(s, "slices={} fnv={:016x}", r.slices.len(), fnv1a(&slices)).unwrap();
    let spans = r.spans();
    let text = render_spans(&spans);
    writeln!(s, "spans={} fnv={:016x}", spans.len(), fnv1a(&text)).unwrap();
    let outcomes = format!("{:?}{:?}", r.outcomes, r.slo);
    writeln!(s, "outcomes_slo_fnv={:016x}", fnv1a(&outcomes)).unwrap();
    let [compute, network, latency, payload, collective, coll_payload] = cost_totals(run);
    writeln!(
        s,
        "cost compute_s={:016x} network_s={:016x} net_latency_s={:016x} net_payload_s={:016x} \
         collective_s={:016x} collective_payload_s={:016x}",
        compute.to_bits(),
        network.to_bits(),
        latency.to_bits(),
        payload.to_bits(),
        collective.to_bits(),
        coll_payload.to_bits()
    )
    .unwrap();
    render_lanes(&mut s, r);
    render_requests(&mut s, run);
    s
}

/// What moved in one line: its label (the words before the first
/// `key=value`) and each changed field as `key golden → now`.
fn changed_fields(golden: Option<&str>, now: Option<&str>) -> String {
    let (Some(w), Some(g)) = (golden, now) else {
        let show = |l: Option<&str>| l.unwrap_or("<none>").to_string();
        return format!("golden `{}`, now `{}`", show(golden), show(now));
    };
    let (wt, gt): (Vec<&str>, Vec<&str>) = (w.split(' ').collect(), g.split(' ').collect());
    let label = gt.iter().take_while(|t| !t.contains('=')).count();
    if wt.len() != gt.len() || wt[..label] != gt[..label] {
        return format!("golden `{w}`, now `{g}`");
    }
    let mut out = gt[..label].join(" ");
    for (a, b) in wt.iter().zip(&gt).filter(|(a, b)| a != b) {
        match (a.split_once('='), b.split_once('=')) {
            (Some((key, a)), Some((_, b))) => write!(out, " {key} {a} → {b}").unwrap(),
            _ => write!(out, " {a} → {b}").unwrap(),
        }
    }
    out
}

/// The golden's lines that moved, each under its run's name with the
/// fields that changed, then per run that moved the ids of the shown
/// requests whose times moved.
fn moved_lines(golden: &str, rendered: &str) -> String {
    let mut out = String::new();
    let mut run = "";
    let mut moved: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let (mut want, mut got) = (golden.lines(), rendered.lines());
    let mut shown = 0;
    loop {
        let (w, g) = (want.next(), got.next());
        if w.is_none() && g.is_none() {
            break;
        }
        if let Some(name) = g.and_then(|g| g.strip_prefix("== ")) {
            run = name;
        }
        if w == g {
            continue;
        }
        let requests = moved.entry(run).or_default();
        if let Some(id) = g.or(w).and_then(|l| l.strip_prefix("req ")) {
            requests.push(id.split(' ').next().unwrap_or(id));
        }
        if shown < 24 {
            writeln!(out, "{run}: {}", changed_fields(w, g)).unwrap();
            shown += 1;
        }
    }
    for (run, requests) in moved {
        match requests.is_empty() {
            true => writeln!(out, "{run}: no shown request's times moved").unwrap(),
            false => writeln!(
                out,
                "{run}: requests whose times moved: {}",
                requests.join(", ")
            )
            .unwrap(),
        }
    }
    out
}

#[test]
fn serving_runs_are_byte_identical_to_the_golden_rendering() {
    let runs = runs();
    let rendered: String = runs.iter().map(render).collect();
    let golden = include_str!("golden/serving_runs.txt");
    assert!(
        rendered == golden,
        "serving reports moved:\n{}rendered now:\n{rendered}",
        moved_lines(golden, &rendered)
    );

    // The fixtures do exercise what they claim to.
    let by_name = |name: &str| &runs.iter().find(|r| r.name == name).expect(name).report;
    let steady = by_name("colocated_2lanes_steady");
    assert_eq!(steady.shed(), 0, "below saturation nothing sheds");
    let overload = by_name("unbatched_overload");
    assert!(shed_by(overload, ShedReason::QueueFull) > 0);
    assert!(shed_by(overload, ShedReason::QueueOverSlo) > 0);
    let pressure = by_name("kv_pressure_1lane");
    assert!(pressure.preemptions > 0 && pressure.reprefills_evicted > 0);
    assert_eq!(shed_by(pressure, ShedReason::KvCapacity), 2);
    let chaos = by_name("disagg_planner_chaos");
    let audited = |name: &str| runs.iter().find(|r| r.name == name).expect(name).audit;
    // Prefixes the planner kept off the fabric, dropped without an event.
    assert_eq!(audited("disagg_planner_chaos").planned_drops, 263);
    assert_eq!(audited("disagg_always_reprefill").planned_drops, 29);
    assert!(chaos.migrations_completed > 0 && chaos.migrations_failed > 0);
    assert!(chaos.reprefills_planned > 0 && chaos.preemptions > 0);
    assert!(chaos.slices.iter().any(|s| s.fault_ns > 0));
    let severed = by_name("disagg_always_ship_severed");
    assert!(severed.migrations_failed > 0 && severed.reprefills_migration > 0);
    assert!(severed.migrations_completed > 0);
    assert!(shed_by(severed, ShedReason::QueueOverSlo) > 0);
    assert!(severed.slices.iter().any(|s| s.fault_ns > 0));
    let never = by_name("disagg_always_reprefill");
    assert!(never.migrations == 0 && never.reprefills_planned > 0);
    assert!(by_name("tp2_sharded_lane")
        .slices
        .iter()
        .any(|s| s.collective_ns > 0));
    let tiny = by_name("functional_tiny");
    assert!(tiny.completed() > 0 && tiny.reprefills > 0);
}
