//! The serving engine's behaviour, pinned byte for byte.
//!
//! `ServingLoop::run` gets restructured; what it reports must not move
//! when it does. Eight pinned configurations — together they reach
//! every phase of the engine (queue-full, queue-over-SLO and
//! KV-capacity shedding, LRU preemption, re-prefill by every cause,
//! planner-priced / forced / forbidden migrations, severed transfers,
//! fault-degraded and sharded step pricing, the functional plane) — are
//! run and summarized as exact counts plus FNV-1a digests of the rendered
//! event log, causal slices and spans, then compared with
//! `tests/golden/serving_runs.txt`, rendered by the engine as it stood
//! before the state-struct rewrite.

use genie::models::{TransformerConfig, TransformerLm};
use genie::netsim::{FaultPlan, FaultSpec, Nanos};
use genie::serving::{
    ArrivalConfig, DisaggConfig, MigrationPolicy, Outcome, ServingConfig, ServingLoop,
    ServingModel, ServingReport, ServingRequest, ShedReason,
};
use genie::srg::shard::ShardSpec;
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

/// The eight pinned runs, by name.
fn runs() -> Vec<(&'static str, ServingReport)> {
    let gptj = TransformerConfig::gptj_6b();
    let spec = |conf: ServingConfig, reqs: &[ServingRequest]| {
        ServingLoop::new(ServingModel::Spec(gptj.clone()), conf).run(reqs)
    };
    let mut out = Vec::new();

    let mut c = base();
    c.lanes = 2;
    out.push((
        "colocated_2lanes_steady",
        spec(c, &poisson(3, 12.0, 10.0, gptj.vocab)),
    ));

    // Sequential pricing saturates one lane: the bounded queue fills and
    // the SLO budget expires.
    let mut c = base();
    c.batched = false;
    c.max_queue = 12;
    c.queue_budget = Nanos::from_millis(400);
    out.push((
        "unbatched_overload",
        spec(c, &poisson(5, 30.0, 4.0, gptj.vocab)),
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
    out.push(("kv_pressure_1lane", spec(c, &reqs)));

    // The perfbench chaos shape: above saturation, tight KV, six
    // generated faults over five hosts.
    let mut c = base();
    c.lanes = 3;
    c.kv_capacity_bytes = 384 << 20;
    c.disagg = Some(DisaggConfig::paper_testbed(1));
    c.fault_plan = Some(FaultPlan::generate(12, 5, Nanos::from_secs_f64(20.0), 6));
    let mut reqs = poisson(7, 20.0, 30.0, gptj.vocab);
    reqs.truncate(400);
    out.push(("disagg_planner_chaos", spec(c, &reqs)));

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
    out.push((
        "disagg_always_ship_severed",
        spec(c, &paced(12, 5_000, 48, 10)),
    ));

    out.push((
        "disagg_always_reprefill",
        spec(
            disagg(MigrationPolicy::AlwaysReprefill),
            &poisson(11, 10.0, 3.0, gptj.vocab),
        ),
    ));

    let mut c = base();
    c.shard = Some((ShardSpec::tensor(2), c.client));
    out.push(("tp2_sharded_lane", spec(c, &paced(10, 150, 24, 12))));

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
    out.push((
        "functional_tiny",
        ServingLoop::new(ServingModel::Functional(tiny), c).run(&reqs),
    ));
    out
}

fn shed_by(r: &ServingReport, why: ShedReason) -> usize {
    r.outcomes
        .values()
        .filter(|o| matches!(o, Outcome::Shed { reason, .. } if *reason == why))
        .count()
}

fn render(name: &str, r: &ServingReport) -> String {
    let mut s = String::new();
    writeln!(s, "== {name}").unwrap();
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
    let debug = format!("{spans:?}");
    writeln!(s, "spans={} fnv={:016x}", spans.len(), fnv1a(&debug)).unwrap();
    let outcomes = format!("{:?}{:?}", r.outcomes, r.slo);
    writeln!(s, "outcomes_slo_fnv={:016x}", fnv1a(&outcomes)).unwrap();
    s
}

#[test]
fn serving_runs_are_byte_identical_to_the_golden_rendering() {
    let runs = runs();
    let rendered: String = runs.iter().map(|(name, r)| render(name, r)).collect();
    let golden = include_str!("golden/serving_runs.txt");
    assert!(
        rendered == golden,
        "serving reports moved; rendered now:\n{rendered}"
    );

    // The fixtures do exercise what they claim to.
    let by_name = |name: &str| &runs.iter().find(|(n, _)| *n == name).expect(name).1;
    let steady = by_name("colocated_2lanes_steady");
    assert_eq!(steady.shed(), 0, "below saturation nothing sheds");
    let overload = by_name("unbatched_overload");
    assert!(shed_by(overload, ShedReason::QueueFull) > 0);
    assert!(shed_by(overload, ShedReason::QueueOverSlo) > 0);
    let pressure = by_name("kv_pressure_1lane");
    assert!(pressure.preemptions > 0 && pressure.reprefills_evicted > 0);
    assert_eq!(shed_by(pressure, ShedReason::KvCapacity), 2);
    let chaos = by_name("disagg_planner_chaos");
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
