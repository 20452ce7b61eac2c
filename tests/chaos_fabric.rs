//! Integration: the chaos harness (§4g) — seeded fault schedules swept
//! across the model zoo on both planes.
//!
//! The invariant under test, everywhere: a chaotic run either matches
//! its fault-free oracle **bit-identically** or fails with a clean typed
//! [`TransportError`] — never a panic, a hang, or wrong numerics.
//!
//! Seeds come from `GENIE_CHAOS_SEEDS` (comma-separated) when set, so a
//! failing CI seed reproduces locally with e.g.
//! `GENIE_CHAOS_SEEDS=47 cargo test --test chaos_fabric`.

use genie::backend::{classify_error, spawn_chaotic_server, spawn_server, ErrorClass};
use genie::chaos::ChaosConfig;
use genie::cluster::HostId;
use genie::models::Workload;
use genie::netsim::{FaultPlan, FaultSpec};
use genie::prelude::*;
use genie::tensor::Tensor;
use genie::transport::TransportError;
use std::sync::Mutex;

/// The retry/fault counters are process-global; tests that assert exact
/// deltas (the oracle's zero-injection invariant) must not interleave
/// with tests that grow them. Each test holds this for its duration.
static METRICS_GATE: Mutex<()> = Mutex::new(());

fn metrics_gate() -> std::sync::MutexGuard<'static, ()> {
    METRICS_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_seeds() -> Vec<u64> {
    if let Ok(env) = std::env::var("GENIE_CHAOS_SEEDS") {
        let seeds: Vec<u64> = env
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect();
        if !seeds.is_empty() {
            return seeds;
        }
    }
    vec![3, 7, 11, 29, 42, 47, 101, 1009]
}

/// Simulation plane: every seed × every zoo family schedules and runs to
/// completion under its fault schedule. Faults never corrupt traffic
/// accounting — they slow the run down, or (under partition) the
/// scheduler falls back to the client and ships strictly less.
#[test]
fn seeded_schedules_degrade_every_zoo_family_gracefully() {
    let _gate = metrics_gate();
    let seeds = chaos_seeds();
    for w in Workload::ALL {
        let srg = w.spec_graph();
        for &seed in &seeds {
            let cfg = ChaosConfig::for_testbed(seed);
            assert!(
                !cfg.faults.specs.is_empty(),
                "seed {seed}: generated schedule is empty"
            );
            let run = cfg.run_sim(&srg);
            eprintln!(
                "chaos seed {seed} {}: oracle {:.4}s faulty {:.4}s rerouted={}",
                w.name(),
                run.oracle.makespan_s,
                run.faulty.makespan_s,
                run.rerouted
            );
            assert!(
                run.faulty.makespan_s.is_finite(),
                "seed {seed} {}: non-finite makespan",
                w.name()
            );
            if run.rerouted {
                // Partitioned: work fell back to the client, which can
                // only reduce what crosses the wire.
                assert!(
                    run.faulty.network_bytes <= run.oracle.network_bytes,
                    "seed {seed} {}: reroute must not ship more",
                    w.name()
                );
            } else {
                // Derate/jitter only: identical traffic, no faster.
                assert_eq!(
                    run.faulty.network_bytes,
                    run.oracle.network_bytes,
                    "seed {seed} {}: faults must not change traffic",
                    w.name()
                );
                assert!(
                    run.faulty.makespan_s >= run.oracle.makespan_s,
                    "seed {seed} {}: faulted run faster than oracle ({} < {})",
                    w.name(),
                    run.faulty.makespan_s,
                    run.oracle.makespan_s
                );
            }
        }
    }
}

/// Same seed, same timeline: the whole simulated fault story is a pure
/// function of the seed.
#[test]
fn same_seed_same_outcome_twice() {
    let _gate = metrics_gate();
    let srg = Workload::ComputerVision.spec_graph();
    for seed in chaos_seeds() {
        let cfg = ChaosConfig::for_testbed(seed);
        let a = cfg.run_sim(&srg);
        let b = cfg.run_sim(&srg);
        assert_eq!(
            a.faulty.makespan_s, b.faulty.makespan_s,
            "seed {seed}: replay diverged"
        );
        assert_eq!(a.faulty.network_bytes, b.faulty.network_bytes);
        assert_eq!(a.rerouted, b.rerouted);
    }
}

/// Drive a short decode-style loop (state' = relu(state + i)) against
/// `session`, returning the final state vector or the first typed error.
fn drive_decode_loop(
    session: &mut RemoteSession,
    steps: usize,
) -> Result<Vec<f32>, TransportError> {
    let ctx = CaptureCtx::new("seed");
    let x = ctx.input(
        "x",
        [4],
        ElemType::F32,
        Some(Tensor::from_vec([4], vec![0.5, -1.0, 2.0, 0.0])),
    );
    let y = x.relu();
    y.mark_output();
    let cap = ctx.finish();
    session.execute(&cap, &[], &[], &[(y.node, "state")])?;

    for i in 0..steps {
        let ctx = CaptureCtx::new(format!("step{i}"));
        let prev = ctx.input("prev", [4], ElemType::F32, None);
        let inc = ctx.input(
            "inc",
            [4],
            ElemType::F32,
            Some(Tensor::full([4], (i + 1) as f32)),
        );
        let y = prev.add(&inc).relu();
        y.mark_output();
        let mut cap = ctx.finish();
        cap.values.remove(&prev.node);
        session.execute(&cap, &[(prev.node, "state")], &[], &[(y.node, "state")])?;
    }
    let state = session.fetch("state")?;
    Ok(state.as_f("state").data().to_vec())
}

/// What the loop computes, eagerly: relu carries every positive lane.
fn decode_loop_oracle(steps: usize) -> Vec<f32> {
    let mut state = [0.5f32, -1.0, 2.0, 0.0].map(|v| v.max(0.0));
    for i in 0..steps {
        for lane in &mut state {
            *lane = (*lane + (i + 1) as f32).max(0.0);
        }
    }
    state.to_vec()
}

/// Functional plane: the same decode loop against a chaotic server (the
/// seed's transport policy drops ~25% of replies and stalls ~10% past the
/// client deadline). Retry + server-side request-id dedup must yield the
/// oracle's exact bits — or give up with a clean typed error that the
/// recovery layer can classify. Never a panic, never wrong numerics.
#[test]
fn chaotic_transport_is_exact_or_typed_error() {
    let _gate = metrics_gate();
    const STEPS: usize = 5;
    let expected = decode_loop_oracle(STEPS);
    let retries = || {
        genie::telemetry::global()
            .metrics
            .snapshot()
            .counter("genie_rpc_retries_total", &[])
            .unwrap_or(0)
    };

    let before = retries();
    let mut completed = 0usize;
    for seed in chaos_seeds() {
        let cfg = ChaosConfig::for_testbed(seed);
        let (server, exec) = spawn_chaotic_server(cfg.transport_policy()).unwrap();
        let mut session = RemoteSession::connect_with(server.addr(), cfg.retry_policy()).unwrap();
        match drive_decode_loop(&mut session, STEPS) {
            Ok(state) => {
                completed += 1;
                assert_eq!(
                    state, expected,
                    "seed {seed}: completed run must match the oracle bit for bit"
                );
            }
            Err(e) => {
                // A clean, classified failure — retryable budget spent or
                // the session died; either way recovery knows what to do.
                let class = classify_error(&e);
                assert!(
                    matches!(class, ErrorClass::Retryable | ErrorClass::StateLoss),
                    "seed {seed}: untyped/fatal failure {e} ({class:?})"
                );
                eprintln!("chaos seed {seed}: typed failure after retries: {e}");
            }
        }
        // The server executed each distinct step at most once, no matter
        // how many times drops forced the client to re-send.
        assert!(
            exec.resident_count() <= 1,
            "seed {seed}: dedup must keep state single-copy"
        );
        drop(server);
    }
    assert!(completed > 0, "no seed completed — hostility miscalibrated");
    assert!(
        retries() > before,
        "a hostile sweep must exercise the retry path"
    );
}

/// Oracle control: with the fault-free configuration the same loop runs
/// with zero retries and zero injected faults, and matches exactly.
#[test]
fn oracle_configuration_injects_nothing() {
    let _gate = metrics_gate();
    let metric = |name: &str| {
        genie::telemetry::global()
            .metrics
            .snapshot()
            .counter(name, &[])
            .unwrap_or(0)
    };
    let cfg = ChaosConfig {
        faults: FaultPlan::none(),
    };

    let retries_before = metric("genie_rpc_retries_total");
    let (server, _exec) = spawn_server().unwrap();
    let mut session = RemoteSession::connect_with(server.addr(), cfg.retry_policy()).unwrap();
    let state = drive_decode_loop(&mut session, 4).unwrap();
    assert_eq!(state, decode_loop_oracle(4));
    assert_eq!(
        metric("genie_rpc_retries_total"),
        retries_before,
        "oracle run must not retry"
    );

    let faults_before = metric("genie_fault_injected_total");
    let run = cfg.run_sim(&Workload::ComputerVision.spec_graph());
    assert_eq!(run.oracle.makespan_s, run.faulty.makespan_s);
    assert_eq!(run.oracle.network_bytes, run.faulty.network_bytes);
    assert_eq!(
        metric("genie_fault_injected_total"),
        faults_before,
        "oracle run must not inject"
    );
}

/// A handcrafted derate schedule drives the fault-injection counter and
/// slows the run — the metric surface the acceptance criteria pin down.
#[test]
fn derate_schedule_counts_injections_and_slows_the_run() {
    let _gate = metrics_gate();
    let faults = || {
        genie::telemetry::global()
            .metrics
            .snapshot()
            .counter("genie_fault_injected_total", &[])
            .unwrap_or(0)
    };
    let cfg = ChaosConfig {
        faults: FaultPlan::new(
            5,
            vec![FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.25,
            }],
        ),
    };
    let before = faults();
    let run = cfg.run_sim(&Workload::LlmServing.spec_graph());
    assert!(!run.rerouted, "a derate never reroutes");
    assert!(
        run.faulty.makespan_s > run.oracle.makespan_s * 2.0,
        "4x less bandwidth on the upload path: {} vs {}",
        run.faulty.makespan_s,
        run.oracle.makespan_s
    );
    assert!(faults() > before, "injections must be counted");
    // The scheduler saw it too: its estimate degrades alongside.
    assert!(run.plan.estimate.transfer_s > run.oracle_plan.estimate.transfer_s * 2.0);
}

/// Disaggregated serving: a link-down window severs KV migrations on
/// the prefill↔decode fabric mid-flight. The in-flight prefix is lost;
/// the engine must fall back to lineage re-prefill at the decode pool
/// and still produce oracle-identical tokens for every request — never
/// a wedge, never wrong numerics.
#[test]
fn migration_severed_by_link_down_recovers_from_lineage() {
    use genie::cluster::{GpuSpec, Link};
    use genie::models::functional_transformers;
    use genie::netsim::Nanos;
    use genie::serving::{
        DisaggConfig, MigrationPolicy, ServingConfig, ServingLoop, ServingModel, ServingRequest,
    };

    let _gate = metrics_gate();
    for (name, m) in functional_transformers() {
        let requests: Vec<ServingRequest> = (1..=4u64)
            .map(|id| ServingRequest {
                id,
                tenant: 0,
                arrival: Nanos::ZERO,
                prompt: vec![id as i64 % 5, 2, 1],
                total_tokens: 6,
            })
            .collect();
        let mut d = DisaggConfig::paper_testbed(1);
        d.policy = MigrationPolicy::AlwaysShip;
        let conf = ServingConfig {
            lanes: 1,
            max_batch: 8,
            batched: true,
            kv_capacity_bytes: 1 << 30,
            queue_budget: Nanos::from_secs_f64(1e6),
            max_queue: 64,
            gpu: GpuSpec::a100_80gb(),
            client: Link::PAPER_TESTBED,
            // Decode lane 0 is host 1, prefill lane 1 is host 2: take
            // their link down across the whole prefill burst, so every
            // early migration is severed mid-flight.
            fault_plan: Some(FaultPlan::new(
                13,
                vec![FaultSpec::LinkDown {
                    a: 1,
                    b: 2,
                    from: Nanos::ZERO,
                    until: Nanos::from_secs_f64(0.05),
                }],
            )),
            record_telemetry: false,
            disagg: Some(d),
            shard: None,
        };
        let engine = ServingLoop::new(ServingModel::Functional(m.clone()), conf);
        let report = engine.run_audited(&requests);
        assert_eq!(report.completed(), 4, "{name}: nobody wedges or sheds");
        assert!(
            report.migrations_failed >= 1,
            "{name}: the outage must sever at least one transfer"
        );
        assert_eq!(
            report.reprefills_migration, report.migrations_failed,
            "{name}: every lost prefix re-prefills from lineage"
        );
        for r in &requests {
            let want = m.generate(&r.prompt, r.total_tokens);
            assert_eq!(
                report.tokens_for(r.id),
                Some(want.as_slice()),
                "{name} request {}: recovery diverged from the oracle",
                r.id
            );
        }
        // The chaotic migration story replays bit-identically.
        let again = engine.run_audited(&requests);
        assert_eq!(report.events, again.events, "{name}: replay diverged");
    }
}

/// Disaggregated serving under the seeded chaos sweep: derates, jitter,
/// and partitions hit both the client links and the migration fabric.
/// Every report passes the audit `run_audited` makes (every request ends in
/// exactly one typed outcome, migrations resolve, counters partition),
/// the loop drains, and the whole story is a pure function of the seed.
#[test]
fn disaggregated_serving_survives_seeded_fault_schedules() {
    use genie::models::TransformerConfig;
    use genie::netsim::Nanos;
    use genie::serving::{ArrivalConfig, DisaggConfig, ServingConfig, ServingLoop, ServingModel};

    let _gate = metrics_gate();
    let model = TransformerConfig::gptj_6b();
    for seed in chaos_seeds() {
        let chaos = ChaosConfig::for_testbed(seed);
        let requests = ArrivalConfig {
            seed,
            rate_per_s: 20.0,
            horizon: Nanos::from_secs_f64(2.0),
            prompt_len: (8, 16),
            decode_tokens: (4, 8),
            vocab: model.vocab,
            tenants: 4,
        }
        .generate();
        let mut conf = ServingConfig::paper_testbed();
        conf.max_batch = 4;
        conf.max_queue = 256;
        conf.queue_budget = Nanos::from_secs_f64(2.0);
        conf.record_telemetry = false;
        conf.fault_plan = Some(chaos.faults.clone());
        conf.disagg = Some(DisaggConfig::paper_testbed(1));

        let engine = ServingLoop::new(ServingModel::Spec(model.clone()), conf);
        let faulty = engine.run_audited(&requests);
        assert!(
            faulty.makespan.as_secs_f64() < 120.0,
            "seed {seed}: loop failed to drain ({:?})",
            faulty.makespan
        );
        let again = engine.run_audited(&requests);
        assert_eq!(faulty.events, again.events, "seed {seed}: replay diverged");
    }
}

/// Sharded serving under chaos: a seeded link-down window severs the
/// fabric the per-layer collectives ride, mid-decode. The lane stalls
/// through the outage (collective time derates and stalls exactly like
/// other link traffic), every request still ends in one typed outcome,
/// the loop never wedges, and the whole story replays bit-identically
/// from the seed.
///
/// What is not asserted: that the outage run ends no earlier than the
/// fault-free one. Makespan is not monotone in faults for a batching
/// engine — arrivals pile up behind the stall and then decode in fuller
/// batches, and on a lane whose every step pays 56 × 250 µs of
/// collective latency, fewer steps can beat the 60 ms lost: seed 11
/// drains in 1.164363 s with the outage and 1.181270 s without. What
/// the engine does guarantee is local to the window: a step on the
/// severed lane that starts inside it does not end before it closes,
/// and the wait is blamed as fault time.
#[test]
fn sharded_lane_survives_link_down_during_collectives() {
    use genie::models::TransformerConfig;
    use genie::netsim::Nanos;
    use genie::serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel};
    use genie::srg::shard::ShardSpec;

    let _gate = metrics_gate();
    let model = TransformerConfig::gptj_6b();
    let (from, until) = (Nanos::from_millis(20), Nanos::from_millis(80));
    for seed in chaos_seeds() {
        let requests = ArrivalConfig {
            seed,
            rate_per_s: 20.0,
            horizon: Nanos::from_secs_f64(1.0),
            prompt_len: (8, 16),
            decode_tokens: (4, 8),
            vocab: model.vocab,
            tenants: 2,
        }
        .generate();
        let mut conf = ServingConfig::paper_testbed();
        conf.max_batch = 4;
        conf.queue_budget = Nanos::from_secs_f64(1e6);
        conf.record_telemetry = false;
        conf.shard = Some((ShardSpec::tensor(2), conf.client));
        // Sever lane 0's link (host 0 ↔ host 1) after a few decode
        // steps: the all_reduce window lands inside the outage.
        conf.fault_plan = Some(FaultPlan::new(
            seed,
            vec![FaultSpec::LinkDown {
                a: 0,
                b: 1,
                from,
                until,
            }],
        ));

        let engine = ServingLoop::new(ServingModel::Spec(model.clone()), conf);
        let faulty = engine.run_audited(&requests);
        assert_eq!(
            faulty.completed(),
            requests.len(),
            "seed {seed}: an outage must stall, not shed, under a roomy budget"
        );
        assert!(
            faulty.makespan.as_secs_f64() < 120.0,
            "seed {seed}: sharded loop failed to drain ({:?})",
            faulty.makespan
        );
        // Collective time is still attributed through the outage, and
        // the stall shows up as fault time on some slice.
        assert!(
            faulty.slices.iter().any(|s| s.collective_ns > 0),
            "seed {seed}: collectives must be attributed"
        );
        assert!(
            faulty.slices.iter().any(|s| s.fault_ns > 0),
            "seed {seed}: the outage must be blamed as fault time"
        );

        // Same seed, same story — byte for byte.
        let again = engine.run_audited(&requests);
        assert_eq!(faulty.events, again.events, "seed {seed}: replay diverged");

        // The step the window catches waits it out, and the wait is
        // fault time.
        let stalled: Vec<_> = faulty
            .slices
            .iter()
            .filter(|s| s.lane == 0 && (from.0..until.0).contains(&s.start_ns))
            .collect();
        let overlap: u64 = stalled.iter().map(|s| until.0 - s.start_ns).sum();
        let fault_ns: u64 = stalled.iter().map(|s| s.fault_ns).sum();
        assert!(
            stalled.iter().all(|s| s.end_ns >= until.0),
            "seed {seed}: a step ran through the outage: {stalled:?}"
        );
        assert!(
            overlap > 0 && fault_ns >= overlap,
            "seed {seed}: {fault_ns} ns of fault blame for {overlap} ns of outage"
        );
    }
}

/// Serving plane: a seeded fault schedule drives the continuous-batching
/// loop — derates and jitter stretch steps, outage windows stall lanes —
/// and every report passes the audit `run_audited` makes: every offered request
/// still ends in exactly one typed outcome, the one its log says.
/// The loop degrades (slower than its fault-free oracle, or shedding
/// under the SLO budget); it never panics, hangs, or loses a request.
#[test]
fn serving_loop_survives_seeded_fault_schedules() {
    use genie::models::TransformerConfig;
    use genie::netsim::Nanos;
    use genie::serving::{ArrivalConfig, ServingConfig, ServingLoop, ServingModel};

    let _gate = metrics_gate();
    let model = TransformerConfig::gptj_6b();
    for seed in chaos_seeds() {
        let chaos = ChaosConfig::for_testbed(seed);
        let requests = ArrivalConfig {
            seed,
            rate_per_s: 20.0,
            horizon: Nanos::from_secs_f64(2.0),
            prompt_len: (8, 16),
            decode_tokens: (4, 8),
            vocab: model.vocab,
            tenants: 4,
        }
        .generate();
        let mut conf = ServingConfig::paper_testbed();
        conf.max_batch = 4;
        conf.max_queue = 256;
        conf.queue_budget = Nanos::from_secs_f64(2.0);
        conf.fault_plan = Some(chaos.faults.clone());

        let engine = ServingLoop::new(ServingModel::Spec(model.clone()), conf.clone());
        let faulty = engine.run_audited(&requests);
        assert!(
            faulty.makespan.as_secs_f64() < 120.0,
            "seed {seed}: loop failed to drain ({:?})",
            faulty.makespan
        );

        // Replay: the chaotic serving story is a pure function of seed.
        let again = engine.run_audited(&requests);
        assert_eq!(faulty.events, again.events, "seed {seed}: replay diverged");

        // Fault-free oracle on the same arrivals: amply provisioned, it
        // completes everyone; the chaotic run can only be no faster.
        conf.fault_plan = None;
        let engine = ServingLoop::new(ServingModel::Spec(model.clone()), conf);
        let oracle = engine.run_audited(&requests);
        assert_eq!(
            oracle.completed(),
            requests.len(),
            "seed {seed}: fault-free oracle must complete all"
        );
        assert!(
            faulty.makespan >= oracle.makespan,
            "seed {seed}: chaos made serving faster ({:?} < {:?})",
            faulty.makespan,
            oracle.makespan
        );
    }
}

/// One derate, three readers: the engine's [`FaultPlan::derate`], a
/// paper-plane fabric link's effective bandwidth over its clean value,
/// and the scheduler's projected `link_derate` read every factor the
/// same way — clamped to `[1e-3, 1]`, NaN as 1e-3 — to the bit.
#[test]
fn one_derate_reads_the_same_on_every_plane() {
    use genie::netsim::{Fabric, RpcParams};

    let _gate = metrics_gate();
    let derate = |factor| FaultSpec::Derate { a: 0, b: 1, factor };
    let cases = [
        (vec![derate(0.5)], 0.5),
        (vec![derate(0.5), derate(0.5)], 0.25),
        (vec![derate(0.0)], 1e-3),
        (vec![derate(2.0)], 1.0),
        (vec![derate(f64::NAN)], 1e-3),
    ];
    let topo = Topology::paper_testbed();
    let bandwidth = |fabric: &Fabric| {
        fabric
            .channel_ref(HostId(0), HostId(1))
            .unwrap()
            .link
            .effective_bandwidth()
    };
    let mut misread = Vec::new();
    for (specs, want) in cases {
        let plan = FaultPlan::new(3, specs);
        let mut fabric = Fabric::new(&topo, RpcParams::rdma_zero_copy());
        let clean = bandwidth(&fabric);
        fabric.apply_fault_plan(&plan);
        let mut state = ClusterState::new();
        plan.project_onto_state(&mut state, 2);
        let readings = [
            plan.derate(0, 1),
            bandwidth(&fabric) / clean,
            state.link_derate(0, 1),
        ];
        if readings.iter().any(|r| r.to_bits() != f64::to_bits(want)) {
            misread.push(format!("{:?}: {readings:?}, want {want}", plan.specs));
        }
    }
    assert!(
        misread.is_empty(),
        "engine / fabric / scheduler readings: {misread:#?}"
    );
}

/// The engine's side of the same rule: a derate above 1 reads as a
/// clean link, so a spec-plane run under `factor: 2.0` on the client
/// pair is the run under `factor: 1.0`, not a faster one.
#[test]
fn an_over_unity_derate_does_not_speed_the_engine_up() {
    use genie::models::TransformerConfig;
    use genie::netsim::Nanos;
    use genie::serving::{ServingConfig, ServingLoop, ServingModel, ServingRequest};

    let _gate = metrics_gate();
    let requests: Vec<ServingRequest> = (1..=6u64)
        .map(|id| ServingRequest {
            id,
            tenant: 0,
            arrival: Nanos::ZERO,
            prompt: vec![id as i64 % 5, 2, 1],
            total_tokens: 6,
        })
        .collect();
    let run = |factor| {
        let mut conf = ServingConfig::paper_testbed();
        conf.fault_plan = Some(FaultPlan::new(
            1,
            vec![FaultSpec::Derate { a: 0, b: 1, factor }],
        ));
        ServingLoop::new(ServingModel::Spec(TransformerConfig::gptj_6b()), conf)
            .run_audited(&requests)
    };
    let (doubled, clean) = (run(2.0), run(1.0));
    assert_eq!(
        doubled.makespan, clean.makespan,
        "a derate above 1 sped the engine up"
    );
    assert!(doubled == clean, "the two runs' reports differ");
}

/// The paper plane draws the engine's jitter: a fabric link under one
/// `Jitter { max }` fault delivers each transmission exactly
/// `next_f64() · max` after its fault-free delivery, drawn from the
/// link's stream seeded `seed ^ a << 32 ^ b`.
#[test]
fn the_paper_plane_draws_the_engines_jitter() {
    use genie::netsim::{Fabric, Nanos, RpcParams, XorShift64};

    let _gate = metrics_gate();
    let (seed, max) = (0x5eed, Nanos::from_micros(700));
    let plan = FaultPlan::new(seed, vec![FaultSpec::Jitter { a: 0, b: 1, max }]);
    let topo = Topology::paper_testbed();
    let deliveries = |plan: Option<&FaultPlan>| {
        let mut fabric = Fabric::new(&topo, RpcParams::rdma_zero_copy());
        if let Some(plan) = plan {
            fabric.apply_fault_plan(plan);
        }
        let ch = fabric.channel(HostId(0), HostId(1));
        let ready = ch.ensure_session(Nanos::ZERO);
        (0..8u64)
            .map(|i| ch.send_oneway(ready + Nanos::from_millis(i), 4096 << i))
            .collect::<Vec<_>>()
    };
    let (clean, jittered) = (deliveries(None), deliveries(Some(&plan)));
    // `seed ^ a << 32 ^ b` for the pair (0, 1).
    let mut stream = XorShift64::new(seed ^ 1);
    for (i, (c, j)) in clean.iter().zip(&jittered).enumerate() {
        let want = Nanos::from_secs_f64(stream.next_f64() * max.as_secs_f64());
        assert_eq!(*j - *c, want, "transmission {i}");
    }
}

/// A transmission queued behind another starts once the earlier one
/// has left the wire — and, when an outage window is open at that
/// instant, not before it closes. Bytes already on the wire cross the
/// window.
#[test]
fn a_queued_transmission_waits_out_an_outage_at_its_wire_start() {
    use genie::netsim::{Fabric, Nanos, RpcParams};

    let _gate = metrics_gate();
    let topo = Topology::paper_testbed();
    let mut fabric = Fabric::new(&topo, RpcParams::rdma_zero_copy());
    fabric.apply_fault_plan(&FaultPlan::new(
        1,
        vec![FaultSpec::LinkDown {
            a: 0,
            b: 1,
            from: Nanos::from_secs_f64(1.005),
            until: Nanos::from_secs_f64(1.020),
        }],
    ));
    let ch = fabric.channel(HostId(0), HostId(1));
    let ready = ch.ensure_session(Nanos::ZERO);
    assert_eq!(ready, Nanos::from_secs_f64(1.0));
    let bulk = ch.send_oneway_timed(ready, 30_000_000);
    let small = ch.send_oneway_timed(ready, 1_000);
    assert_eq!(bulk.wire_start, ready, "the link is up at 1.0 s");
    assert_eq!(
        small.wire_start,
        Nanos::from_secs_f64(1.020),
        "queued until 1.0096 s, inside the outage"
    );
}
