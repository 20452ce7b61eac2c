//! Ablations of the design choices DESIGN.md §4 calls out, each with the
//! claim it asserts.

use crate::modes::{run_phase, Mode, PhaseRun};
use crate::report::{fmt_secs, render_table, Report};
use crate::workload::{gptj_arrivals, serve};
use crate::{Calibration, LlmWorkload};
use genie_backend::{batched_step_time, StepWork};
use genie_cluster::{ClusterState, GpuSpec, Link, Topology};
use genie_frontend::capture::CaptureCtx;
use genie_frontend::patterns::learned::LearnedLexicon;
use genie_models::{
    CnnConfig, Dlrm, DlrmConfig, KvState, SimpleCnn, TransformerConfig, TransformerLm,
};
use genie_netsim::RpcParams;
use genie_scheduler::{
    pipeline, schedule, CostModel, DataAware, LeastLoaded, Policy, RoundRobin, SemanticsAware,
};
use genie_serving::{percentile, Outcome, ServingConfig, ServingReport, ServingRequest};
use genie_srg::{CostHints, ElemType, Node, NodeId, OpKind, Srg};
use genie_transport::PinnedPool;
use std::sync::atomic::Ordering;

/// Stateful co-location on/off (§3.3).
///
/// Plans the GPT-J decode step with and without the co-location rule (the
/// blind policies stand in for "off") and reports the recurring per-step
/// network traffic each placement would ship.
pub fn ablation_colocation() -> Report {
    let m = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let ctx = CaptureCtx::new("gptj.decode");
    let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
    cap.logits.sample().mark_output();
    for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
        k.mark_output();
        v.mark_output();
    }
    let srg = ctx.finish().srg;

    let topo = Topology::rack(4, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::paper_stack();

    let mut r = Report::default();
    r.line("Ablation — stateful co-location (GPT-J decode step, 4×A100 rack)\n");
    let mut rows = Vec::new();
    for policy in [
        &RoundRobin as &dyn Policy,
        &LeastLoaded,
        &DataAware,
        &SemanticsAware::new(),
    ] {
        let plan = schedule(&srg, &topo, &state, &cost, policy);
        let recurring: u64 = plan
            .transfers
            .iter()
            .filter(|t| !t.via_handle)
            .map(|t| t.bytes)
            .sum();
        rows.push(vec![
            plan.policy.clone(),
            plan.devices_used().to_string(),
            format!("{recurring}"),
            format!("{:.3}", plan.estimate.total_s()),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &["Policy", "Devices", "Recurring B/step", "Est latency [s]"],
            &rows
        )
    );
    r.line("co-location pins decode beside its KV cache: the per-step traffic");
    r.line("collapses to the token + logits, as §3.3 claims.");
    r
}

/// Pipelined CNN inference vs single-device, swept over interconnect
/// bandwidth (§3.3).
pub fn ablation_pipeline() -> Report {
    let model = SimpleCnn::new_spec(CnnConfig::resnet_like());
    let ctx = CaptureCtx::new("resnet");
    model.capture_inference(&ctx, 1, None).mark_output();
    let mut srg = ctx.finish().srg;
    genie_frontend::patterns::run_all(&mut srg);

    let topo = Topology::rack(4, 25e9);
    let cost = CostModel::paper_stack();
    let stages = pipeline::stage_profiles(&srg, &topo, &cost);
    let batch = 256;
    let serial = pipeline::serial_makespan(&stages, batch);

    let mut r = Report::default();
    writeln!(
        r,
        "Ablation — pipelined CNN inference ({} stages, batch {batch})\n",
        stages.len()
    );
    let mut rows = vec![vec![
        "single device (serial)".to_string(),
        format!("{serial:.3}"),
        "1.00".to_string(),
        "-".to_string(),
    ]];
    for (name, bw) in [
        ("4-way, 10 GbE", 10e9 / 8.0),
        ("4-way, 25 GbE", 25e9 / 8.0),
        ("4-way, 100 GbE", 100e9 / 8.0),
        ("4-way, 200 GbE", 200e9 / 8.0),
        ("4-way, NVLink 300 GB/s", 300e9),
    ] {
        let piped = pipeline::pipelined_makespan(&stages, batch, 4, bw);
        rows.push(vec![
            name.to_string(),
            format!("{piped:.3}"),
            format!("{:.2}", serial / piped),
            if piped < serial { "wins" } else { "loses" }.to_string(),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &["Configuration", "Makespan [s]", "Speedup", "Verdict"],
            &rows
        )
    );
    writeln!(
        r,
        "break-even interconnect ≈ {:.1} GB/s: pipelining \"overlaps communication\nand computation\" (§3.3) only above it — a decision the SRG's stage\nannotations let the scheduler make without profiling.",
        pipeline::pipeline_breakeven_bandwidth(&stages, 4) / 1e9
    );
    r
}

/// Dynamic recomputation under congestion (§3.3).
///
/// Sweeps background congestion and reports when fetching a cheap
/// intermediate across the wire loses to recomputing it at the consumer.
pub fn ablation_recompute() -> Report {
    let cost = CostModel::ideal_25g();
    let gpu = GpuSpec::a100_80gb();

    // A cheap elementwise intermediate: 100 MFLOP producing 64 MB.
    let producer = Node::new(NodeId::new(0), OpKind::Gelu, "activation")
        .with_cost(CostHints::new(100e6, 64e6, 64e6));
    let bytes = 64e6;

    let mut r = Report::default();
    r.line("Ablation — dynamic recomputation (64 MB intermediate, 100 MFLOP)\n");
    let mut rows = Vec::new();
    for congestion in [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99] {
        let advantage = cost.recompute_advantage(&producer, bytes, &gpu, congestion);
        let recompute_s = cost.kernel_time(&producer, &gpu);
        let fetch_s = advantage + recompute_s;
        rows.push(vec![
            format!("{:.0}%", congestion * 100.0),
            format!("{:.2}", fetch_s * 1e3),
            format!("{:.3}", recompute_s * 1e3),
            if advantage > 0.0 {
                "recompute"
            } else {
                "fetch"
            }
            .to_string(),
            format!("{:+.2}", advantage * 1e3),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Congestion",
                "Fetch [ms]",
                "Recompute [ms]",
                "Decision",
                "Saved [ms]"
            ],
            &rows
        )
    );
    r.line("recomputation always wins for this tensor: moving 64 MB costs more than");
    r.line("0.3 ms of GELU even on an idle link — and the gap widens 100× under");
    r.line("congestion. The scheduler flips per-edge using live RTT hints (§3.3).");
    r
}

/// Proactive pinned allocation vs reactive pinning (§3.4).
///
/// Counts the staging copies each datapath performs while sending a
/// decode session's tensors through the pinned-buffer pool — the
/// observable form of "allocating tensors in network-ready buffers at
/// creation time completely eliminates the initial copy overhead".
pub fn ablation_zerocopy() -> Report {
    let steps = 1000;
    let payload = 917_504usize; // one GPT-J KV delta (f32)

    // Reactive path: tensors are born in ordinary memory; every send
    // stages a copy into registered buffers (pin_memory() after the
    // fact).
    let reactive = PinnedPool::new();
    let tensor = vec![0u8; payload];
    for _ in 0..steps {
        let _wire = reactive.send_reactive(&tensor);
    }

    // Proactive path: tensors are created inside pool buffers, so the
    // wire sees them with no staging.
    let proactive = PinnedPool::new();
    for _ in 0..steps {
        let mut buf = proactive.alloc(payload);
        // The "kernel" writes its output directly into pinned memory.
        buf.bytes_mut().resize(payload, 0);
        let _wire = proactive.send_proactive(buf);
    }

    let mut r = Report::default();
    writeln!(
        r,
        "Ablation — zero-copy datapath ({steps} sends of one {payload}-byte KV delta)\n"
    );
    let stats = |p: &PinnedPool| {
        (
            p.stats().staging_copies.load(Ordering::Relaxed),
            p.stats().staged_bytes.load(Ordering::Relaxed),
            p.stats().zero_copy_sends.load(Ordering::Relaxed),
        )
    };
    let (rc, rb, rz) = stats(&reactive);
    let (pc, pb, pz) = stats(&proactive);
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Datapath",
                "Staging copies",
                "Bytes copied",
                "Zero-copy sends"
            ],
            &[
                vec![
                    "reactive (pin_memory post-hoc)".into(),
                    rc.to_string(),
                    rb.to_string(),
                    rz.to_string()
                ],
                vec![
                    "proactive (born pinned, §3.4)".into(),
                    pc.to_string(),
                    pb.to_string(),
                    pz.to_string()
                ],
            ]
        )
    );
    writeln!(
        r,
        "the proactive path eliminates {} copies ({:.1} MB of memcpy) per 1000 steps.",
        rc,
        rb as f64 / 1e6
    );
    r
}

/// RPC-stack sweep (§4 "latency becomes RPC-bound").
///
/// Holds the semantics-aware strategy fixed and swaps the transport: the
/// paper's TensorPipe-from-Python stack, a tuned C++ TCP stack, and the
/// §3.4 zero-copy RDMA datapath. Shows that once semantics eliminate the
/// data-motion bottleneck, the transport is what remains.
pub fn ablation_rpc() -> Report {
    let w = LlmWorkload::paper();
    let stacks: [(&str, Calibration); 3] = [
        ("TensorPipe (Python, paper)", Calibration::paper()),
        (
            "tuned TCP (C++)",
            Calibration::over(&RpcParams::tuned_tcp()),
        ),
        ("zero-copy RDMA (§3.4)", Calibration::rdma()),
    ];

    let mut r = Report::default();
    r.line("Ablation — transport sweep, semantics-aware mode, decode of 50 tokens\n");
    let mut rows = Vec::new();
    for (name, cal) in &stacks {
        let decode = run_phase(Mode::SemanticsAware, PhaseRun::Decode(50), &w, cal);
        let dkv = run_phase(Mode::DeltaKv, PhaseRun::Decode(50), &w, cal);
        rows.push(vec![
            name.to_string(),
            fmt_secs(decode.latency_s),
            fmt_secs(decode.latency_s - cal.rpc.session_init.as_secs_f64()),
            format!("{:.1}", decode.gpu_util_pct),
            fmt_secs(dkv.latency_s - cal.rpc.session_init.as_secs_f64()),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Transport",
                "SA latency [s]",
                "SA work [s]",
                "SA util [%]",
                "dKV work [s]"
            ],
            &rows
        )
    );
    r.line("with RDMA the semantics-aware decode approaches the 1.53 s local bound:");
    r.line("\"replacing [TensorPipe] with a zero-copy RDMA path ... would tighten the");
    r.line("gap but not change the relative ordering of the designs\" (§4).");
    r
}

/// Cross-tenant decode batching (§3.6 "How").
///
/// Sweeps the number of tenants sharing one public LLM and compares fleet
/// throughput with and without semantic batching, at the price the
/// serving engine charges for the step (`genie_backend::batched_step_time`).
/// Only a scheduler that sees model identity in the request (the SRG's
/// weight fingerprint) can apply it.
pub fn ablation_multitenant() -> Report {
    // Context each tenant's request holds: the paper's 72-token prompt.
    const KV_PER_TENANT: u64 = 72;
    let (cfg, gpu) = (TransformerConfig::gptj_6b(), GpuSpec::a100_80gb());
    let mut r = Report::default();
    r.line("Ablation — cross-tenant decode batching (GPT-J on an A100, 25 Gbps / 250 µs)\n");
    let mut rows = Vec::new();
    for b in [1u64, 2, 4, 8, 16, 32] {
        let work = StepWork {
            decode_members: b,
            kv_resident_tokens: b * KV_PER_TENANT,
            ..StepWork::default()
        };
        let step_s =
            |batched| batched_step_time(&cfg, &work, &gpu, 25e9, 250e-6, batched).total_s();
        let (serial, batched) = (step_s(false), step_s(true));
        rows.push(vec![
            b.to_string(),
            format!("{:.1}", batched * 1e3),
            format!("{:.1}", b as f64 / serial),
            format!("{:.1}", b as f64 / batched),
            format!("{:.2}x", serial / batched),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Tenants",
                "Batched step [ms]",
                "tok/s serial",
                "tok/s batched",
                "Speedup"
            ],
            &rows
        )
    );
    r.line("memory-bound decode reads the 12 GB of weights once per step no matter");
    r.line("the batch, and one RPC round covers every member — identifying \"two");
    r.line("requests to the same public LLM\" (§3.6) is worth nearly the batch size");
    r.line("in fleet decode throughput until KV reads catch up with the weights.");
    r
}

/// Lineage recovery vs full restart (§3.5).
///
/// A GPT-J session decodes 200 tokens after a 72-token prompt and loses
/// its KV after `k` of them. Restart redoes the prompt's prefill and the
/// `k − 1` decode steps that produced the lost tokens. Lineage rebuilds
/// the same KV the way the serving engine's re-prefill does: one prefill
/// over prompt + generated prefix − 1. Both sides are priced at the step
/// price the engine charges (`genie_backend::batched_step_time`) on an
/// A100 behind the 25 Gbps / 250 µs link. The report asserts that lineage
/// is cheaper at every `k` and that the saving grows with `k`.
pub fn ablation_lineage() -> Report {
    // The paper's prompt length, and the tokens the session decodes.
    const PROMPT: u64 = 72;
    const DECODE: u64 = 200;
    let (cfg, gpu, link) = (
        TransformerConfig::gptj_6b(),
        GpuSpec::a100_80gb(),
        Link::PAPER_TESTBED,
    );
    let step_s = |work: StepWork| {
        batched_step_time(&cfg, &work, &gpu, link.bandwidth_bps, link.latency_s, true).total_s()
    };
    let prefill_s = |tokens: u64| {
        step_s(StepWork {
            prefill_members: 1,
            prefill_tokens: tokens,
            ..StepWork::default()
        })
    };
    // The decode step that samples token `i + 1` reads the KV of the
    // prompt and of tokens 1..i−1 (token i is its input).
    let decode_s = |i: u64| {
        step_s(StepWork {
            decode_members: 1,
            kv_resident_tokens: PROMPT + i - 1,
            ..StepWork::default()
        })
    };

    let mut r = Report::default();
    r.line("Ablation — lineage recovery vs restart (GPT-J on an A100, 25 Gbps / 250 µs)\n");
    r.line("The KV is lost after k of 200 decoded tokens. Restart redoes the prefill");
    r.line("and the k − 1 decode steps; lineage re-prefills prompt + k − 1 tokens once.\n");

    let mut rows = Vec::new();
    let (mut restart, mut last_saving) = (prefill_s(PROMPT), 1.0);
    for k in 2..=DECODE {
        restart += decode_s(k - 1);
        let lineage = prefill_s(PROMPT + k - 1);
        let saving = restart / lineage;
        assert!(
            lineage < restart,
            "k = {k}: lineage {lineage} s ≥ restart {restart} s"
        );
        assert!(
            saving > last_saving,
            "k = {k}: saving {saving} ≤ {last_saving}"
        );
        last_saving = saving;
        if [10, 50, 100, 150, 200].contains(&k) {
            rows.push(vec![
                k.to_string(),
                format!("{:.1}", restart * 1e3),
                format!("{:.1}", lineage * 1e3),
                format!("{saving:.1}x"),
            ]);
        }
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Lost after k",
                "Restart redo [ms]",
                "Lineage re-prefill [ms]",
                "Saving"
            ],
            &rows
        )
    );
    r.line("decode is weight-stream bound, so each redone step costs about as much");
    r.line("as the whole re-prefill: lost KV rebuilds as one parallel prefill-shaped");
    r.line("pass instead of a sequential re-decode — \"recovery of long-running decode");
    r.line("loops without restarting prefill\" (§3.5).");
    r
}

/// What one allocation of [`ablation_fleet`] did with the trace.
struct FleetRow {
    devices: u32,
    completed: usize,
    utilization: f64,
    mean_latency_s: f64,
    p95_latency_s: f64,
}

/// Fold the reports of one allocation (`devices` in total) into a row:
/// utilization is compute time over device time up to the last makespan,
/// latency is arrival to last token over the completed requests.
fn fleet_row(devices: u32, requests: &[ServingRequest], reports: &[ServingReport]) -> FleetRow {
    let makespan = reports.iter().map(|r| r.makespan).max().expect("a report");
    let compute_ns: u64 = reports
        .iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.compute_ns)
        .sum();
    let mut latencies: Vec<f64> = requests
        .iter()
        .filter_map(|req| {
            reports.iter().find_map(|r| match r.outcomes.get(&req.id) {
                Some(Outcome::Completed { finished, .. }) => {
                    Some((*finished - req.arrival).as_secs_f64())
                }
                _ => None,
            })
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    FleetRow {
        devices,
        completed: latencies.len(),
        utilization: compute_ns as f64 / (devices as f64 * makespan.0 as f64),
        mean_latency_s: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        p95_latency_s: percentile(&latencies, 0.95),
    }
}

/// Static per-tenant allocation vs a disaggregated pool — the paper's
/// motivating utilization argument (§1) made quantitative on the serving
/// engine.
///
/// One seeded trace of 8 tenants' GPT-J requests is served twice: by
/// eight one-lane [`ServingLoop`](genie_serving::ServingLoop)s, each fed
/// its own tenant's requests (a GPU per tenant), and by one loop whose
/// lanes every tenant shares.
/// The offered load (3.8 req/s for the fleet) is chosen so a dedicated
/// device is busy about a fifth of the time: a request decodes ~64 tokens
/// at ~6.5 ms each (~0.42 s of device time), and each tenant sends one
/// every ~2.1 s.
///
/// The run asserts the three §1 claims: a static fleet idles more than
/// 55 % of the time; a pool of three devices serves the same requests at
/// more than twice the utilization and a bounded p95 latency; a smaller
/// pool trades latency for utilization.
pub fn ablation_fleet() -> Report {
    const TENANTS: u64 = 8;
    const RATE_PER_S: f64 = 3.8;
    let requests = gptj_arrivals(2026, RATE_PER_S, 900.0, (32, 96), TENANTS);
    let on_lanes = |requests: &[ServingRequest], lanes: u32| {
        let config = ServingConfig {
            lanes,
            record_telemetry: false,
            ..ServingConfig::paper_testbed()
        };
        serve(&TransformerConfig::gptj_6b(), config, requests)
    };

    let dedicated: Vec<ServingReport> = (0..TENANTS)
        .map(|tenant| {
            let own: Vec<ServingRequest> = requests
                .iter()
                .filter(|r| r.tenant == tenant)
                .cloned()
                .collect();
            on_lanes(&own, 1)
        })
        .collect();
    let stat = fleet_row(TENANTS as u32, &requests, &dedicated);
    let pools: Vec<FleetRow> = [6u32, 4, 3, 2]
        .iter()
        .map(|&lanes| fleet_row(lanes, &requests, &[on_lanes(&requests, lanes)]))
        .collect();

    let mut r = Report::default();
    writeln!(
        r,
        "Ablation — fleet utilization: {TENANTS} bursty tenants, {} GPT-J requests \
         at {RATE_PER_S} req/s (~20% duty cycle each)\n",
        requests.len()
    );
    let cells = |name: String, row: &FleetRow| {
        vec![
            name,
            row.devices.to_string(),
            row.completed.to_string(),
            format!("{:.0}%", row.utilization * 100.0),
            format!("{:.3}", row.mean_latency_s),
            format!("{:.3}", row.p95_latency_s),
        ]
    };
    let mut rows = vec![cells("static (1 GPU/tenant)".into(), &stat)];
    for row in &pools {
        rows.push(cells(format!("disaggregated pool of {}", row.devices), row));
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Configuration",
                "GPUs",
                "Completed",
                "Mean util",
                "Mean lat [s]",
                "p95 lat [s]"
            ],
            &rows
        )
    );

    let (roomy, three, tight) = (&pools[0], &pools[2], &pools[3]);
    assert!(
        stat.utilization < 0.45,
        "a static fleet idles more than 55%: util {}",
        stat.utilization
    );
    assert_eq!(stat.completed, three.completed, "same offered load");
    assert!(
        three.utilization > 2.0 * stat.utilization,
        "pool of 3 at {} vs static {}",
        three.utilization,
        stat.utilization
    );
    assert!(
        three.p95_latency_s < 4.0 * stat.p95_latency_s,
        "the latency cost of sharing stays bounded: {} vs {}",
        three.p95_latency_s,
        stat.p95_latency_s
    );
    assert!(
        tight.mean_latency_s > roomy.mean_latency_s && tight.utilization > roomy.utilization,
        "a smaller pool trades latency for utilization"
    );

    r.line("the static fleet reproduces the paper's \"55–60% idleness\" (§1); a");
    r.line("semantics-aware pool serves the same load on ~a third of the devices");
    r.line("at bounded latency cost — the capacity disaggregation reclaims.");
    r
}

fn lexicon_llm(layers: usize, d_model: usize) -> Srg {
    let m = TransformerLm::new_spec(TransformerConfig {
        layers,
        d_model,
        heads: 8,
        vocab: 32000,
        ffn_mult: 4,
        elem: ElemType::F16,
    });
    let ctx = CaptureCtx::new("llm");
    let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
    cap.logits.sample().mark_output();
    ctx.finish().srg
}

fn lexicon_cnn(stages: usize, channels: usize) -> Srg {
    let m = SimpleCnn::new_spec(CnnConfig {
        stages,
        base_channels: channels,
        image_size: 64,
        classes: 100,
        elem: ElemType::F16,
    });
    let ctx = CaptureCtx::new("cnn");
    m.capture_inference(&ctx, 1, None).mark_output();
    ctx.finish().srg
}

fn lexicon_dlrm(tables: usize, dim: usize) -> Srg {
    let cfg = DlrmConfig {
        tables,
        rows_per_table: 100_000,
        embedding_dim: dim,
        dense_features: 13,
        mlp_hidden: 256,
        lookups_per_table: 16,
        elem: ElemType::F16,
    };
    let m = Dlrm::new_spec(cfg.clone());
    let ctx = CaptureCtx::new("dlrm");
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|_| vec![0; cfg.lookups_per_table])
        .collect();
    m.capture_inference(&ctx, &ids, None).mark_output();
    ctx.finish().srg
}

/// Held-out accuracy (and the number of test graphs) of a lexicon
/// trained on `train_per_family` exemplars of each family.
fn lexicon_accuracy(train_per_family: usize) -> (f64, usize) {
    let mut lex = LearnedLexicon::new();
    let llm_train = [(2, 64), (4, 128), (8, 256), (12, 512)];
    let cnn_train = [(2, 4), (4, 8), (6, 16), (8, 32)];
    let dlrm_train = [(2, 8), (4, 16), (8, 32), (16, 64)];
    for i in 0..train_per_family {
        let (l, d) = llm_train[i % llm_train.len()];
        lex.learn("llm", &lexicon_llm(l, d));
        let (s, c) = cnn_train[i % cnn_train.len()];
        lex.learn("vision", &lexicon_cnn(s, c));
        let (t, e) = dlrm_train[i % dlrm_train.len()];
        lex.learn("recsys", &lexicon_dlrm(t, e));
    }
    // Held-out grid: scales never trained on.
    let mut correct = 0usize;
    let mut total = 0usize;
    for (l, d) in [(6, 96), (20, 1024), (28, 4096)] {
        total += 1;
        if lex.classify(&lexicon_llm(l, d)).map(|(c, _)| c) == Some("llm") {
            correct += 1;
        }
    }
    for (s, c) in [(3, 12), (5, 24), (8, 64)] {
        total += 1;
        if lex.classify(&lexicon_cnn(s, c)).map(|(c, _)| c) == Some("vision") {
            correct += 1;
        }
    }
    for (t, e) in [(3, 12), (10, 48), (26, 128)] {
        total += 1;
        if lex.classify(&lexicon_dlrm(t, e)).map(|(c, _)| c) == Some("recsys") {
            correct += 1;
        }
    }
    (correct as f64 / total as f64, total)
}

/// The learned semantic lexicon (§5, "the evolving semantic lexicon") —
/// classification accuracy on unseen model configurations as a function
/// of training exemplars per family.
pub fn ablation_lexicon() -> Report {
    let mut r = Report::default();
    r.line("Ablation — learned lexicon accuracy on unseen configurations\n");
    let mut rows = Vec::new();
    for k in [1usize, 2, 4] {
        let (acc, total) = lexicon_accuracy(k);
        rows.push(vec![
            k.to_string(),
            format!("{:.0}%", acc * 100.0),
            total.to_string(),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &["Exemplars/family", "Held-out accuracy", "Test graphs"],
            &rows
        )
    );
    r.line("a nearest-centroid lexicon over scale-normalized SRG features learns");
    r.line("new workload families from a handful of exemplars and generalizes to");
    r.line("GPT-J-scale configurations it never saw — a first step past");
    r.line("\"manually curated pattern recognizers\" (§5).");
    r
}
