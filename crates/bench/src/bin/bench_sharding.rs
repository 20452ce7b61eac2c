//! Regenerate `BENCH_sharding.json`: scaling efficiency of sharded
//! GPT-J decode versus device-to-device fabric bandwidth.
//!
//! For each shard layout (tensor-parallel, pipeline, combined) the
//! sweep prices one steady-state decode step with
//! `genie_backend::sharded_step_time` across fabric bandwidths — each
//! lane the `(ShardSpec, Link)` pair `ServingConfig::shard` holds — and
//! reports decode tokens/s, speedup over the single-device oracle, and
//! scaling efficiency (`speedup / devices`). The whole bench is
//! analytical (spec plane): milliseconds of wall time, bit-deterministic
//! output.
//!
//! The artifact fails loudly (asserts) if any headline claim breaks:
//!
//! - efficiency is monotone non-decreasing in fabric bandwidth for
//!   every layout (the collective wire term is the only bandwidth-
//!   dependent cost);
//! - at least one multi-device layout beats single-device decode
//!   tokens/s outright;
//! - 2-way tensor parallelism holds efficiency >= 0.6 at 100 Gbps
//!   (the CI jq gate re-checks this from the shipped schema);
//! - on the paper testbed's 250 us fabric the same layout *loses* to
//!   one device — per-layer collective latency swamps the split
//!   weight stream. Disaggregation changed the meaning of "2x devices".
//!
//! Pass `--quick` (CI) for the 2-bandwidth sweep. A `serving` section
//! cross-checks the step-cost curve end to end: the serving loop runs
//! the same shard spec behind `ServingConfig::shard` and must finish a
//! fixed request batch sooner than the flat single-device lane.

use genie_backend::{batched_step_time, sharded_step_time, StepWork};
use genie_bench::report::{render_table, write_artifact};
use genie_bench::workload::gptj_arrivals;
use genie_cluster::{GpuSpec, Link};
use genie_models::TransformerConfig;
use genie_serving::{ServingConfig, ServingLoop, ServingModel};
use genie_srg::shard::ShardSpec;
use genie_srg::{json::Value, json_object};

/// Steady-state decode step: a full continuous batch, every member one
/// token in, 64 tokens of KV resident each.
const DECODE_MEMBERS: u64 = 8;
const KV_PER_MEMBER: u64 = 64;

/// Device-to-device fabric latency for the sweep: a rack-scale
/// accelerator fabric (NVLink/ICI class), not the paper's 250 us
/// network-attached testbed — that contrast is the `paper_fabric`
/// section.
const FABRIC_LATENCY_S: f64 = 5e-6;

/// Client-facing link (token/logit traffic), identical in every layout
/// so the comparison isolates the fabric.
const CLIENT: Link = Link::PAPER_TESTBED;

fn decode_work() -> StepWork {
    StepWork {
        prefill_members: 0,
        prefill_tokens: 0,
        decode_members: DECODE_MEMBERS,
        kv_resident_tokens: DECODE_MEMBERS * KV_PER_MEMBER,
    }
}

/// Decode tokens/s of one priced step of a lane sharded as `spec` over
/// `fabric`: members over the barrier time (compute + client link +
/// collectives).
fn tokens_per_s(cfg: &TransformerConfig, (spec, fabric): (ShardSpec, Link)) -> (f64, f64, f64) {
    let work = decode_work();
    let gpu = GpuSpec::a100_80gb();
    let (cost, collective_s, _) =
        sharded_step_time(cfg, &work, &gpu, &CLIENT, true, &spec, &fabric);
    let step_s = cost.total_s() + collective_s;
    (work.tokens_produced() as f64 / step_s, step_s, collective_s)
}

fn serving_section(cfg: &TransformerConfig) -> Value {
    let requests = gptj_arrivals(42, 4.0, 2.0, (32, 96), 2);
    // One rack link serves as the client link and as the fabric.
    let rack = Link::new(100e9, FABRIC_LATENCY_S);
    let config = |shard| {
        let mut c = ServingConfig::paper_testbed();
        c.max_batch = DECODE_MEMBERS as usize;
        c.client = rack;
        c.record_telemetry = false;
        c.shard = shard;
        c
    };
    let flat = ServingLoop::new(ServingModel::Spec(cfg.clone()), config(None)).run(&requests);
    let tp2 = config(Some((ShardSpec::tensor(2), rack)));
    let sharded = ServingLoop::new(ServingModel::Spec(cfg.clone()), tp2).run(&requests);
    assert_eq!(flat.completed(), requests.len(), "flat run must complete");
    assert_eq!(
        sharded.completed(),
        requests.len(),
        "sharded run must complete"
    );
    assert!(
        sharded.makespan < flat.makespan,
        "end-to-end: tensor(2) on the 100 Gbps fabric must drain the \
         batch sooner than one device ({:?} vs {:?})",
        sharded.makespan,
        flat.makespan
    );
    json_object! {
        "spec": "pp1xtp2",
        "fabric_gbps": 100.0,
        "requests": requests.len(),
        "flat_makespan_s": flat.makespan.as_secs_f64(),
        "sharded_makespan_s": sharded.makespan.as_secs_f64(),
        "flat_tokens_per_s": flat.tokens_per_s(),
        "sharded_tokens_per_s": sharded.tokens_per_s(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bandwidths_gbps: &[f64] = if quick {
        &[25.0, 100.0]
    } else {
        &[10.0, 25.0, 50.0, 100.0, 200.0]
    };
    let layouts: &[(u32, u32)] = &[(1, 2), (1, 4), (2, 1), (4, 1), (2, 2)];
    let cfg = TransformerConfig::gptj_6b();

    // Single-device oracle: same step, no fabric in the price.
    let work = decode_work();
    let base = batched_step_time(
        &cfg,
        &work,
        &GpuSpec::a100_80gb(),
        CLIENT.bandwidth_bps,
        CLIENT.latency_s,
        true,
    );
    let single_tps = work.tokens_produced() as f64 / base.total_s();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut beats_single = 0usize;
    for &(pp, tp) in layouts {
        let lane = ShardSpec::new(pp, tp);
        let (spec, shards) = (lane.label(), lane.shards());
        let mut prev_eff = f64::NEG_INFINITY;
        for &gbps in bandwidths_gbps {
            let fabric = Link::new(gbps * 1e9, FABRIC_LATENCY_S);
            let (tps, step_s, collective_s) = tokens_per_s(&cfg, (lane, fabric));
            let speedup = tps / single_tps;
            let efficiency = speedup / shards as f64;
            assert!(
                efficiency >= prev_eff,
                "{spec}: efficiency must be monotone in fabric bandwidth \
                 ({efficiency} at {gbps} Gbps after {prev_eff})"
            );
            prev_eff = efficiency;
            if tps > single_tps {
                beats_single += 1;
            }
            table.push(vec![
                spec.clone(),
                shards.to_string(),
                format!("{gbps:.0}"),
                format!("{:.2}", step_s * 1e3),
                format!("{:.0}", collective_s * 1e6),
                format!("{tps:.0}"),
                format!("{speedup:.2}x"),
                format!("{:.2}", efficiency),
            ]);
            rows.push(json_object! {
                "spec": spec.clone(),
                "pipeline_stages": pp,
                "tensor_parallel": tp,
                "shards": shards,
                "fabric_gbps": gbps,
                "step_s": step_s,
                "collective_s": collective_s,
                "tokens_per_s": tps,
                "speedup": speedup,
                "efficiency": efficiency,
            });
        }
    }

    assert!(
        beats_single >= 1,
        "at least one multi-device layout must beat single-device decode \
         tokens/s ({single_tps:.0})"
    );
    let tp2_at_100 = rows
        .iter()
        .find(|r| r["spec"].as_str() == Some("pp1xtp2") && r["fabric_gbps"].as_f64() == Some(100.0))
        .expect("sweep must include pp1xtp2 at 100 Gbps");
    assert!(
        tp2_at_100["efficiency"].as_f64().unwrap() >= 0.6,
        "2-way tensor parallelism must hold efficiency >= 0.6 at 100 Gbps"
    );

    // The paper's fabric: same 2-way split, 250 us device-to-device
    // latency. 56 collective rounds per step price in at ~14 ms against
    // a ~3 ms stage — the split loses outright.
    let paper_lane = (ShardSpec::tensor(2), Link::PAPER_TESTBED);
    let (paper_tps, paper_step_s, paper_collective_s) = tokens_per_s(&cfg, paper_lane);
    assert!(
        paper_tps < single_tps,
        "on the 250 us network-attached fabric, tensor(2) must lose to \
         one device ({paper_tps:.0} vs {single_tps:.0} tok/s)"
    );

    let serving = serving_section(&cfg);

    let artifact = json_object! {
        "bench": "sharding",
        "quick": quick,
        "model": "gptj_6b",
        "seed": 42u64,
        "work": json_object! {
            "decode_members": DECODE_MEMBERS,
            "kv_resident_tokens": DECODE_MEMBERS * KV_PER_MEMBER,
        },
        "fabric_latency_s": FABRIC_LATENCY_S,
        "single_tokens_per_s": single_tps,
        "sweep": rows,
        "paper_fabric": json_object! {
            "spec": paper_lane.0.label(),
            "fabric_gbps": paper_lane.1.bandwidth_bps / 1e9,
            "fabric_latency_s": paper_lane.1.latency_s,
            "step_s": paper_step_s,
            "collective_s": paper_collective_s,
            "tokens_per_s": paper_tps,
            "speedup": paper_tps / single_tps,
        },
        "serving": serving,
    };
    let path = write_artifact("BENCH_sharding", &artifact).expect("artifact written");

    println!(
        "{}",
        render_table(
            &[
                "layout",
                "devices",
                "fabric Gbps",
                "step ms",
                "collective us",
                "tok/s",
                "speedup",
                "efficiency"
            ],
            &table,
        )
    );
    println!(
        "single device: {single_tps:.0} tok/s; paper fabric tp2: {paper_tps:.0} tok/s; \
         artifact: {}",
        path.display()
    );
}
