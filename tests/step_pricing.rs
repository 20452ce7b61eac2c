//! Every price on the served path, pinned bit for bit.
//!
//! The cost formulas get moved between crates; what they return must not
//! move when they do. Two tables are rendered and compared with
//! `tests/golden/step_prices.txt`, rendered by the formulas as they
//! stood before they were given one site each (the migration rows
//! through `scheduler::KvMigrationPlanner`):
//!
//! - **steps** — `sharded_step_time` (which is `batched_step_time` at
//!   1×1) over two models × a `StepWork` grid × batched/unbatched × five
//!   `ShardSpec`s × a 3×2 grid of fabric `Link`s, behind the paper's
//!   client link: every `StepCost` field, then the six `collective_s`,
//!   as `f64::to_bits` hex;
//! - **migrations** — ship and re-prefill seconds and the verdict for
//!   eight prefix lengths under three calibrations.
//!
//! To re-render after a change that is *meant* to move a price, run the
//! test: on a mismatch it prints the whole table before it fails.

use genie::backend::{batched_step_time, price_migration, sharded_step_time, StepCost, StepWork};
use genie::cluster::{GpuSpec, Link};
use genie::models::TransformerConfig;
use genie::netsim::{FaultPlan, Nanos, TransferOutcome, XorShift64};
use genie::scheduler::CostModel;
use genie::srg::shard::ShardSpec;
use std::fmt::Write;

/// The client link every row is priced behind.
const CLIENT: Link = Link::PAPER_TESTBED;

const PLANS: [(u32, u32); 5] = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1)];
const FABRIC_BPS: [f64; 3] = [10e9, 100e9, 400e9];
const FABRIC_LATENCY_S: [f64; 2] = [5e-6, 250e-6];
const KV_TOKENS: [u64; 8] = [0, 1, 16, 40, 64, 256, 4096, 16384];

fn models() -> [(&'static str, TransformerConfig); 2] {
    [
        ("tiny", TransformerConfig::tiny()),
        ("gptj_6b", TransformerConfig::gptj_6b()),
    ]
}

fn work(prefill: (u64, u64), decode_members: u64, kv_resident_tokens: u64) -> StepWork {
    StepWork {
        prefill_members: prefill.0,
        prefill_tokens: prefill.1,
        decode_members,
        kv_resident_tokens,
    }
}

fn work_grid() -> Vec<(&'static str, StepWork)> {
    vec![
        ("empty", StepWork::default()),
        ("prefill_1", work((1, 1), 0, 0)),
        ("prefill_64", work((1, 64), 0, 0)),
        ("prefill_4096", work((1, 4096), 0, 0)),
        ("decode_1_kv0", work((0, 0), 1, 0)),
        ("decode_1_kv64", work((0, 0), 1, 64)),
        ("decode_1_kv4096", work((0, 0), 1, 4096)),
        ("decode_3_kv192", work((0, 0), 3, 3 * 64)),
        ("decode_8_kv512", work((0, 0), 8, 8 * 64)),
        ("decode_8_kv32768", work((0, 0), 8, 8 * 4096)),
        ("mixed_1p64_7d_kv3584", work((1, 64), 7, 7 * 512)),
        ("mixed_2p96_3d_kv1536", work((2, 96), 3, 3 * 512)),
        ("mixed_1p4096_7d_kv28672", work((1, 4096), 7, 7 * 4096)),
    ]
}

/// The three migration calibrations: the two presets and the one the
/// serving engine prices `DisaggConfig::paper_testbed`'s migration link
/// with, `CostModel::over` that link.
fn calibrations() -> [(&'static str, CostModel); 3] {
    [
        ("ideal_25g", CostModel::ideal_25g()),
        ("paper_stack", CostModel::paper_stack()),
        ("engine_link", CostModel::over(Link::PAPER_TESTBED)),
    ]
}

/// One priced migration: `(ship_s, reprefill_s, ships)`.
fn migration(cfg: &TransformerConfig, cost: &CostModel, kv_tokens: u64) -> (f64, f64, bool) {
    let p = price_migration(cfg, &GpuSpec::a100_80gb(), cost, kv_tokens);
    (p.ship_s, p.reprefill_s, p.ships())
}

fn lone_prefill(tokens: u64) -> StepWork {
    work((1, tokens), 0, 0)
}

fn render() -> String {
    let gpu = GpuSpec::a100_80gb();
    let mut s = String::new();
    for (name, cfg) in models() {
        writeln!(s, "== steps {name}").unwrap();
        for (label, w) in work_grid() {
            for batched in [true, false] {
                for (pp, tp) in PLANS {
                    let mut cost: Option<StepCost> = None;
                    let mut collectives = String::new();
                    for bw in FABRIC_BPS {
                        for lat in FABRIC_LATENCY_S {
                            let (c, collective_s, _) = sharded_step_time(
                                &cfg,
                                &w,
                                &gpu,
                                &CLIENT,
                                batched,
                                &ShardSpec::new(pp, tp),
                                &Link::new(bw, lat),
                            );
                            // The fabric prices the collectives only.
                            assert_eq!(*cost.get_or_insert(c), c, "{label} {pp}x{tp}");
                            write!(collectives, " {:016x}", collective_s.to_bits()).unwrap();
                        }
                    }
                    let c = cost.expect("non-empty fabric grid");
                    if (pp, tp) == (1, 1) {
                        let (bw, lat) = (CLIENT.bandwidth_bps, CLIENT.latency_s);
                        let flat = batched_step_time(&cfg, &w, &gpu, bw, lat, batched);
                        assert_eq!(c, flat, "1x1 is the unsharded price: {label}");
                    }
                    writeln!(
                        s,
                        "{label} batched={} pp{pp}xtp{tp} compute={:016x} network={:016x} \
                         latency={:016x} payload={:016x} collective={}",
                        u8::from(batched),
                        c.compute_s.to_bits(),
                        c.network_s.to_bits(),
                        c.net_latency_s.to_bits(),
                        c.net_payload_s.to_bits(),
                        collectives.trim_start(),
                    )
                    .unwrap();
                }
            }
        }
    }
    for (name, cfg) in models() {
        writeln!(s, "== migrations {name}").unwrap();
        for (calibration, cost) in calibrations() {
            for kv_tokens in KV_TOKENS {
                let (ship_s, reprefill_s, ships) = migration(&cfg, &cost, kv_tokens);
                let kv_bytes = cfg.kv_bytes_per_token() * kv_tokens;
                writeln!(
                    s,
                    "{calibration} kv_tokens={kv_tokens} kv_bytes={kv_bytes} ship={:016x} \
                     reprefill={:016x} verdict={}",
                    ship_s.to_bits(),
                    reprefill_s.to_bits(),
                    if ships { "ship" } else { "reprefill" },
                )
                .unwrap();
            }
        }
    }
    s
}

#[test]
fn step_and_migration_prices_are_bit_identical_to_the_golden_rendering() {
    let rendered = render();
    let golden = include_str!("golden/step_prices.txt");
    if rendered != golden {
        // Shown by the harness because the test fails: the table to pin.
        print!("{rendered}");
        let moved = rendered
            .lines()
            .zip(golden.lines())
            .find(|(now, then)| now != then);
        panic!(
            "prices moved ({} lines rendered, {} pinned); first difference:\n{moved:#?}",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}

/// What folding the planner into step pricing buys: at unit efficiency
/// the re-prefill estimate *is* the compute price the engine charges for
/// the equivalent one-member prefill step — same bits, not "close".
#[test]
fn the_planners_reprefill_estimate_is_the_price_the_engine_charges() {
    let gpu = GpuSpec::a100_80gb();
    let [(_, ideal), _, (_, engine)] = calibrations();
    for (name, cfg) in models() {
        for kv_tokens in KV_TOKENS {
            let step = batched_step_time(
                &cfg,
                &lone_prefill(kv_tokens),
                &gpu,
                CLIENT.bandwidth_bps,
                CLIENT.latency_s,
                true,
            );
            for cost in [&ideal, &engine] {
                let (_, reprefill_s, _) = migration(&cfg, cost, kv_tokens);
                assert_eq!(
                    reprefill_s.to_bits(),
                    step.compute_s.to_bits(),
                    "{name}, {kv_tokens} tokens: {reprefill_s} vs {}",
                    step.compute_s
                );
            }
        }
    }
}

/// Predicted = simulated on a clean fabric: the planner's `ship_s` under
/// the engine's link and the fault-free fabric's delivery time are the
/// same expression, so they land on the same nanosecond.
#[test]
fn the_planners_ship_estimate_is_the_clean_fabrics_delivery_time() {
    let [_, _, (_, engine)] = calibrations();
    let mut rng = XorShift64::new(1);
    let start = Nanos::from_millis(3);
    for (name, cfg) in models() {
        for kv_tokens in KV_TOKENS {
            let (ship_s, _, _) = migration(&cfg, &engine, kv_tokens);
            let kv_bytes = cfg.kv_bytes_per_token() * kv_tokens;
            let outcome = FaultPlan::none().transfer_outcome(
                &mut rng,
                1,
                2,
                kv_bytes,
                Link::PAPER_TESTBED.bandwidth_bps,
                Link::PAPER_TESTBED.latency_s,
                start,
            );
            let done_at = start + Nanos::from_secs_f64(ship_s);
            assert_eq!(
                outcome,
                TransferOutcome::Delivered { done_at },
                "{name}, {kv_tokens} tokens"
            );
        }
    }
}
