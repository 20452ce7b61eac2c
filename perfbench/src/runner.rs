//! One run of one workload: set-up, warm-up, the measured window, the
//! metrics, and the run's document.
//!
//! End-to-end metrics come from an untraced run. A traced run wraps
//! every call into a layer in a span and produces the per-layer
//! metrics; the difference between the two is the tracing overhead.

use crate::alloc;
use crate::calib::{median_tick, slowdowns, Calibrator, Tick};
use crate::json;
use crate::metrics::{ratio, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{
    coefficient_of_variation, median, percentile, relative_iqr, slice_ops, slice_rates, OpSample,
};
use crate::trace::{chrome_trace, tiling_residual_ratio, Tracer};
use crate::workloads::{self, Workload, INPUT_SETS};
use genie_tensor::stats::Path as KernelPath;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Seconds one driver run measures; `BENCHMARK.json` repeats it.
pub const RUN_SECONDS: u32 = 15;
/// Window of the traced pass when one command runs all six workloads.
pub const TRACE_SECONDS: u32 = 3;
pub const WARMUP_OPS: usize = 20;
pub const SLICES: usize = 5;
/// Set-up is timed this many times per run, each in a fresh process:
/// this one and `SETUP_SAMPLES - 1` children.
pub const SETUP_SAMPLES: usize = 5;
/// Ops of the traced pass over which allocations are counted.
const ALLOC_COUNTED_OPS: usize = 2 * INPUT_SETS;
/// Where artifacts go, relative to the working directory.
pub const OUT_DIR: &str = "target/perfbench";

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run hands back to `main`.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// Calibration ticks before set-up and again after it; the set-up's
/// slowdown is the median over both.
const SETUP_TICKS: usize = 8;

/// Build the workload and run the warm-up ops. Returns the workload,
/// a started calibrator, and the seconds from `process_start` to the
/// end of the last warm-up op — state build, server spawn and pin, lazy
/// pool and cache fill — less the calibration ticks, divided by the
/// host's slowdown around it.
fn set_up(
    name: &str,
    seed: u64,
    process_start: Instant,
) -> Result<(Box<dyn Workload>, Calibrator, f64), String> {
    let t0 = Instant::now();
    let mut calibrator = Calibrator::new();
    let mut ticks: Vec<Tick> = (0..SETUP_TICKS).map(|_| calibrator.tick()).collect();
    let calibrating_s = t0.elapsed().as_secs_f64();
    let mut w = workloads::build(name, seed).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; known: {}",
            workloads::NAMES.join(", ")
        )
    })?;
    let mut quiet = Tracer::new(false);
    for i in 0..WARMUP_OPS {
        w.op(i % INPUT_SETS, &mut quiet);
        drain_collector();
    }
    let raw_s = process_start.elapsed().as_secs_f64() - calibrating_s;
    ticks.extend((0..SETUP_TICKS).map(|_| calibrator.tick()));
    let slowdown = w.calib_mix().slowdown(&median_tick(&ticks));
    Ok((w, calibrator, raw_s / slowdown))
}

/// `--setup-only`: print this process's set-up time and exit.
pub fn setup_only(name: &str, seed: u64, process_start: Instant) -> Result<(), String> {
    let (_w, _calibrator, secs) = set_up(name, seed, process_start)?;
    println!("{secs}");
    Ok(())
}

/// Set-up time of a fresh child process.
fn child_setup_s(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("set-up child did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

/// The span collector is a ring of a million records. Draining it
/// after every op keeps resident memory a property of the program, not
/// of how many ops the window held.
fn drain_collector() {
    std::hint::black_box(genie_telemetry::global().collector.drain());
}

/// Ops, their failures and their timing over one window.
struct Window {
    samples: Vec<OpSample>,
    failed: usize,
    first_failure: Option<String>,
    elapsed_s: f64,
    /// Median of each part of the calibration kernel over the window.
    tick: Tick,
}

impl Window {
    /// Median slice rate, on the reference host.
    fn ops_per_s(&self) -> f64 {
        median(&slice_rates(&self.samples, self.elapsed_s, SLICES))
    }

    /// Op durations in ms on the reference host.
    fn norm_ms(&self) -> Vec<f64> {
        self.samples.iter().map(OpSample::norm_ms).collect()
    }

    /// Median slowdown of the host over the window.
    fn slowdown(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.slowdown).collect::<Vec<_>>())
    }
}

/// Closed loop, one client: run ops back to back for `seconds`,
/// cycling through the input sets, checking every output, and running
/// the calibration kernel after each op.
fn run_window(
    w: &mut dyn Workload,
    calibrator: &mut Calibrator,
    tr: &mut Tracer,
    seconds: f64,
) -> Window {
    let mut win = Window {
        samples: Vec::new(),
        failed: 0,
        first_failure: None,
        elapsed_s: 0.0,
        tick: Tick::default(),
    };
    let mut ticks = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let set = i % INPUT_SETS;
        let t0 = Instant::now();
        tr.op(|tr| w.op(set, tr));
        let dur_s = t0.elapsed().as_secs_f64();
        if let Err(why) = w.check(set) {
            win.failed += 1;
            win.first_failure.get_or_insert(why);
        }
        drain_collector();
        win.samples.push(OpSample {
            end_s: start.elapsed().as_secs_f64(),
            dur_s,
            busy_s: t0.elapsed().as_secs_f64(),
            slowdown: 1.0,
        });
        ticks.push(calibrator.tick());
        i += 1;
    }
    win.elapsed_s = start.elapsed().as_secs_f64();
    win.tick = median_tick(&ticks);
    for (sample, slowdown) in win
        .samples
        .iter_mut()
        .zip(slowdowns(&ticks, &w.calib_mix()))
    {
        sample.slowdown = slowdown;
    }
    win
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `bench_dataplane` calibration kernel: a scalar 96³ matmul, best
/// of several, in ms. Recorded so numbers from hosts of different
/// speed can be set side by side.
pub fn calib_matmul96_ms() -> f64 {
    let a = genie_tensor::init::randn([96, 96], 21);
    let b = genie_tensor::init::randn([96, 96], 22);
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(genie_tensor::ops::matmul_scalar(&a, &b).len());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from looking for a repository above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run manifest: what a reader needs to place a number — commit, seed,
/// host parallelism, pool size, calibration, toolchain, settings.
pub fn manifest_json(opts: &RunOpts, calib_ms: f64, workload: Option<&dyn Workload>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut members = vec![
        (
            "git_sha",
            json::string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", opts.seed.to_string()),
        ("nproc", nproc.to_string()),
        (
            "GENIE_POOL_THREADS",
            std::env::var("GENIE_POOL_THREADS").map_or("null".to_string(), |v| json::string(&v)),
        ),
        ("tensor.calib_matmul96_ms", json::number(calib_ms)),
        (
            "rustc",
            json::string(&command_line("rustc", &["--version"])),
        ),
        (
            "collector_enabled",
            genie_telemetry::global().collector.is_enabled().to_string(),
        ),
        ("window_seconds", json::number(opts.seconds)),
        ("warmup_ops", WARMUP_OPS.to_string()),
        ("input_sets", INPUT_SETS.to_string()),
        ("slices", SLICES.to_string()),
    ];
    if let Some(w) = workload {
        let mix = w.calib_mix();
        members.push(("workload_params", w.params_json()));
        members.push((
            "calibration_mix",
            json::object([
                ("compute", json::number(mix.compute)),
                ("parallel", json::number(mix.parallel)),
                ("memory", json::number(mix.memory)),
            ]),
        ));
    }
    json::object(members)
}

/// `{"value": v, "unit": u}` for a registered metric.
fn metric_json(name: &str, value: f64) -> String {
    json::object([
        ("value", json::number(value)),
        ("unit", json::string(crate::metrics::unit_of(name))),
    ])
}

fn metrics_json(m: &Metrics) -> String {
    json::object(
        m.iter()
            .map(|(name, value)| (name, metric_json(name, value))),
    )
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}");
    for (name, value) in m.iter() {
        println!(
            "  {name:<40} {value:>16.6} {}",
            crate::metrics::unit_of(name)
        );
    }
}

/// Run one workload once, as `opts` says.
pub fn run(opts: &RunOpts, process_start: Instant) -> Result<RunResult, String> {
    let (mut w, mut calibrator, own_setup_s) = set_up(&opts.workload, opts.seed, process_start)?;
    w.prepare_checks();
    let calib_ms = calib_matmul96_ms();
    let mut m = Metrics::default();
    let mut extra: Vec<(&str, String)> = Vec::new();

    let (win, trace_path) = if opts.trace {
        traced(&mut *w, &mut calibrator, opts, calib_ms, &mut m)?
    } else {
        let mut setups = vec![own_setup_s];
        for _ in 1..SETUP_SAMPLES {
            setups.push(child_setup_s(&opts.workload, opts.seed)?);
        }
        let win = run_window(
            &mut *w,
            &mut calibrator,
            &mut Tracer::new(false),
            opts.seconds,
        );
        let rates = slice_rates(&win.samples, win.elapsed_s, SLICES);
        let per_slice = |p: f64| -> Vec<f64> {
            slice_ops(&win.samples, win.elapsed_s, SLICES)
                .iter()
                .filter(|ops| !ops.is_empty())
                .map(|ops| percentile(&ops.iter().map(OpSample::norm_ms).collect::<Vec<_>>(), p))
                .collect()
        };
        let norm_ms = win.norm_ms();
        m.set("setup_s", median(&setups));
        m.set("ops_per_s", median(&rates));
        m.set("op_ms_p50", percentile(&norm_ms, 0.50));
        m.set("op_ms_p90", percentile(&norm_ms, 0.90));
        m.set("peak_rss_mb", peak_rss_mib());
        // How far the run disagrees with itself, per metric: `compare`
        // calls a change unresolved when this exceeds the bound.
        extra.push((
            "spread",
            json::object([
                ("setup_s", json::number(relative_iqr(&setups))),
                ("ops_per_s", json::number(relative_iqr(&rates))),
                ("op_ms_p50", json::number(relative_iqr(&per_slice(0.50)))),
                ("op_ms_p90", json::number(relative_iqr(&per_slice(0.90)))),
                ("peak_rss_mb", json::number(0.0)),
            ]),
        ));
        // What the clock said, before the host's slowdown was divided out.
        let raw_ms: Vec<f64> = win.samples.iter().map(|s| s.dur_s * 1e3).collect();
        extra.push((
            "raw",
            json::object([
                ("host_slowdown", json::number(win.slowdown())),
                ("tick_compute_ms", json::number(win.tick.compute_ms)),
                ("tick_parallel_ms", json::number(win.tick.parallel_ms)),
                ("tick_memory_ms", json::number(win.tick.memory_ms)),
                ("op_ms_p50", json::number(percentile(&raw_ms, 0.50))),
                ("op_ms_p90", json::number(percentile(&raw_ms, 0.90))),
                ("op_ms_p99", json::number(percentile(&raw_ms, 0.99))),
                (
                    "ops_per_s",
                    json::number(ratio(win.samples.len() as f64, win.elapsed_s)),
                ),
            ]),
        ));
        extra.push((
            "slice_ops_per_s",
            json::array(rates.iter().map(|r| json::number(*r))),
        ));
        extra.push((
            "setup_samples_s",
            json::array(setups.iter().map(|s| json::number(*s))),
        ));
        (win, None)
    };

    let attempted = win.samples.len();
    let correct = win.failed == 0 && attempted > 0;
    if let Some(why) = &win.first_failure {
        eprintln!("perfbench: {}: output check failed: {why}", opts.workload);
    }
    print_metrics(
        &format!(
            "{} seed {} {} pass: {attempted} ops, {} failed",
            opts.workload,
            opts.seed,
            if opts.trace { "traced" } else { "untraced" },
            win.failed
        ),
        &m,
    );

    let mut members = vec![
        ("workload", json::string(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("trace", opts.trace.to_string()),
        ("correct", correct.to_string()),
        ("ops_attempted", attempted.to_string()),
        ("ops_failed", win.failed.to_string()),
        ("metrics", metrics_json(&m)),
        ("manifest", manifest_json(opts, calib_ms, Some(&*w))),
    ];
    if let Some(p) = &trace_path {
        members.push(("trace_file", json::string(&p.display().to_string())));
    }
    members.extend(extra);
    let path = run_doc_path(&opts.workload, opts.trace);
    write_artifact(&path, &json::object(members))?;

    Ok(RunResult {
        correct,
        attempted,
        failed: win.failed,
        metrics: m,
    })
}

/// The traced pass: a short untraced window for the overhead ratio,
/// then the traced window, then the workload's probes.
fn traced(
    w: &mut dyn Workload,
    calibrator: &mut Calibrator,
    opts: &RunOpts,
    calib_ms: f64,
    m: &mut Metrics,
) -> Result<(Window, Option<PathBuf>), String> {
    let plain = run_window(w, calibrator, &mut Tracer::new(false), opts.seconds * 0.3);

    // Allocation counts repeat from op to op, and counting costs three
    // atomic updates per allocation: count over two cycles of the input
    // sets, off the timed windows.
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut quiet = Tracer::new(false);
    alloc::set_counting(true);
    for i in 0..ALLOC_COUNTED_OPS {
        let before = alloc::snapshot();
        w.op(i % INPUT_SETS, &mut quiet);
        let after = alloc::snapshot();
        allocs += after.allocs - before.allocs;
        alloc_bytes += after.bytes - before.bytes;
        drain_collector();
    }
    alloc::set_counting(false);

    let mut tr = Tracer::new(true);
    let collector = &genie_telemetry::global().collector;
    let dropped_before = collector.dropped();
    let kernels_before = genie_tensor::stats::snapshot();
    // The interpreter drains the pool's busy peak itself after every
    // execution and publishes it as this gauge.
    let pool_busy = genie_telemetry::global()
        .metrics
        .gauge("genie_worker_pool_busy", &[]);
    pool_busy.set(0.0);
    w.start_counting();
    let win = run_window(w, calibrator, &mut tr, opts.seconds * 0.4);
    let n = win.samples.len().max(1) as f64;
    let kernels = genie_tensor::stats::snapshot().since(&kernels_before);

    m.set(
        "driver.trace_overhead_ratio",
        ratio(plain.ops_per_s(), win.ops_per_s()) - 1.0,
    );
    m.set(
        "driver.tiling_residual_ratio",
        tiling_residual_ratio(tr.spans()),
    );
    m.set(
        "driver.allocs_per_op",
        allocs as f64 / ALLOC_COUNTED_OPS as f64,
    );
    m.set(
        "driver.alloc_bytes_per_op",
        alloc_bytes as f64 / ALLOC_COUNTED_OPS as f64,
    );
    m.set("driver.op_ms_p99", percentile(&plain.norm_ms(), 0.99));
    m.set("driver.host_slowdown_ratio", win.slowdown());
    m.set(
        "driver.ops_per_s_slice_cv",
        coefficient_of_variation(&slice_rates(&plain.samples, plain.elapsed_s, SLICES)),
    );
    m.set("driver.ops_per_window", plain.samples.len() as f64);
    m.set("tensor.calib_matmul96_ms", calib_ms);
    for (metric, path) in [
        ("tensor.dispatch_scalar_per_op", KernelPath::Scalar),
        ("tensor.dispatch_blocked_per_op", KernelPath::Blocked),
        ("tensor.dispatch_simd_per_op", KernelPath::Simd),
        ("tensor.dispatch_parallel_per_op", KernelPath::Parallel),
    ] {
        let calls = kernels
            .by_path()
            .into_iter()
            .find(|(label, _)| *label == path.label())
            .map_or(0, |(_, calls)| calls);
        m.set(metric, calls as f64 / n);
    }
    m.set("tensor.pool_busy_peak", pool_busy.get());
    m.set("tensor.pool_threads", genie_tensor::pool::size() as f64);
    m.set(
        "telemetry.dropped_per_op",
        (collector.dropped() - dropped_before) as f64 / n,
    );
    m.set("models.build_ms", w.model_build_ms());

    w.per_layer(&mut tr, win.samples.len(), m);

    const SPAN_PROBES: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..SPAN_PROBES {
        drop(collector.span("probe.span_record", "perfbench"));
    }
    m.set(
        "telemetry.span_record_ns",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(SPAN_PROBES),
    );
    drain_collector();

    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", opts.workload));
    write_artifact(&path, &chrome_trace(tr.spans(), &opts.workload))?;
    Ok((win, Some(path)))
}

pub fn run_doc_path(workload: &str, trace: bool) -> PathBuf {
    let pass = if trace { "traced" } else { "untraced" };
    Path::new(OUT_DIR).join(format!("run_{workload}_{pass}.json"))
}

pub fn write_artifact(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line of a driver run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, with every end-to-end metric (untraced) or
/// every per-layer metric (traced). A per-layer metric that does not
/// apply to the workload reads 0 here; the run's document leaves it out.
pub fn driver_line(r: &RunResult, trace: bool) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.def.name).collect()
    };
    let metrics = json::object(
        names
            .into_iter()
            .map(|name| (name, metric_json(name, r.metrics.get(name).unwrap_or(0.0)))),
    );
    json::object([
        ("correct", r.correct.to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        ("metrics", metrics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("ops_per_s", 12.5);
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        let line = json::parse(&driver_line(&r, false)).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let got = line
            .get("metrics")
            .and_then(json::Value::as_object)
            .unwrap();
        assert_eq!(got.len(), END_TO_END.len());
        assert_eq!(
            got["ops_per_s"].get("value").and_then(json::Value::as_f64),
            Some(12.5)
        );
        let traced = json::parse(&driver_line(&r, true)).unwrap();
        let got = traced
            .get("metrics")
            .and_then(json::Value::as_object)
            .unwrap();
        assert_eq!(got.len(), PER_LAYER.len());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(set_up("no_such_workload", 1, Instant::now()).is_err());
    }
}
