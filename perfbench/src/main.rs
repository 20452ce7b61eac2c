//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench [--seed N] [--seconds S] [--trace-seconds T] [--repeat R]
//!     all six workloads, each pass in its own child process; writes
//!     target/perfbench/result.json and trace_<workload>.json
//! perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one run; the last line of output is the driver's JSON object
//! perfbench compare <a.json> <b.json>
//!     relative change per workload and metric; non-zero exit on a breach
//! perfbench --list
//! ```
//!
//! See `README.md` for every metric and workload.

mod alloc;
mod calib;
mod compare;
mod json;
mod metrics;
mod rng;
mod runner;
mod stats;
mod trace;
mod workloads;

use runner::{RunOpts, OUT_DIR, RUN_SECONDS, TRACE_SECONDS};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace_seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    setup_only: bool,
    list: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let bad = |v: &str| format!("bad value `{v}` for {arg}");
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--seconds" | "--trace-seconds" => {
                let v = value("a number of seconds")?;
                let secs: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(bad(&v));
                }
                if arg == "--seconds" {
                    args.seconds = Some(secs);
                } else {
                    args.trace_seconds = Some(secs);
                }
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value("a count")?;
                args.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|r| (1..=100).contains(r))
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--setup-only" => args.setup_only = true,
            "--list" => args.list = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

/// Run one pass of one workload in a child process, which writes its
/// run document; return that document's text.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("{workload}: child did not start: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    let path = runner::run_doc_path(workload, trace);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// All six workloads, untraced then traced, each in its own process.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let trace_seconds = args.trace_seconds.unwrap_or(f64::from(TRACE_SECONDS));
    let mut runs = Vec::new();
    for _ in 0..args.repeat.unwrap_or(1) {
        for workload in workloads::NAMES {
            runs.push(child_run(workload, seed, seconds, false)?);
            runs.push(child_run(workload, seed, trace_seconds, true)?);
        }
    }
    let all_correct = runs.iter().all(|doc| {
        json::parse(doc)
            .ok()
            .and_then(|d| d.get("correct").cloned())
            == Some(json::Value::Bool(true))
    });
    let opts = RunOpts {
        workload: String::new(),
        seed,
        seconds,
        trace: false,
    };
    let result = json::object([
        ("benchmark", json::string("perfbench")),
        ("correct", all_correct.to_string()),
        (
            "manifest",
            runner::manifest_json(&opts, runner::calib_matmul96_ms(), None),
        ),
        ("runs", json::array(runs)),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    runner::write_artifact(&path, &result)?;
    println!("result: {}", path.display());
    Ok(all_correct)
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.list {
        for name in workloads::NAMES {
            println!("{name}");
        }
        return Ok(true);
    }
    match args.positional.as_slice() {
        [] => {}
        [cmd, a, b] if cmd == "compare" => {
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (report, breached) = compare::compare(&read(a)?, &read(b)?)?;
            print!("{report}");
            return Ok(!breached);
        }
        other => {
            return Err(format!(
                "unexpected arguments {other:?}; see --list and README.md"
            ))
        }
    }
    let Some(workload) = &args.workload else {
        return run_all(&args);
    };
    let seed = args.seed.unwrap_or(1);
    if args.setup_only {
        runner::setup_only(workload, seed, process_start)?;
        return Ok(true);
    }
    let opts = RunOpts {
        workload: workload.clone(),
        seed,
        seconds: args.seconds.unwrap_or(f64::from(RUN_SECONDS)),
        trace: args.trace,
    };
    let result = runner::run(&opts, process_start)?;
    println!("{}", runner::driver_line(&result, opts.trace));
    Ok(result.correct)
}

/// glibc hands freed memory back to the kernel and maps large blocks
/// afresh, so an allocation-heavy op pays page faults on every turn, and
/// what a page fault costs swings with the host (a fifth of
/// `serve_sim_steady`'s time, give or take half). With both thresholds
/// pinned, memory freed stays mapped and that cost is paid once, in
/// warm-up. The variables are read when the process starts, so the
/// benchmark re-executes itself with them set.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

fn pin_malloc_thresholds() {
    use std::os::unix::process::CommandExt;
    if MALLOC_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
    {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    // `exec` returns only if it failed; then run as we are.
    let err = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_ENV)
        .exec();
    eprintln!("perfbench: could not re-execute with malloc thresholds pinned: {err}");
}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(2)
        }
    }
}
