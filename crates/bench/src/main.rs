//! Runs the named reports of [`genie_bench::REPORTS`], or every report
//! when no name is given: prints each one's text, writes its artifacts
//! under `target/experiments/` and prints `artifact: <path>` for each.
//!
//! Run with: `cargo run --release -p genie-bench -- [name…]`

use genie_bench::report::write_artifact;
use genie_bench::REPORTS;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let lookup = |name: &String| REPORTS.iter().find(|(n, _)| n == name);
    if let Some(unknown) = names.iter().find(|name| lookup(name).is_none()) {
        let valid: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown report '{unknown}'; reports: {}", valid.join(" "));
        std::process::exit(2);
    }
    let selected: Vec<_> = if names.is_empty() {
        REPORTS.iter().collect()
    } else {
        names.iter().filter_map(lookup).collect()
    };
    for (_, run) in selected {
        let report = run();
        print!("{}", report.text);
        for (stem, value) in &report.artifacts {
            let path = write_artifact(stem, value).expect("artifact written");
            println!("artifact: {}", path.display());
        }
    }
}
