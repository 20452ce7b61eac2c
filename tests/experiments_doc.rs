//! EXPERIMENTS.md shows what ran. Every result table in it is a block
//!
//! ````text
//! <!-- report:NAME -->
//! ```text
//! …what `genie-bench NAME` prints…
//! ```
//! <!-- /report -->
//! ````
//!
//! rendered from `genie_bench::REPORTS`. This test runs every report in
//! process — so every report's own asserts run too — and compares each
//! one's text with its block. A block that names no report, a report
//! without a block and any difference fail the test, which then prints
//! each block as rendered now. Trailing whitespace is not compared (the
//! console tables pad their last column). `trace_export` has no block:
//! its spans carry host-clock timestamps.

use genie::bench::REPORTS;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const OPEN: &str = "<!-- report:";
const CLOSE: &str = "<!-- /report -->";

/// The block for report `name` whose run printed `text`.
fn render(name: &str, text: &str) -> String {
    let lines: Vec<&str> = text.trim_end().lines().map(str::trim_end).collect();
    format!(
        "{OPEN}{name} -->\n```text\n{}\n```\n{CLOSE}",
        lines.join("\n")
    )
}

/// Every `(name, block)` in the document, in order.
fn blocks(doc: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(OPEN) {
        let from = &rest[at..];
        let name_end = from
            .find(" -->")
            .expect("a report marker closes on its line");
        let end = from.find(CLOSE).expect("every report block is closed") + CLOSE.len();
        out.push((&from[OPEN.len()..name_end], &from[..end]));
        rest = &from[end..];
    }
    out
}

#[test]
fn every_result_block_is_what_its_report_prints() {
    let found = blocks(DOC);
    let mut failures = Vec::new();
    for (name, _) in &found {
        if !REPORTS.iter().any(|(n, _)| n == name) || *name == "trace_export" {
            failures.push(format!("block `{name}` names no checked report"));
        }
    }
    let mut rendered = String::new();
    for (name, run) in REPORTS.iter().filter(|(n, _)| *n != "trace_export") {
        let block = render(name, &run().text);
        match found.iter().filter(|(n, _)| n == name).count() {
            1 => {}
            n => failures.push(format!("report `{name}` has {n} blocks, not 1")),
        }
        if !found.iter().any(|&(_, b)| b == block) {
            failures.push(format!("block `{name}` differs from the report"));
        }
        rendered.push_str(&block);
        rendered.push_str("\n\n");
    }
    assert!(
        failures.is_empty(),
        "EXPERIMENTS.md does not show what ran:\n{}\n\nevery block as rendered now:\n\n{rendered}",
        failures.join("\n")
    );
}
