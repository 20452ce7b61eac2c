//! `perfbench compare <a.json> <b.json>`: per workload and end-to-end
//! metric, the relative change from `a` to `b` against the metric's
//! bound. A change is `unresolved`, not a verdict, when either side's
//! own spread is wider than the bound. Virtual-time metrics and exact
//! counts must be identical when the seeds are. Exits non-zero on a
//! breach, so it serves the A/A criterion and as a later `bench_diff`.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, SIM_METRICS};
use crate::stats::{median, relative_iqr};
use std::collections::BTreeMap;

/// One run document, reduced to what `compare` reads.
#[derive(Clone, Debug, Default)]
struct Run {
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
    spread: BTreeMap<String, f64>,
}

/// Runs of a file by workload. Accepts a `result.json` (`runs: [...]`)
/// or a single run document.
fn load(text: &str) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let doc = json::parse(text)?;
    let docs: Vec<&Value> = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for d in docs {
        let workload = d
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run document without `workload`")?;
        let mut run = Run {
            seed: d.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            trace: d.get("trace") == Some(&Value::Bool(true)),
            ..Run::default()
        };
        for (name, m) in d
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                run.metrics.insert(name.clone(), v);
            }
        }
        for (name, s) in d
            .get("spread")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(v) = s.as_f64() {
                run.spread.insert(name.clone(), v);
            }
        }
        by_workload
            .entry(workload.to_string())
            .or_default()
            .push(run);
    }
    Ok(by_workload)
}

/// Median and spread of one metric over a file's untraced runs of a
/// workload. Three or more runs give their own spread; fewer fall back
/// on the spread each run measured inside itself.
fn summarize(runs: &[Run], metric: &str) -> Option<(f64, f64)> {
    let untraced: Vec<&Run> = runs.iter().filter(|r| !r.trace).collect();
    let values: Vec<f64> = untraced
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 3 {
        relative_iqr(&values)
    } else {
        let within: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.spread.get(metric).copied())
            .collect();
        median(&within)
    };
    Some((median(&values), spread))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Breach,
}

/// Judge a move from `a` to `b` of a metric with the given direction
/// and bound, when the two sides' own spreads are `spread_a` and
/// `spread_b`. Returns the worsening as a share of `a` (negative when
/// `b` is better) and the verdict.
pub fn judge(
    better: Better,
    bound: f64,
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
) -> (f64, Verdict) {
    let worse = if a == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    };
    let noisy = spread_a > bound || spread_b > bound;
    let verdict = if worse.abs() <= bound {
        Verdict::Ok
    } else if noisy {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Breach
    } else {
        Verdict::Improved
    };
    (worse, verdict)
}

/// Compare two files' texts. Returns the report and whether any
/// pairing breached.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = load(a_text)?;
    let b = load(b_text)?;
    let mut out = String::new();
    let mut breached = false;
    out.push_str(&format!(
        "{:<24} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse", "bound"
    ));
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            out.push_str(&format!("{workload:<24} only in the first file\n"));
            continue;
        };
        for m in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (summarize(runs_a, m.def.name), summarize(runs_b, m.def.name))
            else {
                continue;
            };
            let (worse, verdict) = judge(m.def.better, m.bound, va, vb, sa, sb);
            breached |= verdict == Verdict::Breach;
            let label = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Improved => "improved".to_string(),
                Verdict::Breach => "BREACH".to_string(),
                Verdict::Unresolved => {
                    format!("unresolved (spread {:.3} / {:.3})", sa, sb)
                }
            };
            out.push_str(&format!(
                "{workload:<24} {:<22} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.1}%  {label}\n",
                m.def.name,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
        // Same seed, same modelled system and same work: no tolerance.
        let traced = |runs: &[Run]| -> BTreeMap<u64, Run> {
            runs.iter()
                .filter(|r| r.trace)
                .map(|r| (r.seed, r.clone()))
                .collect()
        };
        let (ta, tb) = (traced(runs_a), traced(runs_b));
        for (seed, ra) in &ta {
            let Some(rb) = tb.get(seed) else { continue };
            for name in SIM_METRICS.iter().chain(EXACT_COUNTS) {
                let (va, vb) = (ra.metrics.get(*name), rb.metrics.get(*name));
                if va != vb {
                    breached = true;
                    out.push_str(&format!(
                        "{workload:<24} {name:<22} {va:>14?} {vb:>14?}  DIFFERS on seed {seed}\n"
                    ));
                }
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        out.push_str(&format!("{workload:<24} only in the second file\n"));
    }
    out.push_str(if breached {
        "compare: at least one metric breached its bound\n"
    } else {
        "compare: no breach\n"
    });
    Ok((out, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_doc(workload: &str, trace: bool, metrics: &[(&str, f64)], spread: f64) -> String {
        json::object([
            ("workload", json::string(workload)),
            ("seed", "1".to_string()),
            ("trace", trace.to_string()),
            (
                "metrics",
                json::object(
                    metrics
                        .iter()
                        .map(|(k, v)| (*k, json::object([("value", json::number(*v))]))),
                ),
            ),
            (
                "spread",
                json::object(metrics.iter().map(|(k, _)| (*k, json::number(spread)))),
            ),
        ])
    }

    fn file(runs: &[String]) -> String {
        json::object([("runs", json::array(runs.iter().cloned()))])
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(Lower, 0.1, 10.0, 10.5, 0.0, 0.0).1, Verdict::Ok);
        assert_eq!(judge(Lower, 0.1, 10.0, 12.0, 0.0, 0.0).1, Verdict::Breach);
        assert_eq!(judge(Lower, 0.1, 10.0, 8.0, 0.0, 0.0).1, Verdict::Improved);
        assert_eq!(judge(Higher, 0.1, 10.0, 8.0, 0.0, 0.0).1, Verdict::Breach);
        assert_eq!(
            judge(Higher, 0.1, 10.0, 12.0, 0.0, 0.0).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(Lower, 0.1, 10.0, 12.0, 0.3, 0.0).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(Higher, 0.1, 10.0, 8.0, 0.0, 0.0);
        assert!((worse - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_run_compared_with_itself_does_not_breach() {
        let f = file(&[run_doc(
            "w",
            false,
            &[("ops_per_s", 100.0), ("op_ms_p50", 9.0)],
            0.01,
        )]);
        let (report, breached) = compare(&f, &f).unwrap();
        assert!(!breached, "{report}");
        assert!(report.contains("no breach"));
    }

    #[test]
    fn a_slowdown_breaches_unless_the_run_was_noisy() {
        let a = file(&[run_doc("w", false, &[("op_ms_p50", 10.0)], 0.01)]);
        let slow = file(&[run_doc("w", false, &[("op_ms_p50", 14.0)], 0.01)]);
        let noisy = file(&[run_doc("w", false, &[("op_ms_p50", 14.0)], 0.5)]);
        assert!(compare(&a, &slow).unwrap().1);
        let (report, breached) = compare(&a, &noisy).unwrap();
        assert!(!breached);
        assert!(report.contains("unresolved"));
    }

    #[test]
    fn virtual_time_metrics_must_match_exactly_on_equal_seeds() {
        let a = file(&[run_doc("w", true, &[("sim_ttft_p50_ms", 41.5)], 0.0)]);
        let b = file(&[run_doc("w", true, &[("sim_ttft_p50_ms", 41.6)], 0.0)]);
        assert!(!compare(&a, &a).unwrap().1);
        let (report, breached) = compare(&a, &b).unwrap();
        assert!(breached);
        assert!(report.contains("DIFFERS"));
    }

    #[test]
    fn three_runs_use_their_own_spread() {
        let runs =
            |vals: [f64; 3]| file(&vals.map(|v| run_doc("w", false, &[("ops_per_s", v)], 0.0)));
        // Medians 100 → 60 is a 40% drop, but b's runs disagree by more
        // than the bound among themselves.
        let (report, breached) =
            compare(&runs([100.0, 100.0, 100.0]), &runs([30.0, 60.0, 100.0])).unwrap();
        assert!(!breached, "{report}");
        assert!(report.contains("unresolved"));
    }

    #[test]
    fn malformed_files_are_errors() {
        assert!(compare("{", "{}").is_err());
        assert!(compare("{}", "{}").is_err());
    }
}
