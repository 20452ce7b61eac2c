//! `genie-top`: a human-readable summary of a telemetry capture.
//!
//! Renders the metrics snapshot plus the span stream as the kind of
//! at-a-glance table an operator would watch — per-device busy time,
//! link traffic and queueing, and the hottest span names by cumulative
//! time.

use crate::metrics::MetricsSnapshot;
use crate::span::{SpanKind, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render the `genie-top` table from a metrics snapshot and span stream.
pub fn render_top(snapshot: &MetricsSnapshot, records: &[SpanRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== genie-top ===");

    // --- Devices: simulated busy time ------------------------------------
    let devices: BTreeMap<&str, f64> = snapshot
        .gauges
        .iter()
        .filter(|g| g.name == "genie_sim_device_busy_seconds")
        .filter_map(|g| {
            let (_, dev) = g.labels.iter().find(|(k, _)| k == "device")?;
            Some((dev.as_str(), g.value))
        })
        .collect();
    if !devices.is_empty() {
        let _ = writeln!(out, "\n{:<8} {:>12}", "DEVICE", "BUSY(s)");
        for (dev, busy) in &devices {
            let _ = writeln!(out, "{dev:<8} {busy:>12.4}");
        }
    }

    // --- Counters worth a line -------------------------------------------
    let interesting = [
        "genie_capture_ops_total",
        "genie_schedule_plans_total",
        "genie_schedule_transfers_total",
        "genie_schedule_pinned_uploads_total",
        "genie_schedule_lint_findings_total",
        "genie_sim_kernels_total",
        "genie_sim_transfers_total",
        "genie_transport_calls_total",
        "genie_transport_bytes_total",
        "genie_transport_errors_total",
        "genie_tensor_kernel_dispatch_total",
        "genie_worker_pool_parks_total",
    ];
    let mut any = false;
    for c in &snapshot.counters {
        if !interesting.contains(&c.name.as_str()) || c.value == 0 {
            continue;
        }
        if !any {
            let _ = writeln!(out, "\n{:<44} {:>14}", "COUNTER", "VALUE");
            any = true;
        }
        let labels = if c.labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = c.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", inner.join(","))
        };
        let _ = writeln!(out, "{:<44} {:>14}", format!("{}{labels}", c.name), c.value);
    }

    // --- Kernel dispatch tiers -------------------------------------------
    // Roll the per-(op,path) dispatch counters up by path so the tier
    // mix (scalar/blocked/parallel/simd/int8/fp16) reads at a glance.
    let mut tiers: BTreeMap<&str, u64> = BTreeMap::new();
    for c in &snapshot.counters {
        if c.name != "genie_tensor_kernel_dispatch_total" || c.value == 0 {
            continue;
        }
        if let Some((_, path)) = c.labels.iter().find(|(k, _)| k == "path") {
            *tiers.entry(path.as_str()).or_insert(0) += c.value;
        }
    }
    if !tiers.is_empty() {
        let _ = writeln!(out, "\n{:<12} {:>14}", "TIER", "DISPATCHES");
        for (path, n) in &tiers {
            let _ = writeln!(out, "{path:<12} {n:>14}");
        }
    }

    // --- Scalar gauges worth a line --------------------------------------
    for g in &snapshot.gauges {
        if g.name == "genie_cost_cache_hit_rate" {
            let _ = writeln!(
                out,
                "\ncost-model cache hit rate: {:>5.1}%",
                g.value * 100.0
            );
        }
        if g.name == "genie_worker_pool_busy" {
            let _ = writeln!(out, "\nworker pool busy (peak jobs): {:.0}", g.value);
        }
    }

    // --- Latency histograms ----------------------------------------------
    let mut any_hist = false;
    for h in &snapshot.histograms {
        if h.count == 0 {
            continue;
        }
        if !any_hist {
            let _ = writeln!(
                out,
                "\n{:<36} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "HISTOGRAM", "COUNT", "MEAN", "P50", "P99", "SUM"
            );
            any_hist = true;
        }
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            h.name,
            h.count,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.99),
            h.sum
        );
    }

    // --- Hot spans by cumulative time ------------------------------------
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in records {
        if r.kind == SpanKind::Instant {
            continue;
        }
        let e = by_name.entry(&r.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.dur_ns;
    }
    if !by_name.is_empty() {
        let mut hot: Vec<(&str, u64, u64)> =
            by_name.into_iter().map(|(n, (c, d))| (n, c, d)).collect();
        hot.sort_by_key(|h| std::cmp::Reverse(h.2));
        let _ = writeln!(out, "\n{:<36} {:>8} {:>14}", "SPAN", "COUNT", "TOTAL(ms)");
        for (name, count, dur_ns) in hot.into_iter().take(12) {
            let _ = writeln!(out, "{name:<36} {count:>8} {:>14.3}", dur_ns as f64 / 1e6);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::{SemAttrs, Track};

    #[test]
    fn top_renders_devices_counters_and_spans() {
        let reg = MetricsRegistry::new();
        reg.gauge("genie_sim_device_busy_seconds", &[("device", "d0")])
            .set(1.5);
        reg.counter("genie_sim_kernels_total", &[]).add(12);
        reg.counter(
            "genie_tensor_kernel_dispatch_total",
            &[("op", "matmul"), ("path", "blocked")],
        )
        .add(3);
        reg.counter(
            "genie_tensor_kernel_dispatch_total",
            &[("op", "attention"), ("path", "simd")],
        )
        .add(5);
        reg.counter(
            "genie_tensor_kernel_dispatch_total",
            &[("op", "matmul"), ("path", "simd")],
        )
        .add(2);
        reg.gauge("genie_cost_cache_hit_rate", &[]).set(0.875);
        reg.gauge("genie_worker_pool_busy", &[]).set(3.0);
        reg.counter("genie_worker_pool_parks_total", &[]).add(14);
        reg.histogram("genie_schedule_seconds", &[], &[0.1, 1.0])
            .observe(0.05);
        let records = vec![SpanRecord {
            id: 1,
            parent: None,
            name: "schedule".into(),
            category: "scheduler".into(),
            kind: SpanKind::Span,
            track: Track::Runtime,
            start_ns: 0,
            dur_ns: 2_000_000,
            attrs: SemAttrs::new(),
            thread: 1,
            seq: 0,
        }];
        let top = render_top(&reg.snapshot(), &records);
        assert!(top.contains("genie-top"), "{top}");
        assert!(
            top.contains(&format!(
                "{:<8} {:>12}\n{:<8} {:>12.4}\n",
                "DEVICE", "BUSY(s)", "d0", 1.5
            )),
            "{top}"
        );
        assert!(top.contains("genie_sim_kernels_total"), "{top}");
        assert!(
            top.contains("genie_tensor_kernel_dispatch_total{op=matmul,path=blocked}"),
            "{top}"
        );
        assert!(top.contains("cost-model cache hit rate:  87.5%"), "{top}");
        assert!(top.contains("worker pool busy (peak jobs): 3"), "{top}");
        assert!(
            top.contains(&format!(
                "{:<44} {:>14}",
                "genie_worker_pool_parks_total", 14
            )),
            "{top}"
        );
        // Tier rollup sums per-op counters that share a path label.
        assert!(top.contains("TIER"), "{top}");
        assert!(top.contains(&format!("{:<12} {:>14}", "simd", 7)), "{top}");
        assert!(top.contains("genie_schedule_seconds"), "{top}");
        assert!(top.contains("schedule"), "{top}");
        // The histogram row carries interpolated quantiles, not proxies.
        assert!(top.contains("P50"), "{top}");
        assert!(top.contains("P99"), "{top}");
    }

    #[test]
    fn empty_capture_renders_header_only() {
        let top = render_top(&MetricsSnapshot::default(), &[]);
        assert!(top.starts_with("=== genie-top ==="));
    }
}
