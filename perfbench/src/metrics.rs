//! The metric registry: every number the benchmark reports, by name,
//! with its unit and direction. `BENCHMARK.json` at the repository root
//! repeats this list for the driver; a unit test keeps the two equal.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host-time metrics a user of the program sees; all apply to all six
/// workloads and come from the untraced pass.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        def: lower("setup_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        def: higher("ops_per_s", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("op_ms_p50", "ms"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("op_ms_p90", "ms"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("peak_rss_mb", "MiB"),
        bound: 0.20,
    },
];

/// Virtual-time metrics of the modelled serving system. They repeat
/// exactly for a seed, so `compare` demands equality on equal seeds.
pub const SIM_METRICS: &[&str] = &[
    "sim_ttft_p50_ms",
    "sim_ttft_p99_ms",
    "sim_itl_p99_ms",
    "sim_tokens_per_s",
    "sim_goodput_ratio",
    "sim_max_rate_in_slo",
];

/// Counts that repeat exactly for a seed; `compare` demands equality.
pub const EXACT_COUNTS: &[&str] = &[
    "srg.nodes_per_op",
    "srg.edges_per_op",
    "serving.sim_events_per_op",
    "serving.sim_requests_per_op",
    "serving.sim_steps_per_op",
    "serving.tokens_per_op",
    "transport.calls_per_op",
    "transport.wire_bytes_per_op",
];

/// Per-layer metrics of the traced pass; layers are the crate names.
/// `README.md` defines each one.
pub const PER_LAYER: &[MetricDef] = &[
    // Virtual-time quality of the modelled serving system (serve_sim_*).
    lower("sim_ttft_p50_ms", "ms"),
    lower("sim_ttft_p99_ms", "ms"),
    lower("sim_itl_p99_ms", "ms"),
    higher("sim_tokens_per_s", "tokens/s"),
    higher("sim_goodput_ratio", "ratio"),
    higher("sim_max_rate_in_slo", "req/s"),
    // frontend
    lower("frontend.capture_ms_per_op", "ms"),
    lower("frontend.capture_us_per_node", "us"),
    lower("frontend.annotate_ms_per_op", "ms"),
    lower("frontend.interp_prefill_ms_per_op", "ms"),
    lower("frontend.interp_decode_ms_per_op", "ms"),
    lower("frontend.interp_self_ms_per_op", "ms"),
    lower("frontend.capture_over_exec_ratio", "ratio"),
    // srg
    lower("srg.nodes_per_op", "count"),
    lower("srg.edges_per_op", "count"),
    lower("srg.validate_ms_per_op", "ms"),
    lower("srg.alloc_bytes_per_node", "B"),
    // analysis
    lower("analysis.srg_passes_ms_per_op", "ms"),
    lower("analysis.srg_passes_ms_max_graph", "ms"),
    lower("analysis.plan_passes_ms_per_op", "ms"),
    lower("analysis.findings_per_op", "count"),
    // scheduler
    lower("scheduler.schedule_ms_per_op", "ms"),
    lower("scheduler.schedule_self_ms_per_op", "ms"),
    higher("scheduler.cost_cache_hit_ratio", "ratio"),
    lower("scheduler.transfers_per_op", "count"),
    // backend
    lower("backend.simulate_ms_per_op", "ms"),
    lower("backend.payload_convert_ms_per_op", "ms"),
    higher("backend.payload_convert_mb_per_s", "MB/s"),
    lower("backend.step_price_us_per_call", "us"),
    // netsim
    lower("netsim.trace_events_per_op", "count"),
    lower("netsim.fault_outcome_ns_per_call", "ns"),
    // transport
    lower("transport.ping_rtt_us_p50", "us"),
    lower("transport.ping_rtt_us_p99", "us"),
    lower("transport.small_call_us_p50", "us"),
    higher("transport.bulk_upload_mb_per_s", "MB/s"),
    higher("transport.bulk_fetch_mb_per_s", "MB/s"),
    lower("transport.codec_small_us_per_msg", "us"),
    higher("transport.codec_bulk_mb_per_s", "MB/s"),
    lower("transport.wire_bytes_per_op", "B"),
    lower("transport.calls_per_op", "count"),
    lower("transport.errors_per_op", "count"),
    // tensor
    lower("tensor.calib_matmul96_ms", "ms"),
    lower("tensor.kernel_replay_ms_per_op", "ms"),
    higher("tensor.matmul_gflops_wide", "GFLOP/s"),
    higher("tensor.matmul_gflops_decode", "GFLOP/s"),
    lower("tensor.dispatch_scalar_per_op", "count"),
    lower("tensor.dispatch_blocked_per_op", "count"),
    lower("tensor.dispatch_simd_per_op", "count"),
    lower("tensor.dispatch_parallel_per_op", "count"),
    lower("tensor.pool_busy_peak", "count"),
    lower("tensor.pool_threads", "count"),
    // serving: host cost of the engine
    lower("serving.run_ms_per_op", "ms"),
    lower("serving.engine_self_ms_per_op", "ms"),
    lower("serving.sim_requests_per_op", "count"),
    lower("serving.sim_steps_per_op", "count"),
    lower("serving.sim_events_per_op", "count"),
    lower("serving.tokens_per_op", "count"),
    lower("serving.host_us_per_sim_event", "us"),
    higher("serving.sim_events_per_host_s", "1/s"),
    // serving: behaviour of the modelled system
    higher("serving.mean_batch_size", "count"),
    lower("serving.sim_queue_wait_p50_ms", "ms"),
    lower("serving.preemptions_per_op", "count"),
    lower("serving.reprefills_per_step", "ratio"),
    lower("serving.migrations_per_op", "count"),
    higher("serving.migration_success_ratio", "ratio"),
    lower("serving.shed_ratio", "ratio"),
    lower("serving.peak_kv_bytes", "B"),
    // telemetry
    lower("telemetry.analyze_ms_per_op", "ms"),
    lower("telemetry.what_if_ms_per_op", "ms"),
    lower("telemetry.span_record_ns", "ns"),
    lower("telemetry.dropped_per_op", "count"),
    lower("telemetry.overhead_ratio", "ratio"),
    // models
    lower("models.build_ms", "ms"),
    // driver: health of the benchmark itself
    lower("driver.trace_overhead_ratio", "ratio"),
    lower("driver.tiling_residual_ratio", "ratio"),
    lower("driver.allocs_per_op", "count"),
    lower("driver.alloc_bytes_per_op", "B"),
    lower("driver.op_ms_p99", "ms"),
    lower("driver.host_slowdown_ratio", "ratio"),
    lower("driver.ops_per_s_slice_cv", "ratio"),
    higher("driver.ops_per_window", "count"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.def.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.def.unit)
        .or_else(|| per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

/// Values measured in one run, by registered name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`. A name missing from the registry is
    /// a bug in the benchmark, caught here rather than in an artifact.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = end_to_end(name)
            .map(|m| m.def.name)
            .or_else(|| per_layer(name).map(|m| m.name))
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// `part / whole`, or 0 when there is no whole (a ratio with no
/// attempts is reported as 0, and the count beside it says why).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|m| &m.def).chain(PER_LAYER.iter());
        for m in all {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in SIM_METRICS.iter().chain(EXACT_COUNTS) {
            assert!(per_layer(name).is_some(), "{name} not registered");
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name"), want.def.name);
            assert_eq!(field(got, "unit"), want.def.unit);
            assert_eq!(field(got, "better"), want.def.better.label());
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.label());
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::runner::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn unregistered_metric_is_refused() {
        let r = std::panic::catch_unwind(|| Metrics::default().set("no.such_metric", 1.0));
        assert!(r.is_err());
    }
}
