//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Registration hands back cheap `Arc`-backed handles whose hot-path
//! operations are single atomic instructions; the registry itself is only
//! locked at registration and snapshot time. Snapshots are plain
//! data renderable as JSON (bench artifacts) or Prometheus text
//! exposition (scrape endpoints).

use crate::lock;
use genie_srg::{json::Value, json_object};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// `(name, sorted labels)` — the identity of one time series.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

/// A monotonically-increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge (stored as f64 bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add to the value (CAS loop; gauges are not hot-path).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram. Buckets are cumulative upper bounds
/// (Prometheus `le` semantics); an implicit `+Inf` bucket catches the
/// rest.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<f64>>,
    counts: Arc<Vec<AtomicU64>>, // one per bound, plus +Inf at the end
    sum_bits: Arc<AtomicU64>,
    total: Arc<AtomicU64>,
}

/// Default exponential bounds in seconds: 1 µs … 100 s.
pub const DEFAULT_TIME_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0];

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must increase"
        );
        Histogram {
            bounds: Arc::new(bounds.to_vec()),
            counts: Arc::new((0..=bounds.len()).map(|_| AtomicU64::new(0)).collect()),
            sum_bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            total: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // CAS float accumulation; histograms observe at span granularity,
        // not per-byte, so contention here is negligible.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: name+labels → live metric handles.
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<SeriesKey, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut series = lock(&self.series);
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut series = lock(&self.series);
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Get or create a histogram with the given cumulative upper bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let mut series = lock(&self.series);
        match series
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = lock(&self.series);
        let mut snap = MetricsSnapshot::default();
        for (k, m) in series.iter() {
            match m {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    let mut buckets = Vec::with_capacity(h.bounds.len() + 1);
                    for (i, &b) in h.bounds.iter().enumerate() {
                        cumulative += h.counts[i].load(Ordering::Relaxed);
                        buckets.push(BucketSample {
                            le: b,
                            count: cumulative,
                        });
                    }
                    buckets.push(BucketSample {
                        le: f64::INFINITY,
                        count: h.count(),
                    });
                    snap.histograms.push(HistogramSample {
                        name: k.name.clone(),
                        labels: k.labels.clone(),
                        buckets,
                        sum: h.sum(),
                        count: h.count(),
                    });
                }
            }
        }
        snap
    }
}

/// One counter sample.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value.
    pub value: u64,
}

/// One gauge sample.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Value.
    pub value: f64,
}

/// One cumulative histogram bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketSample {
    /// Upper bound (`le`), `+Inf` for the last bucket (the string
    /// `"+Inf"` in JSON, which has no infinity literal).
    pub le: f64,
    /// Observations ≤ `le`.
    pub count: u64,
}

/// One histogram sample.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Cumulative buckets, increasing `le`.
    pub buckets: Vec<BucketSample>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSample {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-interpolated quantile, `q` in `[0, 1]` (Prometheus
    /// `histogram_quantile` semantics): locate the cumulative bucket
    /// containing the q-th observation and linearly interpolate
    /// between the previous bound (0 for the first bucket) and the
    /// bucket's upper bound. Returns 0 when empty; a rank landing in
    /// the `+Inf` bucket returns the highest finite bound, the best
    /// statement the histogram can make.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut prev_bound = 0.0_f64;
        let mut prev_count = 0u64;
        for b in &self.buckets {
            let in_bucket = b.count.saturating_sub(prev_count) as f64;
            if (b.count as f64) >= rank && in_bucket > 0.0 {
                if b.le.is_infinite() {
                    return prev_bound;
                }
                let frac = (rank - prev_count as f64).max(0.0) / in_bucket;
                return prev_bound + (b.le - prev_bound) * frac;
            }
            if !b.le.is_infinite() {
                prev_bound = b.le;
            }
            prev_count = b.count;
        }
        prev_bound
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name/labels.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl MetricsSnapshot {
    /// Find a counter by name and label subset.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && labels_match(&c.labels, labels))
            .map(|c| c.value)
    }

    /// Find a gauge by name and label subset.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_match(&g.labels, labels))
            .map(|g| g.value)
    }

    /// Find a histogram by name and label subset.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_match(&h.labels, labels))
    }

    /// Render as Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_name.as_deref() != Some(name) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_name = Some(name.to_string());
            }
        };
        for c in &self.counters {
            type_line(&mut out, &c.name, "counter");
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                render_labels(&c.labels),
                c.value
            ));
        }
        for g in &self.gauges {
            type_line(&mut out, &g.name, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                render_labels(&g.labels),
                g.value
            ));
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "histogram");
            for b in &h.buckets {
                let mut labels = h.labels.clone();
                let le = if b.le.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{}", b.le)
                };
                labels.push(("le".into(), le));
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    render_labels(&labels),
                    b.count
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                h.name,
                render_labels(&h.labels),
                h.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                render_labels(&h.labels),
                h.count
            ));
        }
        out
    }

    /// The snapshot as a JSON document: `counters`, `gauges`,
    /// `histograms`; labels are `[key, value]` pairs.
    pub fn to_json(&self) -> Value {
        fn labels(pairs: &[(String, String)]) -> Vec<Value> {
            let pair = |(k, v): &(String, String)| vec![k.as_str(), v.as_str()].into();
            pairs.iter().map(pair).collect()
        }
        let sample = |name: &str, pairs: &[(String, String)], value: Value| {
            json_object! { "name": name, "labels": labels(pairs), "value": value }
        };
        let counter = |c: &CounterSample| sample(&c.name, &c.labels, c.value.into());
        let gauge = |g: &GaugeSample| sample(&g.name, &g.labels, g.value.into());
        let bucket = |b: &BucketSample| {
            let le = if b.le.is_infinite() {
                "+Inf".into()
            } else {
                Value::from(b.le)
            };
            json_object! { "le": le, "count": b.count }
        };
        let histogram = |h: &HistogramSample| {
            json_object! {
                "name": h.name.as_str(),
                "labels": labels(&h.labels),
                "buckets": h.buckets.iter().map(bucket).collect::<Vec<_>>(),
                "sum": h.sum,
                "count": h.count,
            }
        };
        json_object! {
            "counters": self.counters.iter().map(counter).collect::<Vec<_>>(),
            "gauges": self.gauges.iter().map(gauge).collect::<Vec<_>>(),
            "histograms": self.histograms.iter().map(histogram).collect::<Vec<_>>(),
        }
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("genie_test_total", &[("dev", "d0")]);
        c.inc();
        c.add(4);
        // Re-registration returns the same series.
        reg.counter("genie_test_total", &[("dev", "d0")]).inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("genie_test_gauge", &[]);
        g.set(2.5);
        g.add(0.5);
        assert_eq!(g.get(), 3.0);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("genie_test_total", &[("dev", "d0")]), Some(6));
        assert_eq!(snap.gauge("genie_test_gauge", &[]), Some(3.0));
        assert_eq!(snap.counter("missing", &[]), None);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("genie_test_seconds", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        let snap = reg.snapshot();
        let hs = snap.histogram("genie_test_seconds", &[]).unwrap();
        let counts: Vec<u64> = hs.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 3, 4, 5]);
        assert!(hs.buckets.last().unwrap().le.is_infinite());
        assert!((hs.mean() - 56.05 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("genie_q_seconds", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("genie_q_seconds", &[]).unwrap();
        // rank 2.5 of cumulative [1, 3, 4, 5] lands in (0.1, 1.0]:
        // 0.1 + (1.0 - 0.1) * (2.5 - 1) / 2 = 0.775.
        assert!((hs.quantile(0.5) - 0.775).abs() < 1e-9);
        // rank 4.95 lands in the +Inf bucket: clamp to the last finite
        // bound instead of inventing a number.
        assert!((hs.quantile(0.99) - 10.0).abs() < 1e-9);
        // Degenerate cases stay finite and ordered.
        assert_eq!(hs.quantile(-1.0), hs.quantile(0.0));
        assert!(hs.quantile(0.25) <= hs.quantile(0.75));
        let empty = HistogramSample {
            name: "e".into(),
            labels: vec![],
            buckets: vec![],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.99), 0.0);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("genie_a_total", &[("k", "v")]).add(3);
        reg.gauge("genie_b", &[]).set(1.25);
        reg.histogram("genie_c_seconds", &[], &DEFAULT_TIME_BOUNDS)
            .observe(0.002);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(
            json["counters"].to_string(),
            r#"[{"name":"genie_a_total","labels":[["k","v"]],"value":3}]"#
        );
        assert_eq!(
            json["gauges"].to_string(),
            r#"[{"name":"genie_b","labels":[],"value":1.25}]"#
        );
        let buckets = json["histograms"].as_array().unwrap()[0]["buckets"]
            .as_array()
            .unwrap();
        assert_eq!(buckets.len(), DEFAULT_TIME_BOUNDS.len() + 1);
        assert_eq!(
            buckets[0].to_string(),
            format!(r#"{{"le":{:?},"count":0}}"#, DEFAULT_TIME_BOUNDS[0])
        );
        // The +Inf bucket is the string "+Inf", not null.
        assert_eq!(
            buckets.last().unwrap().to_string(),
            r#"{"le":"+Inf","count":1}"#
        );
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("genie_rpc_total", &[("role", "client")]).add(7);
        reg.histogram("genie_lat_seconds", &[], &[0.1, 1.0])
            .observe(0.5);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE genie_rpc_total counter"));
        assert!(text.contains("genie_rpc_total{role=\"client\"} 7"));
        assert!(text.contains("# TYPE genie_lat_seconds histogram"));
        assert!(text.contains("genie_lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("genie_lat_seconds_count 1"));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let c = reg.counter("genie_hammer_total", &[]);
                    let h = reg.histogram("genie_hammer_seconds", &[], &DEFAULT_TIME_BOUNDS);
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i as f64 * 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("genie_hammer_total", &[]), Some(8000));
        assert_eq!(
            snap.histogram("genie_hammer_seconds", &[]).unwrap().count,
            8000
        );
    }
}
