//! Spans around the driver's calls into each layer's public functions.
//!
//! Layers are measured from outside only: a span opens just before the
//! driver calls into a crate and closes when the call returns. Spans
//! are kept in memory and written at exit in Chrome trace-event format,
//! so they open beside `trace_export`'s virtual-clock traces.

use crate::json;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Tracer::spans`]; `op` is the
/// id shared by every span of one closed-loop op (0 outside any op,
/// e.g. `probe.*` replays).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a plain call-through when not, so the
/// untraced pass pays one branch per wrapped call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    next_op: u64,
}

/// Name of the span that wraps one whole op.
pub const OP_SPAN: &str = "op";

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: 1,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. The tracer is handed back to `f` so calls
    /// made from inside nest under this span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            op: self.op,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run `f` as one op: a span named [`OP_SPAN`] whose id every span
    /// opened inside carries.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.op = self.next_op;
        self.next_op += 1;
        let out = self.span(OP_SPAN, "driver", f);
        self.op = 0;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with this name, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total milliseconds spent in spans with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }

    /// Durations in microseconds of spans with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }
}

/// Nanoseconds of `[start, end)` covered by the direct children of span
/// `idx`. Children of one parent are recorded by one thread in call
/// order, so they never overlap and their durations add.
pub fn child_cover_ns(spans: &[Span], idx: usize) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_ns)
        .sum()
}

/// A span's duration minus the part its children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    spans[idx]
        .dur_ns()
        .saturating_sub(child_cover_ns(spans, idx))
}

/// Over all op spans: their self time as a share of their total time.
/// Near 0 when an op is made only of wrapped calls.
pub fn tiling_residual_ratio(spans: &[Span]) -> f64 {
    let ops = || (0..spans.len()).filter(|&i| spans[i].name == OP_SPAN);
    let total: u64 = ops().map(|i| spans[i].dur_ns()).sum();
    let uncovered: u64 = ops().map(|i| self_ns(spans, i)).sum();
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

/// Most spans one trace file holds; later spans still count toward the
/// per-layer numbers but are left out of the file.
pub const MAX_TRACE_EVENTS: usize = 100_000;

/// The spans as a Chrome trace-event document (`ph: "X"`, microsecond
/// timestamps, one track per layer). `args` carries op id and parent.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut layers: Vec<&str> = spans.iter().map(|s| s.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) + 1;

    let mut events: Vec<String> = layers
        .iter()
        .map(|layer| {
            json::object([
                ("name", json::string("thread_name")),
                ("ph", json::string("M")),
                ("pid", "1".to_string()),
                ("tid", tid(layer).to_string()),
                ("args", json::object([("name", json::string(layer))])),
            ])
        })
        .collect();
    for (idx, s) in spans.iter().enumerate().take(MAX_TRACE_EVENTS) {
        let mut args = vec![("id", idx.to_string()), ("op", s.op.to_string())];
        if let Some(p) = s.parent {
            args.push(("parent", p.to_string()));
        }
        events.push(json::object([
            ("name", json::string(s.name)),
            ("cat", json::string(s.layer)),
            ("ph", json::string("X")),
            ("ts", json::number(s.start_ns as f64 / 1e3)),
            ("dur", json::number(s.dur_ns() as f64 / 1e3)),
            ("pid", "1".to_string()),
            ("tid", tid(s.layer).to_string()),
            ("args", json::object(args)),
        ]));
    }
    json::object([
        ("displayTimeUnit", json::string("ms")),
        (
            "otherData",
            json::object([
                ("workload", json::string(workload)),
                ("clock", json::string("host")),
                ("spans_recorded", spans.len().to_string()),
            ]),
        ),
        ("traceEvents", json::array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, op: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            op,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(OP_SPAN, 0, 100, 1, None),
            span("a", 10, 40, 1, Some(0)),
            span("a.inner", 15, 35, 1, Some(1)),
            span("b", 50, 90, 1, Some(0)),
        ];
        assert_eq!(child_cover_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 10);
        assert_eq!(self_ns(&spans, 3), 40);
    }

    #[test]
    fn tiling_residual_is_uncovered_share_of_ops() {
        let spans = vec![
            span(OP_SPAN, 0, 100, 1, None),
            span("a", 0, 95, 1, Some(0)),
            span(OP_SPAN, 100, 200, 2, None),
            span("a", 100, 195, 2, Some(2)),
            span("probe.x", 200, 300, 0, None),
        ];
        assert!((tiling_residual_ratio(&spans) - 0.05).abs() < 1e-12);
        assert_eq!(tiling_residual_ratio(&[]), 0.0);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut t = Tracer::new(true);
        let got = t.op(|t| t.span("outer", "l", |t| t.span("inner", "l", |_| 7)));
        assert_eq!(got, 7);
        t.span("probe.after", "l", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent, s[0].op), (OP_SPAN, None, 1));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("outer", Some(0), 1));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("inner", Some(1), 1));
        assert_eq!((s[3].name, s[3].parent, s[3].op), ("probe.after", None, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.op(|t| t.span("x", "l", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_and_carries_op_and_parent() {
        let spans = vec![
            span(OP_SPAN, 0, 2000, 1, None),
            span("a", 500, 1500, 1, Some(0)),
        ];
        let doc = json::parse(&chrome_trace(&spans, "w")).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        let a = events
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("a"))
            .unwrap();
        assert_eq!(a.get("dur").and_then(json::Value::as_f64), Some(1.0));
        let args = a.get("args").unwrap();
        assert_eq!(args.get("op").and_then(json::Value::as_f64), Some(1.0));
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
    }
}
