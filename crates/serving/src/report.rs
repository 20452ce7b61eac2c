//! The serving run report: outcomes, event log, step slices, SLO
//! statistics — and the views derived from them (spans, published
//! telemetry). Blame analysis borrows the log and the slices as they are.

use crate::request::{EventKind, LogEvent, Outcome, ServingRequest, ShedReason};
use crate::slo::SloStats;
use genie_netsim::Nanos;
use genie_telemetry::causal::{CausalTraceDoc, MemberPhase, StepSlice};
use genie_telemetry::{SemAttrs, SpanKind, SpanRecord, Track, DEFAULT_TIME_BOUNDS};
use std::collections::BTreeMap;

/// Everything a serving run produced, keyed for deterministic replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServingReport {
    /// Terminal outcome per request id (covers every offered request).
    pub outcomes: BTreeMap<u64, Outcome>,
    /// The full deterministic event log, in processing order: each
    /// request's own events are in time order (a law
    /// [`ServingLoop::audit`](crate::ServingLoop::audit) checks), but an
    /// arrival pumped after a step carries an instant inside that step.
    pub events: Vec<LogEvent>,
    /// Virtual time when the loop drained.
    pub makespan: Nanos,
    /// Batched decode/prefill steps executed.
    pub steps: u64,
    /// Re-prefill passes executed to restore lost KV (all causes).
    pub reprefills: u64,
    /// Re-prefills caused by LRU eviction under KV pressure.
    pub reprefills_evicted: u64,
    /// Re-prefills caused by a migration lost to a fabric fault.
    pub reprefills_migration: u64,
    /// Re-prefills the migration planner *chose* (shipping priced
    /// higher than recompute, or no decode lane had capacity).
    pub reprefills_planned: u64,
    /// LRU evictions performed under KV pressure.
    pub preemptions: u64,
    /// KV-prefix migrations started (disaggregated serving).
    pub migrations: u64,
    /// Migrations whose prefix landed on the decode lane.
    pub migrations_completed: u64,
    /// Migrations severed mid-flight by a fault.
    pub migrations_failed: u64,
    /// Total KV bytes successfully shipped across lanes.
    pub migrated_kv_bytes: u64,
    /// High-water mark of resident KV bytes across lanes.
    pub peak_kv_bytes: u64,
    /// Per-lane causal step decompositions (compute / link latency /
    /// payload / fault, with member phases) for blame analysis.
    pub slices: Vec<StepSlice>,
    /// Per-tenant SLO burn-rate snapshot at the end of the run.
    pub slo: SloStats,
}

impl ServingReport {
    /// A report that sheds every offered request with one reason — used
    /// when fleet admission refuses the tenant before any serving runs.
    pub fn all_shed(requests: &[ServingRequest], reason: ShedReason) -> Self {
        let mut report = ServingReport::default();
        for r in requests {
            report.outcomes.insert(
                r.id,
                Outcome::Shed {
                    reason,
                    at: r.arrival,
                },
            );
            report.events.push(LogEvent {
                at: r.arrival,
                request: r.id,
                kind: EventKind::Shed(reason),
                kv_resident_bytes: 0,
            });
            if r.arrival > report.makespan {
                report.makespan = r.arrival;
            }
        }
        report
    }

    /// The causal trace document for this run: the event log and the
    /// per-step slices, borrowed for
    /// [`genie_telemetry::causal::analyze`].
    pub fn causal_doc(&self) -> CausalTraceDoc<'_> {
        CausalTraceDoc {
            events: &self.events,
            slices: &self.slices,
        }
    }

    /// The run as spans with deterministic ids — feed these to a
    /// `ChromeTrace` for a stable Perfetto export. Per step, one
    /// `kv.migrate` span per prefix that left at its end (closed by that
    /// request's landing) and one `serving.step` span per busy lane; then
    /// one causal instant per lifecycle event, with a `cause` edge to the
    /// request's previous one ("causal" keeps them out of the
    /// serving-span contract).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = Vec::new();
        let log = self.events.iter().enumerate();
        let departures = log.filter_map(|(i, e)| match e.kind {
            EventKind::MigrateStart { from, to, bytes } => Some((i, e, from, to, bytes)),
            _ => None,
        });
        let mut departures = departures.peekable();
        for slice in &self.slices {
            // A step's first slice takes the departures at its barrier.
            while let Some((i, left, from, to, bytes)) =
                departures.next_if(|(_, left, ..)| left.at.0 <= slice.end_ns)
            {
                let mut later = self.events[i..]
                    .iter()
                    .filter(|e| e.request == left.request);
                let landing = later.find_map(|e| match e.kind {
                    EventKind::MigrateDone { .. } => Some((e.at, "delivered")),
                    EventKind::MigrateFail { .. } => Some((e.at, "lost")),
                    _ => None,
                });
                let Some((landed, outcome)) = landing else {
                    continue;
                };
                let attrs = SemAttrs::new()
                    .request(left.request)
                    .with("from_lane", from.to_string())
                    .with("to_lane", to.to_string())
                    .with("bytes", bytes.to_string())
                    .with("outcome", outcome);
                let (track, dur) = (Track::Device(to), landed.saturating_sub(left.at).0);
                push_span(&mut spans, "kv.migrate", track, left.at.0, dur, attrs);
            }
            let attrs = SemAttrs::new()
                .phase("llm_decode")
                .device(slice.lane)
                .with("members", slice.members.len().to_string())
                .with("step", slice.step.to_string());
            let (start, dur) = (slice.start_ns, slice.end_ns - slice.start_ns);
            let track = Track::Device(slice.lane);
            push_span(&mut spans, "serving.step", track, start, dur, attrs);
        }
        let mut last_causal: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &self.events {
            let Some(name) = lifecycle(&ev.kind) else {
                continue;
            };
            let mut attrs = SemAttrs::new().request(ev.request);
            if let EventKind::Admit { lane } = ev.kind {
                attrs = attrs.device(lane);
            }
            let id = spans.len() as u64 + 1;
            if let Some(prev) = last_causal.insert(ev.request, id) {
                attrs = attrs.cause(prev);
            }
            push_span(&mut spans, name, Track::Runtime, ev.at.0, 0, attrs);
        }
        spans
    }

    /// Project the run onto the process-global telemetry sinks: the
    /// `genie_serving_*` metrics derived from the counters, event log and
    /// step slices (so histograms observe integer-nanosecond stamps),
    /// [`spans`](Self::spans), and the SLO burn-rate gauges. The engine
    /// itself writes only the report.
    pub(crate) fn publish(&self) {
        let t = genie_telemetry::global();
        // Like `inc()` at the event itself, a zero count registers nothing.
        let count = |name: &str, labels: &[(&str, &str)], n: u64| {
            if n > 0 {
                t.metrics.counter(name, labels).add(n);
            }
        };
        count("genie_serving_steps_total", &[], self.steps);
        count("genie_serving_preempt_total", &[], self.preemptions);
        count("genie_serving_reprefill_total", &[], self.reprefills);
        count("genie_serving_migration_total", &[], self.migrations);
        let failed = self.migrations_failed;
        count("genie_serving_migration_failed_total", &[], failed);
        let (completed, shed) = (self.completed() as u64, self.shed() as u64);
        let requests = "genie_serving_requests_total";
        count(requests, &[("outcome", "completed")], completed);
        count(requests, &[("outcome", "shed")], shed);
        count("genie_serving_tokens_total", &[], self.tokens_generated());
        // One pass over the log: sheds by reason, and TTFT as each
        // request's first token minus its arrival.
        let ttft = "genie_serving_ttft_seconds";
        let ttft = t.metrics.histogram(ttft, &[], &DEFAULT_TIME_BOUNDS);
        let mut awaiting_first: BTreeMap<u64, Nanos> = BTreeMap::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Arrive => {
                    awaiting_first.insert(ev.request, ev.at);
                }
                EventKind::Token { .. } => {
                    if let Some(arrived) = awaiting_first.remove(&ev.request) {
                        ttft.observe(ev.at.saturating_sub(arrived).as_secs_f64());
                    }
                }
                EventKind::Shed(why) => {
                    count("genie_serving_shed_total", &[("reason", why.as_str())], 1);
                }
                _ => {}
            }
        }
        // Token latency: the barrier step, once per token it produced (a
        // re-prefilling member rebuilds KV without emitting one).
        let latency = "genie_serving_token_latency_seconds";
        let latency = t.metrics.histogram(latency, &[], &DEFAULT_TIME_BOUNDS);
        for slice in &self.slices {
            let step_s = Nanos(slice.end_ns - slice.start_ns).as_secs_f64();
            for m in &slice.members {
                if m.phase != MemberPhase::Reprefill {
                    latency.observe(step_s);
                }
            }
        }
        for span in self.spans() {
            t.collector.push(span);
        }
        for (tenant, s) in &self.slo.per_tenant {
            let tenant = tenant.to_string();
            let labels = [("tenant", tenant.as_str())];
            t.metrics
                .gauge("genie_slo_burn_rate", &labels)
                .set(s.burn_rate);
        }
    }

    /// Requests that completed.
    pub fn completed(&self) -> usize {
        self.outcomes
            .values()
            .filter(|o| matches!(o, Outcome::Completed { .. }))
            .count()
    }

    /// Requests that were shed.
    pub fn shed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }

    /// Fraction of offered requests shed (0 when none offered).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.shed() as f64 / self.outcomes.len() as f64
        }
    }

    /// Every token the run produced: one per `Token` event, including
    /// those of requests shed later (a preempted job that went stale in
    /// the queue, a lone member shed for `KvCapacity`). What reached a
    /// user is the other metric, goodput, read off `outcomes`.
    pub fn tokens_generated(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Token { .. }))
            .count() as u64
    }

    /// [`tokens_generated`](Self::tokens_generated) over the makespan:
    /// throughput of the devices, not goodput.
    pub fn tokens_per_s(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.tokens_generated() as f64 / secs
        }
    }

    /// Completed tokens for one request, if it completed.
    pub fn tokens_for(&self, id: u64) -> Option<&[i64]> {
        match self.outcomes.get(&id) {
            Some(Outcome::Completed { tokens, .. }) => Some(tokens),
            _ => None,
        }
    }

    /// Sorted TTFT samples (seconds) over completed requests.
    pub fn ttfts(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .outcomes
            .values()
            .filter_map(|o| match o {
                Outcome::Completed { ttft, .. } => Some(ttft.as_secs_f64()),
                Outcome::Shed { .. } => None,
            })
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Median TTFT in seconds (0 when nothing completed).
    pub fn ttft_p50(&self) -> f64 {
        percentile(&self.ttfts(), 0.50)
    }

    /// 99th-percentile TTFT in seconds (0 when nothing completed).
    pub fn ttft_p99(&self) -> f64 {
        percentile(&self.ttfts(), 0.99)
    }
}

/// A lifecycle event's name in the trace (every kind but a token).
fn lifecycle(kind: &EventKind) -> Option<&'static str> {
    Some(match kind {
        EventKind::Arrive => "request.arrive",
        EventKind::Admit { .. } => "request.admit",
        EventKind::Reprefill => "request.reprefill",
        EventKind::Preempt => "request.preempt",
        EventKind::MigrateStart { .. } => "request.migrate_start",
        EventKind::MigrateDone { .. } => "request.migrate_done",
        EventKind::MigrateFail { .. } => "request.migrate_fail",
        EventKind::Complete => "request.complete",
        EventKind::Shed(_) => "request.shed",
        EventKind::Token { .. } => return None,
    })
}

/// Append a span with the next deterministic id: an interval on a
/// device track ("serving") or a runtime-track instant ("causal").
fn push_span(
    spans: &mut Vec<SpanRecord>,
    name: &'static str,
    track: Track,
    start_ns: u64,
    dur_ns: u64,
    attrs: SemAttrs,
) {
    let (category, kind) = match track {
        Track::Runtime => ("causal", SpanKind::Instant),
        _ => ("serving", SpanKind::Span),
    };
    let id = spans.len() as u64 + 1;
    spans.push(SpanRecord {
        id,
        parent: None,
        name: name.into(),
        category: category.into(),
        kind,
        track,
        start_ns,
        dur_ns,
        attrs,
        thread: 1,
        seq: id,
    });
}

/// Nearest-rank percentile of a sorted sample (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_telemetry::causal::StepMember;

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.50), 2.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn all_shed_covers_every_request() {
        let reqs = vec![
            ServingRequest {
                id: 1,
                tenant: 0,
                arrival: Nanos::from_millis(1),
                prompt: vec![1],
                total_tokens: 2,
            },
            ServingRequest {
                id: 2,
                tenant: 0,
                arrival: Nanos::from_millis(5),
                prompt: vec![2],
                total_tokens: 2,
            },
        ];
        let r = ServingReport::all_shed(&reqs, ShedReason::AdmissionRejected);
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!(r.shed(), 2);
        assert_eq!(r.shed_rate(), 1.0);
        assert_eq!(r.makespan, Nanos::from_millis(5));
        assert_eq!(r.tokens_generated(), 0);
        // No step ran: the projection is one shed instant per request.
        let spans = r.spans();
        let shown: Vec<_> = spans
            .iter()
            .map(|s| (s.id, &*s.name, s.start_ns, s.attrs.request))
            .collect();
        let ms = 1_000_000;
        let expected = [
            (1, "request.shed", ms, Some(1)),
            (2, "request.shed", 5 * ms, Some(2)),
        ];
        assert_eq!(shown, expected);
    }

    /// A hand-written log: requests 1 and 2 prefill on lane 1 while lane 0
    /// decodes, both prefixes leave at the first barrier — one lands, one
    /// is lost — and request 3 is shed on arrival.
    fn hand_written() -> ServingReport {
        let event = |at: u64, request: u64, kind: EventKind| LogEvent {
            at: Nanos(at),
            request,
            kind,
            kv_resident_bytes: 0,
        };
        let slice = |lane: u32, step: u64, start_ns: u64, end_ns: u64, ids: &[u64]| {
            let phase = MemberPhase::Prefill;
            let members = ids.iter().map(|&request| StepMember { request, phase });
            let members = members.collect();
            StepSlice::from_secs(lane, step, start_ns, end_ns, 0.0, 0.0, 0.0, 0.0, members)
        };
        let departs = |bytes: u64| EventKind::MigrateStart {
            from: 1,
            to: 0,
            bytes,
        };
        ServingReport {
            events: vec![
                event(0, 1, EventKind::Arrive),
                event(0, 2, EventKind::Arrive),
                event(0, 1, EventKind::Admit { lane: 1 }),
                event(0, 2, EventKind::Admit { lane: 1 }),
                event(100, 1, EventKind::Token { value: 7 }),
                event(100, 2, EventKind::Token { value: 8 }),
                event(100, 1, departs(64)),
                event(100, 2, departs(32)),
                event(120, 3, EventKind::Arrive),
                event(120, 3, EventKind::Shed(ShedReason::QueueFull)),
                event(140, 2, EventKind::MigrateFail { to: 0 }),
                event(180, 1, EventKind::MigrateDone { to: 0 }),
            ],
            slices: vec![
                slice(0, 0, 0, 100, &[9]),
                slice(1, 0, 0, 100, &[1, 2]),
                slice(0, 1, 100, 250, &[9]),
                slice(1, 1, 100, 250, &[]),
            ],
            ..ServingReport::default()
        }
    }

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter().map(|&(k, v)| (k.into(), v.into())).collect()
    }

    #[test]
    fn a_step_is_its_departures_then_its_slices_by_lane() {
        let spans = hand_written().spans();
        assert_eq!(spans.len(), 16);
        for (i, s) in spans.iter().enumerate() {
            let id = i as u64 + 1;
            assert_eq!((s.id, s.seq, s.parent, s.thread), (id, id, None, 1));
        }
        let serving: Vec<_> = spans.iter().filter(|s| s.category == "serving").collect();
        let shown: Vec<_> = serving
            .iter()
            .map(|s| (s.id, &*s.name, s.track, s.start_ns, s.dur_ns))
            .collect();
        let expected = [
            (1, "kv.migrate", Track::Device(0), 100, 80),
            (2, "kv.migrate", Track::Device(0), 100, 40),
            (3, "serving.step", Track::Device(0), 0, 100),
            (4, "serving.step", Track::Device(1), 0, 100),
            (5, "serving.step", Track::Device(0), 100, 150),
            (6, "serving.step", Track::Device(1), 100, 150),
        ];
        assert_eq!(shown, expected);
        assert!(serving.iter().all(|s| s.kind == SpanKind::Span));
        let delivered = [
            ("from_lane", "1"),
            ("to_lane", "0"),
            ("bytes", "64"),
            ("outcome", "delivered"),
        ];
        assert_eq!(serving[0].attrs.request, Some(1));
        assert_eq!(serving[0].attrs.extra, pairs(&delivered));
        let lost = [
            ("from_lane", "1"),
            ("to_lane", "0"),
            ("bytes", "32"),
            ("outcome", "lost"),
        ];
        assert_eq!(serving[1].attrs.request, Some(2));
        assert_eq!(serving[1].attrs.extra, pairs(&lost));
        let step = &serving[3].attrs;
        assert_eq!(step.phase.as_deref(), Some("llm_decode"));
        assert_eq!(step.device, Some(1));
        assert_eq!(step.extra, pairs(&[("members", "2"), ("step", "0")]));
    }

    #[test]
    fn lifecycle_instants_come_last_and_chain_by_request() {
        let spans = hand_written().spans();
        let causal: Vec<_> = spans
            .iter()
            .filter(|s| s.category == "causal")
            .map(|s| {
                let timing = (s.kind, s.track, s.dur_ns);
                assert_eq!(timing, (SpanKind::Instant, Track::Runtime, 0));
                assert!(s.attrs.extra.is_empty());
                let a = &s.attrs;
                (s.id, &*s.name, s.start_ns, a.request, a.device, a.cause)
            })
            .collect();
        // Tokens are elided; an admit names its lane.
        let expected = [
            (7, "request.arrive", 0, Some(1), None, None),
            (8, "request.arrive", 0, Some(2), None, None),
            (9, "request.admit", 0, Some(1), Some(1), Some(7)),
            (10, "request.admit", 0, Some(2), Some(1), Some(8)),
            (11, "request.migrate_start", 100, Some(1), None, Some(9)),
            (12, "request.migrate_start", 100, Some(2), None, Some(10)),
            (13, "request.arrive", 120, Some(3), None, None),
            (14, "request.shed", 120, Some(3), None, Some(13)),
            (15, "request.migrate_fail", 140, Some(2), None, Some(12)),
            (16, "request.migrate_done", 180, Some(1), None, Some(11)),
        ];
        assert_eq!(causal, expected);
    }
}
