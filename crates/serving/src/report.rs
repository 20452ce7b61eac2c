//! The serving run report: outcomes, event log, SLO statistics, spans.

use crate::request::{EventKind, LogEvent, Outcome, ServingRequest, ShedReason};
use crate::slo::SloStats;
use genie_netsim::Nanos;
use genie_telemetry::causal::{
    CausalEvent, CausalEventKind, CausalTraceDoc, MemberPhase, StepSlice,
};
use genie_telemetry::{SpanRecord, DEFAULT_TIME_BOUNDS};
use std::collections::BTreeMap;

/// Everything a serving run produced, keyed for deterministic replay.
#[derive(Clone, Debug, Default)]
pub struct ServingReport {
    /// Terminal outcome per request id (covers every offered request).
    pub outcomes: BTreeMap<u64, Outcome>,
    /// The full deterministic event log, in virtual-time order.
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
    /// Serving spans (one per lane per step, plus lifecycle instants),
    /// with deterministic ids — feed these to a `ChromeTrace` for a
    /// stable Perfetto export.
    pub spans: Vec<SpanRecord>,
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

    /// The causal trace document for this run: lifecycle events
    /// (tokens elided) plus per-step slices, ready for
    /// [`genie_telemetry::causal::analyze`].
    pub fn causal_doc(&self) -> CausalTraceDoc {
        let mut events = Vec::new();
        for ev in &self.events {
            let kind = match &ev.kind {
                EventKind::Arrive => CausalEventKind::Arrive,
                EventKind::Admit { lane } => CausalEventKind::Admit { lane: *lane },
                EventKind::Reprefill => CausalEventKind::Reprefill,
                EventKind::Preempt => CausalEventKind::Preempt,
                EventKind::MigrateStart { from, to, .. } => CausalEventKind::MigrateStart {
                    from: *from,
                    to: *to,
                },
                EventKind::MigrateDone { .. } => CausalEventKind::MigrateDone,
                EventKind::MigrateFail { .. } => CausalEventKind::MigrateFail,
                EventKind::Complete => CausalEventKind::Complete,
                EventKind::Shed(_) => CausalEventKind::Shed,
                EventKind::Token { .. } => continue,
            };
            events.push(CausalEvent {
                at_ns: ev.at.0,
                request: ev.request,
                kind,
            });
        }
        CausalTraceDoc {
            events,
            slices: self.slices.clone(),
        }
    }

    /// Project the run onto the process-global telemetry sinks: the
    /// `genie_serving_*` metrics derived from the counters, event log and
    /// step slices (so histograms observe integer-nanosecond stamps),
    /// the spans in recorded order, and the SLO burn-rate gauges. The
    /// engine itself writes only the report.
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
        for span in &self.spans {
            t.collector.push(span.clone());
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

    /// Generated tokens across completed requests.
    pub fn tokens_generated(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Token { .. }))
            .count() as u64
    }

    /// Aggregate decode throughput over the whole run.
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
    }
}
