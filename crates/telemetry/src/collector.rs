//! The span collector: one bounded ring of [`SpanRecord`]s under one lock.
//!
//! Spans come from the control path (capture, scheduling, the simulated
//! run, the serving report's projection) and from the transport's client
//! and server threads, so recorders are few and a push is short. Each
//! record takes its sequence number under the same lock that appends it:
//! buffer order is sequence order, a drain can prove losslessness by
//! checking the sequence, and the cap holds exactly.

use crate::lock;
use crate::metrics::Counter;
use crate::span::{Name, SemAttrs, SpanKind, SpanRecord, Track};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-global span id source, shared by all collectors so parent
/// links never collide across collector instances.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of active span ids on this thread (for parent links).
    static ACTIVE: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn thread_hash() -> u64 {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// The buffered records, oldest first, with the next sequence number
/// and the eviction count.
#[derive(Default)]
struct Ring {
    records: VecDeque<SpanRecord>,
    seq: u64,
    dropped: u64,
}

/// A thread-safe span sink.
pub struct Collector {
    enabled: AtomicBool,
    max_events: usize,
    ring: Mutex<Ring>,
    drop_metric: OnceLock<Counter>,
    epoch: Instant,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// New enabled collector with the default event cap (1M records).
    pub fn new() -> Self {
        Collector::with_capacity(1 << 20)
    }

    /// New collector retaining at most `max_events` records with ring
    /// semantics: once the cap is reached, each new record evicts the
    /// oldest buffered one, and every eviction is counted in
    /// [`dropped`](Self::dropped) (and mirrored to an attached
    /// `genie_telemetry_dropped_total` counter). Chaos and capacity
    /// sweeps therefore keep the *newest* window of events in bounded
    /// memory instead of growing without bound or going blind.
    pub fn with_capacity(max_events: usize) -> Self {
        Collector {
            enabled: AtomicBool::new(true),
            max_events,
            ring: Mutex::default(),
            drop_metric: OnceLock::new(),
            epoch: Instant::now(),
        }
    }

    /// Mirror ring-buffer evictions to a metrics counter (the global
    /// telemetry handle attaches `genie_telemetry_dropped_total` here).
    /// The first attachment wins; later calls are ignored.
    pub fn attach_drop_counter(&self, counter: Counter) {
        let _ = self.drop_metric.set(counter);
    }

    /// Turn recording on or off. Disabled collectors make span guards
    /// no-ops (one atomic load on the hot path).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this collector was created (the runtime-track
    /// time base).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.ring).records.len()
    }

    /// Whether no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the cap was reached (ring overwrites).
    pub fn dropped(&self) -> u64 {
        lock(&self.ring).dropped
    }

    /// Open a timed span; the returned guard records on drop. The span
    /// nests under any span already active on this thread.
    pub fn span(&self, name: impl Into<Name>, category: impl Into<Name>) -> SpanGuard<'_> {
        self.span_with(name, category, SemAttrs::new())
    }

    /// [`span`](Self::span) with semantic attributes attached up front.
    pub fn span_with(
        &self,
        name: impl Into<Name>,
        category: impl Into<Name>,
        attrs: SemAttrs,
    ) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                collector: self,
                inner: None,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = ACTIVE.with(|s| s.borrow().last().copied());
        ACTIVE.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            collector: self,
            inner: Some(OpenSpan {
                id,
                parent,
                name: name.into(),
                category: category.into(),
                attrs,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Record a zero-duration marker event.
    pub fn instant(&self, name: impl Into<Name>, category: impl Into<Name>, attrs: SemAttrs) {
        if !self.is_enabled() {
            return;
        }
        let now = self.now_ns();
        self.push(SpanRecord {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: ACTIVE.with(|s| s.borrow().last().copied()),
            name: name.into(),
            category: category.into(),
            kind: SpanKind::Instant,
            track: Track::Runtime,
            start_ns: now,
            dur_ns: 0,
            attrs,
            thread: thread_hash(),
            seq: 0,
        });
    }

    /// Record a fully-formed event (used to ingest simulation traces,
    /// whose times come from the event queue rather than the wall clock).
    /// At capacity the collector behaves as a ring: the new record is
    /// kept and the oldest buffered record is evicted and counted.
    pub fn push(&self, mut record: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        if record.thread == 0 {
            record.thread = thread_hash();
        }
        let mut ring = lock(&self.ring);
        record.seq = ring.seq;
        ring.seq += 1;
        ring.records.push_back(record);
        if ring.records.len() <= self.max_events {
            return;
        }
        // The oldest record goes; it is freed after the lock is released.
        let _evicted = ring.records.pop_front();
        ring.dropped += 1;
        drop(ring);
        if let Some(c) = self.drop_metric.get() {
            c.inc();
        }
    }

    /// Take every buffered record, ordered by sequence number.
    pub fn drain(&self) -> Vec<SpanRecord> {
        lock(&self.ring).records.drain(..).collect()
    }

    /// Copy every buffered record (sequence order) without clearing.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        lock(&self.ring).records.iter().cloned().collect()
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: Name,
    category: Name,
    attrs: SemAttrs,
    start_ns: u64,
}

/// RAII guard for a timed span: records the interval when dropped.
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    inner: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// Attach or overwrite attributes mid-span (e.g. a result computed
    /// after the span opened).
    pub fn annotate(&mut self, f: impl FnOnce(&mut SemAttrs)) {
        if let Some(open) = self.inner.as_mut() {
            f(&mut open.attrs);
        }
    }

    /// The span's id (0 when the collector is disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        ACTIVE.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.remove(pos);
            }
        });
        let end = self.collector.now_ns();
        self.collector.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            category: open.category,
            kind: SpanKind::Span,
            track: Track::Runtime,
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
            attrs: open.attrs,
            thread: thread_hash(),
            seq: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_parent_links() {
        let c = Collector::new();
        {
            let _outer = c.span("schedule", "scheduler");
            let _inner = c.span("lint", "scheduler");
        }
        let recs = c.drain();
        assert_eq!(recs.len(), 2);
        // Inner drops first, so it appears first; its parent is the outer.
        let inner = recs.iter().find(|r| r.name == "lint").unwrap();
        let outer = recs.iter().find(|r| r.name == "schedule").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new();
        c.set_enabled(false);
        {
            let _s = c.span("x", "y");
            c.instant("i", "y", SemAttrs::new());
        }
        assert!(c.is_empty());
        c.set_enabled(true);
        c.instant("i", "y", SemAttrs::new());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cap_drops_rather_than_grows() {
        let c = Collector::with_capacity(3);
        for _ in 0..5 {
            c.instant("i", "c", SemAttrs::new());
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.dropped(), 2);
    }

    #[test]
    fn ring_keeps_newest_and_mirrors_drop_counter() {
        let c = Collector::with_capacity(3);
        let counter = Counter::default();
        c.attach_drop_counter(counter.clone());
        for i in 0..5 {
            c.instant(format!("i{i}"), "c", SemAttrs::new());
        }
        assert_eq!(c.dropped(), 2);
        assert_eq!(counter.get(), 2, "metric mirrors ring evictions");
        let recs = c.drain();
        let names: Vec<String> = recs.iter().map(|r| r.name.to_string()).collect();
        assert_eq!(names, vec!["i2", "i3", "i4"], "oldest were evicted");
    }

    #[test]
    fn ring_evicts_the_oldest_record_whichever_thread_pushed_it() {
        let c = std::sync::Arc::new(Collector::with_capacity(2));
        let other = c.clone();
        std::thread::spawn(move || other.instant("r0", "c", SemAttrs::new()))
            .join()
            .unwrap();
        c.instant("r1", "c", SemAttrs::new());
        c.instant("r2", "c", SemAttrs::new());
        let names: Vec<String> = c.drain().iter().map(|r| r.name.to_string()).collect();
        assert_eq!(names, vec!["r1", "r2"]);
    }

    #[test]
    fn concurrent_recorders_never_exceed_the_cap() {
        let c = std::sync::Arc::new(Collector::with_capacity(100));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        c.instant("i", "stress", SemAttrs::new());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.dropped(), 8 * 500 - 100);
    }

    #[test]
    fn concurrent_hammering_loses_nothing() {
        // The ISSUE's concurrency gate: 8 threads × 500 events each, no
        // lost events, no duplicated sequence numbers.
        let c = std::sync::Arc::new(Collector::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        if i % 3 == 0 {
                            c.instant(format!("t{t}.i{i}"), "stress", SemAttrs::new());
                        } else {
                            let _s = c.span(format!("t{t}.s{i}"), "stress");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let recs = c.drain();
        assert_eq!(recs.len(), 8 * 500, "no lost events");
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 8 * 500, "sequence numbers unique");
    }

    #[test]
    fn manual_push_preserves_sim_times() {
        let c = Collector::new();
        c.push(SpanRecord {
            id: 1,
            parent: None,
            name: "sim.kernel".into(),
            category: "backend".into(),
            kind: SpanKind::Span,
            track: Track::Device(0),
            start_ns: 5_000_000,
            dur_ns: 1_000_000,
            attrs: SemAttrs::new(),
            thread: 0,
            seq: 0,
        });
        let recs = c.drain();
        assert_eq!(recs[0].start_ns, 5_000_000);
        assert_eq!(recs[0].track, Track::Device(0));
    }
}
