//! The span collector: a sharded, lock-cheap sink for [`SpanRecord`]s.
//!
//! Hot paths (per-op capture, per-kernel simulation, per-frame transport)
//! must not serialize on one mutex. The collector keeps one buffer per
//! shard, picks a shard from the recording thread's id, and hands out a
//! global monotone sequence number from an atomic — so concurrent
//! recorders contend only when they hash to the same shard, and a drain
//! can still prove losslessness by checking the sequence.

use crate::lock;
use crate::metrics::Counter;
use crate::span::{Name, SemAttrs, SpanKind, SpanRecord, Track};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const SHARDS: usize = 16;

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

/// A thread-safe span sink.
pub struct Collector {
    enabled: AtomicBool,
    seq: AtomicU64,
    len: AtomicUsize,
    dropped: AtomicU64,
    max_events: usize,
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
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
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            max_events,
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
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
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the cap was reached (ring overwrites).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if record.thread == 0 {
            record.thread = thread_hash();
        }
        let shard = (record.thread as usize) % SHARDS;
        if self.len.load(Ordering::Relaxed) >= self.max_events {
            // Evict the oldest reachable record: this thread's shard
            // first (cheap, already locked for the push), else the
            // first non-empty shard. `len` is unchanged on eviction.
            let evicted_here = {
                let mut own = lock(&self.shards[shard]);
                let e = own.pop_front().is_some();
                own.push_back(record);
                e
            };
            let evicted = evicted_here
                || (1..SHARDS).any(|i| {
                    lock(&self.shards[(shard + i) % SHARDS])
                        .pop_front()
                        .is_some()
                });
            if evicted {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = self.drop_metric.get() {
                    c.inc();
                }
            } else {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        lock(&self.shards[shard]).push_back(record);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Take every buffered record, ordered by sequence number.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(lock(shard).drain(..));
        }
        self.len.store(0, Ordering::Relaxed);
        all.sort_by_key(|r| r.seq);
        all
    }

    /// Copy every buffered record (sequence order) without clearing.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut all = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(lock(shard).iter().cloned());
        }
        all.sort_by_key(|r| r.seq);
        all
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
