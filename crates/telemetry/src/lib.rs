//! # genie-telemetry — cross-layer observability for the Genie stack
//!
//! The paper's thesis is that *semantic context must survive the trip
//! from framework to fabric*. This crate is the measurement substrate
//! that makes the claim checkable: every layer (capture, scheduling,
//! simulation, transport) records spans, instants, and metrics that
//! carry the SRG node, phase, modality, device, and plan that caused
//! them — so a byte on the wire can be traced back to the graph entity
//! it serves.
//!
//! Three pieces:
//!
//! - [`collector::Collector`] + [`span::SpanRecord`] — a bounded span
//!   ring with RAII guards, parent links, and semantic attributes
//!   ([`span::SemAttrs`]);
//! - [`metrics::MetricsRegistry`] — counters, gauges, and fixed-bucket
//!   histograms, snapshottable to JSON and Prometheus text exposition;
//! - exporters — [`export::ChromeTrace`] (Perfetto / `chrome://tracing`
//!   loadable JSON, one track per device and link) and
//!   [`summary::render_top`] (a `genie-top`-style operator table).
//!
//! ```
//! use genie_telemetry::{global, SemAttrs};
//!
//! {
//!     let mut span = global().collector.span("schedule", "scheduler");
//!     span.annotate(|a| a.plan = Some("decode@semantics_aware".into()));
//! }
//! global().metrics.counter("genie_schedule_plans_total", &[]).inc();
//! assert!(global().collector.len() >= 1);
//! ```
//!
//! Instrumented crates call [`global()`]; the collector is enabled by
//! default and cheap enough to leave on (one atomic branch when
//! disabled, one short locked push when enabled). Tools that want an
//! isolated capture construct their own [`Collector`]/[`MetricsRegistry`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod causal;
pub mod collector;
pub mod export;
pub mod metrics;
pub mod span;
pub mod summary;

pub use causal::{
    BlameBreakdown, BlameFractions, BlameReport, CausalTraceDoc, RequestBlame, StepSlice, TraceCtx,
    WhatIf,
};
pub use collector::{Collector, SpanGuard};
pub use export::{ChromeEvent, ChromeTrace};
pub use metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, DEFAULT_TIME_BOUNDS,
};
pub use span::{SemAttrs, SpanKind, SpanRecord, Track};
pub use summary::render_top;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock `mutex`, poisoned or not. The sinks behind [`global()`] are
/// process-wide and `#[should_panic]` tests share their process with every
/// other test: a thread that died holding a guard must not take the
/// registry from the rest. The stack's other mutexes (capture state,
/// resident store, transport caches) lock through here too: what they
/// guard is valid after each single update, so poisoning protects nothing.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide telemetry sinks used by instrumented crates.
pub struct Telemetry {
    /// Span/event collector.
    pub collector: Collector,
    /// Metrics registry.
    pub metrics: MetricsRegistry,
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-global telemetry instance (created on first use). The
/// collector's ring-buffer evictions are mirrored to the
/// `genie_telemetry_dropped_total` counter so capacity pressure is
/// visible in every metrics snapshot.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| {
        let collector = Collector::new();
        let metrics = MetricsRegistry::new();
        collector.attach_drop_counter(metrics.counter("genie_telemetry_dropped_total", &[]));
        Telemetry { collector, metrics }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_that_dies_under_a_guard_does_not_take_the_mutex_with_it() {
        let shared = Mutex::new(7);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock(&shared);
            panic!("holder dies");
        }));
        assert!(died.is_err() && shared.is_poisoned());
        assert_eq!(*lock(&shared), 7);
    }

    #[test]
    fn global_is_shared_and_usable() {
        let before = global().collector.len();
        {
            let _s = global().collector.span("test.span", "test");
        }
        assert!(global().collector.len() > before);
        global()
            .metrics
            .counter("genie_test_global_total", &[])
            .inc();
        assert!(
            global()
                .metrics
                .snapshot()
                .counter("genie_test_global_total", &[])
                .unwrap()
                >= 1
        );
    }
}
