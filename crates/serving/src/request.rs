//! Request, outcome, and event-log types for the serving loop.
//!
//! Everything here is plain data with total, deterministic ordering:
//! the engine's event log (`Vec<LogEvent>`) doubles as the ground truth
//! the auditor ([`crate::audit`]) checks every serving law against, and
//! must therefore be bit-stable across same-seed runs.

use genie_netsim::Nanos;

/// One inference request offered to the serving loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServingRequest {
    /// Unique request id (ids order admission ties deterministically).
    pub id: u64,
    /// Owning tenant (used for telemetry attribution only; batching is
    /// by model fingerprint, which a single loop shares by construction).
    pub tenant: u64,
    /// Arrival time on the virtual clock.
    pub arrival: Nanos,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<i64>,
    /// Total generated tokens requested (including the first token the
    /// prefill step samples); at least 1.
    pub total_tokens: usize,
}

/// Why a request was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was already at capacity on arrival.
    QueueFull,
    /// The request waited past the SLO queue budget without a free slot.
    QueueOverSlo,
    /// The request's KV working set can never fit a single lane.
    KvCapacity,
    /// The fleet scheduler refused the owning tenant (its plan's deny-level findings).
    AdmissionRejected,
}

impl ShedReason {
    /// Stable label for metrics and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::QueueOverSlo => "queue_over_slo",
            ShedReason::KvCapacity => "kv_capacity",
            ShedReason::AdmissionRejected => "admission_rejected",
        }
    }
}

/// Terminal state of one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The request decoded to completion.
    Completed {
        /// All generated tokens, in order.
        tokens: Vec<i64>,
        /// Time from arrival to the first generated token.
        ttft: Nanos,
        /// Virtual time of the last token.
        finished: Nanos,
    },
    /// The request was shed.
    Shed {
        /// Typed reason.
        reason: ShedReason,
        /// Virtual time of the shed decision.
        at: Nanos,
    },
}

/// What happened in one [`LogEvent`].
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// The request entered the admission queue.
    Arrive,
    /// The request was admitted onto a lane.
    Admit {
        /// Lane (device) index the request will decode on.
        lane: u32,
    },
    /// An evicted request re-ran prefill over prompt + generated prefix
    /// to restore its KV cache (lineage-style re-materialization).
    Reprefill,
    /// One token was produced.
    Token {
        /// The sampled token id.
        value: i64,
    },
    /// The request's KV was evicted (LRU) and it re-queued.
    Preempt,
    /// The request's KV prefix left its prefill lane for a decode lane
    /// as simulated link traffic (disaggregated serving).
    MigrateStart {
        /// Source lane (prefill host).
        from: u32,
        /// Destination lane (decode host).
        to: u32,
        /// KV bytes on the wire.
        bytes: u64,
    },
    /// The migrated prefix landed; the request decodes on `to`.
    MigrateDone {
        /// Destination lane now holding the prefix.
        to: u32,
    },
    /// A fault severed the migration; the in-flight prefix is lost and
    /// the request falls back to lineage re-prefill on the decode pool.
    MigrateFail {
        /// Destination lane the transfer was bound for.
        to: u32,
    },
    /// The request finished.
    Complete,
    /// The request was shed.
    Shed(ShedReason),
}

/// One entry of the deterministic event log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEvent {
    /// Virtual timestamp.
    pub at: Nanos,
    /// Subject request id.
    pub request: u64,
    /// What happened.
    pub kind: EventKind,
    /// Total KV bytes resident across all lanes *after* this event.
    pub kv_resident_bytes: u64,
}
