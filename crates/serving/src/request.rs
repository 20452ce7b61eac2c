//! Request and outcome types for the serving loop, and its event log.
//!
//! Everything here is plain data with total, deterministic ordering.
//! The engine's event log (`Vec<LogEvent>`) is one record with two
//! readers: the auditor ([`crate::audit`]) checks every serving law
//! against it, and blame analysis ([`genie_telemetry::causal::analyze`])
//! reads it as it is, so it must be bit-stable across same-seed runs.
//! Its types ([`LogEvent`], [`EventKind`], [`ShedReason`]) are defined
//! in [`genie_telemetry::causal`], the crate both readers reach, and
//! re-exported here.

use genie_netsim::Nanos;
pub use genie_telemetry::causal::{EventKind, LogEvent, ShedReason};

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
