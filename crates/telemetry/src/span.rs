//! Spans and instants: the event vocabulary of the telemetry layer.
//!
//! A [`SpanRecord`] is one timed (or instantaneous) event with the
//! *semantic* attributes Genie's thesis revolves around: which SRG node
//! caused it, in which phase, on which device, under which plan. Records
//! are plain data; [`crate::export`] turns them into a trace document.

use genie_srg::NodeId;
use std::borrow::Cow;

/// Which display track an event belongs to. The Chrome/Perfetto exporter
/// maps tracks to process/thread rows: one row per device, one per link,
/// and one per runtime thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Track {
    /// Host-side runtime work measured on the wall clock (capture,
    /// scheduling, transport, local execution).
    #[default]
    Runtime,
    /// A simulated accelerator, by device index.
    Device(u32),
    /// A simulated host-pair link.
    Link {
        /// Source host index.
        from: u32,
        /// Destination host index.
        to: u32,
    },
}

/// Whether an event has duration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanKind {
    /// A timed interval.
    #[default]
    Span,
    /// A zero-duration marker (policy decision, lint finding, failure).
    Instant,
}

/// Semantic attributes carried by every span. All fields are optional —
/// a transport frame counter knows nothing about SRG nodes — but the
/// point of the layer is that most execution events *can* name the graph
/// entity that caused them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SemAttrs {
    /// The SRG node that caused this event.
    pub node: Option<NodeId>,
    /// Execution phase (e.g. `llm_decode`), from the node's annotation.
    pub phase: Option<String>,
    /// Device index the event ran on.
    pub device: Option<u32>,
    /// Plan label (`<graph>@<policy>`) this event executed under.
    pub plan: Option<String>,
    /// Serving-request id this event is causally attributed to.
    pub request: Option<u64>,
    /// Span id of the causal parent *across* threads or layers (the
    /// `parent` field on [`SpanRecord`] only links same-thread nesting).
    pub cause: Option<u64>,
    /// Free-form key/value attributes.
    pub extra: Vec<(String, String)>,
}

impl SemAttrs {
    /// Empty attribute set.
    pub fn new() -> Self {
        SemAttrs::default()
    }

    /// Attach the causing SRG node.
    pub fn node(mut self, id: NodeId) -> Self {
        self.node = Some(id);
        self
    }

    /// Attach the phase annotation.
    pub fn phase(mut self, phase: impl Into<String>) -> Self {
        self.phase = Some(phase.into());
        self
    }

    /// Attach the executing device.
    pub fn device(mut self, device: u32) -> Self {
        self.device = Some(device);
        self
    }

    /// Attach the plan label.
    pub fn plan(mut self, plan: impl Into<String>) -> Self {
        self.plan = Some(plan.into());
        self
    }

    /// Attach the causing serving request.
    pub fn request(mut self, request: u64) -> Self {
        self.request = Some(request);
        self
    }

    /// Attach the cross-layer causal parent span id.
    pub fn cause(mut self, span_id: u64) -> Self {
        self.cause = Some(span_id);
        self
    }

    /// Attach a free-form attribute.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.push((key.into(), value.into()));
        self
    }
}

/// A span's name or category: a fixed one is not copied.
pub type Name = Cow<'static, str>;

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span, when one was active on the recording thread.
    pub parent: Option<u64>,
    /// Event name (span taxonomy: `capture`, `schedule`, `sim.kernel`, …).
    pub name: Name,
    /// Coarse category used for filtering and Chrome's `cat` field.
    pub category: Name,
    /// Interval or marker.
    pub kind: SpanKind,
    /// Display track.
    pub track: Track,
    /// Start time in nanoseconds. Runtime tracks measure from the
    /// collector's epoch on the wall clock; simulated tracks carry
    /// simulation time. The exporter keeps the clock domains on separate
    /// process rows so they never visually interleave.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Semantic attributes.
    pub attrs: SemAttrs,
    /// Recording thread (hashed os id), for runtime track rows.
    pub thread: u64,
    /// Collector-assigned monotone sequence number; used by tests to
    /// assert lossless collection under contention.
    pub seq: u64,
}
