//! Simulation traces: a flat record of what happened and when, for
//! reports, debugging, and the bench harness's table generators.
//!
//! Events optionally carry *semantic attribution* — the SRG node and the
//! execution plan that caused them, and (for transfers) the time spent
//! queued behind other traffic. This is the raw material the telemetry
//! layer's Perfetto exporter turns into per-device/per-link tracks where
//! every kernel names its graph node and phase.

use crate::time::Nanos;
use genie_srg::{Name, NodeId};

/// One recorded simulation event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A kernel executed on a device.
    Kernel {
        /// Device index.
        device: u32,
        /// Node name or label (held in place, so a kernel copies its
        /// node's name rather than allocating one).
        label: Name,
        /// Start time.
        start: Nanos,
        /// End time.
        end: Nanos,
        /// SRG node this kernel realizes, when known.
        node: Option<NodeId>,
        /// Execution-plan label (`<graph>@<policy>`) this ran under,
        /// shared by every event of one plan's execution.
        plan: Option<std::sync::Arc<str>>,
    },
    /// A network transfer completed.
    Transfer {
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
        /// Payload size.
        bytes: u64,
        /// Start time.
        start: Nanos,
        /// Delivery time.
        end: Nanos,
        /// SRG node whose output (or input) moved, when known.
        node: Option<NodeId>,
        /// Execution-plan label this ran under.
        plan: Option<std::sync::Arc<str>>,
        /// Time spent waiting for the link serializer (FIFO queueing)
        /// before the first byte hit the wire.
        queue_delay: Nanos,
    },
    /// A free-form annotation (phase boundaries, failures, …).
    Mark {
        /// Annotation text.
        label: String,
        /// Time of the mark.
        at: Nanos,
    },
}

impl TraceEvent {
    /// An unattributed kernel event (attach attribution with
    /// [`with_node`](Self::with_node) / [`with_plan`](Self::with_plan)).
    pub fn kernel(device: u32, label: impl Into<Name>, start: Nanos, end: Nanos) -> Self {
        TraceEvent::Kernel {
            device,
            label: label.into(),
            start,
            end,
            node: None,
            plan: None,
        }
    }

    /// An unattributed transfer event with zero queue delay.
    pub fn transfer(from: u32, to: u32, bytes: u64, start: Nanos, end: Nanos) -> Self {
        TraceEvent::Transfer {
            from,
            to,
            bytes,
            start,
            end,
            node: None,
            plan: None,
            queue_delay: Nanos::ZERO,
        }
    }

    /// Attach the causing SRG node (no-op on `Mark`).
    pub fn with_node(mut self, id: NodeId) -> Self {
        match &mut self {
            TraceEvent::Kernel { node, .. } | TraceEvent::Transfer { node, .. } => {
                *node = Some(id);
            }
            _ => {}
        }
        self
    }

    /// Attach the execution-plan label (no-op on `Mark`).
    pub fn with_plan(mut self, label: impl Into<std::sync::Arc<str>>) -> Self {
        match &mut self {
            TraceEvent::Kernel { plan, .. } | TraceEvent::Transfer { plan, .. } => {
                *plan = Some(label.into());
            }
            _ => {}
        }
        self
    }

    /// Attach the FIFO queueing delay (no-op on non-`Transfer` events).
    pub fn with_queue_delay(mut self, delay: Nanos) -> Self {
        if let TraceEvent::Transfer { queue_delay, .. } = &mut self {
            *queue_delay = delay;
        }
        self
    }

    /// Event end time (or mark time).
    pub fn end_time(&self) -> Nanos {
        match self {
            TraceEvent::Kernel { end, .. } | TraceEvent::Transfer { end, .. } => *end,
            TraceEvent::Mark { at, .. } => *at,
        }
    }
}

/// An append-only trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// All events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Latest end time across all events (the makespan).
    pub fn makespan(&self) -> Nanos {
        self.events
            .iter()
            .map(TraceEvent::end_time)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Total busy seconds per device, summed over kernel events.
    pub fn device_busy_seconds(&self, device: u32) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Kernel {
                    device: d,
                    start,
                    end,
                    ..
                } if *d == device => Some(end.as_secs_f64() - start.as_secs_f64()),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_and_busy_seconds() {
        let mut t = Trace::new();
        t.push(TraceEvent::kernel(
            0,
            "mm",
            Nanos::ZERO,
            Nanos::from_secs_f64(1.0),
        ));
        t.push(TraceEvent::transfer(
            0,
            1,
            1000,
            Nanos::from_secs_f64(1.0),
            Nanos::from_secs_f64(3.0),
        ));
        assert_eq!(t.makespan(), Nanos::from_secs_f64(3.0));
        assert!((t.device_busy_seconds(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new();
        assert_eq!(t.makespan(), Nanos::ZERO);
        assert_eq!(t.device_busy_seconds(0), 0.0);
    }

    #[test]
    fn marks_extend_makespan() {
        let mut t = Trace::new();
        t.push(TraceEvent::Mark {
            label: "failure injected".into(),
            at: Nanos::from_secs_f64(9.0),
        });
        assert_eq!(t.makespan(), Nanos::from_secs_f64(9.0));
    }

    #[test]
    fn busy_seconds_filters_by_device() {
        let mut t = Trace::new();
        for d in 0..2 {
            t.push(TraceEvent::kernel(
                d,
                "k",
                Nanos::ZERO,
                Nanos::from_secs_f64(1.0 + d as f64),
            ));
        }
        assert!((t.device_busy_seconds(1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_builders_set_fields() {
        let e = TraceEvent::kernel(1, "matmul", Nanos::ZERO, Nanos(10))
            .with_node(NodeId::new(7))
            .with_plan("llm@semantics_aware");
        match &e {
            TraceEvent::Kernel { node, plan, .. } => {
                assert_eq!(*node, Some(NodeId::new(7)));
                assert_eq!(plan.as_deref(), Some("llm@semantics_aware"));
            }
            _ => unreachable!(),
        }

        let t = TraceEvent::transfer(0, 1, 64, Nanos(5), Nanos(20))
            .with_node(NodeId::new(3))
            .with_queue_delay(Nanos(4));
        match &t {
            TraceEvent::Transfer { queue_delay, .. } => assert_eq!(*queue_delay, Nanos(4)),
            _ => unreachable!(),
        }
        // No-op on events without those fields.
        let m = TraceEvent::Mark {
            label: "m".into(),
            at: Nanos::ZERO,
        }
        .with_node(NodeId::new(1))
        .with_plan("p")
        .with_queue_delay(Nanos(1));
        assert!(matches!(m, TraceEvent::Mark { .. }));
    }
}
