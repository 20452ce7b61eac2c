//! Chrome trace / Perfetto JSON export.
//!
//! Produces the `{"traceEvents": [...]}` object format that both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Tracks are mapped to process/thread rows:
//!
//! | pid | process row                     | tid                 |
//! |-----|---------------------------------|---------------------|
//! | 1   | `genie runtime (wall clock)`    | one per OS thread   |
//! | 2   | `simulated devices (sim time)`  | one per device      |
//! | 3   | `simulated links (sim time)`    | one per host pair   |
//!
//! The runtime rows and the simulated rows carry *different clock
//! domains* (wall nanoseconds since collector epoch vs. discrete-event
//! simulation time); keeping them on separate process rows means they
//! never visually interleave into a false ordering.
//!
//! When an [`Srg`] is supplied, events that carry a `node` attribution
//! are enriched at export time with the node's phase, modality, and
//! module path — the semantic context the paper argues must survive all
//! the way to the fabric.

use crate::span::{SpanKind, SpanRecord, Track};
use genie_netsim::{Trace, TraceEvent};
use genie_srg::json::Value;
use genie_srg::{json_object, Srg};
use std::collections::BTreeMap;

const PID_RUNTIME: u32 = 1;
const PID_DEVICES: u32 = 2;
const PID_LINKS: u32 = 3;

/// One Chrome-trace event (the subset of the format we emit).
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Category (comma-separable in the UI).
    pub cat: String,
    /// Phase: `"X"` complete, `"i"` instant, `"M"` metadata.
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (`"X"` events only).
    pub dur: Option<f64>,
    /// Process row.
    pub pid: u32,
    /// Thread row within the process.
    pub tid: u32,
    /// Instant scope (`"t"` thread) — required by the UI for `"i"`.
    pub s: Option<String>,
    /// Key/value arguments shown in the detail pane.
    pub args: BTreeMap<String, Value>,
}

/// The whole exportable trace document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    /// All events, metadata first.
    pub events: Vec<ChromeEvent>,
    /// Display unit hint for the UI.
    pub display_time_unit: &'static str,
}

impl ChromeTrace {
    /// Empty trace document.
    pub fn new() -> Self {
        ChromeTrace {
            events: Vec::new(),
            display_time_unit: "ms",
        }
    }

    fn meta(&mut self, pid: u32, tid: Option<u32>, name: &str) {
        let mut args = BTreeMap::new();
        args.insert("name".to_string(), name.into());
        self.events.push(ChromeEvent {
            name: if tid.is_some() {
                "thread_name".into()
            } else {
                "process_name".into()
            },
            cat: "__metadata".into(),
            ph: "M".into(),
            ts: 0.0,
            dur: None,
            pid,
            tid: tid.unwrap_or(0),
            s: None,
            args,
        });
    }

    /// Ingest collector records (runtime spans and instants, plus any
    /// manually-pushed device/link records). `srg` enriches node-
    /// attributed events with phase/modality/module context.
    pub fn push_records(&mut self, records: &[SpanRecord], srg: Option<&Srg>) {
        // Stable small tids for runtime threads, in order of appearance.
        let mut thread_tids: BTreeMap<u64, u32> = BTreeMap::new();
        for r in records {
            let (pid, tid) = match r.track {
                Track::Runtime => {
                    let next = thread_tids.len() as u32 + 1;
                    let tid = *thread_tids.entry(r.thread).or_insert(next);
                    (PID_RUNTIME, tid)
                }
                Track::Device(d) => (PID_DEVICES, d),
                Track::Link { from, to } => (PID_LINKS, link_tid(from, to)),
            };
            let mut args = BTreeMap::new();
            if let Some(node) = r.attrs.node {
                args.insert("node".into(), node.0.into());
                if let Some(n) = srg.and_then(|g| g.try_node(node)) {
                    args.entry("phase".into())
                        .or_insert_with(|| n.phase.label().into());
                    if !n.module_path.is_empty() {
                        args.insert("module".into(), n.module_path.as_str().into());
                    }
                    args.insert("modality".into(), n.modality.label().into());
                }
            }
            if let Some(p) = &r.attrs.phase {
                args.insert("phase".into(), p.as_str().into());
            }
            if let Some(d) = r.attrs.device {
                args.insert("device".into(), d.into());
            }
            if let Some(p) = &r.attrs.plan {
                args.insert("plan".into(), p.as_str().into());
            }
            if let Some(req) = r.attrs.request {
                args.insert("request".into(), req.into());
            }
            if let Some(c) = r.attrs.cause {
                args.insert("cause".into(), c.into());
            }
            for (k, v) in &r.attrs.extra {
                args.insert(k.clone(), v.as_str().into());
            }
            let instant = r.kind == SpanKind::Instant;
            self.events.push(ChromeEvent {
                name: r.name.to_string(),
                cat: r.category.to_string(),
                ph: if instant { "i" } else { "X" }.into(),
                ts: r.start_ns as f64 / 1_000.0,
                dur: if instant {
                    None
                } else {
                    Some(r.dur_ns as f64 / 1_000.0)
                },
                pid,
                tid,
                s: if instant { Some("t".into()) } else { None },
                args,
            });
        }
        self.meta(PID_RUNTIME, None, "genie runtime (wall clock)");
        for (thread, tid) in &thread_tids {
            self.meta(
                PID_RUNTIME,
                Some(*tid),
                &format!("thread-{:04x}", thread & 0xffff),
            );
        }
    }

    /// Ingest a simulation [`Trace`]: kernels become device-track slices,
    /// transfers become link-track slices (with queueing delay in `args`),
    /// RPCs and marks become instants. `srg` enriches node-attributed
    /// events; `plan` is the fallback plan label for unattributed events.
    pub fn push_sim_trace(&mut self, trace: &Trace, srg: Option<&Srg>, plan: Option<&str>) {
        let mut devices: Vec<u32> = Vec::new();
        let mut links: Vec<(u32, u32)> = Vec::new();
        for e in trace.events() {
            match e {
                TraceEvent::Kernel {
                    device,
                    label,
                    start,
                    end,
                    node,
                    plan: ev_plan,
                } => {
                    if !devices.contains(device) {
                        devices.push(*device);
                    }
                    let mut args = BTreeMap::new();
                    if let Some(id) = node {
                        args.insert("node".into(), id.0.into());
                        if let Some(n) = srg.and_then(|g| g.try_node(*id)) {
                            args.insert("phase".into(), n.phase.label().into());
                            args.insert("modality".into(), n.modality.label().into());
                            if !n.module_path.is_empty() {
                                args.insert("module".into(), n.module_path.as_str().into());
                            }
                        }
                    }
                    if let Some(p) = ev_plan.as_deref().or(plan) {
                        args.insert("plan".into(), p.into());
                    }
                    self.events.push(ChromeEvent {
                        name: label.to_string(),
                        cat: "sim.kernel".into(),
                        ph: "X".into(),
                        ts: start.0 as f64 / 1_000.0,
                        dur: Some((end.0 - start.0) as f64 / 1_000.0),
                        pid: PID_DEVICES,
                        tid: *device,
                        s: None,
                        args,
                    });
                }
                TraceEvent::Transfer {
                    from,
                    to,
                    bytes,
                    start,
                    end,
                    node,
                    plan: ev_plan,
                    queue_delay,
                } => {
                    if !links.contains(&(*from, *to)) {
                        links.push((*from, *to));
                    }
                    let mut args = BTreeMap::new();
                    args.insert("bytes".into(), (*bytes).into());
                    args.insert(
                        "queue_delay_us".into(),
                        (queue_delay.0 as f64 / 1_000.0).into(),
                    );
                    if let Some(id) = node {
                        args.insert("node".into(), id.0.into());
                        if let Some(n) = srg.and_then(|g| g.try_node(*id)) {
                            args.insert("phase".into(), n.phase.label().into());
                        }
                    }
                    if let Some(p) = ev_plan.as_deref().or(plan) {
                        args.insert("plan".into(), p.into());
                    }
                    self.events.push(ChromeEvent {
                        name: format!("xfer {bytes}B"),
                        cat: "sim.transfer".into(),
                        ph: "X".into(),
                        ts: start.0 as f64 / 1_000.0,
                        dur: Some((end.0 - start.0) as f64 / 1_000.0),
                        pid: PID_LINKS,
                        tid: link_tid(*from, *to),
                        s: None,
                        args,
                    });
                }
                TraceEvent::Mark { label, at } => {
                    // Injected-fault marks get their own category so fault
                    // windows are filterable in the Perfetto UI.
                    let cat = if label.starts_with("fault.") {
                        "sim.fault"
                    } else {
                        "sim.mark"
                    };
                    self.events.push(ChromeEvent {
                        name: label.clone(),
                        cat: cat.into(),
                        ph: "i".into(),
                        ts: at.0 as f64 / 1_000.0,
                        dur: None,
                        pid: PID_DEVICES,
                        tid: devices.first().copied().unwrap_or(0),
                        s: Some("t".into()),
                        args: BTreeMap::new(),
                    });
                }
            }
        }
        self.meta(PID_DEVICES, None, "simulated devices (sim time)");
        devices.sort_unstable();
        for d in devices {
            self.meta(PID_DEVICES, Some(d), &format!("d{d}"));
        }
        self.meta(PID_LINKS, None, "simulated links (sim time)");
        links.sort_unstable();
        for (f, t) in links {
            self.meta(PID_LINKS, Some(link_tid(f, t)), &format!("h{f}→h{t}"));
        }
    }

    /// The loadable document: `traceEvents`, then `displayTimeUnit`. An
    /// event's `dur`, `s` and `args` are absent when it has none.
    pub fn to_json(&self) -> Value {
        let event = |e: &ChromeEvent| {
            let mut members = Vec::new();
            let mut put = |key: &str, value: Value| members.push((key.to_string(), value));
            put("name", e.name.as_str().into());
            put("cat", e.cat.as_str().into());
            put("ph", e.ph.as_str().into());
            put("ts", e.ts.into());
            if let Some(dur) = e.dur {
                put("dur", dur.into());
            }
            put("pid", e.pid.into());
            put("tid", e.tid.into());
            if let Some(s) = &e.s {
                put("s", s.as_str().into());
            }
            if !e.args.is_empty() {
                let args = e.args.iter().map(|(k, v)| (k.clone(), v.clone()));
                put("args", Value::Object(args.collect()));
            }
            Value::Object(members)
        };
        json_object! {
            "traceEvents": self.events.iter().map(event).collect::<Vec<_>>(),
            "displayTimeUnit": self.display_time_unit,
        }
    }

    /// The document as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Deterministic link row id from a host pair (hosts are small indices).
fn link_tid(from: u32, to: u32) -> u32 {
    from * 1_000 + to
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SemAttrs;
    use genie_netsim::Nanos;
    use genie_srg::{Node, NodeId, OpKind, Phase};

    fn tiny_srg() -> Srg {
        let mut g = Srg::new("tiny");
        g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "attn.qk")
                .with_phase(Phase::LlmDecode)
                .with_module_path("transformer.h.0.attn"),
        );
        g
    }

    #[test]
    fn sim_kernels_get_phase_enrichment() {
        let srg = tiny_srg();
        let mut trace = Trace::new();
        trace.push(
            TraceEvent::kernel(0, "attn.qk", Nanos::ZERO, Nanos::from_micros(5))
                .with_node(NodeId::new(0))
                .with_plan("tiny@semantics_aware"),
        );
        let mut ct = ChromeTrace::new();
        ct.push_sim_trace(&trace, Some(&srg), None);
        let kernel = ct.events.iter().find(|e| e.cat == "sim.kernel").unwrap();
        assert_eq!(kernel.ph, "X");
        assert_eq!(kernel.pid, PID_DEVICES);
        assert_eq!(kernel.args["phase"], Value::from("llm_decode"));
        assert_eq!(kernel.args["module"], Value::from("transformer.h.0.attn"));
        assert_eq!(kernel.args["plan"], Value::from("tiny@semantics_aware"));
        assert_eq!(kernel.dur, Some(5.0));
        // Metadata rows for the device process exist.
        assert!(ct
            .events
            .iter()
            .any(|e| e.ph == "M" && e.pid == PID_DEVICES && e.name == "process_name"));
    }

    #[test]
    fn transfers_carry_queue_delay_and_bytes() {
        let mut trace = Trace::new();
        trace.push(
            TraceEvent::transfer(0, 1, 4096, Nanos::from_micros(10), Nanos::from_micros(30))
                .with_queue_delay(Nanos::from_micros(7)),
        );
        let mut ct = ChromeTrace::new();
        ct.push_sim_trace(&trace, None, Some("fallback@plan"));
        let xfer = ct.events.iter().find(|e| e.cat == "sim.transfer").unwrap();
        assert_eq!(xfer.args["bytes"], Value::U64(4096));
        assert_eq!(xfer.args["queue_delay_us"], Value::F64(7.0));
        assert_eq!(xfer.args["plan"], Value::from("fallback@plan"));
        assert_eq!(xfer.pid, PID_LINKS);
        assert_eq!(xfer.tid, link_tid(0, 1));
    }

    #[test]
    fn runtime_records_map_to_pid_one() {
        let records = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "schedule".into(),
                category: "scheduler".into(),
                kind: SpanKind::Span,
                track: Track::Runtime,
                start_ns: 2_000,
                dur_ns: 3_000,
                attrs: SemAttrs::new().plan("g@p"),
                thread: 42,
                seq: 0,
            },
            SpanRecord {
                id: 2,
                parent: None,
                name: "lint:GA101".into(),
                category: "scheduler".into(),
                kind: SpanKind::Instant,
                track: Track::Runtime,
                start_ns: 2_500,
                dur_ns: 0,
                attrs: SemAttrs::new(),
                thread: 42,
                seq: 1,
            },
        ];
        let mut ct = ChromeTrace::new();
        ct.push_records(&records, None);
        let span = ct.events.iter().find(|e| e.name == "schedule").unwrap();
        assert_eq!(span.pid, PID_RUNTIME);
        assert_eq!(span.ph, "X");
        assert_eq!(span.ts, 2.0);
        assert_eq!(span.dur, Some(3.0));
        let inst = ct.events.iter().find(|e| e.name == "lint:GA101").unwrap();
        assert_eq!(inst.ph, "i");
        assert_eq!(inst.s.as_deref(), Some("t"));
        // Both share the same runtime thread row.
        assert_eq!(span.tid, inst.tid);
    }

    #[test]
    fn document_is_loadable_json() {
        let mut ct = ChromeTrace::new();
        ct.push_sim_trace(&Trace::new(), None, None);
        let doc = genie_srg::json::parse(&ct.to_json_string()).unwrap();
        assert!(doc["traceEvents"].as_array().is_some());
        assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    }
}
