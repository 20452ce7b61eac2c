//! Causal request tracing and critical-path blame analysis.
//!
//! This module is the "why was it slow?" layer on top of the span
//! collector. It has three parts:
//!
//! 1. **[`TraceCtx`]** — a request-scoped trace context (request id +
//!    causal parent span) carried in the transport wire envelope, so
//!    the server's `transport.serve` span can be attributed to the
//!    request a peer names.
//! 2. **The serving engine's record** — its event log ([`LogEvent`],
//!    [`EventKind`], [`ShedReason`]) and per-lane [`StepSlice`] time
//!    decompositions on the virtual clock. The types live here so the
//!    dependency arrow stays `serving -> telemetry`; the engine writes
//!    them, and [`CausalTraceDoc`] borrows them from its report as they
//!    are, with nothing translated or copied.
//! 3. **[`analyze`]** — reconstructs each request's causal chain,
//!    extracts its critical path, and produces an exact integer-ns
//!    blame breakdown (queue / compute / transfer / fault /
//!    re-prefill) whose segments tile `[arrival, finished]` with no
//!    gaps, so blamed time sums to the observed TTLT *exactly*.
//!    [`WhatIf`] replays a critical path under hypothetical changes
//!    (faster link, zero faults, infinite lanes) to bound speedup.
//!
//! The blame taxonomy: every nanosecond of a request's lifetime is in
//! exactly one bucket. Queue-wait covers both pre-admission waiting
//! and intra-step synchronization residue (time a lane spent waiting
//! for the slowest lane of a barrier step, plus integer-rounding
//! residue). Fault covers derate inflation, jitter, and outage stalls.
//! A re-prefill step's compute *and* transfer are blamed to
//! `reprefill`: that work exists only because an eviction destroyed
//! KV state.

use genie_netsim::Nanos;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// Request-scoped causal context, serialized into the transport wire
/// envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Serving-request id this work is performed on behalf of.
    pub request: u64,
    /// Span id of the causal parent, or 0 when unknown.
    pub parent_span: u64,
}

// ---------------------------------------------------------------------------
// The serving record: event log and step slices
// ---------------------------------------------------------------------------

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

/// One entry of the serving engine's deterministic event log.
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

/// The phase a batch member was in during one engine step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberPhase {
    /// First KV build over the prompt.
    Prefill,
    /// KV rebuild after eviction (prompt + generated prefix).
    Reprefill,
    /// Steady-state single-token decode.
    Decode,
}

/// One request's participation in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepMember {
    /// Serving-request id.
    pub request: u64,
    /// The phase this member was in for this step.
    pub phase: MemberPhase,
}

/// Per-lane time decomposition of one barrier step, in integer
/// nanoseconds on the virtual clock.
///
/// `end_ns - start_ns` is the *global* step duration (all lanes sync
/// at the barrier); `compute_ns + net_latency_ns + net_payload_ns +
/// fault_ns <= end_ns - start_ns`, and the residue is synchronization
/// wait (blamed to queue). Produced via [`StepSlice::from_secs`],
/// which clamps so the invariant holds bit-stably.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepSlice {
    /// Lane (device) index this slice describes.
    pub lane: u32,
    /// Engine step index (0-based).
    pub step: u64,
    /// Step start on the virtual clock, ns.
    pub start_ns: u64,
    /// Global (barrier) step end on the virtual clock, ns.
    pub end_ns: u64,
    /// Roofline compute time of this lane's batch, ns.
    pub compute_ns: u64,
    /// Fixed per-RPC link latency (rounds x 2 x one-way), ns.
    pub net_latency_ns: u64,
    /// Serialization time of the step payload on the link, ns.
    pub net_payload_ns: u64,
    /// Fault-induced time: derate inflation + jitter + outage stall, ns.
    pub fault_ns: u64,
    /// Collective time: all_reduce / all_gather / activation-send link
    /// traffic of a sharded tenant's step, ns. Zero for unsharded runs.
    pub collective_ns: u64,
    /// The part of `collective_ns` that is bytes on the fabric; the rest
    /// is rounds × fabric latency, which a faster link does not shrink.
    pub collective_payload_ns: u64,
    /// Batch members resident on this lane for this step.
    pub members: Vec<StepMember>,
}

impl StepSlice {
    /// Build a slice from f64 second components, converting to integer
    /// ns with deterministic clamping: components are rounded in a
    /// fixed order (compute, latency, payload, fault) and each is
    /// capped by the nanoseconds still unassigned inside the step, so
    /// the sum can never exceed the step duration regardless of
    /// float rounding.
    #[allow(clippy::too_many_arguments)]
    pub fn from_secs(
        lane: u32,
        step: u64,
        start_ns: u64,
        end_ns: u64,
        compute_s: f64,
        net_latency_s: f64,
        net_payload_s: f64,
        fault_s: f64,
        members: Vec<StepMember>,
    ) -> Self {
        let dur = end_ns.saturating_sub(start_ns);
        let mut left = dur;
        let mut take = |secs: f64| -> u64 {
            let ns = ((secs.max(0.0)) * 1e9).round() as u64;
            let got = ns.min(left);
            left -= got;
            got
        };
        let compute_ns = take(compute_s);
        let net_latency_ns = take(net_latency_s);
        let net_payload_ns = take(net_payload_s);
        let fault_ns = take(fault_s);
        StepSlice {
            lane,
            step,
            start_ns,
            end_ns,
            compute_ns,
            net_latency_ns,
            net_payload_ns,
            fault_ns,
            collective_ns: 0,
            collective_payload_ns: 0,
            members,
        }
    }

    /// Assign `secs` of this step to collective traffic, `payload_secs` of
    /// them serialization, clamped (like every other component) by the
    /// nanoseconds still unassigned, so tiling survives float rounding.
    pub fn with_collective(mut self, secs: f64, payload_secs: f64) -> Self {
        let ns = |secs: f64| (secs.max(0.0) * 1e9).round() as u64;
        self.collective_ns = ns(secs).min(self.sync_ns());
        self.collective_payload_ns = ns(payload_secs).min(self.collective_ns);
        self
    }

    /// Synchronization residue: step time not assigned to any
    /// component (waiting for the slowest lane at the barrier).
    pub fn sync_ns(&self) -> u64 {
        (self.end_ns - self.start_ns)
            - self.compute_ns
            - self.net_latency_ns
            - self.net_payload_ns
            - self.fault_ns
            - self.collective_ns
    }
}

/// The full causal record of one serving run, borrowed from its report:
/// the event log plus per-step slices. Everything [`analyze`] needs,
/// nothing more.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CausalTraceDoc<'a> {
    /// The event log, in processing order (tokens included).
    pub events: &'a [LogEvent],
    /// Per-lane step decompositions, in step order.
    pub slices: &'a [StepSlice],
}

// ---------------------------------------------------------------------------
// Blame analysis
// ---------------------------------------------------------------------------

/// Exact integer-ns blame totals for one request. The six buckets
/// tile `[arrival, finished]`: their sum equals the observed TTLT.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlameBreakdown {
    /// Admission-queue wait + barrier synchronization wait, ns.
    pub queue_ns: u64,
    /// Compute in prefill-phase steps, ns.
    pub compute_prefill_ns: u64,
    /// Compute in decode-phase steps, ns.
    pub compute_decode_ns: u64,
    /// Fixed link latency in non-reprefill steps, ns.
    pub net_latency_ns: u64,
    /// Payload serialization in non-reprefill steps, ns.
    pub net_payload_ns: u64,
    /// Fault-induced time (derate, jitter, outage stall), ns.
    pub fault_ns: u64,
    /// Compute + transfer of re-prefill steps (work that exists only
    /// because an eviction destroyed KV state), ns.
    pub reprefill_ns: u64,
    /// KV-prefix migration time between prefill and decode hosts
    /// (disaggregated serving): the interval between `MigrateStart`
    /// and `MigrateDone`/`MigrateFail`, ns.
    pub migrate_ns: u64,
    /// Collective time (all_reduce / all_gather / activation sends) of
    /// sharded steps, ns.
    pub collective_ns: u64,
    /// Serialization part of `collective_ns`: inside that bucket, not its own.
    pub collective_payload_ns: u64,
}

impl BlameBreakdown {
    /// Total blamed nanoseconds (equals TTLT by construction).
    pub fn total_ns(&self) -> u64 {
        self.queue_ns
            + self.compute_prefill_ns
            + self.compute_decode_ns
            + self.net_latency_ns
            + self.net_payload_ns
            + self.fault_ns
            + self.reprefill_ns
            + self.migrate_ns
            + self.collective_ns
    }

    /// Link-transfer nanoseconds (latency + payload).
    pub fn transfer_ns(&self) -> u64 {
        self.net_latency_ns + self.net_payload_ns
    }

    /// Collapse to the six headline fractions (summing to 1 ± a few
    /// float ulps). A zero-duration request is all queue by fiat.
    pub fn fractions(&self) -> BlameFractions {
        let total = self.total_ns();
        if total == 0 {
            return BlameFractions {
                queue: 1.0,
                compute: 0.0,
                transfer: 0.0,
                fault: 0.0,
                reprefill: 0.0,
                migrate: 0.0,
                collective: 0.0,
            };
        }
        let t = total as f64;
        BlameFractions {
            queue: self.queue_ns as f64 / t,
            compute: (self.compute_prefill_ns + self.compute_decode_ns) as f64 / t,
            transfer: self.transfer_ns() as f64 / t,
            fault: self.fault_ns as f64 / t,
            reprefill: self.reprefill_ns as f64 / t,
            migrate: self.migrate_ns as f64 / t,
            collective: self.collective_ns as f64 / t,
        }
    }
}

/// Headline blame fractions of one request (or an aggregate profile).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlameFractions {
    /// Queue-wait share (admission queue + barrier sync).
    pub queue: f64,
    /// Compute share (prefill + decode roofline time).
    pub compute: f64,
    /// Link-transfer share (latency + payload).
    pub transfer: f64,
    /// Fault-induced share (derate, jitter, outage stall).
    pub fault: f64,
    /// KV re-prefill share (eviction-induced rework).
    pub reprefill: f64,
    /// KV-migration share (prefill→decode prefix shipping).
    pub migrate: f64,
    /// Collective share (sharded all_reduce / all_gather / sends).
    pub collective: f64,
}

impl BlameFractions {
    /// Sum of the fractions (should be ~1.0 for a real request).
    pub fn sum(&self) -> f64 {
        self.queue
            + self.compute
            + self.transfer
            + self.fault
            + self.reprefill
            + self.migrate
            + self.collective
    }
}

/// What a critical-path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Waiting in the admission queue (or re-queued after eviction).
    Wait,
    /// Member of a prefill-phase step.
    Prefill,
    /// Member of a decode-phase step.
    Decode,
    /// Member of a re-prefill step (eviction recovery).
    Reprefill,
    /// KV prefix in flight between prefill and decode hosts.
    Migrate,
}

/// One contiguous span of a request's critical path. Segments tile
/// `[arrival, finished]` in order with no gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CriticalSegment {
    /// What the request was doing.
    pub kind: SegmentKind,
    /// Segment start, virtual-clock ns.
    pub start_ns: u64,
    /// Segment end, virtual-clock ns.
    pub end_ns: u64,
    /// Lane the step ran on (None for queue waits).
    pub lane: Option<u32>,
}

/// Full per-request analysis: critical path + exact blame.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestBlame {
    /// Serving-request id.
    pub request: u64,
    /// Arrival on the virtual clock, ns.
    pub arrival_ns: u64,
    /// Final-token completion on the virtual clock, ns.
    pub finished_ns: u64,
    /// Time-to-last-token: `finished_ns - arrival_ns`.
    pub ttlt_ns: u64,
    /// Exact integer-ns blame totals (sum == `ttlt_ns`).
    pub blame: BlameBreakdown,
    /// Headline fractions of `blame`.
    pub fractions: BlameFractions,
    /// The request's critical path, tiling `[arrival, finished]`.
    pub critical_path: Vec<CriticalSegment>,
}

/// Aggregate result of [`analyze`]: per-request blame plus p50/p99
/// blame profiles across all completed requests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameReport {
    /// Completed requests in id order.
    pub requests: Vec<RequestBlame>,
    /// Requests shed without completing (no blame assigned).
    pub shed: u64,
    /// Per-dimension median of request fractions. Dimensions are
    /// ranked independently, so a profile row need not sum to 1.
    pub profile_p50: BlameFractions,
    /// Per-dimension p99 of request fractions.
    pub profile_p99: BlameFractions,
}

/// Percentile of an unsorted sample (p in [0,1]): sorted index `round(p·(n−1))`.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("blame fractions are finite"));
    let idx = ((p * (values.len() as f64 - 1.0)).round() as usize).min(values.len() - 1);
    values[idx]
}

fn profile(requests: &[RequestBlame], p: f64) -> BlameFractions {
    let dim = |f: &dyn Fn(&BlameFractions) -> f64| -> f64 {
        let mut vs: Vec<f64> = requests.iter().map(|r| f(&r.fractions)).collect();
        percentile(&mut vs, p)
    };
    BlameFractions {
        queue: dim(&|f| f.queue),
        compute: dim(&|f| f.compute),
        transfer: dim(&|f| f.transfer),
        fault: dim(&|f| f.fault),
        reprefill: dim(&|f| f.reprefill),
        migrate: dim(&|f| f.migrate),
        collective: dim(&|f| f.collective),
    }
}

/// Tile the gap `[from, to)` of a request's timeline: portions covered
/// by a KV-migration interval are blamed (and path-segmented) as
/// `Migrate`, the rest as queue wait. `intervals` must be sorted by
/// start and non-overlapping (the engine serializes migrations per
/// request).
fn fill_gap(
    from: u64,
    to: u64,
    intervals: &[(u64, u64)],
    blame: &mut BlameBreakdown,
    path: &mut Vec<CriticalSegment>,
) {
    let mut cursor = from;
    for &(ms, me) in intervals {
        let s = ms.max(cursor);
        let e = me.min(to);
        if e <= cursor || s >= to {
            continue;
        }
        if s > cursor {
            blame.queue_ns += s - cursor;
            path.push(CriticalSegment {
                kind: SegmentKind::Wait,
                start_ns: cursor,
                end_ns: s,
                lane: None,
            });
        }
        blame.migrate_ns += e - s;
        path.push(CriticalSegment {
            kind: SegmentKind::Migrate,
            start_ns: s,
            end_ns: e,
            lane: None,
        });
        cursor = e;
    }
    if cursor < to {
        blame.queue_ns += to - cursor;
        path.push(CriticalSegment {
            kind: SegmentKind::Wait,
            start_ns: cursor,
            end_ns: to,
            lane: None,
        });
    }
}

/// Reconstruct every completed request's causal chain from `doc`,
/// extract its critical path, and compute exact blame.
///
/// Panics if the document is internally inconsistent (a request's
/// step slices overlap or extend past its completion): the engine
/// emits contiguous barrier steps, so any gap is a bug worth
/// surfacing loudly rather than absorbing.
pub fn analyze(doc: &CausalTraceDoc<'_>) -> BlameReport {
    // Arrival / completion / shed per request.
    let mut arrival: BTreeMap<u64, u64> = BTreeMap::new();
    let mut finished: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shed = 0u64;
    // Per-request KV-migration intervals [start, done/fail), paired up
    // in log order (the engine serializes migrations per request).
    let mut migrations: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut open_migration: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in doc.events {
        let at_ns = ev.at.0;
        match ev.kind {
            EventKind::Arrive => {
                arrival.entry(ev.request).or_insert(at_ns);
            }
            EventKind::Complete => {
                finished.insert(ev.request, at_ns);
            }
            EventKind::Shed(_) => shed += 1,
            EventKind::MigrateStart { .. } => {
                open_migration.insert(ev.request, at_ns);
            }
            EventKind::MigrateDone { .. } | EventKind::MigrateFail { .. } => {
                if let Some(start) = open_migration.remove(&ev.request) {
                    migrations
                        .entry(ev.request)
                        .or_default()
                        .push((start, at_ns.max(start)));
                }
            }
            // Tokens, admissions, preemptions and re-prefills carry no
            // blame: the slices do.
            _ => {}
        }
    }
    for ivals in migrations.values_mut() {
        ivals.sort_unstable();
    }

    // Per-request step participation, in step order.
    let mut steps: BTreeMap<u64, Vec<(&StepSlice, MemberPhase)>> = BTreeMap::new();
    for slice in doc.slices {
        for m in &slice.members {
            steps.entry(m.request).or_default().push((slice, m.phase));
        }
    }

    let mut requests = Vec::new();
    for (&request, &finished_ns) in &finished {
        let arrival_ns = *arrival
            .get(&request)
            .unwrap_or_else(|| panic!("request {request} completed without arriving"));
        let mut blame = BlameBreakdown::default();
        let mut path: Vec<CriticalSegment> = Vec::new();
        let mut cursor = arrival_ns;
        let mut chain = steps.remove(&request).unwrap_or_default();
        chain.sort_by_key(|(s, _)| s.start_ns);
        let no_migrations: Vec<(u64, u64)> = Vec::new();
        let ivals: &[(u64, u64)] = migrations
            .get(&request)
            .map(|v| v.as_slice())
            .unwrap_or(&no_migrations);
        for (slice, phase) in chain {
            assert!(
                slice.start_ns >= cursor && slice.end_ns <= finished_ns,
                "request {request}: step slice [{}, {}] escapes [{cursor}, {finished_ns}]",
                slice.start_ns,
                slice.end_ns,
            );
            if slice.start_ns > cursor {
                fill_gap(cursor, slice.start_ns, ivals, &mut blame, &mut path);
            }
            blame.queue_ns += slice.sync_ns();
            blame.fault_ns += slice.fault_ns;
            blame.collective_ns += slice.collective_ns;
            blame.collective_payload_ns += slice.collective_payload_ns;
            let kind = match phase {
                MemberPhase::Reprefill => {
                    blame.reprefill_ns +=
                        slice.compute_ns + slice.net_latency_ns + slice.net_payload_ns;
                    SegmentKind::Reprefill
                }
                MemberPhase::Prefill => {
                    blame.compute_prefill_ns += slice.compute_ns;
                    blame.net_latency_ns += slice.net_latency_ns;
                    blame.net_payload_ns += slice.net_payload_ns;
                    SegmentKind::Prefill
                }
                MemberPhase::Decode => {
                    blame.compute_decode_ns += slice.compute_ns;
                    blame.net_latency_ns += slice.net_latency_ns;
                    blame.net_payload_ns += slice.net_payload_ns;
                    SegmentKind::Decode
                }
            };
            path.push(CriticalSegment {
                kind,
                start_ns: slice.start_ns,
                end_ns: slice.end_ns,
                lane: Some(slice.lane),
            });
            cursor = slice.end_ns;
        }
        if cursor < finished_ns {
            // Trailing gap: migration transfers land between steps, so a
            // request that migrated right before completing (or whose
            // completion was recorded after the last barrier) spends this
            // window in Migrate and/or Wait.
            fill_gap(cursor, finished_ns, ivals, &mut blame, &mut path);
        }
        let ttlt_ns = finished_ns - arrival_ns;
        assert_eq!(
            blame.total_ns(),
            ttlt_ns,
            "request {request}: blamed time must tile TTLT exactly"
        );
        requests.push(RequestBlame {
            request,
            arrival_ns,
            finished_ns,
            ttlt_ns,
            fractions: blame.fractions(),
            blame,
            critical_path: path,
        });
    }

    let profile_p50 = profile(&requests, 0.50);
    let profile_p99 = profile(&requests, 0.99);
    BlameReport {
        requests,
        shed,
        profile_p50,
        profile_p99,
    }
}

// ---------------------------------------------------------------------------
// What-if estimation
// ---------------------------------------------------------------------------

/// A hypothetical deployment change to replay a critical path under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIf {
    /// Multiply link bandwidth by this factor (payload time divides).
    pub link_bandwidth_x: f64,
    /// Remove all fault-induced time (derate, jitter, outage stall).
    pub zero_faults: bool,
    /// Remove all queue-wait (admission queue + barrier sync), as if
    /// every request had a dedicated lane.
    pub infinite_lanes: bool,
}

impl Default for WhatIf {
    fn default() -> Self {
        WhatIf {
            link_bandwidth_x: 1.0,
            zero_faults: false,
            infinite_lanes: false,
        }
    }
}

impl WhatIf {
    /// The identity scenario (predicts the observed latency).
    pub fn observed() -> Self {
        WhatIf::default()
    }

    /// Scale link bandwidth by `x`.
    pub fn link_bandwidth(x: f64) -> Self {
        WhatIf {
            link_bandwidth_x: x,
            ..WhatIf::default()
        }
    }

    /// Remove all fault-induced time.
    pub fn zero_faults() -> Self {
        WhatIf {
            zero_faults: true,
            ..WhatIf::default()
        }
    }

    /// Remove all queue-wait.
    pub fn infinite_lanes() -> Self {
        WhatIf {
            infinite_lanes: true,
            ..WhatIf::default()
        }
    }

    /// Replay `r`'s critical path under this scenario, returning the
    /// predicted TTLT in ns. Monotone: removing time can only shrink
    /// the prediction, so `zero_faults` always predicts `<= ttlt_ns`.
    ///
    /// Bandwidth divides bytes on a wire, not round trips: of collective
    /// time only the serialization part scales (≈ 4 % of it on the paper
    /// fabric, where 56 × 250 µs of ≈ 14.6 ms is latency). A migration
    /// span scales whole: it does not carry the split, and its one 250 µs
    /// is ≈ 2 % of a 72-token GPT-J prefix's ≈ 10.8 ms at 25 Gbps.
    pub fn replay(&self, r: &RequestBlame) -> u64 {
        let b = &r.blame;
        let queue = if self.infinite_lanes { 0 } else { b.queue_ns };
        let fault = if self.zero_faults { 0 } else { b.fault_ns };
        let x = self.link_bandwidth_x.max(1e-9);
        let scaled = |ns: u64| (ns as f64 / x).round() as u64;
        queue
            + b.compute_prefill_ns
            + b.compute_decode_ns
            + b.net_latency_ns
            + scaled(b.net_payload_ns)
            + fault
            + b.reprefill_ns
            + scaled(b.migrate_ns)
            + (b.collective_ns - b.collective_payload_ns)
            + scaled(b.collective_payload_ns)
    }
}

/// One scenario's aggregate prediction across a blame report.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIfDelta {
    /// Human-readable scenario label.
    pub scenario: String,
    /// Mean observed TTLT across requests, ns.
    pub observed_mean_ns: u64,
    /// Mean predicted TTLT across requests, ns.
    pub predicted_mean_ns: u64,
    /// `observed_mean_ns / predicted_mean_ns` (>= 1 for time-removing
    /// scenarios; the achievable-speedup bound).
    pub speedup: f64,
}

/// Replay every request in `report` under `w` and aggregate.
pub fn what_if(report: &BlameReport, label: &str, w: &WhatIf) -> WhatIfDelta {
    let n = report.requests.len().max(1) as u64;
    let observed: u64 = report.requests.iter().map(|r| r.ttlt_ns).sum::<u64>() / n;
    let predicted: u64 = report.requests.iter().map(|r| w.replay(r)).sum::<u64>() / n;
    WhatIfDelta {
        scenario: label.to_string(),
        observed_mean_ns: observed,
        predicted_mean_ns: predicted,
        speedup: observed as f64 / predicted.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owned event log and its slices, as a serving report holds them.
    struct Fixture {
        events: Vec<LogEvent>,
        slices: Vec<StepSlice>,
    }

    impl Fixture {
        fn analyze(&self) -> BlameReport {
            analyze(&CausalTraceDoc {
                events: &self.events,
                slices: &self.slices,
            })
        }
    }

    fn ev(at_ns: u64, request: u64, kind: EventKind) -> LogEvent {
        LogEvent {
            at: Nanos(at_ns),
            request,
            kind,
            kv_resident_bytes: 0,
        }
    }

    fn doc_one_request() -> Fixture {
        // arrive at 0, admitted at 100 (queue 100), prefill step
        // [100, 300] (compute 120, lat 20, pay 30, fault 10, sync 20),
        // decode step [300, 400] (compute 80, lat 10, pay 5, fault 0,
        // sync 5), complete at 400.
        Fixture {
            events: vec![
                ev(0, 1, EventKind::Arrive),
                ev(100, 1, EventKind::Admit { lane: 0 }),
                ev(400, 1, EventKind::Complete),
            ],
            slices: vec![
                StepSlice {
                    lane: 0,
                    step: 0,
                    start_ns: 100,
                    end_ns: 300,
                    compute_ns: 120,
                    net_latency_ns: 20,
                    net_payload_ns: 30,
                    fault_ns: 10,
                    collective_ns: 0,
                    collective_payload_ns: 0,
                    members: vec![StepMember {
                        request: 1,
                        phase: MemberPhase::Prefill,
                    }],
                },
                StepSlice {
                    lane: 0,
                    step: 1,
                    start_ns: 300,
                    end_ns: 400,
                    compute_ns: 80,
                    net_latency_ns: 10,
                    net_payload_ns: 5,
                    fault_ns: 0,
                    collective_ns: 0,
                    collective_payload_ns: 0,
                    members: vec![StepMember {
                        request: 1,
                        phase: MemberPhase::Decode,
                    }],
                },
            ],
        }
    }

    #[test]
    fn collective_time_is_blamed_and_scales_with_bandwidth() {
        // One decode step: 100 ns total, 40 compute, 30 collective (12 of
        // them bytes on the fabric), the remaining 30 sync → queue.
        // Collective must tile TTLT, show up in fractions, and shrink
        // under a what-if bandwidth bump by its serialization part only.
        let events = vec![ev(0, 1, EventKind::Arrive), ev(100, 1, EventKind::Complete)];
        let slice = StepSlice::from_secs(
            0,
            0,
            0,
            100,
            40e-9,
            0.0,
            0.0,
            0.0,
            vec![StepMember {
                request: 1,
                phase: MemberPhase::Decode,
            }],
        )
        .with_collective(30e-9, 12e-9);
        assert_eq!((slice.collective_ns, slice.collective_payload_ns), (30, 12));
        assert_eq!(slice.sync_ns(), 30);
        let doc = Fixture {
            events,
            slices: vec![slice],
        };

        let report = doc.analyze();
        let r = &report.requests[0];
        assert_eq!(r.blame.collective_ns, 30);
        assert_eq!(r.blame.total_ns(), r.ttlt_ns, "collective tiles TTLT");
        assert!((r.fractions.collective - 0.30).abs() < 1e-9);
        assert!((r.fractions.sum() - 1.0).abs() < 1e-9);

        // 3x link bandwidth: the 12 ns of bytes become 4, the 18 ns of
        // round latency stay; no bandwidth removes more than the bytes.
        assert_eq!(WhatIf::link_bandwidth(3.0).replay(r), r.ttlt_ns - 8);
        assert_eq!(WhatIf::link_bandwidth(1e9).replay(r), r.ttlt_ns - 12);
    }

    #[test]
    fn with_collective_clamps_to_unassigned_time() {
        // Only 10 ns are unassigned: a 50 ns collective claim clamps.
        let slice = StepSlice::from_secs(0, 0, 0, 100, 90e-9, 0.0, 0.0, 0.0, Vec::new())
            .with_collective(50e-9, 20e-9);
        assert_eq!((slice.collective_ns, slice.collective_payload_ns), (10, 10));
        assert_eq!(slice.sync_ns(), 0);
    }

    #[test]
    fn blame_tiles_ttlt_exactly() {
        let report = doc_one_request().analyze();
        assert_eq!(report.requests.len(), 1);
        let r = &report.requests[0];
        assert_eq!(r.ttlt_ns, 400);
        assert_eq!(r.blame.total_ns(), 400);
        // queue = 100 (wait) + 20 + 5 (sync) = 125
        assert_eq!(r.blame.queue_ns, 125);
        assert_eq!(r.blame.compute_prefill_ns, 120);
        assert_eq!(r.blame.compute_decode_ns, 80);
        assert_eq!(r.blame.transfer_ns(), 65);
        assert_eq!(r.blame.fault_ns, 10);
        assert_eq!(r.blame.reprefill_ns, 0);
        assert!((r.fractions.sum() - 1.0).abs() < 1e-9);
        // Critical path tiles [arrival, finished].
        assert_eq!(r.critical_path.first().unwrap().start_ns, 0);
        assert_eq!(r.critical_path.last().unwrap().end_ns, 400);
        for w in r.critical_path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "no gaps on the path");
        }
    }

    #[test]
    fn reprefill_steps_are_blamed_to_reprefill_not_compute() {
        let mut doc = doc_one_request();
        doc.slices[1].members[0].phase = MemberPhase::Reprefill;
        let report = doc.analyze();
        let r = &report.requests[0];
        assert_eq!(r.blame.compute_decode_ns, 0);
        assert_eq!(r.blame.reprefill_ns, 80 + 10 + 5);
        assert_eq!(r.blame.total_ns(), r.ttlt_ns);
    }

    #[test]
    fn what_if_replay_is_monotone_and_exact() {
        let report = doc_one_request().analyze();
        let r = &report.requests[0];
        assert_eq!(WhatIf::observed().replay(r), r.ttlt_ns);
        assert_eq!(WhatIf::zero_faults().replay(r), r.ttlt_ns - 10);
        assert_eq!(WhatIf::infinite_lanes().replay(r), r.ttlt_ns - 125);
        // 2x bandwidth halves payload time (35 -> 18 after rounding).
        assert_eq!(WhatIf::link_bandwidth(2.0).replay(r), r.ttlt_ns - 17);
        for w in [
            WhatIf::zero_faults(),
            WhatIf::infinite_lanes(),
            WhatIf::link_bandwidth(4.0),
        ] {
            assert!(w.replay(r) <= r.ttlt_ns);
        }
    }

    #[test]
    fn from_secs_clamps_rounding_into_the_step() {
        // Components that round to more ns than the step holds must be
        // clamped, never overflow.
        let s = StepSlice::from_secs(0, 0, 0, 100, 60e-9, 30e-9, 30e-9, 30e-9, vec![]);
        assert_eq!(
            s.compute_ns + s.net_latency_ns + s.net_payload_ns + s.fault_ns,
            100
        );
        assert_eq!(s.compute_ns, 60);
        assert_eq!(s.net_latency_ns, 30);
        assert_eq!(s.net_payload_ns, 10);
        assert_eq!(s.fault_ns, 0);
        assert_eq!(s.sync_ns(), 0);
    }

    /// Insert a migration interval [300, 380] into the inter-step gap of
    /// a widened doc: prefill [100, 300], migrate [300, 380], decode
    /// [400, 500], complete at 500.
    fn doc_with_migration() -> Fixture {
        let mut doc = doc_one_request();
        doc.slices[1].start_ns = 400;
        doc.slices[1].end_ns = 500;
        doc.events[2].at = Nanos(500); // Complete
        let (from, to, bytes) = (1, 0, 64);
        let start = EventKind::MigrateStart { from, to, bytes };
        doc.events.push(ev(300, 1, start));
        doc.events.push(ev(380, 1, EventKind::MigrateDone { to }));
        doc
    }

    #[test]
    fn migration_blame_tiles_the_gap_and_ttlt() {
        let report = doc_with_migration().analyze();
        let r = &report.requests[0];
        assert_eq!(r.ttlt_ns, 500);
        assert_eq!(r.blame.total_ns(), 500);
        assert_eq!(r.blame.migrate_ns, 80);
        // queue = 100 (admission wait) + 20 (migrate->decode gap)
        //       + 20 + 5 (sync) = 145
        assert_eq!(r.blame.queue_ns, 145);
        assert!((r.fractions.sum() - 1.0).abs() < 1e-9);
        // Critical path still tiles [arrival, finished] with a Migrate
        // segment in the inter-step gap.
        assert_eq!(r.critical_path.first().unwrap().start_ns, 0);
        assert_eq!(r.critical_path.last().unwrap().end_ns, 500);
        for w in r.critical_path.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "no gaps on the path");
        }
        assert!(r
            .critical_path
            .iter()
            .any(|s| s.kind == SegmentKind::Migrate && s.start_ns == 300 && s.end_ns == 380));
    }

    #[test]
    fn failed_migration_interval_is_still_blamed_to_migrate() {
        let mut doc = doc_with_migration();
        // Replace MigrateDone with MigrateFail at the same timestamp;
        // the wire time until the severance is still migration blame.
        let last = doc.events.len() - 1;
        doc.events[last].kind = EventKind::MigrateFail { to: 0 };
        let report = doc.analyze();
        let r = &report.requests[0];
        assert_eq!(r.blame.migrate_ns, 80);
        assert_eq!(r.blame.total_ns(), r.ttlt_ns);
    }

    #[test]
    fn what_if_bandwidth_scales_migration_time() {
        let report = doc_with_migration().analyze();
        let r = &report.requests[0];
        assert_eq!(WhatIf::observed().replay(r), r.ttlt_ns);
        // 2x bandwidth halves payload (35 -> 18 rounded) and migrate
        // (80 -> 40).
        assert_eq!(WhatIf::link_bandwidth(2.0).replay(r), r.ttlt_ns - 17 - 40);
    }

    #[test]
    fn shed_requests_are_counted_but_not_blamed() {
        let mut doc = doc_one_request();
        doc.events.push(ev(50, 2, EventKind::Arrive));
        let why = ShedReason::QueueOverSlo;
        doc.events.push(ev(90, 2, EventKind::Shed(why)));
        let report = doc.analyze();
        assert_eq!(report.shed, 1);
        assert_eq!(report.requests.len(), 1);
    }

    #[test]
    fn token_events_carry_no_blame() {
        let quiet = doc_with_migration();
        let mut chatty = doc_with_migration();
        // A token after every event, and one of a request that never
        // arrived: the log is read as the engine wrote it.
        let token = |e: &LogEvent| ev(e.at.0, e.request, EventKind::Token { value: 7 });
        let interleaved = quiet.events.iter().flat_map(|e| [e.clone(), token(e)]);
        chatty.events = interleaved.collect();
        let stray = ev(350, 9, EventKind::Token { value: 8 });
        chatty.events.push(stray);
        assert_eq!(chatty.events.len(), 2 * quiet.events.len() + 1);
        assert_eq!(chatty.analyze(), quiet.analyze());
    }
}
