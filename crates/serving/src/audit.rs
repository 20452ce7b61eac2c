//! The serving laws, checked against what a run wrote.
//!
//! [`ServingLoop::audit`] replays a report's event log beside its step
//! slices and the offered trace, re-deriving who is on each lane and
//! where each KV prefix is without reading engine state. The log is in
//! processing order; the audit follows one engine iteration's (DESIGN
//! §4h): a step's execute events in slice order, its completions, then
//! its prefill-lane members' departures in ascending id. A prefix the
//! planner keeps off the fabric is dropped there without an event; the
//! audit derives that drop from this order.

use crate::engine::{MigrationPolicy, ReprefillCause, ServingConfig, ServingLoop};
use crate::report::ServingReport;
use crate::request::{EventKind, LogEvent, Outcome, ServingRequest};
use genie_netsim::Nanos;
use genie_telemetry::causal::{MemberPhase, StepMember, StepSlice};
use std::collections::BTreeMap;
use std::fmt;

/// The laws [`ServingLoop::audit`] checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Law {
    /// One `Arrive`, first, at the offered arrival; one terminal event, last.
    Lifecycle,
    /// An outcome says what the log does: tokens, TTFT, finish or shed.
    Outcome,
    /// A request's own events never go back in virtual time.
    TimeOrder,
    /// No admission after waiting in the queue past the budget.
    QueueBudget,
    /// `MigrateStart` (prefill → decode lane), then its landing, alone.
    Migration,
    /// Every stamp equals the KV the log implies, one place per prefix.
    KvConservation,
    /// No lane's resident plus inbound KV exceeds its capacity.
    KvCapacity,
    /// `peak_kv_bytes` is the largest stamp, and the last stamp is 0.
    PeakKv,
    /// Slices on a lane do not overlap; their members are the execute events.
    Slices,
    /// The report's counters equal their counts in the log.
    Counters,
}

/// A broken law: which one, by which request, at which event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The law.
    pub law: Law,
    /// The request that broke it, when one did.
    pub request: Option<u64>,
    /// Index into `report.events` of the event that showed it, if any.
    pub event: Option<usize>,
    /// What was seen, against what the law requires.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by = self.request.map(|id| format!(" by request {id}"));
        let at = self.event.map(|i| format!(" at event {i}"));
        let (by, at) = (by.unwrap_or_default(), at.unwrap_or_default());
        write!(f, "law {:?} broken{by}{at}: {}", self.law, self.detail)
    }
}

/// What an accepted audit derived that the log does not say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditSummary {
    /// Prefixes dropped at departure without an event of their own.
    pub planned_drops: u64,
}

/// Return `law` broken, with the formatted detail.
macro_rules! fail {
    ($law:ident, $($detail:tt)+) => {
        return Err(Violation {
            law: Law::$law,
            request: None,
            event: None,
            detail: format!($($detail)+),
        })
    };
}

/// [`fail!`] unless `ok`; the detail is formatted only then.
macro_rules! ensure {
    ($ok:expr, $($broken:tt)+) => {
        if !$ok {
            fail!($($broken)+);
        }
    };
}

/// An offered request as far as the log has got; `kv` is (lane, on the
/// wire), `cause` what its next re-prefill counts as.
#[derive(Default)]
struct Req {
    last: Option<Nanos>,
    end: Option<usize>,
    tokens: Vec<i64>,
    first: Option<Nanos>,
    lane: Option<u32>,
    kv: Option<(u32, bool)>,
    cause: ReprefillCause,
    queued: Nanos,
}

/// The KV tokens `r` holds whenever it holds any: prompt + generated − 1.
fn held(offered: &ServingRequest, r: &Req) -> u64 {
    (offered.prompt.len() + r.tokens.len().max(1) - 1) as u64
}

/// What a check returns.
type Checked = Result<(), Violation>;

/// A roster entry: a member with its slice's lane, start and end.
type Member = (u32, Nanos, Nanos, StepMember);

struct Audit<'a> {
    config: &'a ServingConfig,
    outcomes: &'a BTreeMap<u64, Outcome>,
    kv_bytes: u64,
    reqs: BTreeMap<u64, (&'a ServingRequest, Req)>,
    /// KV tokens charged to each lane: resident, or inbound on the wire.
    lanes: Vec<u64>,
    /// Per step, its end and its members in slice order.
    steps: Vec<(Nanos, Vec<Member>)>,
    /// Steps begun, and members of the last one still to execute.
    begun: usize,
    left: usize,
    /// The last step's prefill-lane members yet to depart, ascending.
    pending: Vec<u64>,
    /// The counters and the largest stamp the log implies.
    tally: ServingReport,
    drops: u64,
}

impl ServingLoop {
    /// Check `report`, a run of `requests` on this loop, against every
    /// [`Law`]; the first broken one names the request and event.
    pub fn audit(
        &self,
        requests: &[ServingRequest],
        report: &ServingReport,
    ) -> Result<AuditSummary, Violation> {
        let lanes = self.config.lanes + self.config.disagg.as_ref().map_or(0, |d| d.prefill_lanes);
        let reqs = requests.iter().map(|r| (r.id, (r, Req::default())));
        let mut audit = Audit {
            config: &self.config,
            outcomes: &report.outcomes,
            kv_bytes: self.model.config().kv_bytes_per_token(),
            reqs: reqs.collect(),
            lanes: vec![0; lanes as usize],
            steps: Vec::new(),
            begun: 0,
            left: 0,
            pending: Vec::new(),
            tally: ServingReport::default(),
            drops: 0,
        };
        audit.rosters(&report.slices)?;
        for (i, e) in report.events.iter().enumerate() {
            audit.event(i, e).map_err(|v| Violation {
                request: v.request.or(Some(e.request)),
                event: Some(i),
                ..v
            })?;
        }
        audit.close(report)
    }
}

impl Audit<'_> {
    /// Group the slices into steps from 0, none overlapping on its lane.
    fn rosters(&mut self, slices: &[StepSlice]) -> Checked {
        let mut free_at = vec![0; self.lanes.len()];
        for s in slices {
            let (lane, start, end) = (s.lane as usize, Nanos(s.start_ns), Nanos(s.end_ns));
            let free = free_at.get(lane).copied().unwrap_or(u64::MAX);
            let fresh = s.step == self.steps.len() as u64;
            let ordered = fresh || s.step + 1 == self.steps.len() as u64;
            let ok = ordered && free <= s.start_ns && start <= end && !s.members.is_empty();
            ensure!(ok, Slices, "{s:?} after lane {lane} ends at {free}");
            free_at[lane] = s.end_ns;
            if fresh {
                self.steps.push((end, Vec::new()));
            }
            let (step_end, members) = self.steps.last_mut().expect("pushed above");
            *step_end = end.max(*step_end);
            members.extend(s.members.iter().map(|&m| (s.lane, start, end, m)));
        }
        Ok(())
    }

    /// Before `e`: the last step's departures due by then (silent drops
    /// included), and the member an execute event answers to.
    fn phase(&mut self, e: &LogEvent) -> Result<Option<Member>, Violation> {
        let execute = matches!(e.kind, EventKind::Token { .. } | EventKind::Reprefill);
        if self.left > 0 {
            ensure!(execute, Slices, "step {} is not done", self.begun - 1);
        } else if e.kind == EventKind::Complete {
            self.pending.retain(|&id| id != e.request);
        } else {
            let start = matches!(e.kind, EventKind::MigrateStart { .. });
            while (self.pending.first()).is_some_and(|&id| !start || id < e.request) {
                let id = self.pending.remove(0);
                self.drop_planned(id)?;
            }
            if start {
                let due = self.pending.first() == Some(&e.request);
                ensure!(due, Migration, "departs before {:?}", self.pending);
                self.pending.remove(0);
            }
            if execute {
                let step = self.begun;
                ensure!(step < self.steps.len(), Slices, "no step {step}");
                let members = &self.steps[step].1;
                let on_prefill = members.iter().filter(|m| m.0 >= self.config.lanes);
                self.pending = on_prefill.map(|m| m.3.request).collect();
                self.pending.sort_unstable();
                (self.begun, self.left) = (step + 1, members.len());
            }
        }
        if !execute {
            return Ok(None);
        }
        let members = &self.steps[self.begun - 1].1;
        self.left -= 1;
        Ok(Some(members[members.len() - self.left - 1]))
    }

    /// A prefix kept off the fabric leaves its lane; its request re-queues.
    fn drop_planned(&mut self, id: u64) -> Checked {
        let (offered, r) = self.reqs.get_mut(&id).expect("executed, so offered");
        let Some((lane, false)) = r.kv else {
            fail!(KvConservation, "{id} departs with {:?}", r.kv);
        };
        self.lanes[lane as usize] -= held(offered, r);
        (r.kv, r.lane, r.cause) = (None, None, ReprefillCause::Planned);
        r.queued = self.steps[self.begun - 1].0;
        self.drops += 1;
        Ok(())
    }

    /// Replay one event on the derived state, then check its stamp.
    fn event(&mut self, i: usize, e: &LogEvent) -> Checked {
        let member = self.phase(e)?;
        let (kv_bytes, at, kind) = (self.kv_bytes, e.at, &e.kind);
        let Some((offered, r)) = self.reqs.get_mut(&e.request) else {
            fail!(Lifecycle, "logged but never offered");
        };
        let (offered, mut r) = (*offered, std::mem::take(r));
        let end = r.end.unwrap_or_default();
        ensure!(r.end.is_none(), Lifecycle, "after its end at event {end}");
        let last = r.last.replace(at);
        let prev = last.unwrap_or(at);
        ensure!(prev <= at, TimeOrder, "at {} ns, after {} ns", at.0, prev.0);
        let arrives = *kind == EventKind::Arrive;
        let arrival = last.is_none() == arrives && (!arrives || at == offered.arrival);
        ensure!(arrival, Lifecycle, "{kind:?} at {} ns first", at.0);
        // Take `r`'s KV off its lane; what it holds after `e` goes back.
        if let Some((lane, _)) = r.kv {
            self.lanes[lane as usize] -= held(offered, &r);
        }
        let t = &mut self.tally;
        if let Some((to, true)) = r.kv {
            let landed = *kind == EventKind::MigrateDone { to };
            let lost = *kind == EventKind::MigrateFail { to };
            ensure!(landed || lost, Migration, "{kind:?} bound for lane {to}");
            if landed {
                r.kv = Some((to, false));
                t.migrations_completed += 1;
                t.migrated_kv_bytes += held(offered, &r) * kv_bytes;
            } else {
                (r.kv, r.cause) = (None, ReprefillCause::FailedMigration);
                t.migrations_failed += 1;
            }
            r.queued = at;
        } else if let Some((lane, start, end, m)) = member {
            let reprefill = m.phase == MemberPhase::Reprefill;
            let due_at = if reprefill { start } else { end };
            let due = m.request == e.request && reprefill == (*kind == EventKind::Reprefill);
            let due = due && at == due_at && r.lane == Some(lane);
            ensure!(due, Slices, "{kind:?} at {at:?}; due {m:?} at {due_at:?}");
            let g = r.tokens.len();
            let decodes = (m.phase == MemberPhase::Decode && g > 0).then_some((lane, false));
            let fits = r.kv == decodes && (m.phase == MemberPhase::Prefill) == (g == 0);
            ensure!(fits, KvConservation, "{m:?} after {g} tokens on {:?}", r.kv);
            if let EventKind::Token { value } = *kind {
                let want = offered.total_tokens;
                ensure!(g < want, Outcome, "token {} of {want}", g + 1);
                r.tokens.push(value);
                r.first.get_or_insert(at);
            } else {
                *r.cause.counter(t) += 1;
            }
            r.kv = Some((lane, false));
        } else {
            self.between(i, e, offered, &mut r)?;
        }
        if let Some((lane, _)) = r.kv {
            self.lanes[lane as usize] += held(offered, &r);
        }
        self.reqs.insert(e.request, (offered, r));
        let cap = self.config.kv_capacity_bytes / kv_bytes;
        if let Some((lane, held)) = self.lanes.iter().enumerate().find(|l| *l.1 > cap) {
            fail!(KvCapacity, "lane {lane} holds {held} of {cap} tokens");
        }
        let implied = self.lanes.iter().sum::<u64>() * kv_bytes;
        let stamp = e.kv_resident_bytes;
        ensure!(
            stamp == implied,
            KvConservation,
            "stamp {stamp}, not {implied}"
        );
        self.tally.peak_kv_bytes = self.tally.peak_kv_bytes.max(implied);
        Ok(())
    }

    /// An arrival, admission, departure, preemption or end off the wire.
    fn between(&mut self, i: usize, e: &LogEvent, o: &ServingRequest, r: &mut Req) -> Checked {
        let step_end = self.begun.checked_sub(1).map(|s| self.steps[s].0);
        let (c, t, at, kind) = (self.config, &mut self.tally, e.at, &e.kind);
        match *kind {
            EventKind::Arrive => r.queued = at,
            EventKind::Admit { lane } => {
                let waited = at.saturating_sub(r.queued).0;
                let on_time = waited <= c.queue_budget.0;
                ensure!(on_time, QueueBudget, "admitted after {waited} ns");
                let home = r.kv.is_none_or(|(held, _)| held == lane) && r.lane.is_none();
                ensure!(home, KvConservation, "admitted holding {:?}", r.kv);
                r.lane = Some(lane);
            }
            EventKind::MigrateStart { from, to, bytes } => {
                let policy = c.disagg.as_ref().map(|d| d.policy);
                let legal = r.kv == Some((from, false))
                    && r.lane == Some(from)
                    && (to < c.lanes && c.lanes <= from)
                    && bytes == held(o, r) * self.kv_bytes
                    && Some(at) == step_end
                    && policy != Some(MigrationPolicy::AlwaysReprefill);
                ensure!(legal, Migration, "ships {bytes} bytes holding {:?}", r.kv);
                (r.kv, r.lane) = (Some((to, true)), None);
                t.migrations += 1;
            }
            EventKind::MigrateDone { .. } | EventKind::MigrateFail { .. } => {
                fail!(Migration, "lands from nowhere");
            }
            EventKind::Token { .. } | EventKind::Reprefill => unreachable!("rostered"),
            EventKind::Preempt | EventKind::Complete | EventKind::Shed(_) => {
                let active = r.lane.take().is_some();
                let holds = active || r.kv.is_some() || *kind != EventKind::Preempt;
                ensure!(holds, Lifecycle, "preempted holding nothing");
                r.kv = None;
                if *kind == EventKind::Complete {
                    let (g, want) = (r.tokens.len(), o.total_tokens);
                    let done = active && g == want && Some(at) == step_end;
                    ensure!(done, Outcome, "completes after {g}/{want}");
                }
                if *kind == EventKind::Preempt {
                    r.queued = if active { at } else { r.queued };
                    r.cause = ReprefillCause::Eviction;
                    t.preemptions += 1;
                } else {
                    r.end = Some(i);
                    let ttft = r.first.unwrap_or_default().saturating_sub(o.arrival);
                    let told = match *kind {
                        EventKind::Shed(reason) => Outcome::Shed { reason, at },
                        _ => Outcome::Completed {
                            tokens: r.tokens.clone(),
                            ttft,
                            finished: at,
                        },
                    };
                    let outcome = self.outcomes.get(&e.request);
                    let ok = outcome == Some(&told);
                    ensure!(ok, Outcome, "{outcome:?}; the log says {told:?}");
                }
            }
        }
        Ok(())
    }

    /// The end-of-log laws: every request ended, the peak, the counters.
    fn close(mut self, report: &ServingReport) -> Result<AuditSummary, Violation> {
        let done = self.left == 0 && self.begun == self.steps.len();
        ensure!(done, Slices, "the log ends in step {}", self.begun);
        while let Some(&id) = self.pending.first() {
            self.pending.remove(0);
            self.drop_planned(id)?;
        }
        let unended = self.reqs.iter().find(|(_, (_, r))| r.end.is_none());
        ensure!(
            unended.is_none(),
            Lifecycle,
            "{:?} never ends",
            unended.map(|u| u.0)
        );
        let extra = report.outcomes.len() != self.reqs.len();
        ensure!(!extra, Lifecycle, "outcomes for requests never offered");
        let (t, r) = (&mut self.tally, report);
        let last = r.events.last().map_or(0, |e| e.kv_resident_bytes);
        let (peak, largest) = (r.peak_kv_bytes, t.peak_kv_bytes);
        let ok = (peak, last) == (largest, 0);
        ensure!(ok, PeakKv, "{peak}, {largest}, {last}");
        let ends = self.steps.iter().map(|s| s.0);
        let times = r.events.iter().map(|e| e.at).chain(ends);
        t.makespan = times.max().unwrap_or_default();
        t.steps = self.steps.len() as u64;
        t.reprefills = t.reprefills_evicted + t.reprefills_migration + t.reprefills_planned;
        macro_rules! counted {
            ($($counter:ident)+) => {$(
                let (reads, counts) = (r.$counter, t.$counter);
                let name = stringify!($counter);
                ensure!(reads == counts, Counters, "{name} {reads:?}, logged {counts:?}");
            )+};
        }
        counted!(steps makespan preemptions reprefills reprefills_evicted reprefills_migration);
        counted!(reprefills_planned migrations migrations_completed migrations_failed);
        counted!(migrated_kv_bytes);
        Ok(AuditSummary {
            planned_drops: self.drops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DisaggConfig, ServingConfig, ServingModel};
    use crate::request::ShedReason;
    use genie_models::TransformerConfig;
    use genie_telemetry::causal::StepSlice;

    /// A one-decode-lane, one-prefill-lane loop on the tiny config.
    fn engine(edit: impl FnOnce(&mut ServingConfig)) -> ServingLoop {
        let mut c = ServingConfig::paper_testbed();
        c.record_telemetry = false;
        c.disagg = Some(DisaggConfig::paper_testbed(1));
        edit(&mut c);
        ServingLoop::new(ServingModel::Spec(TransformerConfig::tiny()), c)
    }

    fn offered() -> Vec<ServingRequest> {
        let request = |id, arrival, prompt_len, total_tokens| ServingRequest {
            id,
            tenant: 0,
            arrival: Nanos(arrival),
            prompt: vec![1; prompt_len],
            total_tokens,
        };
        vec![
            request(1, 0, 2, 2),
            request(2, 0, 3, 2),
            request(3, 10, 1, 1),
        ]
    }

    /// A hand-written run the audit accepts. Requests 1 and 2 prefill on
    /// prefill lane 1 in step 0. At its end 1 ships to decode lane 0 and
    /// 2 is dropped without an event (the arrival after it stamps the
    /// drop), re-queues and re-prefills on lane 0 in step 1 while 1 is on
    /// the wire. 1 lands, and both decode their last token in step 2.
    /// Request 3 arrives mid-step and is shed.
    fn accepted() -> ServingReport {
        let kv = TransformerConfig::tiny().kv_bytes_per_token();
        let event = |at, request, kind, tokens: u64| LogEvent {
            at: Nanos(at),
            request,
            kind,
            kv_resident_bytes: tokens * kv,
        };
        let slice = |lane, step, start_ns, end_ns, members: &[(u64, MemberPhase)]| {
            let members = members
                .iter()
                .map(|&(request, phase)| StepMember { request, phase });
            StepSlice::from_secs(
                lane,
                step,
                start_ns,
                end_ns,
                0.0,
                0.0,
                0.0,
                0.0,
                members.collect(),
            )
        };
        let (prefill, reprefill, decode) = (
            MemberPhase::Prefill,
            MemberPhase::Reprefill,
            MemberPhase::Decode,
        );
        let completed = |tokens: Vec<i64>| Outcome::Completed {
            tokens,
            ttft: Nanos(100),
            finished: Nanos(300),
        };
        let shed = Outcome::Shed {
            reason: ShedReason::QueueFull,
            at: Nanos(10),
        };
        ServingReport {
            events: vec![
                event(0, 1, EventKind::Arrive, 0),
                event(0, 2, EventKind::Arrive, 0),
                event(0, 1, EventKind::Admit { lane: 1 }, 0),
                event(0, 2, EventKind::Admit { lane: 1 }, 0),
                event(100, 1, EventKind::Token { value: 7 }, 2),
                event(100, 2, EventKind::Token { value: 8 }, 5),
                event(
                    100,
                    1,
                    EventKind::MigrateStart {
                        from: 1,
                        to: 0,
                        bytes: 2 * kv,
                    },
                    5,
                ),
                event(10, 3, EventKind::Arrive, 2),
                event(10, 3, EventKind::Shed(ShedReason::QueueFull), 2),
                event(100, 2, EventKind::Admit { lane: 0 }, 2),
                event(100, 2, EventKind::Reprefill, 5),
                event(150, 1, EventKind::MigrateDone { to: 0 }, 5),
                event(200, 1, EventKind::Admit { lane: 0 }, 5),
                event(300, 1, EventKind::Token { value: 9 }, 6),
                event(300, 2, EventKind::Token { value: 10 }, 7),
                event(300, 1, EventKind::Complete, 4),
                event(300, 2, EventKind::Complete, 0),
            ],
            slices: vec![
                slice(1, 0, 0, 100, &[(1, prefill), (2, prefill)]),
                slice(0, 1, 100, 200, &[(2, reprefill)]),
                slice(0, 2, 200, 300, &[(1, decode), (2, decode)]),
            ],
            outcomes: [
                (1, completed(vec![7, 9])),
                (2, completed(vec![8, 10])),
                (3, shed),
            ]
            .into(),
            makespan: Nanos(300),
            steps: 3,
            reprefills: 1,
            reprefills_planned: 1,
            migrations: 1,
            migrations_completed: 1,
            migrated_kv_bytes: 2 * kv,
            peak_kv_bytes: 7 * kv,
            ..ServingReport::default()
        }
    }

    /// The law `report` breaks on the default test loop, with the
    /// request and event that show it.
    fn broken(report: &ServingReport) -> (Law, Option<u64>, Option<usize>) {
        broken_on(&engine(|_| {}), report)
    }

    fn broken_on(
        engine: &ServingLoop,
        report: &ServingReport,
    ) -> (Law, Option<u64>, Option<usize>) {
        let v = engine.audit(&offered(), report).expect_err("a broken law");
        (v.law, v.request, v.event)
    }

    #[test]
    fn the_hand_written_run_is_accepted_with_its_silent_drop() {
        let summary = engine(|_| {}).audit(&offered(), &accepted());
        let expected = AuditSummary { planned_drops: 1 };
        assert_eq!(summary, Ok(expected));
    }

    #[test]
    fn a_second_terminal_event_breaks_the_lifecycle() {
        let mut r = accepted();
        r.events.push(r.events[16].clone());
        assert_eq!(broken(&r), (Law::Lifecycle, Some(2), Some(17)));
        let v = engine(|_| {}).audit(&offered(), &r).unwrap_err();
        assert_eq!(
            v.to_string(),
            "law Lifecycle broken by request 2 at event 17: after its end at event 16"
        );
    }

    #[test]
    fn an_outcome_the_log_does_not_say_is_caught() {
        let mut r = accepted();
        r.outcomes.insert(
            1,
            Outcome::Completed {
                tokens: vec![7, 8],
                ttft: Nanos(100),
                finished: Nanos(300),
            },
        );
        assert_eq!(broken(&r), (Law::Outcome, Some(1), Some(15)));
    }

    #[test]
    fn an_event_before_its_requests_previous_one_breaks_time_order() {
        let mut r = accepted();
        r.events[11].at = Nanos(99);
        assert_eq!(broken(&r), (Law::TimeOrder, Some(1), Some(11)));
    }

    #[test]
    fn a_landed_prefix_waiting_past_the_budget_breaks_it() {
        let tight = engine(|c| c.queue_budget = Nanos(49));
        assert_eq!(
            broken_on(&tight, &accepted()),
            (Law::QueueBudget, Some(1), Some(12))
        );
    }

    #[test]
    fn a_landing_on_the_wrong_lane_breaks_the_migration_law() {
        let mut r = accepted();
        r.events[11].kind = EventKind::MigrateDone { to: 1 };
        assert_eq!(broken(&r), (Law::Migration, Some(1), Some(11)));
    }

    #[test]
    fn a_stamp_that_misses_the_silent_drop_breaks_conservation() {
        // What a planned departure that kept its prefix would stamp.
        let mut r = accepted();
        r.events[7].kv_resident_bytes = r.events[6].kv_resident_bytes;
        assert_eq!(broken(&r), (Law::KvConservation, Some(3), Some(7)));
    }

    #[test]
    fn a_lane_past_its_capacity_is_caught() {
        let kv = TransformerConfig::tiny().kv_bytes_per_token();
        let small = engine(|c| c.kv_capacity_bytes = 6 * kv);
        assert_eq!(
            broken_on(&small, &accepted()),
            (Law::KvCapacity, Some(2), Some(14))
        );
    }

    #[test]
    fn the_peak_is_the_largest_stamp_counting_the_wire_once() {
        // The departure moves 2 tokens onto the wire: the total it stamps
        // is the prefill's, not 2 more. A peak above the largest stamp,
        // or one that fell with the last completions, is caught.
        let r = accepted();
        assert_eq!(r.events[6].kv_resident_bytes, r.events[5].kv_resident_bytes);
        for peak in [8, 0] {
            let mut r = accepted();
            r.peak_kv_bytes = peak * TransformerConfig::tiny().kv_bytes_per_token();
            assert_eq!(broken(&r), (Law::PeakKv, None, None));
        }
    }

    #[test]
    fn overlapping_slices_on_a_lane_are_caught() {
        let mut r = accepted();
        r.slices[2].start_ns = 150;
        assert_eq!(broken(&r), (Law::Slices, None, None));
    }

    #[test]
    fn a_counter_the_log_does_not_count_is_caught() {
        let mut r = accepted();
        r.preemptions = 1;
        assert_eq!(broken(&r), (Law::Counters, None, None));
    }
}
