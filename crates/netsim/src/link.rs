//! Point-to-point link model.
//!
//! Each link is a FIFO serializer: transmissions queue behind one another
//! at the link's effective bandwidth, then experience propagation latency.
//! Faults, a slow link included, are not link state: a link holds the
//! run's [`FaultPlan`] and asks it for its derate, jitter and outage
//! windows.

use crate::fault::{FaultPlan, XorShift64};
use crate::time::Nanos;
use std::sync::Arc;

/// Mutable state of one simulated link direction.
#[derive(Clone, Debug)]
pub struct LinkSim {
    /// Line bandwidth in bytes/s.
    pub bandwidth_bytes: f64,
    /// One-way propagation latency.
    pub latency: Nanos,
    /// When the serializer becomes free.
    busy_until: Nanos,
    /// Total payload bytes accepted.
    pub bytes_sent: u64,
    /// Number of transmissions accepted.
    pub transmissions: u64,
    /// The fault plan this link reads, the host pair it reads it for,
    /// and this link's jitter stream (see [`set_faults`](Self::set_faults)).
    faults: Option<(Arc<FaultPlan>, u32, u32, XorShift64)>,
    /// Transmissions perturbed by a fault (deferred past an outage,
    /// jittered, or slowed by a derate).
    pub faults_hit: u64,
}

/// Timing of one accepted transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxTiming {
    /// When serialization onto the wire began.
    pub start: Nanos,
    /// When the last byte left the sender.
    pub sent: Nanos,
    /// When the last byte arrived at the receiver (sent + latency).
    pub delivered: Nanos,
}

impl LinkSim {
    /// New idle link.
    pub fn new(bandwidth_bytes: f64, latency: Nanos) -> Self {
        assert!(bandwidth_bytes > 0.0, "bandwidth must be positive");
        LinkSim {
            bandwidth_bytes,
            latency,
            busy_until: Nanos::ZERO,
            bytes_sent: 0,
            transmissions: 0,
            faults: None,
            faults_hit: 0,
        }
    }

    /// Read `plan`'s faults for the host pair `(a, b)` from now on,
    /// drawing jitter from a stream seeded `plan.seed ^ a << 32 ^ b`.
    pub(crate) fn set_faults(&mut self, plan: Arc<FaultPlan>, a: u32, b: u32) {
        let rng = XorShift64::new(plan.seed ^ (u64::from(a) << 32) ^ u64::from(b));
        self.faults = Some((plan, a, b, rng));
    }

    /// Effective bandwidth after any injected derate
    /// ([`FaultPlan::derate`]).
    pub fn effective_bandwidth(&self) -> f64 {
        let derate = self
            .faults
            .as_ref()
            .map_or(1.0, |(plan, a, b, _)| plan.derate(*a, *b));
        self.bandwidth_bytes * derate
    }

    /// When a transmission issued at `now` starts on the wire, and its
    /// latency jitter: once the previous transmission has left the wire
    /// and no outage window is open ([`FaultPlan::clear_at`] of that
    /// instant), with one [`FaultPlan::link_condition`] jitter draw.
    /// Counts perturbed transmissions in `faults_hit`.
    fn wire_start(&mut self, now: Nanos) -> (Nanos, Nanos) {
        let queued = now.max(self.busy_until);
        let Some((plan, a, b, rng)) = &mut self.faults else {
            return (queued, Nanos::ZERO);
        };
        let start = plan.clear_at(*a, *b, queued);
        let (derate, jitter_s) = plan.link_condition(rng, *a, *b);
        let jitter = Nanos::from_secs_f64(jitter_s);
        if start > queued || jitter > Nanos::ZERO || derate < 1.0 {
            self.faults_hit += 1;
        }
        (start, jitter)
    }

    /// Accept a transmission of `bytes` at `now`; returns its timing. The
    /// link serializes FIFO: the transfer starts when both `now` has
    /// arrived and the previous transfer has left the wire — and, under an
    /// injected outage, not before the outage window closes.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> TxTiming {
        let (start, jitter) = self.wire_start(now);
        let tx_time = Nanos::from_secs_f64(bytes as f64 / self.effective_bandwidth());
        let sent = start + tx_time;
        self.busy_until = sent;
        self.bytes_sent += bytes;
        self.transmissions += 1;
        TxTiming {
            start,
            sent,
            delivered: sent + self.latency + jitter,
        }
    }

    /// Occupy the serializer for an externally-computed duration (used by
    /// transports whose goodput is below the line rate: the wire is held
    /// for the slower serialization window). Returns `(start, jitter)`:
    /// callers compute delivery themselves and must add the drawn latency
    /// jitter.
    pub fn occupy_timed(&mut self, now: Nanos, duration: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let (start, jitter) = self.wire_start(now);
        self.busy_until = start + duration;
        self.bytes_sent += bytes;
        self.transmissions += 1;
        (start, jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    fn gbps25() -> LinkSim {
        LinkSim::new(25e9 / 8.0, Nanos::from_micros(250))
    }

    #[test]
    fn single_transfer_timing() {
        let mut l = gbps25();
        // 3.125 GB at 3.125 GB/s = 1 s.
        let t = l.transmit(Nanos::ZERO, 3_125_000_000);
        assert_eq!(t.start, Nanos::ZERO);
        assert!((t.sent.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((t.delivered.as_secs_f64() - 1.00025).abs() < 1e-6);
    }

    #[test]
    fn fifo_serialization() {
        let mut l = gbps25();
        let a = l.transmit(Nanos::ZERO, 3_125_000_000);
        let b = l.transmit(Nanos::ZERO, 3_125_000_000);
        assert_eq!(b.start, a.sent);
        assert!((b.delivered.as_secs_f64() - 2.00025).abs() < 1e-5);
        assert_eq!(l.transmissions, 2);
        assert_eq!(l.bytes_sent, 6_250_000_000);
    }

    #[test]
    fn idle_gap_respected() {
        let mut l = gbps25();
        l.transmit(Nanos::ZERO, 1_000);
        let later = Nanos::from_secs_f64(5.0);
        let t = l.transmit(later, 1_000);
        assert_eq!(t.start, later);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let mut l = gbps25();
        let t = l.transmit(Nanos::ZERO, 0);
        assert_eq!(t.sent, Nanos::ZERO);
        assert_eq!(t.delivered, Nanos::from_micros(250));
    }

    /// A 25 Gbps link reading `specs` as the `(0, 1)` pair of a plan
    /// seeded `seed`.
    fn faulted(seed: u64, specs: Vec<FaultSpec>) -> LinkSim {
        let mut l = gbps25();
        l.set_faults(Arc::new(FaultPlan::new(seed, specs)), 0, 1);
        l
    }

    fn down(from: Nanos, until: Nanos) -> FaultSpec {
        FaultSpec::LinkDown {
            a: 0,
            b: 1,
            from,
            until,
        }
    }

    #[test]
    fn derate_slows_transmission_and_counts_hits() {
        let mut l = faulted(
            1,
            vec![FaultSpec::Derate {
                a: 0,
                b: 1,
                factor: 0.5,
            }],
        );
        let t = l.transmit(Nanos::ZERO, 3_125_000_000);
        assert!((t.sent.as_secs_f64() - 2.0).abs() < 1e-6, "{:?}", t.sent);
        assert_eq!(l.faults_hit, 1);
    }

    #[test]
    fn down_window_defers_transmission() {
        let mut l = faulted(1, vec![down(Nanos::ZERO, Nanos::from_millis(10))]);
        let t = l.transmit(Nanos::from_millis(5), 1_000);
        assert_eq!(t.start, Nanos::from_millis(10), "deferred to window end");
        assert_eq!(l.faults_hit, 1);
        // Outside the window the link behaves normally.
        let t2 = l.transmit(Nanos::from_millis(20), 1_000);
        assert_eq!(t2.start, Nanos::from_millis(20));
        assert_eq!(l.faults_hit, 1);
    }

    #[test]
    fn abutting_down_windows_chain() {
        let mut l = faulted(
            1,
            vec![
                down(Nanos(0), Nanos(100)),
                down(Nanos(100), Nanos(200)),
                down(Nanos(500), Nanos(600)),
            ],
        );
        let t = l.transmit(Nanos(50), 0);
        assert_eq!(t.start, Nanos(200), "chained through abutting windows");
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let run = |seed: u64| {
            let mut l = faulted(
                seed,
                vec![FaultSpec::Jitter {
                    a: 0,
                    b: 1,
                    max: Nanos::from_micros(100),
                }],
            );
            (0..20)
                .map(|i| l.transmit(Nanos::from_millis(i * 10), 0).delivered)
                .collect::<Vec<_>>()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b, "same seed, same jitter");
        for (i, d) in a.iter().enumerate() {
            let base = Nanos::from_millis(i as u64 * 10) + Nanos::from_micros(250);
            assert!(*d >= base && *d <= base + Nanos::from_micros(100));
        }
        assert_ne!(a, run(4), "different seed perturbs differently");
    }
}
