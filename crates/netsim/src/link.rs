//! Point-to-point link model.
//!
//! Each link is a FIFO serializer: transmissions queue behind one another
//! at the link's effective bandwidth, then experience propagation latency.
//! Background congestion (other tenants) scales the effective bandwidth —
//! the signal the scheduler's dynamic-recomputation policy reacts to
//! (§3.3).

use crate::fault::XorShift64;
use crate::time::Nanos;

/// Injected degradation state of one link (see `crate::fault`). All
/// fields deterministic: jitter draws come from the seeded RNG carried
/// here, never from a wall clock.
#[derive(Clone, Debug)]
pub struct LinkFault {
    /// Multiplier on effective bandwidth in `(0, 1]`.
    pub derate: f64,
    /// Maximum extra propagation latency per transmission.
    pub jitter_max: Nanos,
    /// Windows `[from, until)` during which the link accepts no traffic.
    pub down: Vec<(Nanos, Nanos)>,
    /// Seeded stream for jitter draws.
    pub rng: XorShift64,
}

impl LinkFault {
    /// A no-op fault (full bandwidth, no jitter, never down).
    pub fn none(seed: u64) -> Self {
        LinkFault {
            derate: 1.0,
            jitter_max: Nanos::ZERO,
            down: Vec::new(),
            rng: XorShift64::new(seed),
        }
    }
}

/// Mutable state of one simulated link direction.
#[derive(Clone, Debug)]
pub struct LinkSim {
    /// Line bandwidth in bytes/s.
    pub bandwidth_bytes: f64,
    /// One-way propagation latency.
    pub latency: Nanos,
    /// Fraction of bandwidth consumed by background traffic, `[0, 1)`.
    pub congestion: f64,
    /// When the serializer becomes free.
    busy_until: Nanos,
    /// Total payload bytes accepted.
    pub bytes_sent: u64,
    /// Number of transmissions accepted.
    pub transmissions: u64,
    /// Injected fault state, when a fault plan targets this link.
    pub fault: Option<LinkFault>,
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
            congestion: 0.0,
            busy_until: Nanos::ZERO,
            bytes_sent: 0,
            transmissions: 0,
            fault: None,
            faults_hit: 0,
        }
    }

    /// Effective bandwidth after background congestion and any injected
    /// derate.
    pub fn effective_bandwidth(&self) -> f64 {
        let derate = self.fault.as_ref().map_or(1.0, |f| f.derate);
        self.bandwidth_bytes * (1.0 - self.congestion) * derate
    }

    /// Defer `at` past any injected outage window it falls inside, and
    /// draw this transmission's latency jitter. Counts perturbed
    /// transmissions in `faults_hit`.
    fn apply_fault(&mut self, at: Nanos) -> (Nanos, Nanos) {
        let Some(fault) = self.fault.as_mut() else {
            return (at, Nanos::ZERO);
        };
        let mut start = at;
        let mut hit = fault.derate < 1.0;
        // Windows may abut or nest; iterate until a fixed point so a
        // transmission deferred into a later window keeps deferring.
        let mut moved = true;
        while moved {
            moved = false;
            for &(from, until) in &fault.down {
                if start >= from && start < until {
                    start = until;
                    moved = true;
                    hit = true;
                }
            }
        }
        let jitter = Nanos(fault.rng.next_below(fault.jitter_max.0.saturating_add(1)));
        if jitter > Nanos::ZERO {
            hit = true;
        }
        if hit {
            self.faults_hit += 1;
        }
        (start, jitter)
    }

    /// Accept a transmission of `bytes` at `now`; returns its timing. The
    /// link serializes FIFO: the transfer starts when both `now` has
    /// arrived and the previous transfer has left the wire — and, under an
    /// injected outage, not before the outage window closes.
    pub fn transmit(&mut self, now: Nanos, bytes: u64) -> TxTiming {
        let (now, jitter) = self.apply_fault(now);
        let start = now.max(self.busy_until);
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
    /// for the slower serialization window). Returns the start time.
    pub fn occupy(&mut self, now: Nanos, duration: Nanos, bytes: u64) -> Nanos {
        self.occupy_timed(now, duration, bytes).0
    }

    /// [`occupy`](Self::occupy) returning `(start, jitter)`: callers that
    /// compute delivery themselves must add the drawn latency jitter.
    pub fn occupy_timed(&mut self, now: Nanos, duration: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let (now, jitter) = self.apply_fault(now);
        let start = now.max(self.busy_until);
        self.busy_until = start + duration;
        self.bytes_sent += bytes;
        self.transmissions += 1;
        (start, jitter)
    }

    /// When the serializer frees up.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Reset counters, availability, and fault state (new simulation run).
    pub fn reset(&mut self) {
        self.busy_until = Nanos::ZERO;
        self.bytes_sent = 0;
        self.transmissions = 0;
        self.fault = None;
        self.faults_hit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn congestion_halves_bandwidth() {
        let mut l = gbps25();
        l.congestion = 0.5;
        let t = l.transmit(Nanos::ZERO, 3_125_000_000);
        assert!((t.sent.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let mut l = gbps25();
        let t = l.transmit(Nanos::ZERO, 0);
        assert_eq!(t.sent, Nanos::ZERO);
        assert_eq!(t.delivered, Nanos::from_micros(250));
    }

    #[test]
    fn reset_clears_state() {
        let mut l = gbps25();
        l.transmit(Nanos::ZERO, 1_000_000);
        l.fault = Some(LinkFault::none(1));
        l.reset();
        assert_eq!(l.busy_until(), Nanos::ZERO);
        assert_eq!(l.bytes_sent, 0);
        assert!(l.fault.is_none());
    }

    #[test]
    fn derate_slows_transmission_and_counts_hits() {
        let mut l = gbps25();
        let mut f = LinkFault::none(1);
        f.derate = 0.5;
        l.fault = Some(f);
        let t = l.transmit(Nanos::ZERO, 3_125_000_000);
        assert!((t.sent.as_secs_f64() - 2.0).abs() < 1e-6, "{:?}", t.sent);
        assert_eq!(l.faults_hit, 1);
    }

    #[test]
    fn down_window_defers_transmission() {
        let mut l = gbps25();
        let mut f = LinkFault::none(1);
        f.down = vec![(Nanos::ZERO, Nanos::from_millis(10))];
        l.fault = Some(f);
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
        let mut l = gbps25();
        let mut f = LinkFault::none(1);
        f.down = vec![
            (Nanos(0), Nanos(100)),
            (Nanos(100), Nanos(200)),
            (Nanos(500), Nanos(600)),
        ];
        l.fault = Some(f);
        let t = l.transmit(Nanos(50), 0);
        assert_eq!(t.start, Nanos(200), "chained through abutting windows");
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let run = |seed: u64| {
            let mut l = gbps25();
            let mut f = LinkFault::none(seed);
            f.jitter_max = Nanos::from_micros(100);
            l.fault = Some(f);
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
