//! Deterministic network fault injection.
//!
//! A [`FaultPlan`] is a seeded, wall-clock-free description of everything
//! that goes wrong on the fabric during a run: per-link degradation
//! (bandwidth derate, latency jitter), transient link-down windows, and
//! host partitions. Plans are either hand-built from [`FaultSpec`]s or
//! generated pseudo-randomly from a seed with [`FaultPlan::generate`];
//! either way the same seed always yields the same schedule and — because
//! the only randomness is a [`XorShift64`] threaded through the simulated
//! links — the same simulated timeline, which is what makes a failing
//! chaos seed reproducible from its number alone.

use crate::time::Nanos;
use genie_cluster::serialization_s;

/// A tiny, deterministic xorshift64* PRNG. No wall clock, no global
/// state: callers seed it explicitly and ownership decides the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator (a zero seed is remapped: xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One injected fault, in terms of host ids and simulated time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Multiply the link's effective bandwidth by `factor` for the whole
    /// run ([`FaultPlan::derate`] reads it clamped to `[1e-3, 1]`).
    Derate {
        /// One endpoint host id.
        a: u32,
        /// Other endpoint host id.
        b: u32,
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Add up to `max` of pseudo-random extra propagation latency per
    /// transmission on the link (drawn from the plan's seeded RNG).
    Jitter {
        /// One endpoint host id.
        a: u32,
        /// Other endpoint host id.
        b: u32,
        /// Maximum extra latency per transmission.
        max: Nanos,
    },
    /// The link accepts no traffic during the window; transmissions issued
    /// inside it are deferred to the window's end.
    LinkDown {
        /// One endpoint host id.
        a: u32,
        /// Other endpoint host id.
        b: u32,
        /// Start of the outage (inclusive).
        from: Nanos,
        /// End of the outage (exclusive).
        until: Nanos,
    },
    /// Every link touching any host in `hosts` is down during the window
    /// (the host group is unreachable from the rest of the cluster).
    Partition {
        /// The partitioned host group.
        hosts: Vec<u32>,
        /// Start of the partition (inclusive).
        from: Nanos,
        /// End of the partition (exclusive).
        until: Nanos,
    },
}

impl FaultSpec {
    /// Whether this fault applies to the (unordered) host pair.
    pub fn touches(&self, x: u32, y: u32) -> bool {
        match self {
            FaultSpec::Derate { a, b, .. }
            | FaultSpec::Jitter { a, b, .. }
            | FaultSpec::LinkDown { a, b, .. } => (*a == x && *b == y) || (*a == y && *b == x),
            FaultSpec::Partition { hosts, .. } => {
                // A partition severs a link when it separates the pair:
                // exactly one endpoint inside the group.
                hosts.contains(&x) != hosts.contains(&y)
            }
        }
    }

    /// A short label for traces and logs, e.g. `fault.link_down 0-1`.
    pub fn label(&self) -> String {
        match self {
            FaultSpec::Derate { a, b, factor } => format!("fault.derate {a}-{b} x{factor:.2}"),
            FaultSpec::Jitter { a, b, max } => format!("fault.jitter {a}-{b} +{max}"),
            FaultSpec::LinkDown { a, b, .. } => format!("fault.link_down {a}-{b}"),
            FaultSpec::Partition { hosts, .. } => {
                let ids: Vec<String> = hosts.iter().map(|h| h.to_string()).collect();
                format!("fault.partition {{{}}}", ids.join(","))
            }
        }
    }

    /// The fault's active window, when it has one (derate and jitter are
    /// whole-run).
    pub fn window(&self) -> Option<(Nanos, Nanos)> {
        match self {
            FaultSpec::LinkDown { from, until, .. } | FaultSpec::Partition { from, until, .. } => {
                Some((*from, *until))
            }
            _ => None,
        }
    }
}

/// Outcome of shipping one bulk payload (e.g. a migrating KV prefix)
/// over a possibly-faulted link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The payload arrived; the receiving host owns it from `done_at`.
    Delivered {
        /// Virtual time the last byte lands.
        done_at: Nanos,
    },
    /// An outage window severed the link mid-transfer; the in-flight
    /// bytes are gone and the sender learns of the loss at `at`.
    Lost {
        /// Virtual time the link severed.
        at: Nanos,
    },
}

/// How one fault degrades its link — the one interpretation of a
/// [`FaultSpec`]'s degradation that every reader shares: a bandwidth
/// multiplier (a derate's factor clamped to `[1e-3, 1]`, NaN as 1e-3; 1
/// for any other fault) and, for a jitter fault, its bound in seconds.
fn reading(fault: &FaultSpec) -> (f64, Option<f64>) {
    match fault {
        // `clamp` would pass NaN through; it reads as the floor.
        FaultSpec::Derate { factor, .. } if factor.is_nan() => (1e-3, None),
        FaultSpec::Derate { factor, .. } => (factor.clamp(1e-3, 1.0), None),
        FaultSpec::Jitter { max, .. } => (1.0, Some(max.as_secs_f64())),
        FaultSpec::LinkDown { .. } | FaultSpec::Partition { .. } => (1.0, None),
    }
}

/// A seeded fault schedule: the faults to inject plus the seed of the
/// RNG streams that drive per-transmission jitter draws. This is the one
/// reader of a [`FaultSpec`]: the serving engine, `Fabric`'s links and
/// the scheduler's [`project_onto_state`](Self::project_onto_state) all
/// ask [`derate`](Self::derate), [`link_condition`](Self::link_condition)
/// and [`clear_at`](Self::clear_at).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan (and its jitter streams) was built from.
    pub seed: u64,
    /// The faults to inject, in declaration order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with an explicit schedule.
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> Self {
        FaultPlan { seed, specs }
    }

    /// A fault-free plan (the oracle configuration).
    pub fn none() -> Self {
        FaultPlan::new(0, Vec::new())
    }

    /// Generate a pseudo-random plan over `hosts` host ids within a
    /// `horizon` of simulated time. Deterministic in `seed`: the same
    /// inputs always produce the same schedule. Roughly half the faults
    /// are degradations (derate/jitter), the rest outages (link-down or,
    /// occasionally, a one-host partition).
    pub fn generate(seed: u64, hosts: u32, horizon: Nanos, faults: usize) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut specs = Vec::with_capacity(faults);
        for _ in 0..faults {
            let a = rng.next_below(hosts as u64) as u32;
            let mut b = rng.next_below(hosts as u64) as u32;
            if hosts > 1 && b == a {
                b = (a + 1) % hosts;
            }
            let from = Nanos(rng.next_below(horizon.0.max(1)));
            let len = Nanos(rng.next_below((horizon.0 / 4).max(1)) + 1);
            let until = Nanos((from + len).0.min(horizon.0));
            match rng.next_below(4) {
                0 => specs.push(FaultSpec::Derate {
                    a,
                    b,
                    // Derate to 10%..90% of line rate.
                    factor: 0.1 + 0.8 * rng.next_f64(),
                }),
                1 => specs.push(FaultSpec::Jitter {
                    a,
                    b,
                    max: Nanos(rng.next_below(horizon.0 / 100 + 1) + 1),
                }),
                2 => specs.push(FaultSpec::LinkDown { a, b, from, until }),
                _ => specs.push(FaultSpec::Partition {
                    hosts: vec![a],
                    from,
                    until,
                }),
            }
        }
        FaultPlan { seed, specs }
    }

    /// Faults affecting the (unordered) host pair.
    pub fn faults_for(&self, a: u32, b: u32) -> impl Iterator<Item = &FaultSpec> {
        self.specs.iter().filter(move |s| s.touches(a, b))
    }

    /// Whole-run bandwidth multiplier of the `(a, b)` link: the product,
    /// in schedule order, of every derate factor clamped to `[1e-3, 1]` —
    /// a factor of 0 or NaN reads 1e-3, one above 1 reads 1 (a fault
    /// never speeds a link up).
    pub fn derate(&self, a: u32, b: u32) -> f64 {
        self.faults_for(a, b)
            .map(|fault| reading(fault).0)
            .product()
    }

    /// The `(a, b)` link's [`derate`](Self::derate) and the extra one-way
    /// latency, in seconds, of one transmission on it: every jitter fault
    /// draws `next_f64() · max` once from `rng`, in schedule order (a
    /// link without jitter draws nothing). One pass over the schedule.
    pub fn link_condition(&self, rng: &mut XorShift64, a: u32, b: u32) -> (f64, f64) {
        self.faults_for(a, b).map(reading).fold(
            (1.0, 0.0),
            |(derate, jitter_s), (factor, jitter_max_s)| {
                let jitter_s =
                    jitter_max_s.map_or(jitter_s, |max_s| jitter_s + rng.next_f64() * max_s);
                (derate * factor, jitter_s)
            },
        )
    }

    /// The first instant at or after `t` outside every outage window
    /// (link-down or partition) on the pair — `t` itself when the link
    /// is up, else when the last overlapping window has closed.
    pub fn clear_at(&self, a: u32, b: u32, t: Nanos) -> Nanos {
        let mut clear = t;
        while let Some(until) = self
            .faults_for(a, b)
            .filter_map(FaultSpec::window)
            .filter(|&(from, until)| clear >= from && clear < until)
            .map(|(_, until)| until)
            .max()
        {
            clear = until;
        }
        clear
    }

    /// Simulate one bulk transfer of `bytes` from host `a` to host `b`
    /// starting at `start`, over a link of `bandwidth_bps` /
    /// `latency_s` (one-way). This is how the serving plane executes a
    /// KV-prefix migration as real simulated link traffic: the
    /// [`link_condition`](Self::link_condition) stretches the
    /// serialization time and adds seeded latency, and any outage
    /// window overlapping the transfer interval severs it — the
    /// in-flight payload is lost at the window start (or at `start`
    /// when the window is already open).
    ///
    /// Deterministic: the outcome is a pure function of the plan, the
    /// RNG state, and the arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_outcome(
        &self,
        rng: &mut XorShift64,
        a: u32,
        b: u32,
        bytes: u64,
        bandwidth_bps: f64,
        latency_s: f64,
        start: Nanos,
    ) -> TransferOutcome {
        let (derate, jitter) = self.link_condition(rng, a, b);
        let wire_s = serialization_s(bytes as f64, (bandwidth_bps * derate).max(1.0));
        let done_at = start + Nanos::from_secs_f64(latency_s + jitter + wire_s);
        // The earliest outage window that overlaps [start, done_at)
        // severs the transfer.
        let severed = self
            .faults_for(a, b)
            .filter_map(FaultSpec::window)
            .filter(|&(from, until)| from < done_at && until > start)
            .map(|(from, _)| from.max(start))
            .min();
        match severed {
            Some(at) => TransferOutcome::Lost { at },
            None => TransferOutcome::Delivered { done_at },
        }
    }

    /// Project the plan onto scheduler-visible cluster state over `hosts`
    /// host ids: each pair's [`derate`](Self::derate) multiplies into
    /// [`link_derate`](genie_cluster::ClusterState::link_derate), and any
    /// pair with an outage or partition window anywhere in the run is
    /// marked [`partitioned`](genie_cluster::ClusterState::is_partitioned)
    /// — a conservative planning view (the scheduler avoids paths that
    /// will sever at any point, rather than re-planning mid-window).
    pub fn project_onto_state(&self, state: &mut genie_cluster::ClusterState, hosts: u32) {
        for a in 0..hosts {
            for b in (a + 1)..hosts {
                state.set_link_derate(a, b, state.link_derate(a, b) * self.derate(a, b));
                if self.faults_for(a, b).any(|s| s.window().is_some()) {
                    state.set_partitioned(a, b, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(XorShift64::new(0), XorShift64::new(0));
        assert_ne!(XorShift64::new(0).next_u64(), 0);
    }

    #[test]
    fn generated_schedules_are_seed_deterministic() {
        let h = Nanos::from_secs_f64(10.0);
        let s1 = FaultPlan::generate(99, 4, h, 8);
        let s2 = FaultPlan::generate(99, 4, h, 8);
        assert_eq!(s1, s2);
        assert_eq!(s1.specs.len(), 8);
        let other = FaultPlan::generate(100, 4, h, 8);
        assert_ne!(s1, other, "different seeds diverge");
    }

    #[test]
    fn partition_touches_only_severed_pairs() {
        let p = FaultSpec::Partition {
            hosts: vec![1, 2],
            from: Nanos::ZERO,
            until: Nanos(100),
        };
        assert!(p.touches(0, 1), "0 outside, 1 inside");
        assert!(p.touches(2, 3));
        assert!(!p.touches(1, 2), "both inside: intra-group link survives");
        assert!(!p.touches(0, 3), "both outside: unaffected");
    }

    #[test]
    fn severed_windows_respect_bounds() {
        let plan = FaultPlan::new(
            1,
            vec![FaultSpec::LinkDown {
                a: 0,
                b: 1,
                from: Nanos(10),
                until: Nanos(20),
            }],
        );
        assert_eq!(plan.clear_at(0, 1, Nanos(9)), Nanos(9));
        assert_eq!(plan.clear_at(0, 1, Nanos(10)), Nanos(20));
        assert_eq!(plan.clear_at(1, 0, Nanos(19)), Nanos(20), "unordered pair");
        assert_eq!(
            plan.clear_at(0, 1, Nanos(20)),
            Nanos(20),
            "window end exclusive"
        );
        assert_eq!(
            plan.clear_at(0, 2, Nanos(15)),
            Nanos(15),
            "other link untouched"
        );
    }

    #[test]
    fn clear_at_chains_through_overlapping_windows() {
        let down = |from, until| FaultSpec::LinkDown {
            a: 0,
            b: 1,
            from: Nanos(from),
            until: Nanos(until),
        };
        let plan = FaultPlan::new(
            1,
            vec![down(10, 20), down(15, 40), down(40, 45), down(60, 70)],
        );
        assert_eq!(plan.clear_at(0, 1, Nanos(5)), Nanos(5), "link is up");
        assert_eq!(plan.clear_at(0, 1, Nanos(10)), Nanos(45), "10→40→45");
        assert_eq!(plan.clear_at(1, 0, Nanos(45)), Nanos(45), "end exclusive");
        assert_eq!(plan.clear_at(0, 1, Nanos(65)), Nanos(70));
        assert_eq!(plan.clear_at(0, 2, Nanos(15)), Nanos(15), "other link");
    }

    #[test]
    fn link_condition_draws_once_per_jitter_fault_in_schedule_order() {
        let plan = FaultPlan::new(
            1,
            vec![
                FaultSpec::Derate {
                    a: 0,
                    b: 1,
                    factor: 0.5,
                },
                FaultSpec::Jitter {
                    a: 0,
                    b: 1,
                    max: Nanos(1_000),
                },
                FaultSpec::Derate {
                    a: 1,
                    b: 0,
                    factor: 0.0,
                },
                FaultSpec::Jitter {
                    a: 1,
                    b: 0,
                    max: Nanos(4_000),
                },
            ],
        );
        let mut rng = XorShift64::new(7);
        let mut mirror = rng;
        let (derate, jitter_s) = plan.link_condition(&mut rng, 0, 1);
        assert_eq!(derate, 0.5 * 1e-3, "factors multiply, floored at 1e-3");
        let want = mirror.next_f64() * 1e-6 + mirror.next_f64() * 4e-6;
        assert_eq!(jitter_s, want);
        assert_eq!(rng, mirror, "exactly two draws");
        assert_eq!(plan.link_condition(&mut rng, 0, 2), (1.0, 0.0));
        assert_eq!(rng, mirror, "a clean link draws nothing");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FaultSpec::LinkDown {
                a: 0,
                b: 1,
                from: Nanos::ZERO,
                until: Nanos(1)
            }
            .label(),
            "fault.link_down 0-1"
        );
        assert!(FaultSpec::Partition {
            hosts: vec![2],
            from: Nanos::ZERO,
            until: Nanos(1)
        }
        .label()
        .contains("{2}"));
    }

    #[test]
    fn projection_marks_scheduler_state() {
        let plan = FaultPlan::new(
            1,
            vec![
                FaultSpec::Derate {
                    a: 0,
                    b: 1,
                    factor: 0.5,
                },
                FaultSpec::Derate {
                    a: 0,
                    b: 1,
                    factor: 0.5,
                },
                FaultSpec::Partition {
                    hosts: vec![2],
                    from: Nanos(10),
                    until: Nanos(20),
                },
            ],
        );
        let mut state = genie_cluster::ClusterState::new();
        plan.project_onto_state(&mut state, 3);
        assert_eq!(state.link_derate(0, 1), 0.25, "derates multiply");
        assert!(state.is_partitioned(0, 2));
        assert!(state.is_partitioned(1, 2));
        assert!(!state.is_partitioned(0, 1));
    }
}
