//! Server-side chaos injection for the real transport.
//!
//! Where `genie-netsim`'s fault plans perturb the *simulated* fabric,
//! [`ChaosPolicy`] perturbs the *real* one: a chaotic server
//! ([`Server::spawn_chaotic`](crate::Server::spawn_chaotic)) runs every
//! handler normally and then, with seeded probabilities, stalls the reply
//! past the client's deadline or drops the connection before replying.
//! Faults are injected **after** the handler runs, which is the hard case
//! for clients: the work happened, the acknowledgement vanished, and only
//! request-id deduplication keeps the retry idempotent.

use genie_netsim::XorShift64;
use genie_telemetry::lock;
use std::sync::Mutex;
use std::time::Duration;

/// What to do with one response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Reply normally.
    Deliver,
    /// Sleep before replying (exceed the client's deadline).
    Stall,
    /// Close the connection without replying.
    Drop,
}

/// Seeded fault probabilities for a chaotic server.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPolicy {
    /// Seed for the shared per-server decision stream.
    pub seed: u64,
    /// Probability a response is stalled by [`stall`](Self::stall).
    pub stall_rate: f64,
    /// Probability the connection is dropped before the response.
    pub drop_rate: f64,
    /// How long a stalled response sleeps.
    pub stall: Duration,
}

impl ChaosPolicy {
    /// A policy that never injects anything.
    pub fn none() -> Self {
        ChaosPolicy {
            seed: 0,
            stall_rate: 0.0,
            drop_rate: 0.0,
            stall: Duration::ZERO,
        }
    }

    /// A moderately hostile preset for tests: with the given seed, drop
    /// ~25% of responses and stall ~10% for `stall`.
    pub fn hostile(seed: u64, stall: Duration) -> Self {
        ChaosPolicy {
            seed,
            stall_rate: 0.10,
            drop_rate: 0.25,
            stall,
        }
    }

    /// True when the policy can never perturb a response.
    pub fn is_none(&self) -> bool {
        self.stall_rate <= 0.0 && self.drop_rate <= 0.0
    }
}

/// Shared decision state: one seeded stream per server, shared across
/// connections so the fault sequence is a function of global response
/// order (deterministic under a single-threaded client).
#[derive(Debug)]
pub struct ChaosState {
    policy: ChaosPolicy,
    rng: Mutex<XorShift64>,
}

impl ChaosState {
    /// New state for a policy.
    pub fn new(policy: ChaosPolicy) -> Self {
        ChaosState {
            rng: Mutex::new(XorShift64::new(policy.seed)),
            policy,
        }
    }

    /// Decide the fate of the next response.
    pub fn next_action(&self) -> ChaosAction {
        if self.policy.is_none() {
            return ChaosAction::Deliver;
        }
        let draw = lock(&self.rng).next_f64();
        if draw < self.policy.drop_rate {
            ChaosAction::Drop
        } else if draw < self.policy.drop_rate + self.policy.stall_rate {
            ChaosAction::Stall
        } else {
            ChaosAction::Deliver
        }
    }

    /// The stall duration to apply on [`ChaosAction::Stall`].
    pub fn stall(&self) -> Duration {
        self.policy.stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_always_delivers() {
        let s = ChaosState::new(ChaosPolicy::none());
        for _ in 0..100 {
            assert_eq!(s.next_action(), ChaosAction::Deliver);
        }
    }

    #[test]
    fn seeded_streams_are_deterministic() {
        let run = |seed| {
            let s = ChaosState::new(ChaosPolicy::hostile(seed, Duration::ZERO));
            (0..64).map(|_| s.next_action()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn hostile_policy_actually_injects() {
        let s = ChaosState::new(ChaosPolicy::hostile(1, Duration::ZERO));
        let actions: Vec<ChaosAction> = (0..200).map(|_| s.next_action()).collect();
        assert!(actions.contains(&ChaosAction::Drop));
        assert!(actions.contains(&ChaosAction::Deliver));
    }
}
