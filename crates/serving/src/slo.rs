//! Per-tenant SLO burn-rate accounting for the serving loop.
//!
//! Classic error-budget bookkeeping scaled to the virtual clock: each
//! tenant gets a rolling window of request outcomes (violation = shed,
//! or TTFT over [`TTFT_TARGET`]), and the burn rate is the window's
//! violation fraction divided by [`ERROR_BUDGET`]. Burn rate 1.0 means
//! the tenant is consuming its budget exactly as provisioned; above
//! 1.0 the budget is burning down and the `genie_slo_burn_rate` gauge
//! says how fast.
//!
//! [`WINDOW`] caps per-tenant memory, so the tracker's footprint is
//! `O(tenants * WINDOW)` regardless of run length.

use genie_netsim::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// The paper testbed's serving SLO: a completed request whose TTFT
/// exceeds 500 ms violates it (sheds always violate).
pub const TTFT_TARGET: Nanos = Nanos(500_000_000);

/// Tolerated violation fraction. Burn rate is the observed violation
/// rate divided by this.
pub const ERROR_BUDGET: f64 = 0.05;

/// Outcomes retained per tenant in the rolling window.
pub const WINDOW: usize = 256;

/// One tenant's bounded outcome window.
#[derive(Clone, Debug, Default)]
struct TenantWindow {
    /// Outcomes recorded so far (monotone).
    observed: u64,
    /// Violations recorded so far (monotone).
    violations: u64,
    /// Rolling window of the latest outcomes (true = violation).
    window: VecDeque<bool>,
}

/// Rolling per-tenant SLO accounting. Construct per run, feed every
/// terminal outcome through [`observe`](Self::observe), read burn
/// rates at any point.
#[derive(Clone, Debug, Default)]
pub struct SloTracker {
    tenants: BTreeMap<u64, TenantWindow>,
}

impl SloTracker {
    /// Record one terminal outcome for `tenant`. Window eviction keeps
    /// memory bounded.
    pub fn observe(&mut self, tenant: u64, violation: bool) {
        let w = self.tenants.entry(tenant).or_default();
        w.observed += 1;
        if violation {
            w.violations += 1;
        }
        w.window.push_back(violation);
        if w.window.len() > WINDOW {
            w.window.pop_front();
        }
    }

    /// `tenant`'s current burn rate: rolling violation rate over the
    /// error budget (0 for a tenant with no recorded outcomes).
    pub fn burn_rate(&self, tenant: u64) -> f64 {
        let Some(w) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        if w.window.is_empty() {
            return 0.0;
        }
        let violations = w.window.iter().filter(|v| **v).count() as f64;
        (violations / w.window.len() as f64) / ERROR_BUDGET
    }

    /// Snapshot every tenant's counters and burn rate.
    pub fn stats(&self) -> SloStats {
        SloStats {
            per_tenant: self
                .tenants
                .iter()
                .map(|(&tenant, w)| {
                    (
                        tenant,
                        TenantSlo {
                            observed: w.observed,
                            violations: w.violations,
                            burn_rate: self.burn_rate(tenant),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// One tenant's SLO snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantSlo {
    /// Terminal outcomes recorded.
    pub observed: u64,
    /// Outcomes that violated the SLO (shed, or TTFT over target).
    pub violations: u64,
    /// Rolling-window violation rate divided by the error budget.
    pub burn_rate: f64,
}

/// Per-tenant SLO snapshot of one serving run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloStats {
    /// Snapshot per tenant id.
    pub per_tenant: BTreeMap<u64, TenantSlo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_violation_rate_over_budget() {
        let mut t = SloTracker::default();
        for i in 0..20 {
            t.observe(7, i % 5 == 0); // 4 violations in 20 -> 20% rate
        }
        assert!((t.burn_rate(7) - 4.0).abs() < 1e-12, "{}", t.burn_rate(7));
        assert_eq!(t.burn_rate(99), 0.0, "unknown tenant burns nothing");
        let stats = t.stats();
        let seven = &stats.per_tenant[&7];
        assert_eq!(seven.observed, 20);
        assert_eq!(seven.violations, 4);
    }

    #[test]
    fn window_is_bounded_and_rolls() {
        let mut t = SloTracker::default();
        // A window of violations, then a window of clean outcomes: the
        // window forgets the bad past.
        for _ in 0..WINDOW {
            t.observe(1, true);
        }
        assert_eq!(t.burn_rate(1), 1.0 / ERROR_BUDGET);
        for _ in 0..WINDOW {
            t.observe(1, false);
        }
        assert_eq!(t.burn_rate(1), 0.0);
        // Monotone counters still remember everything recorded.
        let w = WINDOW as u64;
        assert_eq!(t.stats().per_tenant[&1].violations, w);
        assert_eq!(t.stats().per_tenant[&1].observed, 2 * w);
    }
}
