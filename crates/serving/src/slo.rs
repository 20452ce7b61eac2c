//! Per-tenant SLO burn-rate accounting for the serving loop.
//!
//! Classic error-budget bookkeeping scaled to the virtual clock: each
//! tenant gets a rolling window of sampled request outcomes (violation
//! = shed, or TTFT over target), and the burn rate is the window's
//! violation fraction divided by the error budget. Burn rate 1.0 means
//! the tenant is consuming its budget exactly as provisioned; above
//! 1.0 the budget is burning down and the `genie_slo_burn_rate` gauge
//! says how fast.
//!
//! Collection is sampled and bounded: `sample_every` thins the stream
//! and `window` caps per-tenant memory, so the tracker's footprint is
//! `O(tenants * window)` regardless of run length.

use genie_netsim::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// SLO policy for one serving loop.
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// TTFT target: a completed request whose TTFT exceeds this counts
    /// as an SLO violation (sheds always violate).
    pub ttft_target: Nanos,
    /// Error budget: tolerated violation fraction. Burn rate is the
    /// observed violation rate divided by this.
    pub error_budget: f64,
    /// Rolling-window size (sampled observations retained per tenant).
    pub window: usize,
    /// Sample one of every `sample_every` outcomes (1 = sample all).
    pub sample_every: u64,
}

impl SloConfig {
    /// The paper testbed's serving SLO: 500 ms TTFT target, 5% error
    /// budget, a 256-sample rolling window, no thinning.
    pub fn paper_default() -> Self {
        SloConfig {
            ttft_target: Nanos::from_secs_f64(0.5),
            error_budget: 0.05,
            window: 256,
            sample_every: 1,
        }
    }
}

/// One tenant's bounded outcome window.
#[derive(Clone, Debug, Default)]
struct TenantWindow {
    /// Outcomes seen (pre-sampling), for the thinning counter.
    seen: u64,
    /// Sampled outcomes retained so far (monotone).
    observed: u64,
    /// Sampled violations so far (monotone).
    violations: u64,
    /// Rolling window of sampled outcomes (true = violation).
    window: VecDeque<bool>,
}

/// Rolling per-tenant SLO accounting. Construct per run, feed every
/// terminal outcome through [`observe`](Self::observe), read burn
/// rates at any point.
#[derive(Clone, Debug)]
pub struct SloTracker {
    config: SloConfig,
    tenants: BTreeMap<u64, TenantWindow>,
}

impl SloTracker {
    /// A tracker enforcing `config`.
    pub fn new(config: SloConfig) -> Self {
        assert!(config.error_budget > 0.0, "error budget must be positive");
        assert!(config.window >= 1, "window must hold at least one sample");
        assert!(config.sample_every >= 1, "sample_every must be at least 1");
        SloTracker {
            config,
            tenants: BTreeMap::new(),
        }
    }

    /// Record one terminal outcome for `tenant`. Sampling and window
    /// eviction keep memory bounded.
    pub fn observe(&mut self, tenant: u64, violation: bool) {
        let w = self.tenants.entry(tenant).or_default();
        let idx = w.seen;
        w.seen += 1;
        if !idx.is_multiple_of(self.config.sample_every) {
            return;
        }
        w.observed += 1;
        if violation {
            w.violations += 1;
        }
        w.window.push_back(violation);
        while w.window.len() > self.config.window {
            w.window.pop_front();
        }
    }

    /// `tenant`'s current burn rate: rolling violation rate over the
    /// error budget (0 for a tenant with no sampled outcomes).
    pub fn burn_rate(&self, tenant: u64) -> f64 {
        let Some(w) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        if w.window.is_empty() {
            return 0.0;
        }
        let violations = w.window.iter().filter(|v| **v).count() as f64;
        (violations / w.window.len() as f64) / self.config.error_budget
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
    /// Sampled terminal outcomes recorded.
    pub observed: u64,
    /// Sampled outcomes that violated the SLO (shed, or TTFT over
    /// target).
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
        let mut t = SloTracker::new(SloConfig {
            ttft_target: Nanos::from_secs_f64(0.5),
            error_budget: 0.1,
            window: 100,
            sample_every: 1,
        });
        for i in 0..20 {
            t.observe(7, i % 5 == 0); // 4 violations in 20 -> 20% rate
        }
        assert!((t.burn_rate(7) - 2.0).abs() < 1e-12, "{}", t.burn_rate(7));
        assert_eq!(t.burn_rate(99), 0.0, "unknown tenant burns nothing");
        let stats = t.stats();
        let seven = &stats.per_tenant[&7];
        assert_eq!(seven.observed, 20);
        assert_eq!(seven.violations, 4);
    }

    #[test]
    fn window_is_bounded_and_rolls() {
        let mut t = SloTracker::new(SloConfig {
            ttft_target: Nanos::from_secs_f64(0.5),
            error_budget: 0.5,
            window: 4,
            sample_every: 1,
        });
        // 4 violations, then 4 clean: the window forgets the bad past.
        for _ in 0..4 {
            t.observe(1, true);
        }
        assert_eq!(t.burn_rate(1), 2.0);
        for _ in 0..4 {
            t.observe(1, false);
        }
        assert_eq!(t.burn_rate(1), 0.0);
        // Monotone counters still remember everything sampled.
        assert_eq!(t.stats().per_tenant[&1].violations, 4);
        assert_eq!(t.stats().per_tenant[&1].observed, 8);
    }

    #[test]
    fn sampling_thins_the_stream() {
        let mut t = SloTracker::new(SloConfig {
            ttft_target: Nanos::from_secs_f64(0.5),
            error_budget: 0.05,
            window: 1000,
            sample_every: 4,
        });
        for _ in 0..100 {
            t.observe(2, true);
        }
        assert_eq!(t.stats().per_tenant[&2].observed, 25);
    }
}
