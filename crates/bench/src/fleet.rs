//! Fleet serving simulation: static allocation vs semantics-aware
//! disaggregation.
//!
//! The paper's opening numbers — "$150B in accelerators, 55–60% average
//! GPU idleness" — indict today's tightly-coupled allocation: each tenant
//! owns devices sized for its peak, which idle between requests. This
//! simulation quantifies the alternative the paper argues for: a shared,
//! network-attached pool where a semantics-aware runtime packs work by
//! phase and session affinity.
//!
//! The model is a deterministic discrete-event queueing simulation:
//! tenants emit requests (seeded arrivals); a request is one prefill
//! kernel plus `decode_tokens` sequential decode kernels. Under **static**
//! allocation each tenant queues on its own device. Under **pooled**
//! allocation any idle device may serve any request's prefill, while
//! decode stays pinned to the device that ran the prefill (KV-cache
//! affinity — the co-location rule).

use genie_netsim::{EventQueue, Nanos, XorShift64};

/// One tenant's request stream.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantLoad {
    /// Mean seconds between request arrivals.
    pub mean_interarrival_s: f64,
    /// Prefill kernel seconds per request.
    pub prefill_s: f64,
    /// Decode kernel seconds per token.
    pub decode_step_s: f64,
    /// Tokens per request.
    pub decode_tokens: usize,
}

impl TenantLoad {
    /// A chatbot-like tenant on the calibrated GPT-J numbers.
    pub fn chatbot(mean_interarrival_s: f64) -> Self {
        TenantLoad {
            mean_interarrival_s,
            prefill_s: 0.21,
            decode_step_s: 0.0306,
            decode_tokens: 50,
        }
    }

    fn service_s(&self) -> f64 {
        self.prefill_s + self.decode_step_s * self.decode_tokens as f64
    }
}

/// Result of one fleet simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// Devices simulated.
    pub devices: usize,
    /// Requests completed.
    pub completed: usize,
    /// Mean device utilization over the simulated horizon.
    pub mean_utilization: f64,
    /// Mean request latency (queueing + service).
    pub mean_latency_s: f64,
    /// 95th-percentile request latency.
    pub p95_latency_s: f64,
}

#[derive(Clone, Copy)]
struct Arrival {
    tenant: usize,
    at: Nanos,
}

/// Generate each tenant's arrivals over `horizon_s` with seeded
/// exponential-ish gaps (deterministic).
fn arrivals(tenants: &[TenantLoad], horizon_s: f64, seed: u64) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mut rng = XorShift64::new(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut now = 0.0f64;
        loop {
            // Inverse-CDF exponential gap from a uniform draw.
            let u = rng.next_f64().max(1e-9);
            now += -t.mean_interarrival_s * u.ln();
            if now >= horizon_s {
                break;
            }
            out.push(Arrival {
                tenant: i,
                at: Nanos::from_secs_f64(now),
            });
        }
    }
    out.sort_by_key(|a| a.at);
    out
}

/// Simulate with each tenant statically bound to `device = tenant index`
/// (requires `devices == tenants.len()`).
pub fn simulate_static(tenants: &[TenantLoad], horizon_s: f64, seed: u64) -> FleetReport {
    let devices = tenants.len();
    simulate(tenants, devices, horizon_s, seed, false)
}

/// Simulate with all devices pooled: prefill goes to the
/// earliest-available device; decode stays there (cache affinity).
pub fn simulate_pooled(
    tenants: &[TenantLoad],
    devices: usize,
    horizon_s: f64,
    seed: u64,
) -> FleetReport {
    simulate(tenants, devices, horizon_s, seed, true)
}

fn simulate(
    tenants: &[TenantLoad],
    devices: usize,
    horizon_s: f64,
    seed: u64,
    pooled: bool,
) -> FleetReport {
    let mut q: EventQueue<(), Arrival> = EventQueue::new();
    for a in arrivals(tenants, horizon_s, seed) {
        q.schedule(a.at, (), a);
    }
    let mut device_free = vec![Nanos::ZERO; devices];
    let mut busy_s = vec![0.0f64; devices];
    let mut latencies: Vec<f64> = Vec::new();

    while let Some((at, arrival)) = q.pop() {
        let t = &tenants[arrival.tenant];
        let dev = if pooled {
            // Earliest-available device, ties to the lowest index.
            (0..devices)
                .min_by_key(|&d| (device_free[d], d))
                .expect("devices > 0")
        } else {
            arrival.tenant % devices
        };
        let start = at.max(device_free[dev]);
        let service = t.service_s();
        let end = start + Nanos::from_secs_f64(service);
        device_free[dev] = end;
        busy_s[dev] += service;
        latencies.push((end - at).as_secs_f64());
    }

    let horizon = latencies
        .iter()
        .copied()
        .fold(horizon_s, f64::max)
        .max(horizon_s);
    let mean_utilization = busy_s.iter().sum::<f64>() / (devices as f64 * horizon);
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean_latency_s = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let p95 = if latencies.is_empty() {
        0.0
    } else {
        latencies[(latencies.len() as f64 * 0.95) as usize % latencies.len()]
    };
    FleetReport {
        devices,
        completed: latencies.len(),
        mean_utilization,
        mean_latency_s,
        p95_latency_s: p95,
    }
}

/// The headline comparison: `n` bursty tenants on dedicated devices vs
/// the same load on a right-sized shared pool. Returns
/// (static report, pooled report with `pool_devices`).
pub fn static_vs_pooled(
    tenants: &[TenantLoad],
    pool_devices: usize,
    horizon_s: f64,
    seed: u64,
) -> (FleetReport, FleetReport) {
    (
        simulate_static(tenants, horizon_s, seed),
        simulate_pooled(tenants, pool_devices, horizon_s, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty_fleet() -> Vec<TenantLoad> {
        // 8 tenants at ~20% duty cycle each: the classic over-provisioned
        // fleet (service ≈ 1.74 s, arrivals every ~9 s).
        (0..8).map(|_| TenantLoad::chatbot(9.0)).collect()
    }

    #[test]
    fn simulation_is_deterministic() {
        let t = bursty_fleet();
        let a = simulate_static(&t, 600.0, 42);
        let b = simulate_static(&t, 600.0, 42);
        assert_eq!(a, b);
        let c = simulate_static(&t, 600.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn static_fleet_idles_like_the_paper_says() {
        // "real fleets still report 55–60% average GPU idleness": at 20%
        // duty cycle per tenant, dedicated devices idle ~80%.
        let report = simulate_static(&bursty_fleet(), 1200.0, 7);
        assert!(
            report.mean_utilization < 0.45,
            "static util {}",
            report.mean_utilization
        );
    }

    #[test]
    fn pooling_raises_utilization_with_fewer_devices() {
        let tenants = bursty_fleet();
        let (stat, pooled) = static_vs_pooled(&tenants, 3, 1200.0, 7);
        assert_eq!(stat.completed, pooled.completed, "same offered load");
        assert!(
            pooled.mean_utilization > 2.0 * stat.mean_utilization,
            "pooled {} vs static {}",
            pooled.mean_utilization,
            stat.mean_utilization
        );
        // And the latency cost of sharing stays bounded at this load.
        assert!(pooled.p95_latency_s < 4.0 * stat.p95_latency_s.max(1.8));
    }

    #[test]
    fn undersized_pool_queues() {
        let tenants = bursty_fleet();
        let tight = simulate_pooled(&tenants, 1, 1200.0, 7);
        let roomy = simulate_pooled(&tenants, 6, 1200.0, 7);
        assert!(tight.mean_latency_s > roomy.mean_latency_s);
        assert!(tight.mean_utilization > roomy.mean_utilization);
    }

    #[test]
    fn zero_horizon_is_empty() {
        let report = simulate_static(&bursty_fleet(), 0.0, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(report.mean_latency_s, 0.0);
    }
}
