//! Properties of the link and channel models: conservation and
//! monotonicity invariants every simulation result depends on — as
//! seeded loops. A case is a function of its index alone, and a failing
//! case prints the index that reproduces it.

use genie_netsim::{LinkSim, Nanos, RpcChannel, RpcParams, XorShift64};

/// Cases per property.
const CASES: u64 = 64;

/// One case's draws; a panic while it is alive names the index.
struct Case {
    index: u64,
    rng: XorShift64,
}

impl Case {
    fn new(index: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Case { index, rng }
    }

    /// Uniform in `lo..hi`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.next_below(hi - lo)
    }

    /// Uniform in `[lo, hi)`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

/// FIFO links never reorder: delivery times are non-decreasing in
/// submission order, and every byte is accounted.
#[test]
fn fifo_is_monotone_and_conserves_bytes() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let sizes: Vec<u64> = (0..case.int(1, 20))
            .map(|_| case.int(1, 10_000_000))
            .collect();
        let bw_mbps = case.float(1.0, 100_000.0);
        let latency_us = case.int(0, 10_000);
        let mut link = LinkSim::new(bw_mbps * 1e6 / 8.0, Nanos::from_micros(latency_us));
        let mut last = Nanos::ZERO;
        let mut total = 0u64;
        for &bytes in &sizes {
            let t = link.transmit(Nanos::ZERO, bytes);
            assert!(t.delivered >= last, "reordered delivery");
            assert!(t.sent >= t.start);
            assert_eq!(t.delivered, t.sent + Nanos::from_micros(latency_us));
            last = t.delivered;
            total += bytes;
        }
        assert_eq!(link.bytes_sent, total);
        assert_eq!(link.transmissions, sizes.len() as u64);
    }
}

/// Transfer durations scale inversely with bandwidth.
#[test]
fn bandwidth_scaling() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let bytes = case.int(1, 1_000_000_000);
        let factor = case.float(2.0, 16.0);
        let mut slow = LinkSim::new(1e9, Nanos::ZERO);
        let mut fast = LinkSim::new(1e9 * factor, Nanos::ZERO);
        let ts = slow.transmit(Nanos::ZERO, bytes).sent.as_secs_f64();
        let tf = fast.transmit(Nanos::ZERO, bytes).sent.as_secs_f64();
        // Within nanosecond-rounding tolerance of the exact ratio.
        assert!((ts / tf.max(1e-12) - factor).abs() / factor < 0.01 || ts < 1e-6);
    }
}

/// Channel totals equal the sum of per-call payloads, and timing is
/// monotone across sequential sync calls.
#[test]
fn channel_accounting() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let calls: Vec<(u64, u64)> = (0..case.int(1, 12))
            .map(|_| (case.int(0, 5_000_000), case.int(0, 5_000_000)))
            .collect();
        let link = LinkSim::new(25e9 / 8.0, Nanos::from_micros(250));
        let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
        let mut t = ch.ensure_session(Nanos::ZERO);
        let mut up_total = 0u64;
        let mut down_total = 0u64;
        for &(up, down) in &calls {
            let timing = ch.call_sync(t, up, down, Nanos::ZERO);
            assert!(timing.response_delivered >= t);
            assert!(timing.request_delivered <= timing.response_delivered);
            t = timing.response_delivered;
            up_total += up;
            down_total += down;
        }
        assert_eq!(ch.bytes_up, up_total);
        assert_eq!(ch.bytes_down, down_total);
        assert_eq!(ch.calls, calls.len() as u64);
    }
}
