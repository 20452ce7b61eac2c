//! Property-based tests for the link and channel models: conservation
//! and monotonicity invariants every simulation result depends on.

use genie_netsim::{LinkSim, Nanos, RpcChannel, RpcParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO links never reorder: delivery times are non-decreasing in
    /// submission order, and every byte is accounted.
    #[test]
    fn fifo_is_monotone_and_conserves_bytes(
        sizes in prop::collection::vec(1u64..10_000_000, 1..20),
        bw_mbps in 1f64..100_000.0,
        latency_us in 0u64..10_000,
    ) {
        let mut link = LinkSim::new(bw_mbps * 1e6 / 8.0, Nanos::from_micros(latency_us));
        let mut last = Nanos::ZERO;
        let mut total = 0u64;
        for &bytes in &sizes {
            let t = link.transmit(Nanos::ZERO, bytes);
            prop_assert!(t.delivered >= last, "reordered delivery");
            prop_assert!(t.sent >= t.start);
            prop_assert_eq!(t.delivered, t.sent + Nanos::from_micros(latency_us));
            last = t.delivered;
            total += bytes;
        }
        prop_assert_eq!(link.bytes_sent, total);
        prop_assert_eq!(link.transmissions, sizes.len() as u64);
    }

    /// Transfer durations scale inversely with bandwidth.
    #[test]
    fn bandwidth_scaling(bytes in 1u64..1_000_000_000, factor in 2f64..16.0) {
        let mut slow = LinkSim::new(1e9, Nanos::ZERO);
        let mut fast = LinkSim::new(1e9 * factor, Nanos::ZERO);
        let ts = slow.transmit(Nanos::ZERO, bytes).sent.as_secs_f64();
        let tf = fast.transmit(Nanos::ZERO, bytes).sent.as_secs_f64();
        // Within nanosecond-rounding tolerance of the exact ratio.
        prop_assert!((ts / tf.max(1e-12) - factor).abs() / factor < 0.01 || ts < 1e-6);
    }

    /// Channel totals equal the sum of per-call payloads, and timing is
    /// monotone across sequential sync calls.
    #[test]
    fn channel_accounting(
        calls in prop::collection::vec((0u64..5_000_000, 0u64..5_000_000), 1..12),
    ) {
        let link = LinkSim::new(25e9 / 8.0, Nanos::from_micros(250));
        let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
        let mut t = ch.ensure_session(Nanos::ZERO);
        let mut up_total = 0u64;
        let mut down_total = 0u64;
        for &(up, down) in &calls {
            let timing = ch.call_sync(t, up, down, Nanos::ZERO);
            prop_assert!(timing.response_delivered >= t);
            prop_assert!(timing.request_delivered <= timing.response_delivered);
            t = timing.response_delivered;
            up_total += up;
            down_total += down;
        }
        prop_assert_eq!(ch.bytes_up, up_total);
        prop_assert_eq!(ch.bytes_down, down_total);
        prop_assert_eq!(ch.calls, calls.len() as u64);
    }

    /// Congestion strictly slows nonzero transfers and never corrupts
    /// accounting.
    #[test]
    fn congestion_slows(bytes in 1_000u64..100_000_000, congestion in 0.01f64..0.95) {
        let mut clear = LinkSim::new(1e9, Nanos::ZERO);
        let mut busy = LinkSim::new(1e9, Nanos::ZERO);
        busy.congestion = congestion;
        let tc = clear.transmit(Nanos::ZERO, bytes).sent;
        let tb = busy.transmit(Nanos::ZERO, bytes).sent;
        prop_assert!(tb >= tc);
    }
}
