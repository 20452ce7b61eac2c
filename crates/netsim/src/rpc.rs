//! RPC transport models.
//!
//! The paper's evaluation (§4) runs over PyTorch's TensorPipe RPC driven
//! from Python, whose costs dwarf the 25 Gbps line rate. We model a
//! transport with four calibrated parameters; presets cover the paper's
//! stack and the zero-copy RDMA datapath Genie's backend targets (§3.4).
//!
//! The calibration for [`RpcParams::tensorpipe_python`] was obtained by
//! refitting every latency cell of Tables 2–3 (see
//! `genie-bench::calibration`): a fixed per-session setup of ~109 s
//! (process start, CUDA context, RPC mesh — the paper measures with
//! `/usr/bin/time`, which includes all of it), ~0.45 s per synchronous
//! round trip, and ~1.4 GB/s effective goodput. With those three numbers
//! the paper's cells reproduce to within a few percent.

use crate::link::LinkSim;
use crate::time::Nanos;

/// Parameters of an RPC transport.
#[derive(Clone, Debug, PartialEq)]
pub struct RpcParams {
    /// One-time session establishment cost (connection, remote context).
    pub session_init: Nanos,
    /// Fixed cost per synchronous call (marshalling, dispatch, GIL, …).
    pub per_call_overhead: Nanos,
    /// Effective payload goodput in bytes/s (≤ line rate; serialization-
    /// bound stacks sit well below it).
    pub effective_bandwidth: f64,
}

impl RpcParams {
    /// PyTorch TensorPipe RPC driven from Python over 25 GbE — the paper's
    /// measured stack.
    pub fn tensorpipe_python() -> Self {
        RpcParams {
            session_init: Nanos::from_secs_f64(109.0),
            per_call_overhead: Nanos::from_secs_f64(0.45),
            effective_bandwidth: 1.4e9,
        }
    }

    /// The zero-copy DPDK/RDMA datapath of §3.4: per-call cost is a NIC
    /// doorbell, goodput is the 25 GbE line rate.
    pub fn rdma_zero_copy() -> Self {
        RpcParams {
            session_init: Nanos::from_secs_f64(1.0),
            per_call_overhead: Nanos::from_micros(8),
            effective_bandwidth: 25e9 / 8.0,
        }
    }

    /// A tuned C++ RPC stack without RDMA (intermediate ablation point).
    pub fn tuned_tcp() -> Self {
        RpcParams {
            session_init: Nanos::from_secs_f64(5.0),
            per_call_overhead: Nanos::from_micros(200),
            effective_bandwidth: 2.8e9,
        }
    }
}

/// A simulated RPC endpoint pair: one client, one server, one link. Tracks
/// cumulative traffic and time the way the paper's RPC counters do.
#[derive(Clone, Debug)]
pub struct RpcChannel {
    /// Transport parameters.
    pub params: RpcParams,
    /// Underlying link (owned; FIFO-serialized).
    pub link: LinkSim,
    /// Total request payload bytes sent client → server.
    pub bytes_up: u64,
    /// Total response payload bytes sent server → client.
    pub bytes_down: u64,
    /// Number of completed calls.
    pub calls: u64,
    session_open: bool,
}

/// Outcome of one synchronous call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallTiming {
    /// When the request arrived at the server (server work may begin).
    pub request_delivered: Nanos,
    /// When the response arrived back at the client.
    pub response_delivered: Nanos,
}

/// Outcome of one one-way send, with queueing visibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnewayTiming {
    /// When the first byte hit the wire (no earlier than the send's issue,
    /// after any session setup, under FIFO queueing).
    pub wire_start: Nanos,
    /// When the last byte arrived at the receiver.
    pub delivered: Nanos,
    /// Time from issue to `wire_start`, spent queued behind earlier
    /// traffic.
    pub queue_delay: Nanos,
}

impl RpcChannel {
    /// New channel over the given link.
    pub fn new(params: RpcParams, link: LinkSim) -> Self {
        RpcChannel {
            params,
            link,
            bytes_up: 0,
            bytes_down: 0,
            calls: 0,
            session_open: false,
        }
    }

    /// Ensure the session is established; returns the time at which the
    /// channel is usable.
    pub fn ensure_session(&mut self, now: Nanos) -> Nanos {
        if self.session_open {
            now
        } else {
            self.session_open = true;
            now + self.params.session_init
        }
    }

    /// Perform a synchronous call carrying `up` request bytes and `down`
    /// response bytes, with `server_time` of work between them. The
    /// per-call overhead is charged on the client before the request hits
    /// the wire; payloads move at the transport's effective bandwidth and
    /// the link's FIFO discipline.
    pub fn call_sync(&mut self, now: Nanos, up: u64, down: u64, server_time: Nanos) -> CallTiming {
        let now = self.ensure_session(now);
        let issue = now + self.params.per_call_overhead;
        let req = self.transmit_payload(issue, up);
        let server_done = req + server_time;
        let resp = self.transmit_payload(server_done, down);
        self.bytes_up += up;
        self.bytes_down += down;
        self.calls += 1;
        CallTiming {
            request_delivered: req,
            response_delivered: resp,
        }
    }

    /// One-way transfer (async send / stream). Returns delivery time.
    pub fn send_oneway(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.send_oneway_timed(now, bytes).delivered
    }

    /// One-way transfer with full timing, including how long the payload
    /// waited for the link serializer behind earlier traffic. This is the
    /// queueing-delay signal the telemetry layer surfaces per transfer.
    pub fn send_oneway_timed(&mut self, now: Nanos, bytes: u64) -> OnewayTiming {
        let now = self.ensure_session(now);
        let (start, delivered) = self.transmit_payload_timed(now, bytes);
        self.bytes_up += bytes;
        self.calls += 1;
        OnewayTiming {
            wire_start: start,
            delivered,
            queue_delay: start.saturating_sub(now),
        }
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    fn transmit_payload(&mut self, at: Nanos, bytes: u64) -> Nanos {
        self.transmit_payload_timed(at, bytes).1
    }

    /// Returns `(wire_start, delivered)` for one payload.
    fn transmit_payload_timed(&mut self, at: Nanos, bytes: u64) -> (Nanos, Nanos) {
        // The slower of the transport's serialization goodput and the
        // link's (possibly congested) rate governs; the wire is held for
        // that window (FIFO with other transfers), then propagation.
        let line = self.link.effective_bandwidth();
        let goodput = self.params.effective_bandwidth.min(line);
        let duration = Nanos::from_secs_f64(bytes as f64 / goodput);
        let (start, jitter) = self.link.occupy_timed(at, duration, bytes);
        (start, start + duration + self.link.latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(params: RpcParams) -> RpcChannel {
        RpcChannel::new(params, LinkSim::new(25e9 / 8.0, Nanos::from_micros(250)))
    }

    #[test]
    fn session_init_charged_once() {
        let mut c = channel(RpcParams::tensorpipe_python());
        let t0 = c.ensure_session(Nanos::ZERO);
        assert!((t0.as_secs_f64() - 109.0).abs() < 1e-9);
        let t1 = c.ensure_session(t0);
        assert_eq!(t1, t0);
    }

    #[test]
    fn sync_call_includes_overhead_and_both_directions() {
        let mut c = channel(RpcParams::rdma_zero_copy());
        c.ensure_session(Nanos::ZERO);
        let t = c.call_sync(
            Nanos::from_secs_f64(1.0),
            1_000_000,
            1_000_000,
            Nanos::from_millis(10),
        );
        // overhead 8us + 1MB at line rate (~0.32ms) + 250us + 10ms + same back
        let total = t.response_delivered.as_secs_f64() - 1.0;
        assert!(total > 0.010, "must include server time, got {total}");
        assert!(total < 0.013, "unexpectedly slow: {total}");
        assert_eq!(c.bytes_up, 1_000_000);
        assert_eq!(c.bytes_down, 1_000_000);
        assert_eq!(c.calls, 1);
    }

    #[test]
    fn tensorpipe_goodput_below_line_rate() {
        let mut c = channel(RpcParams::tensorpipe_python());
        let start = c.ensure_session(Nanos::ZERO);
        // 12.1 GB weight upload ≈ 12.1e9 / 1.4e9 ≈ 8.64 s.
        let t = c.call_sync(start, 12_100_000_000, 0, Nanos::ZERO);
        let dur = t.response_delivered.as_secs_f64() - start.as_secs_f64();
        assert!((dur - (0.45 + 8.64)).abs() < 0.05, "got {dur}");
    }

    #[test]
    fn zero_copy_faster_than_tensorpipe() {
        let payload = 100_000_000u64;
        let mut slow = channel(RpcParams::tensorpipe_python());
        let mut fast = channel(RpcParams::rdma_zero_copy());
        let s0 = slow.ensure_session(Nanos::ZERO);
        let f0 = fast.ensure_session(Nanos::ZERO);
        let ts = slow.call_sync(s0, payload, 0, Nanos::ZERO);
        let tf = fast.call_sync(f0, payload, 0, Nanos::ZERO);
        let slow_dur = ts.response_delivered - s0;
        let fast_dur = tf.response_delivered - f0;
        assert!(slow_dur > fast_dur);
    }

    #[test]
    fn oneway_accumulates_traffic() {
        let mut c = channel(RpcParams::rdma_zero_copy());
        let t0 = c.ensure_session(Nanos::ZERO);
        c.send_oneway(t0, 500);
        c.send_oneway(t0, 500);
        assert_eq!(c.total_bytes(), 1_000);
        assert_eq!(c.calls, 2);
    }

    #[test]
    fn oneway_timed_reports_fifo_queue_delay() {
        let mut c = channel(RpcParams::rdma_zero_copy());
        let t0 = c.ensure_session(Nanos::ZERO);
        // First send occupies the wire; the second, issued at the same
        // instant, must queue for exactly the first's serialization time.
        let a = c.send_oneway_timed(t0, 3_125_000_000);
        let b = c.send_oneway_timed(t0, 1_000);
        assert_eq!(a.queue_delay, Nanos::ZERO);
        assert_eq!(
            b.wire_start,
            a.wire_start + (a.delivered - t0) - c.link.latency
        );
        assert!(
            (b.queue_delay.as_secs_f64() - 1.0).abs() < 1e-6,
            "{:?}",
            b.queue_delay
        );
        assert!(b.delivered > a.delivered.saturating_sub(c.link.latency));
    }
}
