//! Blocking RPC client with traffic accounting, deadlines, and retries.
//!
//! Three hardening layers sit on top of the bare socket:
//!
//! - **Deadlines** — every read and write carries a socket timeout, so a
//!   stalled server yields a typed [`TransportError::Timeout`] instead of
//!   blocking the caller forever.
//! - **Idempotent request ids** — ids come from one process-global
//!   counter, so an id retried over a fresh connection still names the
//!   same logical request and the server's dedup cache can coalesce the
//!   duplicate delivery.
//! - **Retries** — [`Client::call_retry`] re-issues a failed call under a
//!   [`RetryPolicy`]: capped exponential backoff with deterministic
//!   jitter, reconnecting between attempts, surfacing
//!   [`TransportError::Exhausted`] when the budget runs out.

use crate::error::{Result, TransportError};
use crate::frame::{write_frame, FrameReader};
use crate::message::{Request, RequestBody, Response, ResponseBody};
use crate::retry::RetryPolicy;
use genie_telemetry::Counter;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Default per-call deadline: generous enough for weight uploads over
/// loopback, finite so nothing hangs forever.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Process-global request id counter. Global (not per-client) so that a
/// request retried over a reconnected socket keeps a unique identity the
/// server can deduplicate on.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh request id, unique within this process.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// The client's `genie_transport_*_total` series, resolved once per
/// process, as `interp::publish_dispatch_delta` holds its own: every call
/// moves two or three, a registry lookup builds its key and searches under
/// the registry mutex, and a held handle is one atomic add.
struct Counters {
    calls: Counter,
    errors: Counter,
    tx: Counter,
    rx: Counter,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let metrics = &genie_telemetry::global().metrics;
        let role = ("role", "client");
        let bytes = |dir| metrics.counter("genie_transport_bytes_total", &[role, ("dir", dir)]);
        Counters {
            calls: metrics.counter("genie_transport_calls_total", &[role]),
            errors: metrics.counter("genie_transport_errors_total", &[role]),
            tx: bytes("tx"),
            rx: bytes("rx"),
        }
    })
}

/// A synchronous client: one outstanding request at a time, correlation
/// ids checked, cumulative byte counters exposed (the evaluation's
/// "network volume via RPC counters").
pub struct Client {
    stream: TcpStream,
    /// The stream's reader: what it read ahead belongs to this stream.
    reader: FrameReader,
    addr: SocketAddr,
    deadline: Option<Duration>,
    /// Set after a transport-level failure: the stream may hold a stale
    /// half-written frame, so the next call reconnects first.
    poisoned: bool,
    /// Total request payload bytes sent.
    pub bytes_sent: u64,
    /// Total response payload bytes received.
    pub bytes_received: u64,
    /// Completed calls.
    pub calls: u64,
}

impl Client {
    /// Connect to a server with the [`DEFAULT_DEADLINE`].
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        Client::connect_with_deadline(addr, Some(DEFAULT_DEADLINE))
    }

    /// Connect with an explicit per-call deadline (`None` blocks forever —
    /// only sensible in tests that own both ends).
    pub fn connect_with_deadline(addr: SocketAddr, deadline: Option<Duration>) -> Result<Client> {
        let stream = Client::open(addr, deadline)?;
        Ok(Client {
            stream,
            reader: FrameReader::default(),
            addr,
            deadline,
            poisoned: false,
            bytes_sent: 0,
            bytes_received: 0,
            calls: 0,
        })
    }

    fn open(addr: SocketAddr, deadline: Option<Duration>) -> Result<TcpStream> {
        let stream = match deadline {
            Some(d) => TcpStream::connect_timeout(&addr, d)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        Ok(stream)
    }

    /// Drop the current socket and dial a fresh one (same address, same
    /// deadline). Counters survive; in-flight state does not, bytes the
    /// old stream's reader read ahead included.
    pub fn reconnect(&mut self) -> Result<()> {
        self.stream = Client::open(self.addr, self.deadline)?;
        self.reader = FrameReader::default();
        self.poisoned = false;
        Ok(())
    }

    /// Issue a synchronous call under a fresh request id.
    pub fn call(&mut self, body: RequestBody) -> Result<ResponseBody> {
        self.call_with_id(next_request_id(), body)
    }

    /// Issue a synchronous call under an explicit request id. Retrying
    /// callers reuse the id across attempts so the server can coalesce
    /// duplicate deliveries of the same logical request.
    pub fn call_with_id(&mut self, id: u64, body: RequestBody) -> Result<ResponseBody> {
        let telemetry = genie_telemetry::global();
        let mut span = telemetry.collector.span("transport.call", "transport");
        let result = self.call_inner(id, body);
        match &result {
            Ok(_) => counters().calls.inc(),
            Err(e) => {
                let msg = e.to_string();
                span.annotate(|a| a.extra.push(("error".into(), msg)));
                counters().errors.inc();
            }
        }
        result
    }

    /// Issue a call under `policy`: on a retryable transport error the
    /// call is re-sent with the **same** request id after a deterministic
    /// backoff, reconnecting first. Non-retryable errors (application
    /// errors, codec failures) surface immediately; a spent budget
    /// surfaces as [`TransportError::Exhausted`] carrying the final
    /// attempt's error.
    pub fn call_retry(&mut self, body: RequestBody, policy: &RetryPolicy) -> Result<ResponseBody> {
        let telemetry = genie_telemetry::global();
        let id = next_request_id();
        let attempts = policy.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let wait = policy.backoff(attempt, id);
                telemetry
                    .metrics
                    .counter("genie_rpc_retries_total", &[])
                    .inc();
                telemetry
                    .metrics
                    .histogram(
                        "genie_rpc_retry_backoff_seconds",
                        &[],
                        &genie_telemetry::DEFAULT_TIME_BOUNDS,
                    )
                    .observe(wait.as_secs_f64());
                std::thread::sleep(wait);
                if self.poisoned {
                    if let Err(e) = self.reconnect() {
                        last = Some(e);
                        continue;
                    }
                }
            }
            match self.call_with_id(id, body.clone()) {
                Ok(reply) => return Ok(reply),
                Err(e) if RetryPolicy::is_retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(TransportError::Exhausted {
            attempts,
            last: Box::new(last.unwrap_or(TransportError::ConnectionClosed)),
        })
    }

    fn call_inner(&mut self, id: u64, body: RequestBody) -> Result<ResponseBody> {
        if self.poisoned {
            self.reconnect()?;
        }
        match self.exchange(id, body) {
            Ok(reply) => Ok(reply),
            Err(e) => {
                if RetryPolicy::is_retryable(&e) {
                    self.poisoned = true;
                }
                // Stamp the configured deadline into bare socket timeouts.
                if let (TransportError::Timeout { after }, Some(d)) = (&e, self.deadline) {
                    if after.is_zero() {
                        return Err(TransportError::Timeout { after: d });
                    }
                }
                Err(e)
            }
        }
    }

    fn exchange(&mut self, id: u64, body: RequestBody) -> Result<ResponseBody> {
        let request = Request {
            id,
            trace: None,
            body,
        }
        .to_frame()?;
        let sent = write_frame(&mut self.stream, &request.parts())?;
        self.bytes_sent += sent;
        counters().tx.add(sent);

        let frame = self.reader.recv(&mut self.stream)?;
        let received = frame.len() as u64 + 4;
        self.bytes_received += received;
        counters().rx.add(received);
        let response = Response::decode(frame)?;
        if response.id != id {
            return Err(TransportError::UnexpectedResponse {
                got: response.id,
                expected: id,
            });
        }
        self.calls += 1;
        match response.body {
            ResponseBody::Error(msg) => Err(TransportError::Remote(msg)),
            body => Ok(body),
        }
    }

    /// Total bytes in both directions (incl. framing).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TensorPayload;
    use crate::server::Server;

    fn echo_server() -> Server {
        Server::spawn(|| {
            |body: RequestBody| match body {
                RequestBody::Upload { tensor, .. } => ResponseBody::Tensors(vec![tensor]),
                RequestBody::Ping => ResponseBody::Pong,
                RequestBody::Crash => ResponseBody::Error("injected".into()),
                _ => ResponseBody::Ok,
            }
        })
        .unwrap()
    }

    #[test]
    fn tensor_echo_roundtrip() {
        let mut server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let t = TensorPayload::from_f32(vec![2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let reply = client
            .call(RequestBody::Upload {
                key: 1,
                tensor: t.clone(),
            })
            .unwrap();
        assert_eq!(reply, ResponseBody::Tensors(vec![t]));
        server.shutdown();
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        client.call(RequestBody::Ping).unwrap();
        let after_ping = client.total_bytes();
        assert!(after_ping > 0);
        client
            .call(RequestBody::Upload {
                key: 1,
                tensor: TensorPayload::from_f32(vec![256], &[0.0; 256]),
            })
            .unwrap();
        // A 1 KB payload travels both ways (echo): counters must jump by
        // at least 2 KB beyond the ping baseline.
        assert!(client.total_bytes() > after_ping + 2048);
        assert_eq!(client.calls, 2);
        server.shutdown();
    }

    #[test]
    fn remote_errors_surface() {
        let mut server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.call(RequestBody::Crash).unwrap_err();
        assert!(matches!(err, TransportError::Remote(msg) if msg == "injected"));
        server.shutdown();
    }

    #[test]
    fn sequential_ids_survive_many_calls() {
        let mut server = echo_server();
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..100 {
            assert_eq!(client.call(RequestBody::Ping).unwrap(), ResponseBody::Pong);
        }
        assert_eq!(client.calls, 100);
        server.shutdown();
    }

    #[test]
    fn request_ids_are_globally_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn stalled_server_times_out_with_typed_error() {
        // A listener that accepts and then never replies.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });
        let deadline = Duration::from_millis(100);
        let mut client = Client::connect_with_deadline(addr, Some(deadline)).unwrap();
        let err = client.call(RequestBody::Ping).unwrap_err();
        match err {
            TransportError::Timeout { after } => assert_eq!(after, deadline),
            other => panic!("expected Timeout, got {other}"),
        }
        hold.join().unwrap();
    }

    #[test]
    fn dead_server_exhausts_retries() {
        // Bind then drop: the port refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = match Client::connect_with_deadline(addr, Some(Duration::from_millis(100))) {
            // Depending on kernel timing connect may fail outright...
            Err(e) => e,
            // ...or succeed against a TIME_WAIT ghost and die on call.
            Ok(mut c) => c
                .call_retry(RequestBody::Ping, &RetryPolicy::fast())
                .unwrap_err(),
        };
        assert!(
            matches!(
                err,
                TransportError::Exhausted { .. }
                    | TransportError::Io(_)
                    | TransportError::Timeout { .. }
                    | TransportError::ConnectionClosed
            ),
            "typed transport error, got {err}"
        );
    }

    #[test]
    fn retry_reconnects_after_server_restart() {
        let mut server = echo_server();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.call(RequestBody::Ping).unwrap(), ResponseBody::Pong);
        // Kill the server mid-session: the client's socket is now dead.
        server.shutdown();
        drop(server);
        // Restart on a fresh port is not possible (addr is fixed), so
        // verify the poisoned path: the failed call marks the client and
        // a plain retry against nothing exhausts with a typed error.
        let err = client
            .call_retry(RequestBody::Ping, &RetryPolicy::fast())
            .unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Exhausted { .. } | TransportError::ConnectionClosed
            ),
            "got {err}"
        );
    }
}
