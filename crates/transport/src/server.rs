//! A threaded RPC server with graceful shutdown.
//!
//! The transport stays policy-free: a [`Handler`] implements the
//! application (Genie's remote executor lives in `genie-backend`). One
//! thread per connection with blocking sockets keeps the state machine
//! obvious — the event-driven complexity budget of this project is spent
//! in the simulator, not in socket plumbing.
//!
//! Two hardening features ride on the loop:
//!
//! - **Request deduplication** — response frames are cached by request id
//!   in a bounded FIFO shared across connections. A retried request (same
//!   id, possibly a fresh connection) is answered from the cache without
//!   re-invoking the handler, making client retries idempotent even for
//!   state-mutating requests. A cached frame shares its tensor bytes with
//!   the reply the socket wrote, so caching copies none of them.
//! - **Chaos injection** — [`Server::spawn_chaotic`] wraps the reply path
//!   in a seeded [`ChaosState`] that can stall or drop responses *after*
//!   the handler ran, exercising exactly the ambiguity retries must
//!   survive.

use crate::chaos::{ChaosAction, ChaosPolicy, ChaosState};
use crate::error::Result;
use crate::frame::{write_frame, FrameReader};
use crate::message::{Request, RequestBody, Response, ResponseBody};
use crate::wire::Frame;
use genie_telemetry::lock;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Application logic plugged into the server. One handler instance exists
/// per connection; shared state goes behind the factory's captures.
pub trait Handler: Send + 'static {
    /// Handle one request body, returning the response body.
    fn handle(&mut self, body: RequestBody) -> ResponseBody;
}

impl<F> Handler for F
where
    F: FnMut(RequestBody) -> ResponseBody + Send + 'static,
{
    fn handle(&mut self, body: RequestBody) -> ResponseBody {
        self(body)
    }
}

/// How many response frames the dedup cache retains. Retries arrive
/// within a handful of calls of the original, so a small FIFO suffices.
const DEDUP_CAPACITY: usize = 1024;

/// How many wire bytes of response frames the dedup cache retains: a
/// few bulk replies, not a thousand. The newest frame is kept whatever
/// its size, so a retry of any call still finds its reply.
const DEDUP_CAPACITY_BYTES: usize = 4 << 20;

/// Bounded FIFO of response frames keyed by request id, shared across
/// connections so a retry over a fresh socket still hits the cache.
#[derive(Debug, Default)]
struct DedupCache {
    by_id: HashMap<u64, Frame>,
    order: VecDeque<u64>,
    /// Wire bytes of the frames in `by_id`.
    bytes: usize,
}

impl DedupCache {
    fn get(&self, id: u64) -> Option<Frame> {
        self.by_id.get(&id).cloned()
    }

    /// Cache `frame` under `id`. Returns the frames it pushed out, for the
    /// caller to drop once the cache's lock is released.
    fn insert(&mut self, id: u64, frame: Frame) -> Vec<Frame> {
        let mut evicted = Vec::new();
        self.bytes += frame.wire_len();
        match self.by_id.insert(id, frame) {
            Some(replaced) => {
                self.bytes -= replaced.wire_len();
                evicted.push(replaced);
            }
            None => self.order.push_back(id),
        }
        while self.order.len() > DEDUP_CAPACITY
            || (self.order.len() > 1 && self.bytes > DEDUP_CAPACITY_BYTES)
        {
            let oldest = self.order.pop_front().expect("more than one entry");
            if let Some(frame) = self.by_id.remove(&oldest) {
                self.bytes -= frame.wire_len();
                evicted.push(frame);
            }
        }
        evicted
    }
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Bind to `127.0.0.1:0` and serve connections, building one handler
    /// per connection via `factory`.
    pub fn spawn<H, F>(factory: F) -> Result<Server>
    where
        H: Handler,
        F: Fn() -> H + Send + 'static,
    {
        Server::spawn_inner(factory, None)
    }

    /// [`spawn`](Self::spawn) with seeded fault injection on the reply
    /// path: responses may be stalled or dropped per `policy`, always
    /// after the handler ran and its response was cached for dedup.
    pub fn spawn_chaotic<H, F>(factory: F, policy: ChaosPolicy) -> Result<Server>
    where
        H: Handler,
        F: Fn() -> H + Send + 'static,
    {
        Server::spawn_inner(factory, Some(Arc::new(ChaosState::new(policy))))
    }

    fn spawn_inner<H, F>(factory: F, chaos: Option<Arc<ChaosState>>) -> Result<Server>
    where
        H: Handler,
        F: Fn() -> H + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conns2 = conns.clone();
        let dedup: Arc<Mutex<DedupCache>> = Arc::new(Mutex::new(DedupCache::default()));

        let accept_thread = std::thread::Builder::new()
            .name("genie-accept".into())
            .spawn(move || {
                let mut conn_threads = Vec::new();
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // Keep a handle so shutdown can unblock the reader.
                    if let Ok(clone) = stream.try_clone() {
                        lock(&conns2).push(clone);
                    }
                    let mut handler = factory();
                    let dedup = dedup.clone();
                    let chaos = chaos.clone();
                    let spawned =
                        std::thread::Builder::new()
                            .name("genie-conn".into())
                            .spawn(move || {
                                let served = serve_connection(
                                    &mut stream,
                                    &mut handler,
                                    &dedup,
                                    chaos.as_deref(),
                                );
                                // However a connection fails — receiving,
                                // decoding, encoding or writing — it is one
                                // server-side transport error.
                                if served.is_err() {
                                    let labels = [("role", "server")];
                                    genie_telemetry::global()
                                        .metrics
                                        .counter("genie_transport_errors_total", &labels)
                                        .inc();
                                }
                                // `conns` holds a clone of the socket, so
                                // dropping this one closes nothing: hang up,
                                // or a peer whose frame was refused waits
                                // out its whole deadline for a reply.
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                            });
                    match spawned {
                        Ok(t) => conn_threads.push(t),
                        // Thread exhaustion: drop this connection (the
                        // client observes ConnectionClosed) rather than
                        // tearing the whole server down.
                        Err(_) => continue,
                    }
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })?;

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address to connect clients to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for the accept loop to exit. Open
    /// connections are closed (clients observe `ConnectionClosed`); new
    /// connections are refused.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept() with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock per-connection readers parked on live client sockets.
        for stream in lock(&self.conns).drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    stream: &mut TcpStream,
    handler: &mut dyn Handler,
    dedup: &Mutex<DedupCache>,
    chaos: Option<&ChaosState>,
) -> Result<()> {
    let telemetry = genie_telemetry::global();
    // Handles held for the connection: a lookup per frame builds a key and
    // takes the registry lock.
    let (metrics, role) = (&telemetry.metrics, ("role", "server"));
    let bytes = |dir| metrics.counter("genie_transport_bytes_total", &[role, ("dir", dir)]);
    let (rx, tx) = (bytes("rx"), bytes("tx"));
    let calls = metrics.counter("genie_transport_calls_total", &[role]);
    stream.set_nodelay(true)?;
    let mut reader = FrameReader::default();
    loop {
        let frame = match reader.recv(stream) {
            Ok(f) => f,
            Err(crate::error::TransportError::ConnectionClosed) => return Ok(()),
            Err(e) => return Err(e),
        };
        rx.add(frame.len() as u64 + 4);
        let request = Request::decode(frame)?;
        // A duplicate delivery of an already-answered request (client
        // retry after a lost response) is answered from the cache; the
        // handler must not run twice. The lookup is bound first so the
        // cache guard is released before the miss arm re-locks to
        // insert (a match scrutinee's temporaries live for the whole
        // match, which would self-deadlock).
        let cached = lock(dedup).get(request.id);
        // Frames the cache evicts, freed after the reply is written rather
        // than under the cache's lock or ahead of the reply.
        let mut evicted = Vec::new();
        let reply = match cached {
            Some(cached) => {
                telemetry
                    .metrics
                    .counter("genie_transport_dups_coalesced_total", &[])
                    .inc();
                cached
            }
            None => {
                let body = {
                    let mut span = telemetry.collector.span("transport.serve", "transport");
                    // Attribute the serve span to the request a peer names.
                    if let Some(ctx) = request.trace {
                        span.annotate(|a| {
                            a.request = Some(ctx.request);
                            if ctx.parent_span != 0 {
                                a.cause = Some(ctx.parent_span);
                            }
                        });
                    }
                    handler.handle(request.body)
                };
                let response = Response {
                    id: request.id,
                    body,
                };
                // The cache and the socket write share the one frame, and
                // it shares the handler's tensor bytes.
                let reply = response.to_frame()?;
                evicted = lock(dedup).insert(request.id, reply.clone());
                reply
            }
        };
        // Chaos strikes after the handler ran and the response was
        // cached: the work is done, only the acknowledgement is at risk.
        if let Some(chaos) = chaos {
            match chaos.next_action() {
                ChaosAction::Deliver => {}
                ChaosAction::Stall => {
                    telemetry
                        .metrics
                        .counter("genie_chaos_injected_total", &[("kind", "stall")])
                        .inc();
                    std::thread::sleep(chaos.stall());
                }
                ChaosAction::Drop => {
                    telemetry
                        .metrics
                        .counter("genie_chaos_injected_total", &[("kind", "drop")])
                        .inc();
                    return Ok(());
                }
            }
        }
        tx.add(write_frame(stream, &reply.parts())?);
        calls.inc();
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn ping_pong_over_real_sockets() {
        let mut server = Server::spawn(|| {
            |body: RequestBody| match body {
                RequestBody::Ping => ResponseBody::Pong,
                _ => ResponseBody::Error("unsupported".into()),
            }
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.call(RequestBody::Ping).unwrap(), ResponseBody::Pong);
        server.shutdown();
    }

    #[test]
    fn per_connection_handler_state() {
        // Each connection gets its own counter.
        let mut server = Server::spawn(|| {
            let mut count = 0u64;
            move |_body: RequestBody| {
                count += 1;
                ResponseBody::Handle {
                    key: count,
                    epoch: 0,
                }
            }
        })
        .unwrap();
        let mut c1 = Client::connect(server.addr()).unwrap();
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert_eq!(
            c1.call(RequestBody::Ping).unwrap(),
            ResponseBody::Handle { key: 1, epoch: 0 }
        );
        assert_eq!(
            c1.call(RequestBody::Ping).unwrap(),
            ResponseBody::Handle { key: 2, epoch: 0 }
        );
        // Fresh connection, fresh counter.
        assert_eq!(
            c2.call(RequestBody::Ping).unwrap(),
            ResponseBody::Handle { key: 1, epoch: 0 }
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = Server::spawn(|| |_b: RequestBody| ResponseBody::Ok).unwrap();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn duplicate_request_id_coalesced_across_connections() {
        use std::sync::atomic::AtomicU64;
        let invocations = Arc::new(AtomicU64::new(0));
        let inv2 = invocations.clone();
        let mut server = Server::spawn(move || {
            let inv = inv2.clone();
            move |_body: RequestBody| {
                let n = inv.fetch_add(1, Ordering::SeqCst) + 1;
                ResponseBody::Handle { key: n, epoch: 0 }
            }
        })
        .unwrap();
        let id = crate::client::next_request_id();
        let mut c1 = Client::connect(server.addr()).unwrap();
        let first = c1.call_with_id(id, RequestBody::Ping).unwrap();
        // Same id again — same connection and a fresh one: both must get
        // the cached response without the handler running again.
        assert_eq!(c1.call_with_id(id, RequestBody::Ping).unwrap(), first);
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert_eq!(c2.call_with_id(id, RequestBody::Ping).unwrap(), first);
        assert_eq!(invocations.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn dedup_cache_is_bounded() {
        let mut cache = DedupCache::default();
        for id in 0..(DEDUP_CAPACITY as u64 + 10) {
            cache.insert(id, Frame::default());
        }
        assert_eq!(cache.by_id.len(), DEDUP_CAPACITY);
        assert!(cache.get(0).is_none(), "oldest entries evicted");
        assert!(cache.get(DEDUP_CAPACITY as u64 + 9).is_some());
    }

    #[test]
    fn dedup_cache_is_bounded_by_bytes() {
        let reply = |bytes: usize| {
            let mut frame = Frame::default();
            crate::wire::put_bytes(&mut frame, &vec![7u8; bytes].into()).unwrap();
            frame
        };
        let mut cache = DedupCache::default();
        for id in 0..20 {
            cache.insert(id, reply(1 << 20));
        }
        assert!(cache.bytes <= DEDUP_CAPACITY_BYTES, "{} bytes", cache.bytes);
        assert_eq!(cache.bytes, cache.by_id.values().map(Frame::wire_len).sum());
        assert!(cache.get(0).is_none(), "oldest replies evicted first");
        assert!(cache.get(19).is_some());
        // A reply over the bound on its own is still kept until the next.
        cache.insert(20, reply(DEDUP_CAPACITY_BYTES + 1));
        assert_eq!(cache.order, [20]);
        cache.insert(21, reply(8));
        assert_eq!(cache.order, [21]);
        assert_eq!(cache.bytes, cache.get(21).unwrap().wire_len());
    }

    #[test]
    fn chaotic_server_with_none_policy_behaves_normally() {
        let mut server =
            Server::spawn_chaotic(|| |_b: RequestBody| ResponseBody::Pong, ChaosPolicy::none())
                .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..10 {
            assert_eq!(client.call(RequestBody::Ping).unwrap(), ResponseBody::Pong);
        }
        server.shutdown();
    }

    #[test]
    fn a_peers_trace_context_attributes_the_serve_span() {
        use genie_telemetry::causal::TraceCtx;
        let mut server = Server::spawn(|| |_body: RequestBody| ResponseBody::Pong).unwrap();
        let ctx = TraceCtx {
            request: 77_077,
            parent_span: 3,
        };
        let request = Request {
            id: crate::client::next_request_id(),
            trace: Some(ctx),
            body: RequestBody::Ping,
        }
        .to_frame()
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &request.parts()).unwrap();
        let reply = Response::decode(FrameReader::default().recv(&mut stream).unwrap()).unwrap();
        assert_eq!(reply.body, ResponseBody::Pong);
        server.shutdown();
        let served = genie_telemetry::global()
            .collector
            .snapshot()
            .into_iter()
            .find(|r| r.name == "transport.serve" && r.attrs.request == Some(ctx.request))
            .expect("serve span attributed to the peer's request");
        assert_eq!(served.attrs.cause, Some(ctx.parent_span));
    }

    #[test]
    fn retries_survive_a_hostile_server() {
        use crate::retry::RetryPolicy;
        use std::time::Duration;
        // Drops ~25% of responses; the handler mutates state, so only
        // dedup keeps retries idempotent.
        let mut server = Server::spawn_chaotic(
            || {
                let mut count = 0u64;
                move |_body: RequestBody| {
                    count += 1;
                    std::hint::black_box(count);
                    ResponseBody::Ok
                }
            },
            ChaosPolicy::hostile(42, Duration::from_millis(1)),
        )
        .unwrap();
        let mut client =
            Client::connect_with_deadline(server.addr(), Some(Duration::from_millis(500))).unwrap();
        let policy = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::fast()
        };
        let mut ok = 0;
        for _ in 0..20 {
            if client.call_retry(RequestBody::Ping, &policy).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 18, "retries should mask most drops, got {ok}/20");
        server.shutdown();
    }
}
