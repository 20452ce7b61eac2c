//! Property-based tests for the transport's retry layer: backoff
//! determinism, retryability classification, and the idempotence
//! contract between client retries and server-side deduplication. The
//! properties are seeded loops: a case is a function of its index alone,
//! and a failing case prints the index that reproduces it.

use genie_netsim::XorShift64;
use genie_transport::chaos::ChaosPolicy;
use genie_transport::retry::RetryPolicy;
use genie_transport::{next_request_id, Client, RequestBody, ResponseBody, Server, TransportError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {}", self.index);
        }
    }
}

/// Backoff is a pure function of (policy, attempt, request id): two
/// evaluations agree, waits never exceed cap + 50% jitter, and
/// attempt 0 never waits.
#[test]
fn backoff_is_pure_and_bounded() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(case.int(1, 500)),
            max_backoff: Duration::from_millis(case.int(1, 5_000)),
            deadline: Duration::from_secs(1),
            seed: case.rng.next_u64(),
        };
        let (attempt, request_id) = (case.int(0, 64) as u32, case.rng.next_u64());
        let a = policy.backoff(attempt, request_id);
        let b = policy.backoff(attempt, request_id);
        assert_eq!(a, b, "backoff must be deterministic");
        if attempt == 0 {
            assert_eq!(a, Duration::ZERO);
        } else {
            let ceiling = policy.max_backoff.max(policy.base_backoff);
            assert!(
                a <= ceiling + ceiling / 2,
                "wait {a:?} above cap {ceiling:?}"
            );
        }
    }
}

/// The exponential part is monotone non-decreasing in the attempt
/// number once jitter is stripped (lower bounds compare).
#[test]
fn backoff_lower_bound_is_monotone() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(case.int(1, 200)),
            max_backoff: Duration::from_millis(case.int(200, 5_000)),
            ..RetryPolicy::default()
        };
        let floor = |attempt: u32| {
            policy
                .base_backoff
                .saturating_mul(1u32 << (attempt - 1).min(16))
                .min(policy.max_backoff)
        };
        let mut prev = Duration::ZERO;
        for attempt in 1..20 {
            let f = floor(attempt);
            assert!(f >= prev);
            assert!(policy.backoff(attempt, 7) >= f, "jitter only adds");
            prev = f;
        }
    }
}

/// Generated retry schedules with different request ids de-correlate
/// (thundering-herd protection): some pair of ids must disagree.
#[test]
fn jitter_decorrelates_request_ids() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let policy = RetryPolicy::default().with_seed(case.rng.next_u64());
        let waits: Vec<Duration> = (0..16).map(|id| policy.backoff(3, id)).collect();
        let distinct: std::collections::BTreeSet<_> = waits.iter().collect();
        assert!(distinct.len() > 1, "all 16 ids backed off identically");
    }
}

/// Retryability is decided by error class alone: any message of 1..17
/// lowercase letters classifies the same.
#[test]
fn retryability_is_class_stable() {
    for case in 0..CASES {
        let mut case = Case::new(case);
        let msg: String = (0..case.int(1, 17))
            .map(|_| (b'a' + case.int(0, 26) as u8) as char)
            .collect();
        assert!(!RetryPolicy::is_retryable(&TransportError::Remote(
            msg.clone()
        )));
        assert!(!RetryPolicy::is_retryable(&TransportError::Codec(msg)));
        assert!(RetryPolicy::is_retryable(&TransportError::ConnectionClosed));
        assert!(RetryPolicy::is_retryable(&TransportError::Timeout {
            after: Duration::ZERO
        }));
    }
}

/// Duplicate deliveries of one request id reach the handler exactly once,
/// no matter how many times or over how many connections the id is
/// re-sent: the dedup cache answers the rest.
#[test]
fn duplicate_ids_coalesce_server_side() {
    let invocations = Arc::new(AtomicU64::new(0));
    let inv = invocations.clone();
    let mut server = Server::spawn(move || {
        let inv = inv.clone();
        move |_body: RequestBody| {
            let n = inv.fetch_add(1, Ordering::SeqCst) + 1;
            ResponseBody::Handle { key: n, epoch: 0 }
        }
    })
    .unwrap();

    let ids: Vec<u64> = (0..5).map(|_| next_request_id()).collect();
    let mut firsts = Vec::new();
    let mut c1 = Client::connect(server.addr()).unwrap();
    for &id in &ids {
        firsts.push(c1.call_with_id(id, RequestBody::Ping).unwrap());
    }
    // Replay every id three more times, alternating connections.
    for round in 0..3 {
        let mut c = Client::connect(server.addr()).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let client = if round % 2 == 0 { &mut c } else { &mut c1 };
            let reply = client.call_with_id(id, RequestBody::Ping).unwrap();
            assert_eq!(reply, firsts[i], "cached reply must be byte-identical");
        }
    }
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        ids.len() as u64,
        "handler ran once per unique id"
    );
    server.shutdown();
}

/// A server that stalls every reply beyond the client's deadline yields
/// Timeout on a bare call and Exhausted under a retry policy — never a
/// hang (the test itself would time out) and never a panic.
#[test]
fn stalls_produce_typed_errors() {
    let mut server = Server::spawn_chaotic(
        || |_body: RequestBody| ResponseBody::Pong,
        ChaosPolicy {
            seed: 1,
            stall_rate: 1.0,
            drop_rate: 0.0,
            stall: Duration::from_millis(400),
        },
    )
    .unwrap();
    let deadline = Duration::from_millis(50);
    let mut client = Client::connect_with_deadline(server.addr(), Some(deadline)).unwrap();
    match client.call(RequestBody::Ping).unwrap_err() {
        TransportError::Timeout { after } => assert_eq!(after, deadline),
        other => panic!("expected Timeout, got {other}"),
    }
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        deadline,
        seed: 3,
    };
    match client.call_retry(RequestBody::Ping, &policy).unwrap_err() {
        TransportError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 2);
            assert!(matches!(*last, TransportError::Timeout { .. }));
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    server.shutdown();
}

/// Same chaos seed, same fault sequence: two fresh servers with the same
/// hostile policy perturb an identical call sequence identically.
#[test]
fn chaotic_outcomes_are_seed_deterministic() {
    let run = |seed: u64| {
        let mut server = Server::spawn_chaotic(
            || |_body: RequestBody| ResponseBody::Pong,
            ChaosPolicy {
                seed,
                stall_rate: 0.0, // stalls depend on wall-clock deadlines; drops are exact
                drop_rate: 0.4,
                stall: Duration::ZERO,
            },
        )
        .unwrap();
        let mut client =
            Client::connect_with_deadline(server.addr(), Some(Duration::from_secs(2))).unwrap();
        let outcomes: Vec<bool> = (0..12)
            .map(|_| {
                let r = client.call(RequestBody::Ping).is_ok();
                if !r {
                    // Dropped connection: reconnect for the next call.
                    let _ = client.reconnect();
                }
                r
            })
            .collect();
        server.shutdown();
        outcomes
    };
    assert_eq!(run(17), run(17), "same seed, same drop pattern");
}
