//! The codec against its golden frames and against hostile bytes.
//!
//! `golden/frames.txt` holds one framed message per body variant, requests
//! without and with a trace context, as rendered by the codec before it
//! moved off the `bytes` crate: the wire format is those bytes. Everything
//! else here feeds the decoders what a peer could send instead — lengths
//! and counts that lie, frames cut short, noise — and wants a typed error
//! back, never a panic and never an allocation sized by the lie.

use genie_netsim::XorShift64;
use genie_telemetry::causal::TraceCtx;
use genie_transport::frame::{read_frame, write_frame};
use genie_transport::{
    Client, Request, RequestBody, Response, ResponseBody, Server, TensorPayload, TransportError,
};
use std::net::TcpStream;

const GOLDEN: &str = include_str!("golden/frames.txt");

/// Where a length, count (`width` 4) or rank (`width` 1) sits in a message
/// body, counted from the byte after the tag, and what it holds.
type Prefix = (usize, usize, u32);

/// One body of every request variant with the prefixes in its encoding.
fn request_bodies() -> Vec<(&'static str, RequestBody, Vec<Prefix>)> {
    vec![
        ("ping", RequestBody::Ping, vec![]),
        (
            "upload",
            RequestBody::Upload {
                key: 7,
                tensor: TensorPayload::from_f32(vec![2, 2], &[1.0, 2.0, 3.0, 4.0]),
            },
            // key 8, kind 1 | rank | dims 8 | data length
            vec![(9, 1, 2), (18, 4, 16)],
        ),
        (
            "execute",
            RequestBody::Execute {
                srg_json: "{\"name\":\"g\"}".into(),
                bindings: vec![(0, TensorPayload::from_i64(vec![3], &[1, 2, 3]))],
                handle_bindings: vec![(1, 99, 2)],
                fetch: vec![5, 6],
                pin: vec![(7, 1000)],
            },
            vec![
                (0, 4, 12),  // graph length, 12 bytes
                (16, 4, 1),  // bindings: node 4, kind 1
                (25, 1, 1),  // rank, dim 4
                (30, 4, 24), // data length, 24 bytes
                (58, 4, 1),  // handle bindings, 20 bytes each
                (82, 4, 2),  // fetch, 4 bytes each
                (94, 4, 1),  // pin
            ],
        ),
        ("fetch", RequestBody::Fetch { key: 1 }, vec![]),
        ("release", RequestBody::Release { key: u64::MAX }, vec![]),
        ("crash", RequestBody::Crash, vec![]),
    ]
}

/// One body of every response variant with the prefixes in its encoding.
fn response_bodies() -> Vec<(&'static str, ResponseBody, Vec<Prefix>)> {
    vec![
        ("pong", ResponseBody::Pong, vec![]),
        ("ok", ResponseBody::Ok, vec![]),
        ("handle", ResponseBody::Handle { key: 3, epoch: 9 }, vec![]),
        (
            "tensors",
            ResponseBody::Tensors(vec![
                TensorPayload::from_f32(vec![1], &[5.0]),
                TensorPayload::from_i64(vec![2], &[-1, 1]),
            ]),
            vec![(0, 4, 2), (5, 1, 1), (10, 4, 4), (19, 1, 1), (24, 4, 16)],
        ),
        (
            "execute_result",
            ResponseBody::ExecuteResult {
                tensors: vec![TensorPayload::from_f32(vec![1], &[2.5])],
                handles: vec![(9, 1), (10, 1)],
            },
            vec![(0, 4, 1), (5, 1, 1), (10, 4, 4), (18, 4, 2)],
        ),
        ("error", ResponseBody::Error("boom".into()), vec![(0, 4, 4)]),
    ]
}

/// A valid encoding, the frame written from its gathered parts, the
/// decoder it is for, and its prefixes by offset from the start of the
/// message.
struct Case {
    name: String,
    bytes: Vec<u8>,
    written: Vec<u8>,
    decode: fn(Vec<u8>) -> Result<(), TransportError>,
    prefixes: Vec<Prefix>,
}

fn decode_request(bytes: Vec<u8>) -> Result<(), TransportError> {
    Request::decode(bytes.into()).map(drop)
}

fn decode_response(bytes: Vec<u8>) -> Result<(), TransportError> {
    Response::decode(bytes.into()).map(drop)
}

/// What `write_frame` sends for `parts`.
fn written(parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, parts).unwrap();
    out
}

/// Every variant encoded, checked on the way to decode back to itself.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let ctx = TraceCtx {
        request: 1337,
        parent_span: 55,
    };
    for (traced, trace) in [("", None), ("+trace", Some(ctx))] {
        // id 8, presence byte, context 16 when present, tag.
        let body_at = if trace.is_some() { 26 } else { 10 };
        for (name, body, prefixes) in request_bodies() {
            let request = Request {
                id: 42,
                trace,
                body,
            };
            let bytes = request.encode().unwrap().to_vec();
            assert_eq!(Request::decode(bytes.clone().into()).unwrap(), request);
            cases.push(Case {
                name: format!("request.{name}{traced}"),
                bytes,
                written: written(&request.to_frame().unwrap().parts()),
                decode: decode_request,
                prefixes: prefixes
                    .into_iter()
                    .map(|(at, width, value)| (body_at + at, width, value))
                    .collect(),
            });
        }
    }
    for (name, body, prefixes) in response_bodies() {
        let response = Response { id: 8, body };
        let bytes = response.encode().unwrap().to_vec();
        assert_eq!(Response::decode(bytes.clone().into()).unwrap(), response);
        cases.push(Case {
            name: format!("response.{name}"),
            bytes,
            written: written(&response.to_frame().unwrap().parts()),
            decode: decode_response,
            // id 8, tag.
            prefixes: prefixes
                .into_iter()
                .map(|(at, width, value)| (9 + at, width, value))
                .collect(),
        });
    }
    cases
}

#[test]
fn long_sequences_of_the_shortest_items_round_trip() {
    // A sequence is refused when its count times the shortest encoding of
    // an item exceeds the bytes left. Were a decoder to take that shortest
    // encoding for longer than it is, this is where it would show: one
    // sequence at a time, many items, each as short as it can be, and
    // next to nothing behind them.
    let empty = || TensorPayload::from_f32(vec![], &[]);
    let execute = |bindings, handle_bindings, fetch, pin| RequestBody::Execute {
        srg_json: String::new(),
        bindings,
        handle_bindings,
        fetch,
        pin,
    };
    for (body, item_bytes) in [
        (
            execute(
                (0..64).map(|n| (n, empty())).collect(),
                vec![],
                vec![],
                vec![],
            ),
            10,
        ),
        (
            execute(vec![], (0..64).map(|n| (n, 2, 3)).collect(), vec![], vec![]),
            20,
        ),
        (execute(vec![], vec![], (0..64).collect(), vec![]), 4),
        (
            execute(vec![], vec![], vec![], (0..64).map(|n| (n, 4)).collect()),
            12,
        ),
    ] {
        let request = Request {
            id: 1,
            trace: None,
            body,
        };
        let bytes = request.encode().unwrap();
        // id, presence byte, tag, graph length, four counts.
        assert_eq!(bytes.len(), 8 + 1 + 1 + 4 + 4 * 4 + 64 * item_bytes);
        assert_eq!(Request::decode(bytes).unwrap(), request);
    }
    for body in [
        ResponseBody::Tensors((0..64).map(|_| empty()).collect()),
        ResponseBody::ExecuteResult {
            tensors: (0..64).map(|_| empty()).collect(),
            handles: vec![],
        },
        ResponseBody::ExecuteResult {
            tensors: vec![],
            handles: (0..64).map(|key| (key, 5)).collect(),
        },
    ] {
        let response = Response { id: 1, body };
        assert_eq!(
            Response::decode(response.encode().unwrap()).unwrap(),
            response
        );
    }
}

#[test]
fn every_variant_round_trips_and_matches_its_golden_frame() {
    let mut rendered = String::new();
    for case in cases() {
        let frame = written(&[&case.bytes]);
        assert_eq!(
            &read_frame(&mut frame.as_slice()).unwrap()[..],
            &case.bytes[..]
        );
        // Written from its parts, payloads by handle, the frame is the same.
        assert_eq!(case.written, frame, "{}", case.name);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        rendered.push_str(&format!("{} {hex}\n", case.name));
    }
    assert!(
        rendered == GOLDEN,
        "the wire format moved; rendered frames:\n{rendered}"
    );
}

/// `bytes` with the `width` bytes at `at` replaced by `value`, big-endian.
fn overwritten(bytes: &[u8], at: usize, width: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + width].copy_from_slice(&value.to_be_bytes()[4 - width..]);
    out
}

/// The frame that used to abort the process, 18 bytes in all: an `Execute`
/// with an empty graph and 2^32 - 1 bindings, which the decoder sized a
/// vector for before reading the first of them.
fn abort_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u64.to_be_bytes()); // id
    frame.push(0); // no trace context
    frame.push(2); // Execute
    frame.extend_from_slice(&0u32.to_be_bytes()); // graph: ""
    frame.extend_from_slice(&u32::MAX.to_be_bytes()); // bindings
    assert_eq!(frame.len(), 18);
    frame
}

#[test]
fn lengths_and_counts_that_lie_are_refused() {
    assert!(matches!(
        decode_request(abort_frame()),
        Err(TransportError::Codec(_))
    ));

    for case in cases() {
        let len = case.bytes.len();
        for &(at, width, value) in &case.prefixes {
            let held = &case.bytes[at..at + width];
            assert_eq!(
                held,
                &value.to_be_bytes()[4 - width..],
                "{}: no prefix holding {value} at {at}",
                case.name
            );
            let left = (len - at - width) as u32;
            // The largest value the field can hold, and the smallest that
            // the bytes behind it cannot: one byte too many for a length,
            // one 4-byte dim too many for a rank.
            let lies = match width {
                4 => [u32::MAX, left + 1],
                _ => [u32::from(u8::MAX), left / 4 + 1],
            };
            for lie in lies {
                let hostile = overwritten(&case.bytes, at, width, lie);
                assert!(
                    matches!((case.decode)(hostile), Err(TransportError::Codec(_))),
                    "{}: {lie} at {at} was believed",
                    case.name
                );
            }
        }
        // The same two lies wherever else they can land: whatever the
        // decoder makes of them, it returns.
        for at in 0..len.saturating_sub(3) {
            for lie in [u32::MAX, (len - at - 4) as u32 + 1] {
                let _ = (case.decode)(overwritten(&case.bytes, at, 4, lie));
            }
        }
    }
}

#[test]
fn a_message_cut_short_anywhere_is_an_error() {
    for case in cases() {
        for keep in 0..case.bytes.len() {
            assert!(
                (case.decode)(case.bytes[..keep].to_vec()).is_err(),
                "{}: decoded from its first {keep} bytes",
                case.name
            );
        }
    }
}

#[test]
fn noise_never_panics_a_decoder() {
    let mut rng = XorShift64::new(0xC0DEC);
    for _ in 0..10_000 {
        let len = rng.next_below(97) as usize;
        let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_request(noise.clone());
        let _ = decode_response(noise);
    }
    // Noise rarely gets past the tag; a valid message with a few bytes
    // overwritten reaches every field.
    let cases = cases();
    for _ in 0..10_000 {
        let case = &cases[rng.next_below(cases.len() as u64) as usize];
        let mut bytes = case.bytes.clone();
        for _ in 0..=rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
        }
        let _ = (case.decode)(bytes);
    }
}

#[test]
fn a_hostile_frame_costs_its_sender_the_connection_and_nobody_else() {
    let server = Server::spawn(|| |_body: RequestBody| ResponseBody::Pong).unwrap();
    // No other test in this binary opens a socket, so the count is exact.
    let server_errors = || {
        let snapshot = genie_telemetry::global().metrics.snapshot();
        let counted = snapshot.counter("genie_transport_errors_total", &[("role", "server")]);
        counted.unwrap_or(0)
    };
    let before = server_errors();
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut hostile, &[&abort_frame()]).unwrap();
    // The server hangs up on the sender…
    assert!(matches!(
        read_frame(&mut hostile),
        Err(TransportError::ConnectionClosed | TransportError::Io(_))
    ));
    // …having counted the frame it could not decode…
    assert_eq!(server_errors(), before + 1);
    // …and is still there for everybody else.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.call(RequestBody::Ping).unwrap(), ResponseBody::Pong);
}
