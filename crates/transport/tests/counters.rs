//! The transport's traffic counters against the client's own accounting.
//!
//! The client and server hold their counter handles rather than look them
//! up per call; this checks that what they add is what crossed the wire.
//! The registry is process-global, so this file holds one test: nothing
//! else in its binary moves a transport counter.

use genie_transport::{Client, RequestBody, ResponseBody, Server, TensorPayload};

fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    let snapshot = genie_telemetry::global().metrics.snapshot();
    snapshot.counter(name, labels).unwrap_or(0)
}

/// `(client tx, client rx, server rx, server tx, client calls, server calls)`.
fn counters() -> [u64; 6] {
    let bytes = "genie_transport_bytes_total";
    let calls = "genie_transport_calls_total";
    [
        counter(bytes, &[("role", "client"), ("dir", "tx")]),
        counter(bytes, &[("role", "client"), ("dir", "rx")]),
        counter(bytes, &[("role", "server"), ("dir", "rx")]),
        counter(bytes, &[("role", "server"), ("dir", "tx")]),
        counter(calls, &[("role", "client")]),
        counter(calls, &[("role", "server")]),
    ]
}

#[test]
fn counters_move_by_exactly_the_bytes_and_calls_on_the_wire() {
    let tensor = TensorPayload::from_f32(vec![64], &[0.5; 64]);
    let fetched = tensor.clone();
    let server = Server::spawn(move || {
        let fetched = fetched.clone();
        move |body: RequestBody| match body {
            RequestBody::Upload { key, .. } => ResponseBody::Handle { key, epoch: 0 },
            RequestBody::Fetch { .. } => ResponseBody::Tensors(vec![fetched.clone()]),
            _ => ResponseBody::Pong,
        }
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let before = counters();
    let (sent, received) = (client.bytes_sent, client.bytes_received);
    client.call(RequestBody::Ping).unwrap();
    client.call(RequestBody::Upload { key: 1, tensor }).unwrap();
    client.call(RequestBody::Fetch { key: 1 }).unwrap();
    let after = counters();
    let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();

    let (sent, received) = (client.bytes_sent - sent, client.bytes_received - received);
    // Both payloads crossed, each with its framing.
    assert!(sent > 256 && received > 256, "{sent} {received}");
    assert_eq!(moved, [sent, received, sent, received, 3, 3]);
}
