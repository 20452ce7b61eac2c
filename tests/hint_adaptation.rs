//! Integration: the §3.3 hint-adaptation loop closed over real sockets —
//! measured RTTs from the live transport feed the scheduler's cost model.

use genie::backend::spawn_server;
use genie::backend::RemoteSession;
use genie::scheduler::adapt::HintAdapter;
use genie::scheduler::CostModel;
use genie::transport::{Client, RequestBody, ResponseBody};

#[test]
fn real_rtt_probes_update_the_cost_model() {
    let (server, _exec) = spawn_server().unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut adapter = HintAdapter::new();
    for _ in 0..20 {
        let start = std::time::Instant::now();
        let pong = client.call(RequestBody::Ping).expect("ping");
        assert_eq!(pong, ResponseBody::Pong);
        adapter.observe_rtt(start.elapsed().as_secs_f64());
    }
    let measured = adapter.rtt().expect("samples folded");
    // Loopback pings are fast but nonzero.
    assert!(measured > 0.0);
    assert!(measured < 0.1, "loopback RTT {measured}s");

    // Applying the measurement rewires the model's latency term.
    let mut cost = CostModel::ideal_25g();
    let prior = cost.link.latency_s;
    adapter.apply(&mut cost);
    assert!((cost.link.latency_s - measured / 2.0).abs() < 1e-9);
    assert_ne!(cost.link.latency_s, prior);
}

#[test]
fn observed_transfers_update_goodput() {
    let (server, _exec) = spawn_server().unwrap();
    let mut session = RemoteSession::connect(server.addr()).unwrap();

    // Time a real 4 MB upload and feed the observation to the adapter.
    let payload = genie::frontend::Value::F(genie::tensor::Tensor::zeros(vec![1 << 20]));
    let before = session.traffic_bytes();
    let start = std::time::Instant::now();
    session.upload_pinned("blob", &payload).expect("upload");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let moved = session.traffic_bytes() - before;

    let mut adapter = HintAdapter::new();
    adapter.observe_transfer(moved, elapsed);
    let goodput = adapter.bandwidth().expect("observed");
    assert!(goodput > 0.0);

    let mut cost = CostModel::ideal_25g();
    adapter.apply(&mut cost);
    assert_eq!(cost.link.bandwidth_bps, goodput);
}
