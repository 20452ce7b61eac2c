//! Multi-flow contention: FIFO links serialize concurrent tenants, and
//! the channel abstraction preserves conservation of bytes and time.

use genie_cluster::{HostId, Topology};
use genie_netsim::{Fabric, FaultPlan, FaultSpec, LinkSim, Nanos, RpcChannel, RpcParams};

#[test]
fn two_tenants_on_one_link_serialize() {
    let link = LinkSim::new(25e9 / 8.0, Nanos::from_micros(250));
    let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
    let t0 = ch.ensure_session(Nanos::ZERO);

    // Tenant A and tenant B both issue 1 GB transfers at the same time.
    let a = ch.send_oneway(t0, 1_000_000_000);
    let b = ch.send_oneway(t0, 1_000_000_000);
    // B's delivery starts only after A's serialization window.
    let gb_time = 1_000_000_000.0 / (25e9 / 8.0);
    assert!((a.as_secs_f64() - t0.as_secs_f64() - gb_time - 250e-6).abs() < 1e-3);
    assert!(
        b.as_secs_f64() >= a.as_secs_f64() + gb_time - 1e-3,
        "B must queue behind A: {} vs {}",
        b.as_secs_f64(),
        a.as_secs_f64()
    );
    assert_eq!(ch.total_bytes(), 2_000_000_000);
}

#[test]
fn separate_links_do_not_interfere() {
    let topo = Topology::rack(2, 25e9);
    let mut fabric = Fabric::new(&topo, RpcParams::rdma_zero_copy());
    let client = HostId(0);

    let t0a = fabric
        .channel(client, HostId(1))
        .ensure_session(Nanos::ZERO);
    let t0b = fabric
        .channel(client, HostId(2))
        .ensure_session(Nanos::ZERO);
    let a = fabric
        .channel(client, HostId(1))
        .send_oneway(t0a, 1_000_000_000);
    let b = fabric
        .channel(client, HostId(2))
        .send_oneway(t0b, 1_000_000_000);
    // Distinct links: both complete in one transfer time, not two.
    let gb_time = 1_000_000_000.0 / (25e9 / 8.0);
    assert!((a.as_secs_f64() - t0a.as_secs_f64()) < gb_time * 1.05);
    assert!((b.as_secs_f64() - t0b.as_secs_f64()) < gb_time * 1.05);
}

/// A slow link is a fault plan's derate: at half the line rate the
/// serialization time doubles.
#[test]
fn a_derate_scales_completion_times_proportionally() {
    let topo = Topology::paper_testbed();
    let run = |specs: Vec<FaultSpec>| {
        let mut fabric = Fabric::new(&topo, RpcParams::rdma_zero_copy());
        fabric.apply_fault_plan(&FaultPlan::new(1, specs));
        let ch = fabric.channel(HostId(0), HostId(1));
        let bandwidth = ch.link.effective_bandwidth();
        let t0 = ch.ensure_session(Nanos::ZERO);
        (bandwidth, ch.link.transmit(t0, 3_125_000_000).sent - t0)
    };
    let (clear_bw, clear) = run(Vec::new());
    let (half_bw, half) = run(vec![FaultSpec::Derate {
        a: 0,
        b: 1,
        factor: 0.5,
    }]);
    assert_eq!(half_bw, clear_bw * 0.5);
    assert!((clear.as_secs_f64() - 1.0).abs() < 1e-6, "{clear:?}");
    assert!((half.as_secs_f64() - 2.0).abs() < 1e-6, "{half:?}");
}

#[test]
fn interleaved_small_and_large_transfers_preserve_order() {
    let link = LinkSim::new(1e9, Nanos::ZERO);
    let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
    let t0 = ch.ensure_session(Nanos::ZERO);
    let big = ch.send_oneway(t0, 1_000_000_000); // 1 s
    let tiny = ch.send_oneway(t0, 1_000); // queued behind
    assert!(tiny > big, "FIFO: the tiny message waits (head-of-line)");
    // This head-of-line blocking is precisely why the §3.1 criticality
    // annotation exists: a scheduler that knows the tiny transfer is
    // critical issues it first.
    let link = LinkSim::new(1e9, Nanos::ZERO);
    let mut ch = RpcChannel::new(RpcParams::rdma_zero_copy(), link);
    let t0 = ch.ensure_session(Nanos::ZERO);
    let tiny_first = ch.send_oneway(t0, 1_000);
    let _big = ch.send_oneway(t0, 1_000_000_000);
    assert!(tiny_first < big, "reordering rescues the critical message");
}
