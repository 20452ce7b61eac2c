//! A simulated network fabric over a cluster topology.
//!
//! [`Fabric`] instantiates one [`RpcChannel`] per host pair from a
//! [`Topology`], applying each pair's link parameters; a slow link is a
//! fault plan's derate ([`apply_fault_plan`](Fabric::apply_fault_plan)).
//! It is the network half of Genie's simulation backend; the compute half
//! lives in `genie-backend::sim`.

use crate::fault::FaultPlan;
use crate::link::LinkSim;
use crate::rpc::{RpcChannel, RpcParams};
use crate::time::Nanos;
use crate::trace::TraceEvent;
use genie_cluster::{HostId, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated fabric: per-host-pair RPC channels with shared parameters.
#[derive(Clone, Debug)]
pub struct Fabric {
    channels: BTreeMap<(HostId, HostId), RpcChannel>,
    /// Fault windows as trace marks, recorded when the plan is applied.
    fault_events: Vec<TraceEvent>,
}

impl Fabric {
    /// Build a fabric over `topo` using `params` for every channel.
    pub fn new(topo: &Topology, params: RpcParams) -> Self {
        let mut channels = BTreeMap::new();
        for &((a, b), link) in topo.links() {
            let sim = LinkSim::new(link.bandwidth_bytes(), Nanos::from_secs_f64(link.latency_s));
            channels.insert(ordered(a, b), RpcChannel::new(params.clone(), sim));
        }
        Fabric {
            channels,
            fault_events: Vec::new(),
        }
    }

    /// Install a fault plan: every link reads it for its own host pair,
    /// drawing jitter from a stream seeded `plan.seed ^ a << 32 ^ b`, and
    /// each fault window is recorded as a [`TraceEvent::Mark`] pair so
    /// exports show when the fabric was degraded. Applying a new plan
    /// replaces the previous one.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let shared = Arc::new(plan.clone());
        for (&(a, b), ch) in self.channels.iter_mut() {
            ch.link.set_faults(Arc::clone(&shared), a.0, b.0);
        }
        self.fault_events.clear();
        for spec in &plan.specs {
            let label = spec.label();
            match spec.window() {
                Some((from, until)) => {
                    self.fault_events.push(TraceEvent::Mark {
                        label: format!("{label} begin"),
                        at: from,
                    });
                    self.fault_events.push(TraceEvent::Mark {
                        label: format!("{label} end"),
                        at: until,
                    });
                }
                None => self.fault_events.push(TraceEvent::Mark {
                    label,
                    at: Nanos::ZERO,
                }),
            }
        }
    }

    /// Fault-window trace marks recorded by
    /// [`apply_fault_plan`](Self::apply_fault_plan) (push them into a
    /// [`Trace`](crate::Trace) alongside the run's events so exports
    /// attribute degradation windows).
    pub fn fault_events(&self) -> &[TraceEvent] {
        &self.fault_events
    }

    /// Total transmissions perturbed by injected faults across all links.
    pub fn faults_injected(&self) -> u64 {
        self.channels.values().map(|c| c.link.faults_hit).sum()
    }

    /// The channel between two hosts. Panics if the topology has no link
    /// between them (schedulers must only bind reachable placements).
    pub fn channel(&mut self, a: HostId, b: HostId) -> &mut RpcChannel {
        self.channels
            .get_mut(&ordered(a, b))
            .unwrap_or_else(|| panic!("no link between {a} and {b}"))
    }

    /// Immutable channel access.
    pub fn channel_ref(&self, a: HostId, b: HostId) -> Option<&RpcChannel> {
        self.channels.get(&ordered(a, b))
    }
}

fn ordered(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_from_paper_testbed() {
        let topo = Topology::paper_testbed();
        let mut f = Fabric::new(&topo, RpcParams::rdma_zero_copy());
        let c = f.channel(HostId(0), HostId(1));
        let t0 = c.ensure_session(Nanos::ZERO);
        c.call_sync(t0, 1_000, 1_000, Nanos::ZERO);
        assert_eq!(
            f.channel_ref(HostId(1), HostId(0)).unwrap().total_bytes(),
            2_000
        );
    }

    #[test]
    fn channel_lookup_symmetric() {
        let topo = Topology::paper_testbed();
        let f = Fabric::new(&topo, RpcParams::tuned_tcp());
        assert!(f.channel_ref(HostId(1), HostId(0)).is_some());
        assert!(f.channel_ref(HostId(0), HostId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn missing_link_panics() {
        let topo = Topology::paper_testbed();
        let mut f = Fabric::new(&topo, RpcParams::tuned_tcp());
        f.channel(HostId(0), HostId(5));
    }

    #[test]
    fn fault_plan_projects_onto_links() {
        use crate::fault::FaultSpec;
        let topo = Topology::paper_testbed();
        let mut f = Fabric::new(&topo, RpcParams::rdma_zero_copy());
        let plan = FaultPlan::new(
            7,
            vec![
                FaultSpec::Derate {
                    a: 0,
                    b: 1,
                    factor: 0.25,
                },
                FaultSpec::LinkDown {
                    a: 0,
                    b: 1,
                    from: Nanos::from_millis(1),
                    until: Nanos::from_millis(2),
                },
            ],
        );
        f.apply_fault_plan(&plan);
        // Four marks: derate (one) + link-down begin/end... derate has no
        // window so it is a single mark: 1 + 2 = 3.
        assert_eq!(f.fault_events().len(), 3);
        assert_eq!(f.faults_injected(), 0, "nothing transmitted yet");
        let c = f.channel(HostId(0), HostId(1));
        let t0 = c.ensure_session(Nanos::ZERO);
        c.call_sync(t0, 1_000_000, 0, Nanos::ZERO);
        assert!(f.faults_injected() > 0, "derated transmission counted");
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        let topo = Topology::paper_testbed();
        let run = |seed| {
            let mut f = Fabric::new(&topo, RpcParams::tuned_tcp());
            f.apply_fault_plan(&FaultPlan::generate(
                seed,
                topo.hosts().len() as u32,
                Nanos::from_secs_f64(30.0),
                6,
            ));
            let c = f.channel(HostId(0), HostId(1));
            let mut t = c.ensure_session(Nanos::ZERO);
            for _ in 0..5 {
                t = c
                    .call_sync(t, 1 << 20, 1 << 10, Nanos::from_millis(3))
                    .response_delivered;
            }
            (t, f.faults_injected())
        };
        assert_eq!(run(11), run(11), "same seed, same timeline");
    }
}
