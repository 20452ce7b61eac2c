//! Cluster topology: hosts, devices, and the links between them.

use crate::gpu::GpuSpec;
use std::collections::BTreeMap;

/// Identifies a host (server or client machine) in the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Identifies a device (GPU) in the topology. Matches
/// `genie_srg::DeviceId` numbering: the scheduler copies these values into
/// node bindings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DevId(pub u32);

impl std::fmt::Display for DevId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A host machine with zero or more accelerators.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Id within the topology.
    pub id: HostId,
    /// Human-readable name.
    pub name: String,
    /// Devices installed in this host (ids index into
    /// [`Topology::devices`]).
    pub devices: Vec<DevId>,
}

/// A device entry: the spec plus its owning host.
#[derive(Clone, Debug, PartialEq)]
pub struct Device {
    /// Id within the topology.
    pub id: DevId,
    /// Hardware specification.
    pub spec: GpuSpec,
    /// Owning host.
    pub host: HostId,
}

/// A network link: bits/s and one-way latency, the two numbers every
/// price of the wire reads. A topology edge, a serving lane's client,
/// fabric and migration links and a cost model's network are all this.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Usable bandwidth in bits/s.
    pub bandwidth_bps: f64,
    /// One-way propagation latency in seconds.
    pub latency_s: f64,
}

impl Link {
    /// The paper's evaluation link (§4): 25 Gbps, ~250 µs one way.
    pub const PAPER_TESTBED: Link = Link::new(25e9, 250e-6);

    /// A link of `bandwidth_bps` bits/s and `latency_s` seconds one way.
    pub const fn new(bandwidth_bps: f64, latency_s: f64) -> Self {
        Link {
            bandwidth_bps,
            latency_s,
        }
    }

    /// Usable bandwidth in bytes/s: the boundary where the byte-counting
    /// DES (`netsim::LinkSim`, `RpcParams` goodput) takes its rate.
    pub fn bandwidth_bytes(&self) -> f64 {
        self.bandwidth_bps / 8.0
    }
}

/// The wire's serialization term, spelled here only: seconds to clock
/// `bytes` onto a link of `bits_per_s`. Round latency, per-call overhead,
/// jitter and derating stay with the caller that means them.
#[inline]
pub fn serialization_s(bytes: f64, bits_per_s: f64) -> f64 {
    bytes * 8.0 / bits_per_s
}

/// The static cluster description handed to the scheduler as part of
/// `cluster_state` (§3.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Topology {
    hosts: Vec<Host>,
    devices: Vec<Device>,
    /// Each link with the two hosts it connects.
    links: Vec<((HostId, HostId), Link)>,
    /// Direct-link index for fast path lookup.
    link_index: BTreeMap<(HostId, HostId), usize>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            id,
            name: name.into(),
            devices: Vec::new(),
        });
        id
    }

    /// Install a device into `host`; returns its id.
    pub fn add_device(&mut self, host: HostId, spec: GpuSpec) -> DevId {
        let id = DevId(self.devices.len() as u32);
        self.devices.push(Device { id, spec, host });
        self.hosts[host.0 as usize].devices.push(id);
        id
    }

    /// Connect two hosts with a link.
    pub fn add_link(&mut self, a: HostId, b: HostId, link: Link) {
        self.link_index.insert(key(a, b), self.links.len());
        self.links.push(((a, b), link));
    }

    /// Host accessor.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Device accessor.
    pub fn device(&self, id: DevId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All links, each with its endpoints.
    pub fn links(&self) -> &[((HostId, HostId), Link)] {
        &self.links
    }

    /// The direct link between two hosts, if any.
    pub fn link_between(&self, a: HostId, b: HostId) -> Option<&Link> {
        self.link_index.get(&key(a, b)).map(|&i| &self.links[i].1)
    }

    /// The host where application (client) code runs is conventionally the
    /// first host added.
    pub fn client_host(&self) -> HostId {
        HostId(0)
    }

    /// The paper's evaluation setup (§4): a CPU-only client connected to an
    /// A100-80GB server through [`Link::PAPER_TESTBED`].
    pub fn paper_testbed() -> Topology {
        let mut t = Topology::new();
        let client = t.add_host("client");
        let server = t.add_host("gpu-server");
        t.add_device(server, GpuSpec::a100_80gb());
        t.add_link(client, server, Link::PAPER_TESTBED);
        t
    }

    /// A single-rack pool: one client plus `n` A100 servers behind one
    /// switch (modeled as pairwise links of equal bandwidth).
    pub fn rack(n: usize, bandwidth_bps: f64) -> Topology {
        let mut t = Topology::new();
        let client = t.add_host("client");
        let mut servers = Vec::new();
        for i in 0..n {
            let s = t.add_host(format!("gpu-server-{i}"));
            t.add_device(s, GpuSpec::a100_80gb());
            t.add_link(client, s, Link::new(bandwidth_bps, 250e-6));
            servers.push(s);
        }
        let server_link = Link::new(bandwidth_bps * 4.0, 100e-6);
        for i in 0..servers.len() {
            for j in i + 1..servers.len() {
                t.add_link(servers[i], servers[j], server_link);
            }
        }
        t
    }

    /// A heterogeneous fleet for §3.6 experiments: flagship, bandwidth-
    /// optimized, and inference-class devices across `n` hosts each.
    pub fn heterogeneous_fleet(n: usize, bandwidth_bps: f64) -> Topology {
        let mut t = Topology::new();
        let client = t.add_host("client");
        for (class, spec) in [
            ("flagship", GpuSpec::h100()),
            ("bwopt", GpuSpec::bandwidth_optimized()),
            ("infer", GpuSpec::l4()),
        ] {
            for i in 0..n {
                let s = t.add_host(format!("{class}-{i}"));
                t.add_device(s, spec.clone());
                t.add_link(client, s, Link::new(bandwidth_bps, 250e-6));
            }
        }
        t
    }
}

fn key(a: HostId, b: HostId) -> (HostId, HostId) {
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
    fn serialization_is_bits_over_rate() {
        assert_eq!(serialization_s(1e9, 8e9), 1.0);
        assert_eq!(serialization_s(0.0, 25e9), 0.0);
    }

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.hosts().len(), 2);
        assert_eq!(t.devices().len(), 1);
        let link = t.link_between(HostId(0), HostId(1)).unwrap();
        assert_eq!(*link, Link::new(25e9, 250e-6));
        assert_eq!(link.bandwidth_bytes(), 25e9 / 8.0);
        assert_eq!(t.links()[0].0, (HostId(0), HostId(1)));
    }

    #[test]
    fn link_lookup_is_symmetric() {
        let t = Topology::paper_testbed();
        assert!(t.link_between(HostId(1), HostId(0)).is_some());
        assert!(t.link_between(HostId(0), HostId(0)).is_none());
    }

    #[test]
    fn rack_connectivity() {
        let t = Topology::rack(3, 25e9);
        assert_eq!(t.devices().len(), 3);
        // Client to each server.
        for i in 1..=3 {
            assert!(t.link_between(HostId(0), HostId(i)).is_some());
        }
        // Server-to-server links are fatter.
        let ss = t.link_between(HostId(1), HostId(2)).unwrap();
        assert_eq!(ss.bandwidth_bps, 100e9);
    }

    #[test]
    fn heterogeneous_fleet_has_three_classes() {
        let t = Topology::heterogeneous_fleet(2, 25e9);
        assert_eq!(t.devices().len(), 6);
        let classes: std::collections::BTreeSet<_> =
            t.devices().iter().map(|d| d.spec.class).collect();
        assert_eq!(classes.len(), 3);
    }
}
