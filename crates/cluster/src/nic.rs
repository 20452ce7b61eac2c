//! Network interface specifications.

/// Static description of a NIC. Genie's architecture supports commodity
/// clients (no RNIC) talking to RNIC-equipped disaggregated servers; when
/// both ends support RDMA and the server supports GPUDirect, the datapath
/// is NIC-to-GPU zero-copy (§3.4).
#[derive(Clone, Debug, PartialEq)]
pub struct NicSpec {
    /// Marketing name, e.g. `"CX-6 25GbE"`.
    pub name: String,
    /// Whether the NIC supports RDMA (RoCE/InfiniBand).
    pub rdma: bool,
    /// Whether the NIC+host support GPUDirect DMA into device memory.
    pub gpudirect: bool,
}

impl NicSpec {
    /// Commodity 25 GbE NIC without RDMA — the paper's client NIC.
    pub fn commodity_25g() -> Self {
        NicSpec {
            name: "25GbE".into(),
            rdma: false,
            gpudirect: false,
        }
    }

    /// RDMA-capable 100 GbE NIC with GPUDirect — the disaggregated-server
    /// NIC.
    pub fn rnic_100g() -> Self {
        NicSpec {
            name: "CX-7 100GbE".into(),
            rdma: true,
            gpudirect: true,
        }
    }
}
