//! Placement policies — the pluggable half of `schedule()`.
//!
//! A policy maps each SRG node to a [`Location`]. Everything else
//! (transfer derivation, handle reuse, cost estimation) is shared
//! machinery in [`mod@crate::schedule`], so policies stay small and
//! comparable. The four built-ins span the design space of §2.2:
//!
//! | policy | §2.2 characterization |
//! |---|---|
//! | [`RoundRobin`] | semantically blind: ops independent *and* identical |
//! | [`LeastLoaded`] | semantically blind with load awareness |
//! | [`DataAware`] | ops independent but *not* identical (ΔKV-grade) |
//! | [`SemanticsAware`] | full SRG semantics (Genie) |

mod data_aware;
mod least_loaded;
mod round_robin;
mod semantics_aware;
mod sharded;

pub use data_aware::DataAware;
pub use least_loaded::LeastLoaded;
pub use round_robin::RoundRobin;
pub use semantics_aware::SemanticsAware;
pub use sharded::Sharded;

use crate::plan::Location;
use crate::view::ClusterView;
use genie_srg::{NodeId, Srg};

/// A placement policy.
pub trait Policy {
    /// Stable policy name (appears in plans and reports).
    fn name(&self) -> &'static str;

    /// Assign a location to every node, indexed by [`NodeId::index`].
    fn place(&self, srg: &Srg, view: &ClusterView<'_>) -> Vec<Location>;
}

/// Shared helper: sources (inputs and weights) on the client, each compute
/// node where `compute_loc` decides, asked in topological order.
pub(crate) fn place_with(
    srg: &Srg,
    mut compute_loc: impl FnMut(NodeId) -> Location,
) -> Vec<Location> {
    // Sources stay on the client. Everything the client holds — model
    // inputs AND weights — originates there. Weight edges to remote
    // consumers therefore cross the network, where the shared transfer
    // derivation turns them into one-time pinned uploads (a second
    // consumer on the same device goes by handle). This is what makes
    // "re-upload versus pin"
    // an observable cost rather than an accounting fiction.
    let mut placements = vec![Location::ClientCpu; srg.node_count()];
    for id in genie_srg::traverse::topo_order(srg).expect("valid SRG") {
        if !srg.node(id).op.is_source() {
            placements[id.index()] = compute_loc(id);
        }
    }
    placements
}

#[cfg(test)]
pub(crate) mod testutil {
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::{ElemType, Srg};

    /// A 4-layer matmul chain with weights: enough structure for placement
    /// tests.
    pub fn chain_graph() -> Srg {
        let ctx = CaptureCtx::new("chain");
        let mut x = ctx.input("x", [1, 8], ElemType::F32, None);
        for i in 0..4 {
            let w = ctx.parameter(&format!("w{i}"), [8, 8], ElemType::F32, None);
            x = x.matmul(&w).relu();
        }
        x.mark_output();
        ctx.finish().srg
    }
}
