//! Explicit annotation hooks and the finalization pass.
//!
//! This module is the last tier of the capture pipeline (§3.2): explicit
//! developer hooks for novel architectures, then a finalization pass that
//! derives edge-level annotations (rates, criticality) from the completed
//! node-level ones. After `finalize`, the SRG satisfies the full §3.1
//! contract and is ready for a scheduler.

use genie_srg::{Phase, Rate, Srg};

/// Explicitly tag every node under `module_prefix` with a phase — the
/// `genie.annotate_phase(self.decoder, "decode")` hook from the paper.
/// Overwrites recognizer output (developer hints are authoritative).
/// Returns the number of nodes tagged.
pub fn annotate_phase(srg: &mut Srg, module_prefix: &str, phase: Phase) -> usize {
    let mut count = 0;
    for node in srg.nodes_mut() {
        if node.module_path == module_prefix
            || node
                .module_path
                .strip_prefix(module_prefix)
                .is_some_and(|rest| rest.starts_with('.'))
        {
            node.phase = phase.clone();
            count += 1;
        }
    }
    count
}

/// Finalization pass:
///
/// 1. stamps the producer→consumer [`Rate`] of every edge with its
///    payload's size (the bandwidth-reservation input of §3.1);
/// 2. marks critical-path edges via the SRG's cost hints.
///
/// `bytes_per_flop` prices data movement against compute when ranking
/// paths; the scheduler derives it from the active link and device specs.
pub fn finalize(srg: &mut Srg, bytes_per_flop: f64) {
    for edge in srg.parts_mut().1 {
        edge.rate = Rate::passthrough(edge.meta.size_bytes() as f64);
    }
    let _ = genie_srg::critical_path::mark_criticality(srg, bytes_per_flop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::{Criticality, ElemType};

    #[test]
    fn explicit_phase_overrides_subtree() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 4], ElemType::F32, None);
        let y = ctx.scope("decoder", || ctx.scope("mlp", || x.relu()));
        let z = ctx.scope("encoder", || y.relu());
        z.mark_output();
        let mut srg = ctx.finish().srg;
        let n = annotate_phase(&mut srg, "decoder", Phase::LlmDecode);
        assert_eq!(n, 1);
        assert_eq!(srg.node(y.node).phase, Phase::LlmDecode);
        assert_eq!(srg.node(z.node).phase, Phase::Unknown);
    }

    #[test]
    fn prefix_matching_respects_boundaries() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 4], ElemType::F32, None);
        let a = ctx.scope("dec", || x.relu());
        let b = ctx.scope("decoder", || x.relu());
        a.mark_output();
        b.mark_output();
        let mut srg = ctx.finish().srg;
        annotate_phase(&mut srg, "dec", Phase::LlmDecode);
        assert_eq!(srg.node(a.node).phase, Phase::LlmDecode);
        assert_eq!(
            srg.node(b.node).phase,
            Phase::Unknown,
            "'decoder' must not match prefix 'dec'"
        );
    }

    #[test]
    fn finalize_sets_rates_and_criticality() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.input("a", [4, 4], ElemType::F32, None);
        let w = ctx.parameter("w", [4, 4], ElemType::F32, None);
        let y = a.matmul(&w);
        y.mark_output();
        let mut srg = ctx.finish().srg;
        finalize(&mut srg, 1.0);
        assert!(srg.edges().all(|e| e.rate.produced_bytes > 0.0));
        assert!(
            srg.edges().any(|e| e.criticality == Criticality::Critical),
            "some edge must be on the critical path"
        );
    }
}
