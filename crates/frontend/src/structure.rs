//! Structural annotation pass (the FX-pass analogue of §3.2).
//!
//! After raw capture, nodes already carry their dotted module paths. This
//! pass derives structure *from* those paths: which are repeated blocks
//! (e.g. `h.0 … h.27` transformer layers), and which nodes belong to each.
//! No scheduling decision reads it yet.

use genie_srg::{NodeId, Srg};
use std::collections::BTreeMap;

/// A repeated block family: a path prefix instantiated with numeric
/// suffixes (`h.0`, `h.1`, …) — the structural signature of stacked
/// layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepeatedBlock {
    /// The common prefix, e.g. `"h"`.
    pub prefix: String,
    /// Instance indices found, sorted.
    pub instances: Vec<usize>,
    /// Nodes per instance, parallel to `instances`.
    pub members: Vec<Vec<NodeId>>,
}

/// Detect repeated block families from module paths. A family needs at
/// least two numeric instances to count as "repeated".
pub fn repeated_blocks(srg: &Srg) -> Vec<RepeatedBlock> {
    // Map prefix → (index → members).
    let mut families: BTreeMap<String, BTreeMap<usize, Vec<NodeId>>> = BTreeMap::new();
    for node in srg.nodes() {
        let segments: Vec<&str> = node.module_path.split('.').collect();
        for w in 0..segments.len().saturating_sub(0) {
            if let Ok(idx) = segments[w].parse::<usize>() {
                if w > 0 {
                    let prefix = segments[..w].join(".");
                    families
                        .entry(prefix)
                        .or_default()
                        .entry(idx)
                        .or_default()
                        .push(node.id);
                }
                break; // only the first numeric segment defines the family
            }
        }
    }
    families
        .into_iter()
        .filter(|(_, by_idx)| by_idx.len() >= 2)
        .map(|(prefix, by_idx)| {
            let instances: Vec<usize> = by_idx.keys().copied().collect();
            let members: Vec<Vec<NodeId>> = by_idx.into_values().collect();
            RepeatedBlock {
                prefix,
                instances,
                members,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::ElemType;

    fn layered_capture(layers: usize) -> Srg {
        let ctx = CaptureCtx::new("g");
        let mut x = ctx.input("x", [2, 4], ElemType::F32, None);
        ctx.scope("model", || {
            for i in 0..layers {
                x = ctx.scope("h", || {
                    ctx.scope(&i.to_string(), || {
                        let w = ctx.parameter(&format!("w{i}"), [4, 4], ElemType::F32, None);
                        x.matmul(&w).relu()
                    })
                });
            }
        });
        x.mark_output();
        ctx.finish().srg
    }

    #[test]
    fn repeated_blocks_found() {
        let srg = layered_capture(3);
        let blocks = repeated_blocks(&srg);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].prefix, "model.h");
        assert_eq!(blocks[0].instances, vec![0, 1, 2]);
        // Each layer contributed w, matmul, relu.
        assert_eq!(blocks[0].members[0].len(), 3);
    }

    #[test]
    fn single_instance_is_not_repeated() {
        let srg = layered_capture(1);
        assert!(repeated_blocks(&srg).is_empty());
    }
}
