//! Shard vocabulary over the SRG: the pipeline × tensor-parallel
//! [`ShardSpec`] every layer speaks, a node → shard [`Partition`], and
//! the lineage bridge for a lost shard.
//!
//! Shards are assigned where the structure is known — at capture time,
//! by `genie_models::sharded`, which also records the collectives as
//! first-class nodes. A [`Partition`] carries such an assignment to
//! [`shard_loss_replay`], the companion of [`crate::cut`]: losing a
//! shard is losing its nodes' outputs, and the replay cut names what
//! must re-execute and what survives to be fetched.

use crate::graph::Srg;
use crate::ids::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// How to shard a model: `pipeline_stages` contiguous layer blocks,
/// each split over `tensor_parallel` ranks. The linear shard id of
/// `(stage, rank)` is `stage * tensor_parallel + rank`; shard 0 is the
/// single-device case when both factors are 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Number of pipeline stages (contiguous layer blocks), ≥ 1.
    pub pipeline_stages: u32,
    /// Tensor-parallel ranks per stage (row/column-split matmuls), ≥ 1.
    pub tensor_parallel: u32,
}

impl ShardSpec {
    /// The unsharded single-device spec.
    pub fn single() -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: 1,
        }
    }

    /// Pure pipeline parallelism over `stages` stages.
    pub fn pipeline(stages: u32) -> Self {
        ShardSpec {
            pipeline_stages: stages,
            tensor_parallel: 1,
        }
    }

    /// Pure tensor parallelism over `ranks` ranks.
    pub fn tensor(ranks: u32) -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: ranks,
        }
    }

    /// Combined pipeline × tensor parallelism.
    pub fn new(pipeline_stages: u32, tensor_parallel: u32) -> Self {
        ShardSpec {
            pipeline_stages,
            tensor_parallel,
        }
    }

    /// Total shard (device) count.
    pub fn shards(&self) -> u32 {
        self.pipeline_stages * self.tensor_parallel
    }

    /// Linear shard id of `(stage, rank)`.
    pub fn shard_id(&self, stage: u32, rank: u32) -> u32 {
        stage * self.tensor_parallel + rank
    }

    /// Both factors must be ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.pipeline_stages == 0 || self.tensor_parallel == 0 {
            return Err(format!(
                "ShardSpec factors must be >= 1, got {} x {}",
                self.pipeline_stages, self.tensor_parallel
            ));
        }
        Ok(())
    }

    /// Compact label for reports: `"pp2xtp4"`.
    pub fn label(&self) -> String {
        format!("pp{}xtp{}", self.pipeline_stages, self.tensor_parallel)
    }
}

/// A total assignment of every node to exactly one linear shard id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The spec this partition realizes.
    pub spec: ShardSpec,
    /// Node → linear shard id; total over the partitioned graph.
    pub assignment: BTreeMap<NodeId, u32>,
}

impl Partition {
    /// Nodes assigned to `shard`, ascending.
    pub fn shard_nodes(&self, shard: u32) -> BTreeSet<NodeId> {
        self.assignment
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&n, _)| n)
            .collect()
    }
}

/// Lineage recovery for a severed shard: the replay cut when every
/// node on `shard` loses its outputs and everything on surviving
/// shards is still available.
pub fn shard_loss_replay(g: &Srg, part: &Partition, shard: u32) -> crate::cut::ReplayCut {
    let lost = part.shard_nodes(shard);
    let available: BTreeSet<NodeId> = g.node_ids().filter(|n| !lost.contains(n)).collect();
    crate::cut::replay_cut(g, &lost, &available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, TensorMeta};
    use crate::node::{Node, OpKind};

    #[test]
    fn spec_arithmetic() {
        let s = ShardSpec::new(2, 4);
        assert_eq!(s.shards(), 8);
        assert_eq!(s.shard_id(1, 3), 7);
        assert_eq!(ShardSpec::single().shards(), 1);
        assert!(ShardSpec::new(0, 2).validate().is_err());
        assert_eq!(s.label(), "pp2xtp4");
    }

    #[test]
    fn shard_loss_replays_only_the_lost_stage_cone() {
        // in → mm0 | mm1 → out, cut into two pipeline stages.
        let mut g = Srg::new("layered");
        let ids: Vec<NodeId> = [
            (OpKind::Input, "in"),
            (OpKind::MatMul, "mm0"),
            (OpKind::MatMul, "mm1"),
            (OpKind::Output, "out"),
        ]
        .into_iter()
        .map(|(op, name)| g.add_node(Node::new(NodeId::new(0), op, name)))
        .collect();
        for pair in ids.windows(2) {
            g.connect(pair[0], pair[1], TensorMeta::new([2, 4], ElemType::F32));
        }
        let part = Partition {
            spec: ShardSpec::pipeline(2),
            assignment: ids.iter().map(|&n| (n, n.index() as u32 / 2)).collect(),
        };
        let cut = shard_loss_replay(&g, &part, 1);
        // Losing stage 1 replays mm1 + out, fetching mm0's output.
        assert!(cut.replay.contains(&NodeId::new(2)));
        assert!(cut.frontier.contains(&NodeId::new(1)));
        assert!(!cut.replay.contains(&NodeId::new(1)));
    }
}
