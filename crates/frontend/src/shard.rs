//! What a sharded capture costs the fabric, read off its graph: the
//! functional plane of multi-device tensor/pipeline parallelism.
//!
//! A capture whose nodes carry a shard assignment (from capture-time
//! sharding) runs on the one interpreter like any other — sharding
//! changes *where* work is attributed and what traffic is accounted,
//! never the arithmetic. [`ShardExecReport::of`] attributes every node
//! to its shard, every cross-shard edge to fabric traffic and every
//! collective node ([`OpKind::AllReduce`], [`OpKind::AllGather`],
//! [`OpKind::SendActivation`]) to the collective count. Each term is an
//! edge's size or a node's operator, never a value, so a spec capture
//! (no payloads) is accounted exactly as a functional one.

use genie_srg::{NodeId, OpKind, Srg};
use std::collections::BTreeMap;

/// What one sharded run moves and where it runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardExecReport {
    /// Nodes executed per shard.
    pub nodes_per_shard: BTreeMap<u32, usize>,
    /// Bytes crossing shard boundaries, per `(from, to)` ordered pair.
    pub traffic: BTreeMap<(u32, u32), u64>,
    /// Collective ops executed (all_reduce + all_gather + send).
    pub collective_ops: u64,
    /// Bytes moved by collectives (their input payloads).
    pub collective_bytes: u64,
}

impl ShardExecReport {
    /// The report of running `srg` under the shard assignment `shard_of`
    /// (nodes absent from the map ride shard 0).
    pub fn of(srg: &Srg, shard_of: &BTreeMap<NodeId, u32>) -> Self {
        let shard = |id: NodeId| shard_of.get(&id).copied().unwrap_or(0);
        let mut report = ShardExecReport::default();
        for node in srg.nodes() {
            let to = shard(node.id);
            *report.nodes_per_shard.entry(to).or_insert(0) += 1;
            // Every in-edge whose producer lives on another shard is
            // fabric traffic: the payload must arrive before this node runs.
            for e in srg.in_edges(node.id) {
                let from = shard(e.src);
                if from != to {
                    *report.traffic.entry((from, to)).or_insert(0) += e.meta.size_bytes() as u64;
                }
            }
            if matches!(
                node.op,
                OpKind::AllReduce | OpKind::AllGather | OpKind::SendActivation
            ) {
                report.collective_ops += 1;
                report.collective_bytes += srg
                    .in_edges(node.id)
                    .map(|e| e.meta.size_bytes() as u64)
                    .sum::<u64>();
            }
        }
        report
    }

    /// Total bytes that crossed shard boundaries.
    pub fn cross_shard_bytes(&self) -> u64 {
        self.traffic.values().sum()
    }

    /// Number of shards that executed at least one node.
    pub fn active_shards(&self) -> usize {
        self.nodes_per_shard.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::ElemType;

    #[test]
    fn nodes_traffic_and_collectives_are_read_off_the_graph() {
        // No payloads: the report reads shapes and operators only.
        let ctx = CaptureCtx::new("shard.exec");
        let x = ctx.input("x", [2, 4], ElemType::F32, None);
        let w0 = ctx.parameter("w0", [4, 2], ElemType::F32, None);
        let w1 = ctx.parameter("w1", [4, 2], ElemType::F32, None);
        let p0 = x.matmul(&w0);
        let p1 = x.matmul(&w1);
        let y = ctx.all_gather(&[&p0, &p1], 1);
        y.mark_output();
        let cap = ctx.finish();

        // p1 on shard 1, everything else shard 0.
        let shard_of = BTreeMap::from([(p1.node, 1u32)]);
        let report = ShardExecReport::of(&cap.srg, &shard_of);
        assert_eq!(report.collective_ops, 1);
        // The gather reads two [2, 2] f32 partials.
        assert_eq!(report.collective_bytes, 32);
        // x and w1 → p1 (shard 0→1, 32 B each) and p1 → gather (1→0).
        assert_eq!(report.traffic, BTreeMap::from([((0, 1), 64), ((1, 0), 16)]));
        assert_eq!(report.active_shards(), 2);
        assert_eq!(report.nodes_per_shard[&1], 1);
    }
}
