//! Sharded execution of a captured graph: the functional plane of
//! multi-device tensor/pipeline parallelism.
//!
//! [`execute_sharded`] runs a capture whose nodes carry a shard
//! assignment (from capture-time sharding) exactly like the sequential
//! reference interpreter — same kernels, same topological order, so
//! values are bit-identical to [`crate::interp::execute_sequential`] by
//! construction — while attributing every node to its shard and
//! accounting every cross-shard edge as fabric traffic. Collective
//! nodes ([`OpKind::AllReduce`], [`OpKind::AllGather`],
//! [`OpKind::SendActivation`]) are recorded as `collective.*` telemetry
//! spans with per-op byte counts, the observable the blame layer and
//! the netsim pricing both key on.

use crate::interp::{eval_node, InterpError};
use crate::value::Value;
use genie_srg::{NodeId, OpKind, Srg};
use std::collections::{BTreeMap, HashMap};

/// What one sharded run did, beyond the values themselves.
#[derive(Clone, Debug, Default)]
pub struct ShardExecReport {
    /// Nodes executed per shard.
    pub nodes_per_shard: BTreeMap<u32, usize>,
    /// Bytes crossing shard boundaries, per `(from, to)` ordered pair.
    pub traffic: BTreeMap<(u32, u32), u64>,
    /// Collective ops executed (all_reduce + all_gather + send).
    pub collective_ops: u64,
    /// Bytes moved by collectives (their output payloads).
    pub collective_bytes: u64,
}

impl ShardExecReport {
    /// Total bytes that crossed shard boundaries.
    pub fn cross_shard_bytes(&self) -> u64 {
        self.traffic.values().sum()
    }

    /// Number of shards that executed at least one node.
    pub fn active_shards(&self) -> usize {
        self.nodes_per_shard.len()
    }
}

/// Execute `srg` under the shard assignment `shard_of` (nodes absent
/// from the map ride shard 0). Kernel-for-kernel identical to the
/// sequential reference interpreter — sharding changes *where* work is
/// attributed and what traffic is accounted, never the arithmetic — so
/// the returned values are bit-for-bit the oracle's.
pub fn execute_sharded(
    srg: &Srg,
    bindings: &HashMap<NodeId, Value>,
    shard_of: &BTreeMap<NodeId, u32>,
) -> Result<(HashMap<NodeId, Value>, ShardExecReport), InterpError> {
    let order = genie_srg::traverse::topo_order(srg).map_err(|_| InterpError::Cycle)?;
    let mut values: HashMap<NodeId, Value> = HashMap::new();
    let mut report = ShardExecReport::default();
    let tele = genie_telemetry::global();

    for id in order {
        let node = srg.node(id);
        let shard = shard_of.get(&id).copied().unwrap_or(0);
        *report.nodes_per_shard.entry(shard).or_insert(0) += 1;

        // Every in-edge whose producer lives on another shard is fabric
        // traffic: the payload must arrive before this node can run.
        for e in srg.in_edges(id) {
            let src_shard = shard_of.get(&e.src).copied().unwrap_or(0);
            if src_shard != shard {
                *report.traffic.entry((src_shard, shard)).or_insert(0) +=
                    e.meta.size_bytes() as u64;
            }
        }

        let is_collective = matches!(
            node.op,
            OpKind::AllReduce | OpKind::AllGather | OpKind::SendActivation
        );
        let _span = if is_collective {
            let bytes: u64 = srg.in_edges(id).map(|e| e.meta.size_bytes() as u64).sum();
            report.collective_ops += 1;
            report.collective_bytes += bytes;
            tele.metrics
                .counter(
                    "genie_collective_ops_total",
                    &[("kind", node.op.mnemonic())],
                )
                .inc();
            tele.metrics
                .counter("genie_collective_bytes_total", &[])
                .add(bytes);
            Some(
                tele.collector.span_with(
                    format!("collective.{}", node.op.mnemonic()),
                    "collective",
                    genie_telemetry::SemAttrs::new()
                        .with("shard", shard.to_string())
                        .with("bytes", bytes.to_string()),
                ),
            )
        } else {
            None
        };
        let input = |src: NodeId| values.get(&src).expect("topo order guarantees inputs");
        let out = eval_node(srg, id, input, bindings)?;
        values.insert(id, out);
    }
    Ok((values, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use crate::interp::execute_sequential;
    use genie_srg::ElemType;
    use genie_tensor::init;

    #[test]
    fn sharded_values_match_sequential_and_traffic_is_counted() {
        let ctx = CaptureCtx::new("shard.exec");
        let x = ctx.input("x", [2, 4], ElemType::F32, Some(init::randn([2, 4], 1)));
        let w0 = ctx.parameter("w0", [4, 2], ElemType::F32, Some(init::randn([4, 2], 2)));
        let w1 = ctx.parameter("w1", [4, 2], ElemType::F32, Some(init::randn([4, 2], 3)));
        let p0 = x.matmul(&w0);
        let p1 = x.matmul(&w1);
        let y = ctx.all_gather(&[&p0, &p1], 1);
        y.mark_output();
        let cap = ctx.finish();

        // p1 on shard 1, everything else shard 0.
        let mut shard_of = BTreeMap::new();
        shard_of.insert(p1.node, 1u32);
        let seq = execute_sequential(&cap.srg, &cap.values).unwrap();
        let (vals, report) = execute_sharded(&cap.srg, &cap.values, &shard_of).unwrap();
        assert_eq!(
            vals[&y.node].as_f("y").data(),
            seq[&y.node].as_f("y").data(),
            "sharded execution must be bit-identical"
        );
        assert_eq!(report.collective_ops, 1);
        assert!(report.collective_bytes > 0);
        // w1 → p1 (shard0→1) and p1 → gather (shard1→0) both cross.
        assert!(report.traffic.contains_key(&(0, 1)));
        assert!(report.traffic.contains_key(&(1, 0)));
        assert_eq!(report.active_shards(), 2);
    }
}
