//! The pluggable cost model (§3.3): end-to-end latency as a function of
//! compute, transfers, and queuing.

use genie_cluster::{serialization_s, GpuSpec, Link};
use genie_netsim::RpcParams;
use genie_srg::Node;
use genie_tensor::stats::Path;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key for one memoized roofline estimate: the bit patterns of every
/// quantity [`CostModel::kernel_time`] actually reads. Keying on derated
/// denominators (not on op/shape labels) means a mutated efficiency field
/// or a different `GpuSpec` can never be served a stale entry.
type KernelTimeKey = (u64, u64, u64, u64, u64);

/// Memoization table for [`CostModel::kernel_time`]. Scheduling a graph
/// calls the roofline estimator once per (node, candidate device) per
/// pass; repeated `schedule`/`critical_path` invocations over a serving
/// loop recompute identical estimates thousands of times. Model zoos have
/// few distinct (flops, bytes, device) combinations, so a small table
/// absorbs nearly all of them.
#[derive(Debug, Default)]
pub struct KernelTimeCache {
    entries: Mutex<HashMap<KernelTimeKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KernelTimeCache {
    fn lookup(&self, key: KernelTimeKey, compute: impl FnOnce() -> f64) -> f64 {
        let mut entries = genie_telemetry::lock(&self.entries);
        if let Some(&v) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        *entries.entry(key).or_insert_with(compute)
    }

    fn stats(&self) -> CostCacheStats {
        CostCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: genie_telemetry::lock(&self.entries).len(),
        }
    }
}

/// Point-in-time counters for the kernel-time cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostCacheStats {
    /// Estimates served from the table.
    pub hits: u64,
    /// Estimates computed and inserted.
    pub misses: u64,
    /// Distinct (flops, bytes, device) keys resident.
    pub entries: usize,
}

impl CostCacheStats {
    /// Fraction of lookups served from the table (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cost-model parameters. Roofline kernel estimates are scaled by
/// empirical efficiency factors (real frameworks reach a fraction of peak,
/// especially at small batch), and transfers are priced with a per-call
/// overhead plus serialized payload time.
///
/// Kernel-time estimates are memoized in a cache shared by clones of this
/// model.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fraction of peak FLOP/s actually achieved by compute-bound kernels.
    pub compute_efficiency: f64,
    /// Fraction of peak memory bandwidth achieved by memory-bound kernels.
    pub memory_efficiency: f64,
    /// Fixed cost charged per remote invocation (RPC overhead).
    pub per_call_overhead_s: f64,
    /// The network a call crosses: effective goodput (≤ line rate) and
    /// one-way latency.
    pub link: Link,
    cache: Arc<KernelTimeCache>,
}

impl CostModel {
    /// Kernels at unit efficiency, calls with no per-call overhead, over
    /// `link`: a fabric stated as a calibration, as step pricing sees it.
    pub fn over(link: Link) -> Self {
        CostModel {
            compute_efficiency: 1.0,
            memory_efficiency: 1.0,
            per_call_overhead_s: 0.0,
            link,
            cache: Arc::default(),
        }
    }

    /// Kernels at the given efficiencies behind the transport `rpc` (its
    /// per-call cost and goodput) on the testbed's 250 µs link.
    fn behind(rpc: &RpcParams, compute_efficiency: f64, memory_efficiency: f64) -> Self {
        CostModel {
            compute_efficiency,
            memory_efficiency,
            per_call_overhead_s: rpc.per_call_overhead.as_secs_f64(),
            link: Link::new(rpc.effective_bandwidth * 8.0, Link::PAPER_TESTBED.latency_s),
            cache: Arc::default(),
        }
    }

    /// Pure roofline (no efficiency derating) over an ideal zero-copy
    /// 25 GbE network — the §3.4 target datapath.
    pub fn ideal_25g() -> Self {
        Self::behind(&RpcParams::rdma_zero_copy(), 1.0, 1.0)
    }

    /// Calibrated to the paper's measured stack: PyTorch kernels at
    /// realistic efficiency, TensorPipe RPC from Python (0.45 s/call,
    /// 1.4 GB/s = 11.2 Gbit/s). See `genie-bench::calibration` for the fit.
    pub fn paper_stack() -> Self {
        Self::behind(&RpcParams::tensorpipe_python(), 0.08, 0.20)
    }

    /// Per-tier derating of the roofline inputs: `(flops_scale,
    /// bytes_scale)` for a kernel tier. The quantized tiers move fewer
    /// bytes (int8 = ¼, fp16 = ½ of f32 traffic) and ride the device's
    /// higher low-precision MAC throughput (modeled as 4×/2× effective
    /// FLOP rate); every f32 tier is the reference.
    pub fn tier_factors(tier: Path) -> (f64, f64) {
        match tier {
            Path::Int8 => (0.25, 0.25),
            Path::Fp16 => (0.5, 0.5),
            _ => (1.0, 1.0),
        }
    }

    /// Roofline kernel-time estimate for `node` on `gpu`, with efficiency
    /// derating applied to whichever side binds. A `kernel_tier` node
    /// attribute (see `genie_analysis::KERNEL_TIER_ATTR`) scales the
    /// roofline inputs by [`CostModel::tier_factors`], so quantized
    /// plans are priced cheaper exactly where GA3xx prices them looser;
    /// a label that names no tier is priced as f32, so a malformed
    /// attribute can only over-estimate, never hide cost.
    /// Memoized: repeated calls with the same (flops, bytes, derated
    /// device) are served from the model's cache.
    pub fn kernel_time(&self, node: &Node, gpu: &GpuSpec) -> f64 {
        let tier = genie_analysis::requested_tier(node);
        let (fs, bs) = tier.map_or((1.0, 1.0), Self::tier_factors);
        let flops = node.cost.flops * fs;
        let bytes = node.cost.bytes_total() * bs;
        let (ce, me) = (self.compute_efficiency, self.memory_efficiency);
        let key = (
            flops.to_bits(),
            bytes.to_bits(),
            (gpu.peak_flops * ce).to_bits(),
            (gpu.mem_bandwidth * me).to_bits(),
            gpu.kernel_launch_overhead.to_bits(),
        );
        self.cache
            .lookup(key, || gpu.roofline(flops, bytes, ce, me))
    }

    /// Hit/miss/occupancy counters for the kernel-time cache.
    pub fn cache_stats(&self) -> CostCacheStats {
        self.cache.stats()
    }

    /// Time to move `bytes` across the network in one call.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.per_call_overhead_s + self.streaming_time(bytes) + self.link.latency_s
    }

    /// Time to move `bytes` as part of an already-open call (no fresh
    /// per-call overhead).
    pub fn streaming_time(&self, bytes: f64) -> f64 {
        serialization_s(bytes, self.link.bandwidth_bps)
    }

    /// Price of recomputing `node` remotely versus fetching its output of
    /// `bytes` over a link with `congestion` background load: positive
    /// means recomputation wins (§3.3 "dynamic recomputation").
    pub fn recompute_advantage(
        &self,
        node: &Node,
        bytes: f64,
        gpu: &GpuSpec,
        congestion: f64,
    ) -> f64 {
        let fetch_bps = self.link.bandwidth_bps * (1.0 - congestion.clamp(0.0, 0.99));
        let fetch_s =
            self.per_call_overhead_s + serialization_s(bytes, fetch_bps) + self.link.latency_s;
        fetch_s - self.kernel_time(node, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_srg::{CostHints, NodeId, OpKind};

    fn node(flops: f64, bytes: f64) -> Node {
        Node::new(NodeId::new(0), OpKind::MatMul, "k").with_cost(CostHints::new(
            flops,
            bytes / 2.0,
            bytes / 2.0,
        ))
    }

    #[test]
    fn kernel_time_rooflines() {
        let m = CostModel::ideal_25g();
        let gpu = GpuSpec::a100_80gb();
        // 312 TFLOP, no memory → 1 s compute-bound.
        let t = m.kernel_time(&node(312e12, 0.0), &gpu);
        assert!((t - 1.0).abs() < 1e-3);
        // 2 TB of traffic, no flops → 1 s memory-bound.
        let t = m.kernel_time(&node(0.0, 2e12), &gpu);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    fn a_thread_that_dies_in_a_miss_leaves_the_cache_usable() {
        let m = CostModel::ideal_25g();
        let clone = m.clone();
        let died = std::thread::spawn(move || {
            clone
                .cache
                .lookup((0, 0, 0, 0, 0), || panic!("miss closure dies"))
        })
        .join();
        assert!(died.is_err());
        let gpu = GpuSpec::a100_80gb();
        let t = m.kernel_time(&node(312e12, 0.0), &gpu);
        assert_eq!(t.to_bits(), gpu.roofline(312e12, 0.0, 1.0, 1.0).to_bits());
    }

    #[test]
    fn efficiency_derates_kernels() {
        let ideal = CostModel::ideal_25g();
        let real = CostModel::paper_stack();
        let gpu = GpuSpec::a100_80gb();
        let n = node(1e12, 1e9);
        assert!(real.kernel_time(&n, &gpu) > ideal.kernel_time(&n, &gpu));
    }

    #[test]
    fn transfer_time_components() {
        let m = CostModel::ideal_25g();
        // 3.125 GB is 25 Gbit: 1 s at 25 Gbit/s, plus overhead and latency.
        assert_eq!(m.streaming_time(3.125e9), 1.0);
        let t = m.transfer_time(3.125e9);
        assert_eq!(t, m.per_call_overhead_s + 1.0 + m.link.latency_s);
        // The transports' nanoseconds read back as the literals they were.
        assert_eq!((m.per_call_overhead_s, m.link), (8e-6, Link::PAPER_TESTBED));
        let paper = CostModel::paper_stack();
        let measured = (paper.per_call_overhead_s, paper.link.bandwidth_bps);
        assert_eq!(measured, (0.45, 1.4e9 * 8.0));
        // `over` is the link alone: no overhead, unit efficiency.
        let bare = CostModel::over(Link::new(8e9, 1e-3));
        assert_eq!(bare.transfer_time(1e9), 1.0 + 1e-3);
        assert_eq!(
            (bare.compute_efficiency, bare.memory_efficiency),
            (1.0, 1.0)
        );
    }

    #[test]
    fn congestion_flips_recompute_decision() {
        let m = CostModel::ideal_25g();
        let gpu = GpuSpec::a100_80gb();
        // A cheap intermediate (1 GFLOP ≈ 3 µs) producing 100 MB.
        let n = node(1e9, 1e6);
        let clear = m.recompute_advantage(&n, 100e6, &gpu, 0.0);
        let congested = m.recompute_advantage(&n, 100e6, &gpu, 0.9);
        assert!(congested > clear);
        assert!(
            congested > 0.0,
            "under 90% congestion recomputation must win"
        );
    }

    #[test]
    fn cached_kernel_time_is_the_derated_roofline() {
        let m = CostModel::paper_stack();
        assert_eq!(m.cache_stats(), CostCacheStats::default());
        assert_eq!(m.cache_stats().hit_rate(), 0.0, "untouched cache");
        let gpu = GpuSpec::a100_80gb();
        let n = node(3e12, 5e9);
        let roofline = gpu.roofline(3e12, 5e9, m.compute_efficiency, m.memory_efficiency);
        assert_eq!(m.kernel_time(&n, &gpu), roofline);
        assert_eq!(
            m.kernel_time(&n, &gpu),
            roofline,
            "hit must serve same value"
        );
        let stats = m.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mutated_efficiency_is_not_served_stale() {
        let mut m = CostModel::ideal_25g();
        let gpu = GpuSpec::a100_80gb();
        let n = node(312e12, 0.0);
        let before = m.kernel_time(&n, &gpu);
        m.compute_efficiency = 0.5;
        let after = m.kernel_time(&n, &gpu);
        assert_eq!(after, gpu.roofline(312e12, 0.0, 0.5, 1.0));
        assert!(after > before, "halved efficiency must cost more");
    }

    #[test]
    fn every_tier_has_one_price_warm_cold_or_spelled_out() {
        // The "reference" path used to ignore the tier factors; now there
        // is one path. A warm lookup, a cold model's first lookup and the
        // roofline on the tier-scaled inputs are the same bits.
        let gpu = GpuSpec::a100_80gb();
        for tier in ["", "int8", "fp16", "fp4"] {
            let mut n = node(3e12, 5e9);
            if !tier.is_empty() {
                n.attrs
                    .insert(genie_analysis::KERNEL_TIER_ATTR.into(), tier.into());
            }
            let warm = CostModel::paper_stack();
            warm.kernel_time(&n, &gpu);
            assert_eq!(warm.cache_stats().misses, 1);
            let served = warm.kernel_time(&n, &gpu);
            assert_eq!(warm.cache_stats().hits, 1, "{tier:?} must hit");
            let cold = CostModel::paper_stack().kernel_time(&n, &gpu);
            let (fs, bs) = Path::from_label(tier).map_or((1.0, 1.0), CostModel::tier_factors);
            let (ce, me) = (warm.compute_efficiency, warm.memory_efficiency);
            let spelled = gpu.roofline(3e12 * fs, 5e9 * bs, ce, me);
            assert_eq!(served.to_bits(), cold.to_bits(), "{tier:?}");
            assert_eq!(served.to_bits(), spelled.to_bits(), "{tier:?}");
        }
    }

    #[test]
    fn clones_share_the_cache() {
        let m = CostModel::ideal_25g();
        let gpu = GpuSpec::a100_80gb();
        let n = node(2e12, 3e9);
        let clone = m.clone();
        clone.kernel_time(&n, &gpu);
        m.kernel_time(&n, &gpu);
        let stats = m.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn quantized_tiers_are_priced_cheaper() {
        let m = CostModel::ideal_25g();
        let gpu = GpuSpec::a100_80gb();
        let f32_time = m.kernel_time(&node(1e12, 1e12), &gpu);
        for (tier, scale) in [("int8", 0.25), ("fp16", 0.5)] {
            let mut n = node(1e12, 1e12);
            n.attrs
                .insert(genie_analysis::KERNEL_TIER_ATTR.into(), tier.into());
            let t = m.kernel_time(&n, &gpu);
            let expected =
                gpu.kernel_launch_overhead + (f32_time - gpu.kernel_launch_overhead) * scale;
            assert!(
                (t - expected).abs() < 1e-9,
                "{tier}: {t} vs expected {expected}"
            );
        }
        // An unknown tier label falls back to f32 pricing.
        let mut n = node(1e12, 1e12);
        n.attrs
            .insert(genie_analysis::KERNEL_TIER_ATTR.into(), "fp4".into());
        assert_eq!(m.kernel_time(&n, &gpu), f32_time);
    }

    #[test]
    fn paper_stack_decode_step_time_matches_measurement() {
        // One GPT-J decode step on A100: ~12.1 GB of weight reads. At 20%
        // of 2 TB/s that is ~30 ms — the per-token kernel time implied by
        // the paper's local decode row (1.53 s / 50 tokens).
        let m = CostModel::paper_stack();
        let gpu = GpuSpec::a100_80gb();
        let cfg_bytes = 12.1e9;
        let n = node(12.1e9, cfg_bytes);
        let t = m.kernel_time(&n, &gpu);
        assert!((0.025..0.040).contains(&t), "decode step {t}s");
    }
}
