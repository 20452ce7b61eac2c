//! Accelerator specifications.
//!
//! A [`GpuSpec`] carries exactly the parameters the cost model needs for a
//! roofline estimate: peak compute, memory bandwidth, and capacity. Presets
//! reproduce the paper's testbed (A100-80GB) plus a heterogeneous fleet for
//! the §3.6 global-scheduling experiments.

/// Class of accelerator, used by the global scheduler's heterogeneous
/// placement (§3.6 "Where").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GpuClass {
    /// Flagship training/inference part (A100/H100 class).
    Flagship,
    /// Memory-bandwidth-optimized part.
    BandwidthOptimized,
    /// Cost-efficient inference part (L4 class).
    Inference,
}

/// Static description of one accelerator.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-80GB"`.
    pub name: String,
    /// Device class for affinity-based placement.
    pub class: GpuClass,
    /// Peak dense FP16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Peak device-memory bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Fixed per-kernel launch overhead in seconds.
    pub kernel_launch_overhead: f64,
}

impl GpuSpec {
    /// NVIDIA A100-80GB (the paper's evaluation GPU): 312 TFLOP/s FP16,
    /// 2.0 TB/s HBM2e, 80 GB.
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-80GB".into(),
            class: GpuClass::Flagship,
            peak_flops: 312e12,
            mem_bandwidth: 2.0e12,
            mem_capacity: 80 * GIB,
            kernel_launch_overhead: 5e-6,
        }
    }

    /// NVIDIA H100-SXM: 990 TFLOP/s FP16, 3.35 TB/s HBM3, 80 GB.
    pub fn h100() -> Self {
        GpuSpec {
            name: "H100-SXM".into(),
            class: GpuClass::Flagship,
            peak_flops: 990e12,
            mem_bandwidth: 3.35e12,
            mem_capacity: 80 * GIB,
            kernel_launch_overhead: 5e-6,
        }
    }

    /// NVIDIA L4: 121 TFLOP/s FP16, 300 GB/s, 24 GB — the cheap inference
    /// tier.
    pub fn l4() -> Self {
        GpuSpec {
            name: "L4".into(),
            class: GpuClass::Inference,
            peak_flops: 121e12,
            mem_bandwidth: 300e9,
            mem_capacity: 24 * GIB,
            kernel_launch_overhead: 5e-6,
        }
    }

    /// A hypothetical bandwidth-optimized part: modest compute, extreme
    /// memory bandwidth — the accelerator §3.6 would route
    /// vision-transformer jobs to.
    pub fn bandwidth_optimized() -> Self {
        GpuSpec {
            name: "BW-OPT".into(),
            class: GpuClass::BandwidthOptimized,
            peak_flops: 150e12,
            mem_bandwidth: 4.0e12,
            mem_capacity: 48 * GIB,
            kernel_launch_overhead: 5e-6,
        }
    }

    /// The roofline, spelled here only: a kernel of `flops` touching
    /// `bytes` of device memory takes the max of its compute and memory
    /// times, plus launch overhead, on a device reaching `compute_eff` of
    /// peak FLOP/s and `mem_eff` of peak bandwidth.
    pub fn roofline(&self, flops: f64, bytes: f64, compute_eff: f64, mem_eff: f64) -> f64 {
        let compute = flops / (self.peak_flops * compute_eff);
        let memory = bytes / (self.mem_bandwidth * mem_eff);
        self.kernel_launch_overhead + compute.max(memory)
    }

    /// [`roofline`](Self::roofline) at peak (`x × 1.0` is exact).
    pub fn kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        self.roofline(flops, bytes, 1.0, 1.0)
    }
}

/// One gibibyte.
pub const GIB: u64 = 1 << 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_datasheet() {
        let g = GpuSpec::a100_80gb();
        assert_eq!(g.mem_capacity, 80 * GIB);
    }

    #[test]
    fn kernel_time_is_rooflined() {
        let g = GpuSpec::a100_80gb();
        // Heavily compute-bound: 312 TFLOP at peak = 1 s.
        let t = g.kernel_time(312e12, 1.0);
        assert!((t - 1.0).abs() < 1e-3);
        // Heavily memory-bound: 2 TB at peak bandwidth = 1 s.
        let t = g.kernel_time(1.0, 2.0e12);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    fn efficiency_derates_the_side_that_binds() {
        let g = GpuSpec::a100_80gb();
        assert_eq!(
            g.roofline(1e12, 1e9, 1.0, 1.0).to_bits(),
            g.kernel_time(1e12, 1e9).to_bits()
        );
        // Compute-bound at half of peak: twice the time; the idle memory
        // side's efficiency does not matter.
        assert!((g.roofline(312e12, 1.0, 0.5, 0.1) - 2.0).abs() < 1e-3);
        assert!((g.roofline(1.0, 2.0e12, 0.1, 0.25) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn launch_overhead_floors_small_kernels() {
        let g = GpuSpec::a100_80gb();
        assert!(g.kernel_time(0.0, 0.0) >= 5e-6);
    }

    #[test]
    fn decode_step_is_memory_bound_on_a100() {
        // GPT-J decode: ~12 GB of weights read per token, ~12 GFLOP.
        let g = GpuSpec::a100_80gb();
        let compute = 12e9 / g.peak_flops;
        let memory = 12e9 * 2.0 / g.mem_bandwidth * 1.0; // fp16 weights ≈ 12 GB
        assert!(memory > compute, "decode must be memory-bound");
    }

    #[test]
    fn heterogeneous_fleet_differs() {
        assert!(GpuSpec::h100().peak_flops > GpuSpec::a100_80gb().peak_flops);
        assert!(GpuSpec::bandwidth_optimized().mem_bandwidth > GpuSpec::h100().mem_bandwidth);
        assert_eq!(GpuSpec::l4().class, GpuClass::Inference);
    }
}
