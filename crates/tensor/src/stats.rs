//! Kernel tiers and their accounting.
//!
//! A *tier* ([`Path`]) is one way of running a kernel family: the
//! `scalar` reference loop, the cache-`blocked` single-thread kernel, the
//! `simd` register-blocked kernel, the `parallel` (simd + multi-core)
//! kernel — exact, bit-identical to one another — or one of the
//! approximate quantized tiers (`int8`, `fp16`). [`PATHS`] lists them
//! all, and is what the equality suites iterate. Each family in [`OPS`]
//! has one entry that runs a named tier (`ops::matmul_on`,
//! `ops::conv2d_on`, `ops::multi_head_attention_on`) and one dispatcher
//! that picks a tier by problem size unless [`force_path`] names one.
//!
//! Every call records which tier served it. The counters are process
//! globals so the interpreter and benches can report the dispatch mix —
//! `genie-frontend` publishes deltas into the telemetry registry as
//! `genie_tensor_kernel_dispatch_total{op,path}`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Which implementation served a kernel call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Naive reference loop.
    Scalar,
    /// Cache-blocked, single thread.
    Blocked,
    /// Register-blocked and spread over cores.
    Parallel,
    /// Register-blocked `4 × W` accumulator tile, single thread, `W`
    /// set by the instantiation [`isa`] names. Bit-identical to the
    /// scalar reference (per-element reduction order preserved).
    Simd,
    /// Per-row/-column absmax int8 quantization with i32 accumulation.
    /// Approximate: bounded by the GA3xx int8 error model.
    Int8,
    /// Half-precision storage with f32 accumulation. Approximate:
    /// bounded by the GA3xx fp16 error model.
    Fp16,
}

/// Number of dispatch paths (array width of the counter table).
pub const PATH_COUNT: usize = 6;

impl Path {
    /// Stable label used in metrics.
    pub fn label(self) -> &'static str {
        match self {
            Path::Scalar => "scalar",
            Path::Blocked => "blocked",
            Path::Parallel => "parallel",
            Path::Simd => "simd",
            Path::Int8 => "int8",
            Path::Fp16 => "fp16",
        }
    }

    /// Parse a stable label back into a path (inverse of [`Path::label`]).
    pub fn from_label(label: &str) -> Option<Path> {
        PATHS.into_iter().find(|p| p.label() == label)
    }

    /// True for tiers that trade accuracy for speed; the GA3xx error
    /// model prices these with a tier factor > 1.
    pub fn is_quantized(self) -> bool {
        matches!(self, Path::Int8 | Path::Fp16)
    }

    fn index(self) -> usize {
        match self {
            Path::Scalar => 0,
            Path::Blocked => 1,
            Path::Parallel => 2,
            Path::Simd => 3,
            Path::Int8 => 4,
            Path::Fp16 => 5,
        }
    }
}

/// Instrumented kernel families.
pub const OPS: [&str; 3] = ["matmul", "conv2d", "attention"];

/// All dispatch paths, in counter-index order.
pub const PATHS: [Path; PATH_COUNT] = [
    Path::Scalar,
    Path::Blocked,
    Path::Parallel,
    Path::Simd,
    Path::Int8,
    Path::Fp16,
];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ROW: [AtomicU64; PATH_COUNT] = [ZERO; PATH_COUNT];
static COUNTS: [[AtomicU64; PATH_COUNT]; OPS.len()] = [ROW; OPS.len()];

fn op_index(op: &str) -> usize {
    OPS.iter().position(|&o| o == op).expect("known op family")
}

pub(crate) fn note(op: &str, path: Path) {
    COUNTS[op_index(op)][path.index()].fetch_add(1, Ordering::Relaxed);
}

// 0 = no override; 1..=PATH_COUNT = Path::index() + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Override kernel dispatch process-wide: every dispatcher takes `path`
/// regardless of problem size until cleared with `None`.
///
/// Exists for differential testing — running the same graph on two
/// tiers and comparing outputs against the static error bounds from
/// `genie-analysis`: a whole forward cannot be handed a tier any other
/// way (one kernel can: the `_on` entries take the tier as an
/// argument). Callers must reset to `None` afterwards; tests that
/// force a path cannot run concurrently with tests asserting the natural
/// dispatch mix.
pub fn force_path(path: Option<Path>) {
    let raw = match path {
        None => 0,
        Some(p) => p.index() as u8 + 1,
    };
    FORCED.store(raw, Ordering::Relaxed);
}

/// The currently-forced dispatch path, if any.
pub fn forced_path() -> Option<Path> {
    match FORCED.load(Ordering::Relaxed) {
        0 => None,
        raw => Some(PATHS[raw as usize - 1]),
    }
}

/// Which instantiation of the simd tier's row worker this CPU selects
/// (`"avx512f"`, `"avx2"` or `"baseline"`): not a dispatch path — the
/// bits are the same on all three — but what a kernel time in an
/// artifact has to be read against.
pub fn isa() -> &'static str {
    crate::simd::Isa::selected().label()
}

/// A point-in-time copy of the dispatch counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    counts: [[u64; PATH_COUNT]; OPS.len()],
}

impl Snapshot {
    /// Count for one `(op, path)` cell.
    pub fn get(&self, op: &str, path: Path) -> u64 {
        self.counts[op_index(op)][path.index()]
    }

    /// All non-zero `(op, path label, count)` cells, in stable order.
    pub fn cells(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut out = Vec::new();
        for (oi, op) in OPS.iter().enumerate() {
            for path in PATHS {
                let n = self.counts[oi][path.index()];
                if n > 0 {
                    out.push((*op, path.label(), n));
                }
            }
        }
        out
    }

    /// Total calls per path label across all ops, in stable path order,
    /// including zero cells — the per-tier mix benches print.
    pub fn by_path(&self) -> Vec<(&'static str, u64)> {
        PATHS
            .into_iter()
            .map(|p| {
                let total = self.counts.iter().map(|row| row[p.index()]).sum();
                (p.label(), total)
            })
            .collect()
    }

    /// Per-cell difference versus an earlier snapshot (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut counts = [[0u64; PATH_COUNT]; OPS.len()];
        for (oi, row) in counts.iter_mut().enumerate() {
            for (pi, cell) in row.iter_mut().enumerate() {
                *cell = self.counts[oi][pi].saturating_sub(earlier.counts[oi][pi]);
            }
        }
        Snapshot { counts }
    }

    /// Total calls across all cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

/// Read the current dispatch counters.
pub fn snapshot() -> Snapshot {
    let mut counts = [[0u64; PATH_COUNT]; OPS.len()];
    for (oi, row) in counts.iter_mut().enumerate() {
        for (pi, cell) in row.iter_mut().enumerate() {
            *cell = COUNTS[oi][pi].load(Ordering::Relaxed);
        }
    }
    Snapshot { counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_path_round_trips() {
        // The only test in this crate touching the override, so no
        // parallel-test interference; dispatch results are identical
        // across paths regardless.
        for p in PATHS {
            force_path(Some(p));
            assert_eq!(forced_path(), Some(p));
        }
        force_path(None);
        assert_eq!(forced_path(), None);
    }

    #[test]
    fn labels_round_trip() {
        for p in PATHS {
            assert_eq!(Path::from_label(p.label()), Some(p));
        }
        assert_eq!(Path::from_label("tpu"), None);
        assert!(Path::Int8.is_quantized() && Path::Fp16.is_quantized());
        assert!(!Path::Simd.is_quantized());
    }

    #[test]
    fn note_increments_the_right_cell() {
        // Counters are process-global and other tests run kernels in
        // parallel, so assert growth, never absolute values.
        let before = snapshot();
        note("matmul", Path::Blocked);
        note("matmul", Path::Blocked);
        note("conv2d", Path::Parallel);
        note("matmul", Path::Simd);
        note("attention", Path::Int8);
        let delta = snapshot().since(&before);
        assert!(delta.get("matmul", Path::Blocked) >= 2);
        assert!(delta.get("conv2d", Path::Parallel) >= 1);
        assert!(delta.get("matmul", Path::Simd) >= 1);
        assert!(delta.get("attention", Path::Int8) >= 1);
        assert!(delta.total() >= 5);
        assert!(delta
            .cells()
            .contains(&("matmul", "blocked", delta.get("matmul", Path::Blocked))));
        let by_path = delta.by_path();
        assert_eq!(by_path.len(), PATH_COUNT);
        assert!(by_path.contains(&("simd", delta.get("matmul", Path::Simd))));
    }
}
