//! Dense linear algebra kernels.
//!
//! A matmul runs on one of six tiers, named by [`Path`]. Four are exact
//! and produce bit-identical results (every output element is one f32
//! accumulator walking `p` in ascending order with the same zero-skip):
//!
//! * `Scalar` — the naive reference loop, kept as ground truth;
//! * `Blocked` — register/cache-blocked: 4 output rows × 64 output
//!   columns per tile, so each loaded B row is reused 4× and C is written
//!   exactly once;
//! * `Simd` — the register-blocked row worker in [`crate::simd`]: a
//!   `4 × W` accumulator tile stays in vector registers for the whole
//!   reduction, `W` as wide as the CPU's vector ISA allows
//!   ([`crate::stats::isa`]);
//! * `Parallel` — the simd worker with output rows fanned out over the
//!   persistent worker pool, one contiguous chunk per worker. The worker
//!   reads each B strip once per block of up to 256 rows, so the B
//!   traffic grows with the number of workers, not of row tiles.
//!
//! `Int8` and `Fp16` are the *approximate* tiers of [`crate::quant`];
//! their error is bounded by the GA3xx error model, not bit-identity.
//!
//! [`matmul_on`] runs the tier it is given; [`matmul`] picks one by
//! problem size (scalar, simd or parallel) unless
//! [`crate::stats::force_path`] names another, which is the only way to
//! the blocked and quantized tiers. Both record the tier in
//! [`crate::stats`].

use crate::par;
use crate::quant;
use crate::simd;
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Below this many FLOPs (`2·m·k·n`) the register-blocked kernel's tile
/// overhead outweighs its reuse: stay on the scalar loop.
pub const MATMUL_BLOCK_MIN_FLOPS: usize = 1 << 14;

/// At or above this many FLOPs the kernel is worth spreading over cores.
/// A lone 2²⁰-FLOP matmul (~20 µs on AVX-512) does not pay for a ~30 µs
/// hand-off to a parked worker but does for ~1 µs to a polling one
/// (`pool`); 2²³ moved `prefill_wide` by less than its run-to-run spread.
pub const MATMUL_PAR_MIN_FLOPS: usize = 1 << 20;

/// The tier the two thresholds name for `flops` of work: the scalar loop
/// below [`MATMUL_BLOCK_MIN_FLOPS`], the pool from
/// [`MATMUL_PAR_MIN_FLOPS`], the simd kernel between. The blocked and
/// quantized tiers are never picked by size.
pub fn tier_for_flops(flops: usize) -> Path {
    if flops < MATMUL_BLOCK_MIN_FLOPS {
        Path::Scalar
    } else if flops >= MATMUL_PAR_MIN_FLOPS {
        Path::Parallel
    } else {
        Path::Simd
    }
}

/// [`tier_for_flops`] as a dispatcher takes it: the pool only when it
/// has more than one worker for `rows` rows of output.
pub(crate) fn dispatch_tier(flops: usize, rows: usize) -> Path {
    match tier_for_flops(flops) {
        Path::Parallel if par::worker_count(rows) <= 1 => Path::Simd,
        tier => tier,
    }
}

/// Output-row tile height of the blocked kernel.
const MR: usize = 4;
/// Output-column tile width of the blocked kernel.
const NR: usize = 64;

pub(crate) fn matmul_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", a.shape(), b.shape());
    (m, k, n)
}

/// Reference triple loop over row slices; accumulates into `out`, which
/// is how [`matmul_acc`] carries a partial sum.
fn matmul_scalar_into(out: &mut [f32], ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked kernel over a contiguous range of output rows. `out_rows` holds
/// rows `[row0, row0 + out_rows.len()/n)` of C; `ad`/`bd` are the full A
/// and B buffers. Accumulates each output element in ascending-`p` order,
/// so results are bit-identical to [`matmul_scalar_into`].
fn matmul_blocked_rows(
    out_rows: &mut [f32],
    row0: usize,
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
) {
    let rows = out_rows.len() / n;
    let mut acc = [[0.0f32; NR]; MR];
    for i0 in (0..rows).step_by(MR) {
        let ir = (rows - i0).min(MR);
        for jt in (0..n).step_by(NR) {
            let jw = (n - jt).min(NR);
            for row in acc.iter_mut().take(ir) {
                row[..jw].fill(0.0);
            }
            for p in 0..k {
                let brow = &bd[p * n + jt..p * n + jt + jw];
                for (r, row) in acc.iter_mut().enumerate().take(ir) {
                    let av = ad[(row0 + i0 + r) * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in row[..jw].iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (r, arow) in acc.iter().enumerate().take(ir) {
                let obase = (i0 + r) * n + jt;
                out_rows[obase..obase + jw].copy_from_slice(&arow[..jw]);
            }
        }
    }
}

/// `C[m,n] = A[m,k] · B[k,n]` on the tier the problem size names: the
/// scalar reference, the simd kernel, or the simd kernel over the pool.
/// All exact tiers produce bit-identical results. The blocked tier and
/// the quantized tiers are reachable via [`stats::force_path`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    // An empty side is zero flops: the scalar loop.
    let path = stats::forced_path().unwrap_or_else(|| dispatch_tier(2 * m * k * n, m));
    matmul_on(path, a, b)
}

/// The naive reference matmul (always the scalar loop): the oracle the
/// other tiers are compared with.
pub fn matmul_scalar(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_on(Path::Scalar, a, b)
}

/// [`matmul`] on the tier `path`, whatever the problem size: the entry
/// for tests and benches that compare tiers. Ignores
/// [`stats::force_path`].
pub fn matmul_on(path: Path, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    match path {
        Path::Int8 => return quant::matmul_int8(a, b),
        Path::Fp16 => return quant::matmul_fp16(a, b),
        _ => stats::note("matmul", path),
    }
    let (ad, bd) = (a.data(), b.data());
    Tensor::build([m, n], |out| match path {
        // The tiled workers count rows as `out.len() / n`.
        _ if n == 0 => {}
        Path::Scalar => matmul_scalar_into(out, ad, bd, m, k, n),
        Path::Blocked => matmul_blocked_rows(out, 0, ad, bd, k, n),
        Path::Parallel => par::par_rows(out, n, |row0, chunk| {
            simd::matmul_simd_rows(chunk, &ad[row0 * k..], k, bd, n, k, n);
        }),
        // Simd: the quantized tiers returned above.
        _ => simd::matmul_simd_rows(out, ad, k, bd, n, k, n),
    })
}

/// `C[m,n] = init[m,n] + A[m,k] · B[k,n]`, continuing `init`'s
/// accumulation: each output element starts from the carried partial and
/// folds `A`'s reduction in ascending-`p` order with the same zero-skip
/// as [`matmul_scalar_into`]. Chaining
/// `matmul_acc(a_i, b_i, partial_{i-1})` over contiguous k-range chunks
/// `(a_i, b_i)` therefore replays the *identical* f32 operation sequence
/// as the unsharded `matmul(a, b)` — the bit-exact row-parallel
/// (reduction-split) sharding primitive.
pub fn matmul_acc(a: &Tensor, b: &Tensor, init: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    assert_eq!(
        init.dims(),
        &[m, n],
        "matmul_acc init must be [{m},{n}], got {}",
        init.shape()
    );
    // Recorded under the matmul family: it is a matmul, pinned to the
    // scalar tier so the carried fold order is the reference order.
    stats::note("matmul", Path::Scalar);
    let id = init.data();
    Tensor::build([m, n], |out| {
        out.copy_from_slice(id);
        matmul_scalar_into(out, a.data(), b.data(), m, k, n);
    })
}

/// Transpose a rank-2 tensor.
pub fn transpose2d(a: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "transpose2d requires rank-2");
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let ad = a.data();
    Tensor::build([n, m], |out| {
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = ad[i * n + j];
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::arange;

    #[test]
    fn the_size_rule_switches_tier_at_the_two_thresholds() {
        assert_eq!(tier_for_flops(0), Path::Scalar);
        assert_eq!(tier_for_flops(MATMUL_BLOCK_MIN_FLOPS - 1), Path::Scalar);
        assert_eq!(tier_for_flops(MATMUL_BLOCK_MIN_FLOPS), Path::Simd);
        assert_eq!(tier_for_flops(MATMUL_PAR_MIN_FLOPS - 1), Path::Simd);
        assert_eq!(tier_for_flops(MATMUL_PAR_MIN_FLOPS), Path::Parallel);
        // One row of output is one worker: the dispatcher stays inline.
        assert_eq!(dispatch_tier(MATMUL_PAR_MIN_FLOPS, 1), Path::Simd);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = arange([3, 3]);
        let mut eye = Tensor::zeros([3, 3]);
        for i in 0..3 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn degenerate_dims_are_fine() {
        let a = Tensor::zeros([0usize, 4].to_vec());
        let b = Tensor::zeros([4, 5]);
        assert_eq!(matmul(&a, &b).dims(), &[0, 5]);
        let a = Tensor::zeros([3, 0usize].to_vec());
        let b = Tensor::zeros([0usize, 5].to_vec());
        assert_eq!(matmul(&a, &b), Tensor::zeros([3, 5]));
    }

    #[test]
    fn dispatch_records_path() {
        let before = crate::stats::snapshot();
        let a = crate::init::randn([64, 64], 5);
        let b = crate::init::randn([64, 64], 6);
        let _ = matmul(&a, &b); // 512k FLOPs: simd or parallel, not scalar
        let delta = crate::stats::snapshot().since(&before);
        assert!(
            delta.get("matmul", Path::Simd) + delta.get("matmul", Path::Parallel) >= 1,
            "large matmul must leave the scalar path"
        );
    }

    #[test]
    fn transpose_involution() {
        let a = arange([3, 5]);
        assert_eq!(transpose2d(&transpose2d(&a)), a);
        assert_eq!(transpose2d(&a).at(&[4, 2]), a.at(&[2, 4]));
    }
}
