//! Dense linear algebra kernels.
//!
//! Each heavy kernel has four exact implementations that produce
//! bit-identical results (accumulation order per output element is
//! ascending `p` with a single accumulator in all of them):
//!
//! * `*_scalar` — the naive reference loop, kept as ground truth;
//! * `*_blocked` — register/cache-blocked: 4 output rows × 64 output
//!   columns per tile, so each loaded B row is reused 4× and C is written
//!   exactly once;
//! * `*_simd` — the register-blocked tier in [`crate::simd`]: a
//!   `4 × W` accumulator tile stays in vector registers for the whole
//!   reduction, `W` as wide as the CPU's vector ISA allows
//!   ([`crate::stats::isa`]);
//! * `*_parallel` — the simd kernel with output rows (or batches)
//!   fanned out over the persistent worker pool.
//!
//! Two further *approximate* tiers live in [`crate::quant`] (int8 and
//! fp16) and are reachable here via [`crate::stats::force_path`]; their
//! error is bounded by the GA3xx error model, not bit-identity.
//!
//! The public entry points ([`matmul`], [`batched_matmul`]) dispatch on
//! problem size and record the chosen path in [`crate::stats`].

use crate::par;
use crate::quant;
use crate::simd;
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Below this many FLOPs (`2·m·k·n`) the register-blocked kernel's tile
/// overhead outweighs its reuse: stay on the scalar loop.
pub const MATMUL_BLOCK_MIN_FLOPS: usize = 1 << 14;

/// At or above this many FLOPs the kernel is worth spreading over cores.
/// Alone, a 2²⁰-FLOP matmul (~20 µs on the AVX-512 simd tier) no longer
/// beats a ~30 µs hand-off to a parked worker; inside an op, 2²³ moved
/// `prefill_wide` by less than its run-to-run spread, so this stays.
pub const MATMUL_PAR_MIN_FLOPS: usize = 1 << 20;

/// Output-row tile height of the blocked kernel.
const MR: usize = 4;
/// Output-column tile width of the blocked kernel.
const NR: usize = 64;

fn matmul_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2, got {}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims: {} vs {}", a.shape(), b.shape());
    (m, k, n)
}

/// Reference triple loop over row slices, shared by [`matmul_scalar`] and
/// [`batched_matmul_scalar`].
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

/// `C[m,n] = A[m,k] · B[k,n]`. Dispatches between the scalar reference,
/// the simd kernel, and the simd+parallel kernel on problem size; all
/// exact tiers produce bit-identical results. The blocked tier and the
/// quantized tiers are reachable via [`stats::force_path`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    match stats::forced_path() {
        Some(Path::Scalar) => return matmul_scalar(a, b),
        Some(Path::Blocked) => return matmul_blocked(a, b),
        Some(Path::Simd) => return matmul_simd(a, b),
        Some(Path::Parallel) => return matmul_parallel(a, b),
        Some(Path::Int8) => return quant::matmul_int8(a, b),
        Some(Path::Fp16) => return quant::matmul_fp16(a, b),
        None => {}
    }
    let flops = 2 * m * k * n;
    if flops < MATMUL_BLOCK_MIN_FLOPS || m == 0 || k == 0 || n == 0 {
        return matmul_scalar(a, b);
    }
    if flops >= MATMUL_PAR_MIN_FLOPS && par::worker_count(m) > 1 {
        return matmul_parallel(a, b);
    }
    matmul_simd(a, b)
}

/// The naive reference matmul (always the scalar loop).
pub fn matmul_scalar(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Scalar);
    Tensor::build([m, n], |out| {
        matmul_scalar_into(out, a.data(), b.data(), m, k, n);
    })
}

/// The cache-blocked matmul on one thread (forced, for benches/tests).
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Blocked);
    Tensor::build([m, n], |out| {
        if n > 0 {
            matmul_blocked_rows(out, 0, a.data(), b.data(), k, n);
        }
    })
}

/// The register-blocked matmul on one thread.
pub fn matmul_simd(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Simd);
    Tensor::build([m, n], |out| {
        if n > 0 {
            simd::matmul_simd_rows(out, 0, a.data(), b.data(), k, n);
        }
    })
}

/// The simd matmul with rows spread over the worker pool (forced, for
/// benches/tests).
pub fn matmul_parallel(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Parallel);
    Tensor::build([m, n], |out| {
        if n > 0 {
            let (ad, bd) = (a.data(), b.data());
            par::par_rows(out, n, |row0, chunk| {
                simd::matmul_simd_rows(chunk, row0, ad, bd, k, n);
            });
        }
    })
}

fn batched_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(a.rank(), 3, "batched_matmul lhs must be rank-3");
    assert_eq!(b.rank(), 3, "batched_matmul rhs must be rank-3");
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    assert_eq!(ba, bb, "batch dims differ");
    assert_eq!(k, k2, "inner dims differ");
    (ba, m, k, n)
}

/// Batched matmul over matching leading batch dims:
/// `C[b,m,n] = A[b,m,k] · B[b,k,n]`. Dispatches like [`matmul`], with
/// parallelism across batches.
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (ba, m, k, n) = batched_dims(a, b);
    match stats::forced_path() {
        Some(Path::Scalar) => return batched_matmul_scalar(a, b),
        Some(Path::Blocked) => return batched_matmul_blocked(a, b),
        Some(Path::Simd) => return batched_matmul_simd(a, b),
        Some(Path::Parallel) => return batched_matmul_parallel(a, b),
        Some(Path::Int8) => return quant::batched_matmul_int8(a, b),
        Some(Path::Fp16) => return quant::batched_matmul_fp16(a, b),
        None => {}
    }
    let flops = 2 * ba * m * k * n;
    if flops < MATMUL_BLOCK_MIN_FLOPS || ba * m * k * n == 0 {
        return batched_matmul_scalar(a, b);
    }
    if flops >= MATMUL_PAR_MIN_FLOPS && par::worker_count(ba) > 1 {
        return batched_matmul_parallel(a, b);
    }
    batched_matmul_simd(a, b)
}

/// Reference batched matmul: the scalar row-slice loop applied per batch.
pub fn batched_matmul_scalar(a: &Tensor, b: &Tensor) -> Tensor {
    let (ba, m, k, n) = batched_dims(a, b);
    stats::note("batched_matmul", Path::Scalar);
    let (ad, bd) = (a.data(), b.data());
    Tensor::build([ba, m, n], |out| {
        for batch in 0..ba {
            matmul_scalar_into(
                &mut out[batch * m * n..][..m * n],
                &ad[batch * m * k..][..m * k],
                &bd[batch * k * n..][..k * n],
                m,
                k,
                n,
            );
        }
    })
}

/// Blocked batched matmul on one thread (forced, for benches/tests).
pub fn batched_matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (ba, m, k, n) = batched_dims(a, b);
    stats::note("batched_matmul", Path::Blocked);
    let (ad, bd) = (a.data(), b.data());
    Tensor::build([ba, m, n], |out| {
        if n > 0 {
            for batch in 0..ba {
                matmul_blocked_rows(
                    &mut out[batch * m * n..][..m * n],
                    0,
                    &ad[batch * m * k..][..m * k],
                    &bd[batch * k * n..][..k * n],
                    k,
                    n,
                );
            }
        }
    })
}

/// Register-blocked batched matmul on one thread.
pub fn batched_matmul_simd(a: &Tensor, b: &Tensor) -> Tensor {
    let (ba, m, k, n) = batched_dims(a, b);
    stats::note("batched_matmul", Path::Simd);
    let (ad, bd) = (a.data(), b.data());
    Tensor::build([ba, m, n], |out| {
        if n > 0 {
            for batch in 0..ba {
                simd::matmul_simd_rows(
                    &mut out[batch * m * n..][..m * n],
                    0,
                    &ad[batch * m * k..][..m * k],
                    &bd[batch * k * n..][..k * n],
                    k,
                    n,
                );
            }
        }
    })
}

/// Simd batched matmul with batches spread over the worker pool (forced,
/// for benches/tests).
pub fn batched_matmul_parallel(a: &Tensor, b: &Tensor) -> Tensor {
    let (ba, m, k, n) = batched_dims(a, b);
    stats::note("batched_matmul", Path::Parallel);
    let (ad, bd) = (a.data(), b.data());
    Tensor::build([ba, m, n], |out| {
        if m * n > 0 {
            par::par_rows(out, m * n, |b0, chunk| {
                for (bi, osub) in chunk.chunks_mut(m * n).enumerate() {
                    let batch = b0 + bi;
                    simd::matmul_simd_rows(
                        osub,
                        0,
                        &ad[batch * m * k..][..m * k],
                        &bd[batch * k * n..][..k * n],
                        k,
                        n,
                    );
                }
            });
        }
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

/// `y[m] = A[m,k] · x[k]` as a rank-1 result.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(x.rank(), 1);
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert_eq!(k, x.dims()[0]);
    let ad = a.data();
    let xd = x.data();
    let out: Vec<f32> = (0..m)
        .map(|i| {
            ad[i * k..(i + 1) * k]
                .iter()
                .zip(xd)
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect();
    Tensor::from_vec([m], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::arange;

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
    fn all_matmul_paths_agree_bitwise() {
        // Ragged dims exercise partial MR/NR tiles and the simd column
        // tail.
        let a = crate::init::randn([37, 53], 1);
        let b = crate::init::randn([53, 71], 2);
        let reference = matmul_scalar(&a, &b);
        assert_eq!(matmul_blocked(&a, &b), reference);
        assert_eq!(matmul_simd(&a, &b), reference);
        assert_eq!(matmul_parallel(&a, &b), reference);
        assert_eq!(matmul(&a, &b), reference);
    }

    #[test]
    fn batched_paths_agree_bitwise() {
        let a = crate::init::randn([3, 17, 29], 3);
        let b = crate::init::randn([3, 29, 19], 4);
        let reference = batched_matmul_scalar(&a, &b);
        assert_eq!(batched_matmul_blocked(&a, &b), reference);
        assert_eq!(batched_matmul_simd(&a, &b), reference);
        assert_eq!(batched_matmul_parallel(&a, &b), reference);
        assert_eq!(batched_matmul(&a, &b), reference);
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
    fn batched_matches_loop_of_matmuls() {
        let a = arange([2, 3, 4]);
        let b = arange([2, 4, 5]);
        let c = batched_matmul(&a, &b);
        for batch in 0..2 {
            let a2 = Tensor::from_vec([3, 4], a.data()[batch * 12..(batch + 1) * 12].to_vec());
            let b2 = Tensor::from_vec([4, 5], b.data()[batch * 20..(batch + 1) * 20].to_vec());
            let expect = matmul(&a2, &b2);
            let got = &c.data()[batch * 15..(batch + 1) * 15];
            assert_eq!(got, expect.data());
        }
    }

    #[test]
    fn transpose_involution() {
        let a = arange([3, 5]);
        assert_eq!(transpose2d(&transpose2d(&a)), a);
        assert_eq!(transpose2d(&a).at(&[4, 2]), a.at(&[2, 4]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = arange([4, 3]);
        let x = Tensor::from_vec([3], vec![1., 2., 3.]);
        let y = matvec(&a, &x);
        let x_col = x.clone().reshape([3, 1]);
        let y2 = matmul(&a, &x_col).reshape([4]);
        assert_eq!(y, y2);
    }
}
