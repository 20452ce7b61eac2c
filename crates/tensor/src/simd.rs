//! Register-blocked SIMD-shaped kernels on stable Rust.
//!
//! The `simd` tier keeps the whole accumulator tile — up to 4 output rows
//! × one `[f32; W]` column strip — in registers for the entire reduction,
//! where the cache-blocked kernel round-trips a 4×64 accumulator through
//! the stack on every `p` step. The inner loops are unrolled mul-then-add
//! over fixed-size arrays, which LLVM lowers to packed vector
//! instructions of whatever ISA the enclosing function is compiled for.
//! At the default x86-64 target that is 128-bit SSE, whatever `W` is, so
//! the one generic micro-kernel is instantiated three times — `W = 8` for
//! any CPU, `4×24` under `avx2` (12 accumulators + 3 B + 1 broadcast = 16
//! `ymm`), `4×64` under `avx512f` — and [`matmul_simd_rows`] picks the
//! widest the CPU reports, per call. No nightly `std::simd`, no
//! intrinsics (one source for every ISA is the point), and no `unsafe`
//! but the detection-guarded calls into the `#[target_feature]`
//! trampolines. `gelu`'s lane loop (`ops::activation::tanh_lanes`) and
//! the `exp` lanes (`ops::activation::exp_lanes`) are instantiated the
//! same way, through [`on`].
//!
//! The row worker's loop order is about memory, not arithmetic: within
//! a block of row tiles the column strip is the outer loop, so a worker
//! loads each strip of B once per block, not once per 4-row tile.
//!
//! Bit-for-bit equivalence with the scalar reference is a structural
//! property, not an accident: every output element is produced by a
//! single f32 accumulator walking `p` in ascending order with the same
//! `a == 0.0` skip, and `mul` and `add` stay separate instructions —
//! rustc never contracts them into an FMA (which would round once, not
//! twice, and diverge) without an explicit `mul_add`, under any target
//! feature. Lanes vectorize across *independent* output columns, never
//! across the reduction, so no reduction order changes with `W`.

/// Output rows per micro-kernel tile (accumulator rows held live).
const MR: usize = 4;

/// Row tiles that share each pass over a B strip: a bit each of a `u64`.
const BLOCK: usize = 64;

/// The operands of one row-worker call, as [`matmul_simd_rows`] takes
/// them.
struct Rows<'a> {
    out_rows: &'a mut [f32],
    ad: &'a [f32],
    lda: usize,
    bd: &'a [f32],
    ldb: usize,
    k: usize,
    n: usize,
}

impl Rows<'_> {
    /// Micro-kernel: `IR` rows from `i0` × the `W`-column strip at `jt`,
    /// accumulators register-resident across the whole `k` reduction.
    /// Without `SKIP` the zero test is compiled out: [`Rows::run`] drops
    /// it for a tile whose A rows hold no zero, where it never fires.
    #[inline(always)]
    fn micro<const IR: usize, const W: usize, const SKIP: bool>(&mut self, i0: usize, jt: usize) {
        let n = self.n;
        let mut acc = [[0.0f32; W]; IR];
        for p in 0..self.k {
            let bs = &self.bd[p * self.ldb + jt..][..W];
            let mut bv = [0.0f32; W];
            bv.copy_from_slice(bs);
            for (r, lanes) in acc.iter_mut().enumerate() {
                let av = self.ad[(i0 + r) * self.lda + p];
                if SKIP && av == 0.0 {
                    continue;
                }
                for (o, &bvl) in lanes.iter_mut().zip(bv.iter()) {
                    *o += av * bvl;
                }
            }
        }
        for (r, lanes) in acc.iter().enumerate() {
            let obase = (i0 + r) * n + jt;
            self.out_rows[obase..obase + W].copy_from_slice(lanes);
        }
    }

    /// `W`-wide strips of the `ir`-row tile at `i0`, from column `jt` for
    /// as long as they fit below `end`; returns the first column left
    /// uncovered.
    #[inline(always)]
    fn strips<const W: usize>(
        &mut self,
        (i0, ir, skip): (usize, usize, bool),
        mut jt: usize,
        end: usize,
    ) -> usize {
        while jt + W <= end {
            match (ir, skip) {
                (4, true) => self.micro::<4, W, true>(i0, jt),
                (3, true) => self.micro::<3, W, true>(i0, jt),
                (2, true) => self.micro::<2, W, true>(i0, jt),
                (_, true) => self.micro::<1, W, true>(i0, jt),
                (4, false) => self.micro::<4, W, false>(i0, jt),
                (3, false) => self.micro::<3, W, false>(i0, jt),
                (2, false) => self.micro::<2, W, false>(i0, jt),
                (_, false) => self.micro::<1, W, false>(i0, jt),
            }
            jt += W;
        }
        jt
    }

    /// Every tile, a block of up to [`BLOCK`] tiles at a time. A block
    /// runs its widest strips strip-outer, so each `k × W0` strip of B
    /// comes from memory once per block, not once per tile (a one-tile
    /// block, every decode matmul, makes the tile-outer loop's calls);
    /// then, tile by tile, the columns left over cascade through narrower
    /// strips — attention's `n = 96` is `64 + 32`, not `64 + 4 × 8` —
    /// down to `W = 1`, the scalar tail. A cascade shorter than four
    /// repeats its last width, which is compiled out. A tile gets the
    /// zero test if one of its A rows holds a zero by the test's own
    /// predicate (`-0.0` does, `NaN` does not), so every output element
    /// runs the same `mul`s and `add`s in either loop order.
    #[inline(always)]
    fn run<const W0: usize, const W1: usize, const W2: usize, const W3: usize>(&mut self) {
        let (rows, n) = (self.out_rows.len() / self.n, self.n);
        for b0 in (0..rows).step_by(MR * BLOCK) {
            let tiles = (b0..rows.min(b0 + MR * BLOCK)).step_by(MR).enumerate();
            let mut skip = 0u64;
            for (t, i0) in tiles.clone() {
                let zero = |i: usize| self.ad[i * self.lda..][..self.k].contains(&0.0);
                skip |= u64::from((i0..rows.min(i0 + MR)).any(zero)) << t;
            }
            let tile = |(t, i0): (usize, usize)| (i0, (rows - i0).min(MR), skip >> t & 1 != 0);
            let from = n - n % W0;
            for jt in (0..from).step_by(W0) {
                for t in tiles.clone() {
                    self.strips::<W0>(tile(t), jt, jt + W0);
                }
            }
            for tile in tiles.map(tile) {
                let mut jt = from;
                if W1 < W0 {
                    jt = self.strips::<W1>(tile, jt, n);
                }
                if W2 < W1 {
                    jt = self.strips::<W2>(tile, jt, n);
                }
                if W3 < W2 {
                    jt = self.strips::<W3>(tile, jt, n);
                }
                self.strips::<1>(tile, jt, n);
            }
        }
    }
}

/// The instantiations of the row worker, widest first. Off x86-64 only
/// `Baseline` exists to run; the wide two are still named (`label`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    Avx512f,
    Avx2,
    Baseline,
}

impl Isa {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Isa::Avx512f => "avx512f",
            Isa::Avx2 => "avx2",
            Isa::Baseline => "baseline",
        }
    }

    /// The instantiations this CPU runs, widest first (`std` caches each
    /// probe: an atomic load). A wide one needs `fma` too, which its
    /// instantiations are compiled with for the `exp` lanes (every CPU
    /// with either ISA has it).
    pub(crate) fn detected() -> impl Iterator<Item = Isa> {
        #[cfg(target_arch = "x86_64")]
        let fma = is_x86_feature_detected!("fma");
        #[cfg(target_arch = "x86_64")]
        let wide = [
            (Isa::Avx512f, fma && is_x86_feature_detected!("avx512f")),
            (Isa::Avx2, fma && is_x86_feature_detected!("avx2")),
        ];
        #[cfg(not(target_arch = "x86_64"))]
        let wide: [(Isa, bool); 0] = [];
        let wide = wide.into_iter().filter_map(|(isa, has)| has.then_some(isa));
        wide.chain([Isa::Baseline])
    }

    /// The widest instantiation this CPU runs: the one every call takes.
    pub(crate) fn selected() -> Isa {
        Isa::detected().next().unwrap_or(Isa::Baseline)
    }
}

/// Run `f` compiled for `isa`, on a CPU that has it (checked). `f` is an
/// `#[inline(always)]` closure over `#[inline(always)]` code, a lane
/// loop, so that its body lands inside one of the `#[target_feature]`
/// trampolines below and LLVM vectorises it at that ISA's width: one
/// source, an instantiation per ISA and caller. (Left out of line, a
/// closure keeps its bits and loses the width: `gelu` 3× slower.)
pub(crate) fn on<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    assert!(Isa::detected().any(|has| has == isa), "no {isa:?} here");
    match isa {
        // SAFETY: `isa` is among `Isa::detected()`, asserted above, which
        // lists `Avx512f` only if `avx512f` and `fma` are detected.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Isa::Avx512f => unsafe { avx512f(f) },
        // SAFETY: likewise, `avx2` and `fma`.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Isa::Avx2 => unsafe { avx2(f) },
        _ => f(),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn avx512f<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// One instantiation's row worker, at its widths, on a CPU that has it
/// (checked). It calls the trampolines itself: through [`on`] each
/// trampoline would compile every ISA's widths (4× matmul text).
fn rows_on(isa: Isa, mut rows: Rows) {
    assert!(Isa::detected().any(|has| has == isa), "no {isa:?} here");
    match isa {
        // SAFETY: as in `on`.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Isa::Avx512f => unsafe {
            avx512f(
                #[inline(always)]
                || rows.run::<64, 32, 16, 8>(),
            )
        },
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Isa::Avx2 => unsafe {
            avx2(
                #[inline(always)]
                || rows.run::<24, 16, 8, 8>(),
            )
        },
        _ => rows.run::<8, 8, 8, 8>(),
    }
}

/// SIMD-tier kernel: `out_rows` (`out_rows.len() / n` rows of `n`,
/// packed) `= A · B`, where row `r` of A is `ad[r·lda..][..k]` and row `p`
/// of B is `bd[p·ldb..][..n]`. The parallel tier hands each worker its
/// chunk of rows and A from the chunk's first row; attention passes a
/// head's band of the packed projections, whose rows are wider than `k`
/// or `n`.
pub(crate) fn matmul_simd_rows(
    out_rows: &mut [f32],
    ad: &[f32],
    lda: usize,
    bd: &[f32],
    ldb: usize,
    k: usize,
    n: usize,
) {
    rows_on(
        Isa::selected(),
        Rows {
            out_rows,
            ad,
            lda,
            bd,
            ldb,
            k,
            n,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_scalar_ref(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = ad[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * bd[p * n + j];
                }
            }
        }
        out
    }

    /// Every instantiation this CPU runs (the row worker is one more
    /// input of each test below): all three in the dev container, at
    /// least `avx2` and `baseline` on a GitHub runner.
    fn instantiations() -> Vec<Isa> {
        let isas: Vec<Isa> = Isa::detected().collect();
        println!("row workers under test: {isas:?}");
        assert_eq!(isas.last(), Some(&Isa::Baseline));
        assert_eq!(crate::stats::isa(), isas[0].label(), "widest first");
        isas
    }

    /// `out_rows = A · B`, A and B packed (`lda = k`, `ldb = n`).
    fn run(isa: Isa, out_rows: &mut [f32], ad: &[f32], bd: &[f32], k: usize, n: usize) {
        rows_on(
            isa,
            Rows {
                out_rows,
                ad,
                lda: k,
                bd,
                ldb: n,
                k,
                n,
            },
        )
    }

    #[test]
    fn simd_rows_bit_identical_to_scalar() {
        // Every row arity as the last tile × every strip width of both
        // cascades, alone and stacked: 189 = 2·64 + 32 + 16 + 8 + 5,
        // 75 = 2·24 + 16 + 8 + 3, 96 = 64 + 32 = 4·24.
        let ns = [
            1, 7, 8, 9, 16, 23, 24, 31, 32, 40, 47, 48, 63, 64, 71, 75, 96, 127, 189,
        ];
        for isa in instantiations() {
            for m in [1, 2, 3, 4, 5, 6, 7, 13] {
                for (i, &n) in ns.iter().enumerate() {
                    let k = 1 + (m * 7 + i * 5) % 37;
                    let ad: Vec<f32> = (0..m * k)
                        .map(|i| ((i * 2654435761usize) % 1000) as f32 / 500.0 - 1.0)
                        .collect();
                    let bd: Vec<f32> = (0..k * n)
                        .map(|i| ((i * 40503usize) % 997) as f32 / 498.5 - 1.0)
                        .collect();
                    let want = matmul_scalar_ref(&ad, &bd, m, k, n);
                    let mut got = vec![0.0f32; m * n];
                    run(isa, &mut got, &ad, &bd, k, n);
                    assert_eq!(got, want, "{isa:?} m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn simd_rows_respects_row_offset_and_strides() {
        // Rows [2, 5) standalone must equal the same rows of the full
        // product — the contract the parallel tier relies on — and so
        // must the same operands read out of wider rows, as attention
        // reads a head's band (A three columns wider, B five, both
        // starting one column in).
        for isa in instantiations() {
            for n in [19usize, 75, 189] {
                let (m, k) = (7usize, 11usize);
                let ad: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
                let bd: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
                let full = matmul_scalar_ref(&ad, &bd, m, k, n);
                let mut got = vec![0.0f32; 3 * n];
                run(isa, &mut got, &ad[2 * k..], &bd, k, n);
                assert_eq!(got, &full[2 * n..5 * n], "{isa:?} n={n}");

                let (lda, ldb) = (k + 3, n + 5);
                let mut wide_a = vec![f32::NAN; m * lda];
                for (row, src) in wide_a.chunks_mut(lda).zip(ad.chunks(k)) {
                    row[1..=k].copy_from_slice(src);
                }
                let mut wide_b = vec![f32::NAN; k * ldb];
                for (row, src) in wide_b.chunks_mut(ldb).zip(bd.chunks(n)) {
                    row[1..=n].copy_from_slice(src);
                }
                let rows = Rows {
                    out_rows: &mut got,
                    ad: &wide_a[2 * lda + 1..],
                    lda,
                    bd: &wide_b[1..],
                    ldb,
                    k,
                    n,
                };
                rows_on(isa, rows);
                assert_eq!(got, &full[2 * n..5 * n], "{isa:?} n={n} strided");
            }
        }
    }

    #[test]
    fn simd_rows_across_block_boundaries() {
        // Up to 75 tiles: one block, a full one, one row past it, a
        // partial second block. B's last row holds `±inf` and `NaN`, and
        // one row in every third tile of the first block, and the last
        // row, hides it behind a signed zero in A's last column, so a
        // zero-test mask shifted by a tile lets `0 · inf` through, and a
        // block that drops its last partial tile leaves zeros. Operands
        // are strided, as attention reads a head's band.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let k = 9usize;
        for isa in instantiations() {
            for m in [255usize, 256, 257, 300] {
                for n in [19usize, 75, 189] {
                    let mut ad: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
                    let zero_rows = (1..64).step_by(3).map(|t| 4 * t + t % 4).chain([m - 1]);
                    for (z, r) in zero_rows.enumerate() {
                        ad[r * k + k - 1] = [0.0, -0.0][z % 2];
                    }
                    let mut bd: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
                    for (j, x) in bd[(k - 1) * n..].iter_mut().enumerate() {
                        *x = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
                    }
                    let want = matmul_scalar_ref(&ad, &bd, m, k, n);
                    assert!(want[(m - 1) * n..].iter().all(|v| v.is_finite()));
                    let (lda, ldb) = (k + 3, n + 5);
                    let mut wide_a = vec![f32::NAN; m * lda];
                    for (row, src) in wide_a.chunks_mut(lda).zip(ad.chunks(k)) {
                        row[1..=k].copy_from_slice(src);
                    }
                    let mut wide_b = vec![f32::NAN; k * ldb];
                    for (row, src) in wide_b.chunks_mut(ldb).zip(bd.chunks(n)) {
                        row[1..=n].copy_from_slice(src);
                    }
                    let mut got = vec![0.0f32; m * n];
                    let rows = Rows {
                        out_rows: &mut got,
                        ad: &wide_a[1..],
                        lda,
                        bd: &wide_b[1..],
                        ldb,
                        k,
                        n,
                    };
                    rows_on(isa, rows);
                    assert_eq!(bits(&got), bits(&want), "{isa:?} m={m} n={n}");
                }
            }
        }
    }

    #[test]
    fn zero_skip_matches_scalar() {
        // Exact zeros in A exercise the skip on both sides; with lanes
        // across columns the skip stays per-(row, p), so bit-identity
        // holds even with -0.0 and denormals nearby. The skip is
        // observable: under a zero in A, an `inf` or `NaN` in B must not
        // reach the output (0 · inf = NaN), in any strip width.
        for isa in instantiations() {
            for n in [10usize, 75, 189] {
                let (m, k) = (6usize, 9usize);
                let mut ad = vec![0.0f32; m * k];
                for (i, v) in ad.iter_mut().enumerate() {
                    *v = if i % 3 == 0 { 0.0 } else { (i as f32) * 0.25 };
                }
                ad[4] = -0.0;
                for row in ad.chunks_mut(k) {
                    row[6] = 0.0;
                    row[7] = -0.0;
                }
                let mut bd: Vec<f32> = (0..k * n).map(|i| 1.0e-3 * i as f32).collect();
                bd[6 * n..7 * n].fill(f32::INFINITY);
                bd[7 * n..8 * n].fill(f32::NAN);
                let want = matmul_scalar_ref(&ad, &bd, m, k, n);
                assert!(want.iter().all(|v| v.is_finite()));
                let mut got = vec![0.0f32; m * n];
                run(isa, &mut got, &ad, &bd, k, n);
                assert_eq!(got, want, "{isa:?} n={n}");
            }
        }
    }
}
