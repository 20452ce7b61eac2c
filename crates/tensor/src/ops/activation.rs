//! Pointwise activations and softmax.
//!
//! Two libm routines are ported as branch-free lanes, so that LLVM
//! vectorises them and no output reads the host's libm: `gelu`'s tanh
//! ([`tanh`]: fdlibm's `tanhf` and `expm1f`, the algorithm glibc ships)
//! and `exp` (glibc 2.36's `expf`) for `silu`, `sigmoid` and every
//! softmax. A lane computes each path of the C routine and keeps the one
//! its input selects; each path is the routine's own IEEE operations in
//! order — for `expf` with its five multiply-adds fused, as glibc's FMA
//! build (the one its ifunc runs on any x86-64 with FMA and AVX2) computes
//! them. rustc contracts no `mul` and `add` into an FMA and a `mul_add`
//! rounds once on every target, so a lane is the routine's result bit for
//! bit at any width. `simd::on` instantiates each loop under `avx512f`,
//! `avx2` and baseline. One thread, per element under those three: `gelu`
//! on `[96, 1024]` ≈ 2.6 / 3.4 / 7.0 ns (libm's `tanhf`: ≈ 18), `exp` ≈
//! 0.8 / 1.4 / 17 ns (libm's `expf`: ≈ 3.3; the baseline calls libm's
//! `fma`).

use crate::par;
use crate::simd::{self, Isa};
use crate::tensor::Tensor;

/// Elements from which `gelu` goes out over the worker pool: ≈ 3.4 ns
/// per element inline (with the output's allocation), against a hand-off
/// of ≈ 10 µs. Measured on `[r, 1024]` (EXPERIMENTS.md): `r = 4` loses
/// (14 → 19 µs), `r = 8` is even, and from `r = 16` on two threads win
/// (55 → 43 µs; `[96, 1024]`, `prefill_wide`'s, 335 → 195 µs). A decode
/// step's `[1, ffn]` stays inline.
const TANH_PAR_MIN_ELEMS: usize = 1 << 14;

/// Elementwise ReLU.
pub fn relu(x: &Tensor) -> Tensor {
    map(x, |v| v.max(0.0))
}

/// Elementwise GELU (tanh approximation, as used by GPT-style models).
pub fn gelu(x: &Tensor) -> Tensor {
    let isa = Isa::selected();
    map_pooled(x, |out, xs| {
        simd::on(
            isa,
            #[inline(always)]
            || tanh_lanes::<true>(out, xs),
        )
    })
}

/// Elementwise SiLU / swish.
pub fn silu(x: &Tensor) -> Tensor {
    map_exp_neg(x, |v, e| v / (1.0 + e))
}

/// Elementwise sigmoid.
pub fn sigmoid(x: &Tensor) -> Tensor {
    map_exp_neg(x, |_, e| 1.0 / (1.0 + e))
}

/// `f(v, exp(-v))` for every element `v` of `x`, the `exp`s one lane
/// loop over the output.
fn map_exp_neg(x: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    Tensor::build(x.shape().clone(), |out| {
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o = -v;
        }
        simd::on(
            Isa::selected(),
            #[inline(always)]
            || exp_lanes(out),
        );
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o = f(v, *o);
        }
    })
}

/// Numerically-stable softmax over the innermost dimension.
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let inner = *x.dims().last().expect("softmax requires rank >= 1");
    let isa = Isa::selected();
    Tensor::build(x.shape().clone(), |out| {
        out.copy_from_slice(x.data());
        for row in out.chunks_mut(inner) {
            softmax_row(isa, row);
        }
    })
}

/// Softmax of `row` in place: `exp(v - max)` over the row's sum, the sum
/// one f32 accumulator in ascending order. Attention's fused loop runs
/// the same function over each query's visible keys.
pub(crate) fn softmax_row(isa: Isa, row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v -= max;
    }
    simd::on(
        isa,
        #[inline(always)]
        || exp_lanes(row),
    );
    let sum = row.iter().fold(0.0, |sum, e| sum + e);
    for v in row.iter_mut() {
        *v /= sum;
    }
}

fn map(x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::build(x.shape().clone(), |out| {
        for (o, &v) in out.iter_mut().zip(x.data()) {
            *o = f(v);
        }
    })
}

/// `kernel(out, xs)` over `x`, for `gelu`: from [`TANH_PAR_MIN_ELEMS`] up,
/// whole innermost rows go out over the worker pool. An element is still
/// a function of its own input alone, so the result is the single-thread
/// loop's, bit for bit. Nothing else comes here: no model calls the
/// `exp` maps (`silu`, `sigmoid`) on more than 2¹⁴ elements, and the
/// cheap maps (`relu`, `add`, `mul`, `scale`, `add_bias`: 5 µs on
/// `[96, 256]`) cost less than one wake-up.
fn map_pooled(x: &Tensor, kernel: impl Fn(&mut [f32], &[f32]) + Sync) -> Tensor {
    Tensor::build(x.shape().clone(), |out| {
        if x.len() < TANH_PAR_MIN_ELEMS {
            return kernel(out, x.data());
        }
        let row = *x.dims().last().expect("rank 0 is below any threshold");
        par::par_rows(out, row, |row0, chunk| {
            kernel(chunk, &x.data()[row0 * row..])
        });
    })
}

/// `out[i] = gelu(xs[i])`, or `tanh(xs[i])` without `GELU` (the tests'
/// view of the same lanes), for as many elements as `out` holds. The body
/// is branch-free, so LLVM vectorises the loop at whatever width the
/// enclosing `#[target_feature]` function allows.
#[inline(always)]
pub(crate) fn tanh_lanes<const GELU: bool>(out: &mut [f32], xs: &[f32]) {
    for (o, &v) in out.iter_mut().zip(xs) {
        *o = if GELU {
            0.5 * v * (1.0 + tanh(0.797_884_6 * (v + 0.044_715 * v * v * v)))
        } else {
            tanh(v)
        };
    }
}

// fdlibm's `expm1f` constants, as their bit patterns in the C source.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// fdlibm `tanhf(v)`, branch-free: `1 - 2/(t + 2)` with `t =
/// expm1f(2|v|)` from |v| ≥ 1, `-t/(t + 2)` with `t = expm1f(-2|v|)`
/// below, `v` under 2⁻⁵⁵, ±1 from 22 on. Of `expm1f` it keeps the paths
/// those two arguments reach — `(-2, -2⁻⁵⁴]` and `[2, 44)` — and the
/// `tanhf` oracle in the tests is where each line below comes from.
#[inline(always)]
fn tanh(v: f32) -> f32 {
    let bits = v.to_bits();
    let ix = bits & 0x7fff_ffff;
    let big = ix >= 0x3f80_0000;
    // |v| clamped at 22, so that every lane, ±inf and NaN included,
    // computes on finite values (the lanes from 22 up keep ±1).
    let ax2 = 2.0 * f32::from_bits(ix.min(0x41b0_0000));
    let a = if big { ax2 } else { -ax2 };
    let ha = ax2.to_bits();

    // expm1f(a). Reduce a = k·ln2 + x + c: k = 0 up to 0.5·ln2, ±1 up to
    // 1.5·ln2, `(int)(a/ln2 ± 0.5)` beyond. Rust's saturating `as i32`
    // does not vectorise, so the truncation rounds to nearest by adding
    // 1.5·2²³ and steps back toward zero where that rounded away.
    const ROUND: f32 = 12_582_912.0;
    let y = INVLN2 * a + if big { 0.5 } else { -0.5 };
    let r = y + ROUND;
    let n = r.to_bits() as i32 - ROUND.to_bits() as i32;
    let m = r - ROUND;
    let k = if ha <= 0x3eb1_7218 {
        0
    } else if ha < 0x3f85_1592 {
        -1 // `a` this small is negative: `big` starts at 2
    } else if big {
        n - (m > y) as i32
    } else {
        n + (m < y) as i32
    };
    let kf = k as f32;
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let ek = x * (e - c) - c - hxs;
    let twopk = f32::from_bits(((0x7f + k) as u32) << 23);
    let twomk = f32::from_bits(((0x7f - k) as u32) << 23);
    let expm1 = if ha < 0x3300_0000 {
        a
    } else if k == 0 {
        x - (x * e - hxs)
    } else if k == -1 {
        0.5 * (x - ek) - 0.5
    } else if k <= -2 || k > 56 {
        (1.0 - (ek - x)) * twopk - 1.0
    } else if k < 23 {
        // 1 - 2⁻ᵏ is exact for these k: the C source's bit pattern.
        ((1.0 - twomk) - (ek - x)) * twopk
    } else {
        ((x - (ek + twomk)) + 1.0) * twopk
    };

    let num = if big { 2.0 } else { -expm1 };
    let q = num / (expm1 + 2.0);
    let z = if big { 1.0 - q } else { q };
    if ix < 0x2400_0000 {
        v // |v| < 2⁻⁵⁵, ±0 and subnormals included: `x·(1 + x)` is `x`
    } else if ix < 0x41b0_0000 {
        z.copysign(v) // `-z` for negative `v`: `z` is positive
    } else if ix <= 0x7f80_0000 {
        1.0f32.copysign(v) // ±inf included
    } else {
        v + v // NaN, quieted as `1/x ± 1` quiets it
    }
}

/// `xs[i] = exp(xs[i])` for every element: branch-free, so LLVM
/// vectorises the loop (table lookups as gathers) at whatever width the
/// enclosing `#[target_feature]` function allows.
#[inline(always)]
pub(crate) fn exp_lanes(xs: &mut [f32]) {
    for x in xs {
        *x = exp(*x);
    }
}

// glibc's `__exp2f_data`: `EXP2F_TAB[i] = bits(2^(i/32)) - (i << 47)`, and
// the polynomial and `32/ln2` as `poly_scaled` and `invln2_scaled`.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
const INVLN2_32: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// 1.5·2⁵²: adding it rounds to an integer in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// `log(2¹²⁸)` and `log(2⁻¹⁵⁰)` rounded to `f32`: above the one `exp`
/// overflows to `+inf`, below the other it underflows to `+0`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// glibc 2.36 `expf(x)`, branch-free: `x·32/ln2 = k + r`, `exp(x) =
/// 2^(k/32)·2^(r/32)` with the first factor a table entry scaled by `k /
/// 32` in its exponent and the second a cubic in `r`. Every lane
/// computes that path on whatever it holds (the integer steps wrap, so
/// nothing traps) and keeps it unless its input is NaN (`x + x`), above
/// [`EXP_OVERFLOW`] (`+inf`, `+inf` itself included) or below
/// [`EXP_UNDERFLOW`] (`+0`, `-inf` included): the C routine's checks,
/// which it only makes from |x| ≥ 88, where the main path stays valid
/// between the two cuts. Each `mul_add` is one of the five multiply-adds
/// glibc's FMA build fuses; unfused, two inputs (32.564632 and
/// −63.09946) round the other way.
#[inline(always)]
fn exp(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INVLN2_32.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INVLN2_32.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = EXP_C[0]
        .mul_add(r, EXP_C[1])
        .mul_add(r * r, EXP_C[2].mul_add(r, 1.0))
        * s;
    if x.is_nan() {
        x + x
    } else if x > EXP_OVERFLOW {
        f32::INFINITY
    } else if x < EXP_UNDERFLOW {
        0.0
    } else {
        y as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fdlibm `expm1f`, branch for branch, on the arguments `tanhf`
    /// passes it, `(-2, 0)` and `[2, 44)`: its branches for overflow, for
    /// `x ≤ -27·ln2` and for `k = 1` take none of them.
    fn expm1f(x: f32) -> f32 {
        assert!(
            (-2.0..0.0).contains(&x) || (2.0..44.0).contains(&x),
            "tanhf never asks for expm1f({x})"
        );
        let hx = x.to_bits() & 0x7fff_ffff;
        let neg = x < 0.0;
        let mut x = x;
        let (c, k);
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1); // `neg`, here
            } else {
                k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            return x;
        } else {
            (c, k) = (0.0, 0);
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        let twopk = f32::from_bits(((0x7f + k) as u32) << 23);
        if k <= -2 || k > 56 {
            return (1.0 - (e - x)) * twopk - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            (t - (e - x)) * twopk
        } else {
            let t = f32::from_bits(((0x7f - k) as u32) << 23);
            let y = x - (e + t);
            (y + 1.0) * twopk
        }
    }

    /// fdlibm `tanhf`, branch for branch: the oracle [`tanh`] is held to,
    /// as `matmul_scalar` is for matmul.
    fn tanhf(x: f32) -> f32 {
        let jx = x.to_bits();
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >> 31 == 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z = if ix >= 0x41b0_0000 {
            1.0 - 1.0e-30
        } else if ix == 0 {
            return x;
        } else if ix < 0x2400_0000 {
            return x * (1.0 + x);
        } else if ix >= 0x3f80_0000 {
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        };
        if jx >> 31 == 0 {
            z
        } else {
            -z
        }
    }

    /// glibc 2.36 `expf`, branch for branch, as its FMA build runs it:
    /// the oracle [`exp`] is held to.
    fn expf(x: f32) -> f32 {
        let abstop = (x.to_bits() >> 20) & 0x7ff;
        if abstop >= 0x42b {
            // |x| ≥ 88 or NaN.
            if x == f32::NEG_INFINITY {
                return 0.0;
            }
            if abstop >= 0x7f8 {
                return x + x;
            }
            if x > EXP_OVERFLOW {
                return f32::from_bits(0x7000_0000) * f32::from_bits(0x7000_0000);
                // 2⁹⁷·2⁹⁷
            }
            if x < EXP_UNDERFLOW {
                return f32::from_bits(0x1000_0000) * f32::from_bits(0x1000_0000);
                // 2⁻⁹⁵·2⁻⁹⁵
            }
        }
        let xd = f64::from(x);
        // `z = InvLn2N·xd` feeds two additions, and GCC fuses both.
        let kd = INVLN2_32.mul_add(xd, SHIFT);
        let ki = kd.to_bits();
        let kd = kd - SHIFT;
        let r = INVLN2_32.mul_add(xd, -kd);
        let t = EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47);
        let s = f64::from_bits(t);
        let z = EXP_C[0].mul_add(r, EXP_C[1]);
        let r2 = r * r;
        let y = EXP_C[2].mul_add(r, 1.0);
        let y = z.mul_add(r2, y);
        (y * s) as f32
    }

    /// Every instantiation of the lane loops this CPU runs.
    fn instantiations() -> Vec<Isa> {
        let isas: Vec<Isa> = Isa::detected().collect();
        println!("lane loops under test: {isas:?}");
        isas
    }

    /// Lanes and the oracle they are held to, by name.
    type Lanes = (&'static str, fn(Isa, &mut [f32], &[f32]), fn(f32) -> f32);

    const TANH: Lanes = (
        "tanh",
        |isa, out, xs| {
            simd::on(
                isa,
                #[inline(always)]
                || tanh_lanes::<false>(out, xs),
            )
        },
        tanhf,
    );
    const EXP: Lanes = (
        "exp",
        |isa, out, xs| {
            out.copy_from_slice(xs);
            simd::on(
                isa,
                #[inline(always)]
                || exp_lanes(out),
            )
        },
        expf,
    );

    /// `lanes` under each of `isas` against their oracle on the bit
    /// patterns `bits` yields, in batches of 4 096: mismatches per ISA,
    /// the first few printed.
    fn mismatches(lanes: Lanes, isas: &[Isa], bits: impl Iterator<Item = u32>) -> Vec<u64> {
        let (name, run, oracle) = lanes;
        let mut bits = bits.peekable();
        let mut bad = vec![0; isas.len()];
        let (mut xs, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
        while bits.peek().is_some() {
            xs.clear();
            xs.extend(bits.by_ref().take(4096).map(f32::from_bits));
            want.clear();
            want.extend(xs.iter().map(|&x| oracle(x).to_bits()));
            got.resize(xs.len(), 0.0);
            for (&isa, bad) in isas.iter().zip(&mut bad) {
                run(isa, &mut got, &xs);
                for ((x, want), got) in xs.iter().zip(&want).zip(&got) {
                    if got.to_bits() != *want {
                        if *bad < 5 {
                            let want = f32::from_bits(*want);
                            println!("{isa:?}: {name}({x:e}) = {got:e}, oracle {want:e}");
                        }
                        *bad += 1;
                    }
                }
            }
        }
        bad
    }

    /// Every 2¹⁶-th pattern walks all exponents, both signs and the NaNs:
    /// 65 536 inputs (4 096 let a misplaced rounding through).
    fn sweep() -> impl Iterator<Item = u32> {
        (0..1u32 << 16).map(|i| (i << 16) | 0x2e3b)
    }

    /// Special inputs beside the neighbourhoods of `edges`.
    fn specials() -> [u32; 3] {
        [f32::NAN.to_bits(), 0x7f80_0001, 0xffc0_1234]
    }

    /// The sign-symmetric neighbourhood (±3 ulp) of `x`.
    fn around(x: f32) -> impl Iterator<Item = u32> {
        let b = x.to_bits();
        (b.saturating_sub(3)..=b.saturating_add(3)).flat_map(|b| [b, b | 0x8000_0000])
    }

    #[test]
    fn tanh_lanes_equal_the_oracle_on_a_sweep_and_every_branch_boundary() {
        let ln2 = std::f32::consts::LN_2;
        let mut edges: Vec<u32> = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::from_bits(0x2400_0000), // 2⁻⁵⁵: below it tanh(x) is x
            f32::from_bits(0x3300_0000), // 2⁻²⁵: expm1f's own `x` cut
            0.25 * ln2,                  // expm1f(-2|x|) at 0.5·ln2 …
            0.75 * ln2,                  // … and 1.5·ln2
            0.5,
            1.0,
            22.0,
            13.5 * ln2, // 27·ln2 for expm1f(2|x|)
            f32::MAX,
            f32::INFINITY,
        ]
        .into_iter()
        .flat_map(around)
        .collect();
        edges.extend(specials());
        let isas = instantiations();
        let bad = mismatches(TANH, &isas, edges.into_iter().chain(sweep()));
        assert_eq!(bad, vec![0; isas.len()], "{isas:?}");
    }

    #[test]
    fn exp_lanes_equal_the_oracle_on_a_sweep_and_every_branch_edge() {
        let edges: Vec<u32> = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            88.0,          // where the C routine starts checking ranges
            EXP_OVERFLOW,  // 88.72284: above, +inf
            -87.336_55,    // log(2⁻¹²⁶): below, subnormal results
            EXP_UNDERFLOW, // −103.97208: below, +0
            f32::MAX,
            f32::INFINITY,
        ]
        .into_iter()
        .flat_map(around)
        .chain(specials())
        .collect();
        let isas = instantiations();
        let bad = mismatches(EXP, &isas, edges.into_iter().chain(sweep()));
        assert_eq!(bad, vec![0; isas.len()], "{isas:?}");
    }

    #[test]
    fn gelu_lanes_apply_the_oracle_tanh() {
        // The lanes as `gelu` runs them against `gelu`'s formula over the
        // oracle, on a dense grid of [-12, 12] and a few extremes.
        let xs: Vec<f32> = (0..24_577)
            .map(|i| i as f32 / 1024.0 - 12.0)
            .chain([
                f32::MAX,
                f32::MIN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                1e-30,
            ])
            .collect();
        let want: Vec<u32> = xs
            .iter()
            .map(|&v| {
                (0.5 * v * (1.0 + tanhf(0.797_884_6 * (v + 0.044_715 * v * v * v)))).to_bits()
            })
            .collect();
        for isa in instantiations() {
            let mut out = vec![0.0; xs.len()];
            simd::on(
                isa,
                #[inline(always)]
                || tanh_lanes::<true>(&mut out, &xs),
            );
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{isa:?}");
        }
    }

    /// Every 2³² input through every instantiation of `lanes`, one half
    /// of the patterns per thread.
    fn every_input(lanes: Lanes) {
        let isas = instantiations();
        let halves = std::thread::scope(|s| {
            let half = |sign: u32| {
                let isas = &isas;
                let bits = (0..=u32::MAX >> 1).map(move |b| b | sign);
                s.spawn(move || mismatches(lanes, isas, bits))
            };
            [half(0), half(1 << 31)].map(|h| h.join().expect("sweep thread"))
        });
        for (i, isa) in isas.iter().enumerate() {
            let bad = halves[0][i] + halves[1][i];
            println!("{isa:?}: {bad} {} mismatches in 2^32 inputs", lanes.0);
            assert_eq!(bad, 0, "{isa:?}");
        }
    }

    /// `cargo test --release -p genie-tensor --lib -- --ignored
    /// --nocapture tanh_lanes_equal`.
    #[test]
    #[ignore]
    fn tanh_lanes_equal_the_oracle_on_every_input() {
        every_input(TANH);
    }

    /// `cargo test --release -p genie-tensor --lib -- --ignored
    /// --nocapture exp_lanes_equal`.
    #[test]
    #[ignore]
    fn exp_lanes_equal_the_oracle_on_every_input() {
        every_input(EXP);
    }

    /// `oracle` against the host's `libm` on every input, one half of
    /// the patterns per thread: mismatches.
    fn host_mismatches(oracle: fn(f32) -> f32, libm: fn(f32) -> f32) -> u64 {
        std::thread::scope(|s| {
            let half = |hi: u32| {
                s.spawn(move || {
                    (0..=u32::MAX >> 1)
                        .map(|b| f32::from_bits(b | hi))
                        .filter(|&x| oracle(x).to_bits() != libm(x).to_bits())
                        .count() as u64
                })
            };
            [half(0), half(1 << 31)]
                .map(|h| h.join().expect("sweep thread"))
                .iter()
                .sum()
        })
    }

    /// The `tanh` oracle against the host's `f32::tanh` on every input:
    /// which libm the golden files' bits agree with (glibc 2.36's
    /// `tanhf`: 0 mismatches). Not run in CI — no output of the crate
    /// reads the host libm's `tanhf`.
    #[test]
    #[ignore]
    fn oracle_equals_the_host_tanhf_on_every_input() {
        let bad = host_mismatches(tanhf, f32::tanh);
        println!("oracle vs host tanhf: {bad} mismatches in 2^32 inputs");
        assert_eq!(bad, 0);
    }

    /// The `exp` oracle against the host's `f32::exp`, likewise (glibc
    /// 2.36's `expf`, its FMA build: 0 mismatches; the oracle with its
    /// multiply-adds unfused differs at 32.564632 and −63.09946).
    #[test]
    #[ignore]
    fn oracle_equals_the_host_expf_on_every_input() {
        let bad = host_mismatches(expf, f32::exp);
        println!("oracle vs host expf: {bad} mismatches in 2^32 inputs");
        assert_eq!(bad, 0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec([4], vec![-2.0, -0.5, 0.0, 3.0]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn gelu_reference_points() {
        let x = Tensor::from_vec([3], vec![0.0, 1.0, -1.0]);
        let y = gelu(&x);
        assert!((y.data()[0] - 0.0).abs() < 1e-6);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn silu_and_sigmoid_relation() {
        let x = Tensor::from_vec([3], vec![-1.0, 0.0, 2.0]);
        let s = silu(&x);
        let sig = sigmoid(&x);
        for i in 0..3 {
            assert!((s.data()[i] - x.data()[i] * sig.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn pooled_gelu_equals_the_single_thread_loop_bit_for_bit() {
        // Below, at and above the threshold, and a ragged row count well
        // above it: the whole tensor at once (pooled from the threshold
        // up) against the same function one row at a time (a row is far
        // below the threshold, so that is the plain loop).
        let cols = 512;
        let at = TANH_PAR_MIN_ELEMS / cols;
        for rows in [at - 1, at, at + 1, 2 * at + 3] {
            let x = crate::init::randn([rows, cols], rows as u64);
            let whole = gelu(&x);
            assert_eq!(whole.dims(), x.dims());
            for (r, got) in whole.data().chunks(cols).enumerate() {
                let row = Tensor::from_vec([1, cols], x.data()[r * cols..][..cols].to_vec());
                assert_eq!(got, gelu(&row).data(), "rows={rows} row {r}");
            }
        }
        // Rank 3 splits into its 35 innermost rows; rank 1 is one row,
        // which leaves nothing to split.
        let x = crate::init::randn([7, 5, 1024], 10);
        assert_eq!(gelu(&x).data(), gelu(&x.reshaped([35 * 1024])).data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let y = softmax_lastdim(&x);
        for r in 0..2 {
            let sum: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Large inputs must not overflow (stability check).
        assert!(y.data()[3].is_finite());
        // Monotonicity within a row.
        assert!(y.data()[0] < y.data()[1] && y.data()[1] < y.data()[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec([1, 4], vec![0.1, 0.2, 0.3, 0.4]);
        let shifted = Tensor::from_vec([1, 4], vec![100.1, 100.2, 100.3, 100.4]);
        assert!(softmax_lastdim(&x).approx_eq(&softmax_lastdim(&shifted), 1e-5));
    }
}
