//! Quantized kernel tiers: int8 (per-row/-column absmax) and fp16
//! (half storage, f32 accumulate).
//!
//! These tiers trade accuracy for arithmetic density and are therefore
//! *not* bit-identical to the scalar reference. Each carries a
//! mechanical worst-case error bound, re-derived here and advertised to
//! `genie-analysis` as a per-MAC tier factor so GA301 can statically
//! deny a plan whose `tolerance_rel` the tier cannot meet:
//!
//! * **int8** — `A`'s row `i` is scaled by `s_a = max|A[i,:]| / 127`,
//!   `B`'s column `j` by `s_b = max|B[:,j]| / 127`, both rounded to
//!   nearest; the dot product runs in i32 and is rescaled once by
//!   `s_a·s_b`. With `δ ≤ s/2` per quantized element,
//!   `|err[i,j]| ≤ k·Amax_i·Bmax_j·(2/254 + 1/(4·127²)) ≈ k·Amax·Bmax·2^-7`.
//!   Advertised per-MAC relative bound: `2^-6` ([`INT8_MAC_RELERR`]),
//!   a 2× safety margin.
//! * **fp16** — inputs are rounded through IEEE binary16
//!   (round-to-nearest-even) and the product accumulates in f32:
//!   `a' = a(1+δ)` with `|δ| ≤ 2^-11` in the normal range, so
//!   `|err[i,j]| ≤ k·Amax_i·Bmax_j·(2^-10 + O(2^-22))`. Advertised
//!   per-MAC relative bound: `2^-9` ([`FP16_MAC_RELERR`]).

use crate::ops::linalg::matmul_dims;
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Advertised per-MAC relative error bound of the int8 tier (2^-6),
/// relative to `k · max|A row| · max|B column|`. The mechanical bound is
/// ≈2^-7; GA3xx prices this tier as `INT8_MAC_RELERR / eps_f32`.
pub const INT8_MAC_RELERR: f64 = 0.015625;

/// Advertised per-MAC relative error bound of the fp16 tier (2^-9).
pub const FP16_MAC_RELERR: f64 = 0.001953125;

// --- int8 -----------------------------------------------------------------

/// Per-row absmax quantization of an `[rows, k]` row-major buffer.
/// Returns `(q, scales)` with `data[r*k+p] ≈ q[r*k+p] as f32 * scales[r]`.
pub fn quantize_rows_i8(data: &[f32], rows: usize, k: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; rows * k];
    let mut scales = vec![0.0f32; rows];
    for r in 0..rows {
        let row = &data[r * k..(r + 1) * k];
        let absmax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        // An all-zero row quantizes to zeros; scale 1 avoids 0/0.
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        scales[r] = scale;
        for (qv, &v) in q[r * k..(r + 1) * k].iter_mut().zip(row) {
            *qv = (v / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scales)
}

/// Per-column absmax quantization of a `[k, n]` row-major buffer,
/// transposing to `[n, k]` so the int8 dot walks both operands
/// contiguously. Returns `(q_t, scales)` with
/// `data[p*n+j] ≈ q_t[j*k+p] as f32 * scales[j]`.
pub fn quantize_cols_i8(data: &[f32], k: usize, n: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; n * k];
    let mut scales = vec![0.0f32; n];
    for j in 0..n {
        let mut absmax = 0.0f32;
        for p in 0..k {
            absmax = absmax.max(data[p * n + j].abs());
        }
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        scales[j] = scale;
        for p in 0..k {
            q[j * k + p] = (data[p * n + j] / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scales)
}

fn matmul_int8_into(out: &mut [f32], ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize) {
    // i32 accumulation is exact while k·127² fits: k up to ~2^17.
    debug_assert!(
        k <= (i32::MAX / (127 * 127)) as usize,
        "int8 tier: k={k} would overflow i32 accumulation"
    );
    let (qa, sa) = quantize_rows_i8(ad, m, k);
    let (qbt, sb) = quantize_cols_i8(bd, k, n);
    for i in 0..m {
        let arow = &qa[i * k..(i + 1) * k];
        for j in 0..n {
            let bcol = &qbt[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&a, &b) in arow.iter().zip(bcol) {
                acc += a as i32 * b as i32;
            }
            out[i * n + j] = acc as f32 * sa[i] * sb[j];
        }
    }
}

/// int8 matmul: `C[m,n] ≈ A[m,k] · B[k,n]` within the int8 error bound
/// — the `Int8` tier of [`crate::ops::matmul_on`].
pub fn matmul_int8(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Int8);
    Tensor::build([m, n], |out| {
        matmul_int8_into(out, a.data(), b.data(), m, k, n);
    })
}

// --- fp16 -----------------------------------------------------------------

/// Convert f32 to IEEE binary16 bits, round-to-nearest-even, handling
/// subnormals, overflow to infinity, and NaN payload truncation.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN; keep NaN non-signaling by forcing a payload bit.
        let payload = if man != 0 {
            0x0200 | (man >> 13) as u16
        } else {
            0
        };
        return sign | 0x7c00 | payload;
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal half: shift the (implicit-bit) mantissa into place.
        let full = man | 0x0080_0000;
        let shift = (14 - e) as u32; // 14..=24
        let half = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && half & 1 == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    let half = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    // Mantissa carry on round-up flows into the exponent field, which is
    // exactly how overflow to the next binade (or infinity) must behave.
    let rounded = if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half + 1
    } else {
        half
    };
    sign | rounded as u16
}

/// Convert IEEE binary16 bits to f32 (exact: every f16 is an f32).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        // ±0 or subnormal: value = man · 2^-24, exact in f32.
        let v = man as f32 * f32::from_bits(0x3380_0000);
        return if sign != 0 { -v } else { v };
    }
    f32::from_bits(sign | ((exp + 127 - 15) << 23) | (man << 13))
}

/// Round every element through binary16 (the storage precision of the
/// fp16 tier).
pub fn round_trip_f16(data: &[f32]) -> Vec<f32> {
    data.iter()
        .map(|&v| f16_bits_to_f32(f32_to_f16_bits(v)))
        .collect()
}

/// fp16 matmul: operands stored in half precision, accumulation in f32
/// — the `Fp16` tier of [`crate::ops::matmul_on`].
pub fn matmul_fp16(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    stats::note("matmul", Path::Fp16);
    let ah = round_trip_f16(a.data());
    let bh = round_trip_f16(b.data());
    Tensor::build([m, n], |out| {
        // The row worker counts rows as `out.len() / n`.
        if n > 0 {
            crate::simd::matmul_simd_rows(out, &ah, k, &bh, n, k, n);
        }
    })
}

/// Worst-case absolute error of one int8 output element, given the row
/// and column absolute maxima — the bound `quant_error.rs` pins and the
/// GA3xx tier factor must dominate.
pub fn int8_error_bound(k: usize, amax: f32, bmax: f32) -> f64 {
    k as f64 * amax as f64 * bmax as f64 * INT8_MAC_RELERR
}

/// Worst-case absolute error of one fp16 output element.
pub fn fp16_error_bound(k: usize, amax: f32, bmax: f32) -> f64 {
    k as f64 * amax as f64 * bmax as f64 * FP16_MAC_RELERR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_is_identity_on_f16_values() {
        // Every non-NaN binary16 value must survive f16 → f32 → f16
        // exactly; NaNs must stay NaN.
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            let exp = (h >> 10) & 0x1f;
            let man = h & 0x3ff;
            if exp == 0x1f && man != 0 {
                assert!(f.is_nan(), "h={h:#06x}");
                let back = f32_to_f16_bits(f);
                assert_eq!(back >> 10, h >> 10, "NaN class preserved: h={h:#06x}");
                assert!(back & 0x3ff != 0, "NaN stays NaN: h={h:#06x}");
            } else {
                assert_eq!(f32_to_f16_bits(f), h, "h={h:#06x} f={f}");
            }
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // max finite half
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflow → inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        let min_sub = f32::from_bits(0x3380_0000); // 2^-24, min subnormal
        assert_eq!(f16_bits_to_f32(0x0001), min_sub);
        assert_eq!(f32_to_f16_bits(min_sub), 0x0001);
        // Round-to-nearest-even: 1 + 2^-11 is exactly halfway between
        // 1.0 and the next half; ties go to the even mantissa (1.0).
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125), 0x3c00);
    }

    #[test]
    fn int8_quantization_inverts_within_half_step() {
        let data: Vec<f32> = (0..24).map(|i| (i as f32 - 11.5) * 0.37).collect();
        let (q, s) = quantize_rows_i8(&data, 3, 8);
        for r in 0..3 {
            for p in 0..8 {
                let back = q[r * 8 + p] as f32 * s[r];
                assert!(
                    (back - data[r * 8 + p]).abs() <= s[r] * 0.5 + 1e-6,
                    "r={r} p={p}"
                );
            }
        }
        // Column quantization transposes: same inversion property.
        let (qt, st) = quantize_cols_i8(&data, 3, 8);
        for j in 0..8 {
            for p in 0..3 {
                let back = qt[j * 3 + p] as f32 * st[j];
                assert!((back - data[p * 8 + j]).abs() <= st[j] * 0.5 + 1e-6);
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_zero() {
        let (q, s) = quantize_rows_i8(&[0.0; 8], 1, 8);
        assert!(q.iter().all(|&v| v == 0));
        assert_eq!(s[0], 1.0);
    }

    #[test]
    fn int8_matmul_within_mechanical_bound() {
        let m = 9;
        let k = 33;
        let n = 14;
        let ad: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37) % 100) as f32 * 0.13 - 6.0)
            .collect();
        let bd: Vec<f32> = (0..k * n)
            .map(|i| ((i * 61) % 90) as f32 * 0.21 - 9.0)
            .collect();
        let a = Tensor::from_vec([m, k], ad.clone());
        let b = Tensor::from_vec([k, n], bd.clone());
        let approx = matmul_int8(&a, &b);
        let exact = crate::ops::matmul_scalar(&a, &b);
        for i in 0..m {
            let amax = ad[i * k..(i + 1) * k]
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()));
            for j in 0..n {
                let mut bmax = 0.0f32;
                for p in 0..k {
                    bmax = bmax.max(bd[p * n + j].abs());
                }
                let err = (approx.data()[i * n + j] - exact.data()[i * n + j]).abs() as f64;
                let bound = int8_error_bound(k, amax, bmax);
                assert!(err <= bound, "err {err} > bound {bound} at ({i},{j})");
            }
        }
    }

    #[test]
    fn fp16_matmul_within_mechanical_bound() {
        let m = 8;
        let k = 40;
        let n = 11;
        let ad: Vec<f32> = (0..m * k)
            .map(|i| ((i * 53) % 97) as f32 * 0.011 - 0.5)
            .collect();
        let bd: Vec<f32> = (0..k * n)
            .map(|i| ((i * 29) % 83) as f32 * 0.017 - 0.7)
            .collect();
        let a = Tensor::from_vec([m, k], ad.clone());
        let b = Tensor::from_vec([k, n], bd.clone());
        let approx = matmul_fp16(&a, &b);
        let exact = crate::ops::matmul_scalar(&a, &b);
        for i in 0..m {
            let amax = ad[i * k..(i + 1) * k]
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()));
            for j in 0..n {
                let mut bmax = 0.0f32;
                for p in 0..k {
                    bmax = bmax.max(bd[p * n + j].abs());
                }
                let err = (approx.data()[i * n + j] - exact.data()[i * n + j]).abs() as f64;
                let bound = fp16_error_bound(k, amax, bmax);
                assert!(err <= bound, "err {err} > bound {bound} at ({i},{j})");
            }
        }
    }
}
