//! The quantized tiers' numeric error pinned inside the bound GA3xx
//! advertises, as seeded loops.
//!
//! The analysis layer prices the int8 tier as `2^18 · eps_f32` per MAC
//! and the fp16 tier as `2^15 · eps_f32`; those products are exactly
//! [`quant::INT8_MAC_RELERR`] and [`quant::FP16_MAC_RELERR`]. If any
//! output element of a quantized matmul ever landed outside
//! `k · max|A row| · max|B col| · MAC_RELERR`, GA301's static
//! tolerance verdicts would be unsound — so this suite sweeps random
//! shapes *and* magnitudes (2^-6 .. 2^6) to keep the kernels honest.

mod common;

use common::draw;
use genie_tensor::stats::{Path, PATHS};
use genie_tensor::{init, ops, quant, Tensor};

/// Cases per tier; a case is a function of its index alone.
const CASES: u64 = 48;

/// Assert every element of `approx` is within `bound(k, amax_i, bmax_j)`
/// of the scalar-exact product of rank-2 `a` and `b`.
fn assert_rank2_within(
    a: &Tensor,
    b: &Tensor,
    approx: &Tensor,
    bound: impl Fn(usize, f32, f32) -> f64,
    case: &str,
) {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let exact = ops::matmul_scalar(a, b);
    let (ad, bd) = (a.data(), b.data());
    for i in 0..m {
        let amax = ad[i * k..(i + 1) * k]
            .iter()
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        for j in 0..n {
            let mut bmax = 0.0f32;
            for p in 0..k {
                bmax = bmax.max(bd[p * n + j].abs());
            }
            let err = (approx.data()[i * n + j] - exact.data()[i * n + j]).abs() as f64;
            let limit = bound(k, amax, bmax);
            assert!(
                err <= limit,
                "{case} element ({i},{j}): error {err} exceeds advertised bound {limit} \
                 (k={k}, amax={amax}, bmax={bmax})"
            );
        }
    }
}

#[test]
fn quantized_matmul_error_within_advertised_bound() {
    // Every tier `PATHS` calls quantized, with the bound `quant`
    // advertises for it; a tier added without one fails here by name.
    for tier in PATHS.into_iter().filter(|p| p.is_quantized()) {
        let (bound, salt): (fn(usize, f32, f32) -> f64, u64) = match tier {
            Path::Int8 => (quant::int8_error_bound, 0x5A5A),
            Path::Fp16 => (quant::fp16_error_bound, 0xA5A5),
            exact => panic!("{exact:?} advertises no error bound"),
        };
        for seed in 0..CASES {
            let [m, k, n, mag] = draw(seed ^ salt, [(1, 12), (1, 48), (1, 12), (0, 13)]);
            let mag = mag as i32 - 6;
            let a = ops::scale(&init::randn([m, k], seed), (2.0f32).powi(mag));
            let b = ops::scale(&init::randn([k, n], seed ^ salt), (2.0f32).powi(-mag / 2));
            let approx = ops::matmul_on(tier, &a, &b);
            let case = format!("{tier:?} seed={seed} m={m} k={k} n={n} mag={mag}");
            assert_rank2_within(&a, &b, &approx, bound, &case);
        }
    }
}

#[test]
fn advertised_bounds_are_the_ga3xx_tier_factors_times_eps() {
    // GA3xx prices `Path::Int8` with error factor 2^18 and Fp16 with
    // 2^15, against eps_f32 = 2^-24. The products must be exactly the
    // per-MAC bounds the kernels are tested against above — this is the
    // cross-crate contract that makes GA301 denials sound.
    let eps_f32 = (2.0f64).powi(-24);
    assert_eq!(quant::INT8_MAC_RELERR, (2.0f64).powi(18) * eps_f32);
    assert_eq!(quant::FP16_MAC_RELERR, (2.0f64).powi(15) * eps_f32);
}
