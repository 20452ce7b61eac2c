//! Property suite pinning the quantized tiers' numeric error inside the
//! bound GA3xx advertises.
//!
//! The analysis layer prices the int8 tier as `2^18 · eps_f32` per MAC
//! and the fp16 tier as `2^15 · eps_f32`; those products are exactly
//! [`quant::INT8_MAC_RELERR`] and [`quant::FP16_MAC_RELERR`]. If any
//! output element of a quantized matmul ever landed outside
//! `k · max|A row| · max|B col| · MAC_RELERR`, GA301's static
//! tolerance verdicts would be unsound — so this suite sweeps random
//! shapes *and* magnitudes (2^-6 .. 2^6) to keep the kernels honest.

use genie_tensor::{init, ops, quant};
use proptest::prelude::*;

/// Assert every element of `approx` is within `bound(k, amax_i, bmax_j)`
/// of the scalar-exact product of rank-2 `a` and `b`.
fn assert_rank2_within(
    a: &genie_tensor::Tensor,
    b: &genie_tensor::Tensor,
    approx: &genie_tensor::Tensor,
    bound: impl Fn(usize, f32, f32) -> f64,
) -> Result<(), TestCaseError> {
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
            prop_assert!(
                err <= limit,
                "element ({i},{j}): error {err} exceeds advertised bound {limit} \
                 (k={k}, amax={amax}, bmax={bmax})"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn int8_matmul_error_within_advertised_bound(
        m in 1usize..12,
        k in 1usize..48,
        n in 1usize..12,
        mag in -6i32..7,
        seed in any::<u64>(),
    ) {
        let a = ops::scale(&init::randn([m, k], seed), (2.0f32).powi(mag));
        let b = ops::scale(&init::randn([k, n], seed ^ 0x5A5A), (2.0f32).powi(-mag / 2));
        let approx = quant::matmul_int8(&a, &b);
        assert_rank2_within(&a, &b, &approx, quant::int8_error_bound)?;
    }

    #[test]
    fn fp16_matmul_error_within_advertised_bound(
        m in 1usize..12,
        k in 1usize..48,
        n in 1usize..12,
        mag in -6i32..7,
        seed in any::<u64>(),
    ) {
        let a = ops::scale(&init::randn([m, k], seed), (2.0f32).powi(mag));
        let b = ops::scale(&init::randn([k, n], seed ^ 0xA5A5), (2.0f32).powi(-mag / 2));
        let approx = quant::matmul_fp16(&a, &b);
        assert_rank2_within(&a, &b, &approx, quant::fp16_error_bound)?;
    }

    #[test]
    fn batched_quantized_matmuls_within_advertised_bound(
        ba in 1usize..4,
        m in 1usize..8,
        k in 1usize..24,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let a = init::randn([ba, m, k], seed);
        let b = init::randn([ba, k, n], seed ^ 0x1F2E);
        let i8_out = quant::batched_matmul_int8(&a, &b);
        let f16_out = quant::batched_matmul_fp16(&a, &b);
        for batch in 0..ba {
            let a2 = genie_tensor::Tensor::from_vec(
                [m, k],
                a.data()[batch * m * k..(batch + 1) * m * k].to_vec(),
            );
            let b2 = genie_tensor::Tensor::from_vec(
                [k, n],
                b.data()[batch * k * n..(batch + 1) * k * n].to_vec(),
            );
            let i8_slice = genie_tensor::Tensor::from_vec(
                [m, n],
                i8_out.data()[batch * m * n..(batch + 1) * m * n].to_vec(),
            );
            let f16_slice = genie_tensor::Tensor::from_vec(
                [m, n],
                f16_out.data()[batch * m * n..(batch + 1) * m * n].to_vec(),
            );
            assert_rank2_within(&a2, &b2, &i8_slice, quant::int8_error_bound)?;
            assert_rank2_within(&a2, &b2, &f16_slice, quant::fp16_error_bound)?;
        }
    }
}

#[test]
fn advertised_bounds_are_the_ga3xx_tier_factors_times_eps() {
    // GA3xx prices KernelTier::Int8 with error factor 2^18 and Fp16 with
    // 2^15, against eps_f32 = 2^-24. The products must be exactly the
    // per-MAC bounds the kernels are tested against above — this is the
    // cross-crate contract that makes GA301 denials sound.
    let eps_f32 = (2.0f64).powi(-24);
    assert_eq!(quant::INT8_MAC_RELERR, (2.0f64).powi(18) * eps_f32);
    assert_eq!(quant::FP16_MAC_RELERR, (2.0f64).powi(15) * eps_f32);
}
