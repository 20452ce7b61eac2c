//! Scaled dot-product attention — the core kernel of transformer models.
//!
//! Multi-head attention has three shapes of execution, bit-identical on
//! every exact tier: the sequential head loop (the reference), the same
//! loop with heads fanned out over the worker pool, and — for a single
//! query (a decode step) — a fused loop that reads each head's band
//! straight out of the packed projections. [`multi_head_attention_on`]
//! runs the tier it is given; [`multi_head_attention`] picks one by
//! problem size unless [`crate::stats::force_path`] names another. The
//! per-head products are [`matmul`] calls, so a forced tier reaches them
//! as it reaches any other matmul: that is what makes forced `simd`,
//! `int8` or `fp16` attention run on that tier.

use crate::ops::activation::softmax_lastdim;
use crate::ops::linalg::{dispatch_tier, matmul, transpose2d};
use crate::par;
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Approximate FLOPs below which multi-head attention stays sequential.
pub const ATTENTION_PAR_MIN_FLOPS: usize = 1 << 18;

/// Single-head scaled dot-product attention with optional causal masking.
///
/// `q: [tq, d]`, `k: [tk, d]`, `v: [tk, dv]` → `[tq, dv]`.
///
/// With `causal = true`, query position `i` may attend only to key
/// positions `j <= i + (tk - tq)` — the offset form supports incremental
/// decode where `tq = 1` attends over the whole cache.
pub fn attention(q: &Tensor, k: &Tensor, v: &Tensor, causal: bool) -> Tensor {
    assert_eq!(q.rank(), 2, "q must be [tq, d]");
    assert_eq!(k.rank(), 2, "k must be [tk, d]");
    assert_eq!(v.rank(), 2, "v must be [tk, dv]");
    let (tq, d) = (q.dims()[0], q.dims()[1]);
    let (tk, d2) = (k.dims()[0], k.dims()[1]);
    assert_eq!(d, d2, "q/k depth mismatch");
    assert_eq!(v.dims()[0], tk, "k/v length mismatch");

    let scale = 1.0 / (d as f32).sqrt();
    // Decode steps (tq == 1) compute QK^T straight off the row-major K
    // cache; everything else goes through the transposed matmul.
    let forced = stats::forced_path();
    let mut scores = if tq == 1 && tk > 0 && !forced.is_some_and(Path::is_quantized) {
        qk_decode_scores(q, k, forced)
    } else {
        matmul(q, &transpose2d(k))
    };
    for s in scores.data_mut() {
        *s *= scale;
    }
    if causal {
        let offset = tk.saturating_sub(tq);
        for i in 0..tq {
            for j in 0..tk {
                if j > i + offset {
                    *scores.at_mut(&[i, j]) = f32::NEG_INFINITY;
                }
            }
        }
    }
    let weights = softmax_lastdim(&scores);
    matmul(&weights, v)
}

/// `scores[j] = q_head · k_data[j·stride + offset ..][..q_head.len()]`:
/// one query band against the same band of every key row, off a
/// row-major K whose rows are `stride` wide. Every score keeps one f32
/// accumulator walking the depth axis in ascending order with the same
/// `av == 0.0` skip as the matmul kernels, so the result is bit-identical
/// to a matmul against the transposed band on every non-quantized tier.
/// Inlined into its two callers: the fused decode loop runs it once per
/// head per layer of every decode step.
#[inline(always)]
fn qk_band(q_head: &[f32], k_data: &[f32], stride: usize, offset: usize, scores: &mut [f32]) {
    let tk = scores.len();
    let mut j = 0;
    // Eight scores at a time: eight independent accumulators, each
    // still strictly `p`-ascending.
    while j + 8 <= tk {
        let mut acc = [0.0f32; 8];
        for (p, &av) in q_head.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (l, a) in acc.iter_mut().enumerate() {
                *a += av * k_data[(j + l) * stride + offset + p];
            }
        }
        scores[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    for (jj, s) in scores.iter_mut().enumerate().skip(j) {
        let row = &k_data[jj * stride + offset..][..q_head.len()];
        let mut acc = 0.0f32;
        for (&av, &bv) in q_head.iter().zip(row) {
            if av == 0.0 {
                continue;
            }
            acc += av * bv;
        }
        *s = acc;
    }
}

/// Decode-shape (`tq == 1`) QK^T scores computed without materializing
/// `transpose2d(k)`: [`qk_band`] over whole rows, bit-identical to
/// `matmul(q, transpose2d(k))` on every non-quantized tier — which is
/// why a forced scalar/blocked/parallel/simd path may all take it.
fn qk_decode_scores(q: &Tensor, k: &Tensor, forced: Option<Path>) -> Tensor {
    let (tk, d) = (k.dims()[0], k.dims()[1]);
    let path = forced.unwrap_or_else(|| dispatch_tier(2 * tk * d, tk));
    stats::note("matmul", path);
    Tensor::build([1usize, tk], |out| qk_band(q.data(), k.data(), d, 0, out))
}

/// Multi-head attention over packed `[t, heads*dh]` projections: splits
/// heads, runs [`attention`] per head, and re-packs — fused for a single
/// query, head-parallel from [`ATTENTION_PAR_MIN_FLOPS`], sequential
/// otherwise.
pub fn multi_head_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    causal: bool,
) -> Tensor {
    let (tq, dm) = (q.dims()[0], q.dims()[1]);
    let tk = k.dims()[0];
    let path = stats::forced_path().unwrap_or_else(|| {
        // QK^T plus weights·V, both 2·tq·tk·dh per head, over all heads.
        let flops = 4 * tq * tk * dm;
        if tq == 1 && tk > 0 {
            Path::Simd
        } else if heads > 1 && flops >= ATTENTION_PAR_MIN_FLOPS && par::worker_count(heads) > 1 {
            Path::Parallel
        } else {
            Path::Scalar
        }
    });
    multi_head_attention_on(path, q, k, v, heads, causal)
}

/// [`multi_head_attention`] on the tier `path`, whatever the problem
/// size: the entry for tests and benches that compare tiers. `Parallel`
/// fans the heads out over the pool; every other tier is the sequential
/// head loop, the reference. A single query (a decode step) takes the
/// fused head loop on every non-quantized tier. `path` picks the loop
/// and is what is recorded; the per-head products are [`matmul`] calls
/// and follow [`stats::force_path`] like any other — under
/// `force_path(Int8)` they really did run quantized, and the dispatch
/// mix should say so.
pub fn multi_head_attention_on(
    path: Path,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    causal: bool,
) -> Tensor {
    let (tq, tk, dm, dh) = head_geometry(q, k, heads);
    stats::note("attention", path);
    if tq == 1 && tk > 0 && !path.is_quantized() {
        return mha_decode(q, k, v, heads);
    }
    let head = |h| head_output(q, k, v, h, dh, causal);
    let outs: Vec<Tensor> = match path {
        Path::Parallel => par::par_map(heads, head),
        _ => (0..heads).map(head).collect(),
    };
    pack_heads(&outs, tq, dm, dh)
}

/// Fused single-query multi-head attention: heads read their `dh`-wide
/// column bands straight out of the packed `[1, dm]` / `[tk, dm]`
/// projections, skipping the per-head `slice_head` copies and the
/// transposed-K materialization. Per score, the depth axis is walked
/// ascending with the matmul kernels' `av == 0.0` skip; per output
/// element, keys are walked ascending with the `w == 0.0` skip — the
/// exact accumulation orders of the sliced reference, so the result is
/// bit-for-bit identical on every non-quantized tier. Causal masking is
/// a no-op for a single query attending over its whole cache.
fn mha_decode(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    let (_, tk, dm, dh) = head_geometry(q, k, heads);
    assert_eq!(v.dims(), k.dims(), "k/v shape mismatch");
    let qd = q.data();
    let kd = k.data();
    let vd = v.data();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut scores = vec![0.0f32; tk];
    Tensor::build([1usize, dm], |out| {
        for h in 0..heads {
            let off = h * dh;
            qk_band(&qd[off..off + dh], kd, dm, off, &mut scores);
            // Scale + softmax over the single row.
            for s in scores.iter_mut() {
                *s *= scale;
            }
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for s in scores.iter_mut() {
                let e = (*s - max).exp();
                *s = e;
                sum += e;
            }
            for s in scores.iter_mut() {
                *s /= sum;
            }
            // weights · V straight into the packed output band.
            let oh = &mut out[off..off + dh];
            for (j, &w) in scores.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let row = &vd[j * dm + off..j * dm + off + dh];
                for (o, &bv) in oh.iter_mut().zip(row) {
                    *o += w * bv;
                }
            }
        }
    })
}

fn head_geometry(q: &Tensor, k: &Tensor, heads: usize) -> (usize, usize, usize, usize) {
    assert_eq!(q.rank(), 2);
    let (tq, dm) = (q.dims()[0], q.dims()[1]);
    let tk = k.dims()[0];
    assert_eq!(
        dm % heads,
        0,
        "model dim {dm} not divisible by {heads} heads"
    );
    (tq, tk, dm, dm / heads)
}

fn head_output(q: &Tensor, k: &Tensor, v: &Tensor, h: usize, dh: usize, causal: bool) -> Tensor {
    let qh = slice_head(q, h, dh);
    let kh = slice_head(k, h, dh);
    let vh = slice_head(v, h, dh);
    attention(&qh, &kh, &vh, causal)
}

fn pack_heads(head_outs: &[Tensor], tq: usize, dm: usize, dh: usize) -> Tensor {
    Tensor::build([tq, dm], |out| {
        for (h, oh) in head_outs.iter().enumerate() {
            for t in 0..tq {
                out[t * dm + h * dh..t * dm + h * dh + dh]
                    .copy_from_slice(&oh.data()[t * dh..(t + 1) * dh]);
            }
        }
    })
}

fn slice_head(x: &Tensor, head: usize, dh: usize) -> Tensor {
    let (t, dm) = (x.dims()[0], x.dims()[1]);
    Tensor::build([t, dh], |out| {
        for row in 0..t {
            let base = row * dm + head * dh;
            out[row * dh..(row + 1) * dh].copy_from_slice(&x.data()[base..base + dh]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn;

    #[test]
    fn attention_output_shape() {
        let q = randn([3, 8], 1);
        let k = randn([5, 8], 2);
        let v = randn([5, 4], 3);
        let o = attention(&q, &k, &v, false);
        assert_eq!(o.dims(), &[3, 4]);
    }

    #[test]
    fn uniform_keys_average_values() {
        // Identical keys ⇒ uniform weights ⇒ output = mean of values.
        let q = randn([1, 4], 1);
        let k = Tensor::ones([3, 4]);
        let v = Tensor::from_vec([3, 1], vec![1.0, 2.0, 3.0]);
        let o = attention(&q, &k, &v, false);
        assert!((o.data()[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // v rows are one-hot so output reveals the attended positions.
        let q = Tensor::zeros([2, 2]);
        let k = Tensor::zeros([2, 2]);
        let v = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let o = attention(&q, &k, &v, true);
        // Row 0 can only see position 0.
        assert!((o.at(&[0, 0]) - 1.0).abs() < 1e-6);
        assert!(o.at(&[0, 1]).abs() < 1e-6);
        // Row 1 sees both equally.
        assert!((o.at(&[1, 0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn decode_offset_attends_full_cache() {
        // tq=1 against tk=4 with causal=true must not mask anything.
        let q = Tensor::zeros([1, 2]);
        let k = Tensor::zeros([4, 2]);
        let v = Tensor::from_vec([4, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let o = attention(&q, &k, &v, true);
        assert!((o.data()[0] - 2.5).abs() < 1e-5);
    }

    #[test]
    fn incremental_decode_matches_full_prefill() {
        // Attention over a cache built incrementally equals attention over
        // the full sequence — the correctness basis for KV caching.
        let t = 6;
        let d = 4;
        let q_all = randn([t, d], 10);
        let k_all = randn([t, d], 11);
        let v_all = randn([t, d], 12);
        let full = attention(&q_all, &k_all, &v_all, true);

        // Last row via incremental decode path: q = last row, cache = all.
        let q_last = crate::ops::shape_ops::narrow(&q_all, 0, t - 1, 1);
        let inc = attention(&q_last, &k_all, &v_all, true);
        let full_last = crate::ops::shape_ops::narrow(&full, 0, t - 1, 1);
        assert!(inc.approx_eq(&full_last, 1e-5));
    }

    #[test]
    fn multi_head_shape_and_determinism() {
        let q = randn([3, 8], 1);
        let k = randn([3, 8], 2);
        let v = randn([3, 8], 3);
        let a = multi_head_attention(&q, &k, &v, 2, true);
        let b = multi_head_attention(&q, &k, &v, 2, true);
        assert_eq!(a.dims(), &[3, 8]);
        assert_eq!(a, b);
    }

    #[test]
    fn single_head_mha_equals_attention() {
        let q = randn([4, 6], 4);
        let k = randn([4, 6], 5);
        let v = randn([4, 6], 6);
        let mha = multi_head_attention(&q, &k, &v, 1, false);
        let att = attention(&q, &k, &v, false);
        assert!(mha.approx_eq(&att, 1e-6));
    }
}
