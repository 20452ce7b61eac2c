//! Scaled dot-product attention — the core kernel of transformer models.
//!
//! Multi-head attention over packed `[t, heads·dh]` projections runs one
//! fused loop on every exact tier ([`multi_head_attention_on`]): each head
//! reads its `dh`-wide bands straight out of Q, K and V and, per tile of
//! four queries, computes QK^T with the simd row worker for the keys the
//! tile's last query may see (`j ≤ i + tk − tq` under `causal`, in blocks
//! of `KEY_BLOCK`), softmaxes each query's visible prefix in place
//! (`softmax_row`), zeroes the scores the tile computed past it, and folds
//! weights·V over the prefix.
//! `Parallel` splits the heads over the pool's workers. The quantized
//! tiers run the sliced loop — per-head copies through [`attention`],
//! whose [`matmul`] calls follow [`crate::stats::force_path`] — and with
//! nothing forced it is the reference the fused loop equals bit for bit:
//! every score and output element is one f32 accumulator in ascending
//! order with the zero skip, and a masked key's weight there is
//! `exp(−∞ − max) = +0`, which weights·V skips and which adds nothing to
//! the row's sum. (A row whose visible scores hold +∞, or only −∞ and
//! NaN, is NaN in both, though not with one NaN's bits.)

use crate::ops::activation::{softmax_lastdim, softmax_row};
use crate::ops::linalg::{matmul, transpose2d};
use crate::par;
use crate::simd::{self, Isa};
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Approximate FLOPs below which multi-head attention stays sequential.
pub const ATTENTION_PAR_MIN_FLOPS: usize = 1 << 18;

/// Query rows per tile of the fused loop: the row worker's tile height.
const TILE: usize = 4;

/// Keys per block of a tile's QK^T (`tk` at most): a strip narrower than
/// 16 keys waits out add latency (`prefill_wide`'s QK^T, 45 → 20 µs a
/// head with whole blocks). The extra keys are hidden ones.
const KEY_BLOCK: usize = 16;

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
    let mut scores = matmul(q, &transpose2d(k));
    for s in scores.data_mut() {
        *s *= scale;
    }
    if causal {
        for (i, row) in scores.data_mut().chunks_mut(tk).enumerate() {
            row[seen(i, tq, tk)..].fill(f32::NEG_INFINITY);
        }
    }
    let weights = softmax_lastdim(&scores);
    matmul(&weights, v)
}

/// Keys a causal query `i` of `tq` sees among `tk`: `j ≤ i + (tk − tq)`.
fn seen(i: usize, tq: usize, tk: usize) -> usize {
    tk.min(i + tk.saturating_sub(tq) + 1)
}

/// Multi-head attention over packed `[t, heads*dh]` projections: the
/// fused loop, head-parallel from [`ATTENTION_PAR_MIN_FLOPS`], sequential
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
/// size: the entry for tests and benches that compare tiers. Every exact
/// tier runs the fused loop, `Parallel` with the heads fanned out over
/// the pool; `Int8` and `Fp16` run the sliced head loop, whose per-head
/// products are [`matmul`] calls and follow [`stats::force_path`] like
/// any other — under `force_path(Int8)` they really did run quantized,
/// and the dispatch mix should say so. `path` is what is recorded.
pub fn multi_head_attention_on(
    path: Path,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    causal: bool,
) -> Tensor {
    let (tq, _, dm, dh) = head_geometry(q, k, heads);
    stats::note("attention", path);
    if !path.is_quantized() {
        return fused(path == Path::Parallel, q, k, v, heads, causal);
    }
    let outs: Vec<Tensor> = (0..heads)
        .map(|h| {
            let [qh, kh, vh] = [q, k, v].map(|x| slice_head(x, h, dh));
            attention(&qh, &kh, &vh, causal)
        })
        .collect();
    pack_heads(outs.iter().map(Tensor::data), tq, dm, dh)
}

/// The fused loop (module docs): head `h`'s `[tq, dh]` output is row `h`
/// of one `[heads, tq·dh]` buffer, the rows split over the pool when
/// `pooled` and each job's scratch reused across its heads; the rows are
/// then packed into `[tq, dm]`. With no key, or no depth, the output is
/// zeros: a query that sees nothing attends to nothing.
fn fused(pooled: bool, q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, causal: bool) -> Tensor {
    let (tq, tk, dm, dh) = head_geometry(q, k, heads);
    assert_eq!(v.dims(), k.dims(), "k/v shape mismatch");
    if tk == 0 || tq * dh == 0 {
        return Tensor::zeros([tq, dm]);
    }
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let sees = |i| if causal { seen(i, tq, tk) } else { tk };
    let scale = 1.0 / (dh as f32).sqrt();
    let isa = Isa::selected();
    let run = |h0: usize, outs: &mut [f32]| {
        let mut kt = vec![0.0; dh * tk];
        let mut scores = vec![0.0; TILE * tk];
        for (h, out) in (h0..).zip(outs.chunks_mut(tq * dh)) {
            let band = h * dh;
            // The head's band of K, transposed (`[dh, tk]`), is QK^T's B.
            for (p, column) in (band..).zip(kt.chunks_exact_mut(tk)) {
                for (x, row) in column.iter_mut().zip(kd.chunks_exact(dm)) {
                    *x = row[p];
                }
            }
            for i0 in (0..tq).step_by(TILE) {
                let rows = (tq - i0).min(TILE);
                let n = sees(i0 + rows - 1).next_multiple_of(KEY_BLOCK).min(tk);
                let s = &mut scores[..rows * n];
                simd::matmul_simd_rows(s, &qd[i0 * dm + band..], dm, &kt, tk, dh, n);
                for (i, row) in (i0..).zip(s.chunks_mut(n)) {
                    let (visible, hidden) = row.split_at_mut(sees(i));
                    for x in visible.iter_mut() {
                        *x *= scale;
                    }
                    softmax_row(isa, visible);
                    hidden.fill(0.0);
                }
                let o = &mut out[i0 * dh..(i0 + rows) * dh];
                simd::matmul_simd_rows(o, s, n, &vd[band..], dm, n, dh);
            }
        }
    };
    let mut outs = vec![0.0; heads * tq * dh];
    if pooled {
        par::par_rows(&mut outs, tq * dh, run);
    } else {
        run(0, &mut outs);
    }
    pack_heads(outs.chunks(tq * dh), tq, dm, dh)
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

/// `[tq, dm]` from each head's `[tq, dh]` output, in head order.
fn pack_heads<'a>(
    head_outs: impl Iterator<Item = &'a [f32]>,
    tq: usize,
    dm: usize,
    dh: usize,
) -> Tensor {
    Tensor::build([tq, dm], |out| {
        for (h, oh) in head_outs.enumerate() {
            for t in 0..tq {
                out[t * dm + h * dh..][..dh].copy_from_slice(&oh[t * dh..][..dh]);
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
