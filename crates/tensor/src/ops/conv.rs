//! Convolution and pooling kernels (NCHW layout).
//!
//! A convolution has three kernels, all computing every output element
//! in the same order and therefore bit-for-bit equal: the scalar
//! reference loop, a simd variant that register-blocks eight contiguous
//! output columns, and a parallel variant that fans the `(n, cout)`
//! output planes of the simd kernel out over the worker pool.
//! [`conv2d_on`] runs the tier it is given; [`conv2d`] picks one by
//! problem size unless [`crate::stats::force_path`] names another. There
//! is no blocked and no quantized convolution: those tiers run, and are
//! counted as, the scalar kernel.

use crate::par;
use crate::stats::{self, Path};
use crate::tensor::Tensor;

/// Multiply-accumulates below which conv2d stays on the scalar loop.
pub const CONV_SIMD_MIN_MACS: usize = 1 << 12;

/// Multiply-accumulates at which conv2d is worth spreading over cores.
pub const CONV_PAR_MIN_MACS: usize = 1 << 19;

/// Lane width of the simd conv kernel (one `[f32; 8]` register block).
const LANES: usize = 8;

struct ConvGeom {
    n: usize,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    padding: usize,
}

fn conv_geom(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, padding: usize) -> ConvGeom {
    assert_eq!(x.rank(), 4, "conv2d input must be NCHW");
    assert_eq!(w.rank(), 4, "conv2d weight must be [Cout,Cin,Kh,Kw]");
    assert!(stride >= 1, "stride must be >= 1");
    let (n, cin, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (cout, cin2, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
    assert_eq!(cin, cin2, "channel mismatch: {cin} vs {cin2}");
    assert_eq!(bias.dims(), &[cout]);
    assert!(
        kh <= h + 2 * padding && kw <= wd + 2 * padding,
        "conv2d kernel {} larger than input {} with padding {padding}",
        w.shape(),
        x.shape()
    );
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (wd + 2 * padding - kw) / stride + 1;
    ConvGeom {
        n,
        cin,
        h,
        wd,
        cout,
        kh,
        kw,
        oh,
        ow,
        stride,
        padding,
    }
}

/// Columns `ox0..` of every row of output plane `idx` (`ni·cout + co`)
/// into `plane` (`oh*ow` elements): per element the bias first, then
/// `(ci, ky, kx)` ascending, skipping taps that fall in the padding.
fn conv_plane(
    plane: &mut [f32],
    g: &ConvGeom,
    xd: &[f32],
    wdta: &[f32],
    bd: &[f32],
    idx: usize,
    ox0: usize,
) {
    let (ni, co) = (idx / g.cout, idx % g.cout);
    for oy in 0..g.oh {
        for ox in ox0..g.ow {
            let mut acc = bd[co];
            for ci in 0..g.cin {
                for ky in 0..g.kh {
                    let iy = oy * g.stride + ky;
                    if iy < g.padding || iy - g.padding >= g.h {
                        continue;
                    }
                    let iy = iy - g.padding;
                    for kx in 0..g.kw {
                        let ix = ox * g.stride + kx;
                        if ix < g.padding || ix - g.padding >= g.wd {
                            continue;
                        }
                        let ix = ix - g.padding;
                        let xv = xd[((ni * g.cin + ci) * g.h + iy) * g.wd + ix];
                        let wv = wdta[((co * g.cin + ci) * g.kh + ky) * g.kw + kx];
                        acc += xv * wv;
                    }
                }
            }
            plane[oy * g.ow + ox] = acc;
        }
    }
}

/// Simd variant of [`conv_plane`]: eight contiguous output columns share
/// one `[f32; 8]` accumulator block held across the whole reduction, and
/// the columns left over are [`conv_plane`]'s. Per output element the
/// accumulation order is identical to [`conv_plane`], so results are
/// bit-for-bit equal.
fn conv_plane_simd(
    plane: &mut [f32],
    g: &ConvGeom,
    xd: &[f32],
    wdta: &[f32],
    bd: &[f32],
    idx: usize,
) {
    let (ni, co) = (idx / g.cout, idx % g.cout);
    let full = g.ow - g.ow % LANES;
    for oy in 0..g.oh {
        for ox0 in (0..full).step_by(LANES) {
            let mut acc = [bd[co]; LANES];
            for ci in 0..g.cin {
                let xplane = ((ni * g.cin + ci) * g.h) * g.wd;
                let wplane = ((co * g.cin + ci) * g.kh) * g.kw;
                for ky in 0..g.kh {
                    let iy = oy * g.stride + ky;
                    if iy < g.padding || iy - g.padding >= g.h {
                        continue;
                    }
                    let xrow = xplane + (iy - g.padding) * g.wd;
                    for kx in 0..g.kw {
                        let wv = wdta[wplane + ky * g.kw + kx];
                        for (l, o) in acc.iter_mut().enumerate() {
                            let ix = (ox0 + l) * g.stride + kx;
                            if ix < g.padding || ix - g.padding >= g.wd {
                                continue;
                            }
                            *o += xd[xrow + ix - g.padding] * wv;
                        }
                    }
                }
            }
            plane[oy * g.ow + ox0..oy * g.ow + ox0 + LANES].copy_from_slice(&acc);
        }
    }
    conv_plane(plane, g, xd, wdta, bd, idx, full);
}

/// 2-D convolution: input `[N, Cin, H, W]`, weight `[Cout, Cin, Kh, Kw]`,
/// bias `[Cout]`, with the given stride and symmetric zero padding, on
/// the tier the problem size names (scalar, simd or parallel).
pub fn conv2d(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, padding: usize) -> Tensor {
    let g = conv_geom(x, w, bias, stride, padding);
    let path = stats::forced_path().unwrap_or_else(|| {
        let macs = g.n * g.cout * g.oh * g.ow * g.cin * g.kh * g.kw;
        let planes = g.n * g.cout;
        if macs < CONV_SIMD_MIN_MACS {
            Path::Scalar
        } else if macs >= CONV_PAR_MIN_MACS && par::worker_count(planes) > 1 {
            Path::Parallel
        } else {
            Path::Simd
        }
    });
    conv2d_on(path, x, w, bias, stride, padding)
}

/// [`conv2d`] on the tier `path`, whatever the problem size: the entry
/// for tests and benches that compare tiers. Ignores
/// [`stats::force_path`].
pub fn conv2d_on(
    path: Path,
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    stride: usize,
    padding: usize,
) -> Tensor {
    let g = conv_geom(x, w, bias, stride, padding);
    // Conv has no blocked kernel of its own, and quantization covers
    // matmul and attention only: those tiers are the scalar reference.
    let path = match path {
        Path::Simd | Path::Parallel => path,
        _ => Path::Scalar,
    };
    stats::note("conv2d", path);
    let (xd, wdta, bd) = (x.data(), w.data(), bias.data());
    let plane_len = g.oh * g.ow;
    let planes = |plane0: usize, chunk: &mut [f32]| {
        for (pi, plane) in chunk.chunks_mut(plane_len).enumerate() {
            match path {
                Path::Scalar => conv_plane(plane, &g, xd, wdta, bd, plane0 + pi, 0),
                _ => conv_plane_simd(plane, &g, xd, wdta, bd, plane0 + pi),
            }
        }
    };
    // `conv_geom` admits no kernel past the padded input, so a plane has
    // at least one element.
    Tensor::build([g.n, g.cout, g.oh, g.ow], |out| match path {
        Path::Parallel => par::par_rows(out, plane_len, planes),
        _ => planes(0, out),
    })
}

/// Pooling mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolMode {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// 2-D pooling over `[N, C, H, W]` with a square `k×k` window and the given
/// stride.
pub fn pool2d(x: &Tensor, k: usize, stride: usize, mode: PoolMode) -> Tensor {
    assert_eq!(x.rank(), 4, "pool2d input must be NCHW");
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert!(k >= 1 && stride >= 1 && h >= k && w >= k);
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = match mode {
                        PoolMode::Max => f32::NEG_INFINITY,
                        PoolMode::Avg => 0.0,
                    };
                    for ky in 0..k {
                        for kx in 0..k {
                            let v =
                                xd[((ni * c + ci) * h + oy * stride + ky) * w + ox * stride + kx];
                            match mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Avg => acc += v,
                            }
                        }
                    }
                    if mode == PoolMode::Avg {
                        acc /= (k * k) as f32;
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec([n, c, oh, ow], out)
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 4);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let plane = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            out[ni * c + ci] = x.data()[base..base + h * w].iter().sum::<f32>() / plane;
        }
    }
    Tensor::from_vec([n, c], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::arange;

    #[test]
    fn conv2d_identity_kernel() {
        let x = arange([1, 1, 3, 3]);
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, &Tensor::zeros([1]), 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_sum_kernel_known_values() {
        // 2x2 all-ones kernel over arange 3x3 = sums of 2x2 windows.
        let x = arange([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv2d(&x, &w, &Tensor::zeros([1]), 1, 0);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv2d_padding_preserves_size() {
        let x = arange([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d(&x, &w, &Tensor::zeros([1]), 1, 1);
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn conv2d_stride_downsamples() {
        let x = arange([1, 1, 4, 4]);
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv2d(&x, &w, &Tensor::zeros([1]), 2, 0);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn conv2d_bias_added() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::ones([2, 1, 1, 1]);
        let bias = Tensor::from_vec([2], vec![3.0, -1.0]);
        let y = conv2d(&x, &w, &bias, 1, 0);
        assert_eq!(&y.data()[..4], &[3.0; 4]);
        assert_eq!(&y.data()[4..], &[-1.0; 4]);
    }

    // Unchecked, `(2 + 2·0 − 3) / 1 + 1` wraps to 0 in a release build —
    // an empty `[1,1,0,0]` result and not a word — and a 5×5 kernel
    // indexes past the input inside `conv_plane`.
    #[test]
    #[should_panic(expected = "larger than input")]
    fn conv2d_rejects_a_kernel_one_past_the_padded_input() {
        conv2d(
            &arange([1, 1, 2, 2]),
            &Tensor::ones([1, 1, 3, 3]),
            &Tensor::zeros([1]),
            1,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn conv2d_rejects_a_kernel_far_past_the_padded_input() {
        conv2d(
            &arange([1, 1, 2, 2]),
            &Tensor::ones([1, 1, 5, 5]),
            &Tensor::zeros([1]),
            1,
            0,
        );
    }

    #[test]
    fn max_pool_picks_maxima() {
        let x = arange([1, 1, 4, 4]);
        let y = pool2d(&x, 2, 2, PoolMode::Max);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_averages() {
        let x = arange([1, 1, 2, 2]);
        let y = pool2d(&x, 2, 2, PoolMode::Avg);
        assert_eq!(y.data(), &[1.5]);
    }

    #[test]
    fn global_avg_pool_shapes() {
        let x = arange([2, 3, 4, 4]);
        let y = global_avg_pool(&x);
        assert_eq!(y.dims(), &[2, 3]);
        // channel 0 of batch 0 is mean of 0..16 = 7.5
        assert!((y.data()[0] - 7.5).abs() < 1e-6);
    }
}
