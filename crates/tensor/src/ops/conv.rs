//! 2-D convolution: forward, data gradient, and weight gradient — the
//! three GEMMs of the paper's Tab. 1 — on the packed blocked GEMM core.
//!
//! The forward and weight-gradient paths are **fused**: the im2col lowering
//! of the input is a virtual operand ([`MatSrc::Im2colT`] in the forward,
//! [`MatSrc::Im2col`] in the weight gradient) whose receptive-field tiles
//! are generated directly into the GEMM packing buffers, so the full
//! `[n·ho·wo, ci·kh·kw]` column matrix never exists in memory. The data
//! gradient computes its column-gradient matrix into a reusable arena
//! buffer (its `col2im` scatter is the adjoint direction, so there is no
//! input-side lowering to elide) and scatters per sample in parallel.
//!
//! The forward runs `y = W · cols(x)ᵀ`: C rows are output channels and C
//! columns are `(sample, pixel)` pairs, so the GEMM's final-panel store
//! writes the NCHW output directly. [`conv2d_fused`] folds a per-channel
//! bias and a ReLU (with its 1-bit sign mask, in NCHW order) into that
//! same store ([`Epilogue::Rows`]) — bias and activation in **zero extra
//! passes** over the output.
//!
//! Both weight-reading GEMMs accept the weights prepacked
//! ([`pack_conv_forward`], [`pack_conv_backward_data`]), so a layer that
//! runs once per MBS sub-batch packs them once per weight update, not once
//! per call. Packed or not, results are bitwise identical.
//!
//! [`conv2d_naive`] keeps the direct loop nest as the reference
//! implementation the equivalence tests pin everything against.

use crate::arena;
use crate::ops::activation::{relu_inplace, BitMask, MaskSink};
use crate::ops::im2col::{col2im_t, Conv2dCfg};
use crate::ops::kernel::{self, MicroKernel};
use crate::ops::pack::{
    configured_threads, fuse_enabled, gemm, gemm_nchw, Epilogue, Im2colGeom, MatSrc, PackedOperand,
};
use crate::prec;
use crate::tensor::Tensor;

fn dims(
    x: &Tensor,
    w: &Tensor,
    cfg: Conv2dCfg,
) -> (usize, usize, usize, usize, usize, usize, usize) {
    let [n, ci, h, wd]: [usize; 4] = x.shape().try_into().expect("conv expects 4-D input");
    let [co, ci2, kh, kw]: [usize; 4] = w.shape().try_into().expect("conv expects 4-D weights");
    assert_eq!(ci, ci2, "channel mismatch");
    assert_eq!(
        (kh, kw),
        (cfg.kernel_h, cfg.kernel_w),
        "kernel/config mismatch"
    );
    let (ho, wo) = cfg.out_extent(h, wd);
    (n, ci, h, wd, co, ho, wo)
}

/// Direct (loop-nest) convolution forward; reference for the fused path.
pub fn conv2d_naive(x: &Tensor, w: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let (n, ci, h, wd, co, ho, wo) = dims(x, w, cfg);
    let mut out = Tensor::zeros(&[n, co, ho, wo]);
    let xd = x.data();
    let wdat = w.data();
    let od = out.data_mut();
    for ni in 0..n {
        for c_out in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for c in 0..ci {
                        for ky in 0..cfg.kernel_h {
                            let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..cfg.kernel_w {
                                let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                                if ix < 0 || ix as usize >= wd {
                                    continue;
                                }
                                acc += xd[((ni * ci + c) * h + iy as usize) * wd + ix as usize]
                                    * wdat[((c_out * ci + c) * cfg.kernel_h + ky) * cfg.kernel_w
                                        + kx];
                            }
                        }
                    }
                    od[((ni * co + c_out) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// Fused im2col + GEMM convolution forward: `y = W · cols(x)ᵀ`, where
/// `cols(x)ᵀ` is a virtual operand streamed tile-by-tile into the packed-B
/// buffer (never materialized) and the GEMM writes its `[co × n·ho·wo]`
/// product straight into the NCHW output.
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// // A 3×3 all-ones kernel over an all-ones 5×5 image (stride 1, pad 1):
/// // interior outputs see the full 9-tap window.
/// let x = Tensor::full(&[1, 1, 5, 5], 1.0);
/// let w = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let y = conv2d(&x, &w, Conv2dCfg::square(3, 1, 1));
/// assert_eq!(y.shape(), &[1, 1, 5, 5]);
/// assert_eq!(y.get(&[0, 0, 2, 2]), 9.0); // interior
/// assert_eq!(y.get(&[0, 0, 0, 0]), 4.0); // corner: 2×2 window in-bounds
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, cfg: Conv2dCfg) -> Tensor {
    conv2d_packed(x, w, None, None, false, cfg, false).0
}

/// Packs `w` (`[co, ci, kh, kw]`) as the forward GEMM's A operand — the
/// `[co × ci·kh·kw]` weight matrix in the process kernel's strips and
/// precision — for [`conv2d_packed`]. A layer builds it once per weight
/// update and reuses it for every sub-batch.
pub fn pack_conv_forward(w: &Tensor) -> PackedOperand {
    let (co, taps) = weight_dims(w);
    PackedOperand::a(
        &MatSrc::RowMajor {
            data: w.data(),
            stride: taps,
        },
        co,
        taps,
    )
}

/// Packs `w` as the data-gradient GEMM's A operand — the transposed
/// `[ci·kh·kw × co]` weight matrix — for [`conv2d_backward_data_packed`].
pub fn pack_conv_backward_data(w: &Tensor) -> PackedOperand {
    let (co, taps) = weight_dims(w);
    PackedOperand::a(
        &MatSrc::ColMajor {
            data: w.data(),
            stride: taps,
        },
        taps,
        co,
    )
}

/// `(co, ci·kh·kw)` of a 4-D weight tensor.
fn weight_dims(w: &Tensor) -> (usize, usize) {
    let co = w.shape()[0];
    (co, w.len().checked_div(co).unwrap_or(0))
}

/// [`conv2d`] with a per-channel bias and optional ReLU fused in: both
/// ride the GEMM's final-panel store (C rows *are* output channels, so
/// the bias is a per-row epilogue, and the clamp emits its 1-bit sign mask
/// from the same vector compare) — zero extra passes over the output.
/// Honors the process-wide `MBS_FUSE` knob; the mask (when `relu`) is in
/// NCHW element order, ready for [`crate::ops::relu_backward`].
///
/// # Panics
///
/// Panics on shape mismatches or if a provided `bias` is not one value
/// per output channel.
pub fn conv2d_fused(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
) -> (Tensor, Option<BitMask>) {
    conv2d_fused_with(x, w, bias, relu, cfg, fuse_enabled())
}

/// [`conv2d_fused`] with the fused/unfused decision made explicitly
/// (`fused = false` runs plain [`conv2d`], then a bias pass, then
/// [`relu_inplace`]; the parity tests pin both paths bitwise-equal).
pub fn conv2d_fused_with(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    fused: bool,
) -> (Tensor, Option<BitMask>) {
    conv2d_packed(x, w, None, bias, relu, cfg, fused)
}

/// [`conv2d_fused_with`] reading the weights from `pack`, a
/// [`pack_conv_forward`] of `w`, when given (`w` still supplies the
/// shape). Results are bitwise identical with or without the pack.
///
/// # Panics
///
/// As for [`conv2d_fused`], and if `pack` was not built from a weight of
/// `w`'s shape under the process kernel and precision.
pub fn conv2d_packed(
    x: &Tensor,
    w: &Tensor,
    pack: Option<&PackedOperand>,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    fused: bool,
) -> (Tensor, Option<BitMask>) {
    let (_, ci, _, _, co, ho, wo) = dims(x, w, cfg);
    if let Some(b) = bias {
        assert_eq!(b.len(), co, "one bias per output channel");
    }
    // A zero-channel conv has an empty reduction (k = ci·kh·kw = 0): the
    // GEMM epilogue can never fire, so route through the separate-pass
    // path — the fused/unfused parity contract covers degenerate shapes
    // too.
    if fused && ci * cfg.kernel_h * cfg.kernel_w > 0 {
        return conv2d_packed_with(
            x,
            w,
            pack,
            bias,
            relu,
            cfg,
            configured_threads(),
            kernel::selected(),
        );
    }
    let mut y = conv2d_packed_with(
        x,
        w,
        pack,
        None,
        false,
        cfg,
        configured_threads(),
        kernel::selected(),
    )
    .0;
    if let Some(b) = bias {
        let hw = ho * wo;
        for (chunk, &bv) in y.data_mut().chunks_exact_mut(hw).zip(b.iter().cycle()) {
            for v in chunk {
                *v += bv;
            }
        }
    }
    if relu {
        let mask = relu_inplace(&mut y);
        return (y, Some(mask));
    }
    (y, None)
}

/// The one conv-forward body, on an explicit thread count and
/// micro-kernel (the parity tests sweep both): `y = W · cols(x)ᵀ` with the
/// bias and ReLU (mask included) in the GEMM's final-panel store, written
/// straight into NCHW.
///
/// # Panics
///
/// As for [`conv2d_packed`], and if a bias or ReLU is requested on a
/// zero-channel input (an empty reduction has no final panel to fuse
/// into).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_packed_with(
    x: &Tensor,
    w: &Tensor,
    pack: Option<&PackedOperand>,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    threads: usize,
    kern: &MicroKernel,
) -> (Tensor, Option<BitMask>) {
    let (n, ci, h, wd, co, ho, wo) = dims(x, w, cfg);
    let geom = Im2colGeom::new(n, ci, h, wd, cfg);
    let (pixels, k) = (geom.rows(), geom.cols());
    // A zero-channel input (k == 0) leaves the GEMM output untouched.
    let mut out = if k == 0 {
        Tensor::zeros(&[n, co, ho, wo])
    } else {
        Tensor::uninit(&[n, co, ho, wo])
    };
    let wsrc = match pack {
        Some(p) => MatSrc::Packed(p),
        None => MatSrc::RowMajor {
            data: w.data(),
            stride: k,
        },
    };
    let sink = relu.then(|| MaskSink::new(out.len()));
    let epi = Epilogue::Rows {
        bias,
        relu: sink.as_ref(),
    };
    gemm_nchw(
        &wsrc,
        &MatSrc::Im2colT { x: x.data(), geom },
        out.data_mut(),
        co,
        pixels,
        k,
        (ho * wo).max(1),
        threads,
        kern,
        &epi,
        prec::precision(),
    );
    (out, sink.map(MaskSink::into_mask))
}

/// Gradient of the loss with respect to the convolution input:
/// `dX = col2im(dY₂d · W)`.
///
/// The GEMM produces the column gradient **transposed** (`[ci·kh·kw,
/// pixels]`, in a reusable arena buffer) because that layout makes the
/// [`col2im_t`] scatter a series of contiguous zip-adds; `dY` is read
/// in-place as a `[co × pixels]` view, so nothing else is materialized.
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d_backward_data, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// let dy = Tensor::full(&[2, 4, 8, 8], 1.0);
/// let w = Tensor::full(&[4, 3, 3, 3], 0.5);
/// let dx = conv2d_backward_data(&dy, &w, &[2, 3, 8, 8], Conv2dCfg::square(3, 1, 1));
/// assert_eq!(dx.shape(), &[2, 3, 8, 8]); // gradient matches the input shape
/// ```
pub fn conv2d_backward_data(dy: &Tensor, w: &Tensor, x_shape: &[usize], cfg: Conv2dCfg) -> Tensor {
    conv2d_backward_data_packed(dy, w, None, x_shape, cfg)
}

/// [`conv2d_backward_data`] reading the weights from `pack`, a
/// [`pack_conv_backward_data`] of `w`, when given. Results are bitwise
/// identical with or without the pack.
///
/// # Panics
///
/// On shape mismatches, and if `pack` was not built from a weight of
/// `w`'s shape under the process kernel and precision.
pub fn conv2d_backward_data_packed(
    dy: &Tensor,
    w: &Tensor,
    pack: Option<&PackedOperand>,
    x_shape: &[usize],
    cfg: Conv2dCfg,
) -> Tensor {
    let [n, ci, h, wd]: [usize; 4] = x_shape.try_into().expect("conv expects 4-D input shape");
    let co = w.shape()[0];
    let (ho, wo) = cfg.out_extent(h, wd);
    assert_eq!(dy.shape(), &[n, co, ho, wo], "dy shape mismatch");
    let cols_w = ci * cfg.kernel_h * cfg.kernel_w;
    let pixels = n * ho * wo;
    let mut dcols_t = arena::take(cols_w * pixels);
    let wsrc = match pack {
        Some(p) => MatSrc::Packed(p),
        None => MatSrc::ColMajor {
            data: w.data(),
            stride: cols_w,
        },
    };
    gemm(
        &wsrc,
        &MatSrc::NchwCols {
            data: dy.data(),
            c: co,
            hw: ho * wo,
        },
        &mut dcols_t,
        cols_w,
        pixels,
        co,
    );
    col2im_t(&dcols_t, n, ci, h, wd, cfg, configured_threads())
}

/// Gradient of the loss with respect to the weights: `dW = dY₂dᵀ ·
/// cols(x)`. Both operands are virtual views — `dY` as a `[co × pixels]`
/// matrix and `cols(x)` as the streamed im2col lowering — so nothing is
/// materialized besides `dW` itself.
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d_backward_weights, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3, 8, 8], 1.0);
/// let dy = Tensor::full(&[2, 4, 8, 8], 1.0);
/// let dw = conv2d_backward_weights(&x, &dy, Conv2dCfg::square(3, 1, 1));
/// assert_eq!(dw.shape(), &[4, 3, 3, 3]); // gradient matches the weight shape
/// // The center tap sees every one of the 2·8·8 output pixels.
/// assert_eq!(dw.get(&[0, 0, 1, 1]), 128.0);
/// ```
pub fn conv2d_backward_weights(x: &Tensor, dy: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let [n, ci, h, wd]: [usize; 4] = x.shape().try_into().expect("conv expects 4-D input");
    let [n2, co, ho, wo]: [usize; 4] = dy.shape().try_into().expect("conv expects 4-D dy");
    assert_eq!(n, n2, "batch mismatch");
    let geom = Im2colGeom::new(n, ci, h, wd, cfg);
    assert_eq!((ho, wo), (geom.ho, geom.wo), "dy spatial extent mismatch");
    let cols_w = geom.cols();
    let mut dw = Tensor::zeros(&[co, ci, cfg.kernel_h, cfg.kernel_w]);
    if cfg.stride == 1 {
        // Stride-1 weight gradients are themselves a convolution: correlate
        // x (batch and channel axes swapped) with dY read as the filter
        // bank. That puts the streamed im2col operand on the A side, whose
        // packing is contiguous, and gives the micro-kernel `ci·kh·kw` rows
        // of B-panel reuse instead of just `co`.
        let hw_in = h * wd;
        let mut x_perm = arena::take(n * ci * hw_in);
        for ni in 0..n {
            for c in 0..ci {
                x_perm[(c * n + ni) * hw_in..(c * n + ni + 1) * hw_in]
                    .copy_from_slice(&x.data()[(ni * ci + c) * hw_in..(ni * ci + c + 1) * hw_in]);
            }
        }
        let swap_geom = Im2colGeom {
            n: ci,
            ci: n,
            h,
            w: wd,
            ho: cfg.kernel_h,
            wo: cfg.kernel_w,
            cfg: Conv2dCfg {
                kernel_h: ho,
                kernel_w: wo,
                stride: 1,
                pad_h: cfg.pad_h,
                pad_w: cfg.pad_w,
            },
        };
        let mut flat = arena::take(cols_w * co); // [taps, co]
        gemm(
            &MatSrc::Im2col {
                x: &x_perm,
                geom: swap_geom,
            },
            &MatSrc::NchwRows {
                data: dy.data(),
                c: co,
                hw: ho * wo,
            },
            &mut flat,
            cols_w,
            co,
            n * ho * wo,
        );
        // [taps, co] → [co, taps] in cache-sized tiles: a row-at-a-time
        // transpose strides one side by a whole row per element.
        const TILE: usize = 32;
        let dwd = dw.data_mut();
        for t0 in (0..cols_w).step_by(TILE) {
            for o0 in (0..co).step_by(TILE) {
                for o in o0..(o0 + TILE).min(co) {
                    for t in t0..(t0 + TILE).min(cols_w) {
                        dwd[o * cols_w + t] = flat[t * co + o];
                    }
                }
            }
        }
        return dw;
    }
    gemm(
        &MatSrc::NchwCols {
            data: dy.data(),
            c: co,
            hw: ho * wo,
        },
        &MatSrc::Im2col { x: x.data(), geom },
        dw.data_mut(),
        co,
        cols_w,
        geom.rows(),
    );
    dw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|v| (((v * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0)
                .collect(),
        )
    }

    #[test]
    fn fused_path_matches_naive_forward() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 1)] {
            let cfg = Conv2dCfg::square(3, stride, pad);
            let x = seeded(&[2, 3, 7, 7], 1);
            let w = seeded(&[4, 3, 3, 3], 2);
            let a = conv2d_naive(&x, &w, cfg);
            let b = conv2d(&x, &w, cfg);
            assert!(a.max_abs_diff(&b) < 1e-4, "stride {stride} pad {pad}");
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let x = seeded(&[1, 2, 5, 5], 3);
        let mut w = seeded(&[3, 2, 3, 3], 4);
        let dy = seeded(&[1, 3, 5, 5], 5);

        let dw = conv2d_backward_weights(&x, &dy, cfg);
        // Check a handful of weight coordinates against (L(w+e) - L(w-e)) /
        // 2e where L = <conv(x, w), dy>.
        let eps = 1e-2;
        for idx in [0usize, 7, 23, 41] {
            let orig = w.data()[idx];
            w.data_mut()[idx] = orig + eps;
            let lp: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            w.data_mut()[idx] = orig - eps;
            let lm: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            w.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} analytic {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn data_gradient_matches_finite_difference() {
        let cfg = Conv2dCfg::square(3, 2, 1);
        let mut x = seeded(&[1, 2, 6, 6], 6);
        let w = seeded(&[3, 2, 3, 3], 7);
        let dy = seeded(&[1, 3, 3, 3], 8);

        let dx = conv2d_backward_data(&dy, &w, x.shape(), cfg);
        let eps = 1e-2;
        for idx in [0usize, 11, 35, 71] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            x.data_mut()[idx] = orig - eps;
            let lm: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            x.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn conv_is_linear_in_input() {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let a = seeded(&[1, 2, 5, 5], 9);
        let b = seeded(&[1, 2, 5, 5], 10);
        let w = seeded(&[2, 2, 3, 3], 11);
        let lhs = conv2d(&a.add(&b), &w, cfg);
        let rhs = conv2d(&a, &w, cfg).add(&conv2d(&b, &w, cfg));
        assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn non_square_inputs_and_kernels_work() {
        let cfg = Conv2dCfg {
            kernel_h: 3,
            kernel_w: 2,
            stride: 1,
            pad_h: 1,
            pad_w: 0,
        };
        let x = seeded(&[2, 3, 9, 6], 12);
        let w = seeded(&[5, 3, 3, 2], 13);
        let a = conv2d_naive(&x, &w, cfg);
        let b = conv2d(&x, &w, cfg);
        assert!(a.max_abs_diff(&b) < 1e-4);
    }
}
