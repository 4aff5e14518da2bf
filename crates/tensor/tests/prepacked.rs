//! Bitwise pins for prepacked GEMM operands and the NCHW conv forward.
//!
//! The conv forward computes `y = W · cols(x)ᵀ` and writes NCHW straight
//! from the GEMM's final-panel store, reading its weights from a pack a
//! layer builds once per weight update. Every output element still runs
//! the same FMA chain in the same depth-panel order as the materialized
//! reference `cols(x) · Wᵀ` followed by a transpose, so the two must agree
//! bit for bit — on every kernel, at every thread count, for every
//! bias/ReLU combination, with and without the pack.

use mbs_tensor::ops::kernel::{self, MicroKernel};
use mbs_tensor::ops::pack::{gemm_fused_prec, gemm_with_kernel, Epilogue, MatSrc, PackedOperand};
use mbs_tensor::ops::{
    conv2d_backward_data, conv2d_backward_data_packed, conv2d_packed_with, im2col,
    pack_conv_backward_data, relu_inplace, BitMask, Conv2dCfg, MaskSink,
};
use mbs_tensor::prec::{self, Precision};
use mbs_tensor::Tensor;

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|v| (((v * 13 + salt * 7) % 19) as f32 - 9.0) / 5.0)
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The pre-NCHW conv forward, materialized: `im2col`, the
/// `[pixels × taps] · Wᵀ` GEMM on `kern`, a transpose into NCHW, a bias
/// pass, then ReLU.
#[allow(clippy::too_many_arguments)]
fn reference(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    threads: usize,
    kern: &MicroKernel,
) -> (Tensor, Option<BitMask>) {
    let [n, _, h, wd]: [usize; 4] = x.shape().try_into().unwrap();
    let co = w.shape()[0];
    let (ho, wo) = cfg.out_extent(h, wd);
    let hw = ho * wo;
    let cols = im2col(x, cfg);
    let (pixels, k) = (cols.shape()[0], cols.shape()[1]);
    let mut flat = vec![0.0f32; pixels * co];
    gemm_with_kernel(
        &MatSrc::RowMajor {
            data: cols.data(),
            stride: k,
        },
        &MatSrc::ColMajor {
            data: w.data(),
            stride: k,
        },
        &mut flat,
        pixels,
        co,
        k,
        threads,
        kern,
    );
    let mut y = Tensor::zeros(&[n, co, ho, wo]);
    let yd = y.data_mut();
    for r in 0..pixels {
        for o in 0..co {
            let mut v = flat[r * co + o];
            if let Some(b) = bias {
                v += b[o];
            }
            yd[(r / hw * co + o) * hw + r % hw] = v;
        }
    }
    let mask = relu.then(|| relu_inplace(&mut y));
    (y, mask)
}

#[test]
fn nchw_forward_matches_materialized_reference_bitwise() {
    // co = 70 spans two MC row blocks (so 2 and 3 threads really split),
    // k = 16·9 = 144 spans two KC depth panels, and 7×7 = 49 output
    // pixels per sample is no multiple of any tile width — at n = 3 the
    // NCHW write-back splits tiles that straddle two samples.
    let (ci, co) = (16, 70);
    let geometries = [
        (9, Conv2dCfg::square(3, 1, 0)),  // 9×9 → 7×7
        (13, Conv2dCfg::square(3, 2, 1)), // 13×13 → 7×7, strided + padded
    ];
    let w = Tensor::from_vec(&[co, ci, 3, 3], filled(co * ci * 9, 1));
    let bias = filled(co, 2);
    for kern in kernel::available() {
        let pack = PackedOperand::a_with(
            &MatSrc::RowMajor {
                data: w.data(),
                stride: ci * 9,
            },
            co,
            ci * 9,
            kern,
            prec::precision(),
        );
        for n in [1usize, 3] {
            for &(side, cfg) in &geometries {
                let x = Tensor::from_vec(&[n, ci, side, side], filled(n * ci * side * side, 3));
                for threads in [1usize, 2, 3] {
                    for with_bias in [false, true] {
                        for relu in [false, true] {
                            let b = with_bias.then_some(&bias[..]);
                            let (want, want_mask) = reference(&x, &w, b, relu, cfg, threads, kern);
                            for packed in [None, Some(&pack)] {
                                let (got, got_mask) =
                                    conv2d_packed_with(&x, &w, packed, b, relu, cfg, threads, kern);
                                let what = format!(
                                    "{} n={n} side={side} threads={threads} bias={with_bias} \
                                     relu={relu} packed={}",
                                    kern.name,
                                    packed.is_some()
                                );
                                assert_eq!(got.shape(), want.shape(), "{what}");
                                assert_eq!(bits(got.data()), bits(want.data()), "{what}");
                                assert_eq!(got_mask, want_mask, "{what} mask");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn prepacked_operands_match_on_the_fly_packing() {
    // Shapes with edge tiles on both sides, several MC/NC blocks, and
    // multi-panel depth; both precisions; A, B, or both prepacked; plain
    // and fused (bias + ReLU) write-back.
    const SHAPES: &[(usize, usize, usize)] =
        &[(1, 1, 1), (17, 31, 7), (65, 257, 129), (200, 300, 150)];
    for kern in kernel::available() {
        for &(m, n, k) in SHAPES {
            let a = filled(m * k, 4);
            let b = filled(k * n, 5);
            let bias = filled(n, 6);
            let asrc = MatSrc::RowMajor {
                data: &a,
                stride: k,
            };
            let bsrc = MatSrc::ColMajor {
                data: &b,
                stride: k,
            };
            for precision in [Precision::F32, Precision::Bf16] {
                let pa = PackedOperand::a_with(&asrc, m, k, kern, precision);
                let pb = PackedOperand::b_with(&bsrc, k, n, kern, precision);
                for threads in [1usize, 2, 3] {
                    for relu in [false, true] {
                        let run = |a: &MatSrc<'_>, b: &MatSrc<'_>| {
                            let mut c = vec![f32::NAN; m * n];
                            let sink = MaskSink::new(m * n);
                            let epi = if relu {
                                Epilogue::BiasRelu(&bias, &sink)
                            } else {
                                Epilogue::None
                            };
                            gemm_fused_prec(a, b, &mut c, m, n, k, threads, kern, &epi, precision);
                            (bits(&c), sink.into_mask())
                        };
                        let want = run(&asrc, &bsrc);
                        let what = format!(
                            "{} ({m},{n},{k}) {} threads={threads} relu={relu}",
                            kern.name,
                            precision.name()
                        );
                        assert!(want == run(&MatSrc::Packed(&pa), &bsrc), "{what}: A packed");
                        assert!(want == run(&asrc, &MatSrc::Packed(&pb)), "{what}: B packed");
                        assert!(
                            want == run(&MatSrc::Packed(&pa), &MatSrc::Packed(&pb)),
                            "{what}: both packed"
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "prepacked operand")]
fn a_pack_of_the_wrong_shape_is_refused() {
    let a = filled(8 * 4, 7);
    let b = filled(4 * 8, 8);
    let pack = PackedOperand::a(
        &MatSrc::RowMajor {
            data: &a,
            stride: 4,
        },
        8,
        4,
    );
    let mut c = vec![0.0f32; 4 * 8];
    mbs_tensor::ops::gemm(
        &MatSrc::Packed(&pack),
        &MatSrc::RowMajor {
            data: &b,
            stride: 8,
        },
        &mut c,
        4,
        8,
        4,
    );
}

#[test]
fn data_gradient_pack_matches_unpacked() {
    let cfg = Conv2dCfg::square(3, 2, 1);
    let w = Tensor::from_vec(&[70, 16, 3, 3], filled(70 * 16 * 9, 9));
    let dy = Tensor::from_vec(&[3, 70, 7, 7], filled(3 * 70 * 49, 10));
    let pack = pack_conv_backward_data(&w);
    let want = conv2d_backward_data(&dy, &w, &[3, 16, 13, 13], cfg);
    let got = conv2d_backward_data_packed(&dy, &w, Some(&pack), &[3, 16, 13, 13], cfg);
    assert_eq!(bits(got.data()), bits(want.data()));
}
