//! Cache-blocked GEMM core with operand packing, SIMD micro-kernel
//! dispatch, and deterministic multi-threading — the compute engine behind
//! all three of the paper's per-layer training GEMMs (Tab. 1).
//!
//! # Architecture
//!
//! The classic three-level blocking (BLIS-style): the k dimension is split
//! into `KC`-deep panels, columns into `NC`-wide panels, and rows into
//! `MC`-tall blocks. For each panel the operands are *packed* into
//! contiguous tiles — A into `mr`-row strips, B into `nr`-column strips —
//! so the `mr×nr` register micro-kernel streams both operands sequentially
//! and keeps all `mr·nr` accumulators live across the whole `KC` depth.
//! The tile shape comes from the micro-kernel chosen at startup
//! ([`crate::ops::kernel`]): hand-written AVX-512 (16×16) or AVX2 (8×8)
//! FMA kernels where the CPU supports them, the portable autovectorized
//! 8×8 tile otherwise.
//!
//! Operands are described by [`MatSrc`], which abstracts *where elements
//! come from*: a row-major or column-major matrix in memory, an NCHW
//! feature map viewed as a `[pixels × channels]` matrix, a **virtual
//! im2col matrix** (or its transpose) generated straight from the
//! convolution input, or a [`PackedOperand`] packed ahead of time. The
//! virtual im2col is the fusion that makes `conv2d`/`conv2d_backward_weights`
//! stream receptive-field tiles directly into the packing buffers instead
//! of materializing the full `[n·ho·wo, ci·kh·kw]` lowering (the dominant
//! memory cost the paper's data-reuse argument targets); the prepacked
//! operand lets a conv layer pack its weights once per update instead of
//! once per MBS sub-batch.
//!
//! C is row-major, except for the conv forward, whose `[channels ×
//! batch·pixels]` product is written straight into the NCHW output.
//!
//! # Threading, the shared B panel, and determinism
//!
//! Row blocks are distributed contiguously over scoped threads
//! (`std::thread::scope`); each thread owns a disjoint set of C rows and
//! packs its own A strips. The packed **B panel is shared**: for every
//! `(KC, NC)` panel the workers pack disjoint strip ranges of one
//! arena-backed buffer, meet at a [`Barrier`], and then all read the same
//! panel — so B is packed exactly once per panel instead of once per
//! worker (the seed paid T× redundant B traffic at T threads).
//!
//! Thread boundaries are aligned to the `MC` grid and `MC` is a multiple
//! of every kernel's `mr`, so every output element sees the *same*
//! accumulation order regardless of thread count: results are bitwise
//! identical for 1 thread and N threads. The thread count comes from the
//! `MBS_THREADS` environment variable (default: available parallelism),
//! read once per process; the micro-kernel likewise is fixed per process
//! (`MBS_KERNEL`), because different tile shapes round differently.
//!
//! Unlike the original naive kernels there is no `a == 0.0` skip: zeros
//! are multiplied like any other value, so NaN/Inf propagate correctly and
//! the inner loop carries no data-dependent branch.
//!
//! # Reduced precision
//!
//! The packing pass is the single place operand elements are touched
//! before the micro-kernel, so it is also where reduced precision lives:
//! under [`Precision::Bf16`] (the `MBS_PREC` knob, see [`crate::prec`])
//! every packing loop encodes elements as bfloat16 while writing the
//! strips — including the cooperative shared-B-panel path, whose packed
//! bytes stay a pure function of `(B, jc, pc)` because the encoding is
//! deterministic bit arithmetic — and the micro-kernels widen on load,
//! accumulating in f32. The whole blocked core is written once, generic
//! over the packed element type, and monomorphized per precision; the f32
//! instantiation is operation-for-operation the pre-`MBS_PREC` code, so
//! f32 results are bitwise unchanged.

use std::marker::PhantomData;
use std::sync::{Barrier, OnceLock};

use crate::arena;
use crate::ops::activation::MaskSink;
use crate::ops::im2col::Conv2dCfg;
use crate::ops::kernel::{self, MicroKernel, MAX_MR, MAX_NR};
use crate::prec::{self, Precision};

/// Rows per packed A block. A multiple of every registered kernel's `mr`
/// (8 and 16), which keeps packed-strip boundaries on a global grid no
/// matter how rows are split across threads; sized for L1.
pub const MC: usize = 64;
/// Depth of one packed panel (shared by A and B; sized for L1/L2).
pub const KC: usize = 128;
/// Columns per packed B panel. A multiple of every registered kernel's
/// `nr`; sized for L2.
pub const NC: usize = 256;

/// Element-wise post-op folded into the GEMM's C write-back.
///
/// Applied by the micro-kernel's fused store ([`MicroKernel::store_tile`])
/// on the **last depth panel only** — earlier panels hold partial sums.
/// The arithmetic order matches the unfused sequence exactly (accumulate
/// the final panel, then `+= bias[j]`, then the `v > 0` clamp), so fused
/// results are bitwise identical to GEMM-then-bias-then-ReLU; the property
/// tests in `tests/fused_epilogue.rs` pin that per kernel.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain GEMM; write-back is an unmodified store/accumulate.
    None,
    /// `C[i][j] += bias[j]` — one bias value per output column, folded
    /// into the C store (the Linear/conv bias without its own pass).
    Bias(&'a [f32]),
    /// Bias, then ReLU. The clamp happens in the C store and the 1-bit
    /// sign mask (paper §3 "Back Propagation") is emitted by the same
    /// vector compare, in C's memory order.
    BiasRelu(&'a [f32], &'a MaskSink),
    /// An optional per-**row** bias (`C[i][j] += bias[i]`), then an
    /// optional ReLU with its sign mask — the conv forward's epilogue,
    /// whose C rows are output channels.
    Rows {
        /// One value per C row, if any.
        bias: Option<&'a [f32]>,
        /// Sign-mask sink of the fused ReLU, if any.
        relu: Option<&'a MaskSink>,
    },
}

impl<'a> Epilogue<'a> {
    /// The post-op the write-back applies, or `None` for a plain store.
    fn post(&self) -> Option<Post<'a>> {
        let (bias, bias_rows, relu) = match *self {
            Epilogue::None => return None,
            Epilogue::Bias(b) => (Some(b), false, None),
            Epilogue::BiasRelu(b, sink) => (Some(b), false, Some(sink)),
            Epilogue::Rows { bias, relu } => (bias, true, relu),
        };
        (bias.is_some() || relu.is_some()).then_some(Post {
            bias,
            bias_rows,
            relu,
        })
    }
}

/// An [`Epilogue`] in the form the write-back consumes.
#[derive(Clone, Copy)]
struct Post<'a> {
    bias: Option<&'a [f32]>,
    /// Whether `bias` is indexed by C row (else by C column).
    bias_rows: bool,
    relu: Option<&'a MaskSink>,
}

/// Whether fused epilogues are enabled: the `MBS_FUSE` environment knob,
/// read once per process. Unset (or malformed, after a warning) means
/// fused; `MBS_FUSE=0` keeps the separate bias/ReLU passes for A/B
/// comparisons and parity tests (results are bitwise identical either
/// way).
pub fn fuse_enabled() -> bool {
    static FUSE: OnceLock<bool> = OnceLock::new();
    *FUSE.get_or_init(|| crate::env::flag_knob("MBS_FUSE", true))
}

/// Number of GEMM worker threads: `MBS_THREADS` if set and positive, else
/// the machine's available parallelism (malformed values warn and fall
/// back). Read once per process.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        crate::env::positive_usize_knob("MBS_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// A packed-operand element type: `f32` (identity packing) or bf16-coded
/// `u16`. Everything a packing loop or a kernel dispatch needs is a method
/// here, so the blocked GEMM is written once and monomorphized per
/// precision — the f32 instantiation compiles to exactly the pre-precision
/// code (identity conversion, `memcpy` strip copies, the f32 tile body).
trait PackElem: Copy + Send + Sync + 'static {
    /// The strip padding value (`0.0` in both encodings).
    const ZERO: Self;
    /// Encodes one element (identity for f32, RNE bf16 otherwise).
    fn from_f32(v: f32) -> Self;
    /// `dst = encode(src)` — the converting strip copy (a `memcpy` for
    /// f32).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn pack_from(dst: &mut [Self], src: &[f32]);
    /// Runs the micro-kernel tile body for this element type.
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]);
    /// Wraps packed strips as prepacked-operand storage.
    fn store(data: Vec<Self>) -> PackedData;
    /// The prepacked strips, if `data` holds this element type.
    fn strips(data: &PackedData) -> Option<&[Self]>;
}

impl PackElem for f32 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        dst.copy_from_slice(src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run(kc, a, b, acc);
    }

    fn store(data: Vec<Self>) -> PackedData {
        PackedData::F32(data)
    }

    fn strips(data: &PackedData) -> Option<&[Self]> {
        match data {
            PackedData::F32(v) => Some(v),
            PackedData::Bf16(_) => None,
        }
    }
}

impl PackElem for u16 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        prec::f32_to_bf16(v)
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        prec::encode_slice(dst, src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run_bf16(kc, a, b, acc);
    }

    fn store(data: Vec<Self>) -> PackedData {
        PackedData::Bf16(data)
    }

    fn strips(data: &PackedData) -> Option<&[Self]> {
        match data {
            PackedData::Bf16(v) => Some(v),
            PackedData::F32(_) => None,
        }
    }
}

/// Storage of a [`PackedOperand`], in its packing precision.
#[derive(Debug, Clone)]
enum PackedData {
    F32(Vec<f32>),
    Bf16(Vec<u16>),
}

/// A GEMM operand packed once, ahead of time, into exactly the strips the
/// blocked core would otherwise pack on the fly for every call (same
/// bytes: it is built by the same packing loops). Pass it as
/// [`MatSrc::Packed`] on either side; the GEMM then reads its panels in
/// place, and a prepacked B needs neither the shared-panel packing nor its
/// barriers. A conv layer packs its weights this way once per optimizer
/// step instead of once per MBS sub-batch.
///
/// The strips are laid out panel-major: depth panel `pc` (every
/// `KC`-deep slice) holds all strips of the non-depth dimension, each
/// `kc × width` elements. A pack is tied to the tile width and the
/// precision it was built for; the GEMM asserts both match.
#[derive(Debug, Clone)]
pub struct PackedOperand {
    data: PackedData,
    /// Extent of the non-depth dimension: A rows or B columns.
    len: usize,
    /// Reduction depth `k`.
    depth: usize,
    /// Strip width: the kernel's `mr` (A) or `nr` (B).
    width: usize,
}

impl PackedOperand {
    /// Packs the `m × k` A operand `src` for the process-wide kernel and
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics if `src` is smaller than `m × k` or is itself prepacked.
    pub fn a(src: &MatSrc<'_>, m: usize, k: usize) -> Self {
        Self::a_with(src, m, k, kernel::selected(), prec::precision())
    }

    /// [`PackedOperand::a`] for an explicit kernel and precision.
    ///
    /// # Panics
    ///
    /// As for [`PackedOperand::a`].
    pub fn a_with(
        src: &MatSrc<'_>,
        m: usize,
        k: usize,
        kern: &MicroKernel,
        precision: Precision,
    ) -> Self {
        if m > 0 && k > 0 {
            check_extent(src, m, k, "A");
        }
        Self::build(src, true, m, k, kern.mr, precision)
    }

    /// Packs the `k × n` B operand `src` for an explicit kernel and
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics if `src` is smaller than `k × n` or is itself prepacked.
    pub fn b_with(
        src: &MatSrc<'_>,
        k: usize,
        n: usize,
        kern: &MicroKernel,
        precision: Precision,
    ) -> Self {
        if n > 0 && k > 0 {
            check_extent(src, k, n, "B");
        }
        Self::build(src, false, n, k, kern.nr, precision)
    }

    /// Runs the on-the-fly packing loop (`pack_a` for an A operand, else
    /// `pack_b`) over every depth panel of the whole operand.
    fn build(
        src: &MatSrc<'_>,
        is_a: bool,
        len: usize,
        depth: usize,
        width: usize,
        precision: Precision,
    ) -> Self {
        fn fill<E: PackElem>(
            src: &MatSrc<'_>,
            is_a: bool,
            len: usize,
            depth: usize,
            width: usize,
        ) -> PackedData {
            let padded = len.div_ceil(width) * width;
            let mut data = vec![E::ZERO; padded * depth];
            for pc in (0..depth).step_by(KC) {
                let kc = KC.min(depth - pc);
                let panel = &mut data[pc * padded..(pc + kc) * padded];
                if is_a {
                    pack_a(src, panel, 0, len, pc, kc, width);
                } else {
                    pack_b(src, panel, pc, kc, 0, len, width);
                }
            }
            E::store(data)
        }
        let data = match precision {
            Precision::F32 => fill::<f32>(src, is_a, len, depth, width),
            Precision::Bf16 => fill::<u16>(src, is_a, len, depth, width),
        };
        Self {
            data,
            len,
            depth,
            width,
        }
    }

    /// The precision the strips are encoded in.
    fn precision(&self) -> Precision {
        match self.data {
            PackedData::F32(_) => Precision::F32,
            PackedData::Bf16(_) => Precision::Bf16,
        }
    }

    /// Panics unless this pack serves a `len × depth` operand on a
    /// `width`-wide tile at `precision` (checked on the calling thread,
    /// before any worker starts).
    fn check(&self, len: usize, depth: usize, width: usize, precision: Precision, which: &str) {
        assert_eq!(
            (self.len, self.depth),
            (len, depth),
            "{which} prepacked operand has extent {}×{} (strips × depth), GEMM wants {len}×{depth}",
            self.len,
            self.depth
        );
        assert_eq!(
            self.width, width,
            "{which} prepacked operand was packed for a {}-wide tile, the kernel's is {width}",
            self.width
        );
        assert_eq!(
            self.precision(),
            precision,
            "{which} prepacked operand precision differs from the GEMM's"
        );
    }

    /// The `count` strips starting at non-depth index `first` (a multiple
    /// of the width) of the depth panel that starts at `pc` and is `kc`
    /// deep — exactly what on-the-fly packing would have produced there.
    fn panel<E: PackElem>(&self, pc: usize, first: usize, count: usize, kc: usize) -> &[E] {
        let padded = self.len.div_ceil(self.width) * self.width;
        let start = pc * padded + first / self.width * kc * self.width;
        let strips = E::strips(&self.data).expect("pack precision checked up front");
        &strips[start..start + count * kc * self.width]
    }
}

/// An arena-backed packing buffer of `len` elements of `E`. The arena
/// pools f32 buffers; a bf16 buffer reinterprets one as u16 words
/// (alignment 4 ≥ 2, every bit pattern valid), so both precisions recycle
/// through the same pool and the zero-steady-state-miss pins keep holding.
struct ElemBuf<E> {
    raw: arena::Scratch,
    len: usize,
    _marker: PhantomData<E>,
}

impl<E: PackElem> ElemBuf<E> {
    fn take(len: usize) -> Self {
        let words = (len * std::mem::size_of::<E>()).div_ceil(std::mem::size_of::<f32>());
        Self {
            raw: arena::take(words),
            len,
            _marker: PhantomData,
        }
    }

    fn as_mut_ptr(&mut self) -> *mut E {
        self.raw.as_mut_ptr().cast::<E>()
    }

    fn as_mut_slice(&mut self) -> &mut [E] {
        // SAFETY: the scratch holds ≥ len·size_of::<E> bytes (see `take`),
        // f32 alignment covers both element types, and u16/f32 accept any
        // bit pattern; &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), self.len) }
    }
}

/// Convolution lowering geometry for the virtual im2col operand.
#[derive(Debug, Clone, Copy)]
pub struct Im2colGeom {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub ci: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output height.
    pub ho: usize,
    /// Output width.
    pub wo: usize,
    /// Kernel/stride/padding geometry.
    pub cfg: Conv2dCfg,
}

impl Im2colGeom {
    /// Geometry for input `[n, ci, h, w]` under `cfg`.
    pub fn new(n: usize, ci: usize, h: usize, w: usize, cfg: Conv2dCfg) -> Self {
        let (ho, wo) = cfg.out_extent(h, w);
        Self {
            n,
            ci,
            h,
            w,
            ho,
            wo,
            cfg,
        }
    }

    /// Rows of the virtual im2col matrix (`n·ho·wo` output pixels).
    pub fn rows(&self) -> usize {
        self.n * self.ho * self.wo
    }

    /// Columns of the virtual im2col matrix (`ci·kh·kw` filter taps).
    pub fn cols(&self) -> usize {
        self.ci * self.cfg.kernel_h * self.cfg.kernel_w
    }
}

/// Where a GEMM operand's elements come from.
///
/// Logical coordinates are always `(r, c)` in the orientation the GEMM
/// needs: A sources are indexed `(i ∈ m, p ∈ k)`, B sources `(p ∈ k,
/// j ∈ n)`.
///
/// # Examples
///
/// A transposed view multiplies without materializing the transpose:
///
/// ```
/// use mbs_tensor::ops::{gemm, MatSrc};
///
/// // A = [[1, 2], [3, 4]] stored column-major (i.e. as [[1, 3], [2, 4]]).
/// let a_t = [1.0f32, 3.0, 2.0, 4.0];
/// let b = [1.0f32, 0.0, 0.0, 1.0]; // identity
/// let mut c = [0.0f32; 4];
/// gemm(
///     &MatSrc::ColMajor { data: &a_t, stride: 2 },
///     &MatSrc::RowMajor { data: &b, stride: 2 },
///     &mut c,
///     2,
///     2,
///     2,
/// );
/// assert_eq!(c, [1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum MatSrc<'a> {
    /// `(r, c) → data[r·stride + c]`.
    RowMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Row stride.
        stride: usize,
    },
    /// `(r, c) → data[c·stride + r]` — a transposed view, used for `Aᵀ·B`
    /// and `A·Bᵀ` without materializing the transpose.
    ColMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Column stride (the stored row length).
        stride: usize,
    },
    /// An `[n, c, h, w]` feature map read as `[n·h·w pixels × c channels]`
    /// (im2col row order): `(r, ch) → data[(rₙ·c + ch)·hw + r_off]`.
    NchwRows {
        /// Backing storage.
        data: &'a [f32],
        /// Channel count.
        c: usize,
        /// Spatial extent `h·w`.
        hw: usize,
    },
    /// The transpose of [`MatSrc::NchwRows`]: `[c channels × n·h·w pixels]`.
    NchwCols {
        /// Backing storage.
        data: &'a [f32],
        /// Channel count.
        c: usize,
        /// Spatial extent `h·w`.
        hw: usize,
    },
    /// Virtual im2col lowering of a convolution input: row `r` is output
    /// pixel `r`, column `c` is filter tap `(ci, ky, kx)`. Elements are
    /// generated on the fly during packing; the full matrix never exists.
    Im2col {
        /// The convolution input `[n, ci, h, w]`.
        x: &'a [f32],
        /// Lowering geometry.
        geom: Im2colGeom,
    },
    /// The transpose of [`MatSrc::Im2col`]: row `r` is filter tap `r`,
    /// column `c` is output pixel `c` — the B operand of the conv forward
    /// `y = W · cols(x)ᵀ`, whose C rows are output channels.
    Im2colT {
        /// The convolution input `[n, ci, h, w]`.
        x: &'a [f32],
        /// Lowering geometry.
        geom: Im2colGeom,
    },
    /// An operand packed ahead of time (see [`PackedOperand`]); read in
    /// place instead of packed per call.
    Packed(&'a PackedOperand),
}

/// `C[m×n] = A[m×k] · B[k×n]` with the process-default thread count and
/// micro-kernel.
///
/// `c` must hold exactly `m·n` elements and is overwritten (it need not be
/// zeroed first); when `k == 0` the output is left untouched.
///
/// # Panics
///
/// Panics if `c.len() != m·n` or an operand is smaller than its logical
/// extent.
pub fn gemm(a: &MatSrc<'_>, b: &MatSrc<'_>, c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_with_threads(a, b, c, m, n, k, configured_threads());
}

/// [`gemm`] with an explicit thread count (used by the determinism tests
/// and the bench runner's scaling sweep; results are bitwise identical for
/// any `threads ≥ 1`).
///
/// # Panics
///
/// Panics if `c.len() != m·n`.
pub fn gemm_with_threads(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
) {
    gemm_with_kernel(a, b, c, m, n, k, threads, kernel::selected());
}

/// [`gemm_with_threads`] with an explicit micro-kernel (used by the
/// per-kernel parity tests and the bench runner's kernel comparison; the
/// production entry points always use the process-wide
/// [`kernel::selected`] so results stay run-to-run identical).
///
/// # Panics
///
/// Panics if `c.len() != m·n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kernel(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
) {
    gemm_fused_with(a, b, c, m, n, k, threads, kern, &Epilogue::None);
}

/// [`gemm`] with a fused [`Epilogue`] applied at the C write-back, using
/// the process-default thread count and micro-kernel.
///
/// # Panics
///
/// Panics if `c.len() != m·n`, an operand is undersized, the epilogue's
/// bias is shorter than `n`, its mask sink does not cover `m·n` elements,
/// or `k == 0` with a non-`None` epilogue (an empty reduction never
/// reaches the write-back, so the post-op could not be applied).
pub fn gemm_fused(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    epi: &Epilogue<'_>,
) {
    gemm_fused_with(
        a,
        b,
        c,
        m,
        n,
        k,
        configured_threads(),
        kernel::selected(),
        epi,
    );
}

/// [`gemm_fused`] with explicit thread count and micro-kernel (the parity
/// tests sweep both).
///
/// # Panics
///
/// As for [`gemm_fused`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused_with(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
) {
    gemm_fused_prec(a, b, c, m, n, k, threads, kern, epi, prec::precision());
}

/// [`gemm_fused_with`] with an explicit operand [`Precision`] (tests and
/// the bench runner sweep both modes inside one process; the production
/// entry points always use the process-wide [`prec::precision`], so
/// results stay run-to-run identical).
///
/// Under [`Precision::Bf16`] the A/B panels are packed as bfloat16
/// (round-to-nearest-even) and the micro-kernel widens on load,
/// accumulating in f32; `c` and the epilogue stay f32. Results remain
/// bitwise invariant to `threads` per precision.
///
/// # Panics
///
/// As for [`gemm_fused`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_fused_prec(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    precision: Precision,
) {
    gemm_core(
        a,
        b,
        c,
        m,
        n,
        k,
        threads,
        kern,
        epi,
        precision,
        CLayout::RowMajor,
    );
}

/// [`gemm_fused_prec`] writing C, an `[m × batch·hw]` product whose rows
/// are channels, straight into the NCHW map `c = [batch, m, hw]` — the
/// conv forward's output, with no transpose pass. Mask bits of a fused
/// ReLU land in the same (NCHW) order.
///
/// # Panics
///
/// As for [`gemm_fused`], and if `hw` is zero or does not divide `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nchw(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    hw: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    precision: Precision,
) {
    assert!(
        hw > 0 && n.is_multiple_of(hw),
        "NCHW output: hw must divide n"
    );
    gemm_core(
        a,
        b,
        c,
        m,
        n,
        k,
        threads,
        kern,
        epi,
        precision,
        CLayout::Nchw { hw },
    );
}

#[allow(clippy::too_many_arguments)]
fn gemm_core(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    epi: &Epilogue<'_>,
    precision: Precision,
    layout: CLayout,
) {
    assert_eq!(c.len(), m * n, "output buffer must be m·n");
    let post = epi.post();
    if let Some(post) = post {
        assert!(k > 0, "a fused epilogue needs a non-empty reduction");
        if let Some(bias) = post.bias {
            let need = if post.bias_rows { m } else { n };
            assert!(bias.len() >= need, "epilogue bias shorter than C's extent");
        }
        if let Some(mask) = post.relu {
            assert_eq!(mask.len(), m * n, "epilogue mask must cover C");
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Validate operand extents up-front, on the calling thread: a panic
    // inside a spawned worker would leave its siblings waiting forever on
    // the shared-panel barrier instead of propagating.
    match a {
        MatSrc::Packed(p) => p.check(m, k, kern.mr, precision, "A"),
        _ => check_extent(a, m, k, "A"),
    }
    match b {
        MatSrc::Packed(p) => p.check(n, k, kern.nr, precision, "B"),
        _ => check_extent(b, k, n, "B"),
    }
    // Hard asserts (not debug): a non-dividing tile would mis-slice the
    // packing buffers inside a worker thread, and a worker panic strands
    // its siblings at the shared-panel barrier. One comparison per call.
    assert_eq!(MC % kern.mr, 0, "MC must be a multiple of the tile mr");
    assert_eq!(NC % kern.nr, 0, "NC must be a multiple of the tile nr");
    let out = COut {
        ptr: c.as_mut_ptr(),
        len: c.len(),
        m,
        n,
        layout,
    };
    match precision {
        Precision::F32 => run_shared::<f32>(a, b, &out, m, n, k, threads, kern, post.as_ref()),
        Precision::Bf16 => run_shared::<u16>(a, b, &out, m, n, k, threads, kern, post.as_ref()),
    }
}

/// Where C's logical `(i, j)` lives in the output buffer.
#[derive(Debug, Clone, Copy)]
enum CLayout {
    /// `c[i·n + j]`.
    RowMajor,
    /// C is `[m channels × batch·hw pixels]` stored as the NCHW map
    /// `[batch, m, hw]`: `(i, j) → ((j / hw)·m + i)·hw + j % hw` — the map
    /// [`MatSrc::NchwCols`] reads.
    Nchw { hw: usize },
}

/// Raw view of C shared by the GEMM workers. Each worker writes only its
/// own rows, and distinct `(i, j)` map to distinct addresses under either
/// layout, so no two workers' writes ever alias. Under both layouts
/// `(i, j)` sits at `i·ldc + col_addr(j)`, with `col_addr` contiguous
/// within a row run (all of C for row-major, one sample for NCHW).
struct COut {
    ptr: *mut f32,
    len: usize,
    m: usize,
    n: usize,
    layout: CLayout,
}

// SAFETY: the raw pointer is only dereferenced through `tile_mut`, whose
// callers own the rows they touch (see the struct docs).
unsafe impl Sync for COut {}

impl COut {
    /// Distance between rows `i` and `i + 1` of one column.
    fn ldc(&self) -> usize {
        match self.layout {
            CLayout::RowMajor => self.n,
            CLayout::Nchw { hw } => hw,
        }
    }

    /// Address of `(0, j)`.
    fn col_addr(&self, j: usize) -> usize {
        match self.layout {
            CLayout::RowMajor => j,
            CLayout::Nchw { hw } => j / hw * self.m * hw + j % hw,
        }
    }

    /// How many of the `want` columns from `j` on are contiguous in
    /// memory: all of them row-major, those up to the sample's end in
    /// NCHW (a tile that straddles two samples writes in two runs).
    fn run_len(&self, j: usize, want: usize) -> usize {
        match self.layout {
            CLayout::RowMajor => want,
            CLayout::Nchw { hw } => want.min(hw - j % hw),
        }
    }

    /// The strided `rows × lanes` tile at `(i, j)` (lanes within one run),
    /// as a slice starting at that element, and the element's offset in C.
    ///
    /// # Safety
    ///
    /// The caller must own C rows `[i, i + rows)` and hold no other view of
    /// them while the returned slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn tile_mut(
        &self,
        i: usize,
        j: usize,
        rows: usize,
        lanes: usize,
    ) -> (&mut [f32], usize) {
        let off = i * self.ldc() + self.col_addr(j);
        let len = (rows - 1) * self.ldc() + lanes;
        assert!(off + len <= self.len, "C tile out of bounds");
        (std::slice::from_raw_parts_mut(self.ptr.add(off), len), off)
    }
}

/// Panics unless `src` can serve every access of a logical `rows × cols`
/// operand (the packing loops then never index out of bounds, so worker
/// threads cannot panic mid-panel and strand their siblings at a barrier).
fn check_extent(src: &MatSrc<'_>, rows: usize, cols: usize, which: &str) {
    let (len, need) = match *src {
        MatSrc::RowMajor { data, stride } => (data.len(), (rows - 1) * stride + cols),
        MatSrc::ColMajor { data, stride } => (data.len(), (cols - 1) * stride + rows),
        // (r, ch) → ((r/hw)·c + ch)·hw + r%hw, maximal at r = rows-1,
        // ch = cols-1.
        MatSrc::NchwRows { data, c, hw } => (
            data.len(),
            ((rows - 1) / hw * c + cols - 1) * hw + (rows - 1) % hw + 1,
        ),
        MatSrc::NchwCols { data, c, hw } => (
            data.len(),
            ((cols - 1) / hw * c + rows - 1) * hw + (cols - 1) % hw + 1,
        ),
        MatSrc::Im2col { x, geom } => {
            // The logical shape must also fit the lowering: packing maps
            // row/col indices through the geometry, so an oversized m or
            // k would index past x even when the map itself is complete.
            assert!(
                rows <= geom.rows() && cols <= geom.cols(),
                "{which} operand too small: im2col lowering is {}×{}, GEMM wants {rows}×{cols}",
                geom.rows(),
                geom.cols()
            );
            (x.len(), geom.n * geom.ci * geom.h * geom.w)
        }
        MatSrc::Im2colT { x, geom } => {
            return check_extent(&MatSrc::Im2col { x, geom }, cols, rows, which);
        }
        MatSrc::Packed(_) => panic!("{which}: a prepacked operand cannot be packed again"),
    };
    assert!(
        len >= need,
        "{which} operand too small: {len} elements, logical {rows}×{cols} extent needs {need}"
    );
}

/// Raw view of the shared packed-B panel handed to every worker. Workers
/// write disjoint strip ranges before the pack barrier and only read after
/// it; the `Barrier` orders those accesses, so no two live references ever
/// alias.
struct SharedPanel<E> {
    ptr: *mut E,
    len: usize,
}

// SAFETY: access is coordinated by the barrier protocol described above;
// the raw pointer itself is just an address.
unsafe impl<E: PackElem> Sync for SharedPanel<E> {}

impl<E: PackElem> SharedPanel<E> {
    /// Mutable view of elements `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// The caller must be the only worker touching that range until the
    /// next barrier (the strip partition in [`shared_worker`] is disjoint).
    // The &self → &mut route is the point of this type: exclusivity is
    // guaranteed by the barrier protocol, not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    unsafe fn strips_mut(&self, start: usize, len: usize) -> &mut [E] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Shared view of the first `len` elements.
    ///
    /// # Safety
    ///
    /// Callable only between the pack barrier and the end-of-panel barrier,
    /// while no `strips_mut` view is live.
    unsafe fn panel(&self, len: usize) -> &[E] {
        debug_assert!(len <= self.len);
        std::slice::from_raw_parts(self.ptr, len)
    }
}

/// The schedule behind every GEMM: C rows are split contiguously
/// (MC-aligned) across scoped workers that cooperatively pack one shared
/// B panel per `(jc, pc)` block. At one worker the body runs inline on
/// the calling thread and the one-participant barrier waits are no-ops.
#[allow(clippy::too_many_arguments)]
fn run_shared<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    out: &COut,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    post: Option<&Post<'_>>,
) {
    let blocks = m.div_ceil(MC);
    // The barrier size must equal the worker count: both come from the
    // same `chunk_workers` clamp.
    let workers = chunk_workers(blocks, threads);
    // A prepacked B is read in place: no shared panel to fill.
    let mut b_buf = (!matches!(b, MatSrc::Packed(_))).then(|| ElemBuf::<E>::take(KC * NC));
    let shared = SharedPanel {
        ptr: b_buf
            .as_mut()
            .map_or(std::ptr::null_mut(), |buf| buf.as_mut_ptr()),
        len: KC * NC,
    };
    let barrier = Barrier::new(workers);
    let work = |t: usize| {
        let own = share(blocks, workers, t);
        let r0 = own.start * MC;
        let rows = (own.end * MC).min(m) - r0;
        shared_worker(
            a, b, out, r0, rows, n, k, t, workers, kern, post, &shared, &barrier,
        );
    };
    if workers == 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            for t in 0..workers {
                let work = &work;
                scope.spawn(move || work(t));
            }
        });
    }
    // `b_buf` outlives every worker's panel view (the scope joins them)
    // before the buffer returns to the arena.
    drop(b_buf);
}

/// One worker of the shared-panel schedule: packs its strip share of B,
/// waits for the panel to be complete, then computes its own C rows
/// `[r0, r0 + rows)` (packing its own A strips unless A is prepacked).
/// Every worker executes the same `(jc, pc)` loop so the two barriers per
/// panel always pair up across threads; a prepacked B skips both.
#[allow(clippy::too_many_arguments)]
fn shared_worker<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    out: &COut,
    r0: usize,
    rows: usize,
    n: usize,
    k: usize,
    t: usize,
    threads: usize,
    kern: &MicroKernel,
    post: Option<&Post<'_>>,
    shared: &SharedPanel<E>,
    barrier: &Barrier,
) {
    let nr = kern.nr;
    let mut a_buf = (!matches!(a, MatSrc::Packed(_))).then(|| ElemBuf::<E>::take(MC * KC));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(nr);
        // This worker's contiguous strip share of the panel. The packed
        // bytes are a pure function of (B, jc, pc), not of which worker
        // writes them, so the shared panel preserves bitwise determinism.
        let mine = share(strips, threads, t);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let last_kpanel = pc + kc == k;
            let b_panel: &[E] = match b {
                MatSrc::Packed(p) => p.panel(pc, jc, strips, kc),
                _ => {
                    if !mine.is_empty() {
                        // SAFETY: strip ranges are disjoint across workers,
                        // and no worker reads the panel before the barrier
                        // below.
                        let my = unsafe {
                            shared.strips_mut(mine.start * kc * nr, mine.len() * kc * nr)
                        };
                        let nc_local = (nc - mine.start * nr).min(mine.len() * nr);
                        pack_b(b, my, pc, kc, jc + mine.start * nr, nc_local, nr);
                    }
                    barrier.wait();
                    // SAFETY: every write to the panel happened before the
                    // barrier (which orders them), and nobody writes again
                    // until the end-of-panel barrier.
                    unsafe { shared.panel(strips * kc * nr) }
                }
            };
            compute_block(
                a,
                b_panel,
                out,
                r0,
                rows,
                jc,
                nc,
                pc,
                kc,
                last_kpanel,
                kern,
                post,
                a_buf.as_mut(),
            );
            // The panel buffer is reused for the next (jc, pc) block; no
            // worker may repack while another still reads. The last panel
            // has no successor, so its drain barrier is skipped (the
            // thread-scope join provides the final synchronization).
            let last_panel = jc + NC >= n && pc + KC >= k;
            if !last_panel && !matches!(b, MatSrc::Packed(_)) {
                barrier.wait();
            }
        }
    }
}

/// Computes C rows `[r0, r0 + rows)` of one `(jc, pc)` panel given its
/// packed B, packing A strips on the fly (or reading them from a
/// prepacked A). On the last depth panel (`last_kpanel`) the epilogue —
/// bias add, ReLU clamp, sign-mask emission — is folded into the same
/// store that writes the final sums, so no later pass ever re-reads C.
#[allow(clippy::too_many_arguments)]
fn compute_block<E: PackElem>(
    a: &MatSrc<'_>,
    b_panel: &[E],
    out: &COut,
    r0: usize,
    rows: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    last_kpanel: bool,
    kern: &MicroKernel,
    post: Option<&Post<'_>>,
    mut a_buf: Option<&mut ElemBuf<E>>,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    // The first depth panel *stores* its tile into C, later panels
    // accumulate — so callers never pre-zero C and the store pass skips
    // C's read traffic.
    let first_panel = pc == 0;
    let post = post.filter(|_| last_kpanel);
    let nr_strips = nc.div_ceil(nr);
    // One spare row: a write-back run that starts mid-tile reads its
    // full-width accumulator rows from `acc[lane..]`.
    let mut acc = [0.0f32; MAX_MR * MAX_NR + MAX_NR];
    for ic in (0..rows).step_by(MC) {
        let mc = MC.min(rows - ic);
        let mr_strips = mc.div_ceil(mr);
        let a_panel: &[E] = match (a, a_buf.as_deref_mut()) {
            (MatSrc::Packed(p), _) => p.panel(pc, r0 + ic, mr_strips, kc),
            (_, Some(buf)) => {
                let buf = buf.as_mut_slice();
                pack_a(a, buf, r0 + ic, mc, pc, kc, mr);
                buf
            }
            (_, None) => unreachable!("an unpacked A always has a packing buffer"),
        };
        for js in 0..nr_strips {
            let b_strip = &b_panel[js * kc * nr..(js + 1) * kc * nr];
            let j_hi = nr.min(nc - js * nr);
            let j0 = jc + js * nr;
            for is in 0..mr_strips {
                let a_strip = &a_panel[is * kc * mr..(is + 1) * kc * mr];
                let i_hi = mr.min(mc - is * mr);
                E::run_tile(kern, kc, a_strip, b_strip, &mut acc);
                let row0 = r0 + ic + is * mr;
                let mut lane = 0;
                while lane < j_hi {
                    let run = out.run_len(j0 + lane, j_hi - lane);
                    // SAFETY: this worker owns C rows [r0, r0 + rows), which
                    // contain the tile's rows, and the view dies this turn.
                    let (dst, off) = unsafe { out.tile_mut(row0, j0 + lane, i_hi, run) };
                    let tile = Tile {
                        acc: &acc[lane..],
                        nr,
                        dst,
                        ldc: out.ldc(),
                        rows: i_hi,
                        lanes: run,
                        add: !first_panel,
                    };
                    match post {
                        None => tile.store(),
                        Some(post) => tile.store_post(kern, post, row0, j0 + lane, off),
                    }
                    lane += run;
                }
            }
        }
    }
}

/// One contiguous write-back run of a register tile: `rows × lanes`
/// accumulator values (row stride `nr`) into C (row stride `ldc`).
struct Tile<'t> {
    acc: &'t [f32],
    nr: usize,
    dst: &'t mut [f32],
    ldc: usize,
    rows: usize,
    lanes: usize,
    /// Accumulate into C (every depth panel but the first).
    add: bool,
}

impl Tile<'_> {
    /// Plain store / accumulate.
    fn store(self) {
        for i in 0..self.rows {
            let acc_row = &self.acc[i * self.nr..i * self.nr + self.lanes];
            let c_row = &mut self.dst[i * self.ldc..i * self.ldc + self.lanes];
            if self.add {
                for (cv, av) in c_row.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            } else {
                c_row.copy_from_slice(acc_row);
            }
        }
    }

    /// The last depth panel's store with the epilogue folded in; the tile
    /// starts at C element `(row0, col)`, which is `off` in memory.
    fn store_post(self, kern: &MicroKernel, post: &Post<'_>, row0: usize, col: usize, off: usize) {
        let bias = post.bias.map(|b| {
            if post.bias_rows {
                &b[row0..row0 + self.rows]
            } else {
                &b[col..col + self.lanes]
            }
        });
        match (bias, post.relu) {
            (Some(bias), None) => {
                // Bias-only fuses as an inline write-back loop: an
                // indirect SIMD store call costs more than the one extra
                // add this epilogue needs.
                for i in 0..self.rows {
                    let acc_row = &self.acc[i * self.nr..i * self.nr + self.lanes];
                    let c_row = &mut self.dst[i * self.ldc..i * self.ldc + self.lanes];
                    if post.bias_rows {
                        let bv = bias[i];
                        if self.add {
                            for (cv, av) in c_row.iter_mut().zip(acc_row) {
                                *cv = *cv + av + bv;
                            }
                        } else {
                            for (cv, av) in c_row.iter_mut().zip(acc_row) {
                                *cv = av + bv;
                            }
                        }
                    } else if self.add {
                        for ((cv, av), bv) in c_row.iter_mut().zip(acc_row).zip(bias) {
                            *cv = *cv + av + bv;
                        }
                    } else {
                        for ((cv, av), bv) in c_row.iter_mut().zip(acc_row).zip(bias) {
                            *cv = av + bv;
                        }
                    }
                }
            }
            (bias, relu) => {
                // One fused SIMD store covers the whole run: bias and edge
                // mask stay in registers across its rows, and the sign
                // bits fall out of the vector compare.
                let mut bits = [0u32; MAX_MR];
                kern.store_tile(
                    self.acc,
                    self.dst,
                    self.ldc,
                    self.rows,
                    self.lanes,
                    bias,
                    post.bias_rows,
                    self.add,
                    relu.is_some(),
                    &mut bits,
                );
                if let Some(mask) = relu {
                    for (i, &row_bits) in bits.iter().enumerate().take(self.rows) {
                        mask.or_bits(off + i * self.ldc, row_bits, self.lanes);
                    }
                }
            }
        }
    }
}

/// The `t`-th of `parts` contiguous, near-equal shares of `0..items` —
/// the one partition every split here uses, so work boundaries are a pure
/// function of `(items, parts)`.
fn share(items: usize, parts: usize, t: usize) -> std::ops::Range<usize> {
    let per = items / parts;
    let extra = items % parts;
    let lo = t * per + t.min(extra);
    lo..lo + per + usize::from(t < extra)
}

/// Workers [`scoped_chunks`] will actually run for `items` work items
/// under a requested `threads` — the single source of the clamp, so
/// callers that need the count up front (the shared-panel barrier) cannot
/// drift from the split itself.
pub(crate) fn chunk_workers(items: usize, threads: usize) -> usize {
    threads.max(1).min(items)
}

/// Worker threads a GEMM over `m` output rows actually runs when
/// `threads` are requested: the row split hands out whole `MC` blocks, so
/// small workloads cap below the request. The bench runner records this
/// next to each `thread_scaling` measurement so flat scaling on small
/// shapes is attributable to the workload, not the scheduler.
pub fn effective_workers(m: usize, threads: usize) -> usize {
    chunk_workers(m.div_ceil(MC), threads)
}

/// Splits `buf` into contiguous runs of whole `unit`-sized items (`items`
/// of them; the final item may be short) and runs `f(chunk_index,
/// first_item, chunk)` for each run on a scoped thread. The partition is
/// [`share`], a pure function of `(items, threads)` — the same one the
/// GEMM row split uses — so any work whose per-item order is fixed stays
/// bitwise-deterministic for every thread count. Used by the
/// [`crate::ops::im2col::col2im_t`] sample split.
pub(crate) fn scoped_chunks<F>(buf: &mut [f32], unit: usize, items: usize, threads: usize, f: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if buf.is_empty() || items == 0 {
        return;
    }
    let threads = chunk_workers(items, threads);
    if threads == 1 {
        f(0, 0, buf);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = buf;
        for t in 0..threads {
            let own = share(items, threads, t);
            let len = (own.len() * unit).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(t, own.start, chunk));
        }
    });
}

/// Packs A rows `[i0, i0+mc) × depth [p0, p0+kc)` into `mr`-row strips:
/// `buf[strip·kc·mr + p·mr + i]`, zero-padded to full strips. Every source
/// variant gets a specialized loop (contiguous copies or one divmod per
/// run) — the packing pass is the fused paths' only touch of the operand,
/// so its per-element cost directly bounds kernel throughput.
#[allow(clippy::too_many_arguments)]
fn pack_a<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
) {
    let strips = mc.div_ceil(mr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for ii in 0..mr {
                    if ii >= lanes {
                        zero_lane(strip, kc, mr, ii);
                        continue;
                    }
                    let row = &data[(i0 + s * mr + ii) * stride + p0..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        strip[p * mr + ii] = E::from_f32(v);
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for p in 0..kc {
                    let col = &data[(p0 + p) * stride + i0 + s * mr..][..lanes];
                    let cell = &mut strip[p * mr..(p + 1) * mr];
                    E::pack_from(&mut cell[..lanes], col);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
        MatSrc::NchwRows { data, c, hw } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for ii in 0..mr {
                    if ii >= lanes {
                        zero_lane(strip, kc, mr, ii);
                        continue;
                    }
                    let r = i0 + s * mr + ii;
                    let base = (r / hw) * c * hw + r % hw;
                    for p in 0..kc {
                        strip[p * mr + ii] = E::from_f32(data[base + (p0 + p) * hw]);
                    }
                }
            }
        }
        MatSrc::NchwCols { data, c, hw } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for ii in 0..mr {
                    if ii >= lanes {
                        zero_lane(strip, kc, mr, ii);
                        continue;
                    }
                    let ch = i0 + s * mr + ii;
                    let mut p = 0usize;
                    while p < kc {
                        let pix = p0 + p;
                        let off = pix % hw;
                        let run = (hw - off).min(kc - p);
                        let src_run = &data[(pix / hw * c + ch) * hw + off..][..run];
                        for (q, &v) in src_run.iter().enumerate() {
                            strip[(p + q) * mr + ii] = E::from_f32(v);
                        }
                        p += run;
                    }
                }
            }
        }
        MatSrc::Im2col { x, geom } => pack_a_im2col(x, &geom, buf, i0, mc, p0, kc, mr),
        // Same strip layout on both sides: A rows of the transpose are B
        // columns of the lowering.
        MatSrc::Im2colT { x, geom } => pack_b_im2col(x, &geom, buf, p0, kc, i0, mc, mr),
        MatSrc::Packed(_) => unreachable!("prepacked operands are read in place"),
    }
}

/// Packs B depth `[p0, p0+kc) × cols [j0, j0+nc)` into `nr`-column strips:
/// `buf[strip·kc·nr + p·nr + j]`, zero-padded to full strips. Callable on
/// any strip-aligned column sub-range, which is how the shared-panel
/// workers each pack a disjoint slice of the same panel.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for p in 0..kc {
                    let row = &data[(p0 + p) * stride + j0 + s * nr..][..lanes];
                    let cell = &mut strip[p * nr..(p + 1) * nr];
                    E::pack_from(&mut cell[..lanes], row);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for jj in 0..nr {
                    if jj >= lanes {
                        zero_lane(strip, kc, nr, jj);
                        continue;
                    }
                    let col = &data[(j0 + s * nr + jj) * stride + p0..][..kc];
                    for (p, &v) in col.iter().enumerate() {
                        strip[p * nr + jj] = E::from_f32(v);
                    }
                }
            }
        }
        MatSrc::NchwRows { data, c, hw } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for p in 0..kc {
                    let r = p0 + p;
                    let base = (r / hw) * c * hw + r % hw;
                    let cell = &mut strip[p * nr..(p + 1) * nr];
                    for (jj, slot) in cell.iter_mut().enumerate() {
                        *slot = if jj < lanes {
                            E::from_f32(data[base + (j0 + s * nr + jj) * hw])
                        } else {
                            E::ZERO
                        };
                    }
                }
            }
        }
        MatSrc::NchwCols { data, c, hw } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                let pix0 = j0 + s * nr;
                if lanes == nr && pix0 % hw + nr <= hw {
                    // All nr pixels in one sample: each depth row is one
                    // contiguous nr-float run of the channel plane.
                    let base = (pix0 / hw * c) * hw + pix0 % hw;
                    for (p, cell) in strip.chunks_exact_mut(nr).enumerate() {
                        E::pack_from(cell, &data[base + (p0 + p) * hw..][..nr]);
                    }
                    continue;
                }
                for jj in 0..nr {
                    if jj >= lanes {
                        zero_lane(strip, kc, nr, jj);
                        continue;
                    }
                    let pix = j0 + s * nr + jj;
                    let base = (pix / hw * c) * hw + pix % hw;
                    for p in 0..kc {
                        strip[p * nr + jj] = E::from_f32(data[base + (p0 + p) * hw]);
                    }
                }
            }
        }
        MatSrc::Im2col { x, geom } => pack_b_im2col(x, &geom, buf, p0, kc, j0, nc, nr),
        MatSrc::Im2colT { x, geom } => pack_a_im2col(x, &geom, buf, j0, nc, p0, kc, nr),
        MatSrc::Packed(_) => unreachable!("prepacked operands are read in place"),
    }
}

/// Zeroes one padding lane of a packed strip (`width` = mr or nr).
#[inline(always)]
fn zero_lane<E: PackElem>(strip: &mut [E], kc: usize, width: usize, lane: usize) {
    for p in 0..kc {
        strip[p * width + lane] = E::ZERO;
    }
}

/// Streams im2col *rows* (output pixels) into packed-A strips: the fused
/// conv-forward path.
///
/// Fast path: when a strip's `mr` pixels lie in one output row, the `mr`
/// lanes of a tap read `mr` consecutive (stride 1) or evenly strided input
/// values, so the whole tap packs as one bounds-checked copy; only strips
/// touching the padding halo or an image-row boundary fall back to the
/// per-lane loop.
#[allow(clippy::too_many_arguments)]
fn pack_a_im2col<E: PackElem>(
    x: &[f32],
    geom: &Im2colGeom,
    buf: &mut [E],
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
) {
    let runs = tap_runs(geom, p0, kc);
    let strips = mc.div_ceil(mr);
    let hw = geom.ho * geom.wo;
    let stride = geom.cfg.stride;
    for s in 0..strips {
        let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
        let lanes = mr.min(mc - s * mr);
        let r0 = i0 + s * mr;
        // Whole strip in one (sample, output-row) pair?
        let same_row =
            lanes == mr && (r0 % geom.wo) + mr <= geom.wo && r0 / hw == (r0 + mr - 1) / hw;
        if same_row {
            let ni = r0 / hw;
            let off = r0 % hw;
            let oy = off / geom.wo;
            let ox0 = off % geom.wo;
            let iy0 = (oy * stride) as isize - geom.cfg.pad_h as isize;
            let ix_first0 = (ox0 * stride) as isize - geom.cfg.pad_w as isize;
            for run in &runs {
                let iy = iy0 + run.ky;
                if iy < 0 || iy as usize >= geom.h {
                    for q in 0..run.len {
                        strip[(run.start + q) * mr..(run.start + q) * mr + mr].fill(E::ZERO);
                    }
                    continue;
                }
                let row_base = ((ni * geom.ci + run.ch) * geom.h + iy as usize) * geom.w;
                for q in 0..run.len {
                    let ix_first = ix_first0 + run.kx0 + q as isize;
                    let ix_last = ix_first + ((mr - 1) * stride) as isize;
                    let cell = &mut strip[(run.start + q) * mr..(run.start + q) * mr + mr];
                    if ix_first >= 0 && (ix_last as usize) < geom.w {
                        let src0 = row_base + ix_first as usize;
                        if stride == 1 {
                            E::pack_from(cell, &x[src0..src0 + mr]);
                        } else {
                            for (ii, slot) in cell.iter_mut().enumerate() {
                                *slot = E::from_f32(x[src0 + ii * stride]);
                            }
                        }
                    } else if stride == 1 {
                        // Boundary tile: zero the out-of-image lanes, copy
                        // the contiguous in-bounds span.
                        let lo = (-ix_first).clamp(0, mr as isize) as usize;
                        let hi = (geom.w as isize - ix_first).clamp(0, mr as isize) as usize;
                        cell[..lo].fill(E::ZERO);
                        cell[hi..].fill(E::ZERO);
                        if hi > lo {
                            let src0 = (row_base as isize + ix_first + lo as isize) as usize;
                            E::pack_from(&mut cell[lo..hi], &x[src0..src0 + hi - lo]);
                        }
                    } else {
                        for (ii, slot) in cell.iter_mut().enumerate() {
                            let ix = ix_first + (ii * stride) as isize;
                            *slot = if ix < 0 || ix as usize >= geom.w {
                                E::ZERO
                            } else {
                                E::from_f32(x[row_base + ix as usize])
                            };
                        }
                    }
                }
            }
            continue;
        }
        for ii in 0..mr {
            if ii >= lanes {
                zero_lane(strip, kc, mr, ii);
                continue;
            }
            let r = r0 + ii;
            let ni = r / hw;
            let off = r % hw;
            let oy = off / geom.wo;
            let ox = off % geom.wo;
            let iy0 = (oy * stride) as isize - geom.cfg.pad_h as isize;
            let ix0 = (ox * stride) as isize - geom.cfg.pad_w as isize;
            for run in &runs {
                let iy = iy0 + run.ky;
                if iy < 0 || iy as usize >= geom.h {
                    for q in 0..run.len {
                        strip[(run.start + q) * mr + ii] = E::ZERO;
                    }
                    continue;
                }
                let row_base = ((ni * geom.ci + run.ch) * geom.h + iy as usize) * geom.w;
                let ix_first = ix0 + run.kx0;
                if ix_first >= 0 && (ix_first as usize) + run.len <= geom.w {
                    let src0 = row_base + ix_first as usize;
                    for (q, &v) in x[src0..src0 + run.len].iter().enumerate() {
                        strip[(run.start + q) * mr + ii] = E::from_f32(v);
                    }
                } else {
                    for q in 0..run.len {
                        let ix = ix_first + q as isize;
                        strip[(run.start + q) * mr + ii] = if ix < 0 || ix as usize >= geom.w {
                            E::ZERO
                        } else {
                            E::from_f32(x[row_base + ix as usize])
                        };
                    }
                }
            }
        }
    }
}

/// Streams im2col rows as a packed-B operand (rows are the *k* dimension —
/// the fused weight-gradient path `dW = dY₂dᵀ · cols(x)`).
///
/// Two passes over a panel-sized scratch buffer: pixel-major row
/// generation (contiguous writes, one bounds decision per tap run), then a
/// re-pack into `nr`-column strips as contiguous `nr`-float copies. Only
/// the `kc×nc` panel ever exists; the full lowering is never materialized.
#[allow(clippy::too_many_arguments)]
fn pack_b_im2col<E: PackElem>(
    x: &[f32],
    geom: &Im2colGeom,
    buf: &mut [E],
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
) {
    let runs = tap_runs(geom, j0, nc);
    let hw = geom.ho * geom.wo;
    let stride = geom.cfg.stride;
    let pad_w = geom.cfg.pad_w as isize;
    let mut scratch = arena::take(kc * nc);

    // Pass 1: scratch[p][·] = im2col row of pixel p0+p, taps [j0, j0+nc).
    let mut ni = (p0) / hw;
    let mut off = (p0) % hw;
    for p in 0..kc {
        let oy = off / geom.wo;
        let ox = off % geom.wo;
        let iy0 = (oy * stride) as isize - geom.cfg.pad_h as isize;
        let ix0 = (ox * stride) as isize - pad_w;
        let kx_lo = (-ix0).max(0);
        let kx_hi = (geom.w as isize - ix0).max(0);
        let row = &mut scratch[p * nc..(p + 1) * nc];
        for run in &runs {
            let iy = iy0 + run.ky;
            let dst = &mut row[run.start..run.start + run.len];
            if iy < 0 || iy as usize >= geom.h {
                dst.fill(0.0);
                continue;
            }
            // Valid kx sub-interval of [kx0, kx0+len).
            let lo = kx_lo.clamp(run.kx0, run.kx0 + run.len as isize);
            let hi = kx_hi.clamp(run.kx0, run.kx0 + run.len as isize);
            let row_base = ((ni * geom.ci + run.ch) * geom.h + iy as usize) * geom.w;
            dst[..(lo - run.kx0) as usize].fill(0.0);
            dst[(hi - run.kx0) as usize..].fill(0.0);
            if hi > lo {
                let from = (row_base as isize + ix0 + lo) as usize;
                dst[(lo - run.kx0) as usize..(hi - run.kx0) as usize]
                    .copy_from_slice(&x[from..from + (hi - lo) as usize]);
            }
        }
        off += 1;
        if off == hw {
            off = 0;
            ni += 1;
        }
    }

    // Pass 2: strip re-pack (contiguous nr-element converting copies; the
    // f32 scratch is where bf16 encoding happens for this operand).
    let strips = nc.div_ceil(nr);
    for s in 0..strips {
        let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
        let lanes = nr.min(nc - s * nr);
        for p in 0..kc {
            let cell = &mut strip[p * nr..(p + 1) * nr];
            E::pack_from(
                &mut cell[..lanes],
                &scratch[p * nc + s * nr..p * nc + s * nr + lanes],
            );
            cell[lanes..].fill(E::ZERO);
        }
    }
}

/// A maximal run of consecutive im2col taps sharing `(channel, ky)` — the
/// unit at which the streaming packers do bounds checks and row lookups.
struct TapRun {
    /// Offset of the run's first tap within the packed range.
    start: usize,
    /// Taps in the run (≤ `kernel_w`).
    len: usize,
    /// Input channel.
    ch: usize,
    /// Kernel row, as a signed offset for padding arithmetic.
    ky: isize,
    /// First kernel column in the run, signed.
    kx0: isize,
}

/// Decomposes taps `[first, first+count)` into [`TapRun`]s.
fn tap_runs(geom: &Im2colGeom, first: usize, count: usize) -> Vec<TapRun> {
    let (kh, kw) = (geom.cfg.kernel_h, geom.cfg.kernel_w);
    let khkw = kh * kw;
    let mut runs = Vec::with_capacity(count.div_ceil(kw) + 1);
    let mut t = 0usize;
    while t < count {
        let col = first + t;
        let ch = col / khkw;
        let rem = col % khkw;
        let ky = rem / kw;
        let kx0 = rem % kw;
        let len = (kw - kx0).min(count - t);
        runs.push(TapRun {
            start: t,
            len,
            ch,
            ky: ky as isize,
            kx0: kx0 as isize,
        });
        t += len;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|v| ((v * 13 + salt * 7) % 19) as f32 - 9.0)
            .collect()
    }

    fn naive(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_naive_on_non_tile_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 9, 5),
            (65, 17, 130),
            (64, 256, 128),
            (100, 3, 300),
        ] {
            let a = seq(m * k, 1);
            let b = seq(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            gemm(
                &MatSrc::RowMajor {
                    data: &a,
                    stride: k,
                },
                &MatSrc::RowMajor {
                    data: &b,
                    stride: n,
                },
                &mut c,
                m,
                n,
                k,
            );
            let expect = naive(&a, &b, m, n, k);
            for (x, y) in c.iter().zip(&expect) {
                assert!(
                    (x - y).abs() <= 1e-3 * y.abs().max(1.0),
                    "({m},{n},{k}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_are_bitwise_identical() {
        let (m, n, k) = (133, 37, 97);
        let a = seq(m * k, 3);
        let b = seq(k * n, 4);
        let mut c1 = vec![0.0f32; m * n];
        let mut c4 = vec![0.0f32; m * n];
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        gemm_with_threads(&asrc, &bsrc, &mut c1, m, n, k, 1);
        gemm_with_threads(&asrc, &bsrc, &mut c4, m, n, k, 4);
        assert_eq!(c1, c4, "thread count must not change results bitwise");
    }

    #[test]
    fn transposed_sources_match_explicit_transpose() {
        let (m, n, k) = (13, 11, 21);
        let a = seq(m * k, 5);
        let b = seq(k * n, 6);
        // A stored column-major ([k, m] layout).
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm(
            &MatSrc::ColMajor {
                data: &at,
                stride: m,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: n,
            },
            &mut c,
            m,
            n,
            k,
        );
        let expect = naive(&a, &b, m, n, k);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0));
        }
    }

    #[test]
    fn nchw_sources_match_explicit_matrices() {
        // An [n, c, h, w] map viewed as pixels×channels (NchwRows) and
        // channels×pixels (NchwCols), exercised as BOTH the A and B
        // operand against explicitly materialized matrices.
        let (n, c, h, w) = (3usize, 5usize, 4usize, 3usize);
        let hw = h * w;
        let pixels = n * hw;
        let map: Vec<f32> = (0..n * c * hw).map(|v| (v % 13) as f32 - 6.0).collect();
        // rows[pixel][ch] and its transpose, materialized.
        let mut rows = vec![0.0f32; pixels * c];
        for r in 0..pixels {
            for ch in 0..c {
                rows[r * c + ch] = map[(r / hw * c + ch) * hw + r % hw];
            }
        }
        let other = seq(pixels * 7, 9); // shared dense operand

        // NchwRows as A ([pixels, c] · [c, 7]).
        let w2: Vec<f32> = other[..c * 7].to_vec();
        let mut got = vec![0.0f32; pixels * 7];
        let mut want = vec![0.0f32; pixels * 7];
        gemm(
            &MatSrc::NchwRows { data: &map, c, hw },
            &MatSrc::RowMajor {
                data: &w2,
                stride: 7,
            },
            &mut got,
            pixels,
            7,
            c,
        );
        gemm(
            &MatSrc::RowMajor {
                data: &rows,
                stride: c,
            },
            &MatSrc::RowMajor {
                data: &w2,
                stride: 7,
            },
            &mut want,
            pixels,
            7,
            c,
        );
        assert_eq!(got, want, "NchwRows as A");

        // NchwCols as A ([c, pixels] · [pixels, 7]).
        let mut got = vec![0.0f32; c * 7];
        let mut want = vec![0.0f32; c * 7];
        gemm(
            &MatSrc::NchwCols { data: &map, c, hw },
            &MatSrc::RowMajor {
                data: &other,
                stride: 7,
            },
            &mut got,
            c,
            7,
            pixels,
        );
        gemm(
            &MatSrc::ColMajor {
                data: &rows,
                stride: c,
            },
            &MatSrc::RowMajor {
                data: &other,
                stride: 7,
            },
            &mut want,
            c,
            7,
            pixels,
        );
        assert_eq!(got, want, "NchwCols as A");

        // NchwRows as B ([7, pixels] · [pixels, c]).
        let mut got = vec![0.0f32; 7 * c];
        let mut want = vec![0.0f32; 7 * c];
        gemm(
            &MatSrc::ColMajor {
                data: &other,
                stride: 7,
            },
            &MatSrc::NchwRows { data: &map, c, hw },
            &mut got,
            7,
            c,
            pixels,
        );
        gemm(
            &MatSrc::ColMajor {
                data: &other,
                stride: 7,
            },
            &MatSrc::RowMajor {
                data: &rows,
                stride: c,
            },
            &mut want,
            7,
            c,
            pixels,
        );
        assert_eq!(got, want, "NchwRows as B");

        // NchwCols as B ([7, c] · [c, pixels]).
        let a7: Vec<f32> = other[..7 * c].to_vec();
        let mut got = vec![0.0f32; 7 * pixels];
        let mut want = vec![0.0f32; 7 * pixels];
        gemm(
            &MatSrc::RowMajor {
                data: &a7,
                stride: c,
            },
            &MatSrc::NchwCols { data: &map, c, hw },
            &mut got,
            7,
            pixels,
            c,
        );
        gemm(
            &MatSrc::RowMajor {
                data: &a7,
                stride: c,
            },
            &MatSrc::ColMajor {
                data: &rows,
                stride: c,
            },
            &mut want,
            7,
            pixels,
            c,
        );
        assert_eq!(got, want, "NchwCols as B");
    }

    #[test]
    fn zero_operands_propagate_nan() {
        // The old kernels skipped a==0.0, silently dropping NaN/Inf in B.
        let a = vec![0.0f32, 0.0];
        let b = vec![f32::NAN, 1.0];
        let mut c = vec![0.0f32; 1];
        gemm(
            &MatSrc::RowMajor {
                data: &a,
                stride: 2,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 1,
            },
            &mut c,
            1,
            1,
            2,
        );
        assert!(c[0].is_nan(), "0·NaN must propagate, got {}", c[0]);
    }

    #[test]
    fn overwrites_existing_output() {
        let a = vec![1.0f32];
        let b = vec![2.0f32];
        let mut c = vec![5.0f32];
        gemm(
            &MatSrc::RowMajor {
                data: &a,
                stride: 1,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 1,
            },
            &mut c,
            1,
            1,
            1,
        );
        assert_eq!(c[0], 2.0, "gemm overwrites stale output contents");
    }

    #[test]
    #[should_panic(expected = "A operand too small")]
    fn undersized_operand_panics_on_the_calling_thread() {
        // Validated before any worker spawns: a panic inside a worker
        // would strand its siblings at the shared-panel barrier (hang,
        // not panic).
        let a = vec![0.0f32; 10]; // needs 200·150
        let b = vec![0.0f32; 150 * 8];
        let mut c = vec![0.0f32; 200 * 8];
        gemm_with_threads(
            &MatSrc::RowMajor {
                data: &a,
                stride: 150,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: 8,
            },
            &mut c,
            200,
            8,
            150,
            4,
        );
    }

    #[test]
    fn every_registered_kernel_divides_the_blocking_grid() {
        // The determinism argument needs packed-strip boundaries on one
        // global grid: MC and NC must be multiples of every kernel's tile.
        // A future kernel that breaks this would otherwise only trip a
        // debug_assert (absent in release builds).
        for kern in kernel::available() {
            assert_eq!(MC % kern.mr, 0, "{}: MC % mr != 0", kern.name);
            assert_eq!(NC % kern.nr, 0, "{}: NC % nr != 0", kern.name);
        }
    }

    #[test]
    fn bf16_gemm_is_exact_on_bf16_representable_data() {
        // seq() yields integers in [-9, 9] — exactly representable in
        // bf16, so encoding is lossless and the bf16 GEMM must reproduce
        // the f32 GEMM bit-for-bit (the kernels accumulate in f32 either
        // way). Pins that reduced precision costs nothing when the data
        // already fits the format.
        let (m, n, k) = (70, 40, 150);
        let a = seq(m * k, 21);
        let b = seq(k * n, 22);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        for kern in kernel::available() {
            let mut c32 = vec![0.0f32; m * n];
            let mut c16 = vec![0.0f32; m * n];
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut c32,
                m,
                n,
                k,
                1,
                kern,
                &Epilogue::None,
                Precision::F32,
            );
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut c16,
                m,
                n,
                k,
                1,
                kern,
                &Epilogue::None,
                Precision::Bf16,
            );
            assert_eq!(c32, c16, "{}", kern.name);
        }
    }

    #[test]
    fn bf16_gemm_matches_f32_within_encoding_tolerance() {
        // Non-representable data: the only error source is one RNE
        // encoding per operand element (relative 2^-8), so the result must
        // sit within a small multiple of that around the f32 answer.
        let (m, n, k) = (65, 33, 130);
        let a: Vec<f32> = (0..m * k)
            .map(|v| ((v * 13) % 19) as f32 * 0.37 - 3.3)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|v| ((v * 7) % 23) as f32 * 0.29 - 3.1)
            .collect();
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        let mut c32 = vec![0.0f32; m * n];
        let mut c16 = vec![0.0f32; m * n];
        let kern = kernel::selected();
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c32,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::F32,
        );
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c16,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::Bf16,
        );
        // Row i of C is a k-term dot product of values ≤ ~4: |error| ≲
        // 2·2^-8 · Σ|aᵢ||bⱼ| ≤ 2^-7 · k · 16. Use half that as the bound —
        // errors are signed and cancel — with slack for edge cases.
        let budget = (k as f32) * 16.0 / 256.0;
        for (i, (x, y)) in c16.iter().zip(&c32).enumerate() {
            assert!(
                (x - y).abs() <= budget,
                "idx {i}: bf16 {x} vs f32 {y} (budget {budget})"
            );
        }
    }

    #[test]
    fn bf16_thread_counts_are_bitwise_identical() {
        // The shared-B-panel protocol must preserve per-precision bitwise
        // thread invariance: packed bf16 bytes are a pure function of
        // (B, jc, pc), regardless of which worker encodes them.
        let (m, n, k) = (200, 300, 150);
        let a = seq(m * k, 31);
        let b = seq(k * n, 32);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        let kern = kernel::selected();
        let mut c1 = vec![0.0f32; m * n];
        gemm_fused_prec(
            &asrc,
            &bsrc,
            &mut c1,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::None,
            Precision::Bf16,
        );
        for threads in [2usize, 3, 5, 8] {
            let mut cn = vec![0.0f32; m * n];
            gemm_fused_prec(
                &asrc,
                &bsrc,
                &mut cn,
                m,
                n,
                k,
                threads,
                kern,
                &Epilogue::None,
                Precision::Bf16,
            );
            assert_eq!(c1, cn, "bf16 with {threads} threads");
        }
    }

    #[test]
    fn every_kernel_and_thread_count_agrees_bitwise_per_kernel() {
        // For each registered kernel: N threads must reproduce 1 thread
        // bit-for-bit (the shared B panel must not change results).
        let (m, n, k) = (200, 300, 150);
        let a = seq(m * k, 11);
        let b = seq(k * n, 12);
        let asrc = MatSrc::RowMajor {
            data: &a,
            stride: k,
        };
        let bsrc = MatSrc::RowMajor {
            data: &b,
            stride: n,
        };
        for kern in kernel::available() {
            let mut c1 = vec![0.0f32; m * n];
            gemm_with_kernel(&asrc, &bsrc, &mut c1, m, n, k, 1, kern);
            for threads in [2usize, 3, 5, 8] {
                let mut cn = vec![0.0f32; m * n];
                gemm_with_kernel(&asrc, &bsrc, &mut cn, m, n, k, threads, kern);
                assert_eq!(c1, cn, "{} with {threads} threads", kern.name);
            }
        }
    }
}
