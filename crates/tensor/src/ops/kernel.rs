//! Register micro-kernels for the blocked GEMM core and their runtime
//! dispatch.
//!
//! The innermost unit of the packed GEMM (see [`crate::ops::pack`]) is an
//! `mr × nr` register tile accumulated over a `kc`-deep panel. The seed
//! shipped a single autovectorized 8×8 tile whose size was pinned by LLVM's
//! 64-float scalar-replacement limit; this module adds hand-written
//! `core::arch` FMA kernels that sidestep that limit:
//!
//! | kernel | tile | ISA | accumulators |
//! |---|---|---|---|
//! | `avx512-fma-16x16` | 16×16 | AVX-512F | 16 zmm (one per row) |
//! | `avx2-fma-8x8` | 8×8 | AVX2+FMA | 8 ymm (one per row) |
//! | `scalar-8x8` | 8×8 | portable | 64-float stack tile (autovectorized) |
//!
//! Each kernel carries two tile bodies over the same registers: the f32
//! body (`run`) and a bf16 body (`run_bf16`) that widens bf16-packed
//! operands on load — `vpmovzxwd` + a 16-bit shift, which *is* the exact
//! bf16→f32 conversion — and accumulates in f32. The widening is plain bit
//! arithmetic on every ISA (no `vcvtne2ps2bf16` probing: a uniform
//! conversion rule keeps packed bytes identical across kernels, so the
//! per-kernel parity tests can compare encodings bitwise).
//!
//! The widest supported kernel is chosen **once per process** via
//! [`selected`], using `is_x86_feature_detected!` so a binary built for a
//! generic target still uses AVX-512 on capable hosts. The `MBS_KERNEL`
//! environment variable (`auto` | `avx512` | `avx2` | `scalar`) overrides
//! the choice for A/B testing and for forcing the portable path in parity
//! tests; requesting an ISA the CPU lacks falls back to the best available
//! kernel with a warning rather than faulting.
//!
//! # Contract
//!
//! A kernel reads `kc × mr` packed A (strip-major: `a[p·mr + i]`) and
//! `kc × nr` packed B (`b[p·nr + j]`), and **overwrites** `acc[i·nr + j]`
//! with `Σ_p a[p·mr+i] · b[p·nr+j]`. Accumulation over `p` is strictly
//! in-order within one kernel, so for a fixed kernel the blocked GEMM stays
//! bitwise thread-count-invariant; *different* kernels may round
//! differently (FMA fuses the multiply-add), which is why the dispatch is
//! per-process, never per-call.
//!
//! # Examples
//!
//! ```
//! use mbs_tensor::ops::kernel;
//!
//! let k = kernel::selected();
//! // One depth step: A strip = [1, 2, ...], B strip = all ones.
//! let a: Vec<f32> = (0..k.mr).map(|i| i as f32 + 1.0).collect();
//! let b = vec![1.0f32; k.nr];
//! let mut acc = vec![0.0f32; k.mr * k.nr];
//! k.run(1, &a, &b, &mut acc);
//! assert_eq!(acc[0], 1.0); // row 0 · col 0
//! assert_eq!(acc[k.nr], 2.0); // row 1 · col 0
//! ```

use std::sync::OnceLock;

/// Largest `mr` any registered kernel uses (sizes the caller's packing
/// strips and accumulator scratch).
pub const MAX_MR: usize = 16;
/// Largest `nr` any registered kernel uses.
pub const MAX_NR: usize = 16;

/// One register micro-kernel: an `mr × nr` tile accumulated over `kc`
/// packed depth steps. See the [module docs](self) for the data contract.
#[derive(Debug)]
pub struct MicroKernel {
    /// Stable identifier (recorded in `BENCH_tensor.json`).
    pub name: &'static str,
    /// Tile rows — the A packing strip width.
    pub mr: usize,
    /// Tile columns — the B packing strip width.
    pub nr: usize,
    /// The tile body. Safety: callable only when the ISA this kernel was
    /// registered for is present; [`available`] guarantees that.
    run: unsafe fn(kc: usize, a: *const f32, b: *const f32, acc: *mut f32),
    /// The tile body for bf16-packed operands (same ISA as `run`): widening
    /// loads (`bf16 → f32` is a 16-bit shift), f32 FMA accumulate. See
    /// [`MicroKernel::run_bf16`].
    run_bf16: unsafe fn(kc: usize, a: *const u16, b: *const u16, acc: *mut f32),
    /// Fused C write-back for one register tile (same ISA as `run`); see
    /// [`MicroKernel::store_tile`].
    store: StoreFn,
}

/// A fused tile write-back body: `(acc, dst, stride, i_hi, j_hi, bias,
/// bias_rows, add, relu, bits)`, as [`MicroKernel::store_tile`] documents.
type StoreFn = unsafe fn(
    acc: *const f32,
    dst: *mut f32,
    stride: usize,
    i_hi: usize,
    j_hi: usize,
    bias: *const f32,
    bias_rows: bool,
    add: bool,
    relu: bool,
    bits: *mut u32,
);

impl MicroKernel {
    /// Runs the tile: `acc[i·nr + j] = Σ_p a[p·mr+i] · b[p·nr+j]`,
    /// overwriting `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `b`, or `acc` is shorter than `kc·mr`, `kc·nr`, or
    /// `mr·nr` respectively.
    #[inline]
    pub fn run(&self, kc: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
        assert!(a.len() >= kc * self.mr, "packed A strip too short");
        assert!(b.len() >= kc * self.nr, "packed B strip too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        // SAFETY: bounds asserted above; the ISA requirement is upheld by
        // construction — kernels only enter `available()` after their
        // target feature is detected on this CPU.
        unsafe { (self.run)(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) }
    }

    /// [`MicroKernel::run`] for bf16-packed operand strips: each element is
    /// widened to f32 (exact — bf16 is the top half of an f32) and the tile
    /// accumulates in f32, in the same strictly-in-order reduction as the
    /// f32 body. The result therefore equals running the f32 kernel on the
    /// widened operands bit-for-bit, which is what the parity tests pin —
    /// reduced precision lives entirely in the *encoding* done at packing
    /// time, never in the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `b`, or `acc` is shorter than `kc·mr`, `kc·nr`, or
    /// `mr·nr` respectively.
    #[inline]
    pub fn run_bf16(&self, kc: usize, a: &[u16], b: &[u16], acc: &mut [f32]) {
        assert!(a.len() >= kc * self.mr, "packed A strip too short");
        assert!(b.len() >= kc * self.nr, "packed B strip too short");
        assert!(acc.len() >= self.mr * self.nr, "accumulator too short");
        // SAFETY: as in `run`.
        unsafe { (self.run_bf16)(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) }
    }

    /// Fused write-back of one register tile — the epilogue unit of the
    /// blocked GEMM. For each row `i < i_hi` and column `j < j_hi`:
    ///
    /// ```text
    /// v = (if add { dst[i·stride + j] + acc[i·nr + j] } else { acc[i·nr + j] }) (+ bias[j])
    /// dst[i·stride + j] = if relu { if v > 0 { v } else { 0 } } else { v }
    /// bits[i] bit j     = (v > 0)            // when relu; 0 otherwise
    /// ```
    ///
    /// With `bias_rows` the bias is one value per tile *row* (`+ bias[i]`,
    /// broadcast across the row) — the conv forward, whose C rows are
    /// output channels.
    ///
    /// One indirect call covers the whole tile, so the bias vector and the
    /// edge-lane mask are loaded once and held in registers across up to
    /// `mr` rows. On AVX the sign bits come straight from the vector
    /// compare — the 1-bit mask MBS stores for back propagation is emitted
    /// by the store itself, not by a later pass. The arithmetic matches
    /// the unfused sequence (accumulate, then `+= bias[j]`, then the
    /// `v > 0` clamp) operation-for-operation, so fused results are
    /// bitwise identical to GEMM-then-bias-then-ReLU.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds `mr × nr`, `acc` is shorter than
    /// `i_hi·nr`, `dst` cannot hold the strided tile, or `bias` is shorter
    /// than `j_hi` (`i_hi` with `bias_rows`).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn store_tile(
        &self,
        acc: &[f32],
        dst: &mut [f32],
        stride: usize,
        i_hi: usize,
        j_hi: usize,
        bias: Option<&[f32]>,
        bias_rows: bool,
        add: bool,
        relu: bool,
        bits: &mut [u32; MAX_MR],
    ) {
        if i_hi == 0 || j_hi == 0 {
            return;
        }
        assert!(i_hi <= self.mr && j_hi <= self.nr, "tile exceeds mr x nr");
        assert!(acc.len() >= i_hi * self.nr, "accumulator tile too short");
        assert!(
            dst.len() >= (i_hi - 1) * stride + j_hi,
            "destination tile too short"
        );
        let bias = match bias {
            Some(b) => {
                let need = if bias_rows { i_hi } else { j_hi };
                assert!(b.len() >= need, "bias too short for the tile");
                b.as_ptr()
            }
            None => std::ptr::null(),
        };
        // SAFETY: bounds asserted above; ISA presence as in `run`.
        unsafe {
            (self.store)(
                acc.as_ptr(),
                dst.as_mut_ptr(),
                stride,
                i_hi,
                j_hi,
                bias,
                bias_rows,
                add,
                relu,
                bits.as_mut_ptr(),
            )
        }
    }
}

/// The portable autovectorized 8×8 tile (the seed's micro-kernel). LLVM
/// promotes the 64-float stack tile to vector registers on AVX2/AVX-512
/// targets; on anything else it is still a correct dense loop nest.
pub static SCALAR_8X8: MicroKernel = MicroKernel {
    name: "scalar-8x8",
    mr: 8,
    nr: 8,
    run: scalar_8x8,
    run_bf16: scalar_8x8_bf16,
    store: store_tile_scalar,
};

/// Hand-written AVX2+FMA 8×8 tile: 8 ymm accumulators, one `vbroadcastss`
/// + `vfmadd` per row per depth step.
#[cfg(target_arch = "x86_64")]
pub static AVX2_8X8: MicroKernel = MicroKernel {
    name: "avx2-fma-8x8",
    mr: 8,
    nr: 8,
    run: avx2_8x8,
    run_bf16: avx2_8x8_bf16,
    store: store_tile_avx2,
};

/// Hand-written AVX-512F 16×16 tile: 16 zmm accumulators (4× the FLOPs of
/// the 8×8 tile per B-row load), beyond what scalar replacement allows the
/// autovectorizer.
#[cfg(target_arch = "x86_64")]
pub static AVX512_16X16: MicroKernel = MicroKernel {
    name: "avx512-fma-16x16",
    mr: 16,
    nr: 16,
    run: avx512_16x16,
    run_bf16: avx512_16x16_bf16,
    store: store_tile_avx512,
};

/// Every kernel usable on this CPU, widest first. The scalar kernel is
/// always present and always last.
pub fn available() -> Vec<&'static MicroKernel> {
    let mut kernels: Vec<&'static MicroKernel> = Vec::with_capacity(3);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(&AVX512_16X16);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            kernels.push(&AVX2_8X8);
        }
    }
    kernels.push(&SCALAR_8X8);
    kernels
}

/// The kernel every GEMM in this process uses: the `MBS_KERNEL` override
/// if set and satisfiable, else the widest detected kernel. Resolved once;
/// subsequent calls are a static load.
pub fn selected() -> &'static MicroKernel {
    static SELECTED: OnceLock<&'static MicroKernel> = OnceLock::new();
    SELECTED.get_or_init(|| select(std::env::var("MBS_KERNEL").ok().as_deref()))
}

/// Resolves an `MBS_KERNEL` value against the detected kernel set
/// (separated from [`selected`] so tests can exercise the parsing without
/// touching process-global state).
pub(crate) fn select(request: Option<&str>) -> &'static MicroKernel {
    let kernels = available();
    let fallback = kernels[0];
    let Some(req) = request else {
        return fallback;
    };
    let req = req.trim();
    if req.is_empty() || req.eq_ignore_ascii_case("auto") {
        return fallback;
    }
    let wanted = kernels.iter().find(|k| {
        k.name.eq_ignore_ascii_case(req)
            || k.name
                .split('-')
                .next()
                .is_some_and(|isa| isa.eq_ignore_ascii_case(req))
    });
    match wanted {
        Some(k) => k,
        None => {
            eprintln!(
                "warning: MBS_KERNEL={req} is not available on this CPU \
                 (have: {}); using {}",
                kernels
                    .iter()
                    .map(|k| k.name)
                    .collect::<Vec<_>>()
                    .join(", "),
                fallback.name
            );
            fallback
        }
    }
}

/// The seed's 8×8 tile, verbatim: a `[[f32; 8]; 8]` accumulator small
/// enough for LLVM scalar replacement, written back at the end.
///
/// # Safety
///
/// `a` must hold `kc·8` floats, `b` `kc·8`, `acc` 64 (asserted by
/// [`MicroKernel::run`]); no ISA requirement.
unsafe fn scalar_8x8(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    let a = std::slice::from_raw_parts(a, kc * 8);
    let b = std::slice::from_raw_parts(b, kc * 8);
    let mut tile = [[0.0f32; 8]; 8];
    for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for (ai, row) in av.iter().zip(tile.iter_mut()) {
            for (slot, bj) in row.iter_mut().zip(bv) {
                *slot += ai * bj;
            }
        }
    }
    let out = std::slice::from_raw_parts_mut(acc, 64);
    for (dst, src) in out.chunks_exact_mut(8).zip(tile.iter()) {
        dst.copy_from_slice(src);
    }
}

/// [`scalar_8x8`] over bf16-packed strips: every element is widened to f32
/// up front (a 16-bit shift — exact) and the accumulation is the identical
/// f32 loop nest, so results match the f32 kernel on widened operands
/// bit-for-bit.
///
/// # Safety
///
/// `a` must hold `kc·8` bf16 codes, `b` `kc·8`, `acc` 64 floats (asserted
/// by [`MicroKernel::run_bf16`]); no ISA requirement.
unsafe fn scalar_8x8_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    let a = std::slice::from_raw_parts(a, kc * 8);
    let b = std::slice::from_raw_parts(b, kc * 8);
    let mut tile = [[0.0f32; 8]; 8];
    for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let mut bw = [0.0f32; 8];
        for (slot, &code) in bw.iter_mut().zip(bv) {
            *slot = crate::prec::bf16_to_f32(code);
        }
        for (&ai, row) in av.iter().zip(tile.iter_mut()) {
            let aw = crate::prec::bf16_to_f32(ai);
            for (slot, bj) in row.iter_mut().zip(&bw) {
                *slot += aw * bj;
            }
        }
    }
    let out = std::slice::from_raw_parts_mut(acc, 64);
    for (dst, src) in out.chunks_exact_mut(8).zip(tile.iter()) {
        dst.copy_from_slice(src);
    }
}

/// 8×8 AVX2 FMA tile: one ymm accumulator per row; each depth step is one
/// B-row load plus eight broadcast-FMAs.
///
/// # Safety
///
/// Requires AVX2 and FMA; operand extents as in [`scalar_8x8`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_8x8(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use core::arch::x86_64::*;
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut c4 = _mm256_setzero_ps();
    let mut c5 = _mm256_setzero_ps();
    let mut c6 = _mm256_setzero_ps();
    let mut c7 = _mm256_setzero_ps();
    for p in 0..kc {
        let bv = _mm256_loadu_ps(b.add(p * 8));
        let ap = a.add(p * 8);
        c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap), bv, c0);
        c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(1)), bv, c1);
        c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(2)), bv, c2);
        c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(3)), bv, c3);
        c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(4)), bv, c4);
        c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(5)), bv, c5);
        c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(6)), bv, c6);
        c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(7)), bv, c7);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
    _mm256_storeu_ps(acc.add(32), c4);
    _mm256_storeu_ps(acc.add(40), c5);
    _mm256_storeu_ps(acc.add(48), c6);
    _mm256_storeu_ps(acc.add(56), c7);
}

/// [`avx2_8x8`] over bf16-packed strips. The B row widens with one
/// `vpmovzxwd` + 16-bit shift (bf16 is literally the top half of an f32,
/// so the shift *is* the conversion — exact); A elements widen scalar-wise
/// into the broadcast. The FMA sequence is identical to the f32 body, so
/// results match the f32 kernel on widened operands bit-for-bit.
///
/// # Safety
///
/// Requires AVX2 and FMA; operand extents as in [`scalar_8x8_bf16`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_8x8_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    use core::arch::x86_64::*;
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen8(p: *const u16) -> __m256 {
        let raw = _mm_loadu_si128(p.cast::<__m128i>());
        _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw)))
    }
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut c4 = _mm256_setzero_ps();
    let mut c5 = _mm256_setzero_ps();
    let mut c6 = _mm256_setzero_ps();
    let mut c7 = _mm256_setzero_ps();
    for p in 0..kc {
        let bv = widen8(b.add(p * 8));
        let ap = a.add(p * 8);
        macro_rules! fma_row {
            ($c:ident, $i:literal) => {
                $c = _mm256_fmadd_ps(
                    _mm256_set1_ps(crate::prec::bf16_to_f32(*ap.add($i))),
                    bv,
                    $c,
                );
            };
        }
        fma_row!(c0, 0);
        fma_row!(c1, 1);
        fma_row!(c2, 2);
        fma_row!(c3, 3);
        fma_row!(c4, 4);
        fma_row!(c5, 5);
        fma_row!(c6, 6);
        fma_row!(c7, 7);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
    _mm256_storeu_ps(acc.add(32), c4);
    _mm256_storeu_ps(acc.add(40), c5);
    _mm256_storeu_ps(acc.add(48), c6);
    _mm256_storeu_ps(acc.add(56), c7);
}

/// 16×16 AVX-512 FMA tile: 16 zmm accumulators; each depth step is one
/// 16-float B-row load plus sixteen broadcast-FMAs (the broadcasts fold
/// into the FMAs' embedded-broadcast memory operands).
///
/// # Safety
///
/// Requires AVX-512F; `a` must hold `kc·16` floats, `b` `kc·16`, `acc`
/// 256.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_16x16(kc: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    use core::arch::x86_64::*;
    macro_rules! rows {
        ($mac:ident) => {
            $mac!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
    }
    let mut cc = [_mm512_setzero_ps(); 16];
    for p in 0..kc {
        let bv = _mm512_loadu_ps(b.add(p * 16));
        let ap = a.add(p * 16);
        macro_rules! fma_rows {
            ($($i:literal)+) => {
                $(cc[$i] = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add($i)), bv, cc[$i]);)+
            };
        }
        rows!(fma_rows);
    }
    macro_rules! store_rows {
        ($($i:literal)+) => {
            $(_mm512_storeu_ps(acc.add($i * 16), cc[$i]);)+
        };
    }
    rows!(store_rows);
}

/// [`avx512_16x16`] over bf16-packed strips: the 16-code B row widens with
/// one `vpmovzxwd` (zmm) + 16-bit shift, A elements widen scalar-wise into
/// the broadcast. FMA sequence identical to the f32 body — results match
/// the f32 kernel on widened operands bit-for-bit.
///
/// # Safety
///
/// Requires AVX-512F (the `vpmovzxwd ymm→zmm` widening is AVX-512F); `a`
/// must hold `kc·16` bf16 codes, `b` `kc·16`, `acc` 256 floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_16x16_bf16(kc: usize, a: *const u16, b: *const u16, acc: *mut f32) {
    use core::arch::x86_64::*;
    macro_rules! rows {
        ($mac:ident) => {
            $mac!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
    }
    let mut cc = [_mm512_setzero_ps(); 16];
    for p in 0..kc {
        let raw = _mm256_loadu_si256(b.add(p * 16).cast::<__m256i>());
        let bv = _mm512_castsi512_ps(_mm512_slli_epi32::<16>(_mm512_cvtepu16_epi32(raw)));
        let ap = a.add(p * 16);
        macro_rules! fma_rows {
            ($($i:literal)+) => {
                $(cc[$i] = _mm512_fmadd_ps(
                    _mm512_set1_ps(crate::prec::bf16_to_f32(*ap.add($i))),
                    bv,
                    cc[$i],
                );)+
            };
        }
        rows!(fma_rows);
    }
    macro_rules! store_rows {
        ($($i:literal)+) => {
            $(_mm512_storeu_ps(acc.add($i * 16), cc[$i]);)+
        };
    }
    rows!(store_rows);
}

/// Portable fused write-back tile (pairs with [`scalar_8x8`], usable by
/// any tile shape).
///
/// # Safety
///
/// Extents as asserted by [`MicroKernel::store_tile`] for an 8-column
/// tile; no ISA requirement. `nr` is fixed at 8 (the scalar kernel's
/// width).
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile_scalar(
    acc: *const f32,
    dst: *mut f32,
    stride: usize,
    i_hi: usize,
    j_hi: usize,
    bias: *const f32,
    bias_rows: bool,
    add: bool,
    relu: bool,
    bits: *mut u32,
) {
    store_tile_generic(
        acc, 8, dst, stride, i_hi, j_hi, bias, bias_rows, add, relu, bits,
    )
}

/// The portable tile epilogue for an arbitrary accumulator row stride
/// (shared by the scalar kernel and the tests' reference).
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile_generic(
    acc: *const f32,
    nr: usize,
    dst: *mut f32,
    stride: usize,
    i_hi: usize,
    j_hi: usize,
    bias: *const f32,
    bias_rows: bool,
    add: bool,
    relu: bool,
    bits: *mut u32,
) {
    for i in 0..i_hi {
        let acc_row = acc.add(i * nr);
        let dst_row = dst.add(i * stride);
        let mut row_bits = 0u32;
        for j in 0..j_hi {
            let mut v = if add {
                *dst_row.add(j) + *acc_row.add(j)
            } else {
                *acc_row.add(j)
            };
            if !bias.is_null() {
                v += *bias.add(if bias_rows { i } else { j });
            }
            if relu {
                if v > 0.0 {
                    row_bits |= 1 << j;
                } else {
                    v = 0.0;
                }
            }
            *dst_row.add(j) = v;
        }
        *bits.add(i) = row_bits;
    }
}

/// AVX2 fused write-back tile: the edge-lane mask and the bias vector are
/// materialized once and held across all rows; per row the sign bits fall
/// out of `vcmpps` + `vmovmskps` and the clamp is an AND with the compare
/// mask (so lanes that fail `v > 0` store `+0.0`, exactly like the scalar
/// path).
///
/// # Safety
///
/// Requires AVX2; extents as asserted by [`MicroKernel::store_tile`] for
/// an 8×8 tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile_avx2(
    acc: *const f32,
    dst: *mut f32,
    stride: usize,
    i_hi: usize,
    j_hi: usize,
    bias: *const f32,
    bias_rows: bool,
    add: bool,
    relu: bool,
    bits: *mut u32,
) {
    use core::arch::x86_64::*;
    debug_assert!(i_hi <= 8 && j_hi <= 8);
    // `+ 0.0` is not a bitwise no-op (-0.0 + 0.0 == +0.0), so a null bias
    // must skip the add entirely to stay bit-identical to the plain path.
    let with_bias = !bias.is_null();
    let zero = _mm256_setzero_ps();
    if j_hi == 8 {
        // Full-width tile: plain loads/stores (masked memory ops cost
        // extra µops even with an all-ones mask).
        let bv = if with_bias && !bias_rows {
            _mm256_loadu_ps(bias)
        } else {
            zero
        };
        for i in 0..i_hi {
            let mut v = _mm256_loadu_ps(acc.add(i * 8));
            let dst_row = dst.add(i * stride);
            if add {
                v = _mm256_add_ps(_mm256_loadu_ps(dst_row), v);
            }
            if with_bias {
                let b = if bias_rows {
                    _mm256_set1_ps(*bias.add(i))
                } else {
                    bv
                };
                v = _mm256_add_ps(v, b);
            }
            let mut row_bits = 0u32;
            if relu {
                let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                row_bits = _mm256_movemask_ps(pos) as u32;
                v = _mm256_and_ps(v, pos);
            }
            _mm256_storeu_ps(dst_row, v);
            *bits.add(i) = row_bits;
        }
        return;
    }
    let lanes = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(j_hi as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let bv = if with_bias && !bias_rows {
        _mm256_maskload_ps(bias, lanes)
    } else {
        zero
    };
    let edge = (1u32 << j_hi) - 1;
    for i in 0..i_hi {
        // Full-width acc load: the packed accumulator always holds the
        // whole 8-float row; garbage lanes are masked off at the store.
        let mut v = _mm256_loadu_ps(acc.add(i * 8));
        let dst_row = dst.add(i * stride);
        if add {
            v = _mm256_add_ps(_mm256_maskload_ps(dst_row, lanes), v);
        }
        if with_bias {
            let b = if bias_rows {
                _mm256_set1_ps(*bias.add(i))
            } else {
                bv
            };
            v = _mm256_add_ps(v, b);
        }
        let mut row_bits = 0u32;
        if relu {
            let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            row_bits = _mm256_movemask_ps(pos) as u32 & edge;
            v = _mm256_and_ps(v, pos);
        }
        _mm256_maskstore_ps(dst_row, lanes, v);
        *bits.add(i) = row_bits;
    }
}

/// AVX-512 fused write-back tile: the edge clamp is a `__mmask16` computed
/// once, the bias vector lives in a zmm register across rows, and the ReLU
/// sign bits *are* the `vcmpps` k-register — the 1-bit MBS mask costs one
/// instruction per 16 outputs at the store.
///
/// # Safety
///
/// Requires AVX-512F; extents as asserted by [`MicroKernel::store_tile`]
/// for a 16×16 tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn store_tile_avx512(
    acc: *const f32,
    dst: *mut f32,
    stride: usize,
    i_hi: usize,
    j_hi: usize,
    bias: *const f32,
    bias_rows: bool,
    add: bool,
    relu: bool,
    bits: *mut u32,
) {
    use core::arch::x86_64::*;
    debug_assert!(i_hi <= 16 && j_hi <= 16);
    // See the AVX2 tile: a null bias must skip the add to preserve -0.0.
    let with_bias = !bias.is_null();
    let zero = _mm512_setzero_ps();
    if j_hi == 16 {
        // Full-width tile (the common case on interior panels): plain
        // loads/stores — masked memory ops cost extra µops even with an
        // all-ones mask.
        let bv = if with_bias && !bias_rows {
            _mm512_loadu_ps(bias)
        } else {
            zero
        };
        for i in 0..i_hi {
            let mut v = _mm512_loadu_ps(acc.add(i * 16));
            let dst_row = dst.add(i * stride);
            if add {
                v = _mm512_add_ps(_mm512_loadu_ps(dst_row), v);
            }
            if with_bias {
                let b = if bias_rows {
                    _mm512_set1_ps(*bias.add(i))
                } else {
                    bv
                };
                v = _mm512_add_ps(v, b);
            }
            let mut row_bits = 0u32;
            if relu {
                let pos = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
                row_bits = u32::from(pos);
                v = _mm512_maskz_mov_ps(pos, v);
            }
            _mm512_storeu_ps(dst_row, v);
            *bits.add(i) = row_bits;
        }
        return;
    }
    let m: __mmask16 = ((1u32 << j_hi) - 1) as __mmask16;
    let bv = if with_bias && !bias_rows {
        _mm512_maskz_loadu_ps(m, bias)
    } else {
        zero
    };
    for i in 0..i_hi {
        let mut v = _mm512_loadu_ps(acc.add(i * 16));
        let dst_row = dst.add(i * stride);
        if add {
            v = _mm512_add_ps(_mm512_maskz_loadu_ps(m, dst_row), v);
        }
        if with_bias {
            let b = if bias_rows {
                _mm512_set1_ps(*bias.add(i))
            } else {
                bv
            };
            v = _mm512_add_ps(v, b);
        }
        let mut row_bits = 0u32;
        if relu {
            let pos = _mm512_mask_cmp_ps_mask::<_CMP_GT_OQ>(m, v, zero);
            row_bits = u32::from(pos);
            v = _mm512_maskz_mov_ps(pos, v);
        }
        _mm512_mask_storeu_ps(dst_row, m, v);
        *bits.add(i) = row_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference dot-product tile for arbitrary (mr, nr).
    fn reference(kc: usize, mr: usize, nr: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut acc = vec![0.0f32; mr * nr];
        for p in 0..kc {
            for i in 0..mr {
                for j in 0..nr {
                    acc[i * nr + j] += a[p * mr + i] * b[p * nr + j];
                }
            }
        }
        acc
    }

    #[test]
    fn every_available_kernel_matches_reference_tile() {
        for kern in available() {
            for kc in [0usize, 1, 3, 37] {
                let a: Vec<f32> = (0..kc * kern.mr)
                    .map(|v| ((v * 7) % 23) as f32 / 4.0 - 2.5)
                    .collect();
                let b: Vec<f32> = (0..kc * kern.nr)
                    .map(|v| ((v * 11) % 19) as f32 / 4.0 - 2.0)
                    .collect();
                let mut acc = vec![f32::NAN; kern.mr * kern.nr]; // must overwrite
                kern.run(kc, &a, &b, &mut acc);
                let want = reference(kc, kern.mr, kern.nr, &a, &b);
                for (idx, (x, y)) in acc.iter().zip(&want).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                        "{} kc={kc} idx={idx}: {x} vs {y}",
                        kern.name
                    );
                }
            }
        }
    }

    #[test]
    fn bf16_tile_equals_f32_tile_on_widened_operands() {
        // The bf16 body must be the f32 reduction on exactly-widened
        // operands — bitwise, per kernel. Reduced precision lives in the
        // encoding (done at pack time), never in the kernel arithmetic.
        use crate::prec::{bf16_to_f32, f32_to_bf16};
        for kern in available() {
            for kc in [0usize, 1, 5, 33] {
                let a16: Vec<u16> = (0..kc * kern.mr)
                    .map(|v| f32_to_bf16(((v * 7) % 23) as f32 * 0.37 - 2.5))
                    .collect();
                let b16: Vec<u16> = (0..kc * kern.nr)
                    .map(|v| f32_to_bf16(((v * 11) % 19) as f32 * 0.29 - 2.0))
                    .collect();
                let a32: Vec<f32> = a16.iter().map(|&c| bf16_to_f32(c)).collect();
                let b32: Vec<f32> = b16.iter().map(|&c| bf16_to_f32(c)).collect();
                let mut got = vec![f32::NAN; kern.mr * kern.nr];
                let mut want = vec![f32::NAN; kern.mr * kern.nr];
                kern.run_bf16(kc, &a16, &b16, &mut got);
                kern.run(kc, &a32, &b32, &mut want);
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "{} kc={kc}", kern.name);
            }
        }
    }

    #[test]
    fn scalar_is_always_available_and_last() {
        let kernels = available();
        assert_eq!(kernels.last().unwrap().name, "scalar-8x8");
    }

    #[test]
    fn select_honors_requests_and_falls_back() {
        assert_eq!(select(None).name, available()[0].name);
        assert_eq!(select(Some("auto")).name, available()[0].name);
        assert_eq!(select(Some("scalar")).name, "scalar-8x8");
        assert_eq!(select(Some("SCALAR-8X8")).name, "scalar-8x8");
        // Unknown names warn and fall back to the widest kernel.
        assert_eq!(select(Some("neon")).name, available()[0].name);
    }

    #[test]
    fn store_tile_matches_scalar_reference_for_every_kernel() {
        // Every (add, bias, relu, i_hi, j_hi) combination must agree
        // bitwise with the portable epilogue — including NaN sums (v > 0
        // is false for NaN, so fused ReLU clamps NaN to 0 exactly like
        // `ops::relu`) and untouched elements outside the tile.
        for kern in available() {
            let stride = kern.nr + 3; // strided C, like a real edge panel
            for i_hi in [0usize, 1, kern.mr - 1, kern.mr] {
                for j_hi in [0usize, 1, 3, kern.nr - 1, kern.nr] {
                    for add in [false, true] {
                        for (with_bias, bias_rows) in [(false, false), (true, false), (true, true)]
                        {
                            for relu in [false, true] {
                                let mut acc: Vec<f32> = (0..kern.mr * kern.nr)
                                    .map(|j| ((j * 13) % 7) as f32 - 3.0)
                                    .collect();
                                if !acc.is_empty() {
                                    let mid = acc.len() / 2;
                                    acc[0] = f32::NAN;
                                    acc[mid] = -0.0;
                                }
                                let bias: Vec<f32> = (0..kern.mr.max(kern.nr))
                                    .map(|j| ((j * 5) % 3) as f32 - 1.0)
                                    .collect();
                                let init: Vec<f32> = (0..kern.mr * stride)
                                    .map(|j| j as f32 / 2.0 - 1.0)
                                    .collect();
                                let bias_ptr = if with_bias {
                                    bias.as_ptr()
                                } else {
                                    std::ptr::null()
                                };

                                let mut want = init.clone();
                                let mut want_bits = [0u32; MAX_MR];
                                unsafe {
                                    store_tile_generic(
                                        acc.as_ptr(),
                                        kern.nr,
                                        want.as_mut_ptr(),
                                        stride,
                                        i_hi,
                                        j_hi,
                                        bias_ptr,
                                        bias_rows,
                                        add,
                                        relu,
                                        want_bits.as_mut_ptr(),
                                    );
                                }
                                let mut got = init.clone();
                                let mut got_bits = [0u32; MAX_MR];
                                kern.store_tile(
                                    &acc,
                                    &mut got,
                                    stride,
                                    i_hi,
                                    j_hi,
                                    if with_bias { Some(&bias[..]) } else { None },
                                    bias_rows,
                                    add,
                                    relu,
                                    &mut got_bits,
                                );
                                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(
                                    gb, wb,
                                    "{} i_hi={i_hi} j_hi={j_hi} add={add} bias={with_bias} rows={bias_rows} relu={relu}",
                                    kern.name
                                );
                                assert_eq!(
                                    &got_bits[..i_hi],
                                    &want_bits[..i_hi],
                                    "{} mask bits",
                                    kern.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiles_fit_the_declared_maximums() {
        for kern in available() {
            assert!(kern.mr <= MAX_MR, "{}", kern.name);
            assert!(kern.nr <= MAX_NR, "{}", kern.name);
        }
    }
}
