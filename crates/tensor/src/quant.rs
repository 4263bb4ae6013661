//! Quantized i8×i8→i32 GEMM tier.
//!
//! # Quantization scheme
//!
//! - **Weights** (the rhs): per-tensor *symmetric* scale, zero-point 0:
//!   `q = round(w / s_B)` clamped to `[-127, 127]`, `s_B =
//!   max|w| / 127`. Quantized **on pack** into [`QuantizedRhs`]: the
//!   packed panels are built once and reused across every k-sweep and
//!   every subsequent matmul against the weight.
//! - **Activations** (the lhs): per-**row** symmetric scale, computed at
//!   matmul time. Per-row (not per-tensor) matters for serving: a row's
//!   scale depends only on that row, so a fused micro-batch row is
//!   bitwise identical to its solo forward no matter which requests
//!   were batched alongside — the same row-independence invariant the
//!   f32 kernels uphold.
//! - **Accumulation** is exact `i32`; the dequant epilogue computes
//!   `out[i][j] += (acc as f32) * (s_A[i] * s_B)`. Because the integer
//!   part is exact and the float epilogue is a fixed two-rounding
//!   expression, **every kernel tier produces bitwise-identical f32
//!   output** — the cross-tier parity the proptests assert.
//!
//! # Kernel tiers (dispatch order)
//!
//! 1. **AVX-512 VNNI** (`vpdpbusd`, full 512-bit zmm, 32-column
//!    panels): activations offset to u8 (`q + 128`); the epilogue
//!    subtracts `128 · colsum(B)` (precomputed at pack time) to undo
//!    the offset exactly.
//! 2. **AVX-VNNI** — the 256-bit variant via `_mm256_dpbusd_avx_epi32`
//!    for hybrid cores without AVX-512.
//! 3. **AVX2 `vpmaddwd`** — both sides widened to i16 at pack time;
//!    `madd` of i16 pairs is exact (no `vpmaddubsw` saturation hazard).
//! 4. **Scalar** — plain i32 loops over the row-major `i8` copy; always
//!    available, used when `EUGENE_SIMD` forces scalar and when a
//!    `QuantizedRhs` packed under one tier is used under another.
//!
//! i32 accumulation is overflow-safe for `k <= 65536`
//! (`k · 255 · 127 < 2^31`), asserted at matmul time.
//!
//! NaN activations quantize to 0 (saturating cast) and non-finite
//! values are ignored when choosing scales — quantization is a lossy
//! tier by contract; the analytic error bound in `kernel_properties`
//! only holds for finite inputs.

use crate::alloc::{is_line_aligned, is_panel_aligned, AlignedVec};
use crate::kernels::PARALLEL_MIN_FLOPS;
#[cfg(target_arch = "x86_64")]
use crate::simd::prefetch_ahead;
use crate::simd::SimdMode;

/// Columns per packed panel (two 8-lane i32 vectors wide) for the
/// 256-bit kernel tiers.
const NR: usize = 16;
/// Columns per packed panel for the 512-bit VNNI tier (two zmm wide).
const NR_W: usize = 32;
/// Rows per quantized micro-kernel invocation.
const MR: usize = 4;
/// i32 accumulation overflow bound: `k * 255 * 127 < 2^31`.
const MAX_K: usize = 65536;
/// How far ahead of the current k quad, in bytes, the VNNI tiles
/// software-prefetch their B panel — the i8 counterpart of the f32
/// tier's `PREFETCH_AHEAD_F32`, from the same recorded sweep.
const PREFETCH_AHEAD_I8: usize = 2048;

/// Which quantized kernel implementation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantTier {
    Scalar,
    MaddAvx2,
    VnniAvx,
    Vnni512,
}

fn detect_tier() -> QuantTier {
    match crate::simd::simd_mode() {
        // Forced-scalar and the portable-fused parity mode both pin the
        // quantized path to the scalar kernel (it IS the portable one —
        // all tiers are bitwise-identical anyway).
        SimdMode::ForceScalar | SimdMode::ForcePortable => QuantTier::Scalar,
        SimdMode::Auto | SimdMode::ForceSimd => detect_hw_tier(),
    }
}

fn detect_hw_tier() -> QuantTier {
    #[cfg(target_arch = "x86_64")]
    {
        static TIER: std::sync::OnceLock<QuantTier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| {
            if is_x86_feature_detected!("avx512vnni") {
                QuantTier::Vnni512
            } else if is_x86_feature_detected!("avxvnni") {
                QuantTier::VnniAvx
            } else if is_x86_feature_detected!("avx2") {
                QuantTier::MaddAvx2
            } else {
                QuantTier::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        QuantTier::Scalar
    }
}

/// Short name of the i8-kernel tier currently in effect, for benchmark
/// result metadata.
pub fn quant_tier_name() -> &'static str {
    match detect_tier() {
        QuantTier::Scalar => "scalar_i32",
        QuantTier::MaddAvx2 => "avx2_maddwd",
        QuantTier::VnniAvx => "avx_vnni",
        QuantTier::Vnni512 => "avx512_vnni",
    }
}

/// Symmetric quantization scale for a slice: `max|x| / 127`, with
/// non-finite values ignored and an all-zero (or empty) slice mapping
/// to scale 1.0 so division stays well-defined.
pub fn symmetric_scale(values: &[f32]) -> f32 {
    let max_abs = values.iter().fold(0.0f32, |m, &x| {
        let a = x.abs();
        if a.is_finite() {
            m.max(a)
        } else {
            m
        }
    });
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

#[inline]
fn quantize_one(x: f32, scale: f32) -> i8 {
    // `as` casts saturate and map NaN to 0, matching the documented
    // lossy contract; the explicit clamp keeps symmetric range [-127, 127].
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

/// Quantizes a slice symmetrically, returning the i8 values and the
/// scale (helper for `eugene-compress` reports and tests).
pub fn quantize_symmetric(values: &[f32]) -> (Vec<i8>, f32) {
    let scale = symmetric_scale(values);
    (
        values.iter().map(|&x| quantize_one(x, scale)).collect(),
        scale,
    )
}

/// A weight matrix quantized and packed for the i8 GEMM tier.
///
/// Holds the per-tensor scale, a row-major `i8` copy (the scalar
/// fallback and repack source), per-column sums (the u8-offset
/// compensation for the VNNI tiers), and the panel layout for the
/// kernel tier detected at pack time.
///
/// # Examples
///
/// ```
/// use eugene_tensor::{Matrix, QuantizedRhs};
///
/// let w = Matrix::from_vec(2, 3, vec![0.5, -1.0, 0.25, 1.0, 0.0, -0.5]);
/// let q = QuantizedRhs::pack(2, 3, w.as_slice());
/// assert_eq!(q.shape(), (2, 3));
/// let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let y = x.matmul_quantized(&q);
/// let exact = x.matmul(&w);
/// for (a, b) in y.as_slice().iter().zip(exact.as_slice()) {
///     assert!((a - b).abs() < 0.05);
/// }
/// ```
pub struct QuantizedRhs {
    k: usize,
    n: usize,
    scale: f32,
    /// Row-major `k × n` quantized weights — scalar-kernel layout.
    qdata: Vec<i8>,
    /// `sum_k qdata[k][j]` per column, over real k only.
    colsums: Vec<i32>,
    tier: QuantTier,
    /// VNNI panel bytes (i8 stored as raw u8), or empty.
    panels_u8: AlignedVec<u8>,
    /// `vpmaddwd` panel i16s, or empty.
    panels_i16: AlignedVec<i16>,
}

impl std::fmt::Debug for QuantizedRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuantizedRhs({}x{}, scale {:.3e}, {:?})",
            self.k, self.n, self.scale, self.tier
        )
    }
}

impl QuantizedRhs {
    /// Quantizes a row-major `k × n` weight slice with a per-tensor
    /// symmetric scale and packs panels for the current kernel tier.
    pub fn pack(k: usize, n: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), k * n, "weight slice must be k*n");
        let scale = symmetric_scale(data);
        let qdata: Vec<i8> = data.iter().map(|&x| quantize_one(x, scale)).collect();
        let mut colsums = vec![0i32; n];
        for kk in 0..k {
            for j in 0..n {
                colsums[j] += qdata[kk * n + j] as i32;
            }
        }
        let tier = detect_tier();
        let mut rhs = Self {
            k,
            n,
            scale,
            qdata,
            colsums,
            tier,
            panels_u8: AlignedVec::new(),
            panels_i16: AlignedVec::new(),
        };
        rhs.build_panels();
        rhs
    }

    /// `(k, n)` of the original weight matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The per-tensor symmetric weight scale `s_B`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Heap bytes held by the quantized representation (row-major copy
    /// plus packed panels) — for compression reports.
    pub fn packed_bytes(&self) -> usize {
        self.qdata.len() + self.colsums.len() * 4 + self.panels_u8.len() + self.panels_i16.len() * 2
    }

    /// Where each column panel starts (empty on the scalar tier).
    #[cfg(test)]
    pub(crate) fn panel_ptrs(&self) -> Vec<*const u8> {
        let (base, np, panel_bytes) = match self.tier {
            QuantTier::Scalar => return Vec::new(),
            QuantTier::Vnni512 => (
                self.panels_u8.as_ptr(),
                self.n.div_ceil(NR_W),
                self.k.div_ceil(4) * 128,
            ),
            QuantTier::VnniAvx => (
                self.panels_u8.as_ptr(),
                self.n.div_ceil(NR),
                self.k.div_ceil(4) * 64,
            ),
            QuantTier::MaddAvx2 => (
                self.panels_i16.as_ptr().cast(),
                self.n.div_ceil(NR),
                self.k.div_ceil(2) * 64,
            ),
        };
        (0..np)
            .map(|p| base.wrapping_add(p * panel_bytes))
            .collect()
    }

    fn build_panels(&mut self) {
        let (k, n) = (self.k, self.n);
        match self.tier {
            QuantTier::Scalar => {}
            QuantTier::Vnni512 => {
                // Panel p, k-quad kq: 128 bytes = cols [j0..j0+16) then
                // [j0+16..j0+32), each column contributing 4 consecutive
                // k bytes — the zmm lane layout `vpdpbusd` consumes.
                let np = n.div_ceil(NR_W);
                let kq4 = k.div_ceil(4);
                self.panels_u8.ensure_len(np * kq4 * 128);
                let buf = self.panels_u8.as_mut_slice();
                buf.fill(0);
                for p in 0..np {
                    let j0 = p * NR_W;
                    let jw = NR_W.min(n - j0);
                    for kq in 0..kq4 {
                        let base = (p * kq4 + kq) * 128;
                        for j in 0..jw {
                            let half = (j / 16) * 64;
                            let lane = (j % 16) * 4;
                            for t in 0..4 {
                                let kk = kq * 4 + t;
                                if kk < k {
                                    buf[base + half + lane + t] = self.qdata[kk * n + j0 + j] as u8;
                                }
                            }
                        }
                    }
                }
            }
            QuantTier::VnniAvx => {
                // Panel p, k-quad kq: 64 bytes = cols [j0..j0+8) then
                // [j0+8..j0+16), each column contributing 4 consecutive
                // k bytes — the lane layout `vpdpbusd` consumes.
                let np = n.div_ceil(NR);
                let kq4 = k.div_ceil(4);
                self.panels_u8.ensure_len(np * kq4 * 64);
                let buf = self.panels_u8.as_mut_slice();
                buf.fill(0);
                for p in 0..np {
                    let j0 = p * NR;
                    let jw = NR.min(n - j0);
                    for kq in 0..kq4 {
                        let base = (p * kq4 + kq) * 64;
                        for j in 0..jw {
                            let half = (j / 8) * 32;
                            let lane = (j % 8) * 4;
                            for t in 0..4 {
                                let kk = kq * 4 + t;
                                if kk < k {
                                    buf[base + half + lane + t] = self.qdata[kk * n + j0 + j] as u8;
                                }
                            }
                        }
                    }
                }
            }
            QuantTier::MaddAvx2 => {
                // Panel p, k-pair kp: 32 i16 = cols [j0..j0+8) then
                // [j0+8..j0+16), each column contributing its two
                // adjacent-k values — the pair layout `vpmaddwd`
                // horizontally adds.
                let np = n.div_ceil(NR);
                let kp2 = k.div_ceil(2);
                self.panels_i16.ensure_len(np * kp2 * 32);
                let buf = self.panels_i16.as_mut_slice();
                buf.fill(0);
                for p in 0..np {
                    let j0 = p * NR;
                    let jw = NR.min(n - j0);
                    for kp in 0..kp2 {
                        let base = (p * kp2 + kp) * 32;
                        for j in 0..jw {
                            let half = (j / 8) * 16;
                            let lane = (j % 8) * 2;
                            for t in 0..2 {
                                let kk = kp * 2 + t;
                                if kk < k {
                                    buf[base + half + lane + t] =
                                        self.qdata[kk * n + j0 + j] as i16;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Per-row activation scales for a row-major `m × k` lhs — exposed so
/// tests can reproduce the exact scales the kernel uses when deriving
/// the analytic error bound.
pub fn row_scales(m: usize, k: usize, lhs: &[f32]) -> Vec<f32> {
    (0..m)
        .map(|i| symmetric_scale(&lhs[i * k..(i + 1) * k]))
        .collect()
}

/// Quantized GEMM: `out[m×n] += dequant(quant(lhs) · rhs)`, row-major.
/// Activations are quantized on the fly (per-row symmetric); the
/// integer product is exact, so every kernel tier yields bitwise-equal
/// f32 results.
pub fn qgemm(m: usize, k: usize, n: usize, lhs: &[f32], rhs: &QuantizedRhs, out: &mut [f32]) {
    assert_eq!(rhs.k, k, "rhs packed for k={}, got {k}", rhs.k);
    assert_eq!(rhs.n, n, "rhs packed for n={}, got {n}", rhs.n);
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    assert!(k <= MAX_K, "quantized GEMM limited to k <= {MAX_K}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // A pack built under one tier only runs under that tier; any
    // mismatch (mode flipped after packing) falls back to the exact
    // scalar kernel on the row-major copy — bitwise-identical output.
    let tier = if detect_tier() == rhs.tier {
        rhs.tier
    } else {
        QuantTier::Scalar
    };
    let threads = crate::pool::parallelism();
    let flops = m.saturating_mul(k).saturating_mul(n);
    if threads > 1 && flops >= PARALLEL_MIN_FLOPS && m >= 2 * MR {
        let chunk_rows = m.div_ceil(threads * 4).max(MR).next_multiple_of(MR);
        crate::pool::parallel_chunks_mut(out, chunk_rows * n, threads, |chunk, out_chunk| {
            let row0 = chunk * chunk_rows;
            let rows = out_chunk.len() / n;
            qgemm_rows(row0, rows, k, n, lhs, rhs, out_chunk, tier);
        });
    } else {
        qgemm_rows(0, m, k, n, lhs, rhs, out, tier);
    }
}

#[allow(clippy::too_many_arguments)]
fn qgemm_rows(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &QuantizedRhs,
    out: &mut [f32],
    tier: QuantTier,
) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        QuantTier::Scalar => qgemm_rows_scalar(row0, rows, k, n, lhs, rhs, out),
        QuantTier::Vnni512 => qgemm_rows_vnni512(row0, rows, k, n, lhs, rhs, out),
        _ => qgemm_rows_simd(row0, rows, k, n, lhs, rhs, out, tier),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = tier;
        qgemm_rows_scalar(row0, rows, k, n, lhs, rhs, out);
    }
}

fn qgemm_rows_scalar(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &QuantizedRhs,
    out: &mut [f32],
) {
    let mut qa = vec![0i8; k];
    for i in 0..rows {
        let arow = &lhs[(row0 + i) * k..(row0 + i + 1) * k];
        let sa = symmetric_scale(arow);
        for (q, &x) in qa.iter_mut().zip(arow) {
            *q = quantize_one(x, sa);
        }
        let orow = &mut out[i * n..(i + 1) * n];
        let deq = sa * rhs.scale;
        for (j, o) in orow.iter_mut().enumerate() {
            let mut acc = 0i32;
            for (kk, &a) in qa.iter().enumerate() {
                acc += a as i32 * rhs.qdata[kk * n + j] as i32;
            }
            *o += acc as f32 * deq;
        }
    }
}

#[cfg(target_arch = "x86_64")]
struct QuantScratch {
    a_u8: AlignedVec<u8>,
    a_i16: AlignedVec<i16>,
    qa: Vec<i8>,
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    static Q_SCRATCH: std::cell::RefCell<QuantScratch> = const {
        std::cell::RefCell::new(QuantScratch {
            a_u8: AlignedVec::new(),
            a_i16: AlignedVec::new(),
            qa: Vec::new(),
        })
    };
}

/// i32 accumulator tile shared by every SIMD quant kernel, sized for
/// the widest (4×32); the 256-bit tiers use the first 4×16 lanes.
#[cfg(target_arch = "x86_64")]
#[repr(align(64))]
struct AccTile([i32; MR * NR_W]);

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn qgemm_rows_simd(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &QuantizedRhs,
    out: &mut [f32],
    tier: QuantTier,
) {
    let np = n.div_ceil(NR);
    let kq4 = k.div_ceil(4);
    let kp2 = k.div_ceil(2);
    Q_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let QuantScratch { a_u8, a_i16, qa } = &mut *scratch;
        qa.resize(MR * k, 0);
        let mut i = 0;
        while i < rows {
            let quad = MR.min(rows - i);
            // Per-row symmetric scales + quantization (rows past `quad`
            // stay zero — their tile lanes are computed and discarded).
            let mut scales = [1.0f32; MR];
            for r in 0..MR {
                let qrow = &mut qa[r * k..(r + 1) * k];
                if r < quad {
                    let arow = &lhs[(row0 + i + r) * k..(row0 + i + r + 1) * k];
                    let sa = symmetric_scale(arow);
                    scales[r] = sa;
                    for (q, &x) in qrow.iter_mut().zip(arow) {
                        *q = quantize_one(x, sa);
                    }
                } else {
                    qrow.fill(0);
                }
            }
            match tier {
                QuantTier::VnniAvx => {
                    a_u8.ensure_len(kq4 * 16);
                    let buf = a_u8.as_mut_slice();
                    // u8 offset: qa + 128; padded k slots hold 128
                    // (qa = 0), which the colsum compensation cancels
                    // exactly because the matching B bytes are 0.
                    buf.fill(128);
                    for r in 0..quad {
                        for kk in 0..k {
                            buf[(kk / 4) * 16 + r * 4 + (kk % 4)] =
                                (qa[r * k + kk] as i16 + 128) as u8;
                        }
                    }
                }
                QuantTier::MaddAvx2 => {
                    a_i16.ensure_len(kp2 * 8);
                    let buf = a_i16.as_mut_slice();
                    buf.fill(0);
                    for r in 0..quad {
                        for kk in 0..k {
                            buf[(kk / 2) * 8 + r * 2 + (kk % 2)] = qa[r * k + kk] as i16;
                        }
                    }
                }
                QuantTier::Scalar | QuantTier::Vnni512 => {
                    unreachable!("routed before qgemm_rows_simd")
                }
            }
            for p in 0..np {
                let j0 = p * NR;
                let jw = NR.min(n - j0);
                let mut acc = AccTile([0i32; MR * NR_W]);
                match tier {
                    // SAFETY: tier was feature-detected; panels hold
                    // kq4*64 / kp2*32 packed elements per column panel
                    // and the A scratch holds kq4*16 / kp2*8.
                    QuantTier::VnniAvx => unsafe {
                        qk4x16_vnni_avx(
                            a_u8.as_ptr(),
                            kq4,
                            rhs.panels_u8.as_ptr().add(p * kq4 * 64),
                            acc.0.as_mut_ptr(),
                        );
                    },
                    QuantTier::MaddAvx2 => unsafe {
                        qk4x16_madd_avx2(
                            a_i16.as_ptr(),
                            kp2,
                            rhs.panels_i16.as_ptr().add(p * kp2 * 32),
                            acc.0.as_mut_ptr(),
                        );
                    },
                    QuantTier::Scalar | QuantTier::Vnni512 => unreachable!(),
                }
                let offset_compensation = tier == QuantTier::VnniAvx;
                for r in 0..quad {
                    let deq = scales[r] * rhs.scale;
                    let orow = &mut out[(i + r) * n + j0..(i + r) * n + j0 + jw];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let mut raw = acc.0[r * NR + j];
                        if offset_compensation {
                            raw -= 128 * rhs.colsums[j0 + j];
                        }
                        *o += raw as f32 * deq;
                    }
                }
            }
            i += MR;
        }
    });
}

/// Dedicated 512-bit VNNI driver: per-row quantization, A packing, and
/// the dequant epilogue all run as AVX-512 vector code (the generic
/// driver's scalar quantize loop — a libm `roundf` call per element at
/// the default x86-64 baseline — would otherwise dominate the runtime).
/// Output is bitwise-identical to the scalar tier: the vector quantizer
/// reproduces `quantize_one` exactly (IEEE division, round half away
/// from zero via an RNE-then-fix sequence, NaN→0) and the fused
/// epilogue keeps the scalar tier's two-rounding `cvt·mul, add` shape.
#[cfg(target_arch = "x86_64")]
fn qgemm_rows_vnni512(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &QuantizedRhs,
    out: &mut [f32],
) {
    let np = n.div_ceil(NR_W);
    let kq4 = k.div_ceil(4);
    Q_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let a_u8 = &mut scratch.a_u8;
        a_u8.ensure_len(kq4 * 16);
        let mut i = 0;
        while i < rows {
            let quad = MR.min(rows - i);
            let buf = a_u8.as_mut_slice();
            // Padded k slots and unused rows hold the u8 offset value
            // 128 (q = 0); the colsum compensation cancels them exactly
            // because the matching B bytes are 0.
            buf.fill(128);
            let mut scales = [1.0f32; MR];
            for r in 0..quad {
                let arow = &lhs[(row0 + i + r) * k..(row0 + i + r + 1) * k];
                // SAFETY: tier was feature-detected (avx512vnni implies
                // avx512f); buf holds kq4*16 bytes.
                scales[r] = unsafe { quantize_pack_row_avx512(arow, r, buf.as_mut_ptr()) };
            }
            for p in 0..np {
                let j0 = p * NR_W;
                let jw = NR_W.min(n - j0);
                // SAFETY: panels hold kq4*128 bytes per column panel,
                // colsums has n >= j0+jw entries, and `out` rows are
                // n-strided with quad rows valid at row i.
                unsafe {
                    let bpanel = rhs.panels_u8.as_ptr().add(p * kq4 * 128);
                    if jw == NR_W {
                        qk4x32_vnni512_fused(
                            a_u8.as_ptr(),
                            kq4,
                            bpanel,
                            rhs.colsums.as_ptr().add(j0),
                            &scales,
                            rhs.scale,
                            quad,
                            out.as_mut_ptr().add(i * n + j0),
                            n,
                        );
                    } else {
                        let mut acc = AccTile([0i32; MR * NR_W]);
                        qk4x32_vnni512(a_u8.as_ptr(), kq4, bpanel, acc.0.as_mut_ptr());
                        for r in 0..quad {
                            let deq = scales[r] * rhs.scale;
                            let orow = &mut out[(i + r) * n + j0..(i + r) * n + j0 + jw];
                            for (j, o) in orow.iter_mut().enumerate() {
                                let raw = acc.0[r * NR_W + j] - 128 * rhs.colsums[j0 + j];
                                *o += raw as f32 * deq;
                            }
                        }
                    }
                }
            }
            i += MR;
        }
    });
}

/// Quantizes one activation row (per-row symmetric scale) directly into
/// the interleaved u8 A-panel layout (`buf[(kk/4)*16 + r*4 + kk%4]`,
/// offset by +128), returning the scale. Bitwise-equivalent to
/// `symmetric_scale` + `quantize_one` per element:
///
/// - the max-|x| reduction is over the same filtered set (max is
///   order-independent);
/// - division is IEEE-exact in both forms;
/// - `f32::round` (half away from zero) is reproduced as
///   round-to-nearest-even (`vcvtps2dq`) plus a ±1 fix on exact-half
///   lanes, after a float clamp to ±127 that makes the conversion
///   overflow-free (inf saturates to ±127 as in the scalar clamp);
/// - NaN lanes are zeroed via an ordered-compare mask (scalar: NaN
///   casts to 0).
///
/// # Safety
///
/// Requires avx512f; `buf` must hold `ceil(k/4)*16` bytes, `r < 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_pack_row_avx512(arow: &[f32], r: usize, buf: *mut u8) -> f32 {
    use std::arch::x86_64::*;
    let k = arow.len();
    let absmask = _mm512_set1_epi32(0x7fff_ffff);
    let inf = _mm512_set1_ps(f32::INFINITY);
    let mut vmax = _mm512_setzero_ps();
    let mut kk = 0;
    while kk + 16 <= k {
        let x = _mm512_loadu_ps(arow.as_ptr().add(kk));
        let a = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(x), absmask));
        // NaN compares unordered (false) and +inf fails `< inf`, so
        // only finite magnitudes enter the running max.
        let fin = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, inf);
        vmax = _mm512_mask_max_ps(vmax, fin, vmax, a);
        kk += 16;
    }
    let mut lanes = [0.0f32; 16];
    _mm512_storeu_ps(lanes.as_mut_ptr(), vmax);
    let mut max_abs = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    while kk < k {
        let a = arow[kk].abs();
        if a.is_finite() {
            max_abs = max_abs.max(a);
        }
        kk += 1;
    }
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };

    let vscale = _mm512_set1_ps(scale);
    let clamp_lo = _mm512_set1_ps(-127.0);
    let clamp_hi = _mm512_set1_ps(127.0);
    let half = _mm512_set1_ps(0.5);
    let neg_half = _mm512_set1_ps(-0.5);
    let zero_ps = _mm512_setzero_ps();
    let one = _mm512_set1_epi32(1);
    let offset = _mm512_set1_epi32(128);
    let mut tmp = [0u8; 16];
    let mut kk = 0;
    while kk + 16 <= k {
        let x = _mm512_loadu_ps(arow.as_ptr().add(kk));
        let q = _mm512_div_ps(x, vscale);
        // Float clamp first: ±inf saturate to ±127 and the integer
        // conversion below can no longer overflow. NaN propagation here
        // is irrelevant — NaN lanes are zeroed at the end.
        let qc = _mm512_min_ps(_mm512_max_ps(q, clamp_lo), clamp_hi);
        let t = _mm512_cvtps_epi32(qc); // round to nearest even
        let d = _mm512_sub_ps(qc, _mm512_cvtepi32_ps(t)); // exact
                                                          // Promote half-even to half-away-from-zero: an exact +0.5
                                                          // residue on a positive lane was rounded down, an exact -0.5
                                                          // residue on a negative lane was rounded up.
        let fix_up = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(d, half)
            & _mm512_cmp_ps_mask::<_CMP_GT_OQ>(qc, zero_ps);
        let fix_dn = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(d, neg_half)
            & _mm512_cmp_ps_mask::<_CMP_LT_OQ>(qc, zero_ps);
        let t = _mm512_mask_add_epi32(t, fix_up, t, one);
        let t = _mm512_mask_sub_epi32(t, fix_dn, t, one);
        let ord = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(x, x);
        let t = _mm512_maskz_mov_epi32(ord, t);
        let t = _mm512_add_epi32(t, offset);
        _mm_storeu_si128(tmp.as_mut_ptr() as *mut __m128i, _mm512_cvtepi32_epi8(t));
        // 16 quantized k-bytes scatter as four 4-byte groups, one per
        // k-quad, at this row's lane in the interleaved panel.
        let src = tmp.as_ptr() as *const u32;
        for g in 0..4 {
            let dst = buf.add((kk / 4 + g) * 16 + r * 4) as *mut u32;
            dst.write_unaligned(src.add(g).read_unaligned());
        }
        kk += 16;
    }
    while kk < k {
        let q = quantize_one(arow[kk], scale);
        *buf.add((kk / 4) * 16 + r * 4 + (kk % 4)) = (q as i16 + 128) as u8;
        kk += 1;
    }
    scale
}

/// AVX-512 VNNI 4×32 kernel: `acc[r][j] += Σ_k (qa[r][k]+128) · qb[k][j]`
/// via full-width `vpdpbusd` (each zmm lane folds 4 k-bytes, two zmm
/// cover the 32-column panel).
///
/// # Safety
///
/// Requires avx512vnni; `apanel` holds `kq4*16` bytes (32-byte
/// aligned), `bpanel` holds `kq4*128` bytes (64-byte aligned), `acc`
/// holds `4*32` i32 (64-byte aligned, row stride 32).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vnni")]
unsafe fn qk4x32_vnni512(apanel: *const u8, kq4: usize, bpanel: *const u8, acc: *mut i32) {
    use std::arch::x86_64::*;
    debug_assert!(is_panel_aligned(apanel));
    debug_assert!(is_line_aligned(bpanel));
    debug_assert!(is_line_aligned(acc));
    let mut a00 = _mm512_setzero_si512();
    let mut a01 = _mm512_setzero_si512();
    let mut a10 = _mm512_setzero_si512();
    let mut a11 = _mm512_setzero_si512();
    let mut a20 = _mm512_setzero_si512();
    let mut a21 = _mm512_setzero_si512();
    let mut a30 = _mm512_setzero_si512();
    let mut a31 = _mm512_setzero_si512();
    for kq in 0..kq4 {
        let bk = bpanel.add(kq * 128);
        // A k quad reads two cache lines.
        prefetch_ahead(bk, PREFETCH_AHEAD_I8);
        prefetch_ahead(bk, PREFETCH_AHEAD_I8 + 64);
        let b0 = _mm512_load_si512(bk as *const __m512i);
        let b1 = _mm512_load_si512(bk.add(64) as *const __m512i);
        let abase = apanel.add(kq * 16) as *const i32;
        let v0 = _mm512_set1_epi32(abase.read());
        let v1 = _mm512_set1_epi32(abase.add(1).read());
        let v2 = _mm512_set1_epi32(abase.add(2).read());
        let v3 = _mm512_set1_epi32(abase.add(3).read());
        a00 = _mm512_dpbusd_epi32(a00, v0, b0);
        a01 = _mm512_dpbusd_epi32(a01, v0, b1);
        a10 = _mm512_dpbusd_epi32(a10, v1, b0);
        a11 = _mm512_dpbusd_epi32(a11, v1, b1);
        a20 = _mm512_dpbusd_epi32(a20, v2, b0);
        a21 = _mm512_dpbusd_epi32(a21, v2, b1);
        a30 = _mm512_dpbusd_epi32(a30, v3, b0);
        a31 = _mm512_dpbusd_epi32(a31, v3, b1);
    }
    let out = acc as *mut __m512i;
    _mm512_store_si512(out, a00);
    _mm512_store_si512(out.add(1), a01);
    _mm512_store_si512(out.add(2), a10);
    _mm512_store_si512(out.add(3), a11);
    _mm512_store_si512(out.add(4), a20);
    _mm512_store_si512(out.add(5), a21);
    _mm512_store_si512(out.add(6), a30);
    _mm512_store_si512(out.add(7), a31);
}

/// [`qk4x32_vnni512`] with the dequant epilogue fused in: after the
/// dpbusd sweep, each row's accumulators get the exact i32 offset
/// compensation (`acc - 128·colsum`, the shift is exact), then the same
/// two-rounding f32 sequence as the scalar epilogue — `cvt`, `mul` by
/// the row's dequant factor, `add` into `out` — so results stay
/// bitwise-identical while never leaving vector registers.
///
/// # Safety
///
/// Requires avx512vnni; panel requirements as [`qk4x32_vnni512`];
/// `colsums` must hold 32 i32; `out` must be valid for `rows` rows of
/// 32 f32 at stride `n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn qk4x32_vnni512_fused(
    apanel: *const u8,
    kq4: usize,
    bpanel: *const u8,
    colsums: *const i32,
    scales: &[f32; MR],
    wscale: f32,
    rows: usize,
    out: *mut f32,
    n: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(is_panel_aligned(apanel));
    debug_assert!(is_line_aligned(bpanel));
    let mut acc = [[_mm512_setzero_si512(); 2]; MR];
    for kq in 0..kq4 {
        let bk = bpanel.add(kq * 128);
        prefetch_ahead(bk, PREFETCH_AHEAD_I8);
        prefetch_ahead(bk, PREFETCH_AHEAD_I8 + 64);
        let b0 = _mm512_load_si512(bk as *const __m512i);
        let b1 = _mm512_load_si512(bk.add(64) as *const __m512i);
        let abase = apanel.add(kq * 16) as *const i32;
        for (r, row_acc) in acc.iter_mut().enumerate() {
            let v = _mm512_set1_epi32(abase.add(r).read());
            row_acc[0] = _mm512_dpbusd_epi32(row_acc[0], v, b0);
            row_acc[1] = _mm512_dpbusd_epi32(row_acc[1], v, b1);
        }
    }
    let comp0 = _mm512_slli_epi32::<7>(_mm512_loadu_si512(colsums as *const __m512i));
    let comp1 = _mm512_slli_epi32::<7>(_mm512_loadu_si512(colsums.add(16) as *const __m512i));
    for (r, row_acc) in acc.iter().enumerate().take(rows) {
        let deq = _mm512_set1_ps(scales[r] * wscale);
        let o = out.add(r * n);
        let raw0 = _mm512_sub_epi32(row_acc[0], comp0);
        let raw1 = _mm512_sub_epi32(row_acc[1], comp1);
        let f0 = _mm512_mul_ps(_mm512_cvtepi32_ps(raw0), deq);
        let f1 = _mm512_mul_ps(_mm512_cvtepi32_ps(raw1), deq);
        _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), f0));
        _mm512_storeu_ps(o.add(16), _mm512_add_ps(_mm512_loadu_ps(o.add(16)), f1));
    }
}

/// AVX-VNNI 4×16 variant of [`qk4x32_vnni512`] for cores exposing
/// `vpdpbusd` without AVX-512.
///
/// # Safety
///
/// Requires avxvnni; `apanel` holds `kq4*16` bytes (32-byte aligned),
/// `bpanel` holds `kq4*64` bytes (32-byte aligned), `acc` holds `4*16`
/// i32 (32-byte aligned, row stride 16).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avxvnni")]
unsafe fn qk4x16_vnni_avx(apanel: *const u8, kq4: usize, bpanel: *const u8, acc: *mut i32) {
    use std::arch::x86_64::*;
    debug_assert!(is_panel_aligned(apanel));
    debug_assert!(is_panel_aligned(bpanel));
    let mut a00 = _mm256_setzero_si256();
    let mut a01 = _mm256_setzero_si256();
    let mut a10 = _mm256_setzero_si256();
    let mut a11 = _mm256_setzero_si256();
    let mut a20 = _mm256_setzero_si256();
    let mut a21 = _mm256_setzero_si256();
    let mut a30 = _mm256_setzero_si256();
    let mut a31 = _mm256_setzero_si256();
    for kq in 0..kq4 {
        let bk = bpanel.add(kq * 64);
        // A k quad reads one cache line.
        prefetch_ahead(bk, PREFETCH_AHEAD_I8);
        let b0 = _mm256_load_si256(bk as *const __m256i);
        let b1 = _mm256_load_si256(bk.add(32) as *const __m256i);
        let abase = apanel.add(kq * 16) as *const i32;
        let v0 = _mm256_set1_epi32(abase.read());
        let v1 = _mm256_set1_epi32(abase.add(1).read());
        let v2 = _mm256_set1_epi32(abase.add(2).read());
        let v3 = _mm256_set1_epi32(abase.add(3).read());
        a00 = _mm256_dpbusd_avx_epi32(a00, v0, b0);
        a01 = _mm256_dpbusd_avx_epi32(a01, v0, b1);
        a10 = _mm256_dpbusd_avx_epi32(a10, v1, b0);
        a11 = _mm256_dpbusd_avx_epi32(a11, v1, b1);
        a20 = _mm256_dpbusd_avx_epi32(a20, v2, b0);
        a21 = _mm256_dpbusd_avx_epi32(a21, v2, b1);
        a30 = _mm256_dpbusd_avx_epi32(a30, v3, b0);
        a31 = _mm256_dpbusd_avx_epi32(a31, v3, b1);
    }
    let out = acc as *mut __m256i;
    _mm256_store_si256(out, a00);
    _mm256_store_si256(out.add(1), a01);
    _mm256_store_si256(out.add(2), a10);
    _mm256_store_si256(out.add(3), a11);
    _mm256_store_si256(out.add(4), a20);
    _mm256_store_si256(out.add(5), a21);
    _mm256_store_si256(out.add(6), a30);
    _mm256_store_si256(out.add(7), a31);
}

/// AVX2 4×16 kernel on i16-widened operands: `vpmaddwd` multiplies 16
/// i16 pairs and adds adjacent products (exact for |q| ≤ 127), then
/// `vpaddd` accumulates.
///
/// # Safety
///
/// Requires avx2; `apanel` holds `kp2*8` i16 (32-byte aligned),
/// `bpanel` holds `kp2*32` i16 (32-byte aligned), `acc` holds `4*16`
/// i32 (32-byte aligned, row stride 16).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qk4x16_madd_avx2(apanel: *const i16, kp2: usize, bpanel: *const i16, acc: *mut i32) {
    use std::arch::x86_64::*;
    debug_assert!(is_panel_aligned(apanel));
    debug_assert!(is_panel_aligned(bpanel));
    let mut a00 = _mm256_setzero_si256();
    let mut a01 = _mm256_setzero_si256();
    let mut a10 = _mm256_setzero_si256();
    let mut a11 = _mm256_setzero_si256();
    let mut a20 = _mm256_setzero_si256();
    let mut a21 = _mm256_setzero_si256();
    let mut a30 = _mm256_setzero_si256();
    let mut a31 = _mm256_setzero_si256();
    for kp in 0..kp2 {
        let b0 = _mm256_load_si256(bpanel.add(kp * 32) as *const __m256i);
        let b1 = _mm256_load_si256(bpanel.add(kp * 32 + 16) as *const __m256i);
        let abase = apanel.add(kp * 8) as *const i32;
        let v0 = _mm256_set1_epi32(abase.read());
        let v1 = _mm256_set1_epi32(abase.add(1).read());
        let v2 = _mm256_set1_epi32(abase.add(2).read());
        let v3 = _mm256_set1_epi32(abase.add(3).read());
        a00 = _mm256_add_epi32(a00, _mm256_madd_epi16(v0, b0));
        a01 = _mm256_add_epi32(a01, _mm256_madd_epi16(v0, b1));
        a10 = _mm256_add_epi32(a10, _mm256_madd_epi16(v1, b0));
        a11 = _mm256_add_epi32(a11, _mm256_madd_epi16(v1, b1));
        a20 = _mm256_add_epi32(a20, _mm256_madd_epi16(v2, b0));
        a21 = _mm256_add_epi32(a21, _mm256_madd_epi16(v2, b1));
        a30 = _mm256_add_epi32(a30, _mm256_madd_epi16(v3, b0));
        a31 = _mm256_add_epi32(a31, _mm256_madd_epi16(v3, b1));
    }
    let out = acc as *mut __m256i;
    _mm256_store_si256(out, a00);
    _mm256_store_si256(out.add(1), a01);
    _mm256_store_si256(out.add(2), a10);
    _mm256_store_si256(out.add(3), a11);
    _mm256_store_si256(out.add(4), a20);
    _mm256_store_si256(out.add(5), a21);
    _mm256_store_si256(out.add(6), a30);
    _mm256_store_si256(out.add(7), a31);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn qgemm_with_tier(
        m: usize,
        k: usize,
        n: usize,
        lhs: &[f32],
        rhs_data: &[f32],
        tier: QuantTier,
    ) -> Option<Vec<f32>> {
        if !tier_available(tier) {
            return None;
        }
        // Build a pack with the requested tier by hand.
        let scale = symmetric_scale(rhs_data);
        let qdata: Vec<i8> = rhs_data.iter().map(|&x| quantize_one(x, scale)).collect();
        let mut colsums = vec![0i32; n];
        for kk in 0..k {
            for j in 0..n {
                colsums[j] += qdata[kk * n + j] as i32;
            }
        }
        let mut rhs = QuantizedRhs {
            k,
            n,
            scale,
            qdata,
            colsums,
            tier,
            panels_u8: AlignedVec::new(),
            panels_i16: AlignedVec::new(),
        };
        rhs.build_panels();
        let mut out = vec![0.0f32; m * n];
        qgemm_rows(0, m, k, n, lhs, &rhs, &mut out, tier);
        Some(out)
    }

    fn tier_available(tier: QuantTier) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match tier {
                QuantTier::Scalar => true,
                QuantTier::MaddAvx2 => is_x86_feature_detected!("avx2"),
                QuantTier::VnniAvx => is_x86_feature_detected!("avxvnni"),
                QuantTier::Vnni512 => is_x86_feature_detected!("avx512vnni"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(tier, QuantTier::Scalar)
        }
    }

    #[test]
    fn all_available_tiers_are_bitwise_identical() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 16, 16),
            (5, 33, 17),
            (3, 257, 31),
            (11, 300, 29),
            (8, 512, 48),
            // VNNI panels that fill their allocation to the last byte
            // (checked below): the tiles' prefetch address leaves it in
            // the last panel.
            (4, 512, 64),
        ] {
            let lhs = fill(m as u64 * 7 + k as u64, m * k);
            let rhs = fill(n as u64 * 13 + 3, k * n);
            let base = qgemm_with_tier(m, k, n, &lhs, &rhs, QuantTier::Scalar).unwrap();
            for tier in [QuantTier::MaddAvx2, QuantTier::VnniAvx, QuantTier::Vnni512] {
                if let Some(out) = qgemm_with_tier(m, k, n, &lhs, &rhs, tier) {
                    for (idx, (a, b)) in out.iter().zip(&base).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tier:?} ({m}x{k}x{n}) idx {idx}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exactly_sized_case_fills_its_allocation() {
        // `AlignedVec` rounds capacity up to a power of two.
        let rhs = QuantizedRhs::pack(512, 64, &fill(9, 512 * 64));
        assert!(rhs.panels_u8.is_empty() || rhs.panels_u8.len().is_power_of_two());
    }

    #[test]
    fn quantized_tracks_exact_product_within_bound() {
        let (m, k, n) = (6usize, 128usize, 24usize);
        let lhs = fill(41, m * k);
        let rhs_data = fill(42, k * n);
        let rhs = QuantizedRhs::pack(k, n, &rhs_data);
        let mut out = vec![0.0f32; m * n];
        qgemm(m, k, n, &lhs, &rhs, &mut out);
        let scales = row_scales(m, k, &lhs);
        for i in 0..m {
            for j in 0..n {
                let exact: f64 = (0..k)
                    .map(|kk| lhs[i * k + kk] as f64 * rhs_data[kk * n + j] as f64)
                    .sum();
                // Round-off bound: 0.5*sB per |a|, 0.5*sA per |b|, plus
                // the cross term (see kernel_properties for the full
                // derivation).
                let sa = scales[i] as f64;
                let sb = rhs.scale() as f64;
                let abs_a: f64 = (0..k).map(|kk| lhs[i * k + kk].abs() as f64).sum();
                let abs_b: f64 = (0..k).map(|kk| rhs_data[kk * n + j].abs() as f64).sum();
                let bound = 0.5 * sb * abs_a + 0.5 * sa * abs_b + 0.25 * k as f64 * sa * sb + 1e-4;
                let got = out[i * n + j] as f64;
                assert!(
                    (got - exact).abs() <= bound,
                    "({i},{j}): got {got}, exact {exact}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn rows_are_bitwise_independent_of_batch_shape() {
        let (m, k, n) = (9usize, 77usize, 21usize);
        let lhs = fill(5, m * k);
        let rhs_data = fill(6, k * n);
        let rhs = QuantizedRhs::pack(k, n, &rhs_data);
        let mut batched = vec![0.0f32; m * n];
        qgemm(m, k, n, &lhs, &rhs, &mut batched);
        for i in 0..m {
            let mut solo = vec![0.0f32; n];
            qgemm(1, k, n, &lhs[i * k..(i + 1) * k], &rhs, &mut solo);
            assert_eq!(
                &batched[i * n..(i + 1) * n],
                &solo[..],
                "row {i} differs between batched and solo quantized forward"
            );
        }
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        // All-zero weights, NaN activations, empty dims.
        let rhs = QuantizedRhs::pack(3, 2, &[0.0; 6]);
        assert_eq!(rhs.scale(), 1.0);
        let mut out = vec![0.0f32; 2];
        qgemm(1, 3, 2, &[f32::NAN, 1.0, -1.0], &rhs, &mut out);
        assert!(out.iter().all(|x| *x == 0.0));
        let mut empty: Vec<f32> = vec![];
        qgemm(0, 3, 2, &[], &rhs, &mut empty);
        let (q, s) = quantize_symmetric(&[1.0, -2.0, 0.5]);
        assert_eq!(s, 2.0 / 127.0);
        assert_eq!(q[1], -127);
    }
}
