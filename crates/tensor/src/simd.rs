//! Explicit-SIMD f32 GEMM tier: AVX2/FMA 4×16 micro-kernel with runtime
//! CPU-feature detection, a portable fused twin, and a forced-path
//! override.
//!
//! # Kernel tiers and dispatch order
//!
//! `gemm_rrr` (the funnel every matmul/t_matmul/matmul_t call drains
//! into) resolves one of three paths per call:
//!
//! 1. **`SimdAvx2`** — packed, cache-blocked 4×16 micro-kernel built on
//!    `_mm256_fmadd_ps`. Chosen automatically when the host reports
//!    `avx2` **and** `fma`.
//! 2. **`PortableFused`** — a scalar twin of the AVX2 kernel using
//!    `f32::mul_add` in the *identical per-element accumulation order*.
//!    Chosen when SIMD is requested but the host lacks AVX2/FMA, or
//!    forced for parity testing.
//! 3. **`ScalarLegacy`** — the pre-existing blocked mul-then-add kernel
//!    in [`crate::kernels`], still bitwise-equal to the naive
//!    `*_reference` implementations. Forced via `EUGENE_SIMD=0` /
//!    [`set_simd_mode`]`(SimdMode::ForceScalar)`.
//!
//! # Parity contract
//!
//! FMA rounds once per multiply-add where the legacy kernel rounds
//! twice, so the SIMD tier **cannot** be bitwise-equal to the scalar
//! tier. The contract is instead:
//!
//! - `SimdAvx2` == `PortableFused` **bitwise**, for every shape: both
//!   compute each output element as a fold of single-rounded
//!   `mul_add`s in ascending-k order. This is what
//!   `kernel_properties` asserts when it forces each path in turn.
//! - `ScalarLegacy` stays bitwise-equal to `matmul_reference` (the
//!   pre-existing contract, unchanged).
//! - Both tiers stay within a small relative error of the reference,
//!   and both preserve the *row-independence invariant*: an output row
//!   depends only on its own lhs row, never on batch shape, so the
//!   serving runtime's fused micro-batches scatter bitwise-identical
//!   rows. Every path here — including the small-matrix path and edge
//!   tiles — accumulates in strictly ascending k order with one
//!   rounding per step to keep that guarantee.
//!
//! # Forcing a path
//!
//! Set the `EUGENE_SIMD` environment variable before first use
//! (`0`/`off`/`scalar`, `1`/`on`/`simd`/`avx2`, `portable`/`fused`,
//! `auto`), or call [`set_simd_mode`] at runtime (takes precedence over
//! the environment; mirrors `set_parallelism`).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::alloc::{is_line_aligned, is_panel_aligned, AlignedVec};

/// Requested kernel-path policy (the user-facing override knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Pick the fastest correct path for the host (default).
    Auto,
    /// Force the legacy blocked scalar kernel (reference-bitwise tier).
    ForceScalar,
    /// Force the SIMD tier (AVX2 when available, portable twin else).
    ForceSimd,
    /// Force the portable fused twin — the bitwise oracle for the AVX2
    /// kernel, useful only for parity testing.
    ForcePortable,
}

/// The concrete f32 path a `gemm_rrr` call will take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedPath {
    ScalarLegacy,
    /// 8×32 AVX-512F micro-kernel (same per-element fold as AVX2).
    SimdAvx512,
    SimdAvx2,
    PortableFused,
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn mode_to_u8(mode: SimdMode) -> u8 {
    match mode {
        SimdMode::Auto => 0,
        SimdMode::ForceScalar => 1,
        SimdMode::ForceSimd => 2,
        SimdMode::ForcePortable => 3,
    }
}

fn mode_from_u8(raw: u8) -> SimdMode {
    match raw {
        1 => SimdMode::ForceScalar,
        2 => SimdMode::ForceSimd,
        3 => SimdMode::ForcePortable,
        _ => SimdMode::Auto,
    }
}

fn env_default() -> SimdMode {
    static ENV: OnceLock<SimdMode> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("EUGENE_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "scalar" | "none" => SimdMode::ForceScalar,
            "1" | "on" | "true" | "simd" | "avx2" | "force" => SimdMode::ForceSimd,
            "portable" | "fused" => SimdMode::ForcePortable,
            _ => SimdMode::Auto,
        },
        Err(_) => SimdMode::Auto,
    })
}

/// Overrides kernel-path selection for this process, taking precedence
/// over the `EUGENE_SIMD` environment variable. Thread-safe; affects
/// subsequent matmuls on every thread.
pub fn set_simd_mode(mode: SimdMode) {
    MODE.store(mode_to_u8(mode), Ordering::Relaxed);
}

/// The currently requested kernel-path policy ([`SimdMode::Auto`] unless
/// overridden by `EUGENE_SIMD` or [`set_simd_mode`]).
pub fn simd_mode() -> SimdMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNSET => env_default(),
        raw => mode_from_u8(raw),
    }
}

/// Whether the host supports the AVX2+FMA micro-kernel.
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the host supports the 512-bit micro-kernel.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        // Requires the AVX2+FMA tier too: the small-matrix path of the
        // wide tier reuses the AVX2 fused function.
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx512f") && avx2_fma_available())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn resolve(mode: SimdMode, avx512: bool, avx2_fma: bool) -> ResolvedPath {
    match mode {
        SimdMode::ForceScalar => ResolvedPath::ScalarLegacy,
        SimdMode::ForcePortable => ResolvedPath::PortableFused,
        SimdMode::ForceSimd => {
            if avx512 {
                ResolvedPath::SimdAvx512
            } else if avx2_fma {
                ResolvedPath::SimdAvx2
            } else {
                ResolvedPath::PortableFused
            }
        }
        SimdMode::Auto => {
            if avx512 {
                ResolvedPath::SimdAvx512
            } else if avx2_fma {
                ResolvedPath::SimdAvx2
            } else {
                ResolvedPath::ScalarLegacy
            }
        }
    }
}

pub(crate) fn resolved_path() -> ResolvedPath {
    resolve(simd_mode(), avx512_available(), avx2_fma_available())
}

/// Whether matmuls currently run on the fused SIMD tier (vector kernel
/// or its portable twin) rather than the legacy scalar kernel.
pub fn simd_active() -> bool {
    resolved_path() != ResolvedPath::ScalarLegacy
}

/// Short name of the ISA tier the f32 GEMM currently resolves to —
/// recorded in benchmark result JSON so curves are comparable across
/// hosts.
pub fn isa_tier() -> &'static str {
    match resolved_path() {
        ResolvedPath::ScalarLegacy => "scalar",
        ResolvedPath::SimdAvx512 => "avx512f",
        ResolvedPath::SimdAvx2 => "avx2_fma",
        ResolvedPath::PortableFused => "portable_fused",
    }
}

/// Runtime-detected CPU features relevant to the kernel tiers, for
/// benchmark metadata ([`cpu_features`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuFeatures {
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub avx512vl: bool,
    pub avx512vnni: bool,
    pub avxvnni: bool,
}

impl CpuFeatures {
    /// The detected features as `(name, present)` pairs, in a stable
    /// order, for serialization into results JSON.
    pub fn entries(&self) -> [(&'static str, bool); 6] {
        [
            ("avx2", self.avx2),
            ("fma", self.fma),
            ("avx512f", self.avx512f),
            ("avx512vl", self.avx512vl),
            ("avx512vnni", self.avx512vnni),
            ("avxvnni", self.avxvnni),
        ]
    }
}

/// Detects the kernel-relevant CPU features via
/// `is_x86_feature_detected!` (all-false off x86_64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
            avx512f: is_x86_feature_detected!("avx512f"),
            avx512vl: is_x86_feature_detected!("avx512vl"),
            avx512vnni: is_x86_feature_detected!("avx512vnni"),
            avxvnni: is_x86_feature_detected!("avxvnni"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures::default()
    }
}

// ---------------------------------------------------------------------
// Fused f32 GEMM (the SIMD tier's two implementations).
// ---------------------------------------------------------------------

/// k-blocking depth: one packed B block spans `KC × n` and A quads span
/// `KC × MR`, sized to stay cache-resident (matches the scalar tier).
const KC: usize = 256;
/// AVX2 micro-kernel row count.
const MR: usize = 4;
/// AVX2 micro-kernel column count (two 8-lane vectors).
const NR: usize = 16;
/// AVX-512 micro-kernel row count.
const MR_W: usize = 8;
/// AVX-512 micro-kernel column count (two 16-lane vectors).
const NR_W: usize = 32;
/// How far ahead of the current k step, in f32 elements, the vector
/// micro-kernels software-prefetch their B panel. A serving product
/// (m <= 8) reads every packed weight exactly once, so it runs at the
/// speed the panels arrive; the hardware streamer restarts at each
/// 4 KiB page, which a hint this far ahead bridges. Chosen from the
/// recorded sweep in DESIGN.md ("Streaming weight panels at the memory
/// roofline").
const PREFETCH_AHEAD_F32: usize = 512;

/// Hints the cache line `ahead` elements past `ptr` towards L1. The
/// address is formed with `wrapping_add`: near the end of a pack it
/// leaves the allocation, which a prefetch may do (it never faults)
/// and `ptr::add` may not.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn prefetch_ahead<T>(ptr: *const T, ahead: usize) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: a prefetch is a hint; it reads nothing and cannot fault,
    // whatever the address.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.wrapping_add(ahead).cast()) }
}

/// Which fused f32 implementation executes (Portable is the scalar
/// `mul_add` twin; both vector ISAs compute the identical per-element
/// fold, so all three are bitwise-interchangeable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedIsa {
    Portable,
    Avx2,
    Avx512,
}

/// Elementwise tail folded into the GEMM: `out = relu(out + bias)`,
/// applied to each output element exactly once, after its accumulation
/// completes (the last k block for the blocked kernels).
///
/// The ops are the same scalar sequence as the separate layer-walk
/// passes — `add_row_broadcast` (`*dst += src`) then `f32::max(x, 0.0)`
/// — in the same order, so a fused dispatch stays **bitwise** equal to
/// the unfused one on every tier. Deliberately no vector-intrinsic
/// variant: `_mm256_max_ps` has operand-order semantics for ±0.0/NaN
/// that `f32::max` does not share.
#[derive(Clone, Copy, Default)]
pub(crate) struct Epilogue<'a> {
    /// Per-column bias (length n), added before the activation.
    pub bias: Option<&'a [f32]>,
    /// Whether to clamp at zero after the bias add.
    pub relu: bool,
}

impl Epilogue<'_> {
    pub(crate) fn is_noop(&self) -> bool {
        self.bias.is_none() && !self.relu
    }

    /// Applies the tail to rows `r0..r0+nrows`, columns `j0..j0+jw` of
    /// `out`, a slab of rows with stride `n`. Row indices are local to
    /// the slab; column indices are absolute (they index `bias`).
    pub(crate) fn apply(
        &self,
        out: &mut [f32],
        n: usize,
        r0: usize,
        nrows: usize,
        j0: usize,
        jw: usize,
    ) {
        if self.is_noop() {
            return;
        }
        for r in r0..r0 + nrows {
            let row = &mut out[r * n + j0..r * n + j0 + jw];
            match self.bias {
                Some(bias) => {
                    let b = &bias[j0..j0 + jw];
                    if self.relu {
                        for (o, &bj) in row.iter_mut().zip(b) {
                            *o = (*o + bj).max(0.0);
                        }
                    } else {
                        for (o, &bj) in row.iter_mut().zip(b) {
                            *o += bj;
                        }
                    }
                }
                None => {
                    for o in row.iter_mut() {
                        *o = o.max(0.0);
                    }
                }
            }
        }
    }
}

/// Pre-packed f32 GEMM weights: the column panels
/// [`gemm_blocked_fused_rows`] would otherwise rebuild from the
/// row-major weight matrix on **every** dispatch, packed once and
/// reused. Packing is pure layout (columns past `n` zero-padded, like
/// the per-call path), so a prepacked product is bitwise identical to
/// an on-the-fly one.
///
/// The panel geometry depends on the resolved kernel path at pack time
/// (AVX-512 vs AVX2 widths; the scalar/portable tiers use no panels).
/// A consumer whose resolved path no longer matches simply ignores the
/// pack and falls back to per-call packing — same result, original
/// speed — so a mode flip via `EUGENE_SIMD`/[`set_simd_mode`] is safe,
/// never wrong.
pub struct PackedRhs {
    k: usize,
    n: usize,
    /// Panel width the pack was built for; 0 when the resolved path at
    /// pack time keeps no panels (scalar/portable tiers, non-x86 hosts).
    nr: usize,
    wide: bool,
    panels: AlignedVec<f32>,
}

impl std::fmt::Debug for PackedRhs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedRhs({}x{}, panel width {}, {} bytes)",
            self.k,
            self.n,
            self.nr,
            self.packed_bytes()
        )
    }
}

impl PackedRhs {
    /// Packs a row-major `k × n` weight slice for the currently
    /// resolved kernel path.
    pub fn pack(k: usize, n: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), k * n, "weight slice must be k*n");
        let inert = Self {
            k,
            n,
            nr: 0,
            wide: false,
            panels: AlignedVec::new(),
        };
        if k == 0 || n == 0 {
            return inert;
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            inert
        }
        #[cfg(target_arch = "x86_64")]
        {
            let (wide, nr) = match resolved_path() {
                ResolvedPath::SimdAvx512 => (true, NR_W),
                ResolvedPath::SimdAvx2 => (false, NR),
                ResolvedPath::ScalarLegacy | ResolvedPath::PortableFused => return inert,
            };
            let np = n.div_ceil(nr);
            // One `np * kc * nr` slab per k block, concatenated in
            // ascending-kb order (only the last block is short of KC).
            let mut total = 0;
            let mut kb = 0;
            while kb < k {
                total += np * KC.min(k - kb) * nr;
                kb += KC.min(k - kb);
            }
            let mut panels = AlignedVec::new();
            panels.ensure_len(total);
            let mut kb = 0;
            let mut off = 0;
            while kb < k {
                let kc = KC.min(k - kb);
                let block = np * kc * nr;
                pack_b_fused(
                    &mut panels.as_mut_slice()[off..off + block],
                    data,
                    kb,
                    kc,
                    n,
                    np,
                    nr,
                );
                off += block;
                kb += kc;
            }
            Self {
                k,
                n,
                nr,
                wide,
                panels,
            }
        }
    }

    /// `(k, n)` shape the pack was built from.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Heap bytes held by the packed panels (0 on panel-less tiers).
    pub fn packed_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// Whether this pack can feed a blocked kernel of the given width
    /// and shape directly.
    #[cfg(target_arch = "x86_64")]
    fn matches(&self, wide: bool, k: usize, n: usize) -> bool {
        self.nr != 0 && self.wide == wide && self.k == k && self.n == n
    }

    /// Where each panel of each k block starts, by the walk the blocked
    /// kernel makes (empty on panel-less tiers).
    #[cfg(test)]
    pub(crate) fn panel_ptrs(&self) -> Vec<*const f32> {
        let mut ptrs = Vec::new();
        if self.nr == 0 {
            return ptrs;
        }
        let np = self.n.div_ceil(self.nr);
        let (mut kb, mut pre_off) = (0, 0);
        while kb < self.k {
            let kc = KC.min(self.k - kb);
            ptrs.extend((0..np).map(|p| {
                self.panels
                    .as_ptr()
                    .wrapping_add(pre_off + p * kc * self.nr)
            }));
            pre_off += np * kc * self.nr;
            kb += kc;
        }
        ptrs
    }
}

#[cfg(target_arch = "x86_64")]
struct PackBufs {
    a: AlignedVec<f32>,
    b: AlignedVec<f32>,
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    static PACK_SCRATCH: std::cell::RefCell<PackBufs> = const {
        std::cell::RefCell::new(PackBufs {
            a: AlignedVec::new(),
            b: AlignedVec::new(),
        })
    };
}

/// Fused-tier GEMM: `out[m×n] += lhs[m×k] · rhs[k×n]`, all row-major,
/// with an optional pre-packed `rhs` (`prepacked`, ignored when its
/// geometry doesn't match the dispatch) and an optional fused epilogue
/// (`ep`, applied to every output element exactly once after its
/// accumulation completes). `isa` selects the implementation (caller
/// must have verified feature availability for the vector ISAs). All
/// three produce bitwise-identical results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_fused(
    m: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    isa: FusedIsa,
    small_flops: usize,
    parallel_min_flops: usize,
    prepacked: Option<&PackedRhs>,
    ep: Epilogue<'_>,
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(rhs.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // A k==0 product contributes nothing, but the epilogue still
        // applies (the layer-walk would add bias/relu to the zeros).
        ep.apply(out, n, 0, m, 0, n);
        return;
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    if isa == FusedIsa::Portable {
        // Portable twin: plain fused triple loop. Per-element math is a
        // fold of single-rounded mul_adds in ascending k — identical to
        // the vector kernels' per-lane computation for every shape.
        gemm_small_fused_portable(m, k, n, lhs, rhs, out);
        ep.apply(out, n, 0, m, 0, n);
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (flops, small_flops, parallel_min_flops, prepacked);
        gemm_small_fused_portable(m, k, n, lhs, rhs, out);
        ep.apply(out, n, 0, m, 0, n);
    }
    #[cfg(target_arch = "x86_64")]
    gemm_fused_vector(
        m,
        k,
        n,
        lhs,
        rhs,
        out,
        isa == FusedIsa::Avx512,
        flops,
        small_flops,
        parallel_min_flops,
        prepacked,
        ep,
    );
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn gemm_fused_vector(
    m: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    wide: bool,
    flops: usize,
    small_flops: usize,
    parallel_min_flops: usize,
    prepacked: Option<&PackedRhs>,
    ep: Epilogue<'_>,
) {
    // A pack built for another width/shape (e.g. after a mode flip) is
    // ignored, not trusted: the per-call packing path gives the same
    // bits at the original speed.
    let prepacked = prepacked.filter(|p| p.matches(wide, k, n));
    if flops <= small_flops {
        // SAFETY: the caller established AVX2+FMA availability for any
        // vector isa (avx512_available() implies it too).
        unsafe { gemm_small_fused_avx2(m, k, n, lhs, rhs, out) };
        ep.apply(out, n, 0, m, 0, n);
        return;
    }
    let mr = if wide { MR_W } else { MR };
    let threads = crate::pool::parallelism();
    if threads > 1 && flops >= parallel_min_flops && m >= 2 * mr {
        // Same split policy as the scalar tier: a few tile-aligned
        // chunks per thread so a straggler doesn't serialize the tail.
        let chunk_rows = m.div_ceil(threads * 4).max(mr).next_multiple_of(mr);
        crate::pool::parallel_chunks_mut(out, chunk_rows * n, threads, |chunk, out_chunk| {
            let row0 = chunk * chunk_rows;
            let rows = out_chunk.len() / n;
            gemm_blocked_fused_rows(row0, rows, k, n, lhs, rhs, out_chunk, wide, prepacked, ep);
        });
        return;
    }
    gemm_blocked_fused_rows(0, m, k, n, lhs, rhs, out, wide, prepacked, ep);
}

/// Cache-blocked packed vector path over `rows` rows starting at
/// `row0`. `out` holds exactly those rows. Safe wrapper: does all the
/// packing, delegating tiles to the unsafe width-specific kernels.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_fused_rows(
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    wide: bool,
    prepacked: Option<&PackedRhs>,
    ep: Epilogue<'_>,
) {
    if rows == 0 {
        return;
    }
    let (mr, nr) = if wide { (MR_W, NR_W) } else { (MR, NR) };
    let np = n.div_ceil(nr);
    PACK_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let PackBufs { a, b } = &mut *scratch;
        let mut kb = 0;
        // Byte-for-byte the same panel layout whether read from the
        // prepack (offset pre_off walks its concatenated k blocks) or
        // rebuilt per call.
        let mut pre_off = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            let last = kb + kc == k;
            let bbase = match prepacked {
                Some(p) => {
                    debug_assert!(pre_off + np * kc * nr <= p.panels.len());
                    // SAFETY: pre_off stays within the pack's panel
                    // buffer (same block walk as pack time).
                    unsafe { p.panels.as_ptr().add(pre_off) }
                }
                None => {
                    b.ensure_len(np * kc * nr);
                    pack_b_fused(b.as_mut_slice(), rhs, kb, kc, n, np, nr);
                    b.as_ptr()
                }
            };
            debug_assert!(is_panel_aligned(bbase));
            let mut i = 0;
            while i < rows {
                let tile_rows = mr.min(rows - i);
                a.ensure_len(kc * mr);
                pack_a_fused(a.as_mut_slice(), lhs, k, row0 + i, tile_rows, kb, kc, mr);
                let abase = a.as_ptr();
                debug_assert!(is_panel_aligned(abase));
                for p in 0..np {
                    let j0 = p * nr;
                    let jw = nr.min(n - j0);
                    // SAFETY: panels hold kc*mr and kc*nr packed
                    // elements; tile bounds are checked here; ISA
                    // availability was established by the caller of
                    // gemm_fused.
                    unsafe {
                        let bpanel = bbase.add(p * kc * nr);
                        if tile_rows == mr && jw == nr {
                            let c = out.as_mut_ptr().add(i * n + j0);
                            if wide {
                                micro_kernel_8x32_avx512(abase, kc, bpanel, c, n);
                            } else {
                                micro_kernel_4x16_avx2(abase, kc, bpanel, c, n);
                            }
                        } else if wide {
                            micro_kernel_edge_avx512(
                                abase, kc, bpanel, out, i, j0, tile_rows, jw, n,
                            );
                        } else {
                            micro_kernel_edge_avx2(abase, kc, bpanel, out, i, j0, tile_rows, jw, n);
                        }
                    }
                    // The micro-kernel tail: once this tile's
                    // accumulation is complete (final k block), fold
                    // the elementwise chain in while the tile is still
                    // cache-hot.
                    if last {
                        ep.apply(out, n, i, tile_rows, j0, jw);
                    }
                }
                i += mr;
            }
            if prepacked.is_some() {
                pre_off += np * kc * nr;
            }
            kb += kc;
        }
    });
}

/// Packs `rhs[kb..kb+kc, :]` into `np` column panels of `nr` columns,
/// k-major within each panel: `b[p*kc*nr + kk*nr + j]`. Columns past n
/// are zero-padded (their outputs are discarded — padding columns is
/// bitwise-safe, unlike padding k).
#[cfg(target_arch = "x86_64")]
fn pack_b_fused(b: &mut [f32], rhs: &[f32], kb: usize, kc: usize, n: usize, np: usize, nr: usize) {
    for p in 0..np {
        let j0 = p * nr;
        let jw = nr.min(n - j0);
        let panel = &mut b[p * kc * nr..(p + 1) * kc * nr];
        for kk in 0..kc {
            let src = &rhs[(kb + kk) * n + j0..(kb + kk) * n + j0 + jw];
            let dst = &mut panel[kk * nr..kk * nr + nr];
            dst[..jw].copy_from_slice(src);
            dst[jw..].fill(0.0);
        }
    }
}

/// Packs `tile_rows` rows of `lhs` (starting at `row`) over `kb..kb+kc`
/// into k-major layout `a[kk*mr + r]`. Rows past `tile_rows` are
/// zero-padded; their outputs land in discarded tile lanes.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn pack_a_fused(
    a: &mut [f32],
    lhs: &[f32],
    k: usize,
    row: usize,
    tile_rows: usize,
    kb: usize,
    kc: usize,
    mr: usize,
) {
    for kk in 0..kc {
        let dst = &mut a[kk * mr..kk * mr + mr];
        for (r, slot) in dst.iter_mut().enumerate() {
            *slot = if r < tile_rows {
                lhs[(row + r) * k + kb + kk]
            } else {
                0.0
            };
        }
    }
}

/// The 8×32 AVX-512F micro-kernel: `c[8×32] += apanel[kc×8] ·
/// bpanel[kc×32]` with `c` rows `stride` elements apart. Sixteen
/// independent zmm accumulator chains; each output lane sees exactly
/// one `vfmadd` per k step in ascending order — the same per-element
/// fold as the AVX2 kernel and the portable twin. The B panel is
/// software-prefetched [`PREFETCH_AHEAD_F32`] elements ahead.
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, `apanel`/`bpanel` hold
/// `kc*8` / `kc*32` elements (64-byte aligned), and `c` is valid for 8
/// rows of 32 f32 at `stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_8x32_avx512(
    apanel: *const f32,
    kc: usize,
    bpanel: *const f32,
    c: *mut f32,
    stride: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(is_line_aligned(apanel));
    debug_assert!(is_line_aligned(bpanel));
    let mut acc: [[__m512; 2]; MR_W] = [[_mm512_setzero_ps(); 2]; MR_W];
    for (r, row_acc) in acc.iter_mut().enumerate() {
        row_acc[0] = _mm512_loadu_ps(c.add(r * stride));
        row_acc[1] = _mm512_loadu_ps(c.add(r * stride + 16));
    }
    for kk in 0..kc {
        let bk = bpanel.add(kk * NR_W);
        // A k step reads two cache lines.
        prefetch_ahead(bk, PREFETCH_AHEAD_F32);
        prefetch_ahead(bk, PREFETCH_AHEAD_F32 + 16);
        let b0 = _mm512_load_ps(bk);
        let b1 = _mm512_load_ps(bk.add(16));
        for (r, row_acc) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*apanel.add(kk * MR_W + r));
            row_acc[0] = _mm512_fmadd_ps(a, b0, row_acc[0]);
            row_acc[1] = _mm512_fmadd_ps(a, b1, row_acc[1]);
        }
    }
    for (r, row_acc) in acc.iter().enumerate() {
        _mm512_storeu_ps(c.add(r * stride), row_acc[0]);
        _mm512_storeu_ps(c.add(r * stride + 16), row_acc[1]);
    }
}

/// Edge-tile wrapper for the AVX-512 kernel: stages the valid
/// `tile_rows × jw` C region into an aligned 8×32 temp, runs the full
/// kernel, and copies the valid region back (padding lanes are computed
/// and discarded).
///
/// # Safety
///
/// Same panel requirements as [`micro_kernel_8x32_avx512`]; `out` must
/// hold rows `i..i+tile_rows` with row stride `n` and `j0 + jw <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_edge_avx512(
    apanel: *const f32,
    kc: usize,
    bpanel: *const f32,
    out: &mut [f32],
    i: usize,
    j0: usize,
    tile_rows: usize,
    jw: usize,
    n: usize,
) {
    #[repr(align(64))]
    struct Tile([f32; MR_W * NR_W]);
    let mut tile = Tile([0.0; MR_W * NR_W]);
    for r in 0..tile_rows {
        let row = &out[(i + r) * n + j0..(i + r) * n + j0 + jw];
        tile.0[r * NR_W..r * NR_W + jw].copy_from_slice(row);
    }
    micro_kernel_8x32_avx512(apanel, kc, bpanel, tile.0.as_mut_ptr(), NR_W);
    for r in 0..tile_rows {
        let row = &mut out[(i + r) * n + j0..(i + r) * n + j0 + jw];
        row.copy_from_slice(&tile.0[r * NR_W..r * NR_W + jw]);
    }
}

/// The 4×16 AVX2/FMA micro-kernel: `c[4×16] += apanel[kc×4] ·
/// bpanel[kc×16]` with `c` rows `stride` elements apart. Eight
/// independent accumulator chains (4 rows × 2 vectors) hide the FMA
/// latency; each output lane sees exactly one `vfmaddps` per k step in
/// ascending order. Prefetches like [`micro_kernel_8x32_avx512`].
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available, `apanel`/`bpanel` hold
/// `kc*4` / `kc*16` elements (32-byte aligned), and `c` is valid for 4
/// rows of 16 f32 at `stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_4x16_avx2(
    apanel: *const f32,
    kc: usize,
    bpanel: *const f32,
    c: *mut f32,
    stride: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(is_panel_aligned(apanel));
    debug_assert!(is_panel_aligned(bpanel));
    let mut acc00 = _mm256_loadu_ps(c);
    let mut acc01 = _mm256_loadu_ps(c.add(8));
    let mut acc10 = _mm256_loadu_ps(c.add(stride));
    let mut acc11 = _mm256_loadu_ps(c.add(stride + 8));
    let mut acc20 = _mm256_loadu_ps(c.add(2 * stride));
    let mut acc21 = _mm256_loadu_ps(c.add(2 * stride + 8));
    let mut acc30 = _mm256_loadu_ps(c.add(3 * stride));
    let mut acc31 = _mm256_loadu_ps(c.add(3 * stride + 8));
    for kk in 0..kc {
        let bk = bpanel.add(kk * NR);
        // A k step reads one cache line.
        prefetch_ahead(bk, PREFETCH_AHEAD_F32);
        let b0 = _mm256_load_ps(bk);
        let b1 = _mm256_load_ps(bk.add(8));
        let a0 = _mm256_set1_ps(*apanel.add(kk * MR));
        let a1 = _mm256_set1_ps(*apanel.add(kk * MR + 1));
        let a2 = _mm256_set1_ps(*apanel.add(kk * MR + 2));
        let a3 = _mm256_set1_ps(*apanel.add(kk * MR + 3));
        acc00 = _mm256_fmadd_ps(a0, b0, acc00);
        acc01 = _mm256_fmadd_ps(a0, b1, acc01);
        acc10 = _mm256_fmadd_ps(a1, b0, acc10);
        acc11 = _mm256_fmadd_ps(a1, b1, acc11);
        acc20 = _mm256_fmadd_ps(a2, b0, acc20);
        acc21 = _mm256_fmadd_ps(a2, b1, acc21);
        acc30 = _mm256_fmadd_ps(a3, b0, acc30);
        acc31 = _mm256_fmadd_ps(a3, b1, acc31);
    }
    _mm256_storeu_ps(c, acc00);
    _mm256_storeu_ps(c.add(8), acc01);
    _mm256_storeu_ps(c.add(stride), acc10);
    _mm256_storeu_ps(c.add(stride + 8), acc11);
    _mm256_storeu_ps(c.add(2 * stride), acc20);
    _mm256_storeu_ps(c.add(2 * stride + 8), acc21);
    _mm256_storeu_ps(c.add(3 * stride), acc30);
    _mm256_storeu_ps(c.add(3 * stride + 8), acc31);
}

/// Edge-tile wrapper: stages the valid `quad × jw` C region into an
/// aligned 4×16 temp (padding lanes zeroed — their values are computed
/// and discarded), runs the full micro-kernel, and copies the valid
/// region back. Valid lanes see the exact same instruction sequence as
/// interior tiles, so edges stay bitwise-consistent.
///
/// # Safety
///
/// Same panel requirements as [`micro_kernel_4x16_avx2`]; `out` must
/// hold rows `i..i+quad` with row stride `n` and `j0 + jw <= n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_edge_avx2(
    apanel: *const f32,
    kc: usize,
    bpanel: *const f32,
    out: &mut [f32],
    i: usize,
    j0: usize,
    quad: usize,
    jw: usize,
    n: usize,
) {
    #[repr(align(64))]
    struct Tile([f32; MR * NR]);
    let mut tile = Tile([0.0; MR * NR]);
    for r in 0..quad {
        let row = &out[(i + r) * n + j0..(i + r) * n + j0 + jw];
        tile.0[r * NR..r * NR + jw].copy_from_slice(row);
    }
    micro_kernel_4x16_avx2(apanel, kc, bpanel, tile.0.as_mut_ptr(), NR);
    for r in 0..quad {
        let row = &mut out[(i + r) * n + j0..(i + r) * n + j0 + jw];
        row.copy_from_slice(&tile.0[r * NR..r * NR + jw]);
    }
}

/// Small-matrix fused path, AVX2+FMA codegen: the i-k-j loop with
/// `mul_add`, which LLVM vectorizes to `vfmaddps` under the target
/// features. Per-element semantics are identical to the portable twin
/// and the packed kernel: one fused round per k step, ascending k.
///
/// # Safety
///
/// Caller must ensure AVX2+FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_small_fused_avx2(
    m: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
) {
    gemm_small_fused_body(m, k, n, lhs, rhs, out);
}

/// Portable fused twin — the bitwise oracle for the whole SIMD tier.
pub(crate) fn gemm_small_fused_portable(
    m: usize,
    k: usize,
    n: usize,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
) {
    gemm_small_fused_body(m, k, n, lhs, rhs, out);
}

#[inline(always)]
fn gemm_small_fused_body(m: usize, k: usize, n: usize, lhs: &[f32], rhs: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let lrow = &lhs[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &a) in lrow.iter().enumerate() {
            let brow = &rhs[kk * n..(kk + 1) * n];
            for (o, &b) in orow.iter_mut().zip(brow) {
                *o = a.mul_add(b, *o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_fused(m: usize, k: usize, n: usize, lhs: &[f32], rhs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = lhs[i * k + kk].mul_add(rhs[kk * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

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

    #[test]
    fn vector_paths_match_portable_twin_bitwise() {
        let mut isas = Vec::new();
        if avx2_fma_available() {
            isas.push(FusedIsa::Avx2);
        }
        if avx512_available() {
            isas.push(FusedIsa::Avx512);
        }
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 256, 16),
            (5, 257, 17),
            (3, 300, 33),
            (8, 512, 19),
            (37, 301, 29),
            (12, 64, 16),
            (9, 280, 37),
            (16, 512, 64),
        ] {
            let lhs = fill(m as u64 * 31 + k as u64, m * k);
            let rhs = fill(n as u64 * 17 + 7, k * n);
            let mut portable = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut portable,
                FusedIsa::Portable,
                0,
                usize::MAX,
                None,
                Epilogue::default(),
            );
            for &isa in &isas {
                let mut simd = vec![0.0f32; m * n];
                gemm_fused(
                    m,
                    k,
                    n,
                    &lhs,
                    &rhs,
                    &mut simd,
                    isa,
                    0,
                    usize::MAX,
                    None,
                    Epilogue::default(),
                );
                for (idx, (a, b)) in simd.iter().zip(&portable).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{isa:?} ({m}x{k}x{n}) idx {idx}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_tier_matches_naive_fused_bitwise() {
        // The packed/blocked kernel preserves per-element ascending-k
        // single-rounded accumulation, so it equals the naive fused
        // triple loop bitwise — k-blocking must not reorder anything.
        for &(m, k, n) in &[(6usize, 520usize, 35usize), (4, 256, 16), (2, 513, 40)] {
            let lhs = fill(99 + m as u64, m * k);
            let rhs = fill(7 + n as u64, k * n);
            let expect = naive_fused(m, k, n, &lhs, &rhs);
            let isa = if avx512_available() {
                FusedIsa::Avx512
            } else if avx2_fma_available() {
                FusedIsa::Avx2
            } else {
                FusedIsa::Portable
            };
            let mut got = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut got,
                isa,
                0,
                usize::MAX,
                None,
                Epilogue::default(),
            );
            for (idx, (a, b)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "({m}x{k}x{n}) idx {idx}");
            }
        }
    }

    fn host_isa() -> FusedIsa {
        if avx512_available() {
            FusedIsa::Avx512
        } else if avx2_fma_available() {
            FusedIsa::Avx2
        } else {
            FusedIsa::Portable
        }
    }

    #[test]
    fn epilogue_matches_separate_passes_bitwise() {
        // Fusing bias+relu into the kernel tail must equal "gemm, then
        // add_row_broadcast, then max(0.0)" element for element — the
        // layer-walk contract the stage compiler relies on.
        let isa = host_isa();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (8, 512, 512), // forces the blocked path
            (5, 300, 37),  // edge tiles in both dimensions
            (2, 16, 9),    // small path
        ] {
            let lhs = fill(3 + m as u64, m * k);
            let rhs = fill(5 + n as u64, k * n);
            let bias = fill(11 + n as u64, n);
            let mut unfused = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut unfused,
                isa,
                0,
                usize::MAX,
                None,
                Epilogue::default(),
            );
            for row in unfused.chunks_exact_mut(n) {
                for (o, &b) in row.iter_mut().zip(&bias) {
                    *o += b;
                }
                for o in row.iter_mut() {
                    *o = o.max(0.0);
                }
            }
            let mut fused = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut fused,
                isa,
                0,
                usize::MAX,
                None,
                Epilogue {
                    bias: Some(&bias),
                    relu: true,
                },
            );
            for (idx, (a, b)) in fused.iter().zip(&unfused).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "({m}x{k}x{n}) idx {idx}");
            }
        }
    }

    #[test]
    fn prepacked_rhs_matches_on_the_fly_packing_bitwise() {
        let isa = host_isa();
        // `exact`: the panels fill their allocation to the last element
        // (`AlignedVec` rounds capacity up to a power of two), so in the
        // last panel of the last k block the kernels' prefetch address
        // leaves the allocation.
        for &(m, k, n, exact) in &[
            (8usize, 512usize, 512usize, true),
            (1, 1024, 1024, true),
            (3, 256, 64, true),
            (6, 520, 35, false),
            (3, 257, 48, false),
        ] {
            let lhs = fill(21 + m as u64, m * k);
            let rhs = fill(23 + n as u64, k * n);
            let pack = PackedRhs::pack(k, n, &rhs);
            assert_eq!(pack.shape(), (k, n));
            if exact && !pack.panels.is_empty() {
                assert!(
                    pack.panels.len().is_power_of_two(),
                    "({k}x{n}) pack was meant to fill its allocation"
                );
            }
            let mut plain = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut plain,
                isa,
                0,
                usize::MAX,
                None,
                Epilogue::default(),
            );
            let mut pre = vec![0.0f32; m * n];
            gemm_fused(
                m,
                k,
                n,
                &lhs,
                &rhs,
                &mut pre,
                isa,
                0,
                usize::MAX,
                Some(&pack),
                Epilogue::default(),
            );
            for (idx, (a, b)) in pre.iter().zip(&plain).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "({m}x{k}x{n}) idx {idx}");
            }
        }
    }

    #[test]
    fn epilogue_applies_even_when_k_is_zero() {
        // A degenerate k==0 product is all zeros, but the layer-walk
        // would still add bias and clamp — so must the fused path.
        let bias = [1.5f32, -2.0, 0.25];
        let mut out = vec![0.0f32; 2 * 3];
        gemm_fused(
            2,
            0,
            3,
            &[],
            &[],
            &mut out,
            host_isa(),
            0,
            usize::MAX,
            None,
            Epilogue {
                bias: Some(&bias),
                relu: true,
            },
        );
        assert_eq!(out, vec![1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
    }

    #[test]
    fn mode_resolution_is_pure() {
        // The global override is exercised (serially) by the
        // kernel_properties integration suite; here we only check the
        // pure resolution table so unit tests never flip process state.
        use ResolvedPath::*;
        assert_eq!(resolve(SimdMode::ForceScalar, true, true), ScalarLegacy);
        assert_eq!(resolve(SimdMode::ForceScalar, false, false), ScalarLegacy);
        assert_eq!(resolve(SimdMode::ForceSimd, true, true), SimdAvx512);
        assert_eq!(resolve(SimdMode::ForceSimd, false, true), SimdAvx2);
        assert_eq!(resolve(SimdMode::ForceSimd, false, false), PortableFused);
        assert_eq!(resolve(SimdMode::ForcePortable, true, true), PortableFused);
        assert_eq!(resolve(SimdMode::Auto, true, true), SimdAvx512);
        assert_eq!(resolve(SimdMode::Auto, false, true), SimdAvx2);
        assert_eq!(resolve(SimdMode::Auto, false, false), ScalarLegacy);
    }

    #[test]
    fn feature_report_is_consistent() {
        let feats = cpu_features();
        assert_eq!(avx2_fma_available(), feats.avx2 && feats.fma);
        let entries = feats.entries();
        assert_eq!(entries[0].0, "avx2");
        assert_eq!(entries.len(), 6);
    }
}
