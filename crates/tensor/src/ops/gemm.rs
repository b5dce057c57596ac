//! Cache-blocked, register-tiled f32 GEMM — the single kernel every matmul
//! variant in this crate lowers onto.
//!
//! The structure is the classical three-level blocking of Goto & van de
//! Geijn, specialised to the shapes PRIONN trains on:
//!
//! ```text
//! for j0 in 0..n step NC            // B column panel  (fits L3 / whole n)
//!   for p0 in 0..k step KC          // K block         (packed B fits L2)
//!     pack B[p0.., j0..]  -> bpack  // [kc x NR] strips, NR-contiguous
//!     for i0 in 0..m step MC        // A row panel     (packed A fits L1/L2)
//!       pack A[i0.., p0..] -> apack // [kc x MR] strips, MR-contiguous
//!       for each (MR x NR) tile: microkernel over kc, write back to C
//! ```
//!
//! * The 6×16 microkernel keeps a 6×16 accumulator block in registers
//!   (12 YMM registers on AVX2) and streams packed A/B strips through it.
//! * Transposed operands are handled at *pack time* ([`Layout`]): packing
//!   already walks every element once, so transposition is free and all
//!   three `matmul` variants share this one core.
//! * Row and column bias epilogues ([`Epilogue`]) are fused into the final
//!   write-back of the last K block, saving one full pass over C.
//! * Pack buffers live in a caller-provided [`GemmWorkspace`] so steady-state
//!   training never allocates; [`GemmStats`] records FLOPs and pack time for
//!   the telemetry gauges.
//!
//! Dispatch ([`KernelTier`], selected at runtime via
//! `is_x86_feature_detected!` and overridable with the `PRIONN_GEMM_KERNEL`
//! environment variable or [`force_kernel_tier`]):
//!
//! * **avx512** — an explicit AVX-512F microkernel that fuses two adjacent
//!   packed B strips into one 6×32 register tile (12 ZMM accumulators, one
//!   `_mm512_fmadd_ps` per strip per row per k-step).
//! * **avx2** — an explicit AVX2+FMA microkernel written with `std::arch`
//!   intrinsics (`_mm256_fmadd_ps` over 12 YMM accumulators).
//! * **portable** — the same block loop compiled for the baseline target;
//!   runs on any CPU and is the reference the SIMD tiers are tested against.
//!
//! Beside that loop nest sits a **skip-packing direct path**
//! ([`small_path_applies`]) that loads B tiles from a row-major operand:
//! for small problems, where pack overhead used to lose to the naive
//! kernel, and for any GEMM at most one row strip tall (`m ≤ MR`), where a
//! packed B element would be used at most `MR` times — the serving-batch
//! `Dense` forward.
//!
//! Every path accumulates an element of C as one chain per `KC` block
//! (fused multiply-add on the SIMD tiers, multiply then add on the portable
//! one), blocks added in order. So on a given tier the bits of C depend on
//! the operands alone: not on the path, not on `m`.

use crate::scratch::Scratch;
use rayon::prelude::*;
use std::time::Instant;

/// Microkernel tile rows (accumulator height).
pub const MR: usize = 6;
/// Microkernel tile columns (accumulator width; two 8-lane AVX2 vectors).
pub const NR: usize = 16;
/// Row-panel height (`MC × KC` packed A block, a multiple of [`MR`]).
pub const MC: usize = 72;
/// K-block depth (`KC × NR` packed B strips stream from L2).
pub const KC: usize = 256;
/// Column-panel width (a multiple of [`NR`]; covers every PRIONN layer).
pub const NC: usize = 4096;

/// Below this many FLOPs (about 200 µs of serial work) a split loses: the
/// caller finishes its half before a parked pool worker is awake to take
/// the other, then waits for it. Measured against the persistent pool on
/// 2 cores (avx512), a 2-way split ran 0.7–0.9× the serial kernel at 8e6
/// FLOPs, 1.1× at 1.7e7, 1.4× at 6.7e7 and 2.0× at 5.4e8.
const PAR_FLOP_THRESHOLD: f64 = 1.6e7;

/// How a logical `[rows, cols]` operand is laid out in its backing slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Stored row-major as `[rows, cols]`.
    RowMajor,
    /// Stored row-major as `[cols, rows]` — the logical matrix is the
    /// transpose of the stored one. Packing performs the transposition.
    Transposed,
}

/// An operation fused into the final write-back of C.
///
/// Bias slices are indexed by *global* output row/column, so they must have
/// at least `m` (row variants) or `n` (column variants) elements.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain `C = A·B` (or `C += A·B` in accumulate mode).
    None,
    /// `C[i,j] += bias[j]` — one bias per column (Dense forward).
    BiasCol(&'a [f32]),
    /// `C[i,j] += bias[i]` — one bias per row.
    BiasRow(&'a [f32]),
}

impl<'a> Epilogue<'a> {
    /// Rebase row-indexed biases for a C chunk starting at `row0` (used when
    /// row panels are distributed across workers).
    fn offset_rows(self, row0: usize) -> Self {
        match self {
            Epilogue::BiasRow(b) => Epilogue::BiasRow(&b[row0..]),
            other => other,
        }
    }

    fn check(&self, m: usize, n: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::BiasCol(b) => {
                assert!(b.len() >= n, "gemm: column bias shorter than n");
            }
            Epilogue::BiasRow(b) => {
                assert!(b.len() >= m, "gemm: row bias shorter than m");
            }
        }
    }
}

/// Per-workspace kernel counters, aggregated by [`Scratch::stats`]: every
/// GEMM, and the [`conv3x3`](crate::ops::conv3x3) kernels with zero pack
/// time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GemmStats {
    /// Number of GEMM calls that ran (or packed) through this workspace.
    pub calls: u64,
    /// Total floating-point operations issued (`2·m·n·k` per call).
    pub flops: f64,
    /// Wall time spent packing A/B panels.
    pub pack_seconds: f64,
    /// Total wall time of the GEMM calls driven from this workspace.
    pub total_seconds: f64,
    /// Times a pack buffer had to grow (zero once shapes have been seen).
    pub pack_grows: u64,
}

impl GemmStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &GemmStats) {
        self.calls += other.calls;
        self.flops += other.flops;
        self.pack_seconds += other.pack_seconds;
        self.total_seconds += other.total_seconds;
        self.pack_grows += other.pack_grows;
    }
}

/// Reusable pack buffers for one GEMM execution stream.
///
/// Buffers grow to the high-water mark of the shapes seen and are then
/// reused verbatim, so a training loop with fixed layer shapes performs
/// zero pack-buffer allocations after the first step.
#[derive(Debug, Default)]
pub struct GemmWorkspace {
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
    /// Kernel counters for this workspace.
    pub stats: GemmStats,
}

impl GemmWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        GemmWorkspace::default()
    }

    /// The two pack buffers at `a_len` / `b_len` floats, contents
    /// unspecified: where the [`conv3x3`](crate::ops::conv3x3) kernels stage
    /// their padded and transposed operands. Growth counts in `pack_grows`.
    pub(crate) fn buffers(&mut self, a_len: usize, b_len: usize) -> (&mut [f32], &mut [f32]) {
        for (buf, len) in [(&mut self.pack_a, a_len), (&mut self.pack_b, b_len)] {
            if buf.len() < len {
                ensure_len(buf, len, &mut self.stats.pack_grows);
            }
        }
        (&mut self.pack_a[..a_len], &mut self.pack_b[..b_len])
    }
}

/// FLOPs of one `m×n×k` GEMM (multiply + add per inner-product term).
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Resize a pack buffer, counting reallocations.
fn ensure_len(buf: &mut Vec<f32>, len: usize, grows: &mut u64) {
    if buf.capacity() < len {
        *grows += 1;
    }
    buf.resize(len, 0.0);
}

/// Pack an `mc × kc` block of A (rows `i0..`, depth `p0..`) into MR-wide
/// strips: `dst[strip][p][r]`, zero-padding the ragged last strip.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    p0: usize,
    mc: usize,
    kc: usize,
) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let base = s * kc * MR;
        let row0 = i0 + s * MR;
        let mr_eff = MR.min(i0 + mc - row0);
        match layout {
            Layout::RowMajor => {
                // Walk each source row contiguously and scatter into the
                // MR-strided strip: sequential reads + store-buffer-friendly
                // fixed-stride writes beat the strided-read transpose.
                let strip = &mut dst[base..base + kc * MR];
                if mr_eff < MR {
                    strip.fill(0.0);
                }
                for r in 0..mr_eff {
                    let src = &a[(row0 + r) * k + p0..(row0 + r) * k + p0 + kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * MR + r] = v;
                    }
                }
            }
            Layout::Transposed => {
                for p in 0..kc {
                    let out = &mut dst[base + p * MR..base + p * MR + MR];
                    // Stored [k, m]: logical A[i, p] lives at a[p*m + i].
                    let src = &a[(p0 + p) * m + row0..(p0 + p) * m + row0 + mr_eff];
                    out[..mr_eff].copy_from_slice(src);
                    for o in out.iter_mut().skip(mr_eff) {
                        *o = 0.0;
                    }
                }
            }
        }
    }
}

/// Pack a `kc × nc` block of B (depth `p0..`, columns `j0..`) into NR-wide
/// strips: `dst[strip][p][c]`, zero-padding the ragged last strip.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    dst: &mut [f32],
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    p0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
) {
    let strips = nc.div_ceil(NR);
    for t in 0..strips {
        let base = t * kc * NR;
        let col0 = j0 + t * NR;
        let nr_eff = NR.min(j0 + nc - col0);
        for p in 0..kc {
            let out = &mut dst[base + p * NR..base + p * NR + NR];
            match layout {
                Layout::RowMajor => {
                    let src = &b[(p0 + p) * n + col0..(p0 + p) * n + col0 + nr_eff];
                    out[..nr_eff].copy_from_slice(src);
                }
                Layout::Transposed => {
                    // Stored [n, k]: logical B[p, j] lives at b[j*k + p].
                    for (c, o) in out.iter_mut().enumerate().take(nr_eff) {
                        *o = b[(col0 + c) * k + (p0 + p)];
                    }
                }
            }
            for o in out.iter_mut().skip(nr_eff) {
                *o = 0.0;
            }
        }
    }
}

/// Rank-1-update microkernel of the portable tier: accumulate a full
/// `MR × NR` tile over `kc`, multiply then add (two roundings per step —
/// Rust never contracts them into an FMA).
#[inline(always)]
fn microkernel(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let av: &[f32; MR] = a[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = b[p * NR..p * NR + NR].try_into().unwrap();
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
}

/// Explicit AVX2+FMA microkernel: a full `MR × NR` tile over `kc` using
/// `std::arch` intrinsics.
///
/// Packed strips are zero-padded, so the kernel always sees complete 6×16
/// tiles: per k-step it issues two 8-lane B loads, six A broadcasts and
/// twelve `_mm256_fmadd_ps` into 12 resident YMM accumulators (15 of the 16
/// architectural YMM registers live). Ragged edges and epilogues are handled
/// by [`write_back`] on the spilled accumulator tile.
///
/// # Safety
/// The caller must have verified AVX2+FMA support, and `a`/`b` must hold at
/// least `kc * MR` / `kc * NR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b.len() >= kc * NR);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut lo = [_mm256_setzero_ps(); MR];
    let mut hi = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * NR));
        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
        for i in 0..MR {
            let ai = _mm256_broadcast_ss(&*ap.add(p * MR + i));
            lo[i] = _mm256_fmadd_ps(ai, b0, lo[i]);
            hi[i] = _mm256_fmadd_ps(ai, b1, hi[i]);
        }
    }
    for i in 0..MR {
        _mm256_storeu_ps(acc[i].as_mut_ptr(), lo[i]);
        _mm256_storeu_ps(acc[i].as_mut_ptr().add(8), hi[i]);
    }
}

/// Explicit AVX-512F microkernel over a *pair* of adjacent packed B strips:
/// one `MR × 2·NR` register tile (6×32), accumulated in 12 ZMM registers.
///
/// Each `NR = 16`-float strip is exactly one ZMM vector, so a strip pair
/// costs two loads plus six broadcasts per k-step and feeds twelve
/// `_mm512_fmadd_ps` — the same FMA-chain count as the AVX2 kernel but with
/// double the lanes. The packed-B format is unchanged; the pair is just two
/// consecutive strips of the existing layout.
///
/// # Safety
/// The caller must have verified AVX-512F support; `a` must hold at least
/// `kc * MR` elements and `b0`/`b1` at least `kc * NR` elements each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512_pair(
    kc: usize,
    a: &[f32],
    b0: &[f32],
    b1: &[f32],
    acc0: &mut [[f32; NR]; MR],
    acc1: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR && b0.len() >= kc * NR && b1.len() >= kc * NR);
    let ap = a.as_ptr();
    let b0p = b0.as_ptr();
    let b1p = b1.as_ptr();
    let mut c0 = [_mm512_setzero_ps(); MR];
    let mut c1 = [_mm512_setzero_ps(); MR];
    for p in 0..kc {
        let v0 = _mm512_loadu_ps(b0p.add(p * NR));
        let v1 = _mm512_loadu_ps(b1p.add(p * NR));
        for i in 0..MR {
            let ai = _mm512_set1_ps(*ap.add(p * MR + i));
            c0[i] = _mm512_fmadd_ps(ai, v0, c0[i]);
            c1[i] = _mm512_fmadd_ps(ai, v1, c1[i]);
        }
    }
    for i in 0..MR {
        _mm512_storeu_ps(acc0[i].as_mut_ptr(), c0[i]);
        _mm512_storeu_ps(acc1[i].as_mut_ptr(), c1[i]);
    }
}

/// Write one accumulator tile back to C, masking the ragged edges and
/// applying the fused epilogue when this is the last K block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn write_back(
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
    acc: &[[f32; NR]; MR],
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let off = (row0 + r) * ldc + col0;
        let crow = &mut c[off..off + nr_eff];
        for (cc, out) in crow.iter_mut().enumerate() {
            let mut v = acc_row[cc];
            if !overwrite {
                v += *out;
            }
            v = match epi {
                Epilogue::None => v,
                Epilogue::BiasCol(bias) => v + bias[col0 + cc],
                Epilogue::BiasRow(bias) => v + bias[row0 + r],
            };
            *out = v;
        }
    }
}

/// Vectorised write-back for a full-width (`nr_eff == NR`) accumulator
/// tile: two 8-lane vectors per row carry the accumulate and bias fusion,
/// replacing the scalar read-modify-write loop on the hot path.
///
/// # Safety
/// AVX2+FMA must be available and the tile must span full `NR` columns
/// inside `c`'s bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn write_back_avx2(
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    acc: &[[f32; NR]; MR],
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    use std::arch::x86_64::*;
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let cptr = c.as_mut_ptr().add((row0 + r) * ldc + col0);
        let mut v0 = _mm256_loadu_ps(acc_row.as_ptr());
        let mut v1 = _mm256_loadu_ps(acc_row.as_ptr().add(8));
        if !overwrite {
            v0 = _mm256_add_ps(v0, _mm256_loadu_ps(cptr));
            v1 = _mm256_add_ps(v1, _mm256_loadu_ps(cptr.add(8)));
        }
        match epi {
            Epilogue::None => {}
            Epilogue::BiasCol(bias) => {
                v0 = _mm256_add_ps(v0, _mm256_loadu_ps(bias.as_ptr().add(col0)));
                v1 = _mm256_add_ps(v1, _mm256_loadu_ps(bias.as_ptr().add(col0 + 8)));
            }
            Epilogue::BiasRow(bias) => {
                let br = _mm256_set1_ps(bias[row0 + r]);
                v0 = _mm256_add_ps(v0, br);
                v1 = _mm256_add_ps(v1, br);
            }
        }
        _mm256_storeu_ps(cptr, v0);
        _mm256_storeu_ps(cptr.add(8), v1);
    }
}

/// Tile write-back used from the explicit-SIMD block loops: vector path for
/// full-width tiles, scalar [`write_back`] for ragged column tails.
///
/// # Safety
/// AVX2+FMA must be available; bounds as for [`write_back`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn write_back_simd(
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
    acc: &[[f32; NR]; MR],
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    if nr_eff == NR {
        write_back_avx2(c, ldc, row0, col0, mr_eff, acc, overwrite, epi);
    } else {
        write_back(c, ldc, row0, col0, mr_eff, nr_eff, acc, overwrite, epi);
    }
}

/// Run every `MR × NR` tile of one packed `(mc × kc) · (kc × nc)` block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_loop_impl(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    let m_strips = mc.div_ceil(MR);
    let n_strips = nc.div_ceil(NR);
    for t in 0..n_strips {
        let bstrip = &bpack[t * kc * NR..(t + 1) * kc * NR];
        let col0 = j0 + t * NR;
        let nr_eff = NR.min(j0 + nc - col0);
        for s in 0..m_strips {
            let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
            let row0 = i0 + s * MR;
            let mr_eff = MR.min(i0 + mc - row0);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(kc, astrip, bstrip, &mut acc);
            write_back(c, ldc, row0, col0, mr_eff, nr_eff, &acc, overwrite, epi);
        }
    }
}

/// Explicit-intrinsics instantiation of the block loop: every full tile runs
/// [`microkernel_avx2`]; write-back (with edge masking and fused epilogues)
/// is shared with the portable path and inlines under the same features.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn block_loop_simd(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    let m_strips = mc.div_ceil(MR);
    let n_strips = nc.div_ceil(NR);
    for t in 0..n_strips {
        let bstrip = &bpack[t * kc * NR..(t + 1) * kc * NR];
        let col0 = j0 + t * NR;
        let nr_eff = NR.min(j0 + nc - col0);
        for s in 0..m_strips {
            let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
            let row0 = i0 + s * MR;
            let mr_eff = MR.min(i0 + mc - row0);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel_avx2(kc, astrip, bstrip, &mut acc);
            write_back_simd(c, ldc, row0, col0, mr_eff, nr_eff, &acc, overwrite, epi);
        }
    }
}

/// AVX-512 instantiation of the block loop: strip pairs run the 6×32
/// [`microkernel_avx512_pair`]; a ragged final strip falls back to the 6×16
/// AVX2 microkernel (AVX-512F implies AVX2+FMA on every shipping CPU, and
/// the dispatcher checks all three features anyway).
///
/// # Safety
/// The caller must have verified AVX-512F, AVX2 and FMA support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn block_loop_avx512(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    let m_strips = mc.div_ceil(MR);
    let n_strips = nc.div_ceil(NR);
    let mut t = 0usize;
    while t < n_strips {
        let col0 = j0 + t * NR;
        if t + 1 < n_strips {
            // Strip t is full width (a later strip exists); only strip t+1
            // can be ragged.
            let b0 = &bpack[t * kc * NR..(t + 1) * kc * NR];
            let b1 = &bpack[(t + 1) * kc * NR..(t + 2) * kc * NR];
            let col1 = col0 + NR;
            let nr1 = NR.min(j0 + nc - col1);
            for s in 0..m_strips {
                let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
                let row0 = i0 + s * MR;
                let mr_eff = MR.min(i0 + mc - row0);
                let mut acc0 = [[0.0f32; NR]; MR];
                let mut acc1 = [[0.0f32; NR]; MR];
                microkernel_avx512_pair(kc, astrip, b0, b1, &mut acc0, &mut acc1);
                write_back_avx2(c, ldc, row0, col0, mr_eff, &acc0, overwrite, epi);
                write_back_simd(c, ldc, row0, col1, mr_eff, nr1, &acc1, overwrite, epi);
            }
            t += 2;
        } else {
            let bstrip = &bpack[t * kc * NR..(t + 1) * kc * NR];
            let nr_eff = NR.min(j0 + nc - col0);
            for s in 0..m_strips {
                let astrip = &apack[s * kc * MR..(s + 1) * kc * MR];
                let row0 = i0 + s * MR;
                let mr_eff = MR.min(i0 + mc - row0);
                let mut acc = [[0.0f32; NR]; MR];
                microkernel_avx2(kc, astrip, bstrip, &mut acc);
                write_back_simd(c, ldc, row0, col0, mr_eff, nr_eff, &acc, overwrite, epi);
            }
            t += 1;
        }
    }
}

/// True when the AVX2+FMA block loops may be used (checked once per process).
#[cfg(target_arch = "x86_64")]
fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// True when the AVX-512 block loop may be used (checked once per process).
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
    })
}

/// Which GEMM inner-kernel implementation the dispatcher runs.
///
/// The effective tier is chosen per call from, in priority order: a
/// programmatic [`force_kernel_tier`] override, the `PRIONN_GEMM_KERNEL`
/// environment variable (`avx512` / `avx2` / `portable`, read
/// once), then runtime CPU-feature detection (best available tier).
/// Requesting a tier the CPU cannot run silently degrades to the best
/// supported one — forcing a tier can never make a correct program crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Explicit AVX-512F microkernel over B-strip pairs (6×32 ZMM tile).
    Avx512,
    /// Explicit AVX2+FMA `std::arch` microkernel (6×16 YMM tile).
    Avx2,
    /// Portable block loop compiled for the baseline target; runs anywhere.
    Portable,
}

impl KernelTier {
    /// Stable lower-case name (`avx512`, `avx2`, `portable`) —
    /// the same spelling `PRIONN_GEMM_KERNEL` accepts and the bench JSON
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx2 => "avx2",
            KernelTier::Portable => "portable",
        }
    }
}

/// Process-wide tier override set by [`force_kernel_tier`].
/// 0 = none, 1 = avx512, 2 = avx2, 3 = portable.
static TIER_OVERRIDE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Force every subsequent GEMM call in this process onto one kernel tier
/// (or restore automatic selection with `None`).
///
/// Intended for benches and parity tests that compare tiers inside one
/// process; the override still degrades to a supported tier on CPUs missing
/// the requested features. All tiers produce results within the
/// parity-suite tolerance of each other, so flipping this concurrently with
/// running GEMMs affects performance only, never correctness.
pub fn force_kernel_tier(tier: Option<KernelTier>) {
    let v = match tier {
        None => 0,
        Some(KernelTier::Avx512) => 1,
        Some(KernelTier::Avx2) => 2,
        Some(KernelTier::Portable) => 3,
    };
    TIER_OVERRIDE.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The tier requested by `PRIONN_GEMM_KERNEL`, if any (read once).
fn env_tier() -> Option<KernelTier> {
    use std::sync::OnceLock;
    static ENV: OnceLock<Option<KernelTier>> = OnceLock::new();
    *ENV.get_or_init(
        || match std::env::var("PRIONN_GEMM_KERNEL").ok()?.as_str() {
            "avx512" => Some(KernelTier::Avx512),
            "avx2" => Some(KernelTier::Avx2),
            "portable" => Some(KernelTier::Portable),
            other => {
                eprintln!(
                    "PRIONN_GEMM_KERNEL: unknown tier {other:?} ignored \
                     (expected avx512, avx2 or portable)"
                );
                None
            }
        },
    )
}

/// The kernel tier the dispatcher will actually run on this CPU.
pub fn kernel_tier() -> KernelTier {
    let requested = match TIER_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => Some(KernelTier::Avx512),
        2 => Some(KernelTier::Avx2),
        3 => Some(KernelTier::Portable),
        _ => env_tier(),
    };
    #[cfg(target_arch = "x86_64")]
    {
        let best = if avx512_available() {
            KernelTier::Avx512
        } else if avx2_fma_available() {
            KernelTier::Avx2
        } else {
            KernelTier::Portable
        };
        match requested {
            None => best,
            // Degrade an unsupported request to the best supported tier.
            Some(KernelTier::Avx512) if !avx512_available() => best,
            Some(KernelTier::Avx2) if !avx2_fma_available() => KernelTier::Portable,
            Some(t) => t,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = requested;
        KernelTier::Portable
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn run_block_loop(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    overwrite: bool,
    epi: Epilogue<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    match kernel_tier() {
        // SAFETY: kernel_tier only returns a SIMD tier after runtime
        // feature detection succeeded.
        KernelTier::Avx512 => unsafe {
            block_loop_avx512(apack, bpack, c, ldc, i0, j0, mc, nc, kc, overwrite, epi);
        },
        KernelTier::Avx2 => unsafe {
            block_loop_simd(apack, bpack, c, ldc, i0, j0, mc, nc, kc, overwrite, epi);
        },
        KernelTier::Portable => {
            block_loop_impl(apack, bpack, c, ldc, i0, j0, mc, nc, kc, overwrite, epi)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    block_loop_impl(apack, bpack, c, ldc, i0, j0, mc, nc, kc, overwrite, epi);
}

/// Upper bound on `n` for the skip-packing direct path when `m > MR`.
pub const SMALL_N_MAX: usize = 96;
/// Upper bound on `m` for the skip-packing direct path.
pub const SMALL_M_MAX: usize = 2 * MC;
/// Upper bound on `k` for the skip-packing direct path when `m > MR`.
pub const SMALL_K_MAX: usize = 2 * KC;

/// True when [`gemm`] will run the skip-packing direct path: B is row-major
/// (so its tile columns load straight from the operand) and either
///
/// * the whole problem is small (`m/n/k` within the `SMALL_*_MAX` bounds):
///   the operands already sit in cache and pack traffic is pure overhead —
///   it is what made 64³ matmuls lose to the naive kernel; or
/// * C is one row strip tall (`m <= MR`), whatever `n` and `k`: a packed B
///   element would be used at most `MR` times, so packing B costs a write
///   and a second read of the whole operand for nothing — the serving-batch
///   `Dense` forward, which is bound by streaming its weights.
///
/// Both paths accumulate in the same `KC` blocks, so which one served a
/// call never shows in the result.
pub fn small_path_applies(m: usize, n: usize, k: usize, lb: Layout) -> bool {
    lb == Layout::RowMajor
        && k > 0
        && (m <= MR || (m <= SMALL_M_MAX && n <= SMALL_N_MAX && k <= SMALL_K_MAX))
}

/// Accumulate one `mr_eff × nr_eff` tile over `kc` steps straight from the
/// unpacked operands (no A/B packing). Shared by the portable direct loop
/// and, with `FMA`, the ragged column tails of the SIMD one — fused there so
/// a tail element rounds exactly like the zero-padded lanes of the packed
/// microkernel.
///
/// `a_base` points at logical `A[row0, p0]`; consecutive tile rows are
/// `row_stride` apart and consecutive k steps `k_stride` apart, which
/// encodes both [`Layout`]s of A.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_tile_scalar<const FMA: bool>(
    kc: usize,
    n: usize,
    a_base: &[f32],
    row_stride: usize,
    k_stride: usize,
    b_col: &[f32],
    mr_eff: usize,
    nr_eff: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for p in 0..kc {
        let brow = &b_col[p * n..p * n + nr_eff];
        for (r, acc_row) in acc.iter_mut().enumerate().take(mr_eff) {
            let av = a_base[r * row_stride + p * k_stride];
            for (j, &bv) in brow.iter().enumerate() {
                acc_row[j] = if FMA {
                    av.mul_add(bv, acc_row[j])
                } else {
                    acc_row[j] + av * bv
                };
            }
        }
    }
}

/// A-addressing for the direct path: `(row_stride, k_stride, offset of
/// logical A[row0, p0])`.
#[inline(always)]
fn small_a_strides(
    la: Layout,
    m: usize,
    k: usize,
    row0: usize,
    p0: usize,
) -> (usize, usize, usize) {
    match la {
        Layout::RowMajor => (k, 1, row0 * k + p0),
        Layout::Transposed => (1, m, p0 * m + row0),
    }
}

/// Portable skip-packing loop over all `MR × NR` tiles of C, one `KC` block
/// of the inner dimension at a time (the packed kernel's accumulation
/// order).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn small_loop_impl(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let overwrite = p0 == 0 && !accumulate;
        let epi_here = if p0 + kc == k { epi } else { Epilogue::None };
        for row0 in (0..m).step_by(MR) {
            let mr_eff = MR.min(m - row0);
            let (row_stride, k_stride, a_off) = small_a_strides(la, m, k, row0, p0);
            for col0 in (0..n).step_by(NR) {
                let nr_eff = NR.min(n - col0);
                let mut acc = [[0.0f32; NR]; MR];
                small_tile_scalar::<false>(
                    kc,
                    n,
                    &a[a_off..],
                    row_stride,
                    k_stride,
                    &b[p0 * n + col0..],
                    mr_eff,
                    nr_eff,
                    &mut acc,
                );
                write_back(c, n, row0, col0, mr_eff, nr_eff, &acc, overwrite, epi_here);
            }
        }
    }
}

/// Explicit AVX2+FMA tile for the direct path: `MRE` full rows × 16 columns
/// accumulated over `kc` steps directly from the unpacked operands. `MRE`
/// is const so the accumulators stay in registers for every ragged row
/// count.
///
/// # Safety
/// AVX2+FMA must be available; `a_base` must cover `MRE` rows over `kc`
/// steps with the given strides and `b_col` must cover `kc` rows of stride
/// `n`, 16 floats each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn small_tile_avx2<const MRE: usize>(
    kc: usize,
    n: usize,
    a_base: *const f32,
    row_stride: usize,
    k_stride: usize,
    b_col: *const f32,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_ps(); MRE];
    let mut hi = [_mm256_setzero_ps(); MRE];
    for p in 0..kc {
        let bp = b_col.add(p * n);
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for r in 0..MRE {
            let ai = _mm256_broadcast_ss(&*a_base.add(r * row_stride + p * k_stride));
            lo[r] = _mm256_fmadd_ps(ai, b0, lo[r]);
            hi[r] = _mm256_fmadd_ps(ai, b1, hi[r]);
        }
    }
    for r in 0..MRE {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), lo[r]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), hi[r]);
    }
}

/// SIMD skip-packing loop: full-width tiles run [`small_tile_avx2`]
/// (specialised per ragged row count); column tails fall back to the fused
/// scalar tile. Write-back/epilogues are shared with every other path.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA, and
/// `a`/`b`/`c` must cover their logical `m×k` / `k×n` / `m×n` shapes
/// ([`check_operands`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn small_loop_avx2(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let overwrite = p0 == 0 && !accumulate;
        let epi_here = if p0 + kc == k { epi } else { Epilogue::None };
        for row0 in (0..m).step_by(MR) {
            let mr_eff = MR.min(m - row0);
            let (row_stride, k_stride, a_off) = small_a_strides(la, m, k, row0, p0);
            // SAFETY: `a_off` addresses logical A[row0, p0], inside `a`
            // because row0 < m, p0 < k and `a.len() >= m * k`.
            let a_base = a.as_ptr().add(a_off);
            for col0 in (0..n).step_by(NR) {
                let nr_eff = NR.min(n - col0);
                let mut acc = [[0.0f32; NR]; MR];
                if nr_eff == NR {
                    // SAFETY: the tile reads A[row0.., p0..p0 + kc] over
                    // `mr_eff` rows and B[p0..p0 + kc, col0..col0 + NR];
                    // row0 + mr_eff <= m, p0 + kc <= k and col0 + NR <= n
                    // keep both inside the lengths `check_operands` asserted.
                    let b_col = b.as_ptr().add(p0 * n + col0);
                    match mr_eff {
                        6 => small_tile_avx2::<6>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                        5 => small_tile_avx2::<5>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                        4 => small_tile_avx2::<4>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                        3 => small_tile_avx2::<3>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                        2 => small_tile_avx2::<2>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                        _ => small_tile_avx2::<1>(
                            kc, n, a_base, row_stride, k_stride, b_col, &mut acc,
                        ),
                    }
                } else {
                    small_tile_scalar::<true>(
                        kc,
                        n,
                        &a[a_off..],
                        row_stride,
                        k_stride,
                        &b[p0 * n + col0..],
                        mr_eff,
                        nr_eff,
                        &mut acc,
                    );
                }
                write_back_simd(c, n, row0, col0, mr_eff, nr_eff, &acc, overwrite, epi_here);
            }
        }
    }
}

/// Dispatch the skip-packing direct path onto the effective kernel tier.
#[allow(clippy::too_many_arguments)]
fn run_small_loop(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if matches!(kernel_tier(), KernelTier::Avx512 | KernelTier::Avx2) {
        // SAFETY: both explicit tiers imply AVX2+FMA per feature detection,
        // and `gemm` ran `check_operands` on these slices. The direct path
        // always uses the AVX2 tile: it is bound by loading B, not by FMA
        // width, so wider vectors buy nothing.
        unsafe {
            small_loop_avx2(m, n, k, a, la, b, c, accumulate, epi);
        }
        return;
    }
    small_loop_impl(m, n, k, a, la, b, c, accumulate, epi);
}

fn check_operands(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
    epi: &Epilogue<'_>,
) {
    assert!(a.len() >= m * k, "gemm: A slice shorter than m*k");
    assert!(b.len() >= k * n, "gemm: B slice shorter than k*n");
    assert!(c.len() >= m * n, "gemm: C slice shorter than m*n");
    epi.check(m, n);
}

/// Apply only the degenerate `k == 0` semantics: zero (or keep) C, then run
/// the epilogue.
fn gemm_k0(m: usize, n: usize, c: &mut [f32], accumulate: bool, epi: Epilogue<'_>) {
    if !accumulate {
        c[..m * n].fill(0.0);
    }
    for i in 0..m {
        let row = &mut c[i * n..(i + 1) * n];
        for (j, v) in row.iter_mut().enumerate() {
            *v = match epi {
                Epilogue::None => *v,
                Epilogue::BiasCol(bias) => *v + bias[j],
                Epilogue::BiasRow(bias) => *v + bias[i],
            };
        }
    }
}

/// The packed kernel: B and A panels are packed per `KC` block into `ws`,
/// then every `MR × NR` tile runs the microkernel.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    ws: &mut GemmWorkspace,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let first = p0 == 0;
            let last = p0 + kc == k;
            let tp = Instant::now();
            ensure_len(
                &mut ws.pack_b,
                nc.div_ceil(NR) * kc * NR,
                &mut ws.stats.pack_grows,
            );
            pack_b(&mut ws.pack_b, b, lb, k, n, p0, j0, kc, nc);
            ws.stats.pack_seconds += tp.elapsed().as_secs_f64();
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                let tp = Instant::now();
                ensure_len(
                    &mut ws.pack_a,
                    mc.div_ceil(MR) * kc * MR,
                    &mut ws.stats.pack_grows,
                );
                pack_a(&mut ws.pack_a, a, la, m, k, i0, p0, mc, kc);
                ws.stats.pack_seconds += tp.elapsed().as_secs_f64();
                let epi_here = if last { epi } else { Epilogue::None };
                run_block_loop(
                    &ws.pack_a,
                    &ws.pack_b,
                    c,
                    n,
                    i0,
                    j0,
                    mc,
                    nc,
                    kc,
                    first && !accumulate,
                    epi_here,
                );
            }
        }
    }
}

/// Serial blocked GEMM: `C = A·B` (or `C += A·B` with `accumulate`), with an
/// optional fused epilogue applied to the final value of C.
///
/// `a` is a logical `[m, k]` matrix and `b` a logical `[k, n]` matrix, each
/// interpreted through its [`Layout`]; `c` is `[m, n]` row-major. Slices may
/// be longer than required; the excess is ignored.
///
/// Which path runs — direct ([`small_path_applies`]) or packed — depends
/// only on `(m, n, k, lb)`, and both accumulate each element as one fused
/// chain per `KC` block, so a row of C has the same bits whether it was
/// computed alone or inside a taller call.
///
/// # Panics
/// Panics when a slice is shorter than its logical shape requires.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ws: &mut GemmWorkspace,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    check_operands(m, n, k, a, b, c, &epi);
    if m == 0 || n == 0 {
        return;
    }
    let t0 = Instant::now();
    if k == 0 {
        gemm_k0(m, n, c, accumulate, epi);
    } else if small_path_applies(m, n, k, lb) {
        run_small_loop(m, n, k, a, la, b, c, accumulate, epi);
    } else {
        gemm_packed(ws, m, n, k, a, la, b, lb, c, accumulate, epi);
    }
    ws.stats.calls += 1;
    ws.stats.flops += gemm_flops(m, n, k);
    ws.stats.total_seconds += t0.elapsed().as_secs_f64();
}

/// Blocked GEMM that distributes row panels across the compute pool when
/// the problem is large enough (and runs [`gemm`] serially otherwise).
///
/// Each worker packs A panels into its own [`GemmWorkspace`] from `scratch`;
/// the B panel is packed once and shared read-only. The parallel path
/// requires `n <= NC` (one column panel) — wider problems fall back to the
/// serial kernel, which handles any size.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel(
    scratch: &mut Scratch,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    let panels = m.div_ceil(MC);
    let groups = rayon::current_num_threads().min(panels);
    if groups <= 1 || n > NC || k == 0 || gemm_flops(m, n, k) < PAR_FLOP_THRESHOLD {
        gemm(
            scratch.gemm_mut(),
            m,
            n,
            k,
            a,
            la,
            b,
            lb,
            c,
            accumulate,
            epi,
        );
        return;
    }
    gemm_with_groups(scratch, groups, m, n, k, a, la, b, lb, c, accumulate, epi);
}

/// [`gemm_parallel`] with an explicit worker-group count (exposed so tests
/// can exercise the split path on any machine).
///
/// # Panics
/// Panics when `n > NC`, `k == 0`, `groups == 0`, or a slice is too short.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_groups(
    scratch: &mut Scratch,
    groups: usize,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    la: Layout,
    b: &[f32],
    lb: Layout,
    c: &mut [f32],
    accumulate: bool,
    epi: Epilogue<'_>,
) {
    assert!(groups > 0, "gemm: zero worker groups");
    assert!(
        n <= NC && k > 0,
        "gemm: grouped path needs n <= NC and k > 0"
    );
    check_operands(m, n, k, a, b, c, &epi);
    if m == 0 || n == 0 {
        return;
    }
    let panels = m.div_ceil(MC);
    let per_group = panels.div_ceil(groups);
    let (main, workers) = scratch.gemm_workspaces(groups);
    let t0 = Instant::now();
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let first = p0 == 0;
        let last = p0 + kc == k;
        let tp = Instant::now();
        ensure_len(
            &mut main.pack_b,
            n.div_ceil(NR) * kc * NR,
            &mut main.stats.pack_grows,
        );
        pack_b(&mut main.pack_b, b, lb, k, n, p0, 0, kc, n);
        main.stats.pack_seconds += tp.elapsed().as_secs_f64();
        let bpack: &[f32] = &main.pack_b;

        // Carve C into per-group row chunks (contiguous because n <= NC
        // means a single column panel spans the full row).
        let mut items: Vec<(usize, usize, &mut [f32], &mut GemmWorkspace)> =
            Vec::with_capacity(groups);
        let mut rest: &mut [f32] = &mut c[..m * n];
        let mut row = 0usize;
        for ws in workers.iter_mut() {
            if row == m {
                break;
            }
            let rows = (per_group * MC).min(m - row);
            let (chunk, tail) = rest.split_at_mut(rows * n);
            items.push((row, rows, chunk, ws));
            row += rows;
            rest = tail;
        }
        let epi_here = if last { epi } else { Epilogue::None };
        items.into_par_iter().for_each(|(row0, rows, cchunk, ws)| {
            let epi_local = epi_here.offset_rows(row0);
            for ii in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ii);
                let tp = Instant::now();
                ensure_len(
                    &mut ws.pack_a,
                    mc.div_ceil(MR) * kc * MR,
                    &mut ws.stats.pack_grows,
                );
                pack_a(&mut ws.pack_a, a, la, m, k, row0 + ii, p0, mc, kc);
                ws.stats.pack_seconds += tp.elapsed().as_secs_f64();
                run_block_loop(
                    &ws.pack_a,
                    bpack,
                    cchunk,
                    n,
                    ii,
                    0,
                    mc,
                    n,
                    kc,
                    first && !accumulate,
                    epi_local,
                );
            }
        });
    }
    main.stats.calls += 1;
    main.stats.flops += gemm_flops(m, n, k);
    main.stats.total_seconds += t0.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic values keep f32 accumulation error tiny.
        (0..len)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) % 17) as f32 / 8.0
                    - 1.0
            })
            .collect()
    }

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += aip * b[p * n + j];
                }
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                "element {idx}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn blocked_matches_naive_across_tail_shapes() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 1),
            (MC + 5, NR * 3 - 2, 97),
            (3, 200, 33),
            (1, 960, 128), // predict-shaped
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            let mut ws = GemmWorkspace::new();
            gemm(
                &mut ws,
                m,
                n,
                k,
                &a,
                Layout::RowMajor,
                &b,
                Layout::RowMajor,
                &mut c,
                false,
                Epilogue::None,
            );
            assert_close(&c, &naive(m, n, k, &a, &b));
        }
    }

    #[test]
    fn transposed_layouts_match_explicit_transposes() {
        let (m, n, k) = (13usize, 29usize, 21usize);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let want = naive(m, n, k, &a, &b);
        // A stored transposed as [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        // B stored transposed as [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut ws = GemmWorkspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm(
            &mut ws,
            m,
            n,
            k,
            &at,
            Layout::Transposed,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::None,
        );
        assert_close(&c, &want);
        c.fill(7.0);
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &bt,
            Layout::Transposed,
            &mut c,
            false,
            Epilogue::None,
        );
        assert_close(&c, &want);
    }

    #[test]
    fn accumulate_adds_onto_existing_c() {
        let (m, n, k) = (9usize, 17usize, 40usize);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let base = fill(m * n, 7);
        let mut c = base.clone();
        let mut ws = GemmWorkspace::new();
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            true,
            Epilogue::None,
        );
        let want: Vec<f32> = naive(m, n, k, &a, &b)
            .iter()
            .zip(&base)
            .map(|(x, y)| x + y)
            .collect();
        assert_close(&c, &want);
    }

    #[test]
    fn epilogues_apply_bias_once() {
        let (m, n, k) = (7usize, 19usize, KC + 3); // spans two K blocks
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let bias_col = fill(n, 10);
        let bias_row = fill(m, 11);
        let plain = naive(m, n, k, &a, &b);
        let mut ws = GemmWorkspace::new();

        let mut c = vec![0.0f32; m * n];
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::BiasCol(&bias_col),
        );
        let want: Vec<f32> = plain
            .iter()
            .enumerate()
            .map(|(i, v)| v + bias_col[i % n])
            .collect();
        assert_close(&c, &want);

        let mut c = vec![0.0f32; m * n];
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::BiasRow(&bias_row),
        );
        let want: Vec<f32> = plain
            .iter()
            .enumerate()
            .map(|(i, v)| v + bias_row[i / n])
            .collect();
        assert_close(&c, &want);
    }

    #[test]
    fn k0_zeroes_or_keeps_c_and_applies_bias() {
        let mut ws = GemmWorkspace::new();
        let mut c = vec![3.0f32; 6];
        let bias = [1.0f32, -2.0, 0.5];
        gemm(
            &mut ws,
            2,
            3,
            0,
            &[],
            Layout::RowMajor,
            &[],
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::BiasCol(&bias),
        );
        assert_eq!(c, vec![1.0, -2.0, 0.5, 1.0, -2.0, 0.5]);
    }

    #[test]
    fn small_path_matches_naive_for_both_a_layouts() {
        // Shapes inside the skip-packing envelope (n <= SMALL_N_MAX),
        // including ragged tiles and the 64^3 size that used to regress.
        for &(m, n, k) in &[
            (64usize, 64usize, 64usize),
            (1, 96, 200),
            (7, 13, 5),
            (SMALL_M_MAX, SMALL_N_MAX, 31),
            (50, 17, SMALL_K_MAX),
        ] {
            assert!(small_path_applies(m, n, k, Layout::RowMajor));
            let a = fill(m * k, 21);
            let b = fill(k * n, 22);
            let bias = fill(n, 23);
            let want: Vec<f32> = naive(m, n, k, &a, &b)
                .iter()
                .enumerate()
                .map(|(i, v)| v + bias[i % n])
                .collect();
            let mut at = vec![0.0f32; m * k];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut ws = GemmWorkspace::new();
            for (operand, layout) in [(&a, Layout::RowMajor), (&at, Layout::Transposed)] {
                let mut c = vec![0.0f32; m * n];
                gemm(
                    &mut ws,
                    m,
                    n,
                    k,
                    operand,
                    layout,
                    &b,
                    Layout::RowMajor,
                    &mut c,
                    false,
                    Epilogue::BiasCol(&bias),
                );
                assert_close(&c, &want);
            }
            // The small path packs nothing, so the workspace buffers never
            // grow.
            assert_eq!(
                ws.stats.pack_grows, 0,
                "{m}x{n}x{k} packed despite small path"
            );
        }
    }

    #[test]
    fn grouped_split_matches_serial() {
        let (m, n, k) = (MC * 2 + 11, 130usize, KC + 17);
        let a = fill(m * k, 12);
        let b = fill(k * n, 13);
        let bias = fill(m, 14);
        let mut serial = vec![0.0f32; m * n];
        let mut ws = GemmWorkspace::new();
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut serial,
            false,
            Epilogue::BiasRow(&bias),
        );
        for groups in [1usize, 2, 3, 7] {
            let mut scratch = Scratch::new();
            let mut c = vec![0.0f32; m * n];
            gemm_with_groups(
                &mut scratch,
                groups,
                m,
                n,
                k,
                &a,
                Layout::RowMajor,
                &b,
                Layout::RowMajor,
                &mut c,
                false,
                Epilogue::BiasRow(&bias),
            );
            assert_close(&c, &serial);
        }
    }

    #[test]
    fn stats_record_flops_and_pack_time() {
        let mut ws = GemmWorkspace::new();
        // n > SMALL_N_MAX so the call runs the packed block loop rather
        // than the skip-packing small path.
        let (m, n, k) = (64usize, 128, 64);
        let a = fill(m * k, 15);
        let b = fill(k * n, 16);
        let mut c = vec![0.0f32; m * n];
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::None,
        );
        assert_eq!(ws.stats.calls, 1);
        assert_eq!(ws.stats.flops, gemm_flops(m, n, k));
        assert!(ws.stats.total_seconds > 0.0);
        assert!(ws.stats.pack_seconds <= ws.stats.total_seconds);
        assert_eq!(ws.stats.pack_grows, 2); // one grow per pack buffer
        let before = ws.stats.pack_grows;
        gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::None,
        );
        assert_eq!(ws.stats.pack_grows, before, "steady state must not grow");
    }
}
