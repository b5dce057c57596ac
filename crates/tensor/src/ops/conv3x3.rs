//! Direct kernels for every 3×3, stride-1, pad-1 convolution ([`applies`]):
//! the forward `y = W∗x + b`, the filter gradient `dW += dY ⋆ x` and the
//! input gradient `dX`, with no cols matrix, GEMM panel or `col2im`; and
//! the bias gradient `db += Σ dY` of any convolution ([`bias_grad`]).
//!
//! Each kernel stages one zero-padded operand (the image, or `dY`) in the
//! workspace's pack buffers, then reads its rows straight into registers: a
//! tile of output channels × rows × one vector of `N` consecutive columns
//! (forward, `dX`), or of the nine taps × output-channel vectors (`dW`, from
//! a transposed `dYᵀ`), a masked tail where the width is not a multiple of
//! `N`. Where two samples' output channels fit one vector, `dW` takes the
//! samples in pairs, lane `2o + s` holding channel `o` of sample `s`.
//!
//! The kernels return the bits of the GEMM lowering every other geometry
//! runs (`im2col_into` + `gemm` for `y` and `dW`, `gemm` + `col2im_into`
//! for `dX`), because each replays that lowering's per-element operation
//! sequence:
//!
//! * **forward** — one multiply-add chain from zero over the taps in
//!   `(c, ky, kx)` order, padding zeros multiplied like any other cols entry,
//!   folded every [`KC`] taps as `chain + y`, then `+ bias`;
//! * **filter gradient** — one chain from zero per [`KC`] block of output
//!   positions (row-major), then `+ dW`, sample after sample: a pair's
//!   second sample keeps its block chains aside and folds them in block
//!   order once the first sample's are all in;
//! * **input gradient** — per tap an `out_c`-long chain from zero, added in
//!   `(ky, kx)` order onto `+0`; a tap whose `dY` position lies outside the
//!   output is skipped, exactly as `col2im` skips it, never multiplied as
//!   padding (so a ±inf filter tap cannot turn a border pixel into NaN);
//! * **bias gradient** — one add chain per channel over the positions in
//!   order, sample after sample, eight channels to a vector.
//!
//! The multiply-add is fused on the avx512 / avx2 tiers and `acc + a·b` on
//! the portable one, matching each tier's GEMM microkernel; the tier is
//! [`kernel_tier`], so forcing one picks these kernels' tier too.

use crate::ops::gemm::{gemm_flops, kernel_tier, GemmWorkspace, KernelTier, KC};
use crate::ops::im2col::Conv2dGeom;
use std::ops::Range;
use std::time::Instant;

/// True when `g` is a 3×3, stride-1, pad-1 convolution: the geometries
/// these kernels take, at any size and channel count.
pub fn applies(g: &Conv2dGeom) -> bool {
    (g.kernel_h, g.kernel_w, g.stride, g.pad_h, g.pad_w) == (3, 3, 1, 1, 1)
}

/// `y = W ∗ x + b` for one `[C, H, W]` sample: `w` is `[out_c, C·9]`,
/// `bias` `[out_c]` (which sets `out_c`), `y` `[out_c, H, W]`, overwritten.
///
/// # Panics
/// Panics when `g` is not a geometry [`applies`] takes or a slice has the
/// wrong length.
pub fn forward(
    ws: &mut GemmWorkspace,
    g: &Conv2dGeom,
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    y: &mut [f32],
) {
    let out_c = bias.len();
    let tier = kernel_tier();
    let s = Shape::new(g, out_c, lanes(tier));
    assert_eq!(w.len(), out_c * s.k, "conv3x3: W is not out_c × C·9");
    assert_eq!(x.len(), s.c * s.hw(), "conv3x3: x is not C·H·W long");
    assert_eq!(y.len(), out_c * s.hw(), "conv3x3: y is not out_c·H·W long");
    let t0 = Instant::now();
    let (xp, _) = ws.buffers(s.c * s.plane, 0);
    pad_planes(tier, x, &s, xp);
    // SAFETY: the asserts above and `pad_planes` establish the lengths
    // `forward_impl` documents, for the lanes of the one `tier` read above;
    // `kernel_tier` only names a SIMD tier after runtime detection found its
    // features.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::forward_avx512(&s, w, bias, xp, y),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::forward_avx2(&s, w, bias, xp, y),
            _ => forward_impl::<Portable, 4, 1>(&s, w, bias, xp, y),
        }
    }
    record(ws, &s, 1, t0);
}

/// `dW += dY ⋆ x` over a run of samples, in order: `dy` holds their
/// `[out_c, H, W]` output gradients and `x` their `[C, H, W]` inputs, back
/// to back; `dw` is `[out_c, C·9]` (which, with `dy`, sets `out_c`).
///
/// When two samples' channels fit one vector of the tier (`2·out_c` ≤ 16
/// on avx512, ≤ 8 otherwise), the samples go through the kernel in pairs
/// and an odd last one alone; the bits are those of one sample at a time.
///
/// # Panics
/// Panics when `g` is not a geometry [`applies`] takes or a slice has the
/// wrong length.
pub fn filter_grad(ws: &mut GemmWorkspace, g: &Conv2dGeom, dy: &[f32], x: &[f32], dw: &mut [f32]) {
    let tier = kernel_tier();
    let lanes = lanes(tier);
    let k = g.in_channels * 9;
    let out_c = dw.len() / k;
    let s = Shape::new(g, out_c, lanes);
    assert_eq!(dw.len(), out_c * k, "conv3x3: dW is not out_c × C·9");
    let (x_len, dy_len) = (s.c * s.hw(), out_c * s.hw());
    let samples = x.len() / x_len;
    assert_eq!(
        x.len(),
        samples * x_len,
        "conv3x3: x is not samples × C·H·W"
    );
    assert_eq!(
        dy.len(),
        samples * dy_len,
        "conv3x3: dY is not samples × out_c·H·W"
    );
    let t0 = Instant::now();
    let paired = if 2 * out_c <= lanes {
        samples / 2 * 2
    } else {
        0
    };
    // dYᵀ is staged one `KC` block of positions at a time, in rows of whole
    // vectors: `out_c` channels of one sample, or `2·out_c` interleaved
    // channels of two, rounded up. The extra lanes are computed from zeros
    // and never stored. A pair's second sample parks its block chains after
    // them.
    if paired > 0 {
        let later = s.hw().div_ceil(KC) * s.k * out_c;
        let (xp, rest) = ws.buffers(2 * s.c * s.plane, KC * lanes + later);
        let (dyt, later) = rest.split_at_mut(KC * lanes);
        if lanes > 2 * out_c {
            dyt.fill(0.0);
        }
        for (x, dy) in x[..paired * x_len]
            .chunks_exact(2 * x_len)
            .zip(dy.chunks_exact(2 * dy_len))
        {
            // SAFETY: as in `forward`, for the lengths
            // `filter_grad_pair_impl` documents.
            unsafe {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx512 => {
                        x86::filter_grad_pair_avx512(&s, dy, x, dyt, xp, later, dw)
                    }
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => x86::filter_grad_pair_avx2(&s, dy, x, dyt, xp, later, dw),
                    _ => filter_grad_pair_impl::<Portable, 4>(&s, dy, x, dyt, xp, later, dw),
                }
            }
        }
    }
    if samples > paired {
        let ld = out_c.next_multiple_of(lanes);
        let (xp, dyt) = ws.buffers(s.c * s.plane, KC * ld);
        if ld > out_c {
            dyt.fill(0.0);
        }
        for (x, dy) in x
            .chunks_exact(x_len)
            .zip(dy.chunks_exact(dy_len))
            .skip(paired)
        {
            pad_planes(tier, x, &s, xp);
            // SAFETY: as in `forward`, for the lengths `filter_grad_impl`
            // documents.
            unsafe {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx512 => x86::filter_grad_avx512(&s, dy, ld, dyt, xp, dw),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => x86::filter_grad_avx2(&s, dy, ld, dyt, xp, dw),
                    _ => filter_grad_impl::<Portable, 4>(&s, dy, ld, dyt, xp, dw),
                }
            }
        }
    }
    record(ws, &s, samples, t0);
}

/// `db += Σ dY` over a run of samples, for a convolution of any geometry:
/// `dy` holds their `[db.len(), n_pos]` output gradients back to back. Each
/// channel is one add chain over its positions in order, sample after
/// sample, so the bits are those of the plain scalar loop.
///
/// # Panics
/// Panics when `dy` is not a whole number of `[db.len(), n_pos]` samples.
pub fn bias_grad(dy: &[f32], n_pos: usize, db: &mut [f32]) {
    let sample = db.len() * n_pos;
    assert!(
        if sample == 0 {
            dy.is_empty()
        } else {
            dy.len().is_multiple_of(sample)
        },
        "conv3x3: dY is not samples × out_c·positions"
    );
    // SAFETY: the assert above establishes the lengths `bias_grad_impl`
    // documents; `kernel_tier` only names a SIMD tier after runtime
    // detection found its features, and avx512 implies avx2.
    unsafe {
        match kernel_tier() {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 | KernelTier::Avx2 => x86::bias_grad_avx2(dy, n_pos, db),
            _ => bias_grad_impl::<Portable>(dy, n_pos, db),
        }
    }
}

/// `dX` for one sample: `w` is `[out_c, C·9]`, `dy` `[out_c, H, W]`, `dx`
/// `[C, H, W]`, overwritten.
///
/// # Panics
/// Panics when `g` is not a geometry [`applies`] takes or a slice has the
/// wrong length.
pub fn input_grad(ws: &mut GemmWorkspace, g: &Conv2dGeom, w: &[f32], dy: &[f32], dx: &mut [f32]) {
    let tier = kernel_tier();
    let k = g.in_channels * 9;
    let out_c = w.len() / k;
    let s = Shape::new(g, out_c, lanes(tier));
    assert_eq!(w.len(), out_c * k, "conv3x3: W is not out_c × C·9");
    assert_eq!(
        dy.len(),
        out_c * s.hw(),
        "conv3x3: dY is not out_c·H·W long"
    );
    assert_eq!(dx.len(), s.c * s.hw(), "conv3x3: dX is not C·H·W long");
    let t0 = Instant::now();
    let (dyp, _) = ws.buffers(out_c * s.plane, 0);
    pad_planes(tier, dy, &s, dyp);
    // SAFETY: as in `forward`, for the lengths `input_grad_impl` documents.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::input_grad_avx512(&s, w, dyp, dx),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::input_grad_avx2(&s, w, dyp, dx),
            _ => input_grad_impl::<Portable, 2, 1>(&s, w, dyp, dx),
        }
    }
    record(ws, &s, 1, t0);
}

/// Vector width of `tier`'s kernels: 16 on avx512, else 8. A call reads
/// the tier once, since the padded layout depends on it.
fn lanes(tier: KernelTier) -> usize {
    match tier {
        KernelTier::Avx512 => 16,
        KernelTier::Avx2 | KernelTier::Portable => 8,
    }
}

/// Count a kernel call over `samples` samples in the workspace's GEMM
/// counters as that many calls: each sample's `2·out_c·C·9·H·W` FLOPs, and
/// the wall time, with no pack time.
fn record(ws: &mut GemmWorkspace, s: &Shape, samples: usize, t0: Instant) {
    ws.stats.calls += samples as u64;
    ws.stats.flops += samples as f64 * gemm_flops(s.out_c, s.hw(), s.k);
    ws.stats.total_seconds += t0.elapsed().as_secs_f64();
}

/// One sample's sizes, as the tile loops see them.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Input channels.
    c: usize,
    /// Image (and output) height.
    h: usize,
    /// Image (and output) width.
    w: usize,
    /// Output channels.
    out_c: usize,
    /// Taps per output channel, `c · 9`.
    k: usize,
    /// Row stride of a padded plane: a zero column on the left, then enough
    /// columns that a full vector read at any tile column stays in the row.
    pw: usize,
    /// Length of a padded plane, `(h + 2) · pw`.
    plane: usize,
}

impl Shape {
    fn new(g: &Conv2dGeom, out_c: usize, lanes: usize) -> Shape {
        assert!(applies(g), "conv3x3: not a 3x3 / stride 1 / pad 1 geometry");
        let pw = g.in_w.next_multiple_of(lanes) + 2;
        Shape {
            c: g.in_channels,
            h: g.in_h,
            w: g.in_w,
            out_c,
            k: g.in_channels * 9,
            pw,
            plane: (g.in_h + 2) * pw,
        }
    }

    fn hw(&self) -> usize {
        self.h * self.w
    }
}

/// Copy `[planes, h, w]` into `dst` as zero-bordered planes of `s.plane`
/// floats: pixel `(y, x)` of plane `p` lands at `p·plane + (y+1)·pw + x+1`.
/// Each float is written once: the image, or a zero of the one-pixel ring
/// and the slack columns right of it.
fn pad_planes(tier: KernelTier, src: &[f32], s: &Shape, dst: &mut [f32]) {
    // SAFETY: `pad_planes_impl` reads and writes only inside the planes it
    // is given; `tier` is the one `s` was built for.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::pad_planes_avx512(src, s, dst),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::pad_planes_avx2(src, s, dst),
            _ => pad_planes_impl::<Portable>(src, s, dst),
        }
    }
}

/// [`pad_planes`] a vector at a time: each padded row is written with
/// whole vectors from a masked load of the image row, so the ring costs no
/// extra pass and no `memset` call per row.
///
/// # Safety
/// `V`'s features are available and `s` was built with `V::N` lanes.
#[inline(always)]
unsafe fn pad_planes_impl<V: Lanes>(src: &[f32], s: &Shape, dst: &mut [f32]) {
    for (plane, dst) in src.chunks_exact(s.hw()).zip(dst.chunks_exact_mut(s.plane)) {
        dst[..s.pw].fill(0.0);
        dst[(s.h + 1) * s.pw..].fill(0.0);
        for (row, dst) in plane
            .chunks_exact(s.w)
            .zip(dst[s.pw..].chunks_exact_mut(s.pw))
        {
            // Padded column x holds image column x − 1, for x in 1..=w.
            let at = row.as_ptr().wrapping_sub(1);
            for x0 in (0..s.pw).step_by(V::N) {
                let image = usize::from(x0 == 0)..(s.w + 1).saturating_sub(x0).min(V::N);
                V::load_span(at.wrapping_add(x0), image)
                    .store_first(dst.as_mut_ptr().add(x0), V::N.min(s.pw - x0));
            }
        }
    }
}

/// One vector register of `N` f32 lanes, as the tile loops use it.
/// `mul_add` is the tier's GEMM multiply-add: fused on SIMD, `acc + a·b`
/// (two roundings) on the portable tier.
///
/// # Safety
/// Every method runs only where the implementing tier's features were
/// detected, and a pointer method touches only what it names (`N` floats
/// at `p`, the first `n` of them for `*_first`, those in `lanes` for
/// `load_span`, two for `splat2`, `R` vectors for `load_rows`, an 8×8 block
/// for `transpose8` and one at each source for `transpose8_pair`, eight
/// floats at each source and sixteen at `dst` for `interleave8`), which the
/// caller keeps inside its buffers.
trait Lanes: Copy {
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(p: *const f32) -> Self;
    /// `p[0], p[1]` repeated across the lanes: one 64-bit broadcast.
    unsafe fn splat2(p: *const f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn load_first(p: *const f32, n: usize) -> Self;
    /// Lanes `lanes` from `p`, zero elsewhere. `p` itself may lie outside
    /// the buffer; only the lanes in `lanes` are read.
    unsafe fn load_span(p: *const f32, lanes: Range<usize>) -> Self;
    unsafe fn store_first(self, p: *mut f32, n: usize);
    /// `self + a·b`.
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    /// `self + b`.
    unsafe fn add(self, b: Self) -> Self;
    /// `self + b` in the lanes whose bit is set in `mask`, `self` elsewhere.
    unsafe fn add_lanes(self, b: Self, mask: u32) -> Self;
    /// Write the transpose of the 8×8 block at `src` (rows `ss` apart) to
    /// `dst` (rows `ds` apart).
    unsafe fn transpose8(src: *const f32, ss: usize, dst: *mut f32, ds: usize);
    /// Write `a[0], b[0], a[1], b[1], …, a[7], b[7]` to `dst`.
    unsafe fn interleave8(a: *const f32, b: *const f32, dst: *mut f32);

    /// For each column `j` of the 8×8 blocks at `a` and `b` (rows `ss`
    /// apart), write `a[0][j], b[0][j], …, a[7][j], b[7][j]` as row `j` of
    /// `dst` (rows `ds` apart): two [`transpose8`](Lanes::transpose8)s
    /// through a stack tile, then [`interleave8`](Lanes::interleave8).
    #[inline(always)]
    unsafe fn transpose8_pair(a: *const f32, b: *const f32, ss: usize, dst: *mut f32, ds: usize) {
        let mut tiles = [[0.0f32; 64]; 2];
        Self::transpose8(a, ss, tiles[0].as_mut_ptr(), 8);
        Self::transpose8(b, ss, tiles[1].as_mut_ptr(), 8);
        for j in 0..8 {
            Self::interleave8(
                tiles[0].as_ptr().add(8 * j),
                tiles[1].as_ptr().add(8 * j),
                dst.add(j * ds),
            );
        }
    }

    /// `R` vectors at `p`, `stride` floats apart.
    #[inline(always)]
    unsafe fn load_rows<const R: usize>(p: *const f32, stride: usize) -> [Self; R] {
        let mut rows = [Self::zero(); R];
        for (r, v) in rows.iter_mut().enumerate() {
            *v = Self::load(p.add(r * stride));
        }
        rows
    }
}

/// The portable tier's vector: eight lanes of plain Rust arithmetic, which
/// never contracts `acc + a*b` into a fused multiply-add.
#[derive(Clone, Copy)]
struct Portable([f32; 8]);

impl Lanes for Portable {
    const N: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> Self {
        Portable([0.0; 8])
    }

    #[inline(always)]
    unsafe fn splat(p: *const f32) -> Self {
        Portable([*p; 8])
    }

    #[inline(always)]
    unsafe fn splat2(p: *const f32) -> Self {
        Portable(std::array::from_fn(|i| *p.add(i % 2)))
    }

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Portable(std::ptr::read_unaligned(p.cast::<[f32; 8]>()))
    }

    #[inline(always)]
    unsafe fn load_first(p: *const f32, n: usize) -> Self {
        let mut v = [0.0; 8];
        std::ptr::copy_nonoverlapping(p, v.as_mut_ptr(), n);
        Portable(v)
    }

    #[inline(always)]
    unsafe fn load_span(p: *const f32, lanes: Range<usize>) -> Self {
        Portable(std::array::from_fn(|l| {
            if lanes.contains(&l) {
                *p.wrapping_add(l)
            } else {
                0.0
            }
        }))
    }

    #[inline(always)]
    unsafe fn store_first(self, p: *mut f32, n: usize) {
        std::ptr::copy_nonoverlapping(self.0.as_ptr(), p, n);
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        Portable(std::array::from_fn(|i| self.0[i] + a.0[i] * b.0[i]))
    }

    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        Portable(std::array::from_fn(|i| self.0[i] + b.0[i]))
    }

    #[inline(always)]
    unsafe fn add_lanes(self, b: Self, mask: u32) -> Self {
        Portable(std::array::from_fn(|i| {
            if mask >> i & 1 == 1 {
                self.0[i] + b.0[i]
            } else {
                self.0[i]
            }
        }))
    }

    #[inline(always)]
    unsafe fn transpose8(src: *const f32, ss: usize, dst: *mut f32, ds: usize) {
        for i in 0..8 {
            for j in 0..8 {
                *dst.add(j * ds + i) = *src.add(i * ss + j);
            }
        }
    }

    #[inline(always)]
    unsafe fn interleave8(a: *const f32, b: *const f32, dst: *mut f32) {
        for i in 0..8 {
            *dst.add(2 * i) = *a.add(i);
            *dst.add(2 * i + 1) = *b.add(i);
        }
    }
}

/// The forward over every tile: `OC` output channels × `R` output rows ×
/// one vector of columns, remainders in 1-channel / 1-row tiles.
///
/// # Safety
/// `V`'s features are available; `w` is `out_c·k`, `bias` `out_c`, `xp`
/// `c` padded planes and `y` `out_c·h·w` floats, for `s` built with
/// `V::N` lanes.
#[inline(always)]
unsafe fn forward_impl<V: Lanes, const OC: usize, const R: usize>(
    s: &Shape,
    w: &[f32],
    bias: &[f32],
    xp: &[f32],
    y: &mut [f32],
) {
    let (w, bias, xp, y) = (w.as_ptr(), bias.as_ptr(), xp.as_ptr(), y.as_mut_ptr());
    for oy0 in (0..s.h).step_by(R) {
        let rows = R.min(s.h - oy0);
        for x0 in (0..s.w).step_by(V::N) {
            let n = V::N.min(s.w - x0);
            let mut o0 = 0;
            while o0 < s.out_c {
                let oc = if s.out_c - o0 >= OC { OC } else { 1 };
                for r0 in (0..rows).step_by(if rows == R { R } else { 1 }) {
                    // Tap (0, 0) of output (oy, ox) is padded pixel (oy, ox).
                    let xt = xp.add((oy0 + r0) * s.pw + x0);
                    let wt = w.add(o0 * s.k);
                    let yt = y.add(o0 * s.hw() + (oy0 + r0) * s.w + x0);
                    match (oc == OC, rows == R) {
                        (true, true) => forward_tile::<V, OC, R>(s, wt, bias.add(o0), xt, yt, n),
                        (true, false) => forward_tile::<V, OC, 1>(s, wt, bias.add(o0), xt, yt, n),
                        (false, true) => forward_tile::<V, 1, R>(s, wt, bias.add(o0), xt, yt, n),
                        (false, false) => forward_tile::<V, 1, 1>(s, wt, bias.add(o0), xt, yt, n),
                    }
                }
                o0 += oc;
            }
        }
    }
}

/// One forward tile: `y[o][r][0..n] = fold(chain over taps) + bias[o]`.
/// `w` points at row `o0` of W, `xp` at the tile's padded origin, `y` at
/// output `(o0, oy0, x0)`.
///
/// # Safety
/// As [`forward_impl`], which keeps every tile inside the buffers.
#[inline(always)]
unsafe fn forward_tile<V: Lanes, const OC: usize, const R: usize>(
    s: &Shape,
    w: *const f32,
    bias: *const f32,
    xp: *const f32,
    y: *mut f32,
    n: usize,
) {
    let mut acc = [[V::zero(); R]; OC];
    let mut folded = false;
    let mut p = 0;
    for c in 0..s.c {
        for ky in 0..3 {
            let row = xp.add(c * s.plane + ky * s.pw);
            for kx in 0..3 {
                let xv = V::load_rows::<R>(row.add(kx), s.pw);
                for (o, acc_o) in acc.iter_mut().enumerate() {
                    let wv = V::splat(w.add(o * s.k + p));
                    for (a, &xr) in acc_o.iter_mut().zip(&xv) {
                        *a = a.mul_add(wv, xr);
                    }
                }
                p += 1;
                if p % KC == 0 && p < s.k {
                    // A GEMM K block ends: y = chain, or chain + y.
                    for (o, acc_o) in acc.iter_mut().enumerate() {
                        for (r, a) in acc_o.iter_mut().enumerate() {
                            let dst = y.add(o * s.hw() + r * s.w);
                            let v = if folded {
                                a.add(V::load_first(dst, n))
                            } else {
                                *a
                            };
                            v.store_first(dst, n);
                            *a = V::zero();
                        }
                    }
                    folded = true;
                }
            }
        }
    }
    for (o, acc_o) in acc.iter().enumerate() {
        let b = V::splat(bias.add(o));
        for (r, &a) in acc_o.iter().enumerate() {
            let dst = y.add(o * s.hw() + r * s.w);
            let v = if folded {
                a.add(V::load_first(dst, n))
            } else {
                a
            };
            v.add(b).store_first(dst, n);
        }
    }
}

/// The filter gradient over every `KC` block of positions, channel and
/// vector of output channels.
///
/// # Safety
/// `V`'s features are available; `dy` is `out_c·h·w` floats, `dyt` `KC`
/// rows of `ld` floats (`ld` a multiple of `V::N`, at least `out_c`, the
/// lanes from `out_c` zero), `xp` `c` padded planes and `dw` `out_c·k`
/// floats, for `s` built with `V::N` lanes.
#[inline(always)]
unsafe fn filter_grad_impl<V: Lanes, const P: usize>(
    s: &Shape,
    dy: &[f32],
    ld: usize,
    dyt: &mut [f32],
    xp: &[f32],
    dw: &mut [f32],
) {
    for q0 in (0..s.hw()).step_by(KC) {
        let q1 = (q0 + KC).min(s.hw());
        stage_dyt::<V>(s, dy, q0..q1, dyt, ld);
        for c in 0..s.c {
            for o0 in (0..s.out_c).step_by(V::N) {
                let acc = filter_grad_chains::<V, P, 1>(s, ld, dyt, xp, c, o0, q0..q1);
                // dW = chain + dW for the output channels that exist (16:
                // the widest vector).
                let mut lanes = [0.0f32; 16];
                for (t, a) in acc.iter().enumerate() {
                    a.store_first(lanes.as_mut_ptr(), V::N);
                    for (o, &chain) in (o0..s.out_c).zip(&lanes[..V::N]) {
                        dw[o * s.k + c * 9 + t] += chain;
                    }
                }
            }
        }
    }
}

/// The filter gradient of two samples, `a` then `b`, in one pass: lane
/// `2o + s` of every vector holds output channel `o` of sample `s`. Each
/// `KC` block's chain of `a` folds into `dW` as it ends, as in
/// [`filter_grad_impl`]; `b`'s waits in `later` and folds, block by block,
/// after all of `a`'s, so every `dW` element sees the sequence of two
/// one-sample calls.
///
/// # Safety
/// `V`'s features are available; `2·out_c <= V::N`; `dy` is `2·out_c·h·w`
/// floats, `x` `2·c·h·w`, `dyt` `KC` rows of `V::N` floats (the lanes from
/// `2·out_c` zero), `xp` `2·c` padded planes, `later` `ceil(h·w / KC)·k·out_c`
/// and `dw` `out_c·k` floats, for `s` built with `V::N` lanes.
#[inline(always)]
unsafe fn filter_grad_pair_impl<V: Lanes, const P: usize>(
    s: &Shape,
    dy: &[f32],
    x: &[f32],
    dyt: &mut [f32],
    xp: &mut [f32],
    later: &mut [f32],
    dw: &mut [f32],
) {
    stage_pair_image::<V>(s, x, xp);
    let xp = &*xp;
    let blocks = (0..s.hw())
        .step_by(KC)
        .zip(later.chunks_exact_mut(s.k * s.out_c));
    for (q0, later) in blocks {
        let q1 = (q0 + KC).min(s.hw());
        stage_pair_dyt::<V>(s, dy, q0..q1, dyt);
        for c in 0..s.c {
            let acc = filter_grad_chains::<V, P, 2>(s, V::N, dyt, xp, c, 0, q0..q1);
            let mut lanes = [0.0f32; 16];
            for (t, a) in acc.iter().enumerate() {
                a.store_first(lanes.as_mut_ptr(), V::N);
                let at = c * 9 + t;
                for (o, ab) in lanes[..2 * s.out_c].chunks_exact(2).enumerate() {
                    dw[o * s.k + at] += ab[0];
                    later[at * s.out_c + o] = ab[1];
                }
            }
        }
    }
    for block in later.chunks_exact(s.k * s.out_c) {
        for (at, chains) in block.chunks_exact(s.out_c).enumerate() {
            for (o, &chain) in chains.iter().enumerate() {
                dw[o * s.k + at] += chain;
            }
        }
    }
}

/// Stage a pair's images for [`filter_grad_pair_impl`]: padded, and
/// interleaved pixel by pixel (float `2i + s` of `xp` is padded pixel `i`
/// of sample `s`), only the one-pixel ring and the slack columns zeroed.
///
/// # Safety
/// As [`filter_grad_pair_impl`].
#[inline(always)]
unsafe fn stage_pair_image<V: Lanes>(s: &Shape, x: &[f32], xp: &mut [f32]) {
    let (xa, xb) = x.split_at(s.c * s.hw());
    for ((a, b), plane) in xa
        .chunks_exact(s.hw())
        .zip(xb.chunks_exact(s.hw()))
        .zip(xp.chunks_exact_mut(2 * s.plane))
    {
        plane[..2 * s.pw].fill(0.0);
        plane[2 * (s.h + 1) * s.pw..].fill(0.0);
        let rows = plane[2 * s.pw..].chunks_exact_mut(2 * s.pw);
        for ((a, b), row) in a.chunks_exact(s.w).zip(b.chunks_exact(s.w)).zip(rows) {
            zero_row_padding::<2>(row, s.w);
            let w8 = s.w / 8 * 8;
            for i in (0..w8).step_by(8) {
                V::interleave8(
                    a.as_ptr().add(i),
                    b.as_ptr().add(i),
                    row.as_mut_ptr().add(2 * (i + 1)),
                );
            }
            for i in w8..s.w {
                row[2 * (i + 1)] = a[i];
                row[2 * (i + 1) + 1] = b[i];
            }
        }
    }
}

/// Zero the padding of one padded row of `PX`-float pixels: its left pixel
/// and the slack right of its `w` image pixels. The left pixel and the
/// first slack pixel are stored float by float; the rest of the slack,
/// there only when `w` leaves a vector part-filled, is filled. (A `fill` of
/// one pixel is a `memset` call, which costs as much as the row's copy.)
#[inline(always)]
fn zero_row_padding<const PX: usize>(row: &mut [f32], w: usize) {
    let (left, image) = row.split_at_mut(PX);
    let (first, rest) = image[PX * w..].split_at_mut(PX);
    for (l, f) in left.iter_mut().zip(first) {
        *l = 0.0;
        *f = 0.0;
    }
    if !rest.is_empty() {
        rest.fill(0.0);
    }
}

/// Stage a pair's `dY` at the positions `qs` for [`filter_grad_pair_impl`]:
/// `dyt[(q − qs.start)·N + 2o + s] = dY_s[o][q]`, through paired 8×8
/// transposes where eight channels and positions are whole, the ragged
/// edges one float at a time.
///
/// # Safety
/// As [`filter_grad_pair_impl`], with `qs` inside the image.
#[inline(always)]
unsafe fn stage_pair_dyt<V: Lanes>(s: &Shape, dy: &[f32], qs: Range<usize>, dyt: &mut [f32]) {
    let (hw, ld) = (s.hw(), V::N);
    let (o8, q8) = (s.out_c / 8 * 8, qs.start + qs.len() / 8 * 8);
    let samples = dy.split_at(s.out_c * hw);
    for o0 in (0..o8).step_by(8) {
        for q0 in (qs.start..q8).step_by(8) {
            V::transpose8_pair(
                samples.0.as_ptr().add(o0 * hw + q0),
                samples.1.as_ptr().add(o0 * hw + q0),
                hw,
                dyt.as_mut_ptr().add((q0 - qs.start) * ld + 2 * o0),
                ld,
            );
        }
    }
    for (si, d) in [samples.0, samples.1].into_iter().enumerate() {
        for o in 0..s.out_c {
            let from = if o < o8 { q8 } else { qs.start };
            for q in from..qs.end {
                dyt[(q - qs.start) * ld + 2 * o + si] = d[o * hw + q];
            }
        }
    }
}

/// Stage one sample's `dY` at the positions `qs` for [`filter_grad_impl`]:
/// `dyt[(q − qs.start)·ld + o] = dY[o][q]`, 8×8 blocks in registers, the
/// ragged edges one float at a time.
///
/// # Safety
/// As [`filter_grad_impl`], with `qs` inside the image.
#[inline(always)]
unsafe fn stage_dyt<V: Lanes>(s: &Shape, dy: &[f32], qs: Range<usize>, dyt: &mut [f32], ld: usize) {
    let hw = s.hw();
    let (o8, q8) = (s.out_c / 8 * 8, qs.start + qs.len() / 8 * 8);
    for o0 in (0..o8).step_by(8) {
        for q0 in (qs.start..q8).step_by(8) {
            V::transpose8(
                dy.as_ptr().add(o0 * hw + q0),
                hw,
                dyt.as_mut_ptr().add((q0 - qs.start) * ld + o0),
                ld,
            );
        }
    }
    for o in 0..s.out_c {
        let from = if o < o8 { q8 } else { qs.start };
        for q in from..qs.end {
            dyt[(q - qs.start) * ld + o] = dy[o * hw + q];
        }
    }
}

/// The nine taps of channel `c` × one vector of output channels from `o0`:
/// one chain each over the positions `qs`, taken `P` at a time inside an
/// output row so that an image value loaded once feeds up to three taps.
/// `S` is the samples per vector: 1, or 2 for the interleaved planes of a
/// pair, whose pixel pairs are broadcast whole.
///
/// # Safety
/// As [`filter_grad_impl`] or [`filter_grad_pair_impl`], which keep
/// `o0 + N <= ld` and `qs` inside the image.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn filter_grad_chains<V: Lanes, const P: usize, const S: usize>(
    s: &Shape,
    ld: usize,
    dyt: &[f32],
    xp: &[f32],
    c: usize,
    o0: usize,
    qs: Range<usize>,
) -> [V; 9] {
    let mut acc = [V::zero(); 9];
    let (mut oy, mut ox) = (qs.start / s.w, qs.start % s.w);
    let xc = xp.as_ptr().add(S * c * s.plane);
    let pixel = |p: *const f32| if S == 2 { V::splat2(p) } else { V::splat(p) };
    let mut q = qs.start;
    while q < qs.end {
        let dq = dyt.as_ptr().add((q - qs.start) * ld + o0);
        // Tap (ky, kx) of output (oy, ox) is padded pixel (oy + ky, ox + kx).
        let base = xc.add(S * (oy * s.pw + ox));
        let step = if ox + P <= s.w && q + P <= qs.end {
            let dv = V::load_rows::<P>(dq, ld);
            // Position-major, so consecutive multiply-adds feed nine
            // independent chains.
            for (j, &d) in dv.iter().enumerate() {
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = a.mul_add(pixel(base.add(S * (t / 3 * s.pw + t % 3 + j))), d);
                }
            }
            P
        } else {
            let d = V::load(dq);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = a.mul_add(pixel(base.add(S * (t / 3 * s.pw + t % 3))), d);
            }
            1
        };
        q += step;
        ox += step;
        if ox == s.w {
            ox = 0;
            oy += 1;
        }
    }
    acc
}

/// The bias gradient, eight channels to a vector: per sample, each 8×8
/// block of `dY` (channels × positions) is transposed into a stack tile
/// and its position rows added in order onto the channels' sums; positions
/// left over from whole blocks are gathered one column at a time, and
/// channels left over from whole vectors sum one float at a time.
///
/// # Safety
/// `V`'s features are available and `V::N` is 8; `dy` is a whole number of
/// `db.len()·n_pos`-float samples.
#[inline(always)]
unsafe fn bias_grad_impl<V: Lanes>(dy: &[f32], n_pos: usize, db: &mut [f32]) {
    let out_c = db.len();
    if out_c * n_pos == 0 {
        return;
    }
    let (o8, q8) = (out_c / 8 * 8, n_pos / 8 * 8);
    let mut tile = [0.0f32; 64];
    for o0 in (0..o8).step_by(8) {
        let mut sum = V::load(db.as_ptr().add(o0));
        for d in dy.chunks_exact(out_c * n_pos) {
            let rows = d.as_ptr().add(o0 * n_pos);
            for q0 in (0..q8).step_by(8) {
                V::transpose8(rows.add(q0), n_pos, tile.as_mut_ptr(), 8);
                for p in 0..8 {
                    sum = sum.add(V::load(tile.as_ptr().add(8 * p)));
                }
            }
            for q in q8..n_pos {
                let column: [f32; 8] = std::array::from_fn(|l| *rows.add(l * n_pos + q));
                sum = sum.add(V::load(column.as_ptr()));
            }
        }
        sum.store_first(db.as_mut_ptr().add(o0), 8);
    }
    for (o, b) in db.iter_mut().enumerate().skip(o8) {
        for d in dy.chunks_exact(out_c * n_pos) {
            for &v in &d[o * n_pos..(o + 1) * n_pos] {
                *b += v;
            }
        }
    }
}

/// The input gradient over every tile: `CB` input channels × `R` rows ×
/// one vector of columns, remainders in 1-channel / 1-row tiles.
///
/// # Safety
/// `V`'s features are available; `w` is `out_c·k`, `dyp` `out_c` padded
/// planes and `dx` `c·h·w` floats, for `s` built with `V::N` lanes.
#[inline(always)]
unsafe fn input_grad_impl<V: Lanes, const CB: usize, const R: usize>(
    s: &Shape,
    w: &[f32],
    dyp: &[f32],
    dx: &mut [f32],
) {
    let (w, dyp, dx) = (w.as_ptr(), dyp.as_ptr(), dx.as_mut_ptr());
    for iy0 in (0..s.h).step_by(R) {
        let rows = R.min(s.h - iy0);
        for x0 in (0..s.w).step_by(V::N) {
            let n = V::N.min(s.w - x0);
            // Lane l of tap column kx reads dY column x0 + l + 1 - kx; the
            // lanes where that is outside the output skip the tap.
            let cols: [u32; 3] = std::array::from_fn(|kx| {
                (0..V::N)
                    .filter(|l| (x0 + l + 1).checked_sub(kx).is_some_and(|ox| ox < s.w))
                    .fold(0, |m, l| m | 1 << l)
            });
            let mut c0 = 0;
            while c0 < s.c {
                let cb = if s.c - c0 >= CB { CB } else { 1 };
                for r0 in (0..rows).step_by(if rows == R { R } else { 1 }) {
                    let iy = iy0 + r0;
                    // Tap (ky, kx) of pixel (iy, ix) is dY (iy+1-ky, ix+1-kx),
                    // padded (iy+2-ky, ix+2-kx); the tile origin is padded
                    // (iy, x0) and each tap adds (2-ky, 2-kx).
                    let dt = dyp.add(iy * s.pw + x0);
                    let wt = w.add(c0 * 9);
                    let xt = dx.add(c0 * s.hw() + iy * s.w + x0);
                    match (cb == CB, rows == R) {
                        (true, true) => input_grad_tile::<V, CB, R>(s, wt, dt, xt, iy, cols, n),
                        (true, false) => input_grad_tile::<V, CB, 1>(s, wt, dt, xt, iy, cols, n),
                        (false, true) => input_grad_tile::<V, 1, R>(s, wt, dt, xt, iy, cols, n),
                        (false, false) => input_grad_tile::<V, 1, 1>(s, wt, dt, xt, iy, cols, n),
                    }
                }
                c0 += cb;
            }
        }
    }
}

/// One input-gradient tile: per tap `(ky, kx)` an `out_c`-long chain from
/// zero (folded every `KC` channels as `chain + partial`, as the `dcols`
/// GEMM does), added onto the `+0`-started sum in the rows and lanes where
/// the tap's `dY` position exists.
///
/// # Safety
/// As [`input_grad_impl`], which keeps every tile inside the buffers.
#[inline(always)]
unsafe fn input_grad_tile<V: Lanes, const CB: usize, const R: usize>(
    s: &Shape,
    w: *const f32,
    dyp: *const f32,
    dx: *mut f32,
    iy0: usize,
    cols: [u32; 3],
    n: usize,
) {
    let mut sum = [[V::zero(); R]; CB];
    for ky in 0..3 {
        for (kx, &lanes) in cols.iter().enumerate() {
            let tap = ky * 3 + kx;
            let src = dyp.add((2 - ky) * s.pw + 2 - kx);
            let mut t = [[V::zero(); R]; CB];
            let mut part: Option<[[V; R]; CB]> = None;
            for o in 0..s.out_c {
                let dv = V::load_rows::<R>(src.add(o * s.plane), s.pw);
                for (cb, t_c) in t.iter_mut().enumerate() {
                    let wv = V::splat(w.add(o * s.k + cb * 9 + tap));
                    for (a, &d) in t_c.iter_mut().zip(&dv) {
                        *a = a.mul_add(wv, d);
                    }
                }
                if (o + 1) % KC == 0 && o + 1 < s.out_c {
                    // A GEMM K block ends: partial = chain, or chain + partial.
                    part = Some(match part {
                        None => t,
                        Some(p) => add_tiles(t, p),
                    });
                    t = [[V::zero(); R]; CB];
                }
            }
            if let Some(p) = part {
                t = add_tiles(t, p);
            }
            for r in 0..R {
                // dY row iy + 1 - ky must exist.
                let iy = iy0 + r;
                if iy + 1 < ky || iy + 1 - ky >= s.h {
                    continue;
                }
                for (sum_c, t_c) in sum.iter_mut().zip(&t) {
                    sum_c[r] = sum_c[r].add_lanes(t_c[r], lanes);
                }
            }
        }
    }
    for (cb, sum_c) in sum.iter().enumerate() {
        for (r, v) in sum_c.iter().enumerate() {
            v.store_first(dx.add(cb * s.hw() + r * s.w), n);
        }
    }
}

/// `a + b`, tile by tile.
///
/// # Safety
/// `V`'s features are available.
#[inline(always)]
unsafe fn add_tiles<V: Lanes, const R: usize, const CB: usize>(
    a: [[V; R]; CB],
    b: [[V; R]; CB],
) -> [[V; R]; CB] {
    let mut sum = a;
    for (sum_c, b_c) in sum.iter_mut().zip(&b) {
        for (v, &w) in sum_c.iter_mut().zip(b_c) {
            *v = v.add(w);
        }
    }
    sum
}

/// The SIMD tiers: their vectors and one `#[target_feature]` entry point
/// per kernel, inside which the generic tile loops above are compiled for
/// that tier's instructions. Tile sizes fill the register file: 32
/// registers on avx512, 16 on avx2.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Sixteen lanes in one ZMM register.
    #[derive(Clone, Copy)]
    pub(super) struct F32x16(__m512);

    impl F32x16 {
        #[inline(always)]
        fn first(n: usize) -> __mmask16 {
            ((1u32 << n) - 1) as __mmask16
        }
    }

    impl Lanes for F32x16 {
        const N: usize = 16;

        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x16(_mm512_setzero_ps())
        }

        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            F32x16(_mm512_set1_ps(*p))
        }

        #[inline(always)]
        unsafe fn splat2(p: *const f32) -> Self {
            let pair = std::ptr::read_unaligned(p.cast::<f64>());
            F32x16(_mm512_castpd_ps(_mm512_set1_pd(pair)))
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(p))
        }

        #[inline(always)]
        unsafe fn load_first(p: *const f32, n: usize) -> Self {
            F32x16(_mm512_maskz_loadu_ps(Self::first(n), p))
        }

        #[inline(always)]
        unsafe fn load_span(p: *const f32, lanes: Range<usize>) -> Self {
            let mask = Self::first(lanes.end) & !Self::first(lanes.start.min(lanes.end));
            F32x16(_mm512_maskz_loadu_ps(mask, p))
        }

        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, n: usize) {
            if n == 16 {
                _mm512_storeu_ps(p, self.0);
            } else {
                _mm512_mask_storeu_ps(p, Self::first(n), self.0);
            }
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            F32x16(_mm512_fmadd_ps(a.0, b.0, self.0))
        }

        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            F32x16(_mm512_add_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add_lanes(self, b: Self, mask: u32) -> Self {
            F32x16(_mm512_mask_add_ps(self.0, mask as __mmask16, self.0, b.0))
        }

        #[inline(always)]
        unsafe fn transpose8(src: *const f32, ss: usize, dst: *mut f32, ds: usize) {
            F32x8::transpose8(src, ss, dst, ds);
        }

        #[inline(always)]
        unsafe fn interleave8(a: *const f32, b: *const f32, dst: *mut f32) {
            let (a, b) = (_mm256_loadu_ps(a), _mm256_loadu_ps(b));
            // Lane 2i takes a[i] (index i), lane 2i + 1 takes b[i] (16 + i).
            let at = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            _mm512_storeu_ps(
                dst,
                _mm512_permutex2var_ps(_mm512_castps256_ps512(a), at, _mm512_castps256_ps512(b)),
            );
        }

        #[inline(always)]
        unsafe fn transpose8_pair(
            a: *const f32,
            b: *const f32,
            ss: usize,
            dst: *mut f32,
            ds: usize,
        ) {
            // Row o as eight 64-bit pairs (a[o][j], b[o][j]), then an 8×8
            // transpose of those pairs: unpack neighbouring rows, gather
            // four rows' pairs per half, then the halves.
            let at = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            let r: [__m512d; 8] = std::array::from_fn(|o| {
                let (a, b) = (
                    _mm256_loadu_ps(a.add(o * ss)),
                    _mm256_loadu_ps(b.add(o * ss)),
                );
                _mm512_castps_pd(_mm512_permutex2var_ps(
                    _mm512_castps256_ps512(a),
                    at,
                    _mm512_castps256_ps512(b),
                ))
            });
            let t: [__m512d; 8] = std::array::from_fn(|i| {
                let (lo, hi) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
                if i % 2 == 0 {
                    _mm512_unpacklo_pd(lo, hi)
                } else {
                    _mm512_unpackhi_pd(lo, hi)
                }
            });
            // t[0] = r0.0 r1.0 r0.2 r1.2 r0.4 r1.4 r0.6 r1.6, t[1] the odd
            // columns; t[2], t[3] rows 2-3 and so on.
            let (first, second) = (
                _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
                _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15),
            );
            // u[4h + k]: rows 4h..4h + 4 of columns k and k + 4.
            let u: [__m512d; 8] = std::array::from_fn(|i| {
                let (h, k) = (i / 4, i % 4);
                let (lo, hi) = (t[4 * h + k % 2], t[4 * h + 2 + k % 2]);
                _mm512_permutex2var_pd(lo, if k < 2 { first } else { second }, hi)
            });
            for col in 0..4 {
                let (top, bottom) = (u[col], u[4 + col]);
                _mm512_storeu_ps(
                    dst.add(col * ds),
                    _mm512_castpd_ps(_mm512_shuffle_f64x2::<0x44>(top, bottom)),
                );
                _mm512_storeu_ps(
                    dst.add((col + 4) * ds),
                    _mm512_castpd_ps(_mm512_shuffle_f64x2::<0xEE>(top, bottom)),
                );
            }
        }
    }

    /// Eight lanes in one YMM register.
    #[derive(Clone, Copy)]
    pub(super) struct F32x8(__m256);

    impl F32x8 {
        /// All-ones in the lanes whose bit is set in `mask`.
        ///
        /// # Safety
        /// AVX2 is available.
        #[inline(always)]
        unsafe fn lanes_of(mask: u32) -> __m256i {
            let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(mask as i32), bits), bits)
        }

        /// All-ones in the first `n` lanes.
        ///
        /// # Safety
        /// AVX2 is available.
        #[inline(always)]
        unsafe fn first(n: usize) -> __m256i {
            Self::lanes_of((1u32 << n) - 1)
        }
    }

    impl Lanes for F32x8 {
        const N: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x8(_mm256_setzero_ps())
        }

        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            F32x8(_mm256_broadcast_ss(&*p))
        }

        #[inline(always)]
        unsafe fn splat2(p: *const f32) -> Self {
            let pair = std::ptr::read_unaligned(p.cast::<f64>());
            F32x8(_mm256_castpd_ps(_mm256_set1_pd(pair)))
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(p))
        }

        #[inline(always)]
        unsafe fn load_first(p: *const f32, n: usize) -> Self {
            F32x8(_mm256_maskload_ps(p, Self::first(n)))
        }

        #[inline(always)]
        unsafe fn load_span(p: *const f32, lanes: Range<usize>) -> Self {
            let mask = (1u32 << lanes.end) - (1u32 << lanes.start.min(lanes.end));
            F32x8(_mm256_maskload_ps(p, Self::lanes_of(mask)))
        }

        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, n: usize) {
            if n == 8 {
                _mm256_storeu_ps(p, self.0);
            } else {
                _mm256_maskstore_ps(p, Self::first(n), self.0);
            }
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            F32x8(_mm256_fmadd_ps(a.0, b.0, self.0))
        }

        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            F32x8(_mm256_add_ps(self.0, b.0))
        }

        #[inline(always)]
        unsafe fn add_lanes(self, b: Self, mask: u32) -> Self {
            let sum = _mm256_add_ps(self.0, b.0);
            F32x8(_mm256_blendv_ps(
                self.0,
                sum,
                _mm256_castsi256_ps(Self::lanes_of(mask)),
            ))
        }

        #[inline(always)]
        unsafe fn transpose8(src: *const f32, ss: usize, dst: *mut f32, ds: usize) {
            let r = Self::load_rows::<8>(src, ss).map(|v| v.0);
            // Interleave pairs of rows, then pairs of pairs, then halves.
            let t = [
                _mm256_unpacklo_ps(r[0], r[1]),
                _mm256_unpackhi_ps(r[0], r[1]),
                _mm256_unpacklo_ps(r[2], r[3]),
                _mm256_unpackhi_ps(r[2], r[3]),
                _mm256_unpacklo_ps(r[4], r[5]),
                _mm256_unpackhi_ps(r[4], r[5]),
                _mm256_unpacklo_ps(r[6], r[7]),
                _mm256_unpackhi_ps(r[6], r[7]),
            ];
            let u = [
                _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
                _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
                _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
                _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
            ];
            for i in 0..4 {
                _mm256_storeu_ps(
                    dst.add(i * ds),
                    _mm256_permute2f128_ps::<0x20>(u[i], u[i + 4]),
                );
                _mm256_storeu_ps(
                    dst.add((i + 4) * ds),
                    _mm256_permute2f128_ps::<0x31>(u[i], u[i + 4]),
                );
            }
        }

        #[inline(always)]
        unsafe fn interleave8(a: *const f32, b: *const f32, dst: *mut f32) {
            let (a, b) = (_mm256_loadu_ps(a), _mm256_loadu_ps(b));
            // a0 b0 a1 b1 | a4 b4 a5 b5 and a2 b2 a3 b3 | a6 b6 a7 b7, then
            // the 128-bit halves in order.
            let (lo, hi) = (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b));
            _mm256_storeu_ps(dst, _mm256_permute2f128_ps::<0x20>(lo, hi));
            _mm256_storeu_ps(dst.add(8), _mm256_permute2f128_ps::<0x31>(lo, hi));
        }
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as
    /// [`pad_planes_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn pad_planes_avx512(src: &[f32], s: &Shape, dst: &mut [f32]) {
        pad_planes_impl::<F32x16>(src, s, dst);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`pad_planes_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pad_planes_avx2(src: &[f32], s: &Shape, dst: &mut [f32]) {
        pad_planes_impl::<F32x8>(src, s, dst);
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as [`forward_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn forward_avx512(
        s: &Shape,
        w: &[f32],
        bias: &[f32],
        xp: &[f32],
        y: &mut [f32],
    ) {
        forward_impl::<F32x16, 8, 3>(s, w, bias, xp, y);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`forward_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn forward_avx2(
        s: &Shape,
        w: &[f32],
        bias: &[f32],
        xp: &[f32],
        y: &mut [f32],
    ) {
        forward_impl::<F32x8, 4, 3>(s, w, bias, xp, y);
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as [`filter_grad_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn filter_grad_avx512(
        s: &Shape,
        dy: &[f32],
        ld: usize,
        dyt: &mut [f32],
        xp: &[f32],
        dw: &mut [f32],
    ) {
        filter_grad_impl::<F32x16, 8>(s, dy, ld, dyt, xp, dw);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`filter_grad_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn filter_grad_avx2(
        s: &Shape,
        dy: &[f32],
        ld: usize,
        dyt: &mut [f32],
        xp: &[f32],
        dw: &mut [f32],
    ) {
        filter_grad_impl::<F32x8, 4>(s, dy, ld, dyt, xp, dw);
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as
    /// [`filter_grad_pair_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn filter_grad_pair_avx512(
        s: &Shape,
        dy: &[f32],
        x: &[f32],
        dyt: &mut [f32],
        xp: &mut [f32],
        later: &mut [f32],
        dw: &mut [f32],
    ) {
        filter_grad_pair_impl::<F32x16, 8>(s, dy, x, dyt, xp, later, dw);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`filter_grad_pair_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn filter_grad_pair_avx2(
        s: &Shape,
        dy: &[f32],
        x: &[f32],
        dyt: &mut [f32],
        xp: &mut [f32],
        later: &mut [f32],
        dw: &mut [f32],
    ) {
        filter_grad_pair_impl::<F32x8, 4>(s, dy, x, dyt, xp, later, dw);
    }

    /// # Safety
    /// AVX2 is available; lengths as [`bias_grad_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bias_grad_avx2(dy: &[f32], n_pos: usize, db: &mut [f32]) {
        bias_grad_impl::<F32x8>(dy, n_pos, db);
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as [`input_grad_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn input_grad_avx512(s: &Shape, w: &[f32], dyp: &[f32], dx: &mut [f32]) {
        input_grad_impl::<F32x16, 4, 3>(s, w, dyp, dx);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`input_grad_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn input_grad_avx2(s: &Shape, w: &[f32], dyp: &[f32], dx: &mut [f32]) {
        input_grad_impl::<F32x8, 4, 2>(s, w, dyp, dx);
    }
}
