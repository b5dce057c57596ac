//! Direct kernels for every 3×3, stride-1, pad-1 convolution ([`applies`]):
//! the forward `y = W∗x + b`, the filter gradient `dW += dY ⋆ x` and the
//! input gradient `dX`, with no cols matrix, GEMM panel or `col2im`.
//!
//! Each kernel stages one zero-padded operand (the image, or `dY`) in the
//! workspace's pack buffers, then reads its rows straight into registers: a
//! tile of output channels × rows × one vector of `N` consecutive columns
//! (forward, `dX`), or of the nine taps × output-channel vectors (`dW`, from
//! a transposed `dYᵀ`), a masked tail where the width is not a multiple of
//! `N`.
//!
//! The kernels return the bits of the lowering they replace (`gemm_im2col`
//! for `y` and `dW`, `gemm` + `col2im` for `dX`), because each replays that
//! lowering's per-element operation sequence:
//!
//! * **forward** — one multiply-add chain from zero over the taps in
//!   `(c, ky, kx)` order, padding zeros multiplied like any other cols entry,
//!   folded every [`KC`] taps as `chain + y`, then `+ bias`;
//! * **filter gradient** — one chain from zero per [`KC`] block of output
//!   positions (row-major), then `+ dW`;
//! * **input gradient** — per tap an `out_c`-long chain from zero, added in
//!   `(ky, kx)` order onto `+0`; a tap whose `dY` position lies outside the
//!   output is skipped, exactly as `col2im` skips it, never multiplied as
//!   padding (so a ±inf filter tap cannot turn a border pixel into NaN).
//!
//! The multiply-add is fused on the avx512 / avx2 tiers and `acc + a·b` on
//! the portable one, matching each tier's GEMM microkernel; the tier is
//! [`kernel_tier`], so forcing one picks these kernels' tier too.

use crate::ops::gemm::{gemm_flops, kernel_tier, GemmWorkspace, KernelTier, KC};
use crate::ops::im2col::Conv2dGeom;
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
    pad_planes(x, &s, xp);
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
    record(ws, &s, t0);
}

/// `dW += dY ⋆ x` for one sample: `dy` is `[out_c, H, W]`, `x` `[C, H, W]`,
/// `dw` `[out_c, C·9]` (which, with `dy`, sets `out_c`).
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
    assert_eq!(
        dy.len(),
        out_c * s.hw(),
        "conv3x3: dY is not out_c·H·W long"
    );
    assert_eq!(x.len(), s.c * s.hw(), "conv3x3: x is not C·H·W long");
    let t0 = Instant::now();
    // dYᵀ rows are `out_c` rounded up to whole vectors; the extra lanes are
    // computed from zeros and never stored.
    let ld = out_c.next_multiple_of(lanes);
    let (xp, dyt) = ws.buffers(s.c * s.plane, s.hw() * ld);
    pad_planes(x, &s, xp);
    if ld > out_c {
        dyt.fill(0.0);
    }
    // SAFETY: as in `forward`, for the lengths `filter_grad_impl` documents.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::filter_grad_avx512(&s, dy, ld, dyt, xp, dw),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::filter_grad_avx2(&s, dy, ld, dyt, xp, dw),
            _ => filter_grad_impl::<Portable, 4>(&s, dy, ld, dyt, xp, dw),
        }
    }
    record(ws, &s, t0);
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
    pad_planes(dy, &s, dyp);
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
    record(ws, &s, t0);
}

/// Vector width of `tier`'s kernels: 16 on avx512, else 8. A call reads
/// the tier once, since the padded layout depends on it.
fn lanes(tier: KernelTier) -> usize {
    match tier {
        KernelTier::Avx512 => 16,
        KernelTier::Avx2 | KernelTier::Portable => 8,
    }
}

/// Count a kernel call in the workspace's GEMM counters: the convolution's
/// `2·out_c·C·9·H·W` FLOPs and its wall time, with no pack time.
fn record(ws: &mut GemmWorkspace, s: &Shape, t0: Instant) {
    ws.stats.calls += 1;
    ws.stats.flops += gemm_flops(s.out_c, s.hw(), s.k);
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
fn pad_planes(src: &[f32], s: &Shape, dst: &mut [f32]) {
    dst.fill(0.0);
    for (p, plane) in src.chunks_exact(s.hw()).enumerate() {
        for (y, row) in plane.chunks_exact(s.w).enumerate() {
            let at = p * s.plane + (y + 1) * s.pw + 1;
            dst[at..at + s.w].copy_from_slice(row);
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
/// at `p`, the first `n` of them for `*_first`, `R` vectors for
/// `load_rows`, an 8×8 block for `transpose8`), which the caller keeps
/// inside its buffers.
trait Lanes: Copy {
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(p: *const f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn load_first(p: *const f32, n: usize) -> Self;
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
/// `V`'s features are available; `dy` is `out_c·h·w` floats, `dyt` `h·w`
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
    transpose::<V>(dy, s.out_c, s.hw(), dyt, ld);
    let dyt = &*dyt;
    for q0 in (0..s.hw()).step_by(KC) {
        let q1 = (q0 + KC).min(s.hw());
        for c in 0..s.c {
            for o0 in (0..s.out_c).step_by(V::N) {
                let acc = filter_grad_chains::<V, P>(s, ld, dyt, xp, c, o0, q0..q1);
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

/// `dst[j·ld + i] = src[i·cols + j]` for the `rows × cols` matrix `src`:
/// 8×8 blocks in registers, the ragged edges one float at a time.
///
/// # Safety
/// `V`'s features are available; `src` is `rows·cols` floats and `dst`
/// `cols` rows of `ld >= rows` floats.
#[inline(always)]
unsafe fn transpose<V: Lanes>(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], ld: usize) {
    let (rows8, cols8) = (rows / 8 * 8, cols / 8 * 8);
    for i in (0..rows8).step_by(8) {
        for j in (0..cols8).step_by(8) {
            V::transpose8(
                src.as_ptr().add(i * cols + j),
                cols,
                dst.as_mut_ptr().add(j * ld + i),
                ld,
            );
        }
    }
    for i in 0..rows {
        let js = if i < rows8 { cols8 } else { 0 };
        for j in js..cols {
            dst[j * ld + i] = src[i * cols + j];
        }
    }
}

/// The nine taps of channel `c` × one vector of output channels from `o0`:
/// one chain each over the positions `qs`, taken `P` at a time inside an
/// output row so that an image value loaded once feeds up to three taps.
///
/// # Safety
/// As [`filter_grad_impl`], which keeps `o0 + N <= ld` and `qs` inside the
/// image.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn filter_grad_chains<V: Lanes, const P: usize>(
    s: &Shape,
    ld: usize,
    dyt: &[f32],
    xp: &[f32],
    c: usize,
    o0: usize,
    qs: std::ops::Range<usize>,
) -> [V; 9] {
    let mut acc = [V::zero(); 9];
    let (mut oy, mut ox) = (qs.start / s.w, qs.start % s.w);
    let xc = xp.as_ptr().add(c * s.plane);
    let mut q = qs.start;
    while q < qs.end {
        let dq = dyt.as_ptr().add(q * ld + o0);
        // Tap (ky, kx) of output (oy, ox) is padded pixel (oy + ky, ox + kx).
        let base = xc.add(oy * s.pw + ox);
        let step = if ox + P <= s.w && q + P <= qs.end {
            let dv = V::load_rows::<P>(dq, ld);
            // Position-major, so consecutive multiply-adds feed nine
            // independent chains.
            for (j, &d) in dv.iter().enumerate() {
                for (t, a) in acc.iter_mut().enumerate() {
                    *a = a.mul_add(V::splat(base.add(t / 3 * s.pw + t % 3 + j)), d);
                }
            }
            P
        } else {
            let d = V::load(dq);
            for (t, a) in acc.iter_mut().enumerate() {
                *a = a.mul_add(V::splat(base.add(t / 3 * s.pw + t % 3)), d);
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
        unsafe fn load(p: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(p))
        }

        #[inline(always)]
        unsafe fn load_first(p: *const f32, n: usize) -> Self {
            F32x16(_mm512_maskz_loadu_ps(Self::first(n), p))
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
        unsafe fn load(p: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(p))
        }

        #[inline(always)]
        unsafe fn load_first(p: *const f32, n: usize) -> Self {
            F32x8(_mm256_maskload_ps(p, Self::first(n)))
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
