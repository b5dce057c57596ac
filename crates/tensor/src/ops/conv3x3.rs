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
//! A sample's rows often repeat: a mapped script fills a few of the grid's
//! rows and leaves the rest +0, and the layers after it see a run of rows
//! equal to the ReLU of the bias. Every output element is its own chain
//! over its window, so output rows whose windows are bitwise equal have
//! equal bits: [`forward`] finds a sample's bottom run of bitwise-equal
//! rows (one whole-row compare per row, bottom-up) and computes each run of
//! equal windows once. In [`filter_grad`], a position whose window holds
//! only +0 rows adds `dY · (+0) = ±0` to its chains when `dY` is finite.
//! That can change a chain only when it is zero, and then only its sign,
//! which `dW + chain` does not show while `dW` holds no −0; so a caller
//! that knows `dY` is finite lets it skip them.
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
/// Output rows whose three input rows are bitwise equal to another's get
/// that row's bits, so within the sample's bottom run of equal rows each
/// output row is copied from the first, and only the padded rows the
/// computed rows read are staged.
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
    forward_rows(ws, g, w, bias, x, y, true);
}

/// [`forward`], copying the rows of the bottom run only when `runs`.
fn forward_rows(
    ws: &mut GemmWorkspace,
    g: &Conv2dGeom,
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    y: &mut [f32],
    runs: bool,
) {
    let out_c = bias.len();
    let tier = kernel_tier();
    let s = Shape::new(g, out_c, lanes(tier));
    assert_eq!(w.len(), out_c * s.k, "conv3x3: W is not out_c × C·9");
    assert_eq!(x.len(), s.c * s.hw(), "conv3x3: x is not C·H·W long");
    assert_eq!(y.len(), out_c * s.hw(), "conv3x3: y is not out_c·H·W long");
    let t0 = Instant::now();
    let copies = if runs {
        forward_copies(x, &s)
    } else {
        s.h..s.h
    };
    let (xp, _) = ws.buffers(s.c * s.plane, 0);
    for rows in [0..copies.start, copies.end..s.h] {
        if rows.is_empty() {
            continue;
        }
        // Output row r reads padded rows r..r + 3.
        pad_rows(tier, x, &s, xp, rows.start..rows.end + 2);
        // SAFETY: the asserts above and `pad_rows` establish the lengths
        // `forward_impl` documents, for the lanes of the one `tier` read
        // above, with every padded row the rows read staged; `kernel_tier`
        // only names a SIMD tier after runtime detection found its features.
        unsafe {
            match tier {
                #[cfg(target_arch = "x86_64")]
                KernelTier::Avx512 => x86::forward_avx512(&s, w, bias, xp, y, rows),
                #[cfg(target_arch = "x86_64")]
                KernelTier::Avx2 => x86::forward_avx2(&s, w, bias, xp, y, rows),
                _ => forward_impl::<Portable, 4, 1>(&s, w, bias, xp, y, rows),
            }
        }
    }
    if !copies.is_empty() {
        let from = copies.start - 1;
        for plane in y.chunks_exact_mut(s.hw()) {
            for r in copies.clone() {
                plane.copy_within(from * s.w..(from + 1) * s.w, r * s.w);
            }
        }
    }
    record(ws, &s, 1, (s.h - copies.len()) * s.w, t0);
}

/// The output rows [`forward`] copies from the row just above them rather
/// than computes, empty at `h` when there are none. Output row `r` reads
/// input rows `r − 1..=r + 1`, the padding zeros multiplied like any other
/// entry, so from row `a + 1` of a bottom run `a..h` every row reads the
/// run's row three times, up to the last row, which reads the padding below
/// too, unless the run is itself +0.
fn forward_copies(x: &[f32], s: &Shape) -> Range<usize> {
    let Some((a, zero)) = row_runs(x, s) else {
        return s.h..s.h;
    };
    let end = if zero { s.h } else { s.h - 1 };
    if a + 2 < end {
        a + 2..end
    } else {
        s.h..s.h
    }
}

/// The bottom run of one `[C, H, W]` sample: the least row `a` such that
/// rows `a..h` of every channel are bitwise equal to row `h − 1`, and
/// whether that row is +0 throughout (so the zero padding below continues
/// the run). Scanned bottom-up a whole row at a time, as `u32` slices, up
/// to the first row that differs. `None` for an empty image.
fn row_runs(x: &[f32], s: &Shape) -> Option<(usize, bool)> {
    if s.hw() == 0 {
        return None;
    }
    // SAFETY: `f32` and `u32` have the same size and alignment, and every
    // bit pattern is a valid `u32`.
    let bits: &[u32] = unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), x.len()) };
    let row = |c: usize, r: usize| &bits[c * s.hw() + r * s.w..][..s.w];
    let last = s.h - 1;
    let mut a = last;
    while a > 0 && (0..s.c).all(|c| row(c, a - 1) == row(c, last)) {
        a -= 1;
    }
    let zero = (0..s.c).all(|c| row(c, last).iter().all(|&b| b == 0));
    Some((a, zero))
}

/// The positions `0..end` of one `[C, H, W]` sample that [`filter_grad`]
/// visits: all of them, or, when `dy_finite`, those before the first output
/// row whose window is all +0 rows (the image's +0 bottom run, then the
/// padding). A skipped position multiplies each finite `dY` by +0, adding
/// ±0 to a chain; that moves no chain but a zero one, and then only its
/// sign, which `dW + chain` cannot show while `dW` holds no −0.
fn dw_positions(x: &[f32], s: &Shape, dy_finite: bool) -> usize {
    match row_runs(x, s) {
        Some((a, true)) if dy_finite => {
            // Row a − 1 differs from the zero row, so row a reads it; with
            // a = 0 even row 0 reads only zeros.
            let first = if a == 0 { 0 } else { a + 1 };
            first * s.w
        }
        _ => s.hw(),
    }
}

/// `dW += dY ⋆ x` over a run of samples, in order: `dy` holds their
/// `[out_c, H, W]` output gradients and `x` their `[C, H, W]` inputs, back
/// to back; `dw` is `[out_c, C·9]` (which, with `dy`, sets `out_c`).
///
/// When two samples' channels fit one vector of the tier (`2·out_c` ≤ 16
/// on avx512, ≤ 8 otherwise), the samples go through the kernel in pairs
/// and an odd last one alone; the bits are those of one sample at a time.
///
/// With `dy_finite`, the caller vouches that every `dY` is finite, and the
/// output positions whose whole window lies in a sample's +0 bottom rows
/// are skipped (with only the padded rows the rest read staged). That
/// gives the full pass's bits whenever no entry of `dw` is −0, as none of a
/// zeroed buffer summed onto ever is; without it every position is visited.
///
/// # Panics
/// Panics when `g` is not a geometry [`applies`] takes or a slice has the
/// wrong length.
pub fn filter_grad(
    ws: &mut GemmWorkspace,
    g: &Conv2dGeom,
    dy: &[f32],
    x: &[f32],
    dw: &mut [f32],
    dy_finite: bool,
) {
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
    let mut positions = 0;
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
            let (xa, xb) = x.split_at(x_len);
            let end = dw_positions(xa, &s, dy_finite).max(dw_positions(xb, &s, dy_finite));
            positions += 2 * end;
            if end == 0 {
                continue;
            }
            // SAFETY: as in `forward`, for the lengths
            // `filter_grad_pair_impl` documents.
            unsafe {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx512 => {
                        x86::filter_grad_pair_avx512(&s, dy, x, dyt, xp, later, dw, end)
                    }
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => {
                        x86::filter_grad_pair_avx2(&s, dy, x, dyt, xp, later, dw, end)
                    }
                    _ => filter_grad_pair_impl::<Portable, 4>(&s, dy, x, dyt, xp, later, dw, end),
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
            let end = dw_positions(x, &s, dy_finite);
            positions += end;
            if end == 0 {
                continue;
            }
            pad_rows(tier, x, &s, xp, read_rows(&s, end));
            // SAFETY: as in `forward`, for the lengths `filter_grad_impl`
            // documents.
            unsafe {
                match tier {
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx512 => x86::filter_grad_avx512(&s, dy, ld, dyt, xp, dw, end),
                    #[cfg(target_arch = "x86_64")]
                    KernelTier::Avx2 => x86::filter_grad_avx2(&s, dy, ld, dyt, xp, dw, end),
                    _ => filter_grad_impl::<Portable, 4>(&s, dy, ld, dyt, xp, dw, end),
                }
            }
        }
    }
    record(ws, &s, samples, positions, t0);
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
    pad_rows(tier, dy, &s, dyp, 0..s.h + 2);
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
    record(ws, &s, 1, s.hw(), t0);
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
/// counters as that many calls: `2·out_c·C·9` FLOPs for each of the
/// `positions` output positions computed (copied rows and skipped
/// positions cost none), and the wall time, with no pack time.
fn record(ws: &mut GemmWorkspace, s: &Shape, samples: usize, positions: usize, t0: Instant) {
    ws.stats.calls += samples as u64;
    ws.stats.flops += gemm_flops(s.out_c, positions, s.k);
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

/// Copy the padded rows `rows` of `[planes, h, w]` into `dst` as
/// zero-bordered planes of `s.plane` floats: pixel `(y, x)` of plane `p`
/// lands at `p·plane + (y+1)·pw + x+1`, and padded rows `0` and `h + 1`
/// are zeros. Each float of those rows is written once: the image, or a
/// zero of the one-pixel ring and the slack columns right of it. The other
/// rows of `dst` are left as they are.
fn pad_rows(tier: KernelTier, src: &[f32], s: &Shape, dst: &mut [f32], rows: Range<usize>) {
    let rows = rows.start..rows.end.min(s.h + 2);
    // SAFETY: `pad_rows_impl` reads and writes only inside the planes it is
    // given; `tier` is the one `s` was built for.
    unsafe {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::pad_rows_avx512(src, s, dst, rows),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::pad_rows_avx2(src, s, dst, rows),
            _ => pad_rows_impl::<Portable>(src, s, dst, rows),
        }
    }
}

/// [`pad_rows`] a vector at a time: each padded row is written with whole
/// vectors from a masked load of the image row, so the ring costs no extra
/// pass and no `memset` call per row.
///
/// # Safety
/// `V`'s features are available, `s` was built with `V::N` lanes and
/// `rows` lies in `0..h + 2`.
#[inline(always)]
unsafe fn pad_rows_impl<V: Lanes>(src: &[f32], s: &Shape, dst: &mut [f32], rows: Range<usize>) {
    for (plane, dst) in src.chunks_exact(s.hw()).zip(dst.chunks_exact_mut(s.plane)) {
        for r in rows.clone() {
            let dst = &mut dst[r * s.pw..(r + 1) * s.pw];
            if r == 0 || r == s.h + 1 {
                dst.fill(0.0);
                continue;
            }
            // Padded column x holds image column x − 1, for x in 1..=w.
            let at = plane.as_ptr().add((r - 1) * s.w).wrapping_sub(1);
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

/// The forward over the output rows `rows`, tile by tile: `OC` output
/// channels × `R` output rows × one vector of columns, remainders in
/// 1-channel / 1-row tiles.
///
/// # Safety
/// `V`'s features are available; `w` is `out_c·k`, `bias` `out_c`, `xp`
/// `c` padded planes (with the padded rows `rows` reads staged) and `y`
/// `out_c·h·w` floats, for `s` built with `V::N` lanes; `rows` lies in
/// `0..h`.
#[inline(always)]
unsafe fn forward_impl<V: Lanes, const OC: usize, const R: usize>(
    s: &Shape,
    w: &[f32],
    bias: &[f32],
    xp: &[f32],
    y: &mut [f32],
    rows: Range<usize>,
) {
    let (w, bias, xp, y) = (w.as_ptr(), bias.as_ptr(), xp.as_ptr(), y.as_mut_ptr());
    for oy0 in rows.clone().step_by(R) {
        let tile_rows = R.min(rows.end - oy0);
        for x0 in (0..s.w).step_by(V::N) {
            let n = V::N.min(s.w - x0);
            let mut o0 = 0;
            while o0 < s.out_c {
                let oc = if s.out_c - o0 >= OC { OC } else { 1 };
                for r0 in (0..tile_rows).step_by(if tile_rows == R { R } else { 1 }) {
                    // Tap (0, 0) of output (oy, ox) is padded pixel (oy, ox).
                    let xt = xp.add((oy0 + r0) * s.pw + x0);
                    let wt = w.add(o0 * s.k);
                    let yt = y.add(o0 * s.hw() + (oy0 + r0) * s.w + x0);
                    match (oc == OC, tile_rows == R) {
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

/// The filter gradient over the positions `0..end`: every `KC` block of
/// them (the last one cut at `end`), channel and vector of output channels.
///
/// # Safety
/// `V`'s features are available; `dy` is `out_c·h·w` floats, `dyt` `KC`
/// rows of `ld` floats (`ld` a multiple of `V::N`, at least `out_c`, the
/// lanes from `out_c` zero), `xp` `c` padded planes (with the padded rows
/// the positions `0..end` read staged) and `dw` `out_c·k` floats, for `s`
/// built with `V::N` lanes; `end <= h·w`.
#[inline(always)]
unsafe fn filter_grad_impl<V: Lanes, const P: usize>(
    s: &Shape,
    dy: &[f32],
    ld: usize,
    dyt: &mut [f32],
    xp: &[f32],
    dw: &mut [f32],
    end: usize,
) {
    for q0 in (0..end).step_by(KC) {
        let q1 = (q0 + KC).min(end);
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

/// The filter gradient of two samples, `a` then `b`, in one pass over the
/// positions `0..end`: lane `2o + s` of every vector holds output channel
/// `o` of sample `s`. Each `KC` block's chain of `a` folds into `dW` as it
/// ends, as in [`filter_grad_impl`]; `b`'s waits in `later` and folds,
/// block by block, after all of `a`'s, so every `dW` element sees the
/// sequence of two one-sample calls over the blocks computed.
///
/// # Safety
/// `V`'s features are available; `2·out_c <= V::N`; `dy` is `2·out_c·h·w`
/// floats, `x` `2·c·h·w`, `dyt` `KC` rows of `V::N` floats (the lanes from
/// `2·out_c` zero), `xp` `2·c` padded planes, `later` `ceil(h·w / KC)·k·out_c`
/// and `dw` `out_c·k` floats, for `s` built with `V::N` lanes; `end <= h·w`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn filter_grad_pair_impl<V: Lanes, const P: usize>(
    s: &Shape,
    dy: &[f32],
    x: &[f32],
    dyt: &mut [f32],
    xp: &mut [f32],
    later: &mut [f32],
    dw: &mut [f32],
    end: usize,
) {
    stage_pair_image::<V>(s, x, xp, read_rows(s, end));
    let xp = &*xp;
    let later = &mut later[..end.div_ceil(KC) * s.k * s.out_c];
    let blocks = (0..end)
        .step_by(KC)
        .zip(later.chunks_exact_mut(s.k * s.out_c));
    for (q0, later) in blocks {
        let q1 = (q0 + KC).min(end);
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

/// The padded rows that the output positions `0..end` read: output row `r`
/// reads padded rows `r..r + 3`.
fn read_rows(s: &Shape, end: usize) -> Range<usize> {
    0..(end.div_ceil(s.w) + 2).min(s.h + 2)
}

/// Stage the padded rows `rows` of a pair's images for
/// [`filter_grad_pair_impl`]: padded, and interleaved pixel by pixel (float
/// `2i + s` of `xp` is padded pixel `i` of sample `s`), only the one-pixel
/// ring and the slack columns zeroed.
///
/// # Safety
/// As [`filter_grad_pair_impl`], with `rows` in `0..h + 2`.
#[inline(always)]
unsafe fn stage_pair_image<V: Lanes>(s: &Shape, x: &[f32], xp: &mut [f32], rows: Range<usize>) {
    let (xa, xb) = x.split_at(s.c * s.hw());
    for ((a, b), plane) in xa
        .chunks_exact(s.hw())
        .zip(xb.chunks_exact(s.hw()))
        .zip(xp.chunks_exact_mut(2 * s.plane))
    {
        for r in rows.clone() {
            let row = &mut plane[2 * r * s.pw..2 * (r + 1) * s.pw];
            if r == 0 || r == s.h + 1 {
                row.fill(0.0);
                continue;
            }
            let (a, b) = (&a[(r - 1) * s.w..r * s.w], &b[(r - 1) * s.w..r * s.w]);
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
    /// AVX-512F, AVX2 and FMA are available; lengths as [`pad_rows_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn pad_rows_avx512(
        src: &[f32],
        s: &Shape,
        dst: &mut [f32],
        rows: Range<usize>,
    ) {
        pad_rows_impl::<F32x16>(src, s, dst, rows);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`pad_rows_impl`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pad_rows_avx2(
        src: &[f32],
        s: &Shape,
        dst: &mut [f32],
        rows: Range<usize>,
    ) {
        pad_rows_impl::<F32x8>(src, s, dst, rows);
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
        rows: Range<usize>,
    ) {
        forward_impl::<F32x16, 8, 3>(s, w, bias, xp, y, rows);
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
        rows: Range<usize>,
    ) {
        forward_impl::<F32x8, 4, 3>(s, w, bias, xp, y, rows);
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
        end: usize,
    ) {
        filter_grad_impl::<F32x16, 8>(s, dy, ld, dyt, xp, dw, end);
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
        end: usize,
    ) {
        filter_grad_impl::<F32x8, 4>(s, dy, ld, dyt, xp, dw, end);
    }

    /// # Safety
    /// AVX-512F, AVX2 and FMA are available; lengths as
    /// [`filter_grad_pair_impl`].
    #[target_feature(enable = "avx512f,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn filter_grad_pair_avx512(
        s: &Shape,
        dy: &[f32],
        x: &[f32],
        dyt: &mut [f32],
        xp: &mut [f32],
        later: &mut [f32],
        dw: &mut [f32],
        end: usize,
    ) {
        filter_grad_pair_impl::<F32x16, 8>(s, dy, x, dyt, xp, later, dw, end);
    }

    /// # Safety
    /// AVX2 and FMA are available; lengths as [`filter_grad_pair_impl`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn filter_grad_pair_avx2(
        s: &Shape,
        dy: &[f32],
        x: &[f32],
        dyt: &mut [f32],
        xp: &mut [f32],
        later: &mut [f32],
        dw: &mut [f32],
        end: usize,
    ) {
        filter_grad_pair_impl::<F32x8, 4>(s, dy, x, dyt, xp, later, dw, end);
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

/// The row-run suite: [`forward`] and [`filter_grad`] against their
/// full-row twins (every row computed, every position visited) on every
/// tier, bit for bit, over images whose rows repeat.
#[cfg(test)]
mod row_run_tests {
    use super::*;
    use crate::ops::gemm::force_kernel_tier;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::{Mutex, MutexGuard};

    /// The tests force the process-wide tier; one at a time.
    fn tier_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    const TIERS: [KernelTier; 3] = [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable];

    /// What a sample's rows hold, from the top: `(rows, fill)`.
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        /// Fresh random values in every row.
        Random,
        /// One random row, repeated.
        Same,
        /// A constant in every entry.
        Value(f32),
    }

    /// A `[c, h, w]` image built from `(rows, fill)` bands, top down.
    fn image(
        c: usize,
        h: usize,
        w: usize,
        bands: &[(usize, Fill)],
        rng: &mut ChaCha8Rng,
    ) -> Vec<f32> {
        assert_eq!(bands.iter().map(|b| b.0).sum::<usize>(), h, "{bands:?}");
        let mut x = vec![0.0f32; c * h * w];
        for plane in x.chunks_exact_mut(h * w) {
            let mut rows = plane.chunks_exact_mut(w);
            for &(n, fill) in bands {
                let same: Vec<f32> = (0..w).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for row in rows.by_ref().take(n) {
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = match fill {
                            Fill::Random => rng.gen_range(-1.0..1.0),
                            Fill::Same => same[i],
                            Fill::Value(v) => v,
                        };
                    }
                }
            }
        }
        x
    }

    fn random(n: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// `forward` and its full-row twin agree on `x` on every tier.
    fn check_forward(c: usize, out_c: usize, h: usize, w: usize, x: &[f32], case: &str) {
        let g = Conv2dGeom::new(c, h, w, 3, 3, 1, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (wt, bias) = (random(out_c * c * 9, &mut rng), random(out_c, &mut rng));
        let mut ws = GemmWorkspace::new();
        for tier in TIERS {
            force_kernel_tier(Some(tier));
            let mut got = vec![f32::NAN; out_c * h * w];
            let mut want = vec![f32::NAN; out_c * h * w];
            forward(&mut ws, &g, &wt, &bias, x, &mut got);
            forward_rows(&mut ws, &g, &wt, &bias, x, &mut want, false);
            assert_eq!(bits(&got), bits(&want), "{case} forward on {tier:?}");
        }
        force_kernel_tier(None);
    }

    /// `filter_grad` over `x` (samples back to back), told whether `dy` is
    /// finite as `Conv2d` tells it (every `dY` checked here), against the
    /// full pass, starting from a `dW` that holds no −0, on every tier.
    fn check_filter_grad(
        c: usize,
        out_c: usize,
        h: usize,
        w: usize,
        x: &[f32],
        dy: &[f32],
        case: &str,
    ) {
        let g = Conv2dGeom::new(c, h, w, 3, 3, 1, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let start: Vec<f32> = random(out_c * c * 9, &mut rng)
            .into_iter()
            .map(|v| if v == 0.0 { 0.0 } else { v })
            .collect();
        let finite = dy.iter().all(|v| v.is_finite());
        let mut ws = GemmWorkspace::new();
        for tier in TIERS {
            force_kernel_tier(Some(tier));
            for dw0 in [vec![0.0f32; start.len()], start.clone()] {
                let (mut got, mut want) = (dw0.clone(), dw0);
                filter_grad(&mut ws, &g, dy, x, &mut got, finite);
                filter_grad(&mut ws, &g, dy, x, &mut want, false);
                assert_eq!(bits(&got), bits(&want), "{case} dW on {tier:?}");
            }
        }
        force_kernel_tier(None);
    }

    /// Both kernels over one sample, and `dW` over it twice (a pair where
    /// the tier pairs `out_c`) and three times (a pair and one alone).
    fn check(c: usize, out_c: usize, h: usize, w: usize, x: &[f32], case: &str) {
        check_forward(c, out_c, h, w, x, case);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for samples in 1..=3 {
            let xs = x.repeat(samples);
            let dy = random(samples * out_c * h * w, &mut rng);
            check_filter_grad(c, out_c, h, w, &xs, &dy, case);
        }
    }

    use Fill::*;

    #[test]
    fn zero_tails_and_middle_runs_give_the_full_row_bits() {
        let _lock = tier_lock();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Widths off the vector, heights off the 3-row tile, and out_c
        // that pairs on every tier (4), on avx512 only (8) and nowhere (12).
        for (c, out_c, h, w) in [
            (4, 8, 20, 24),
            (3, 4, 10, 13),
            (2, 12, 7, 20),
            (1, 4, 16, 9),
        ] {
            let cases: Vec<(&str, Vec<(usize, Fill)>)> = vec![
                ("zero tail", vec![(h / 3, Random), (h - h / 3, Value(0.0))]),
                ("one zero row", vec![(h - 1, Random), (1, Value(0.0))]),
                ("two zero rows", vec![(h - 2, Random), (2, Value(0.0))]),
                ("middle run", vec![(2, Random), (h - 4, Same), (2, Random)]),
                (
                    "middle zeros",
                    vec![(2, Random), (h - 4, Value(0.0)), (2, Random)],
                ),
                ("run from the top", vec![(h - 2, Same), (2, Random)]),
                ("run to the bottom", vec![(2, Random), (h - 2, Same)]),
                ("all rows equal", vec![(h, Same)]),
                ("all rows zero", vec![(h, Value(0.0))]),
                ("constant", vec![(h, Value(0.5))]),
            ];
            for (name, bands) in cases {
                let x = image(c, h, w, &bands, &mut rng);
                check(c, out_c, h, w, &x, &format!("{name} {c}x{h}x{w}->{out_c}"));
            }
        }
    }

    #[test]
    fn signed_zero_and_nan_rows_give_the_full_row_bits() {
        let _lock = tier_lock();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (c, out_c, h, w) = (4, 8, 12, 19);
        let cases: Vec<(&str, Vec<(usize, Fill)>)> = vec![
            ("-0 tail", vec![(4, Random), (h - 4, Value(-0.0))]),
            (
                "-0 under +0",
                vec![(4, Random), (4, Value(0.0)), (h - 8, Value(-0.0))],
            ),
            (
                "+0 under -0",
                vec![(4, Random), (4, Value(-0.0)), (h - 8, Value(0.0))],
            ),
            ("NaN tail", vec![(4, Random), (h - 4, Value(f32::NAN))]),
            (
                "NaN then zeros",
                vec![(3, Random), (2, Value(f32::NAN)), (h - 5, Value(0.0))],
            ),
            ("inf tail", vec![(4, Random), (h - 4, Value(f32::INFINITY))]),
        ];
        for (name, bands) in cases {
            let x = image(c, h, w, &bands, &mut rng);
            check(c, out_c, h, w, &x, name);
        }
        // One −0 in a +0 row breaks the run there and nowhere else.
        let mut x = image(c, h, w, &[(4, Random), (h - 4, Value(0.0))], &mut rng);
        x[(c - 1) * h * w + 8 * w + 3] = -0.0;
        check(c, out_c, h, w, &x, "one -0 in the zero tail");
    }

    #[test]
    fn non_finite_dy_over_skippable_rows_takes_the_full_pass() {
        let _lock = tier_lock();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (c, out_c, h, w) = (4, 8, 16, 16);
        for samples in 1..=3 {
            let xs = image(c, h, w, &[(5, Random), (h - 5, Value(0.0))], &mut rng).repeat(samples);
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                let mut dy = random(samples * out_c * h * w, &mut rng);
                // Output row 12 reads only zero rows: a skippable position.
                dy[12 * w + 5] = bad;
                check_filter_grad(c, out_c, h, w, &xs, &dy, &format!("{bad} in dY"));
                // The full pass multiplies it by +0, which shows in dW.
                let g = Conv2dGeom::new(c, h, w, 3, 3, 1, 1).unwrap();
                let mut dw = vec![0.0f32; out_c * c * 9];
                filter_grad(&mut GemmWorkspace::new(), &g, &dy, &xs, &mut dw, false);
                assert!(dw.iter().any(|v| v.is_nan()), "{bad}: no NaN in dW");
            }
        }
    }

    #[test]
    fn pairs_with_different_tails_give_the_full_row_bits() {
        let _lock = tier_lock();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // 40 × 40 positions make several `KC` blocks, which the tails cut
        // at and between block edges.
        let (c, h, w) = (4, 40, 40);
        let tails = [3usize, 11, 12, 30, 40, 0];
        for out_c in [4, 8] {
            let xs: Vec<f32> = tails
                .iter()
                .flat_map(|&filled| {
                    let bands = if filled == h {
                        vec![(h, Random)]
                    } else {
                        vec![(filled, Random), (h - filled, Value(0.0))]
                    };
                    let bands: Vec<_> = bands.into_iter().filter(|b| b.0 > 0).collect();
                    image(c, h, w, &bands, &mut rng)
                })
                .collect();
            let dy = random(tails.len() * out_c * h * w, &mut rng);
            check_filter_grad(
                c,
                out_c,
                h,
                w,
                &xs,
                &dy,
                &format!("tails {tails:?} -> {out_c}"),
            );
            // An odd count leaves the last sample alone.
            let odd = 5 * c * h * w;
            check_filter_grad(c, out_c, h, w, &xs[..odd], &dy[..5 * out_c * h * w], "odd");
        }
    }
}
