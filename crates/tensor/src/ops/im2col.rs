//! Convolution geometry, im2col and col2im.
//!
//! A 2-D convolution over one sample is a single matmul against the im2col
//! matrix of the input:
//!
//! ```text
//! cols   = im2col(x)              // [C·kh·kw, oh·ow]
//! y      = W · cols               // W: [out_c, C·kh·kw]
//! ```
//!
//! A 3×3 / stride-1 / pad-1 geometry runs the direct kernels of
//! [`conv3x3`](crate::ops::conv3x3), which build no `cols`. Any other one is
//! lowered onto plain [`gemm`](crate::ops::gemm::gemm) calls around these
//! two transforms: [`im2col_into`] writes `cols` for the forward and the
//! filter gradient, and [`col2im_into`] folds the input gradient
//! `Wᵀ · dY` back onto the image. The parity suites hold `Conv2d` to that
//! lowering, written out with a per-element im2col of their own.

use crate::{Result, TensorError};

/// Geometry of a 2-D convolution (one stride for both axes, independent
/// zero padding per axis — a zero `pad_h` is what lets `1×k` kernels act as
/// true 1-D convolutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along the height axis.
    pub pad_h: usize,
    /// Zero padding along the width axis.
    pub pad_w: usize,
}

impl Conv2dGeom {
    /// Validate the geometry and return it.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        Self::with_padding(
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
            padding,
        )
    }

    /// Validate a geometry with independent per-axis padding.
    #[allow(clippy::too_many_arguments)]
    pub fn with_padding(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
    ) -> Result<Self> {
        if in_channels == 0 || in_h == 0 || in_w == 0 {
            return Err(TensorError::InvalidArgument("zero-sized conv input".into()));
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument(
                "zero-sized conv kernel".into(),
            ));
        }
        if stride == 0 {
            return Err(TensorError::InvalidArgument("zero conv stride".into()));
        }
        let g = Conv2dGeom {
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            pad_h,
            pad_w,
        };
        if kernel_h > in_h + 2 * pad_h || kernel_w > in_w + 2 * pad_w {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kernel_h}x{kernel_w} stride {stride} pad {pad_h}/{pad_w} does not fit {in_h}x{in_w}"
            )));
        }
        Ok(g)
    }

    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad_h).saturating_sub(self.kernel_h) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad_w).saturating_sub(self.kernel_w) / self.stride + 1
    }

    /// Rows of the im2col matrix: `C · kh · kw`.
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the im2col matrix: `oh · ow`.
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Unfold one `[C, H, W]` sample (flattened row-major) into the
/// `[C·kh·kw, oh·ow]` matrix `out`, which must be exactly
/// `col_rows · col_cols` long and is overwritten. Out-of-image taps
/// contribute zeros.
pub fn im2col_into(x: &[f32], g: &Conv2dGeom, out: &mut [f32]) -> Result<()> {
    let expected = g.in_channels * g.in_h * g.in_w;
    if x.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: x.len(),
        });
    }
    let (oh, ow) = (g.out_h(), g.out_w());
    let rows = g.col_rows();
    let cols = oh * ow;
    if out.len() != rows * cols {
        return Err(TensorError::LengthMismatch {
            expected: rows * cols,
            actual: out.len(),
        });
    }
    let plane_len = g.in_h * g.in_w;
    for c in 0..g.in_channels {
        let plane = &x[c * plane_len..(c + 1) * plane_len];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                // Output column `ox` reads input column
                // `ox·stride + kw − pad_w`: inside the image for `ox` in
                // `[lo, hi)`, padding on either side.
                let lo = g.pad_w.saturating_sub(kw).div_ceil(g.stride).min(ow);
                let hi = (g.in_w + g.pad_w)
                    .saturating_sub(kw)
                    .div_ceil(g.stride)
                    .clamp(lo, ow);
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for (oy, run) in out_row.chunks_exact_mut(ow).enumerate() {
                    let iy = oy * g.stride + kh;
                    if iy < g.pad_h || iy - g.pad_h >= g.in_h {
                        run.fill(0.0);
                        continue;
                    }
                    run[..lo].fill(0.0);
                    run[hi..].fill(0.0);
                    if lo == hi {
                        // No output column of this tap reaches the image.
                        continue;
                    }
                    let src = &plane[(iy - g.pad_h) * g.in_w..(iy - g.pad_h + 1) * g.in_w];
                    let first = lo * g.stride + kw - g.pad_w;
                    if g.stride == 1 {
                        run[lo..hi].copy_from_slice(&src[first..first + hi - lo]);
                    } else {
                        let taps = src[first..].iter().step_by(g.stride);
                        for (o, &v) in run[lo..hi].iter_mut().zip(taps) {
                            *o = v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Fold a `[C·kh·kw, oh·ow]` gradient matrix (`data`, exactly
/// `col_rows · col_cols` long) back onto the `[C, H, W]` image `img`
/// (overwritten), accumulating where receptive fields overlap. Exact
/// adjoint of [`im2col_into`].
pub fn col2im_into(data: &[f32], g: &Conv2dGeom, img: &mut [f32]) -> Result<()> {
    if data.len() != g.col_rows() * g.col_cols() {
        return Err(TensorError::LengthMismatch {
            expected: g.col_rows() * g.col_cols(),
            actual: data.len(),
        });
    }
    if img.len() != g.in_channels * g.in_h * g.in_w {
        return Err(TensorError::LengthMismatch {
            expected: g.in_channels * g.in_h * g.in_w,
            actual: img.len(),
        });
    }
    img.fill(0.0);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    let (pad_h, pad_w) = (g.pad_h as isize, g.pad_w as isize);
    for c in 0..g.in_channels {
        let plane = &mut img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                let src = &data[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride) as isize + kh as isize - pad_h;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * g.stride) as isize + kw as isize - pad_w;
                        if ix >= 0 && ix < g.in_w as isize {
                            plane[iy as usize * g.in_w + ix as usize] += src[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_output_sizes() {
        let g = Conv2dGeom::new(1, 5, 5, 3, 3, 1, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
        let g = Conv2dGeom::new(1, 5, 5, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (5, 5));
        let g = Conv2dGeom::new(1, 6, 6, 2, 2, 2, 0).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
    }

    #[test]
    fn geometry_rejects_degenerate() {
        assert!(Conv2dGeom::new(0, 4, 4, 2, 2, 1, 0).is_err());
        assert!(Conv2dGeom::new(1, 4, 4, 0, 2, 1, 0).is_err());
        assert!(Conv2dGeom::new(1, 4, 4, 2, 2, 0, 0).is_err());
        assert!(
            Conv2dGeom::new(1, 2, 2, 5, 5, 1, 0).is_err(),
            "kernel larger than padded input"
        );
    }

    /// `im2col_into` on a buffer full of NaN, so a position it fails to
    /// overwrite shows.
    fn cols_of(x: &[f32], g: &Conv2dGeom) -> Vec<f32> {
        let mut cols = vec![f32::NAN; g.col_rows() * g.col_cols()];
        im2col_into(x, g, &mut cols).unwrap();
        cols
    }

    /// Per-element, bounds-checked im2col: every entry decided on its own
    /// from the signed input coordinate it reads.
    fn reference_im2col(x: &[f32], g: &Conv2dGeom) -> Vec<f32> {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0.0f32; g.col_rows() * oh * ow];
        for c in 0..g.in_channels {
            for kh in 0..g.kernel_h {
                for kw in 0..g.kernel_w {
                    let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * g.stride + kh) as isize - g.pad_h as isize;
                            let ix = (ox * g.stride + kw) as isize - g.pad_w as isize;
                            if (0..g.in_h as isize).contains(&iy)
                                && (0..g.in_w as isize).contains(&ix)
                            {
                                out[(row * oh + oy) * ow + ox] =
                                    x[(c * g.in_h + iy as usize) * g.in_w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn im2col_matches_the_per_element_reference() {
        // Every accepted geometry over a small sweep, including padding at
        // or past half the kernel, images narrower than the stride, and
        // kernels wider than the image plus one side's padding: kernel
        // columns no output column brings into the image, as in a 5×5
        // pad-2 or a 3×3 stride-3 pad-1 kernel on a 1-wide image.
        let mut checked = 0;
        for in_h in 1..=4 {
            for in_w in 1..=6 {
                for kh in 1..=5 {
                    for kw in 1..=5 {
                        for stride in 1..=3 {
                            for pad_h in 0..=2 {
                                for pad_w in 0..=3 {
                                    let Ok(g) = Conv2dGeom::with_padding(
                                        2, in_h, in_w, kh, kw, stride, pad_h, pad_w,
                                    ) else {
                                        continue;
                                    };
                                    let x: Vec<f32> =
                                        (0..2 * in_h * in_w).map(|i| i as f32 + 1.0).collect();
                                    let got = cols_of(&x, &g);
                                    let want = reference_im2col(&x, &g);
                                    assert!(
                                        got.iter()
                                            .zip(&want)
                                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                                        "{g:?}"
                                    );
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} geometries");
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is the identity (one row).
        let g = Conv2dGeom::new(1, 2, 3, 1, 1, 1, 0).unwrap();
        let x = [1., 2., 3., 4., 5., 6.];
        assert_eq!((g.col_rows(), g.col_cols()), (1, 6));
        assert_eq!(cols_of(&x, &g), x);
    }

    #[test]
    fn im2col_3x3_known_patch() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        let x = [1., 2., 3., 4., 5., 6., 7., 8., 9.];
        assert_eq!((g.col_rows(), g.col_cols()), (4, 4));
        let c = cols_of(&x, &g);
        // First output position (top-left window): taps 1,2,4,5 down the rows.
        assert_eq!([c[0], c[4], c[8], c[12]], [1., 2., 4., 5.]);
        // Last output position (bottom-right window): taps 5,6,8,9.
        assert_eq!([c[3], c[7], c[11], c[15]], [5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeros_border() {
        let g = Conv2dGeom::new(1, 2, 2, 3, 3, 1, 1).unwrap();
        let x = [1., 2., 3., 4.];
        assert_eq!((g.col_rows(), g.col_cols()), (9, 4));
        let c = cols_of(&x, &g);
        // Kernel tap (0,0) at output (0,0) looks at padded (-1,-1) => 0.
        assert_eq!(c[0], 0.0);
        // Kernel centre tap (1,1) at output (0,0) sees pixel (0,0) = 1.
        assert_eq!(c[4 * 4], 1.0);
        assert!(c.iter().all(|v| !v.is_nan()), "every entry is written");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish data: the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let g = Conv2dGeom::new(2, 4, 5, 3, 3, 1, 1).unwrap();
        let x: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
            .map(|i| ((i * 13 + 5) % 17) as f32 - 8.0)
            .collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|i| ((i * 7 + 2) % 19) as f32 - 9.0)
            .collect();
        let lhs: f64 = cols_of(&x, &g)
            .iter()
            .zip(&y)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        // A stale image must not leak into the fold.
        let mut back = vec![f32::NAN; x.len()];
        col2im_into(&y, &g, &mut back).unwrap();
        let rhs: f64 = x
            .iter()
            .zip(&back)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-6 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn transforms_check_buffer_lengths() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        let x = [0.0f32; 9];
        let mut cols = vec![0.0f32; g.col_rows() * g.col_cols()];
        assert!(im2col_into(&x[..8], &g, &mut cols).is_err());
        assert!(im2col_into(&x, &g, &mut cols[..3]).is_err());
        let mut img = vec![0.0f32; 9];
        assert!(col2im_into(&cols[..15], &g, &mut img).is_err());
        assert!(col2im_into(&cols, &g, &mut img[..5]).is_err());
    }
}
