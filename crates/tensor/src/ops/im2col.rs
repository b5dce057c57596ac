//! Convolution geometry, the reference im2col transform, and col2im.
//!
//! A 2-D convolution over one sample is a single matmul against the im2col
//! matrix of the input:
//!
//! ```text
//! cols   = im2col(x)              // [C·kh·kw, oh·ow]
//! y      = W · cols               // W: [out_c, C·kh·kw]
//! ```
//!
//! The convolution layers never build `cols`: a 3×3 / stride-1 / pad-1
//! geometry runs the direct kernels of [`conv3x3`](crate::ops::conv3x3),
//! any other one [`gemm_im2col`](crate::ops::gemm::gemm_im2col), which
//! packs its GEMM panels straight from the image under a [`Conv2dGeom`].
//! [`im2col`] / [`im2col_into`] stay as the definition of that matrix — the
//! oracle the parity suites and benches compare both against — and
//! [`col2im`] / [`col2im_into`] fold the input gradient `Wᵀ · dY` back onto
//! the image in the GEMM lowering's backward pass.

use crate::{Result, Tensor, TensorError};

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

/// Unfold one `[C, H, W]` sample (flattened row-major) into a
/// `[C·kh·kw, oh·ow]` matrix. Out-of-image taps contribute zeros.
pub fn im2col(x: &[f32], g: &Conv2dGeom) -> Result<Tensor> {
    let mut out = vec![0.0f32; g.col_rows() * g.col_cols()];
    im2col_into(x, g, &mut out)?;
    Tensor::from_vec([g.col_rows(), g.col_cols()], out)
}

/// [`im2col`] writing into a caller-provided buffer of exactly
/// `col_rows · col_cols` elements (overwritten, including padding zeros),
/// so hot loops can reuse one buffer across samples.
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
    out.fill(0.0);
    let (pad_h, pad_w) = (g.pad_h as isize, g.pad_w as isize);
    for c in 0..g.in_channels {
        let plane = &x[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let row = (c * g.kernel_h + kh) * g.kernel_w + kw;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride) as isize + kh as isize - pad_h;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue; // whole output row stays zero-padded
                    }
                    let src_row = &plane[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                    for ox in 0..ow {
                        let ix = (ox * g.stride) as isize + kw as isize - pad_w;
                        if ix >= 0 && ix < g.in_w as isize {
                            out_row[oy * ow + ox] = src_row[ix as usize];
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Fold a `[C·kh·kw, oh·ow]` gradient matrix back onto a `[C, H, W]` image,
/// accumulating where receptive fields overlap. Exact adjoint of [`im2col`].
pub fn col2im(cols: &Tensor, g: &Conv2dGeom) -> Result<Vec<f32>> {
    if cols.rank() != 2 || cols.dims() != [g.col_rows(), g.col_cols()] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: vec![g.col_rows(), g.col_cols()],
            rhs: cols.dims().to_vec(),
        });
    }
    let mut img = vec![0.0f32; g.in_channels * g.in_h * g.in_w];
    col2im_into(cols.as_slice(), g, &mut img)?;
    Ok(img)
}

/// [`col2im`] writing into a caller-provided `[C·H·W]` buffer (overwritten),
/// taking the gradient matrix as a raw `col_rows · col_cols` slice so hot
/// loops can fold sub-slices of a batched buffer without a `Tensor` wrapper.
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

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is the identity (one row).
        let g = Conv2dGeom::new(1, 2, 3, 1, 1, 1, 0).unwrap();
        let x = [1., 2., 3., 4., 5., 6.];
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.dims(), &[1, 6]);
        assert_eq!(cols.as_slice(), &x);
    }

    #[test]
    fn im2col_3x3_known_patch() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        let x = [1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // First output position (top-left window): taps 1,2,4,5 down the rows.
        let c = cols.as_slice();
        assert_eq!([c[0], c[4], c[8], c[12]], [1., 2., 4., 5.]);
        // Last output position (bottom-right window): taps 5,6,8,9.
        assert_eq!([c[3], c[7], c[11], c[15]], [5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeros_border() {
        let g = Conv2dGeom::new(1, 2, 2, 3, 3, 1, 1).unwrap();
        let x = [1., 2., 3., 4.];
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Kernel tap (0,0) at output (0,0) looks at padded (-1,-1) => 0.
        assert_eq!(cols.as_slice()[0], 0.0);
        // Kernel centre tap (1,1) at output (0,0) sees pixel (0,0) = 1.
        assert_eq!(cols.as_slice()[4 * 4], 1.0);
    }

    #[test]
    fn im2col_checks_input_len() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        assert!(im2col(&[0.0; 8], &g).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish data: the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let g = Conv2dGeom::new(2, 4, 5, 3, 3, 1, 1).unwrap();
        let x: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
            .map(|i| ((i * 13 + 5) % 17) as f32 - 8.0)
            .collect();
        let y_data: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|i| ((i * 7 + 2) % 19) as f32 - 9.0)
            .collect();
        let y = Tensor::from_vec([g.col_rows(), g.col_cols()], y_data).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let lhs: f64 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        let back = col2im(&y, &g).unwrap();
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
    fn into_variants_match_allocating_forms() {
        let g = Conv2dGeom::new(2, 4, 5, 3, 3, 1, 1).unwrap();
        let x: Vec<f32> = (0..g.in_channels * g.in_h * g.in_w)
            .map(|i| ((i * 3 + 1) % 7) as f32 - 3.0)
            .collect();
        let cols = im2col(&x, &g).unwrap();
        let mut buf = vec![9.0f32; g.col_rows() * g.col_cols()];
        im2col_into(&x, &g, &mut buf).unwrap();
        assert_eq!(buf, cols.as_slice());

        let back = col2im(&cols, &g).unwrap();
        let mut img = vec![-1.0f32; x.len()];
        col2im_into(cols.as_slice(), &g, &mut img).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn into_variants_check_buffer_lengths() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        let x = [0.0f32; 9];
        let mut short = vec![0.0f32; 3];
        assert!(im2col_into(&x, &g, &mut short).is_err());
        let cols = vec![0.0f32; g.col_rows() * g.col_cols()];
        let mut img = vec![0.0f32; 5];
        assert!(col2im_into(&cols, &g, &mut img).is_err());
    }

    #[test]
    fn col2im_shape_check() {
        let g = Conv2dGeom::new(1, 3, 3, 2, 2, 1, 0).unwrap();
        let bad = Tensor::zeros([3, 4]);
        assert!(col2im(&bad, &g).is_err());
    }
}
