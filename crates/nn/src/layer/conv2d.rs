//! 2-D convolution layer, with a 1-D convenience constructor used by the
//! paper's 1D-CNN architecture, and the conv stage: a convolution with its
//! ReLU and max pool folded into the write-back.
//!
//! A 3×3, stride-1, pad-1 layer (every conv of the paper's 2D-CNN) runs the
//! direct kernels of [`conv3x3`]: per sample, except `dW`, which takes
//! several samples in one call (in pairs where two fit a vector). Any other
//! geometry (the strided `1×k` layers of the 1D-CNN) is lowered onto plain
//! GEMMs over the im2col matrix of one sample at a time:
//! `Y = W · cols(x)`, `dW += dY · cols(x)ᵀ` and `dX = col2im(Wᵀ · dY)`,
//! with one pooled cols buffer per worker group. Both give the same bits,
//! and both take `db` from [`conv3x3::bias_grad`].
//!
//! A conv stage ([`Conv2d::with_relu_pool`]) never holds its full-resolution
//! output or output gradient. Forward convolves one sample into a per-group
//! buffer and ReLU-pools it straight into the pooled output (and, training,
//! the pooling codes). Backward expands the pooled gradient one pair of
//! samples at a time into a per-group buffer and runs `db`, `dW` and `dX`
//! on that pair. `bias_grad` and `filter_grad` accumulate sample after
//! sample, so the bits are those of the convolution followed by a
//! [`ReluPool`] layer.
//!
//! Training keeps the *input* (`C·H·W` floats per sample) for backward,
//! which rebuilds the cols from it: the caller's tensor when it hands it
//! over ([`Layer::forward_owned`]), else a pooled copy. Train and eval run
//! the same forward.

use super::pool::{backward_planes, forward_planes};
use super::{sample_groups, Layer, ReluPool, StateView};
use crate::Result;
use prionn_tensor::ops::gemm::{self, Epilogue, GemmWorkspace, Layout};
use prionn_tensor::ops::{self, conv3x3, Conv2dGeom};
use prionn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;
use rayon::prelude::*;

/// A 2-D convolution over `[batch, in_c, H, W]` inputs, optionally followed
/// by a folded ReLU + max pool ([`Conv2d::with_relu_pool`]).
///
/// Weights are stored pre-flattened as `[out_c, in_c·kh·kw]`: the direct
/// kernels' layout, and the A operand of the GEMM lowering. Batch rows are
/// sharded across the compute pool (the caller plus its parked workers).
pub struct Conv2d {
    geom: Conv2dGeom,
    out_channels: usize,
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    // The last training-mode forward's input, which backward reads again.
    cached_input: Option<Tensor>,
    // The ReLU + pool folded into the write-back; it holds the pooling
    // codes of the last training forward.
    pool: Option<ReluPool>,
}

impl Conv2d {
    /// A square-kernel conv layer with He-normal init.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        Self::with_kernel(
            in_channels,
            out_channels,
            in_h,
            in_w,
            kernel,
            kernel,
            stride,
            padding,
            rng,
        )
    }

    /// A conv layer with an explicit `kh × kw` kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn with_kernel(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        Self::from_geom(
            Conv2dGeom::new(in_channels, in_h, in_w, kernel_h, kernel_w, stride, padding)?,
            out_channels,
            rng,
        )
    }

    /// A conv layer from a pre-validated geometry.
    pub fn from_geom(geom: Conv2dGeom, out_channels: usize, rng: &mut impl Rng) -> Result<Self> {
        if out_channels == 0 {
            return Err(TensorError::InvalidArgument(
                "conv with zero output channels".into(),
            ));
        }
        let fan_in = geom.col_rows();
        let w = prionn_tensor::init::he_normal([out_channels, fan_in], fan_in, rng);
        Ok(Conv2d {
            geom,
            out_channels,
            w,
            b: Tensor::zeros([out_channels]),
            grad_w: Tensor::zeros([out_channels, fan_in]),
            grad_b: Tensor::zeros([out_channels]),
            cached_input: None,
            pool: None,
        })
    }

    /// 1-D convolution over `[batch, in_c, 1, L]` inputs: a `1 × kernel`
    /// 2-D convolution with padding only along the sequence axis, which is
    /// exactly how the paper's 1D-CNN consumes the flattened script sequence.
    pub fn new_1d(
        in_channels: usize,
        out_channels: usize,
        len: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        Self::from_geom(
            Conv2dGeom::with_padding(in_channels, 1, len, 1, kernel, stride, 0, padding)?,
            out_channels,
            rng,
        )
    }

    /// This convolution as a conv stage: `pool`'s ReLU and max pooling
    /// folded into its write-back. The stage gives the bits of this layer
    /// followed by `pool` and stands in for both: it counts their three
    /// layer positions and keeps this layer's name and state keys.
    ///
    /// # Errors
    /// When the pool window is larger than the convolution's output.
    pub fn with_relu_pool(mut self, pool: ReluPool) -> Result<Self> {
        let (oh, ow) = self.out_hw();
        let (ph, pw) = pool.out_hw(oh, ow);
        if ph == 0 || pw == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "pool {}x2 larger than conv output {oh}x{ow}",
                pool.rows
            )));
        }
        self.pool = Some(pool);
        Ok(self)
    }

    /// Convolution geometry (exposed for architecture builders).
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution's output spatial dims `(oh, ow)`, before any folded
    /// pool.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.geom.out_h(), self.geom.out_w())
    }

    /// The layer's output spatial dims: pooled when a pool is folded in.
    fn layer_out_hw(&self) -> (usize, usize) {
        let (oh, ow) = self.out_hw();
        match &self.pool {
            Some(p) => p.out_hw(oh, ow),
            None => (oh, ow),
        }
    }

    fn check_input(&self, x: &Tensor) -> Result<usize> {
        let g = &self.geom;
        if x.rank() != 4
            || x.dims()[1] != g.in_channels
            || x.dims()[2] != g.in_h
            || x.dims()[3] != g.in_w
        {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_forward",
                lhs: vec![0, g.in_channels, g.in_h, g.in_w],
                rhs: x.dims().to_vec(),
            });
        }
        Ok(x.dims()[0])
    }
}

/// A pooled buffer of `len` floats, or an empty `Vec` (no pool traffic)
/// when `len` is 0.
fn take_nonempty(scratch: &mut Scratch, len: usize) -> Vec<f32> {
    if len > 0 {
        scratch.take(len)
    } else {
        Vec::new()
    }
}

/// `groups` disjoint `len`-float parts of `buf`, one per worker group
/// (empty ones when `len` is 0). Each per-group buffer of a call is one
/// pooled take split this way, which keeps the pool's best fits stable
/// from the first step on.
fn split_parts(buf: &mut [f32], len: usize, groups: usize) -> Vec<&mut [f32]> {
    if len == 0 {
        (0..groups).map(|_| &mut [][..]).collect()
    } else {
        buf.chunks_mut(len).collect()
    }
}

/// The im2col buffer length of the GEMM lowering; 0 when the direct 3×3
/// kernels take `g`.
fn cols_len(g: &Conv2dGeom) -> usize {
    if conv3x3::applies(g) {
        0
    } else {
        g.col_rows() * g.col_cols()
    }
}

/// `y = W ∗ x + b` for one sample, directly or as `W · cols(x)` with a
/// fused `BiasRow` epilogue.
fn conv_sample(
    ws: &mut GemmWorkspace,
    g: &Conv2dGeom,
    w: &[f32],
    bias: &[f32],
    x: &[f32],
    cols: &mut [f32],
    y: &mut [f32],
) -> Result<()> {
    if conv3x3::applies(g) {
        conv3x3::forward(ws, g, w, bias, x, y);
    } else {
        ops::im2col_into(x, g, cols)?;
        gemm::gemm(
            ws,
            bias.len(),
            g.out_h() * g.out_w(),
            g.col_rows(),
            w,
            Layout::RowMajor,
            cols,
            Layout::RowMajor,
            y,
            false,
            Epilogue::BiasRow(bias),
        );
    }
    Ok(())
}

impl Conv2d {
    /// The forward pass, keeping no input: every entry point's output and,
    /// when `train` and a pool is folded in, its pooling codes.
    fn forward_impl(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        let batch = self.check_input(x)?;
        let g = self.geom;
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let (oh, ow) = (g.out_h(), g.out_w());
        let out_c = self.out_channels;
        let (yh, yw) = self.layer_out_hw();
        let y_sample = out_c * yh * yw;
        let xs = x.as_slice();
        let w = self.w.as_slice();
        let bias = self.b.as_slice();

        // Recycle an input no backward consumed.
        if let Some(old) = self.cached_input.take() {
            scratch.recycle_tensor(old);
        }
        let mut out_flat = scratch.take(batch * y_sample);

        // Per sample: y_i = W ∗ x_i + b, written to the output or, in a
        // conv stage, to the group's conv buffer and ReLU-pooled from there.
        // Samples are sharded across worker groups, each with its own
        // workspace, buffers and a disjoint chunk of the output (and codes).
        let groups = sample_groups(batch);
        let rows = self.pool.as_ref().map(|p| p.rows);
        let conv_len = if rows.is_some() { out_c * oh * ow } else { 0 };
        let mut conv_buf = take_nonempty(scratch, groups * conv_len);
        let mut cols_buf = take_nonempty(scratch, groups * cols_len(&g));
        let per = batch.div_ceil(groups);
        let mut code_chunks = match (&mut self.pool, train) {
            (Some(p), true) => {
                p.codes.resize(batch * y_sample, 0);
                Some(p.codes.chunks_mut(per * y_sample))
            }
            _ => None,
        };
        let (_, workers) = scratch.gemm_workspaces(groups);
        type Item<'a> = (
            usize,
            &'a mut [f32],
            Option<&'a mut [u8]>,
            &'a mut [f32],
            &'a mut [f32],
            &'a mut GemmWorkspace,
        );
        let mut items: Vec<Item<'_>> = Vec::with_capacity(groups);
        {
            let mut out_rest: &mut [f32] = &mut out_flat;
            let mut s0 = 0usize;
            for ((ws, conv), cols) in workers
                .iter_mut()
                .zip(split_parts(&mut conv_buf, conv_len, groups))
                .zip(split_parts(&mut cols_buf, cols_len(&g), groups))
            {
                if s0 == batch {
                    break;
                }
                let take = per.min(batch - s0);
                let (ochunk, otail) = out_rest.split_at_mut(take * y_sample);
                let codes = code_chunks.as_mut().and_then(Iterator::next);
                items.push((s0, ochunk, codes, conv, cols, ws));
                s0 += take;
                out_rest = otail;
            }
        }
        let results: Vec<Result<()>> = items
            .into_par_iter()
            .map(|(s0, ochunk, mut codes, conv, cols, ws)| {
                for (si, y_i) in ochunk.chunks_exact_mut(y_sample).enumerate() {
                    let x_i = &xs[(s0 + si) * sample_len..(s0 + si + 1) * sample_len];
                    let Some(rows) = rows else {
                        conv_sample(ws, &g, w, bias, x_i, cols, y_i)?;
                        continue;
                    };
                    conv_sample(ws, &g, w, bias, x_i, cols, conv)?;
                    let code_i = codes
                        .as_deref_mut()
                        .map(|c| &mut c[si * y_sample..(si + 1) * y_sample]);
                    forward_planes(rows, conv, (oh, ow), y_i, code_i);
                }
                Ok(())
            })
            .collect();
        scratch.recycle(conv_buf);
        scratch.recycle(cols_buf);
        for r in results {
            r?;
        }
        Tensor::from_vec([batch, out_c, yh, yw], out_flat)
    }

    /// Both backward entry points: `dW`/`db` always, `dX` only when
    /// `want_dx` (the first parameterised layer of a training step has no
    /// reader for it).
    fn backward_impl(
        &mut self,
        grad_out: &Tensor,
        scratch: &mut Scratch,
        want_dx: bool,
    ) -> Result<Option<Tensor>> {
        let g = self.geom;
        let (oh, ow) = (g.out_h(), g.out_w());
        let n_pos = oh * ow;
        let Some(x) = self.cached_input.take() else {
            return Err(TensorError::InvalidArgument(
                "conv2d backward without forward".into(),
            ));
        };
        let batch = x.dims()[0];
        let out_c = self.out_channels;
        let (yh, yw) = self.layer_out_hw();
        if grad_out.dims() != [batch, out_c, yh, yw] {
            self.cached_input = Some(x);
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: vec![batch, out_c, yh, yw],
                rhs: grad_out.dims().to_vec(),
            });
        }
        let go = grad_out.as_slice();
        let xs = x.as_slice();
        let w = self.w.as_slice();
        let col_rows = g.col_rows();
        let out_sample = out_c * n_pos;
        let y_sample = out_c * yh * yw;
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let direct = conv3x3::applies(&g);
        // A conv stage expands the pooled gradient into dY two samples at a
        // time; a plain conv reads a group's dY where it lies.
        let (rows, codes) = match &self.pool {
            Some(p) => (Some(p.rows), p.codes.as_slice()),
            None => (None, &[][..]),
        };

        // For dX only, the flat output; per-group dY pair buffers (conv
        // stage only), cols buffers (GEMM lowering only) and partial
        // accumulators. Largest first, so that a best-fit take of a small
        // buffer never holds the one a larger take needs. A buffer of length
        // 0 is an empty Vec with no pool traffic. All recycled (or returned)
        // below.
        let groups = sample_groups(batch);
        let dx_len = if want_dx { sample_len } else { 0 };
        let mut dx_flat = take_nonempty(scratch, batch * dx_len);
        let dy_len = if rows.is_some() { 2 * out_sample } else { 0 };
        let mut dy_buf = take_nonempty(scratch, groups * dy_len);
        let mut cols_buf = take_nonempty(scratch, groups * cols_len(&g));
        let dw_len = out_c * col_rows;
        let mut dw_buf = scratch.take_zeroed(groups * dw_len);
        let mut db_buf = scratch.take_zeroed(groups * out_c);

        let (_, workers) = scratch.gemm_workspaces(groups);
        let per = batch.div_ceil(groups);
        type Item<'a> = (
            usize,
            usize,
            &'a mut [f32],
            [&'a mut [f32]; 4],
            &'a mut GemmWorkspace,
        );
        let mut items: Vec<Item<'_>> = Vec::with_capacity(groups);
        {
            let mut dx_rest: &mut [f32] = &mut dx_flat;
            let mut s0 = 0usize;
            for ((((ws, dw), db), dy), cols) in workers
                .iter_mut()
                .zip(dw_buf.chunks_exact_mut(dw_len))
                .zip(db_buf.chunks_exact_mut(out_c))
                .zip(split_parts(&mut dy_buf, dy_len, groups))
                .zip(split_parts(&mut cols_buf, cols_len(&g), groups))
            {
                if s0 == batch {
                    break;
                }
                let take = per.min(batch - s0);
                let (xchunk, xtail) = dx_rest.split_at_mut(take * dx_len);
                items.push((s0, take, xchunk, [dw, db, dy, cols], ws));
                s0 += take;
                dx_rest = xtail;
            }
        }
        let results: Vec<Result<()>> = items
            .into_par_iter()
            .map(|(s0, take, xchunk, [dw, db, dy_buf, cols], ws)| {
                let step = if rows.is_some() { 2 } else { take };
                for start in (s0..s0 + take).step_by(step) {
                    let run = start..(start + step).min(s0 + take);
                    let dys: &[f32] = match rows {
                        Some(rows) => {
                            let pooled = run.start * y_sample..run.end * y_sample;
                            let dy = &mut dy_buf[..run.len() * out_sample];
                            backward_planes(
                                rows,
                                &go[pooled.clone()],
                                &codes[pooled],
                                (oh, ow),
                                dy,
                            );
                            dy
                        }
                        None => &go[run.start * out_sample..run.end * out_sample],
                    };
                    // db += row sums of dY, one chain per channel. A finite
                    // sum from +0 means every dY so far is finite.
                    conv3x3::bias_grad(dys, n_pos, db);
                    // dW += dY ⋆ x over the run's samples, in order: directly
                    // (two samples to a vector where they fit, skipping the
                    // positions that read only +0 rows when dY is finite),
                    // or per sample as dY · cols(x_i)ᵀ below, the cols
                    // rebuilt from the cached input.
                    if direct {
                        let xr = &xs[run.start * sample_len..run.end * sample_len];
                        let dy_finite = db.iter().all(|v| v.is_finite());
                        conv3x3::filter_grad(ws, &g, dys, xr, dw, dy_finite);
                    }
                    for (i, dy) in run.zip(dys.chunks_exact(out_sample)) {
                        if !direct {
                            let x_i = &xs[i * sample_len..(i + 1) * sample_len];
                            ops::im2col_into(x_i, &g, cols)?;
                            gemm::gemm(
                                ws,
                                out_c,
                                col_rows,
                                n_pos,
                                dy,
                                Layout::RowMajor,
                                cols,
                                Layout::Transposed,
                                dw,
                                true,
                                Epilogue::None,
                            );
                        }
                        if !want_dx {
                            continue;
                        }
                        let dx_i = &mut xchunk[(i - s0) * sample_len..(i - s0 + 1) * sample_len];
                        if direct {
                            conv3x3::input_grad(ws, &g, w, dy, dx_i);
                        } else {
                            // dX_i = col2im(Wᵀ · dY), through the cols
                            // buffer dW has finished reading.
                            gemm::gemm(
                                ws,
                                col_rows,
                                n_pos,
                                out_c,
                                w,
                                Layout::Transposed,
                                dy,
                                Layout::RowMajor,
                                cols,
                                false,
                                Epilogue::None,
                            );
                            ops::col2im_into(cols, &g, dx_i)?;
                        }
                    }
                }
                Ok(())
            })
            .collect();
        for r in results {
            r?;
        }

        // Reduce group partials into the persistent gradient tensors.
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
        let gw = self.grad_w.as_mut_slice();
        for dw in dw_buf.chunks_exact(dw_len) {
            for (acc, &v) in gw.iter_mut().zip(dw) {
                *acc += v;
            }
        }
        let gb = self.grad_b.as_mut_slice();
        for db in db_buf.chunks_exact(out_c) {
            for (acc, &v) in gb.iter_mut().zip(db) {
                *acc += v;
            }
        }
        for buf in [dw_buf, db_buf, dy_buf, cols_buf] {
            scratch.recycle(buf);
        }
        scratch.recycle_tensor(x);
        if !want_dx {
            return Ok(None);
        }
        Tensor::from_vec([batch, g.in_channels, g.in_h, g.in_w], dx_flat).map(Some)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        let y = self.forward_impl(x, train, scratch)?;
        if train {
            // Backward rebuilds any cols it needs from the input, so the
            // input is all that is kept (in a pooled buffer rather than a
            // fresh clone).
            let mut cached = scratch.take(x.len());
            cached.copy_from_slice(x.as_slice());
            self.cached_input = Some(Tensor::from_vec(x.shape().clone(), cached)?);
        }
        Ok(y)
    }

    fn forward_owned(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        let y = self.forward_impl(&x, train, scratch);
        if train && y.is_ok() {
            self.cached_input = Some(x);
        } else {
            scratch.recycle_tensor(x);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let dx = self.backward_impl(grad_out, scratch, true)?;
        Ok(dx.expect("backward_impl returns dX when asked for it"))
    }

    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<()> {
        self.backward_impl(grad_out, scratch, false).map(|_| ())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.w, &self.grad_w);
        f(&mut self.b, &self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn positions(&self) -> usize {
        1 + self.pool.as_ref().map_or(0, Layer::positions)
    }

    fn state_views(&self) -> Vec<StateView<'_>> {
        vec![StateView::of("w", &self.w), StateView::of("b", &self.b)]
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        vec![self.w.as_mut_slice(), self.b.as_mut_slice()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn forward_shapes() {
        let mut c = Conv2d::new(2, 4, 8, 8, 3, 1, 1, &mut rng()).unwrap();
        let mut s = Scratch::new();
        let x = Tensor::zeros([3, 2, 8, 8]);
        let y = c.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.dims(), &[3, 4, 8, 8]);
    }

    #[test]
    fn one_by_one_identity_kernel_passes_input_through() {
        let mut c = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng()).unwrap();
        let mut s = Scratch::new();
        c.w = Tensor::from_vec([1, 1], vec![1.0]).unwrap();
        c.b.fill_zero();
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = c.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel with padding 1: each output = sum of 3x3
        // neighbourhood. Centre of a 3x3 all-ones image = 9.
        let mut c = Conv2d::new(1, 1, 3, 3, 3, 1, 1, &mut rng()).unwrap();
        let mut s = Scratch::new();
        c.w = Tensor::full([1, 9], 1.0);
        c.b.fill_zero();
        let x = Tensor::full([1, 1, 3, 3], 1.0);
        let y = c.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.get(&[0, 0, 1, 1]).unwrap(), 9.0);
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 4.0); // corner sees 2x2
    }

    #[test]
    fn forward_rejects_wrong_input() {
        let mut c = Conv2d::new(2, 4, 8, 8, 3, 1, 1, &mut rng()).unwrap();
        let mut s = Scratch::new();
        assert!(c
            .forward(&Tensor::zeros([3, 2, 8, 7]), true, &mut s)
            .is_err());
        assert!(c.forward(&Tensor::zeros([3, 2, 8]), true, &mut s).is_err());
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut c = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng()).unwrap();
        let mut s = Scratch::new();
        let x = prionn_tensor::init::uniform([2, 1, 4, 4], -1.0, 1.0, &mut rng());
        let ones = Tensor::full([2, 2, 4, 4], 1.0);
        c.forward(&x, true, &mut s).unwrap();
        let dx = c.backward(&ones, &mut s).unwrap();
        let eps = 1e-2f32;
        for &(i, j) in &[(0usize, 0usize), (1, 4), (1, 8)] {
            let orig = c.w.get(&[i, j]).unwrap();
            c.w.set(&[i, j], orig + eps).unwrap();
            let up = ops::sum(&c.forward(&x, true, &mut s).unwrap());
            c.w.set(&[i, j], orig - eps).unwrap();
            let dn = ops::sum(&c.forward(&x, true, &mut s).unwrap());
            c.w.set(&[i, j], orig).unwrap();
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = c.grad_w.get(&[i, j]).unwrap();
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "dW[{i},{j}] numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradient check on one element.
        let idx = [1usize, 0, 2, 3];
        let orig = x.get(&idx).unwrap();
        let mut xp = x.clone();
        xp.set(&idx, orig + eps).unwrap();
        let up = ops::sum(&c.forward(&xp, true, &mut s).unwrap());
        xp.set(&idx, orig - eps).unwrap();
        let dn = ops::sum(&c.forward(&xp, true, &mut s).unwrap());
        let numeric = (up - dn) / (2.0 * eps);
        let analytic = dx.get(&idx).unwrap();
        assert!((numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0));
    }

    #[test]
    fn conv1d_constructor_builds_1xl_geometry() {
        let c = Conv2d::new_1d(4, 8, 100, 5, 2, 2, &mut rng()).unwrap();
        assert_eq!(c.geom().in_h, 1);
        assert_eq!(c.out_hw().0, 1);
        assert_eq!(c.out_hw().1, 50);
    }

    #[test]
    fn state_round_trip() {
        let mut a = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng()).unwrap();
        let mut b = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let mut s = Scratch::new();
        for (dst, src) in b.state_mut().into_iter().zip(a.state_views()) {
            dst.copy_from_slice(src.data);
        }
        let x = prionn_tensor::init::uniform([1, 1, 4, 4], -1.0, 1.0, &mut rng());
        assert_eq!(
            a.forward(&x, false, &mut s).unwrap(),
            b.forward(&x, false, &mut s).unwrap()
        );
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut c = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng()).unwrap();
        let mut s = Scratch::new();
        assert!(c.backward(&Tensor::zeros([1, 2, 4, 4]), &mut s).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn eval_forward_matches_training_forward_and_keeps_no_backward_state() {
        for batch in 1..=5 {
            let mut c = Conv2d::new(2, 3, 6, 6, 3, 1, 1, &mut rng()).unwrap();
            let mut s = Scratch::new();
            let x = prionn_tensor::init::uniform([batch, 2, 6, 6], -1.0, 1.0, &mut rng());
            let trained = c.forward(&x, true, &mut s).unwrap();
            let evaluated = c.forward(&x, false, &mut s).unwrap();
            assert_eq!(bits(&evaluated), bits(&trained), "batch {batch}");
            let err = c.backward(&Tensor::zeros([batch, 3, 6, 6]), &mut s);
            assert!(err.unwrap_err().to_string().contains("without forward"));
        }
    }

    /// Run `f` on every pool thread at once. Until all of them are done no
    /// worker is idle, so every `par_iter` inside `f` is run by its caller
    /// alone. Only one test may do this: two at once could each hold some
    /// of the workers at their barrier and wait for the rest forever.
    fn on_a_saturated_pool<R: Send>(f: impl Fn() -> R + Sync) -> Vec<R> {
        let threads = rayon::current_num_threads();
        let gate = std::sync::Barrier::new(threads);
        (0..threads)
            .into_par_iter()
            .map(|_| {
                gate.wait();
                let out = f();
                gate.wait();
                out
            })
            .collect()
    }

    #[test]
    fn outputs_do_not_depend_on_which_thread_ran_a_chunk() {
        for batch in 1..=5 {
            let x = prionn_tensor::init::uniform([batch, 2, 6, 6], -1.0, 1.0, &mut rng());
            let dy = prionn_tensor::init::uniform([batch, 3, 6, 6], -1.0, 1.0, &mut rng());
            let step = || {
                let mut c = Conv2d::new(2, 3, 6, 6, 3, 1, 1, &mut rng()).unwrap();
                let mut s = Scratch::new();
                let y = c.forward(&x, true, &mut s).unwrap();
                let dx = c.backward(&dy, &mut s).unwrap();
                [bits(&y), bits(&dx), bits(&c.grad_w), bits(&c.grad_b)]
            };
            // The caller ran every chunk itself …
            let alone = on_a_saturated_pool(step);
            // … against an idle pool whose workers are free to take chunks.
            for _ in 0..8 {
                let shared = step();
                for (run, got) in alone.iter().enumerate() {
                    assert_eq!(*got, shared, "batch {batch}, saturated run {run}");
                }
            }
        }
    }
}
