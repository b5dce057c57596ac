//! 2-D convolution layer, with a 1-D convenience constructor used by the
//! paper's 1D-CNN architecture.
//!
//! A 3×3, stride-1, pad-1 layer (every conv of the paper's 2D-CNN) runs the
//! direct kernels of [`conv3x3`] per sample. Any other geometry (the strided
//! `1×k` layers of the 1D-CNN) is lowered onto the blocked GEMM as
//! `Y = W · cols(x)`, where `cols(x)` is the im2col matrix that
//! [`gemm::gemm_im2col`] packs straight from the image and never stores,
//! with `dX = col2im(Wᵀ · dY)`. Both give the same bits. Training keeps a
//! copy of the *input* (`C·H·W` floats per sample) for backward; train and
//! eval run the same forward.

use super::Layer;
use crate::Result;
use prionn_tensor::ops::gemm::{self, Epilogue, GemmWorkspace, Layout};
use prionn_tensor::ops::{self, conv3x3, Conv2dGeom};
use prionn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;
use rayon::prelude::*;

/// Worker-group count for sample-level parallelism.
fn sample_groups(batch: usize) -> usize {
    rayon::current_num_threads().min(batch).max(1)
}

/// A 2-D convolution over `[batch, in_c, H, W]` inputs.
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
    // Pooled copy of the last training-mode forward's input, which
    // backward reads again.
    cached_input: Option<Tensor>,
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

    /// Convolution geometry (exposed for architecture builders).
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output spatial dims `(oh, ow)`.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.geom.out_h(), self.geom.out_w())
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

impl Conv2d {
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
        if grad_out.dims() != [batch, self.out_channels, oh, ow] {
            self.cached_input = Some(x);
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: vec![batch, self.out_channels, oh, ow],
                rhs: grad_out.dims().to_vec(),
            });
        }
        let go = grad_out.as_slice();
        let xs = x.as_slice();
        let w = self.w.as_slice();
        let out_c = self.out_channels;
        let col_rows = g.col_rows();
        let out_sample = out_c * n_pos;
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let direct = conv3x3::applies(&g);

        // Pooled per-group partial accumulators and, for dX only, the flat
        // output plus (GEMM lowering only) a per-group dcols workspace
        // (empty, and no pool traffic, otherwise). All recycled (or
        // returned) below.
        let groups = sample_groups(batch);
        let mut dw_parts: Vec<Vec<f32>> = (0..groups)
            .map(|_| scratch.take_zeroed(out_c * col_rows))
            .collect();
        let mut db_parts: Vec<Vec<f32>> = (0..groups).map(|_| scratch.take_zeroed(out_c)).collect();
        let dx_len = if want_dx { sample_len } else { 0 };
        let dcols_len = if want_dx && !direct {
            col_rows * n_pos
        } else {
            0
        };
        let mut take_nonempty = |len: usize| {
            if len > 0 {
                scratch.take(len)
            } else {
                Vec::new()
            }
        };
        let mut dcols_parts: Vec<Vec<f32>> =
            (0..groups).map(|_| take_nonempty(dcols_len)).collect();
        let mut dx_flat = take_nonempty(batch * dx_len);

        let (_, workers) = scratch.gemm_workspaces(groups);
        let per = batch.div_ceil(groups);
        type Item<'a> = (
            usize,
            usize,
            &'a mut [f32],
            &'a mut [f32],
            &'a mut [f32],
            &'a mut [f32],
            &'a mut GemmWorkspace,
        );
        let mut items: Vec<Item<'_>> = Vec::with_capacity(groups);
        {
            let mut dx_rest: &mut [f32] = &mut dx_flat;
            let mut s0 = 0usize;
            for (((ws, dw), db), dc) in workers
                .iter_mut()
                .zip(dw_parts.iter_mut())
                .zip(db_parts.iter_mut())
                .zip(dcols_parts.iter_mut())
            {
                if s0 == batch {
                    break;
                }
                let take = per.min(batch - s0);
                let (xchunk, xtail) = dx_rest.split_at_mut(take * dx_len);
                items.push((s0, take, xchunk, dw, db, dc, ws));
                s0 += take;
                dx_rest = xtail;
            }
        }
        let results: Vec<Result<()>> = items
            .into_par_iter()
            .map(|(s0, take, xchunk, dw, db, dcols, ws)| {
                for i in s0..s0 + take {
                    let dy = &go[i * out_sample..(i + 1) * out_sample];
                    let x_i = &xs[i * sample_len..(i + 1) * sample_len];
                    // dW += dY ⋆ x_i (accumulated across the group's
                    // samples): directly, or as dY · cols(x_i)ᵀ with the cols
                    // regenerated from the cached input at pack time.
                    if direct {
                        conv3x3::filter_grad(ws, &g, dy, x_i, dw);
                    } else {
                        gemm::gemm_im2col(
                            ws,
                            out_c,
                            dy,
                            Layout::RowMajor,
                            x_i,
                            &g,
                            Layout::Transposed,
                            dw,
                            true,
                            Epilogue::None,
                        );
                    }
                    // db += row sums of dY.
                    for (oc, b) in db.iter_mut().enumerate() {
                        for &v in &dy[oc * n_pos..(oc + 1) * n_pos] {
                            *b += v;
                        }
                    }
                    if !want_dx {
                        continue;
                    }
                    let dx_i = &mut xchunk[(i - s0) * sample_len..(i - s0 + 1) * sample_len];
                    if direct {
                        conv3x3::input_grad(ws, &g, w, dy, dx_i);
                    } else {
                        // dX_i = col2im(Wᵀ · dY).
                        gemm::gemm(
                            ws,
                            col_rows,
                            n_pos,
                            out_c,
                            w,
                            Layout::Transposed,
                            dy,
                            Layout::RowMajor,
                            dcols,
                            false,
                            Epilogue::None,
                        );
                        ops::col2im_into(dcols, &g, dx_i)?;
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
        for dw in &dw_parts {
            for (acc, &v) in gw.iter_mut().zip(dw) {
                *acc += v;
            }
        }
        let gb = self.grad_b.as_mut_slice();
        for db in &db_parts {
            for (acc, &v) in gb.iter_mut().zip(db) {
                *acc += v;
            }
        }
        for buf in dw_parts.into_iter().chain(db_parts).chain(dcols_parts) {
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
        let batch = self.check_input(x)?;
        let g = self.geom;
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let (oh, ow) = (g.out_h(), g.out_w());
        let out_c = self.out_channels;
        let out_sample = out_c * oh * ow;
        let xs = x.as_slice();
        let w = self.w.as_slice();
        let bias = self.b.as_slice();

        // Recycle an input no backward consumed.
        if let Some(old) = self.cached_input.take() {
            scratch.recycle_tensor(old);
        }
        let mut out_flat = scratch.take(batch * out_sample);

        // Per sample: y_i = W ∗ x_i + b, directly or as W · cols(x_i) with
        // a fused BiasRow epilogue and the cols packed straight from the
        // image. Samples are sharded across worker groups, each with its own
        // workspace and a disjoint chunk of the output.
        let direct = conv3x3::applies(&g);
        let groups = sample_groups(batch);
        let (_, workers) = scratch.gemm_workspaces(groups);
        let per = batch.div_ceil(groups);
        let mut items: Vec<(usize, &mut [f32], &mut GemmWorkspace)> = Vec::with_capacity(groups);
        {
            let mut out_rest: &mut [f32] = &mut out_flat;
            let mut s0 = 0usize;
            for ws in workers.iter_mut() {
                if s0 == batch {
                    break;
                }
                let take = per.min(batch - s0);
                let (ochunk, otail) = out_rest.split_at_mut(take * out_sample);
                items.push((s0, ochunk, ws));
                s0 += take;
                out_rest = otail;
            }
        }
        items.into_par_iter().for_each(|(s0, ochunk, ws)| {
            for (si, out_i) in ochunk.chunks_exact_mut(out_sample).enumerate() {
                let x_i = &xs[(s0 + si) * sample_len..(s0 + si + 1) * sample_len];
                if direct {
                    conv3x3::forward(ws, &g, w, bias, x_i, out_i);
                } else {
                    gemm::gemm_im2col(
                        ws,
                        out_c,
                        w,
                        Layout::RowMajor,
                        x_i,
                        &g,
                        Layout::RowMajor,
                        out_i,
                        false,
                        Epilogue::BiasRow(bias),
                    );
                }
            }
        });
        if train {
            // Backward regenerates the cols from the input, so the input is
            // all that is kept (in a pooled buffer rather than a fresh clone).
            let mut cached = scratch.take(x.len());
            cached.copy_from_slice(xs);
            self.cached_input = Some(Tensor::from_vec(x.shape().clone(), cached)?);
        }
        Tensor::from_vec([batch, out_c, oh, ow], out_flat)
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

    fn state_keys(&self) -> &'static [&'static str] {
        &["w", "b"]
    }

    fn state(&self) -> Vec<Tensor> {
        vec![self.w.clone(), self.b.clone()]
    }

    fn load_state(&mut self, state: &[Tensor]) -> Result<usize> {
        let [w, b, ..] = state else {
            return Err(TensorError::InvalidArgument(
                "conv2d state needs 2 tensors".into(),
            ));
        };
        if w.shape() != self.w.shape() || b.shape() != self.b.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_load_state",
                lhs: self.w.dims().to_vec(),
                rhs: w.dims().to_vec(),
            });
        }
        self.w = w.clone();
        self.b = b.clone();
        Ok(2)
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
        b.load_state(&a.state()).unwrap();
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
