//! 2-D convolution layer (im2col + matmul), with a 1-D convenience
//! constructor used by the paper's 1D-CNN architecture.

use super::Layer;
use crate::Result;
use prionn_tensor::ops::gemm::{self, Epilogue, GemmWorkspace, Layout};
use prionn_tensor::ops::{self, Conv2dGeom};
use prionn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;
use rayon::prelude::*;

/// Worker-group count for sample-level parallelism.
fn sample_groups(batch: usize) -> usize {
    rayon::current_num_threads().min(batch).max(1)
}

/// A 2-D convolution over `[batch, in_c, H, W]` inputs.
///
/// Weights are stored pre-flattened as `[out_c, in_c·kh·kw]` so forward is a
/// single matmul against the im2col matrix of each sample. Batch rows are
/// sharded across the compute pool (the caller plus its parked workers).
pub struct Conv2d {
    geom: Conv2dGeom,
    out_channels: usize,
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    // Flat pooled im2col cache from the last training-mode forward pass:
    // `batch` back-to-back `[col_rows, n_pos]` matrices.
    cached_cols: Option<(Vec<f32>, usize)>,
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
            cached_cols: None,
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

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        let batch = self.check_input(x)?;
        let g = self.geom;
        let sample_len = g.in_channels * g.in_h * g.in_w;
        let (oh, ow) = (g.out_h(), g.out_w());
        let n_pos = oh * ow;
        let col_rows = g.col_rows();
        let cols_sample = col_rows * n_pos;
        let out_sample = self.out_channels * n_pos;
        let xs = x.as_slice();
        let w = self.w.as_slice();
        let bias = self.b.as_slice();
        let out_c = self.out_channels;

        // Recycle last step's cols cache, then draw both the im2col matrix
        // and the output from the pool. Training keeps every sample's cols
        // (back to back) for backward; an eval forward keeps nothing, so
        // each worker group reuses one sample-sized buffer.
        if let Some((old, _)) = self.cached_cols.take() {
            scratch.recycle(old);
        }
        let groups = sample_groups(batch);
        let cols_kept = if train { batch } else { groups };
        let mut cols_flat = scratch.take(cols_kept * cols_sample);
        let mut out_flat = scratch.take(batch * out_sample);

        // Per-sample: cols = im2col(x_i); y_i = W · cols + b (fused BiasRow
        // epilogue). Samples are sharded across worker groups, each with its
        // own GEMM pack workspace and disjoint cols/out chunks.
        let (_, workers) = scratch.gemm_workspaces(groups);
        let per = batch.div_ceil(groups);
        let mut items: Vec<(usize, &mut [f32], &mut [f32], &mut GemmWorkspace)> =
            Vec::with_capacity(groups);
        {
            let mut cols_rest: &mut [f32] = &mut cols_flat;
            let mut out_rest: &mut [f32] = &mut out_flat;
            let mut s0 = 0usize;
            for ws in workers.iter_mut() {
                if s0 == batch {
                    break;
                }
                let take = per.min(batch - s0);
                let cols_take = if train { take } else { 1 };
                let (cchunk, ctail) = cols_rest.split_at_mut(cols_take * cols_sample);
                let (ochunk, otail) = out_rest.split_at_mut(take * out_sample);
                items.push((s0, cchunk, ochunk, ws));
                s0 += take;
                cols_rest = ctail;
                out_rest = otail;
            }
        }
        // Offset of the next sample's cols within its group's chunk.
        let cols_step = if train { cols_sample } else { 0 };
        let results: Vec<Result<()>> = items
            .into_par_iter()
            .map(|(s0, cchunk, ochunk, ws)| {
                for (si, out_i) in ochunk.chunks_exact_mut(out_sample).enumerate() {
                    let i = s0 + si;
                    let cols_i = &mut cchunk[si * cols_step..][..cols_sample];
                    ops::im2col_into(&xs[i * sample_len..(i + 1) * sample_len], &g, cols_i)?;
                    gemm::gemm(
                        ws,
                        out_c,
                        n_pos,
                        col_rows,
                        w,
                        Layout::RowMajor,
                        cols_i,
                        Layout::RowMajor,
                        out_i,
                        false,
                        Epilogue::BiasRow(bias),
                    );
                }
                Ok(())
            })
            .collect();
        for r in results {
            r?;
        }
        if train {
            self.cached_cols = Some((cols_flat, batch));
        } else {
            scratch.recycle(cols_flat);
        }
        Tensor::from_vec([batch, self.out_channels, oh, ow], out_flat)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let g = self.geom;
        let (oh, ow) = (g.out_h(), g.out_w());
        let n_pos = oh * ow;
        let Some((cols_flat, batch)) = self.cached_cols.take() else {
            return Err(TensorError::InvalidArgument(
                "conv2d backward without forward".into(),
            ));
        };
        if grad_out.dims() != [batch, self.out_channels, oh, ow] {
            self.cached_cols = Some((cols_flat, batch));
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: vec![batch, self.out_channels, oh, ow],
                rhs: grad_out.dims().to_vec(),
            });
        }
        let go = grad_out.as_slice();
        let w = self.w.as_slice();
        let out_c = self.out_channels;
        let col_rows = g.col_rows();
        let cols_sample = col_rows * n_pos;
        let out_sample = out_c * n_pos;
        let sample_len = g.in_channels * g.in_h * g.in_w;

        // Pooled per-group partial accumulators + per-group dcols workspace,
        // and the flat dX output. All recycled (or returned) below.
        let groups = sample_groups(batch);
        let mut dw_parts: Vec<Vec<f32>> = (0..groups)
            .map(|_| scratch.take_zeroed(out_c * col_rows))
            .collect();
        let mut db_parts: Vec<Vec<f32>> = (0..groups).map(|_| scratch.take_zeroed(out_c)).collect();
        let mut dcols_parts: Vec<Vec<f32>> =
            (0..groups).map(|_| scratch.take(cols_sample)).collect();
        let mut dx_flat = scratch.take(batch * sample_len);

        let (_, workers) = scratch.gemm_workspaces(groups);
        let per = batch.div_ceil(groups);
        type Item<'a> = (
            usize,
            &'a [f32],
            &'a mut [f32],
            &'a mut [f32],
            &'a mut [f32],
            &'a mut [f32],
            &'a mut GemmWorkspace,
        );
        let mut items: Vec<Item<'_>> = Vec::with_capacity(groups);
        {
            let mut cols_rest: &[f32] = &cols_flat;
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
                let (cchunk, ctail) = cols_rest.split_at(take * cols_sample);
                let (xchunk, xtail) = dx_rest.split_at_mut(take * sample_len);
                items.push((s0, cchunk, xchunk, dw, db, dc, ws));
                s0 += take;
                cols_rest = ctail;
                dx_rest = xtail;
            }
        }
        let results: Vec<Result<()>> = items
            .into_par_iter()
            .map(|(s0, cchunk, xchunk, dw, db, dcols, ws)| {
                for (si, (cols_i, dx_i)) in cchunk
                    .chunks_exact(cols_sample)
                    .zip(xchunk.chunks_exact_mut(sample_len))
                    .enumerate()
                {
                    let i = s0 + si;
                    let dy = &go[i * out_sample..(i + 1) * out_sample];
                    // dW += dY · colsᵀ (accumulated across the group's
                    // samples); db += row sums of dY; dX_i = col2im(Wᵀ · dY).
                    gemm::gemm(
                        ws,
                        out_c,
                        col_rows,
                        n_pos,
                        dy,
                        Layout::RowMajor,
                        cols_i,
                        Layout::Transposed,
                        dw,
                        true,
                        Epilogue::None,
                    );
                    for (oc, b) in db.iter_mut().enumerate() {
                        for &v in &dy[oc * n_pos..(oc + 1) * n_pos] {
                            *b += v;
                        }
                    }
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
        for buf in dw_parts
            .into_iter()
            .chain(db_parts)
            .chain(dcols_parts)
            .chain(std::iter::once(cols_flat))
        {
            scratch.recycle(buf);
        }
        Tensor::from_vec([batch, g.in_channels, g.in_h, g.in_w], dx_flat)
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
