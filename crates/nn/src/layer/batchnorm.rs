//! Batch normalisation (Ioffe & Szegedy, 2015).

use super::{Layer, StateView};
use crate::Result;
use prionn_tensor::{Scratch, Tensor, TensorError};

/// Per-channel batch normalisation with learnable scale/shift.
///
/// Accepts rank-2 `[batch, features]` (channel = feature) or rank-4
/// `[batch, C, H, W]` (channel = C) inputs. Train mode normalises with the
/// batch statistics and updates running estimates; eval mode uses the
/// running estimates, so single-sample inference is well-defined.
pub struct BatchNorm {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Forward cache: (input dims, x_hat, inv_std per channel)
    cache: Option<(Vec<usize>, Vec<f32>, Vec<f32>)>,
}

impl BatchNorm {
    /// A batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Result<Self> {
        if channels == 0 {
            return Err(TensorError::InvalidArgument(
                "batchnorm over zero channels".into(),
            ));
        }
        Ok(BatchNorm {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::full([channels], 1.0),
            beta: Tensor::zeros([channels]),
            grad_gamma: Tensor::zeros([channels]),
            grad_beta: Tensor::zeros([channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        })
    }

    /// (channel index, per-channel group size) for the supported ranks.
    fn layout(&self, dims: &[usize]) -> Result<(usize, usize)> {
        match dims.len() {
            2 if dims[1] == self.channels => Ok((dims[0], 1)),
            4 if dims[1] == self.channels => Ok((dims[0], dims[2] * dims[3])),
            _ => Err(TensorError::ShapeMismatch {
                op: "batchnorm",
                lhs: vec![0, self.channels],
                rhs: dims.to_vec(),
            }),
        }
    }

    /// Iterate the flat offsets of channel `c` in a tensor with the given
    /// layout, applying `f` to each.
    #[inline]
    fn for_channel(
        dims_batch: usize,
        channels: usize,
        spatial: usize,
        c: usize,
        mut f: impl FnMut(usize),
    ) {
        for b in 0..dims_batch {
            let base = (b * channels + c) * spatial;
            for s in 0..spatial {
                f(base + s);
            }
        }
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        // Recycle a stale cache left by a forward-only pass (predict).
        if let Some((_, xh, inv)) = self.cache.take() {
            scratch.recycle(xh);
            scratch.recycle(inv);
        }
        let (batch, spatial) = self.layout(x.dims())?;
        let n = (batch * spatial) as f32;
        let xs = x.as_slice();
        let mut out = scratch.take(xs.len());
        let mut x_hat = scratch.take(xs.len());
        let mut inv_stds = scratch.take(self.channels);

        // The channel index addresses four parallel arrays at once; an
        // iterator chain over just one of them would obscure that.
        #[allow(clippy::needless_range_loop)]
        for c in 0..self.channels {
            let (mean, var) = if train {
                let mut sum = 0.0f32;
                Self::for_channel(batch, self.channels, spatial, c, |i| sum += xs[i]);
                let mean = sum / n;
                let mut var = 0.0f32;
                Self::for_channel(batch, self.channels, spatial, c, |i| {
                    let d = xs[i] - mean;
                    var += d * d;
                });
                let var = var / n;
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[c], self.running_var[c])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[c] = inv_std;
            let (g, b_) = (self.gamma.as_slice()[c], self.beta.as_slice()[c]);
            Self::for_channel(batch, self.channels, spatial, c, |i| {
                let xh = (xs[i] - mean) * inv_std;
                x_hat[i] = xh;
                out[i] = g * xh + b_;
            });
        }
        if train {
            self.cache = Some((x.dims().to_vec(), x_hat, inv_stds));
        } else {
            scratch.recycle(x_hat);
            scratch.recycle(inv_stds);
        }
        Tensor::from_vec(x.dims().to_vec(), out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let (dims, x_hat, inv_stds) = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument("batchnorm backward without train-mode forward".into())
        })?;
        if grad_out.dims() != dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm_backward",
                lhs: dims,
                rhs: grad_out.dims().to_vec(),
            });
        }
        let (batch, spatial) = self.layout(&dims)?;
        let n = (batch * spatial) as f32;
        let gys = grad_out.as_slice();
        let mut dx = scratch.take_zeroed(gys.len());

        #[allow(clippy::needless_range_loop)]
        for c in 0..self.channels {
            let mut sum_gy = 0.0f32;
            let mut sum_gy_xhat = 0.0f32;
            Self::for_channel(batch, self.channels, spatial, c, |i| {
                sum_gy += gys[i];
                sum_gy_xhat += gys[i] * x_hat[i];
            });
            self.grad_beta.as_mut_slice()[c] = sum_gy;
            self.grad_gamma.as_mut_slice()[c] = sum_gy_xhat;
            let g = self.gamma.as_slice()[c];
            let scale = g * inv_stds[c];
            let mean_gy = sum_gy / n;
            let mean_gy_xhat = sum_gy_xhat / n;
            Self::for_channel(batch, self.channels, spatial, c, |i| {
                dx[i] = scale * (gys[i] - mean_gy - x_hat[i] * mean_gy_xhat);
            });
        }
        scratch.recycle(x_hat);
        scratch.recycle(inv_stds);
        Tensor::from_vec(dims, dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.gamma, &self.grad_gamma);
        f(&mut self.beta, &self.grad_beta);
    }

    fn param_count(&self) -> usize {
        2 * self.channels
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn state_views(&self) -> Vec<StateView<'_>> {
        let channels = std::slice::from_ref(&self.channels);
        vec![
            StateView::of("gamma", &self.gamma),
            StateView::of("beta", &self.beta),
            StateView {
                key: "running_mean",
                dims: channels,
                data: &self.running_mean,
            },
            StateView {
                key: "running_var",
                dims: channels,
                data: &self.running_var,
            },
        ]
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        vec![
            self.gamma.as_mut_slice(),
            self.beta.as_mut_slice(),
            &mut self.running_mean,
            &mut self.running_var,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(41)
    }

    #[test]
    fn train_forward_normalises_each_channel() {
        let mut bn = BatchNorm::new(3).unwrap();
        let mut s = Scratch::new();
        let x = prionn_tensor::init::uniform([16, 3, 4, 4], -5.0, 9.0, &mut rng());
        let y = bn.forward(&x, true, &mut s).unwrap();
        let ys = y.as_slice();
        for c in 0..3 {
            let mut vals = Vec::new();
            for b in 0..16 {
                for s in 0..16 {
                    vals.push(ys[(b * 3 + c) * 16 + s]);
                }
            }
            let n = vals.len() as f32;
            let mean: f32 = vals.iter().sum::<f32>() / n;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(2).unwrap();
        let mut s = Scratch::new();
        // Feed several constant-distribution batches to settle running stats.
        let x = prionn_tensor::init::normal([64, 2], 3.0, 2.0, &mut rng());
        for _ in 0..50 {
            bn.forward(&x, true, &mut s).unwrap();
        }
        // A single eval sample at the distribution mean should map near beta.
        let probe = Tensor::from_vec([1, 2], vec![3.0, 3.0]).unwrap();
        let y = bn.forward(&probe, false, &mut s).unwrap();
        for &v in y.as_slice() {
            assert!(v.abs() < 0.3, "eval output {v} should be near 0");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut bn = BatchNorm::new(2).unwrap();
        let x = prionn_tensor::init::uniform([5, 2], -1.0, 1.0, &mut rng());
        // Loss = weighted sum of outputs (fixed weights make it nontrivial).
        let weights: Vec<f32> = (0..10).map(|i| ((i * 7 % 5) as f32 - 2.0) / 2.0).collect();
        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            bn.forward(x, true, &mut Scratch::new())
                .unwrap()
                .as_slice()
                .iter()
                .zip(&weights)
                .map(|(&y, &w)| y * w)
                .sum()
        };
        loss(&mut bn, &x);
        let grad_out = Tensor::from_vec([5, 2], weights.clone()).unwrap();
        let dx = bn.backward(&grad_out, &mut Scratch::new()).unwrap();
        let eps = 1e-3f32;
        for &(i, j) in &[(0usize, 0usize), (2, 1), (4, 0)] {
            let mut xp = x.clone();
            let orig = x.get(&[i, j]).unwrap();
            xp.set(&[i, j], orig + eps).unwrap();
            let up = loss(&mut bn, &xp);
            xp.set(&[i, j], orig - eps).unwrap();
            let dn = loss(&mut bn, &xp);
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = dx.get(&[i, j]).unwrap();
            assert!(
                (numeric - analytic).abs() < 2e-2 + 0.05 * analytic.abs(),
                "({i},{j}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn state_round_trip_includes_running_stats() {
        let mut a = BatchNorm::new(2).unwrap();
        let mut s = Scratch::new();
        let x = prionn_tensor::init::normal([32, 2], 5.0, 1.0, &mut rng());
        for _ in 0..20 {
            a.forward(&x, true, &mut s).unwrap();
        }
        let mut b = BatchNorm::new(2).unwrap();
        let keys: Vec<&str> = a.state_views().iter().map(|v| v.key).collect();
        assert_eq!(keys, ["gamma", "beta", "running_mean", "running_var"]);
        for (dst, src) in b.state_mut().into_iter().zip(a.state_views()) {
            dst.copy_from_slice(src.data);
        }
        let probe = prionn_tensor::init::normal([4, 2], 5.0, 1.0, &mut rng());
        assert_eq!(
            a.forward(&probe, false, &mut s).unwrap(),
            b.forward(&probe, false, &mut s).unwrap()
        );
    }

    #[test]
    fn rejects_wrong_channel_count_and_eval_backward() {
        let mut bn = BatchNorm::new(3).unwrap();
        let mut s = Scratch::new();
        assert!(bn.forward(&Tensor::zeros([2, 4]), true, &mut s).is_err());
        assert!(bn
            .forward(&Tensor::zeros([2, 4, 2, 2]), true, &mut s)
            .is_err());
        let mut bn2 = BatchNorm::new(2).unwrap();
        bn2.forward(&Tensor::zeros([2, 2]), false, &mut s).unwrap();
        assert!(
            bn2.backward(&Tensor::zeros([2, 2]), &mut s).is_err(),
            "eval forward caches nothing"
        );
    }
}
