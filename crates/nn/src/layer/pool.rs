//! Max pooling.

use super::Layer;
use crate::Result;
use prionn_tensor::{Scratch, Tensor, TensorError};

/// Max pooling over `[batch, C, H, W]` with a `ph × pw` window and matching
/// stride (the standard non-overlapping configuration).
///
/// Spatial dims that do not divide evenly are truncated (floor), matching
/// common framework defaults.
pub struct MaxPool2d {
    ph: usize,
    pw: usize,
    // (input shape, linear index of the max tap for each output element)
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// A square `p × p` pool.
    pub fn new(p: usize) -> Result<Self> {
        Self::with_window(p, p)
    }

    /// A `ph × pw` pool. A height of 1 gives the 1-D pooling used by the
    /// paper's 1D-CNN.
    pub fn with_window(ph: usize, pw: usize) -> Result<Self> {
        if ph == 0 || pw == 0 {
            return Err(TensorError::InvalidArgument(
                "zero-sized pool window".into(),
            ));
        }
        Ok(MaxPool2d {
            ph,
            pw,
            cache: None,
        })
    }

    /// Output spatial dims for a given input.
    pub fn out_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        (in_h / self.ph, in_w / self.pw)
    }
}

/// The largest of a 2×2 window's taps and its index, scanned like the
/// general loop: the first one wins a tie, and a window with nothing above
/// `-inf` reports `(-inf, 0)`.
#[inline(always)]
fn first_max(taps: [(f32, usize); 4]) -> (f32, usize) {
    let mut best = (f32::NEG_INFINITY, 0usize);
    for tap in taps {
        if tap.0 > best.0 {
            best = tap;
        }
    }
    best
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        // Recycle an argmax cache no backward consumed.
        if let Some((_, old)) = self.cache.take() {
            scratch.recycle_idx(old);
        }
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "maxpool",
                expected: 4,
                actual: x.rank(),
            });
        }
        let [b, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let (oh, ow) = self.out_hw(h, w);
        if oh == 0 || ow == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "pool {}x{} larger than input {h}x{w}",
                self.ph, self.pw
            )));
        }
        let xs = x.as_slice();
        let mut out = scratch.take(b * c * oh * ow);
        // Only backward reads the argmax table: an eval forward keeps none.
        let mut argmax = train.then(|| scratch.take_idx(out.len()));
        for pi in 0..b * c {
            let plane = pi * h * w;
            for oy in 0..oh {
                let o0 = (pi * oh + oy) * ow;
                let out_row = &mut out[o0..o0 + ow];
                let mut arg_row = argmax.as_mut().map(|a| &mut a[o0..o0 + ow]);
                if (self.ph, self.pw) == (2, 2) {
                    // The paper's window: walk the two input rows in step,
                    // taps in the general loop's order. Without an argmax
                    // table to fill the scan vectorises.
                    let top = plane + 2 * oy * w;
                    let rows = xs[top..top + w]
                        .chunks_exact(2)
                        .zip(xs[top + w..top + 2 * w].chunks_exact(2));
                    match arg_row {
                        None => {
                            for (o, (t, u)) in out_row.iter_mut().zip(rows) {
                                *o = first_max([(t[0], 0), (t[1], 0), (u[0], 0), (u[1], 0)]).0;
                            }
                        }
                        Some(arg_row) => {
                            for (ox, (t, u)) in rows.enumerate() {
                                let i = top + 2 * ox;
                                (out_row[ox], arg_row[ox]) = first_max([
                                    (t[0], i),
                                    (t[1], i + 1),
                                    (u[0], i + w),
                                    (u[1], i + w + 1),
                                ]);
                            }
                        }
                    }
                    continue;
                }
                for (ox, o) in out_row.iter_mut().enumerate() {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..self.ph {
                        let iy = oy * self.ph + dy;
                        for dx in 0..self.pw {
                            let ix = ox * self.pw + dx;
                            let idx = plane + iy * w + ix;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    *o = best;
                    if let Some(arg_row) = &mut arg_row {
                        arg_row[ox] = best_idx;
                    }
                }
            }
        }
        self.cache = argmax.map(|argmax| (x.dims().to_vec(), argmax));
        Tensor::from_vec([b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let (in_dims, argmax) = self.cache.take().ok_or_else(|| {
            TensorError::InvalidArgument("maxpool backward without forward".into())
        })?;
        if grad_out.len() != argmax.len() {
            return Err(TensorError::LengthMismatch {
                expected: argmax.len(),
                actual: grad_out.len(),
            });
        }
        let mut dx = scratch.take_zeroed(in_dims.iter().product());
        for (&idx, &g) in argmax.iter().zip(grad_out.as_slice()) {
            dx[idx] += g;
        }
        scratch.recycle_idx(argmax);
        Tensor::from_vec(in_dims, dx)
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_known_maxima() {
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 3., //
                4., 0., 1., 2., //
                9., 1., 0., 0., //
                1., 1., 0., 7.,
            ],
        )
        .unwrap();
        let y = p.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4., 5., 9., 7.]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 3., 2., 0.]).unwrap();
        p.forward(&x, true, &mut s).unwrap();
        let dy = Tensor::from_vec([1, 1, 1, 1], vec![5.0]).unwrap();
        let dx = p.backward(&dy, &mut s).unwrap();
        assert_eq!(dx.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn eval_forward_matches_training_forward_and_keeps_no_argmax() {
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        let x =
            Tensor::from_vec([1, 2, 2, 4], (0..16).map(|v| (v * 7 % 5) as f32).collect()).unwrap();
        let trained = p.forward(&x, true, &mut s).unwrap();
        let evaluated = p.forward(&x, false, &mut s).unwrap();
        assert_eq!(evaluated, trained);
        assert!(
            p.backward(&Tensor::zeros([1, 2, 1, 2]), &mut s).is_err(),
            "eval kept an argmax table"
        );
    }

    #[test]
    fn two_by_two_path_keeps_the_general_scan_order_on_ties_nan_and_ragged_edges() {
        // Values drawn from a tiny set so most windows hold a tie, plus NaN
        // and -inf windows; 5x7 leaves a ragged row and column.
        let (b, c, h, w) = (2usize, 3usize, 5usize, 7usize);
        let pick = [1.0f32, 1.0, -2.0, 0.0, -0.0, f32::NAN, f32::NEG_INFINITY];
        let data: Vec<f32> = (0..b * c * h * w)
            .map(|i| pick[(i * 5 + i / 3) % 7])
            .collect();
        let x = Tensor::from_vec([b, c, h, w], data.clone()).unwrap();
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        let y = p.forward(&x, true, &mut s).unwrap();
        let (oh, ow) = (h / 2, w / 2);
        // One distinct gradient per output exposes the argmax through dX.
        let dy = Tensor::from_vec(
            [b, c, oh, ow],
            (0..b * c * oh * ow).map(|i| (i + 1) as f32).collect(),
        )
        .unwrap();
        let dx = p.backward(&dy, &mut s).unwrap();

        let mut want_y = Vec::new();
        let mut want_dx = vec![0.0f32; data.len()];
        for plane in (0..b * c).map(|pi| pi * h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0usize);
                    for idx in [0, 1, w, w + 1].map(|d| plane + 2 * oy * w + 2 * ox + d) {
                        if data[idx] > best {
                            (best, best_idx) = (data[idx], idx);
                        }
                    }
                    want_dx[best_idx] += (want_y.len() + 1) as f32;
                    want_y.push(best);
                }
            }
        }
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(y.as_slice()), bits(&want_y));
        assert_eq!(bits(dx.as_slice()), bits(&want_dx));
        // The eval scan fills no argmax table and runs its own loop.
        let y_eval = p.forward(&x, false, &mut s).unwrap();
        assert_eq!(bits(y_eval.as_slice()), bits(&want_y));
    }

    #[test]
    fn truncates_ragged_edges() {
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        let x = Tensor::zeros([1, 1, 5, 5]);
        let y = p.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn one_d_window() {
        let mut p = MaxPool2d::with_window(1, 2).unwrap();
        let mut s = Scratch::new();
        let x = Tensor::from_vec([1, 1, 1, 4], vec![1., 9., 2., 3.]).unwrap();
        let y = p.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.as_slice(), &[9., 3.]);
    }

    #[test]
    fn rejects_oversized_window() {
        let mut p = MaxPool2d::new(4).unwrap();
        let mut s = Scratch::new();
        assert!(p
            .forward(&Tensor::zeros([1, 1, 2, 2]), true, &mut s)
            .is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut p = MaxPool2d::new(2).unwrap();
        let mut s = Scratch::new();
        assert!(p.backward(&Tensor::zeros([1, 1, 1, 1]), &mut s).is_err());
    }
}
