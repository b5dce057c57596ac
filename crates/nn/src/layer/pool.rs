//! ReLU and max pooling in one pass: the tail of every convolution stage.
//!
//! [`ReluPool`] gives the bits of a `ReLU` layer followed by a
//! non-overlapping first-max pool, without the pair's intermediates (a mask
//! float per conv output, a `usize` argmax per pooled output, a zero-filled
//! dX to scatter into and then mask). Forward keeps one byte per pooled
//! output; backward writes every input gradient once.
//!
//! Why the bits agree. ReLU maps a tap `v` to `r = v > 0 ? v : +0.0`, so
//! every `r` is `+0.0` or positive, never NaN. The pool's scan (`best =
//! -inf`, take a tap when `r > best`) therefore ends on the first tap that
//! holds the window's largest `r`, tap 0 when none is positive — the scan
//! `best = +0.0`, take a tap when `v > best`, which never forms `r`. The
//! pair's dX at a tap is `(0.0 + g) · m` where the pool routed `g`, else
//! `0.0 · m = +0.0`, with `m = 1.0` iff `v > 0`; at the winner that is
//! `best > 0`. The byte keeps the winning tap and that bit, so `-0.0` and NaN
//! gradients come out as the pair's too.

use super::{sample_groups, Layer};
use crate::Result;
use prionn_tensor::{Scratch, Tensor, TensorError};
use rayon::prelude::*;

/// Code bit: the window's winner was positive (the ReLU mask at the winning
/// tap). The low bits hold the winner's tap index, row-major in the window.
const POSITIVE: u8 = 0x80;

/// ReLU then max pooling over `[batch, C, H, W]` with a `rows × 2` window
/// and matching stride: `2 × 2` for the 2-D CNN, `1 × 2` for the 1-D CNN's
/// `[batch, C, 1, L]` sequences. Spatial dims that do not divide evenly are
/// truncated (floor); the dropped edge gets a `+0.0` gradient.
///
/// Batch rows are sharded across the compute pool by `Conv2d`'s rule, so a
/// batch of one runs on the calling thread.
pub struct ReluPool {
    rows: usize,
    // Input dims of the last training forward, until backward consumes them.
    in_dims: Option<[usize; 4]>,
    // One code per pooled output of that forward; the layer keeps the
    // capacity across steps.
    codes: Vec<u8>,
}

impl ReluPool {
    /// ReLU and a `2 × 2` pool.
    pub fn new() -> Self {
        Self::with_rows(2)
    }

    /// ReLU and a `1 × 2` pool along the sequence axis.
    pub fn one_d() -> Self {
        Self::with_rows(1)
    }

    fn with_rows(rows: usize) -> Self {
        ReluPool {
            rows,
            in_dims: None,
            codes: Vec::new(),
        }
    }

    /// Output spatial dims for a given input.
    fn out_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        (in_h / self.rows, in_w / 2)
    }
}

impl Default for ReluPool {
    fn default() -> Self {
        Self::new()
    }
}

/// The pooled value and code of one window: its largest tap clamped at
/// `+0.0`, and the first tap holding that value (tap 0 when none is
/// positive). Branch-free, so the loops over a row of windows vectorise.
#[inline(always)]
fn window<const N: usize>(taps: [f32; N]) -> (f32, u8) {
    let (mut best, mut tap) = (0.0f32, 0u8);
    for (k, v) in taps.into_iter().enumerate() {
        let take = v > best;
        best = if take { v } else { best };
        tap = if take { k as u8 } else { tap };
    }
    (best, tap | if best > 0.0 { POSITIVE } else { 0 })
}

/// Pool one output row from its windows, writing codes when kept.
#[inline(always)]
fn pool_row<const N: usize>(
    windows: impl Iterator<Item = [f32; N]>,
    out: &mut [f32],
    codes: Option<&mut [u8]>,
) {
    match codes {
        Some(codes) => {
            for ((o, c), taps) in out.iter_mut().zip(codes).zip(windows) {
                (*o, *c) = window(taps);
            }
        }
        None => {
            for (o, taps) in out.iter_mut().zip(windows) {
                *o = window(taps).0;
            }
        }
    }
}

/// Chunk lengths, in input and output elements, of each worker group's
/// share of a batch of `b` samples.
fn group_chunks(b: usize, in_sample: usize, out_sample: usize) -> (usize, usize) {
    let per = b.div_ceil(sample_groups(b)).max(1);
    ((per * in_sample).max(1), (per * out_sample).max(1))
}

/// Forward over `rows × 2` windows of whole `h × w` channel planes: `x`
/// holds the planes, `out` and `codes` their pooled planes.
fn forward_planes(
    rows: usize,
    x: &[f32],
    (h, w): (usize, usize),
    out: &mut [f32],
    mut codes: Option<&mut [u8]>,
) {
    let (oh, ow) = (h / rows, w / 2);
    for (pi, (xp, op)) in x
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(oh * ow))
        .enumerate()
    {
        for (oy, out_row) in op.chunks_exact_mut(ow).enumerate() {
            let o0 = (pi * oh + oy) * ow;
            let code_row = codes.as_deref_mut().map(|c| &mut c[o0..o0 + ow]);
            let top = &xp[rows * oy * w..][..w];
            if rows == 2 {
                let bot = &xp[(2 * oy + 1) * w..][..w];
                let taps = top
                    .chunks_exact(2)
                    .zip(bot.chunks_exact(2))
                    .map(|(t, u)| [t[0], t[1], u[0], u[1]]);
                pool_row(taps, out_row, code_row);
            } else {
                pool_row(top.chunks_exact(2).map(|t| [t[0], t[1]]), out_row, code_row);
            }
        }
    }
}

/// Backward over whole channel planes: every element of `dx` is written
/// once, one input row at a time. Each window's gradient `(0.0 + g) · mask`
/// lands on its winning tap and `+0.0` on the others, chosen by selects: a
/// branch on the winner would mispredict on every other window.
fn backward_planes(rows: usize, g: &[f32], codes: &[u8], (h, w): (usize, usize), dx: &mut [f32]) {
    let (oh, ow) = (h / rows, w / 2);
    for ((gp, cp), dp) in g
        .chunks_exact(oh * ow)
        .zip(codes.chunks_exact(oh * ow))
        .zip(dx.chunks_exact_mut(h * w))
    {
        let (windowed, ragged) = dp.split_at_mut(rows * oh * w);
        for ((g_row, c_row), d_rows) in gp
            .chunks_exact(ow)
            .zip(cp.chunks_exact(ow))
            .zip(windowed.chunks_exact_mut(rows * w))
        {
            for (dy, d_row) in d_rows.chunks_exact_mut(w).enumerate() {
                let left = 2 * dy as u8;
                for (d, (&g, &c)) in d_row.chunks_exact_mut(2).zip(g_row.iter().zip(c_row)) {
                    let v = (0.0 + g) * if c & POSITIVE != 0 { 1.0 } else { 0.0 };
                    let tap = c & !POSITIVE;
                    d[0] = if tap == left { v } else { 0.0 };
                    d[1] = if tap == left + 1 { v } else { 0.0 };
                }
                d_row[2 * ow..].fill(0.0);
            }
        }
        ragged.fill(0.0);
    }
}

impl Layer for ReluPool {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        // An eval forward leaves no backward state.
        self.in_dims = None;
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "relu_pool",
                expected: 4,
                actual: x.rank(),
            });
        }
        let [b, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let (oh, ow) = self.out_hw(h, w);
        if oh == 0 || ow == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "pool {}x2 larger than input {h}x{w}",
                self.rows
            )));
        }
        let (in_sample, out_sample) = (c * h * w, c * oh * ow);
        let mut out = scratch.take(b * out_sample);
        if train {
            self.codes.resize(b * out_sample, 0);
        }
        let (x_chunk, out_chunk) = group_chunks(b, in_sample, out_sample);
        let mut code_chunks = train.then(|| self.codes.chunks_mut(out_chunk));
        let items: Vec<_> = x
            .as_slice()
            .chunks(x_chunk)
            .zip(out.chunks_mut(out_chunk))
            .map(|(xs, os)| (xs, os, code_chunks.as_mut().and_then(Iterator::next)))
            .collect();
        let rows = self.rows;
        items
            .into_par_iter()
            .for_each(|(xs, os, cs)| forward_planes(rows, xs, (h, w), os, cs));
        if train {
            self.in_dims = Some([b, c, h, w]);
        }
        Tensor::from_vec([b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let [b, c, h, w] = self.in_dims.take().ok_or_else(|| {
            TensorError::InvalidArgument("relu_pool backward without forward".into())
        })?;
        let (oh, ow) = self.out_hw(h, w);
        if grad_out.dims() != [b, c, oh, ow] {
            return Err(TensorError::ShapeMismatch {
                op: "relu_pool_backward",
                lhs: vec![b, c, oh, ow],
                rhs: grad_out.dims().to_vec(),
            });
        }
        let (in_sample, out_sample) = (c * h * w, c * oh * ow);
        let mut dx = scratch.take(b * in_sample);
        let (dx_chunk, g_chunk) = group_chunks(b, in_sample, out_sample);
        let items: Vec<_> = grad_out
            .as_slice()
            .chunks(g_chunk)
            .zip(self.codes.chunks(g_chunk))
            .zip(dx.chunks_mut(dx_chunk))
            .collect();
        let rows = self.rows;
        items
            .into_par_iter()
            .for_each(|((gs, cs), ds)| backward_planes(rows, gs, cs, (h, w), ds));
        Tensor::from_vec([b, c, h, w], dx)
    }

    fn name(&self) -> &'static str {
        "relu_pool"
    }

    fn positions(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_forward_matches_training_forward_and_keeps_no_codes() {
        let mut p = ReluPool::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(
            [1, 2, 2, 4],
            (0..16).map(|v| (v * 7 % 5) as f32 - 2.0).collect(),
        )
        .unwrap();
        let trained = p.forward(&x, true, &mut s).unwrap();
        let evaluated = p.forward(&x, false, &mut s).unwrap();
        assert_eq!(evaluated, trained);
        assert!(
            p.backward(&Tensor::zeros([1, 2, 1, 2]), &mut s).is_err(),
            "eval kept codes"
        );
    }

    #[test]
    fn rejects_oversized_window_and_wrong_rank() {
        let mut p = ReluPool::new();
        let mut s = Scratch::new();
        assert!(p
            .forward(&Tensor::zeros([1, 1, 1, 2]), true, &mut s)
            .is_err());
        assert!(p.forward(&Tensor::zeros([1, 4, 4]), true, &mut s).is_err());
    }

    #[test]
    fn backward_without_forward_or_with_the_wrong_shape_errors() {
        let mut p = ReluPool::new();
        let mut s = Scratch::new();
        assert!(p.backward(&Tensor::zeros([1, 1, 1, 1]), &mut s).is_err());
        p.forward(&Tensor::zeros([1, 1, 4, 4]), true, &mut s)
            .unwrap();
        assert!(p.backward(&Tensor::zeros([1, 1, 1, 1]), &mut s).is_err());
    }
}
