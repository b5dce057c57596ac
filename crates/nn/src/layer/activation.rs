//! Activation layers.

use super::Layer;
use crate::Result;
use prionn_tensor::{Scratch, Tensor, TensorError};

/// Rectified linear unit, applied elementwise to any rank: the dense stack's
/// activation. A conv stage's ReLU is part of its [`ReluPool`](super::ReluPool).
#[derive(Default)]
pub struct ReLU {
    // 1.0 where the input was positive, 0.0 elsewhere.
    mask: Option<Vec<f32>>,
}

impl ReLU {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        // Recycle a mask no backward consumed, then keep a new one only
        // when training: an eval forward leaves no backward state.
        if let Some(old) = self.mask.take() {
            scratch.recycle(old);
        }
        // One pass over the input either way: read x, write the clamped
        // value (and, when training, the mask) — `> 0` sends NaN and -0.0
        // to +0.0.
        let xs = x.as_slice();
        let mut out = scratch.take(xs.len());
        if train {
            let mut mask = scratch.take(xs.len());
            for ((o, m), &v) in out.iter_mut().zip(&mut mask).zip(xs) {
                let positive = v > 0.0;
                *o = if positive { v } else { 0.0 };
                *m = if positive { 1.0 } else { 0.0 };
            }
            self.mask = Some(mask);
        } else {
            for (o, &v) in out.iter_mut().zip(xs) {
                *o = if v > 0.0 { v } else { 0.0 };
            }
        }
        Tensor::from_vec(x.shape().clone(), out)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("relu backward without forward".into()))?;
        if mask.len() != grad_out.len() {
            return Err(TensorError::LengthMismatch {
                expected: mask.len(),
                actual: grad_out.len(),
            });
        }
        let mut g = scratch.take(grad_out.len());
        for ((gv, &go), m) in g.iter_mut().zip(grad_out.as_slice()).zip(&mask) {
            *gv = go * m;
        }
        scratch.recycle(mask);
        Tensor::from_vec(grad_out.shape().clone(), g)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negatives() {
        let mut r = ReLU::new();
        let mut s = Scratch::new();
        let y = r
            .forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), true, &mut s)
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn gradient_masked_by_activation() {
        let mut r = ReLU::new();
        let mut s = Scratch::new();
        r.forward(&Tensor::from_slice(&[-1.0, 3.0]), true, &mut s)
            .unwrap();
        let g = r
            .backward(&Tensor::from_slice(&[10.0, 10.0]), &mut s)
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 10.0]);
    }

    #[test]
    fn eval_forward_matches_training_forward_and_keeps_no_mask() {
        let mut r = ReLU::new();
        let mut s = Scratch::new();
        let x = Tensor::from_slice(&[-1.0, -0.0, 0.0, 2.0, f32::NAN, f32::INFINITY]);
        let bits = |t: Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let trained = bits(r.forward(&x, true, &mut s).unwrap());
        let evaluated = bits(r.forward(&x, false, &mut s).unwrap());
        assert_eq!(evaluated, trained);
        assert!(r.backward(&x, &mut s).is_err(), "eval kept a mask");
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: f'(0) = 0.
        let mut r = ReLU::new();
        let mut s = Scratch::new();
        r.forward(&Tensor::from_slice(&[0.0]), true, &mut s)
            .unwrap();
        let g = r.backward(&Tensor::from_slice(&[1.0]), &mut s).unwrap();
        assert_eq!(g.as_slice(), &[0.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = ReLU::new();
        let mut s = Scratch::new();
        assert!(r.backward(&Tensor::from_slice(&[1.0]), &mut s).is_err());
    }
}
