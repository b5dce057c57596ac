//! Fully connected layer.

use super::Layer;
use crate::Result;
use prionn_tensor::ops;
use prionn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;

/// A fully connected layer: `y = x · W + b`.
///
/// `W` is `[in_features, out_features]`, inputs are `[batch, in_features]`.
pub struct Dense {
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// He-normal initialised dense layer (the workspace default ahead of
    /// ReLU activations).
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let w = prionn_tensor::init::he_normal([in_features, out_features], in_features, rng);
        Dense {
            w,
            b: Tensor::zeros([out_features]),
            grad_w: Tensor::zeros([in_features, out_features]),
            grad_b: Tensor::zeros([out_features]),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight matrix (tests / inspection).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        if x.rank() != 2 || x.dims()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                op: "dense_forward",
                lhs: vec![0, self.in_features],
                rhs: x.dims().to_vec(),
            });
        }
        // Recycle a cached input left by a training forward that was never
        // followed by a backward.
        if let Some(old) = self.cached_input.take() {
            scratch.recycle_tensor(old);
        }
        // Fused GEMM + bias epilogue: one pass over the output.
        let y = ops::matmul_bias_with(scratch, x, &self.w, &self.b)?;
        if train {
            // Cache the input in a pooled buffer rather than a fresh clone.
            let mut cached = scratch.take(x.len());
            cached.copy_from_slice(x.as_slice());
            self.cached_input = Some(Tensor::from_vec(x.shape().clone(), cached)?);
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        self.backward_params(grad_out, scratch)?;
        ops::matmul_a_bt_with(scratch, grad_out, &self.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<()> {
        let x = self
            .cached_input
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("dense backward without forward".into()))?;
        // Write xᵀ·dy straight into the persistent gradient tensor.
        ops::matmul_at_b_into(scratch, &x, grad_out, &mut self.grad_w)?;
        // In-place column sums for the bias gradient.
        let gb = self.grad_b.as_mut_slice();
        gb.fill(0.0);
        for row in grad_out.as_slice().chunks_exact(self.out_features) {
            for (g, &v) in gb.iter_mut().zip(row) {
                *g += v;
            }
        }
        scratch.recycle_tensor(x);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.w, &self.grad_w);
        f(&mut self.b, &self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn name(&self) -> &'static str {
        "dense"
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
                "dense state needs 2 tensors".into(),
            ));
        };
        if w.shape() != self.w.shape() || b.shape() != self.b.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dense_load_state",
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
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, &mut rng());
        // Zero the weights so output == bias.
        d.w.fill_zero();
        d.b = Tensor::from_slice(&[1.0, -2.0]);
        let x = Tensor::zeros([4, 3]);
        let mut s = Scratch::new();
        let y = d.forward(&x, true, &mut s).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(y.row(2).unwrap(), &[1.0, -2.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut d = Dense::new(3, 2, &mut rng());
        let mut s = Scratch::new();
        assert!(d.forward(&Tensor::zeros([4, 5]), true, &mut s).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut d = Dense::new(3, 2, &mut rng());
        let mut s = Scratch::new();
        assert!(d.backward(&Tensor::zeros([4, 2]), &mut s).is_err());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut d = Dense::new(4, 3, &mut rng());
        let x = prionn_tensor::init::uniform([2, 4], -1.0, 1.0, &mut rng());
        let mut s = Scratch::new();
        // Scalar objective: sum of outputs. dL/dy = ones.
        let ones = Tensor::full([2, 3], 1.0);
        d.forward(&x, true, &mut s).unwrap();
        let dx = d.backward(&ones, &mut s).unwrap();

        let eps = 1e-3f32;
        // Check dW via central differences on a few entries.
        for &(i, j) in &[(0usize, 0usize), (2, 1), (3, 2)] {
            let orig = d.w.get(&[i, j]).unwrap();
            d.w.set(&[i, j], orig + eps).unwrap();
            let up = ops::sum(&d.forward(&x, true, &mut s).unwrap());
            d.w.set(&[i, j], orig - eps).unwrap();
            let dn = ops::sum(&d.forward(&x, true, &mut s).unwrap());
            d.w.set(&[i, j], orig).unwrap();
            let numeric = (up - dn) / (2.0 * eps);
            let analytic = d.grad_w.get(&[i, j]).unwrap();
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{i},{j}] {numeric} vs {analytic}"
            );
        }
        // Check dX on one entry.
        let orig = x.get(&[1, 2]).unwrap();
        let mut xp = x.clone();
        xp.set(&[1, 2], orig + eps).unwrap();
        let up = ops::sum(&d.forward(&xp, true, &mut s).unwrap());
        xp.set(&[1, 2], orig - eps).unwrap();
        let dn = ops::sum(&d.forward(&xp, true, &mut s).unwrap());
        let numeric = (up - dn) / (2.0 * eps);
        assert!((numeric - dx.get(&[1, 2]).unwrap()).abs() < 1e-2);
    }

    #[test]
    fn state_round_trips() {
        let a = Dense::new(3, 2, &mut rng());
        let mut b = Dense::new(3, 2, &mut ChaCha8Rng::seed_from_u64(99));
        assert_ne!(a.w, b.w);
        let consumed = b.load_state(&a.state()).unwrap();
        assert_eq!(consumed, 2);
        assert_eq!(a.w, b.w);
        assert_eq!(a.b, b.b);
    }

    #[test]
    fn load_state_rejects_wrong_shape() {
        let mut d = Dense::new(3, 2, &mut rng());
        let bad = vec![Tensor::zeros([2, 2]), Tensor::zeros([2])];
        assert!(d.load_state(&bad).is_err());
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let d = Dense::new(5, 4, &mut rng());
        assert_eq!(d.param_count(), 5 * 4 + 4);
    }

    #[test]
    fn eval_forward_matches_training_forward_and_keeps_no_input() {
        let mut d = Dense::new(32, 24, &mut rng());
        let x = prionn_tensor::init::uniform([8, 32], -1.0, 1.0, &mut rng());
        let mut s = Scratch::new();
        let bits = |t: Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let trained = bits(d.forward(&x, true, &mut s).unwrap());
        let evaluated = bits(d.forward(&x, false, &mut s).unwrap());
        assert_eq!(evaluated, trained);
        assert!(
            d.backward(&Tensor::zeros([8, 24]), &mut s).is_err(),
            "eval kept an input"
        );
    }
}
