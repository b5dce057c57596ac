//! The optimiser interface and Adam, the optimiser every PRIONN head trains
//! with.
//!
//! State is keyed by *parameter slot* — the position of the parameter in the
//! model's stable `visit_params` traversal — so optimiser state survives the
//! paper's warm-started retraining cycles (the architecture never changes
//! between retrains, only the data does).

use crate::Result;
use prionn_tensor::{Tensor, TensorError};

/// Portable optimiser state: the bias-correction step count plus the moment
/// buffers of every parameter slot, in slot order.
///
/// Each slot holds zero or more same-length `f32` buffers: zero when the
/// slot was never touched (lazy init) and the `[m, v]` pair for Adam.
/// Checkpointing this alongside the weights is what keeps warm-started
/// retraining bit-identical across a save/load cycle — Adam's effective
/// step size depends on `t` and both moment estimates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimizerState {
    /// Time step (`t` in Adam's bias correction); 0 for stateless optimisers.
    pub step: u64,
    /// Per-slot moment buffers (`slots[slot][buffer][element]`).
    pub slots: Vec<Vec<Vec<f32>>>,
}

/// A first-order gradient-descent optimiser.
pub trait Optimizer: Send {
    /// Called once before each batch of `update` calls (steps time forward
    /// for optimisers with bias correction).
    fn begin_step(&mut self);

    /// Apply one update to the parameter in `slot` given its gradient.
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor);

    /// Snapshot the moment buffers for checkpointing. Stateless optimisers
    /// return the default (empty) state.
    fn export_state(&self) -> OptimizerState {
        OptimizerState::default()
    }

    /// Restore a state exported by the same optimiser type. The default
    /// (stateless) implementation accepts only an empty state.
    fn import_state(&mut self, state: &OptimizerState) -> Result<()> {
        if state.step != 0 || state.slots.iter().any(|s| !s.is_empty()) {
            return Err(TensorError::InvalidArgument(
                "optimizer has no state to restore into".into(),
            ));
        }
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: Vec<Option<(Vec<f32>, Vec<f32>)>>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        debug_assert_eq!(param.len(), grad.len());
        if self.moments.len() <= slot {
            self.moments.resize(slot + 1, None);
        }
        let (m, v) = self.moments[slot]
            .get_or_insert_with(|| (vec![0.0; param.len()], vec![0.0; param.len()]));
        let t = self.t.max(1) as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (((p, &g), mi), vi) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            step: self.t,
            slots: self
                .moments
                .iter()
                .map(|slot| match slot {
                    Some((m, v)) => vec![m.clone(), v.clone()],
                    None => Vec::new(),
                })
                .collect(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<()> {
        let mut moments = Vec::with_capacity(state.slots.len());
        for (i, slot) in state.slots.iter().enumerate() {
            moments.push(match slot.as_slice() {
                [] => None,
                [m, v] if m.len() == v.len() => Some((m.clone(), v.clone())),
                [m, v] => {
                    return Err(TensorError::LengthMismatch {
                        expected: m.len(),
                        actual: v.len(),
                    })
                }
                _ => {
                    return Err(TensorError::InvalidArgument(format!(
                        "adam slot {i}: expected the [m, v] buffer pair, got {} buffers",
                        slot.len()
                    )))
                }
            });
        }
        self.t = state.step;
        self.moments = moments;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        // Minimise f(x) = x^2 starting at x = 5; gradient is 2x.
        let mut x = Tensor::from_slice(&[5.0]);
        for _ in 0..steps {
            opt.begin_step();
            let g = Tensor::from_slice(&[2.0 * x.as_slice()[0]]);
            opt.update(0, &mut x, &g);
        }
        x.as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(quadratic_descent(&mut opt, 200).abs() < 1e-2);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, the first Adam step has magnitude ~lr
        // regardless of gradient scale.
        for &scale in &[1e-3f32, 1.0, 1e3] {
            let mut opt = Adam::new(0.1);
            let mut p = Tensor::from_slice(&[0.0]);
            let g = Tensor::from_slice(&[scale]);
            opt.begin_step();
            opt.update(0, &mut p, &g);
            assert!(
                (p.as_slice()[0].abs() - 0.1).abs() < 1e-3,
                "scale {scale} -> {p:?}"
            );
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Adam::new(0.1);
        let mut a = Tensor::from_slice(&[1.0]);
        let mut b = Tensor::from_slice(&[1.0, 1.0]);
        let ga = Tensor::from_slice(&[1.0]);
        let gb = Tensor::from_slice(&[0.0, 0.0]);
        opt.begin_step();
        opt.update(0, &mut a, &ga);
        opt.update(1, &mut b, &gb);
        assert!(a.as_slice()[0] < 1.0);
        assert_eq!(b.as_slice(), &[1.0, 1.0]);
    }

    /// Adam handed its state halfway through a quadratic descent lands
    /// on the bits of an uninterrupted run.
    #[test]
    fn adam_state_round_trips_bit_identically() {
        let total = 60;
        let x_ref = quadratic_descent(&mut Adam::new(0.3), total);

        let mut first = Adam::new(0.3);
        let mut x = Tensor::from_slice(&[5.0]);
        for _ in 0..total / 2 {
            first.begin_step();
            let g = Tensor::from_slice(&[2.0 * x.as_slice()[0]]);
            first.update(0, &mut x, &g);
        }
        let mut second = Adam::new(0.3);
        second.import_state(&first.export_state()).unwrap();
        for _ in 0..total / 2 {
            second.begin_step();
            let g = Tensor::from_slice(&[2.0 * x.as_slice()[0]]);
            second.update(0, &mut x, &g);
        }
        assert_eq!(x.as_slice()[0], x_ref, "state hand-off diverged");
    }

    #[test]
    fn adam_import_rejects_malformed_slots() {
        let mut opt = Adam::new(0.1);
        let bad = OptimizerState {
            step: 3,
            slots: vec![vec![vec![0.0; 2]]],
        };
        assert!(opt.import_state(&bad).is_err());
        let ragged = OptimizerState {
            step: 3,
            slots: vec![vec![vec![0.0; 2], vec![0.0; 3]]],
        };
        assert!(opt.import_state(&ragged).is_err());
        let empty_ok = OptimizerState {
            step: 7,
            slots: vec![Vec::new()],
        };
        opt.import_state(&empty_ok).unwrap();
        assert_eq!(opt.export_state().step, 7);
    }
}
