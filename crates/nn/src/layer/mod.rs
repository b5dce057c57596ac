//! Layers: the [`Layer`] trait and all concrete layer types.

mod activation;
mod batchnorm;
mod conv2d;
mod dense;
mod dropout;
mod pool;
mod shape_ops;

pub use activation::ReLU;
pub use batchnorm::BatchNorm;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::MaxPool2d;
pub use shape_ops::{Flatten, Reshape};

use crate::Result;
use prionn_tensor::{Scratch, Tensor};

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches whatever the subsequent `backward`
/// needs (inputs, masks, argmax tables), and `backward` populates parameter
/// gradients that the optimiser reads via [`Layer::visit_params`].
///
/// The contract callers rely on:
///
/// 1. `backward` must be preceded by a `forward` on the same batch;
/// 2. `visit_params` yields `(parameter, gradient)` pairs in a stable order
///    across calls — optimiser state (momentum/Adam moments) is keyed by that
///    order;
/// 3. `state` / `load_state` round-trip all learned parameters, enabling the
///    paper's warm-started online retraining;
/// 4. both passes draw every sizeable temporary from the shared [`Scratch`]
///    workspace and recycle buffers they are done with, so steady-state
///    training over fixed shapes performs no heap allocation.
pub trait Layer: Send {
    /// Compute the layer output for a batch. `train` toggles train-only
    /// behaviour (dropout sampling). `scratch` supplies pooled buffers and
    /// GEMM pack workspaces; outputs may be built from pooled storage.
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor>;

    /// Propagate the loss gradient; returns the gradient w.r.t. the input.
    fn backward(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<Tensor>;

    /// [`Layer::backward`] for a caller with no use for the input gradient
    /// (the first parameterised layer of a training step): parameter
    /// gradients are populated exactly as `backward` would. Layers whose
    /// input gradient is costly override this to skip computing it.
    fn backward_params(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Result<()> {
        let dx = self.backward(grad_out, scratch)?;
        scratch.recycle_tensor(dx);
        Ok(())
    }

    /// Visit `(parameter, gradient)` pairs in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    /// Number of learnable scalars.
    fn param_count(&self) -> usize {
        0
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Stable names for the tensors yielded by [`Layer::state`], in the
    /// same order. Parameterless layers return the empty slice. Checkpoint
    /// code keys persisted tensors by `{layer_index}.{name}.{state_key}`,
    /// so these strings are part of the on-disk format — never reorder or
    /// rename them without bumping the checkpoint format version.
    fn state_keys(&self) -> &'static [&'static str] {
        &[]
    }

    /// Snapshot learned parameters (possibly empty).
    fn state(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Restore parameters from the front of `state`; returns how many
    /// tensors were consumed.
    fn load_state(&mut self, _state: &[Tensor]) -> Result<usize> {
        Ok(0)
    }
}
