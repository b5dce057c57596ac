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
pub use pool::ReluPool;
pub use shape_ops::{Flatten, Reshape};

use crate::Result;
use prionn_tensor::{Scratch, Tensor};

/// Worker-group count for sample-level parallelism: one group per pool
/// thread, never more than there are samples, so a batch of one stays on
/// the calling thread.
fn sample_groups(batch: usize) -> usize {
    rayon::current_num_threads().min(batch).max(1)
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches whatever the subsequent `backward`
/// needs (inputs, masks, pooling codes), and `backward` populates parameter
/// gradients that the optimiser reads via [`Layer::visit_params`].
///
/// The contract callers rely on:
///
/// 1. `backward` must be preceded by a `forward` on the same batch;
/// 2. `visit_params` yields `(parameter, gradient)` pairs in a stable order
///    across calls — optimiser state (momentum/Adam moments) is keyed by that
///    order;
/// 3. `state` / `state_mut` expose all learned parameters in place, so a
///    checkpoint encodes from and decodes into the live tensors (the
///    paper's warm-started online retraining, the replica hot-swap);
/// 4. both passes draw every sizeable temporary from the shared [`Scratch`]
///    workspace and recycle buffers they are done with, so steady-state
///    training over fixed shapes performs no heap allocation.
pub trait Layer: Send {
    /// Compute the layer output for a batch. `train` toggles train-only
    /// behaviour (dropout sampling). `scratch` supplies pooled buffers and
    /// GEMM pack workspaces; outputs may be built from pooled storage.
    fn forward(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor>;

    /// [`Layer::forward`] for a caller that is done with `x`: a layer that
    /// keeps its input for backward keeps `x` itself rather than a copy.
    /// Every other layer recycles it once the output exists, which is what
    /// the default does.
    fn forward_owned(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Result<Tensor> {
        let y = self.forward(&x, train, scratch);
        scratch.recycle_tensor(x);
        y
    }

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

    /// How many positions of the layer index this layer occupies. A fused
    /// layer that stands in for several counts as all of them, so the
    /// layers after it keep the index — and with it the checkpoint keys and
    /// telemetry labels — they had before the fusion.
    fn positions(&self) -> usize {
        1
    }

    /// The persisted tensors, borrowed from the live layer in a stable
    /// order: learned parameters and any running statistics, each with its
    /// key, dims and data. Parameterless layers return none. Checkpoint code
    /// keys persisted tensors by `{layer_index}.{name}.{key}` (the index
    /// counts [`Layer::positions`]), so the keys and their order are part of
    /// the on-disk format — never reorder or rename them without bumping the
    /// checkpoint format version.
    fn state_views(&self) -> Vec<StateView<'_>> {
        Vec::new()
    }

    /// The data of the tensors [`Layer::state_views`] yields, in the same order,
    /// for writing in place. A writer must keep every length.
    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }
}

/// One persisted tensor of a layer, borrowed: see [`Layer::state_views`].
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// Stable name within the layer (e.g. `w`, `running_mean`).
    pub key: &'static str,
    /// Logical dims of the tensor.
    pub dims: &'a [usize],
    /// Row-major values; `dims` multiply to its length.
    pub data: &'a [f32],
}

impl<'a> StateView<'a> {
    /// A view of `tensor` under `key`.
    pub fn of(key: &'static str, tensor: &'a Tensor) -> Self {
        StateView {
            key,
            dims: tensor.dims(),
            data: tensor.as_slice(),
        }
    }
}
