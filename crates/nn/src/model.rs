//! The [`Sequential`] model container: forward/backward plumbing, batched
//! training with shuffling, prediction, and weight export/import.

use crate::layer::Layer;
use crate::loss::{Loss, LossTarget};
use crate::optim::Optimizer;
use crate::Result;
use prionn_telemetry::{Gauge, Histogram, Telemetry};
use prionn_tensor::{ops, Scratch, ScratchStats, Tensor, TensorError};
use rand::seq::SliceRandom;
use rand::Rng;

/// Per-layer instruments, built once when telemetry is attached so the
/// forward/backward hot loops never touch the registry.
struct LayerInstruments {
    forward: Histogram,
    backward: Histogram,
    /// Absent for parameterless layers (ReLU, pooling, reshapes).
    param_norm: Option<Gauge>,
    grad_norm: Option<Gauge>,
}

/// Telemetry wiring for one model: the registry handle, the `model` label
/// its series carry, and the per-layer instrument cache.
struct ModelTelemetry {
    registry: Telemetry,
    model_label: String,
    per_layer: Vec<LayerInstruments>,
}

impl ModelTelemetry {
    fn build_layers(&mut self, layers: &[Box<dyn Layer>]) {
        self.per_layer = layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let layer = format!("{i}.{}", l.name());
                let labels = [
                    ("model", self.model_label.as_str()),
                    ("layer", layer.as_str()),
                ];
                LayerInstruments {
                    forward: self.registry.histogram_with(
                        "nn_layer_forward_seconds",
                        "Per-layer forward pass wall time",
                        &labels,
                    ),
                    backward: self.registry.histogram_with(
                        "nn_layer_backward_seconds",
                        "Per-layer backward pass wall time",
                        &labels,
                    ),
                    param_norm: (l.param_count() > 0).then(|| {
                        self.registry.gauge_with(
                            "nn_param_norm",
                            "L2 norm of the layer's parameters after the last step",
                            &labels,
                        )
                    }),
                    grad_norm: (l.param_count() > 0).then(|| {
                        self.registry.gauge_with(
                            "nn_grad_norm",
                            "L2 norm of the layer's gradients at the last step",
                            &labels,
                        )
                    }),
                }
            })
            .collect();
    }
}

/// A feed-forward stack of layers trained with backprop.
///
/// Weights persist across [`Sequential::fit`] calls, which is what
/// implements the paper's warm-started online retraining: PRIONN retrains
/// the same model instance every 100 job submissions on the 500 most
/// recently completed jobs, so "learned parameters pass to subsequent
/// models".
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    telemetry: Option<ModelTelemetry>,
    // Shared workspace threaded through every layer pass; holds the buffer
    // pool and GEMM pack panels so steady-state training never allocates.
    scratch: Scratch,
}

impl Sequential {
    /// An empty model.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Attach a telemetry registry: every layer gains
    /// `nn_layer_forward_seconds` / `nn_layer_backward_seconds` histograms
    /// and `nn_param_norm` / `nn_grad_norm` gauges, all labelled
    /// `{model=<model_label>, layer=<index>.<name>}`. Instruments are
    /// resolved once here; the hot loops only pay one `Instant::now()` pair
    /// per layer plus a striped atomic add. Call with the same registry to
    /// share one exposition endpoint across models; layers pushed after
    /// attachment are picked up automatically.
    pub fn set_telemetry(&mut self, registry: &Telemetry, model_label: &str) {
        let mut mt = ModelTelemetry {
            registry: registry.clone(),
            model_label: model_label.to_string(),
            per_layer: Vec::new(),
        };
        mt.build_layers(&self.layers);
        self.telemetry = Some(mt);
    }

    /// Detach telemetry (instrumentation becomes zero-cost again).
    pub fn clear_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Rebuild the per-layer instrument cache if layers changed since
    /// attachment; no-op in the common case.
    fn refresh_telemetry(&mut self) {
        if let Some(mt) = self.telemetry.as_mut() {
            if mt.per_layer.len() != self.layers.len() {
                mt.build_layers(&self.layers);
            }
        }
    }

    /// Copy the rows of `x` selected by `idx` into a pooled tensor
    /// (`x.gather_axis0` without the fresh allocation).
    fn gather_rows(scratch: &mut Scratch, x: &Tensor, idx: &[usize]) -> Result<Tensor> {
        let n = x.dims()[0];
        let row_len: usize = x.dims()[1..].iter().product();
        let mut buf = scratch.take(idx.len() * row_len);
        let xs = x.as_slice();
        for (r, &i) in idx.iter().enumerate() {
            if i >= n {
                return Err(TensorError::IndexOutOfBounds {
                    axis: 0,
                    index: i,
                    len: n,
                });
            }
            buf[r * row_len..(r + 1) * row_len]
                .copy_from_slice(&xs[i * row_len..(i + 1) * row_len]);
        }
        let mut dims = x.dims().to_vec();
        dims[0] = idx.len();
        Tensor::from_vec(dims, buf)
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// One-line-per-layer summary, e.g. for logging.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, l) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "{i:>2}: {:<10} params={}\n",
                l.name(),
                l.param_count()
            ));
        }
        s.push_str(&format!("total params: {}", self.param_count()));
        s
    }

    /// Run the full forward pass. Intermediate activations are recycled
    /// into the model's scratch pool as soon as the next layer has consumed
    /// them.
    ///
    /// When the calling thread carries an implicit trace context (the
    /// serving gateway sets one around each fused batch via
    /// `prionn_observe::trace::push_current`), every layer additionally
    /// records a `layer:<index>.<name>` child span; without a context the
    /// only cost is one thread-local check per layer.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        self.refresh_telemetry();
        let Sequential {
            layers,
            telemetry,
            scratch,
        } = self;
        let insts = telemetry.as_ref().map(|mt| &mt.per_layer);
        let tracing = prionn_observe::trace::active();
        let mut cur: Option<Tensor> = None;
        for (i, layer) in layers.iter_mut().enumerate() {
            let t = insts.map(|_| std::time::Instant::now());
            let span = if tracing {
                prionn_observe::trace::child_of_current(|| format!("layer:{i}.{}", layer.name()))
            } else {
                None
            };
            let next = layer.forward(cur.as_ref().unwrap_or(x), train, scratch)?;
            drop(span);
            if let (Some(insts), Some(t)) = (insts, t) {
                insts[i].forward.observe(t.elapsed().as_secs_f64());
            }
            if let Some(prev) = cur.replace(next) {
                scratch.recycle_tensor(prev);
            }
        }
        Ok(match cur {
            Some(out) => out,
            None => x.clone(),
        })
    }

    /// Run the full backward pass from an output gradient, recycling
    /// intermediate gradients like [`Sequential::forward`] does activations.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let dx = self.backward_sweep(grad, true)?;
        Ok(dx.unwrap_or_else(|| grad.clone()))
    }

    /// The backward sweep. With `want_dx` it visits every layer and returns
    /// the input gradient (`None` for an empty model). Without, it stops at
    /// the first parameterised layer — which populates its parameter
    /// gradients through [`Layer::backward_params`] — since nothing before
    /// it has parameters and nobody reads the gradient it would hand them.
    fn backward_sweep(&mut self, grad: &Tensor, want_dx: bool) -> Result<Option<Tensor>> {
        self.refresh_telemetry();
        let Sequential {
            layers,
            telemetry,
            scratch,
        } = self;
        let insts = telemetry.as_ref().map(|mt| &mt.per_layer);
        let stop = if want_dx {
            Some(0)
        } else {
            layers.iter().position(|l| l.param_count() > 0)
        };
        let Some(stop) = stop else {
            return Ok(None);
        };
        let mut cur: Option<Tensor> = None;
        for (i, layer) in layers.iter_mut().enumerate().skip(stop).rev() {
            let t = insts.map(|_| std::time::Instant::now());
            let grad_in = cur.as_ref().unwrap_or(grad);
            let next = if want_dx || i > stop {
                Some(layer.backward(grad_in, scratch)?)
            } else {
                layer.backward_params(grad_in, scratch)?;
                None
            };
            if let (Some(insts), Some(t)) = (insts, t) {
                insts[i].backward.observe(t.elapsed().as_secs_f64());
            }
            if let Some(prev) = std::mem::replace(&mut cur, next) {
                scratch.recycle_tensor(prev);
            }
        }
        Ok(cur)
    }

    /// Pool and GEMM counters for the model's scratch workspace. The
    /// `grows` counter staying flat across steps is the zero-allocation
    /// signal; `gemm` carries kernel GFLOP/s and pack-time share.
    pub fn scratch_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Reset the scratch counters (pooled buffers are kept), e.g. around a
    /// retrain window so gauges report per-window kernel efficiency.
    pub fn reset_scratch_stats(&mut self) {
        self.scratch.reset_stats();
    }

    /// Apply one optimiser step using the gradients from the last backward.
    ///
    /// With telemetry attached, each parameterised layer's L2 parameter and
    /// gradient norms are published as gauges (`nn_param_norm`,
    /// `nn_grad_norm`) — the norm reduction only runs when instrumented.
    pub fn step(&mut self, opt: &mut dyn Optimizer) {
        self.refresh_telemetry();
        opt.begin_step();
        let mut slot = 0usize;
        let telemetry = self.telemetry.as_ref();
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let inst = telemetry.map(|mt| &mt.per_layer[li]);
            let mut p_sq = 0f64;
            let mut g_sq = 0f64;
            layer.visit_params(&mut |param, grad| {
                if inst.is_some() {
                    g_sq += grad
                        .as_slice()
                        .iter()
                        .map(|&v| v as f64 * v as f64)
                        .sum::<f64>();
                }
                opt.update(slot, param, grad);
                if inst.is_some() {
                    p_sq += param
                        .as_slice()
                        .iter()
                        .map(|&v| v as f64 * v as f64)
                        .sum::<f64>();
                }
                slot += 1;
            });
            if let Some(inst) = inst {
                if let (Some(p), Some(g)) = (&inst.param_norm, &inst.grad_norm) {
                    p.set(p_sq.sqrt());
                    g.set(g_sq.sqrt());
                }
            }
        }
    }

    /// Forward + loss + backward + step on one minibatch; returns the loss.
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        target: &LossTarget<'_>,
        loss: &dyn Loss,
        opt: &mut dyn Optimizer,
    ) -> Result<f32> {
        let out = self.forward(x, true)?;
        let (loss_val, grad) = loss.loss_and_grad(&out, target, &mut self.scratch)?;
        self.scratch.recycle_tensor(out);
        let dx = self.backward_sweep(&grad, false)?;
        debug_assert!(dx.is_none(), "a params-only sweep returns no dX");
        self.scratch.recycle_tensor(grad);
        self.step(opt);
        Ok(loss_val)
    }

    /// Train for `epochs` epochs over `(x, target)` with shuffled
    /// minibatches; returns the mean loss of each epoch. `target` holds one
    /// class index or one value row per row of `x`, and every minibatch
    /// gathers its share of whichever variant it was given.
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        &mut self,
        x: &Tensor,
        target: &LossTarget<'_>,
        loss: &dyn Loss,
        opt: &mut dyn Optimizer,
        epochs: usize,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<f32>> {
        let n = x.dims()[0];
        let rows = match target {
            LossTarget::Classes(classes) => classes.len(),
            LossTarget::Values(values) => values.dims()[0],
        };
        if rows != n {
            return Err(TensorError::LengthMismatch {
                expected: n,
                actual: rows,
            });
        }
        if batch_size == 0 {
            return Err(TensorError::InvalidArgument("zero batch size".into()));
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                let bx = Self::gather_rows(&mut self.scratch, x, chunk)?;
                match target {
                    LossTarget::Classes(classes) => {
                        let mut by = self.scratch.take_idx(chunk.len());
                        for (slot, &i) in by.iter_mut().zip(chunk) {
                            *slot = classes[i];
                        }
                        total += self.train_batch(&bx, &LossTarget::Classes(&by), loss, opt)?;
                        self.scratch.recycle_idx(by);
                    }
                    LossTarget::Values(values) => {
                        let by = Self::gather_rows(&mut self.scratch, values, chunk)?;
                        total += self.train_batch(&bx, &LossTarget::Values(&by), loss, opt)?;
                        self.scratch.recycle_tensor(by);
                    }
                }
                self.scratch.recycle_tensor(bx);
                batches += 1;
            }
            epoch_losses.push(total / batches.max(1) as f32);
        }
        Ok(epoch_losses)
    }

    /// Run inference (eval mode) in bounded batches; returns the stacked
    /// raw output (e.g. logits).
    pub fn predict(&mut self, x: &Tensor, batch_size: usize) -> Result<Tensor> {
        let n = x.dims()[0];
        let bs = batch_size.max(1);
        let row_len: usize = x.dims()[1..].iter().product();
        // Per-batch inputs/outputs come from the pool; only the stacked
        // result is a fresh allocation handed to the caller.
        let mut data: Vec<f32> = Vec::new();
        let mut out_dims: Option<Vec<usize>> = None;
        let mut rows = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + bs).min(n);
            let mut bbuf = self.scratch.take((end - start) * row_len);
            bbuf.copy_from_slice(&x.as_slice()[start * row_len..end * row_len]);
            let mut bdims = x.dims().to_vec();
            bdims[0] = end - start;
            let bx = Tensor::from_vec(bdims, bbuf)?;
            let out = self.forward(&bx, false)?;
            self.scratch.recycle_tensor(bx);
            if out_dims.is_none() {
                out_dims = Some(out.dims().to_vec());
                data.reserve(n.div_ceil(out.dims()[0].max(1)) * out.len());
            }
            rows += out.dims()[0];
            data.extend_from_slice(out.as_slice());
            self.scratch.recycle_tensor(out);
            start = end;
        }
        let mut dims = out_dims
            .ok_or_else(|| TensorError::InvalidArgument("predict on empty input".into()))?;
        dims[0] = rows;
        Tensor::from_vec(dims, data)
    }

    /// Predict the argmax class per row.
    pub fn predict_classes(&mut self, x: &Tensor, batch_size: usize) -> Result<Vec<usize>> {
        let logits = self.predict(x, batch_size)?;
        ops::argmax_rows(&logits)
    }

    /// Snapshot all learned parameters, layer by layer.
    pub fn state(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.state()).collect()
    }

    /// Restore parameters from a [`Sequential::state`] snapshot taken from a
    /// model with the identical architecture.
    pub fn load_state(&mut self, state: &[Tensor]) -> Result<()> {
        let mut offset = 0usize;
        for layer in &mut self.layers {
            offset += layer.load_state(&state[offset..])?;
        }
        if offset != state.len() {
            return Err(TensorError::LengthMismatch {
                expected: offset,
                actual: state.len(),
            });
        }
        Ok(())
    }

    /// Snapshot all learned parameters keyed by stable layer paths of the
    /// form `{layer_index}.{layer_name}.{state_key}` (e.g. `3.dense.w`).
    ///
    /// Unlike the positional [`Sequential::state`], the keys make persisted
    /// checkpoints self-describing: loading against a different architecture
    /// fails with the first mismatching path instead of silently assigning
    /// tensors to the wrong layers.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut dict = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let keys = layer.state_keys();
            let tensors = layer.state();
            debug_assert_eq!(
                keys.len(),
                tensors.len(),
                "{}: state_keys out of sync with state",
                layer.name()
            );
            for (key, t) in keys.iter().zip(tensors) {
                dict.push((format!("{i}.{}.{key}", layer.name()), t));
            }
        }
        dict
    }

    /// Check a [`Sequential::state_dict`] snapshot against this model
    /// without touching it: keys must match the model's own layer paths in
    /// order, and each tensor must have the shape of the parameter it would
    /// replace. A dict that passes cannot fail to load.
    pub fn check_state_dict(&self, dict: &[(String, Tensor)]) -> Result<()> {
        let mut cursor = 0usize;
        for (i, layer) in self.layers.iter().enumerate() {
            let keys = layer.state_keys();
            let current = layer.state();
            for (key, cur) in keys.iter().zip(&current) {
                let expected = format!("{i}.{}.{key}", layer.name());
                let Some((name, t)) = dict.get(cursor) else {
                    return Err(TensorError::InvalidArgument(format!(
                        "state dict ends before entry {expected}"
                    )));
                };
                if name != &expected {
                    return Err(TensorError::InvalidArgument(format!(
                        "state dict key mismatch: expected {expected}, found {name}"
                    )));
                }
                if t.shape() != cur.shape() {
                    return Err(TensorError::ShapeMismatch {
                        op: "load_state_dict",
                        lhs: cur.dims().to_vec(),
                        rhs: t.dims().to_vec(),
                    });
                }
                cursor += 1;
            }
        }
        if cursor != dict.len() {
            return Err(TensorError::LengthMismatch {
                expected: cursor,
                actual: dict.len(),
            });
        }
        Ok(())
    }

    /// Restore parameters from a [`Sequential::state_dict`] snapshot. The
    /// whole dict passes [`Sequential::check_state_dict`] before any layer
    /// is touched, so a mismatch cannot leave the model half-loaded.
    pub fn load_state_dict(&mut self, dict: &[(String, Tensor)]) -> Result<()> {
        self.check_state_dict(dict)?;
        let tensors: Vec<Tensor> = dict.iter().map(|(_, t)| t.clone()).collect();
        self.load_state(&tensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, ReLU};
    use crate::loss::SoftmaxCrossEntropy;
    use crate::optim::Sgd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn xor_model(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(2, 16, &mut rng))
            .push(ReLU::new())
            .push(Dense::new(16, 2, &mut rng))
    }

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec([4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    /// `epochs` of full-batch cross-entropy training on the XOR data.
    fn fit_xor(m: &mut Sequential, opt: &mut Sgd, epochs: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        let (x, y) = xor_data();
        let target = LossTarget::Classes(&y);
        m.fit(&x, &target, &SoftmaxCrossEntropy, opt, epochs, 4, rng)
            .unwrap()
    }

    #[test]
    fn learns_xor() {
        let mut m = xor_model(3);
        let (x, y) = xor_data();
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let losses = fit_xor(&mut m, &mut opt, 300, &mut rng);
        assert!(
            losses.last().unwrap() < &0.05,
            "final loss {:?}",
            losses.last()
        );
        assert_eq!(m.predict_classes(&x, 4).unwrap(), y);
    }

    #[test]
    fn loss_decreases_during_training() {
        let mut m = xor_model(4);
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let losses = fit_xor(&mut m, &mut opt, 100, &mut rng);
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn state_round_trip_reproduces_outputs() {
        let mut a = xor_model(5);
        let mut b = xor_model(99);
        let (x, _) = xor_data();
        assert_ne!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
        b.load_state(&a.state()).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    #[test]
    fn state_dict_keys_are_stable_layer_paths() {
        let m = xor_model(5);
        let keys: Vec<String> = m.state_dict().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["0.dense.w", "0.dense.b", "2.dense.w", "2.dense.b"]);
    }

    #[test]
    fn state_dict_round_trip_reproduces_outputs() {
        let mut a = xor_model(5);
        let mut b = xor_model(99);
        let (x, _) = xor_data();
        b.load_state_dict(&a.state_dict()).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    #[test]
    fn load_state_dict_rejects_wrong_key_or_shape() {
        let mut m = xor_model(1);
        let mut renamed = m.state_dict();
        renamed[1].0 = "0.dense.bias".into();
        assert!(m.load_state_dict(&renamed).is_err());

        let mut reshaped = m.state_dict();
        reshaped[0].1 = Tensor::zeros([3, 16]);
        assert!(m.load_state_dict(&reshaped).is_err());

        let mut truncated = m.state_dict();
        truncated.pop();
        assert!(m.load_state_dict(&truncated).is_err());
    }

    #[test]
    fn load_state_rejects_extra_tensors() {
        let mut m = xor_model(1);
        let mut state = m.state();
        state.push(Tensor::zeros([1]));
        assert!(m.load_state(&state).is_err());
    }

    #[test]
    fn predict_batches_match_single_pass() {
        let mut m = xor_model(6);
        let (x, _) = xor_data();
        let one = m.predict(&x, 4).unwrap();
        let many = m.predict(&x, 1).unwrap();
        for (a, b) in one.as_slice().iter().zip(many.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fit_rejects_mismatched_targets() {
        let mut m = xor_model(1);
        let (x, _) = xor_data();
        let mut opt = Sgd::new(0.1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let short = LossTarget::Classes(&[0, 1]);
        assert!(m
            .fit(&x, &short, &SoftmaxCrossEntropy, &mut opt, 1, 2, &mut rng)
            .is_err());
        let y = Tensor::zeros([3, 2]);
        let short = LossTarget::Values(&y);
        assert!(m
            .fit(&x, &short, &crate::loss::MseLoss, &mut opt, 1, 2, &mut rng)
            .is_err());
    }

    #[test]
    fn fit_learns_a_linear_map_from_value_targets() {
        use crate::loss::MseLoss;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut m = Sequential::new().push(Dense::new(2, 1, &mut rng));
        // y = x0 - 2*x1 on a small grid.
        let xs: Vec<f32> = (0..40)
            .flat_map(|i| [(i % 8) as f32 / 8.0, (i / 8) as f32 / 5.0])
            .collect();
        let ys: Vec<f32> = xs.chunks(2).map(|p| p[0] - 2.0 * p[1]).collect();
        let x = Tensor::from_vec([40, 2], xs).unwrap();
        let y = Tensor::from_vec([40, 1], ys).unwrap();
        let mut opt = Sgd::new(0.3);
        let mut shuffle_rng = ChaCha8Rng::seed_from_u64(0);
        let target = LossTarget::Values(&y);
        let losses = m
            .fit(&x, &target, &MseLoss, &mut opt, 200, 8, &mut shuffle_rng)
            .unwrap();
        assert!(
            losses.last().unwrap() < &1e-3,
            "final loss {:?}",
            losses.last()
        );
    }

    #[test]
    fn forward_attaches_per_layer_spans_under_a_trace_context() {
        use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
        let rec = FlightRecorder::new(FlightConfig::default());
        let tracer = Tracer::new(&rec);
        let mut m = xor_model(3);
        let (x, _) = xor_data();

        // No context: nothing recorded.
        m.forward(&x, false).unwrap();
        assert!(rec.snapshot().is_empty());

        let root = tracer.root("fused_forward");
        {
            let _ctx = prionn_observe::trace::push_current(&tracer, root.ctx());
            m.forward(&x, false).unwrap();
        }
        let spans = rec.snapshot();
        let layers: Vec<&str> = spans
            .iter()
            .filter(|s| s.trace_id == root.ctx().trace_id)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(layers, ["layer:0.dense", "layer:1.relu", "layer:2.dense"]);
        assert!(spans.iter().all(|s| s.parent_id == root.ctx().span_id));
    }

    #[test]
    fn telemetry_records_per_layer_timings_and_norms() {
        use prionn_telemetry::Telemetry;
        let t = Telemetry::new();
        let mut m = xor_model(3);
        m.set_telemetry(&t, "runtime");
        let (x, _) = xor_data();
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        fit_xor(&mut m, &mut opt, 2, &mut rng);
        let text = t.prometheus();
        assert!(
            text.contains("nn_layer_forward_seconds_bucket{layer=\"0.dense\",model=\"runtime\""),
            "{text}"
        );
        assert!(text.contains("nn_layer_backward_seconds_bucket{layer=\"2.dense\""));
        // ReLU has no parameters: only the dense layers publish norms.
        assert!(text.contains("nn_param_norm{layer=\"0.dense\""));
        assert!(!text.contains("nn_param_norm{layer=\"1.relu\""));
        let h = t.histogram_with(
            "nn_layer_forward_seconds",
            "",
            &[("model", "runtime"), ("layer", "0.dense")],
        );
        // 2 epochs x 1 batch of 4 = 2 forward passes through layer 0.
        assert_eq!(h.count(), 2);
        // Instrumented and uninstrumented training agree bit-for-bit.
        let mut plain = xor_model(3);
        let mut opt2 = Sgd::with_momentum(0.5, 0.9);
        let mut rng2 = ChaCha8Rng::seed_from_u64(0);
        fit_xor(&mut plain, &mut opt2, 2, &mut rng2);
        assert_eq!(
            m.forward(&x, false).unwrap(),
            plain.forward(&x, false).unwrap()
        );
    }

    #[test]
    fn train_batch_matches_forward_full_backward_and_step_bit_for_bit() {
        use crate::layer::{Conv2d, Flatten, MaxPool2d, Reshape};
        // A parameterless layer first, then the conv whose dX train_batch
        // never computes.
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(21);
            Sequential::new()
                .push(Reshape::new([2, 6, 6]))
                .push(Conv2d::new(2, 3, 6, 6, 3, 1, 1, &mut rng).unwrap())
                .push(ReLU::new())
                .push(MaxPool2d::new(2).unwrap())
                .push(Flatten::new())
                .push(Dense::new(27, 5, &mut rng))
        };
        let (mut fast, mut full) = (build(), build());
        let (mut opt_fast, mut opt_full) =
            (Sgd::with_momentum(0.1, 0.9), Sgd::with_momentum(0.1, 0.9));
        let mut scratch = Scratch::new();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for _ in 0..3 {
            let x = prionn_tensor::init::uniform([5, 72], -1.0, 1.0, &mut rng);
            let classes = [0usize, 4, 2, 1, 3];
            let target = LossTarget::Classes(&classes);
            let loss_fast = fast
                .train_batch(&x, &target, &SoftmaxCrossEntropy, &mut opt_fast)
                .unwrap();

            let out = full.forward(&x, true).unwrap();
            let (loss_full, grad) = SoftmaxCrossEntropy
                .loss_and_grad(&out, &target, &mut scratch)
                .unwrap();
            let dx = full.backward(&grad).unwrap();
            assert_eq!(dx.dims(), x.dims(), "the public backward still returns dX");
            full.step(&mut opt_full);

            assert_eq!(loss_fast.to_bits(), loss_full.to_bits());
            for (a, b) in fast.state().iter().zip(&full.state()) {
                let bits =
                    |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(a), bits(b));
            }
        }
    }

    #[test]
    fn warm_start_continues_from_previous_fit() {
        // Train briefly, snapshot loss; continue training; loss keeps falling
        // rather than restarting at the cold-start level.
        let mut m = xor_model(7);
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let first = fit_xor(&mut m, &mut opt, 50, &mut rng);
        let second = fit_xor(&mut m, &mut opt, 50, &mut rng);
        assert!(second.first().unwrap() <= first.first().unwrap());
    }
}
