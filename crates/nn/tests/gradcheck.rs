//! End-to-end numerical gradient check through a full conv-pool-dense stack
//! with the softmax cross-entropy loss — the strongest single correctness
//! guarantee for the backprop implementation.

use prionn_nn::layer::{Conv2d, Dense, Flatten, Layer, ReluPool};
use prionn_nn::{Loss, LossTarget, Sequential, SoftmaxCrossEntropy};
use prionn_tensor::{ops, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn model(rng: &mut ChaCha8Rng) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(2, 3, 8, 8, 3, 1, 1, rng).unwrap())
        .push(ReluPool::new())
        .push(Flatten::new())
        .push(Dense::new(3 * 4 * 4, 10, rng))
}

fn loss_of(model: &mut Sequential, x: &Tensor, y: &[usize]) -> f32 {
    let out = model.forward(x, true).unwrap();
    let (l, _) = SoftmaxCrossEntropy
        .loss_and_grad(&out, &LossTarget::Classes(y), &mut Scratch::new())
        .unwrap();
    l
}

#[test]
fn full_network_input_gradient_matches_finite_differences() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut m = model(&mut rng);
    let x = prionn_tensor::init::uniform([2, 2, 8, 8], -1.0, 1.0, &mut rng);
    let y = [3usize, 7usize];

    // Analytic input gradient.
    let out = m.forward(&x, true).unwrap();
    let (_, grad_out) = SoftmaxCrossEntropy
        .loss_and_grad(&out, &LossTarget::Classes(&y), &mut Scratch::new())
        .unwrap();
    let dx = m.backward(&grad_out).unwrap();

    // Numerical check on a spread of input coordinates.
    let eps = 1e-2f32;
    for &(b, c, i, j) in &[
        (0usize, 0usize, 0usize, 0usize),
        (1, 1, 3, 5),
        (0, 1, 7, 7),
        (1, 0, 4, 2),
    ] {
        let idx = [b, c, i, j];
        let orig = x.get(&idx).unwrap();
        let mut xp = x.clone();
        xp.set(&idx, orig + eps).unwrap();
        let up = loss_of(&mut m, &xp, &y);
        xp.set(&idx, orig - eps).unwrap();
        let dn = loss_of(&mut m, &xp, &y);
        let numeric = (up - dn) / (2.0 * eps);
        let analytic = dx.get(&idx).unwrap();
        assert!(
            (numeric - analytic).abs() < 2e-3 + 0.1 * analytic.abs(),
            "input grad at {idx:?}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

#[test]
fn full_network_weight_gradients_match_finite_differences() {
    // Seed choice matters more than usual here: the probe below perturbs
    // single conv weights, and a draw that parks a maxpool window near a
    // tie makes the secant straddle a kink where finite differences and
    // the (correct) analytic gradient legitimately disagree.
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let mut m = model(&mut rng);
    let x = prionn_tensor::init::uniform([2, 2, 8, 8], -1.0, 1.0, &mut rng);
    let y = [1usize, 9usize];

    let out = m.forward(&x, true).unwrap();
    let (_, grad_out) = SoftmaxCrossEntropy
        .loss_and_grad(&out, &LossTarget::Classes(&y), &mut Scratch::new())
        .unwrap();
    m.backward(&grad_out).unwrap();

    // Collect analytic (param pointer, grad snapshot) pairs via the visitor,
    // then perturb selected scalars of every parameter tensor.
    // Sequential has no public parameter visitor; capture gradients through
    // `step` with a probe optimiser that records instead of updating.
    let mut analytic: Vec<(usize, Vec<f32>)> = Vec::new();
    {
        struct Probe<'a>(&'a mut Vec<(usize, Vec<f32>)>);
        impl prionn_nn::Optimizer for Probe<'_> {
            fn begin_step(&mut self) {}
            fn update(&mut self, slot: usize, _p: &mut Tensor, g: &Tensor) {
                self.0.push((slot, g.as_slice().to_vec()));
            }
        }
        let mut probe = Probe(&mut analytic);
        m.step(&mut probe);
    }
    assert_eq!(analytic.len(), 4, "conv w/b + dense w/b");

    // Numerically check one scalar per parameter tensor via a fresh model
    // restored from the same state (step with lr 0 left weights unchanged).
    // The step must stay small relative to the pre-activation scale: a
    // large perturbation of an early conv weight can flip a maxpool winner
    // or a ReLU sign, and the secant then straddles a kink where the
    // analytic gradient legitimately disagrees.
    let eps = 2e-3f32;
    let state = m.state_dict();
    for (slot, grads) in &analytic {
        let probe_idx = grads.len() / 2;
        let mut perturbed_up = state.clone();
        perturbed_up[*slot].1.as_mut_slice()[probe_idx] += eps;
        let mut perturbed_dn = state.clone();
        perturbed_dn[*slot].1.as_mut_slice()[probe_idx] -= eps;

        let mut rng2 = ChaCha8Rng::seed_from_u64(24);
        let mut m_up = model(&mut rng2);
        m_up.load_state_dict(&perturbed_up).unwrap();
        let mut rng3 = ChaCha8Rng::seed_from_u64(24);
        let mut m_dn = model(&mut rng3);
        m_dn.load_state_dict(&perturbed_dn).unwrap();

        let numeric = (loss_of(&mut m_up, &x, &y) - loss_of(&mut m_dn, &x, &y)) / (2.0 * eps);
        let a = grads[probe_idx];
        assert!(
            (numeric - a).abs() < 2e-3 + 0.1 * a.abs(),
            "slot {slot} idx {probe_idx}: numeric {numeric} vs analytic {a}"
        );
    }

    // Verify the sum of per-parameter element counts matches param_count.
    let total: usize = state.iter().map(|(_, t)| t.len()).sum();
    assert_eq!(total, m.param_count());
}

#[test]
fn ordering_of_visit_params_is_stable_across_steps() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut m = model(&mut rng);
    let x = prionn_tensor::init::uniform([1, 2, 8, 8], -1.0, 1.0, &mut rng);
    let y = [0usize];
    struct Shapes(Vec<Vec<usize>>);
    impl prionn_nn::Optimizer for Shapes {
        fn begin_step(&mut self) {}
        fn update(&mut self, _slot: usize, p: &mut Tensor, _g: &Tensor) {
            self.0.push(p.dims().to_vec());
        }
    }
    let mut first = Shapes(Vec::new());
    let mut second = Shapes(Vec::new());
    let out = m.forward(&x, true).unwrap();
    let (_, g) = SoftmaxCrossEntropy
        .loss_and_grad(&out, &LossTarget::Classes(&y), &mut Scratch::new())
        .unwrap();
    m.backward(&g).unwrap();
    m.step(&mut first);
    let out = m.forward(&x, true).unwrap();
    let (_, g) = SoftmaxCrossEntropy
        .loss_and_grad(&out, &LossTarget::Classes(&y), &mut Scratch::new())
        .unwrap();
    m.backward(&g).unwrap();
    m.step(&mut second);
    assert_eq!(
        first.0, second.0,
        "slot ordering must be stable for optimiser state"
    );
}

#[test]
fn training_reduces_loss_on_the_full_stack() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut m = model(&mut rng);
    let x = prionn_tensor::init::uniform([8, 2, 8, 8], -1.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let mut opt = prionn_nn::Adam::new(3e-3);
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..60 {
        let out = m.forward(&x, true).unwrap();
        let (l, g) = SoftmaxCrossEntropy
            .loss_and_grad(&out, &LossTarget::Classes(&y), &mut Scratch::new())
            .unwrap();
        m.backward(&g).unwrap();
        m.step(&mut opt);
        first.get_or_insert(l);
        last = l;
    }
    assert!(last < first.unwrap() * 0.5, "{} -> {last}", first.unwrap());
    // Sanity: softmax of the final logits is a distribution.
    let out = m.forward(&x, false).unwrap();
    let probs = SoftmaxCrossEntropy::softmax(&out).unwrap();
    for r in 0..8 {
        let s: f32 = probs.row(r).unwrap().iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }
    let _ = ops::sum(&out);
}

/// The fused ReLU + pool alone, for both windows, against central
/// differences of `L = Σ r·y` at every input coordinate. The inputs are a
/// shuffled grid of values 0.1 apart, none within 0.05 of zero, so no step
/// crosses a ReLU kink or flips a pooling winner; odd extents leave a
/// ragged edge whose gradient must be zero.
#[test]
fn relu_pool_gradient_matches_finite_differences() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    for (mut layer, dims) in [
        (ReluPool::new(), [2usize, 3, 5, 7]),
        (ReluPool::one_d(), [2, 3, 1, 9]),
    ] {
        let n: usize = dims.iter().product();
        let values = (0..n)
            .map(|i| ((i * 37) % n) as f32 * 0.1 - n as f32 * 0.05 + 0.05)
            .collect();
        let x = Tensor::from_vec(dims, values).unwrap();
        let mut scratch = Scratch::new();
        let y = layer.forward(&x, true, &mut scratch).unwrap();
        let r = prionn_tensor::init::uniform(y.dims().to_vec(), -1.0, 1.0, &mut rng);
        let dx = layer.backward(&r, &mut scratch).unwrap();
        let mut loss = |x: &Tensor| -> f64 {
            let y = layer.forward(x, false, &mut scratch).unwrap();
            y.as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        let eps = 1e-2f32;
        for i in 0..n {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let up = loss(&xp);
            xp.as_mut_slice()[i] -= 2.0 * eps;
            let numeric = (up - loss(&xp)) / (2.0 * eps as f64);
            let analytic = dx.as_slice()[i] as f64;
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "{dims:?} input {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
