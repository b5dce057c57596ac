//! Tier-1 guard for the fused conv-stage tail: `ReluPool` gives the bits of
//! a ReLU layer followed by a first-max pool — forward, input gradient, and
//! a short paper-shaped fit — on the awkward values (±0.0, NaN, ±inf,
//! ties, windows with nothing positive) and shapes (ragged edges, `1×2`
//! windows, batch 1 and 32) where a shortcut would show.

use prionn::nn::layer::{Conv2d, Dense, Flatten, ReLU, ReluPool};
use prionn::nn::{Adam, ArchConfig, Layer, LossTarget, ModelKind, Sequential, SoftmaxCrossEntropy};
use prionn::tensor::{init, Result, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pooling half of the reference pair, written the plain way: scan each
/// `ph × pw` window for the first tap above the best so far (starting from
/// `-inf` and index 0), keep that index, and in backward add the gradient
/// at it into a zero-filled dX.
struct FirstMaxPool {
    ph: usize,
    pw: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl FirstMaxPool {
    fn new(ph: usize, pw: usize) -> Self {
        FirstMaxPool {
            ph,
            pw,
            cache: None,
        }
    }
}

impl Layer for FirstMaxPool {
    fn forward(&mut self, x: &Tensor, _train: bool, _scratch: &mut Scratch) -> Result<Tensor> {
        let [b, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let (oh, ow) = (h / self.ph, w / self.pw);
        let xs = x.as_slice();
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for plane in (0..b * c).map(|p| p * h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0usize);
                    for dy in 0..self.ph {
                        for dx in 0..self.pw {
                            let idx = plane + (oy * self.ph + dy) * w + ox * self.pw + dx;
                            if xs[idx] > best {
                                (best, best_idx) = (xs[idx], idx);
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx);
                }
            }
        }
        self.cache = Some((x.dims().to_vec(), argmax));
        Tensor::from_vec([b, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor> {
        let (dims, argmax) = self.cache.take().expect("forward before backward");
        let mut dx = vec![0.0f32; dims.iter().product()];
        for (&i, &g) in argmax.iter().zip(grad_out.as_slice()) {
            dx[i] += g;
        }
        Tensor::from_vec(dims, dx)
    }

    fn name(&self) -> &'static str {
        "first_max_pool"
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Values drawn from `palette` in an order that puts several of them in
/// most windows.
fn pick(dims: [usize; 4], palette: &[f32], salt: usize) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| palette[(i * 7 + i / 3 + salt) % palette.len()])
        .collect();
    Tensor::from_vec(dims, data).unwrap()
}

/// Forward (train and eval) and dX of the fused layer against ReLU followed
/// by [`FirstMaxPool`], bit for bit.
fn assert_parity(mut fused: ReluPool, ph: usize, x: &Tensor, grads: &[f32], why: &str) {
    let (mut relu, mut pool) = (ReLU::new(), FirstMaxPool::new(ph, 2));
    let mut s = Scratch::new();
    let r = relu.forward(x, true, &mut s).unwrap();
    let want_y = pool.forward(&r, true, &mut s).unwrap();
    let y = fused.forward(x, true, &mut s).unwrap();
    assert_eq!(y.dims(), want_y.dims(), "{why}");
    assert_eq!(bits(&y), bits(&want_y), "{why}: forward");

    let dy_dims = [y.dims()[0], y.dims()[1], y.dims()[2], y.dims()[3]];
    let dy = pick(dy_dims, grads, 5);
    let want_dx = relu
        .backward(&pool.backward(&dy, &mut s).unwrap(), &mut s)
        .unwrap();
    let dx = fused.backward(&dy, &mut s).unwrap();
    assert_eq!(bits(&dx), bits(&want_dx), "{why}: dX");

    let y_eval = fused.forward(x, false, &mut s).unwrap();
    assert_eq!(bits(&y_eval), bits(&want_y), "{why}: eval forward");
}

#[test]
fn fused_relu_pool_is_bit_equal_to_relu_then_first_max() {
    let awkward = [
        1.0,
        1.0,
        -2.0,
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.5,
        -0.5,
    ];
    let non_positive = [-1.0, -0.0, 0.0, f32::NAN, f32::NEG_INFINITY, -3.0];
    // Gradients with signed zeros, NaN and infinities: `(0.0 + g) · mask`
    // at a non-positive winner turns these into -0.0 and NaN.
    let grads = [
        1.0,
        -2.0,
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.25,
    ];
    let shapes_2x2: [[usize; 4]; 5] = [
        [1, 3, 5, 7],
        [1, 8, 64, 64],
        [32, 2, 6, 4],
        [32, 3, 9, 11],
        [2, 1, 2, 2],
    ];
    for dims in shapes_2x2 {
        for (name, palette) in [
            ("awkward", &awkward[..]),
            ("non-positive", &non_positive[..]),
        ] {
            for salt in 0..3 {
                let x = pick(dims, palette, salt);
                let why = format!("2x2 {dims:?} {name} salt {salt}");
                assert_parity(ReluPool::new(), 2, &x, &grads, &why);
            }
        }
    }
    for dims in [[1usize, 3, 1, 9], [32, 2, 1, 16], [4, 8, 1, 1025]] {
        for (name, palette) in [
            ("awkward", &awkward[..]),
            ("non-positive", &non_positive[..]),
        ] {
            for salt in 0..3 {
                let x = pick(dims, palette, salt);
                let why = format!("1x2 {dims:?} {name} salt {salt}");
                assert_parity(ReluPool::one_d(), 1, &x, &grads, &why);
            }
        }
    }
    // Plain random conv outputs at the paper's conv1 shape, batch 1 and 32.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for batch in [1usize, 32] {
        let x = init::uniform([batch, 8, 64, 64], -1.0, 1.0, &mut rng);
        assert_parity(ReluPool::new(), 2, &x, &grads, &format!("uniform b{batch}"));
    }
}

/// The paper's 2D-CNN with every conv stage ending in ReLU followed by
/// [`FirstMaxPool`]: the layer list the builder produced before the fusion.
fn reference_cnn2d(cfg: &ArchConfig) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let w = cfg.base_width;
    let (mut c, mut hw) = (cfg.emb_dim, cfg.grid_h);
    let mut m = Sequential::new();
    for out in [w, 2 * w, 2 * w, 4 * w] {
        m = m
            .push(Conv2d::new(c, out, hw, hw, 3, 1, 1, &mut rng).unwrap())
            .push(ReLU::new())
            .push(FirstMaxPool::new(2, 2));
        (c, hw) = (out, hw / 2);
    }
    m.push(Flatten::new())
        .push(Dense::new(c * hw * hw, 32 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(32 * w, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, cfg.classes, &mut rng))
}

/// A short fit of the paper-shaped model (64×64 grid, word2vec dim 4,
/// base width 8, 960 bins) trains to the same weights and predictions as
/// the unfused composition, whose state keys it shares.
#[test]
fn paper_shaped_fit_matches_the_unfused_composition() {
    let cfg = ArchConfig::paper(4, 960);
    let mut fused = cfg.build(ModelKind::Cnn2d).unwrap();
    let mut reference = reference_cnn2d(&cfg);
    let keys =
        |m: &Sequential| -> Vec<String> { m.state_dict().into_iter().map(|(k, _)| k).collect() };
    assert_eq!(keys(&fused), keys(&reference));
    reference.load_state_dict(&fused.state_dict()).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let x = init::uniform([8, 4, 64, 64], -1.0, 1.0, &mut rng);
    let classes: Vec<usize> = (0..8).map(|i| i * 113 % 960).collect();
    let target = LossTarget::Classes(&classes);
    let fit = |m: &mut Sequential| -> Vec<f32> {
        let mut opt = Adam::new(0.001);
        let mut shuffle = ChaCha8Rng::seed_from_u64(10);
        m.fit(
            &x,
            &target,
            &SoftmaxCrossEntropy,
            &mut opt,
            2,
            4,
            &mut shuffle,
        )
        .unwrap()
    };
    let (losses, want_losses) = (fit(&mut fused), fit(&mut reference));
    let loss_bits = |l: &[f32]| -> Vec<u32> { l.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(loss_bits(&losses), loss_bits(&want_losses));
    for ((key, a), (_, b)) in fused.state_dict().iter().zip(&reference.state_dict()) {
        assert_eq!(bits(a), bits(b), "{key} after the fit");
    }
    assert_eq!(
        bits(&fused.predict(&x, 8).unwrap()),
        bits(&reference.predict(&x, 8).unwrap())
    );
}
