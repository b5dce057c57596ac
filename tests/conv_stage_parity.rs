//! Tier-1 guard for the conv stage: a `Conv2d` with its ReLU and max pool
//! folded into the write-back (`Conv2d::with_relu_pool`) gives the bits of
//! the same `Conv2d` followed by a `ReluPool` layer — forward (train and
//! eval), `dW`, `db` and `dX` — on the awkward values (±0.0, NaN, ±inf,
//! ties, windows with nothing positive), on output gradients that hold NaN
//! and infinities (which turn off `dW`'s row skip), at odd worker-group sizes
//! (b1, b3, b33: a group of odd length ends on a single sample, not a
//! pair), on the 1-D CNN's strided `1×2` geometry, and over a short
//! paper-shaped fit.

use prionn::nn::layer::{Conv2d, Dense, Flatten, ReLU, ReluPool};
use prionn::nn::{Adam, ArchConfig, Layer, LossTarget, ModelKind, Sequential, SoftmaxCrossEntropy};
use prionn::tensor::{init, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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

/// `x` with every row from `from` on set to +0 in every channel: the
/// bottom run of a mapped script, which `dW`'s row skip leaves out when
/// `dY` is finite.
fn zero_bottom(mut x: Tensor, from: usize) -> Tensor {
    let (h, w) = (x.dims()[2], x.dims()[3]);
    for plane in x.as_mut_slice().chunks_exact_mut(h * w) {
        plane[from.min(h) * w..].fill(0.0);
    }
    x
}

/// The parameter gradients of `layer`, flattened in visit order.
fn grads(layer: &mut dyn Layer) -> Vec<u32> {
    let mut out = Vec::new();
    layer.visit_params(&mut |_, g| out.extend(bits(g.as_slice())));
    out
}

/// Set every bias of `conv`, channel by channel, from `biases`: a large
/// negative one leaves every window of that channel with nothing positive,
/// and 0.0 over +0 input rows makes windows of tied +0 taps.
fn set_bias(conv: &mut Conv2d, biases: &[f32]) {
    let state = conv.state_mut();
    let b = state.into_iter().nth(1).unwrap();
    for (o, v) in b.iter_mut().enumerate() {
        *v = biases[o % biases.len()];
    }
}

/// One conv layer built twice from the same seed: the plain one followed by
/// a `ReluPool`, and the conv stage. Forward, the four gradients and eval
/// forward must agree bit for bit; then the stage runs again through the
/// hand-over entry point and must agree too.
fn assert_stage_parity(
    build: &dyn Fn() -> Conv2d,
    pool: &dyn Fn() -> ReluPool,
    x: &Tensor,
    dy_palette: &[f32],
    why: &str,
) {
    let biases = [-4.0, 0.0, 0.25, f32::NEG_INFINITY, 1.0];
    let mut plain = build();
    let mut tail = pool();
    let mut stage = build().with_relu_pool(pool()).unwrap();
    set_bias(&mut plain, &biases);
    set_bias(&mut stage, &biases);
    let mut s = Scratch::new();

    let conv_y = plain.forward(x, true, &mut s).unwrap();
    let want_y = tail.forward(&conv_y, true, &mut s).unwrap();
    let y = stage.forward(x, true, &mut s).unwrap();
    assert_eq!(y.dims(), want_y.dims(), "{why}");
    assert_eq!(
        bits(y.as_slice()),
        bits(want_y.as_slice()),
        "{why}: forward"
    );

    let d = y.dims();
    let dy = pick([d[0], d[1], d[2], d[3]], dy_palette, 3);
    let want_dx = plain
        .backward(&tail.backward(&dy, &mut s).unwrap(), &mut s)
        .unwrap();
    let dx = stage.backward(&dy, &mut s).unwrap();
    assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()), "{why}: dX");
    assert_eq!(grads(&mut stage), grads(&mut plain), "{why}: dW and db");

    let y_eval = stage.forward(x, false, &mut s).unwrap();
    assert_eq!(
        bits(y_eval.as_slice()),
        bits(want_y.as_slice()),
        "{why}: eval"
    );
    assert!(
        stage.backward(&dy, &mut s).is_err(),
        "{why}: eval kept backward state"
    );

    // The hand-over path keeps the caller's tensor instead of a copy;
    // dW and db only, as the first layer of a training step computes them.
    let y = stage.forward_owned(x.clone(), true, &mut s).unwrap();
    assert_eq!(bits(y.as_slice()), bits(want_y.as_slice()), "{why}: owned");
    stage.backward_params(&dy, &mut s).unwrap();
    assert_eq!(grads(&mut stage), grads(&mut plain), "{why}: owned dW, db");
}

#[test]
fn conv_stage_is_bit_equal_to_conv_then_relu_pool() {
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
    let finite = [1.0, -2.0, -0.0, 0.0, 0.25, 0.25, -1.5];
    let finite_in = [0.5, -0.25, 0.0, -0.0, 1.0, 1.0, -1.0];
    // Output gradients with signed zeros, NaN and infinities: the stage's
    // expanded dY is then not finite, and dW visits every position.
    let non_finite = [
        1.0,
        -2.0,
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.25,
    ];
    // 3×3 / stride 1 / pad 1, the direct kernels: (in_c, out_c, h, w).
    // 7×9 leaves a ragged row and column under the 2×2 pool.
    let shapes = [(4, 8, 16, 16), (3, 5, 7, 9), (8, 16, 8, 8)];
    for (in_c, out_c, h, w) in shapes {
        for batch in [1usize, 3, 33] {
            for (name, x_palette, dy_palette) in [
                ("awkward x, finite dY", &awkward[..], &finite[..]),
                ("finite x, finite dY", &finite_in[..], &finite[..]),
                ("awkward x, NaN/inf dY", &awkward[..], &non_finite[..]),
            ] {
                let x = zero_bottom(pick([batch, in_c, h, w], x_palette, batch), h / 2);
                let build = || {
                    let mut rng = ChaCha8Rng::seed_from_u64(21);
                    Conv2d::new(in_c, out_c, h, w, 3, 1, 1, &mut rng).unwrap()
                };
                let why = format!("3x3 {in_c}->{out_c} {h}x{w} b{batch} {name}");
                assert_stage_parity(&build, &ReluPool::new, &x, dy_palette, &why);
            }
        }
    }
    // The 1-D CNN's strided `1×k` convs (the GEMM lowering) and `1×2` pool:
    // (in_c, out_c, len, kernel, stride, pad).
    for (in_c, out_c, len, k, stride, pad) in [(4, 8, 64, 7, 4, 3), (3, 5, 45, 5, 4, 2)] {
        for batch in [1usize, 3, 33] {
            for (name, x_palette, dy_palette) in [
                ("awkward x, finite dY", &awkward[..], &finite[..]),
                ("awkward x, NaN/inf dY", &awkward[..], &non_finite[..]),
            ] {
                let x = pick([batch, in_c, 1, len], x_palette, batch);
                let build = || {
                    let mut rng = ChaCha8Rng::seed_from_u64(22);
                    Conv2d::new_1d(in_c, out_c, len, k, stride, pad, &mut rng).unwrap()
                };
                let why = format!("1x{k}/{stride} {in_c}->{out_c} len {len} b{batch} {name}");
                assert_stage_parity(&build, &ReluPool::one_d, &x, dy_palette, &why);
            }
        }
    }
    // Plain random inputs at the paper's conv1 shape.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    for batch in [1usize, 3] {
        let x = zero_bottom(init::uniform([batch, 4, 64, 64], -1.0, 1.0, &mut rng), 12);
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(24);
            Conv2d::new(4, 8, 64, 64, 3, 1, 1, &mut rng).unwrap()
        };
        let why = format!("paper conv1 b{batch}");
        assert_stage_parity(&build, &ReluPool::new, &x, &finite, &why);
    }
}

/// A window larger than the conv output cannot be folded in.
#[test]
fn a_pool_larger_than_the_conv_output_is_refused() {
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let conv = Conv2d::new(1, 2, 1, 4, 3, 1, 1, &mut rng).unwrap();
    assert!(conv.with_relu_pool(ReluPool::new()).is_err());
    let conv = Conv2d::new_1d(1, 2, 4, 3, 4, 1, &mut rng).unwrap();
    assert!(conv.with_relu_pool(ReluPool::one_d()).is_err());
}

/// The paper's 2D-CNN with every conv stage as a `Conv2d` followed by a
/// `ReluPool` layer: the layer list the builder produced before the fold.
fn unfolded_cnn2d(cfg: &ArchConfig) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let w = cfg.base_width;
    let (mut c, mut hw) = (cfg.emb_dim, cfg.grid_h);
    let mut m = Sequential::new();
    for out in [w, 2 * w, 2 * w, 4 * w] {
        m = m
            .push(Conv2d::new(c, out, hw, hw, 3, 1, 1, &mut rng).unwrap())
            .push(ReluPool::new());
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

/// Two fit steps of the paper-shaped model (64×64 grid, word2vec dim 4,
/// base width 8, 960 bins, b3 and a batch of 5 — odd groups) train to the
/// same losses, weights and predictions as the unfolded layer list, whose
/// state keys the built model shares.
#[test]
fn paper_shaped_fit_matches_the_unfolded_stages() {
    let cfg = ArchConfig::paper(4, 960);
    let mut folded = cfg.build(ModelKind::Cnn2d).unwrap();
    let mut reference = unfolded_cnn2d(&cfg);
    let keys =
        |m: &Sequential| -> Vec<String> { m.state_dict().into_iter().map(|(k, _)| k).collect() };
    assert_eq!(keys(&folded), keys(&reference));
    reference.load_state_dict(&folded.state_dict()).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(26);
    let x = zero_bottom(init::uniform([8, 4, 64, 64], -1.0, 1.0, &mut rng), 10);
    let classes: Vec<usize> = (0..8).map(|i| i * 97 % 960).collect();
    let target = LossTarget::Classes(&classes);
    let fit = |m: &mut Sequential| -> Vec<f32> {
        let mut opt = Adam::new(0.001);
        let mut shuffle = ChaCha8Rng::seed_from_u64(27);
        m.fit(
            &x,
            &target,
            &SoftmaxCrossEntropy,
            &mut opt,
            1,
            5,
            &mut shuffle,
        )
        .unwrap()
    };
    let (losses, want_losses) = (fit(&mut folded), fit(&mut reference));
    assert_eq!(bits(&losses), bits(&want_losses));
    for ((key, a), (_, b)) in folded.state_dict().iter().zip(&reference.state_dict()) {
        assert_eq!(
            bits(a.as_slice()),
            bits(b.as_slice()),
            "{key} after the fit"
        );
    }
    assert_eq!(
        bits(folded.predict(&x, 3).unwrap().as_slice()),
        bits(reference.predict(&x, 3).unwrap().as_slice())
    );
}
