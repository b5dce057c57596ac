//! Zero-allocation hot-path acceptance test: after a warm-up step, repeated
//! training steps over fixed shapes must be served entirely from the
//! [`prionn_tensor::Scratch`] pool — `ScratchStats::grows` stays flat.

use prionn_nn::layer::{Conv2d, Dense, Dropout, Flatten, MaxPool2d, ReLU};
use prionn_nn::{ArchConfig, LossTarget, ModelKind, Sequential, Sgd, SoftmaxCrossEntropy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_cnn(rng: &mut ChaCha8Rng) -> Sequential {
    // 1x8x8 input -> conv(4,k3,p1) -> relu -> pool2 -> flatten -> dense(10).
    Sequential::new()
        .push(Conv2d::new(1, 4, 8, 8, 3, 1, 1, rng).unwrap())
        .push(ReLU::new())
        .push(MaxPool2d::new(2).unwrap())
        .push(Dropout::new(0.25, 42).unwrap())
        .push(Flatten::new())
        .push(Dense::new(4 * 4 * 4, 10, rng))
}

#[test]
fn steady_state_training_does_not_grow_the_pool() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut model = small_cnn(&mut rng);
    let mut opt = Sgd::new(0.01);
    let loss = SoftmaxCrossEntropy;
    let x = prionn_tensor::init::uniform([6, 1, 8, 8], -1.0, 1.0, &mut rng);
    let classes: Vec<usize> = (0..6).map(|i| i % 10).collect();
    let target = LossTarget::Classes(&classes);

    // Warm-up: first steps populate the pool and pack workspaces.
    for _ in 0..2 {
        model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    }
    let warm = model.scratch_stats();
    assert!(warm.takes > 0, "training must draw from the pool");

    // Steady state: every take must now hit the pool.
    for _ in 0..8 {
        model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    }
    let after = model.scratch_stats();
    assert_eq!(
        after.grows, warm.grows,
        "steady-state training allocated fresh buffers: {warm:?} -> {after:?}"
    );
    assert_eq!(after.takes - warm.takes, after.hits - warm.hits);
    assert!(after.gemm.calls > warm.gemm.calls, "GEMM stats must flow");
}

#[test]
fn steady_state_prediction_does_not_grow_the_pool() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut model = small_cnn(&mut rng);
    let x = prionn_tensor::init::uniform([4, 1, 8, 8], -1.0, 1.0, &mut rng);

    // The pool needs one extra round to reach its best-fit fixed point
    // because the first call grows buffers in a different interleaving.
    for _ in 0..3 {
        model.predict(&x, 4).unwrap();
    }
    let warm = model.scratch_stats();
    for _ in 0..6 {
        let out = model.predict(&x, 4).unwrap();
        assert_eq!(out.dims(), &[4, 10]);
    }
    let after = model.scratch_stats();
    assert_eq!(
        after.grows, warm.grows,
        "steady-state predict allocated fresh buffers: {warm:?} -> {after:?}"
    );
}

#[test]
fn gemm_throughput_counters_populate() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let mut model = Sequential::new().push(Dense::new(64, 32, &mut rng));
    let x = prionn_tensor::init::uniform([16, 64], -1.0, 1.0, &mut rng);
    model.forward(&x, false).unwrap();
    let st = model.scratch_stats();
    assert!(st.gemm.calls >= 1);
    assert!(st.gemm.flops > 0.0);
    assert!(st.gemm_gflops() > 0.0);
    let share = st.gemm_pack_share();
    assert!((0.0..=1.0).contains(&share));
}

/// The paper-shaped step at the retrain batch size: pool-stable after one
/// warm step, and nothing in the pool is anywhere near a batch of conv1 cols
/// matrices (`4·9 × 64·64` floats per sample — what the layer cached before
/// it packed GEMM panels straight from its input). Its four convs run the
/// direct 3×3 kernels, which stage the padded image, `dYᵀ` and the padded
/// `dY` in the workspaces' pack buffers: those stop growing too.
#[test]
fn paper_shaped_step_is_pool_stable_and_holds_no_cols_sized_buffer() {
    let batch = 32usize;
    let mut model = ArchConfig::paper(4, 960).build(ModelKind::Cnn2d).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let x = prionn_tensor::init::uniform([batch, 4, 64, 64], -1.0, 1.0, &mut rng);
    let classes: Vec<usize> = (0..batch).map(|i| i * 30).collect();
    let target = LossTarget::Classes(&classes);
    let mut opt = Sgd::new(0.01);
    let loss = SoftmaxCrossEntropy;

    model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    let warm = model.scratch_stats();
    for _ in 0..3 {
        model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    }
    let after = model.scratch_stats();
    assert_eq!(
        after.grows, warm.grows,
        "steps after the warm one allocated: {warm:?} -> {after:?}"
    );
    assert_eq!(
        after.gemm.pack_grows, warm.gemm.pack_grows,
        "steps after the warm one grew a workspace buffer: {warm:?} -> {after:?}"
    );
    let conv1_cols = 4 * 9 * 64 * 64;
    assert!(
        after.largest_pooled < conv1_cols * batch,
        "a pooled buffer of {} floats is as large as a batch of conv1 cols matrices ({})",
        after.largest_pooled,
        conv1_cols * batch
    );
    // The largest thing a step holds is conv1's output (8·64·64 per sample).
    assert!(after.largest_pooled >= 8 * 64 * 64 * batch);
}
