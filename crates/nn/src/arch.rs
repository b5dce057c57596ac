//! The paper's three model architectures behind one configuration type.
//!
//! * **NN** — the mapped script flattened to one long vector through a stack
//!   of fully connected layers (paper §2.2, "many fully connected hidden
//!   layers"); the largest parameter count and the slowest to train (Fig 6).
//! * **1D-CNN** — the flattened sequence through 1-D convolutions (realised
//!   as `1×k` 2-D convolutions); the cheapest to train but least accurate
//!   (Figs 6–7).
//! * **2D-CNN** — the paper's production model: four convolutional layers
//!   followed by four fully connected layers over the `64×64` grid.
//!
//! Output heads are classifiers, as in the paper: each output node maps to a
//! value bin (e.g. 960 runtime-minute bins for the Cab cluster's 16 h cap).

use crate::layer::{BatchNorm, Conv2d, Dense, Flatten, ReLU, ReluPool, Reshape};
use crate::model::Sequential;
use crate::Result;
use prionn_tensor::TensorError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which of the paper's three deep-learning models to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Fully connected network on the flattened mapping.
    Nn,
    /// 1-D CNN on the flattened sequence.
    Cnn1d,
    /// 2-D CNN on the preserved script grid (PRIONN's choice).
    Cnn2d,
}

impl ModelKind {
    /// All three kinds, in the order the paper presents them.
    pub const ALL: [ModelKind; 3] = [ModelKind::Nn, ModelKind::Cnn1d, ModelKind::Cnn2d];

    /// Paper-style display name.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Nn => "NN",
            ModelKind::Cnn1d => "1D-CNN",
            ModelKind::Cnn2d => "2D-CNN",
        }
    }
}

/// Architecture hyperparameters shared by all three builders.
#[derive(Debug, Clone)]
pub struct ArchConfig {
    /// Embedding channels per character (1 binary/simple, 4 word2vec
    /// as PRIONN configures it, 128 one-hot).
    pub emb_dim: usize,
    /// Script grid height (paper: 64 rows).
    pub grid_h: usize,
    /// Script grid width (paper: 64 columns).
    pub grid_w: usize,
    /// Output classifier bins (paper: 960 runtime minutes).
    pub classes: usize,
    /// Base convolutional width; channel counts scale from this.
    pub base_width: usize,
    /// Insert batch normalisation after every convolution (extension; the
    /// paper's model has none).
    pub batch_norm: bool,
    /// RNG seed for weight init.
    pub seed: u64,
}

impl ArchConfig {
    /// The paper's configuration for a given embedding width and bin count:
    /// a 64×64 grid and base width 8.
    pub fn paper(emb_dim: usize, classes: usize) -> Self {
        ArchConfig {
            emb_dim,
            grid_h: 64,
            grid_w: 64,
            classes,
            base_width: 8,
            batch_norm: false,
            seed: 0x9e37,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.emb_dim == 0 || self.classes == 0 || self.base_width == 0 {
            return Err(TensorError::InvalidArgument(
                "zero-sized architecture field".into(),
            ));
        }
        if self.grid_h < 16 || self.grid_w < 16 {
            return Err(TensorError::InvalidArgument(format!(
                "grid {}x{} too small for 4 conv+pool stages (needs >=16)",
                self.grid_h, self.grid_w
            )));
        }
        if !self.grid_h.is_multiple_of(16) || !self.grid_w.is_multiple_of(16) {
            return Err(TensorError::InvalidArgument(format!(
                "grid {}x{} must be divisible by 16 so four 2x2 pools tile evenly",
                self.grid_h, self.grid_w
            )));
        }
        Ok(())
    }

    /// Build the requested model kind.
    pub fn build(&self, kind: ModelKind) -> Result<Sequential> {
        match kind {
            ModelKind::Nn => build_nn(self),
            ModelKind::Cnn1d => build_cnn1d(self),
            ModelKind::Cnn2d => build_cnn2d(self),
        }
    }
}

/// The fully connected model: flatten → 512 → 256 → 128 → classes.
pub fn build_nn(cfg: &ArchConfig) -> Result<Sequential> {
    cfg.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let input = cfg.emb_dim * cfg.grid_h * cfg.grid_w;
    let w = cfg.base_width;
    Ok(Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(input, 64 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(64 * w, 32 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(32 * w, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, cfg.classes, &mut rng)))
}

/// The 1-D CNN: reshape to `[emb, 1, H·W]`, two strided `1×k` convolutions
/// each followed by ReLU and `1×2` max pooling (folded into the conv,
/// [`Conv2d::with_relu_pool`]), then two fully connected layers.
pub fn build_cnn1d(cfg: &ArchConfig) -> Result<Sequential> {
    cfg.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let len = cfg.grid_h * cfg.grid_w;
    let w = cfg.base_width;

    let conv1 = Conv2d::new_1d(cfg.emb_dim, w, len, 7, 4, 3, &mut rng)?;
    let l1p = conv1.out_hw().1 / 2;
    let conv2 = Conv2d::new_1d(w, 2 * w, l1p, 5, 4, 2, &mut rng)?;
    let l2p = conv2.out_hw().1 / 2;

    let flat = 2 * w * l2p;
    Ok(Sequential::new()
        .push(Reshape::new([cfg.emb_dim, 1, len]))
        .push(conv1.with_relu_pool(ReluPool::one_d())?)
        .push(conv2.with_relu_pool(ReluPool::one_d())?)
        .push(Flatten::new())
        .push(Dense::new(flat, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, cfg.classes, &mut rng)))
}

/// The 2-D CNN (PRIONN's production model): four `3×3` convolutions, each
/// followed by ReLU and `2×2` max pooling, then four fully connected layers.
/// The ReLU and pool fold into the conv ([`Conv2d::with_relu_pool`]); with
/// batch norm, which sits between the two, they are one [`ReluPool`] layer.
pub fn build_cnn2d(cfg: &ArchConfig) -> Result<Sequential> {
    cfg.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let w = cfg.base_width;
    let (h0, w0) = (cfg.grid_h, cfg.grid_w);

    // Stage sizes after each 2x2 pool.
    let (h1, w1) = (h0 / 2, w0 / 2);
    let (h2, w2) = (h1 / 2, w1 / 2);
    let (h3, w3) = (h2 / 2, w2 / 2);
    let (h4, w4) = (h3 / 2, w3 / 2);

    let conv1 = Conv2d::new(cfg.emb_dim, w, h0, w0, 3, 1, 1, &mut rng)?;
    let conv2 = Conv2d::new(w, 2 * w, h1, w1, 3, 1, 1, &mut rng)?;
    let conv3 = Conv2d::new(2 * w, 2 * w, h2, w2, 3, 1, 1, &mut rng)?;
    let conv4 = Conv2d::new(2 * w, 4 * w, h3, w3, 3, 1, 1, &mut rng)?;
    let flat = 4 * w * h4 * w4;

    let mut m = Sequential::new();
    let stage = |m: &mut Sequential, conv: Conv2d, out_c: usize| -> Result<()> {
        if cfg.batch_norm {
            m.push_boxed(Box::new(conv));
            m.push_boxed(Box::new(BatchNorm::new(out_c)?));
            m.push_boxed(Box::new(ReluPool::new()));
        } else {
            m.push_boxed(Box::new(conv.with_relu_pool(ReluPool::new())?));
        }
        Ok(())
    };
    stage(&mut m, conv1, w)?;
    stage(&mut m, conv2, 2 * w)?;
    stage(&mut m, conv3, 2 * w)?;
    stage(&mut m, conv4, 4 * w)?;
    m.push_boxed(Box::new(Flatten::new()));
    m.push_boxed(Box::new(Dense::new(flat, 32 * w, &mut rng)));
    m.push_boxed(Box::new(ReLU::new()));
    m.push_boxed(Box::new(Dense::new(32 * w, 16 * w, &mut rng)));
    m.push_boxed(Box::new(ReLU::new()));
    m.push_boxed(Box::new(Dense::new(16 * w, 16 * w, &mut rng)));
    m.push_boxed(Box::new(ReLU::new()));
    m.push_boxed(Box::new(Dense::new(16 * w, cfg.classes, &mut rng)));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prionn_tensor::Tensor;

    fn cfg() -> ArchConfig {
        ArchConfig {
            emb_dim: 4,
            grid_h: 32,
            grid_w: 32,
            classes: 10,
            base_width: 4,
            batch_norm: false,
            seed: 1,
        }
    }

    #[test]
    fn cnn2d_forward_shape() {
        let mut m = build_cnn2d(&cfg()).unwrap();
        let x = Tensor::zeros([2, 4, 32, 32]);
        let y = m.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn cnn1d_forward_shape_from_sequence() {
        let mut m = build_cnn1d(&cfg()).unwrap();
        let x = Tensor::zeros([3, 4, 32 * 32]);
        let y = m.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[3, 10]);
    }

    #[test]
    fn nn_accepts_grid_or_sequence() {
        let mut m = build_nn(&cfg()).unwrap();
        let grid = Tensor::zeros([2, 4, 32, 32]);
        assert_eq!(m.forward(&grid, false).unwrap().dims(), &[2, 10]);
        let seq = Tensor::zeros([2, 4, 32 * 32]);
        assert_eq!(m.forward(&seq, false).unwrap().dims(), &[2, 10]);
    }

    #[test]
    fn paper_config_builds_all_kinds() {
        let cfg = ArchConfig::paper(4, 960);
        for kind in ModelKind::ALL {
            let m = cfg.build(kind).unwrap();
            assert!(m.param_count() > 0, "{kind:?}");
        }
    }

    #[test]
    fn nn_has_most_parameters_cnn1d_fewest_compute() {
        // The paper's cost ordering (Fig 6) stems from the NN's giant first
        // dense layer; assert the parameter-count ordering that drives it.
        let cfg = ArchConfig::paper(4, 960);
        let nn = build_nn(&cfg).unwrap().param_count();
        let c2 = build_cnn2d(&cfg).unwrap().param_count();
        assert!(nn > c2, "NN {nn} should exceed 2D-CNN {c2}");
    }

    #[test]
    fn batch_norm_variant_builds_and_runs() {
        let mut c = cfg();
        c.batch_norm = true;
        let mut m = build_cnn2d(&c).unwrap();
        let x = Tensor::zeros([2, 4, 32, 32]);
        assert_eq!(m.forward(&x, true).unwrap().dims(), &[2, 10]);
        let plain = build_cnn2d(&cfg()).unwrap();
        assert!(m.param_count() > plain.param_count(), "BN adds gamma/beta");
    }

    #[test]
    fn state_dict_keys_keep_the_unfused_layer_numbering() {
        // A conv stage stands where a conv, a relu and a maxpool2d stood,
        // and a `relu_pool` behind batch norm where the last two stood; each
        // counts as all of them, so checkpoints written before the fusions
        // load.
        let keys = |kind, batch_norm| -> Vec<String> {
            let cfg = ArchConfig {
                batch_norm,
                ..ArchConfig::paper(4, 960)
            };
            let m = cfg.build(kind).unwrap();
            m.state_dict().into_iter().map(|(k, _)| k).collect()
        };
        let expand = |layers: &[(usize, &str)]| -> Vec<String> {
            let mut out = Vec::new();
            for &(i, name) in layers {
                let fields: &[&str] = match name {
                    "batchnorm" => &["gamma", "beta", "running_mean", "running_var"],
                    _ => &["w", "b"],
                };
                out.extend(fields.iter().map(|f| format!("{i}.{name}.{f}")));
            }
            out
        };
        assert_eq!(
            keys(ModelKind::Cnn2d, false),
            expand(&[
                (0, "conv2d"),
                (3, "conv2d"),
                (6, "conv2d"),
                (9, "conv2d"),
                (13, "dense"),
                (15, "dense"),
                (17, "dense"),
                (19, "dense"),
            ])
        );
        assert_eq!(
            keys(ModelKind::Cnn1d, false),
            expand(&[(1, "conv2d"), (4, "conv2d"), (8, "dense"), (10, "dense")])
        );
        assert_eq!(
            keys(ModelKind::Cnn2d, true),
            expand(&[
                (0, "conv2d"),
                (1, "batchnorm"),
                (4, "conv2d"),
                (5, "batchnorm"),
                (8, "conv2d"),
                (9, "batchnorm"),
                (12, "conv2d"),
                (13, "batchnorm"),
                (17, "dense"),
                (19, "dense"),
                (21, "dense"),
                (23, "dense"),
            ])
        );
    }

    #[test]
    fn telemetry_labels_use_the_state_dict_index() {
        // A conv stage is one `conv2d` series; with batch norm between the
        // conv and the pool, the pool is a `relu_pool` layer of its own.
        let series = |batch_norm: bool| -> Vec<String> {
            let t = prionn_telemetry::Telemetry::new();
            let mut m = build_cnn2d(&ArchConfig {
                batch_norm,
                ..cfg()
            })
            .unwrap();
            m.set_telemetry(&t, "runtime");
            m.forward(&Tensor::zeros([1, 4, 32, 32]), false).unwrap();
            let text = t.prometheus();
            let prefix = "nn_layer_forward_seconds_count{layer=\"";
            text.lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .map(|l| l[..l.find('"').unwrap()].to_string())
                .collect()
        };
        let fused = [
            "0.conv2d",
            "3.conv2d",
            "6.conv2d",
            "9.conv2d",
            "12.flatten",
            "13.dense",
            "14.relu",
            "15.dense",
            "16.relu",
            "17.dense",
            "18.relu",
            "19.dense",
        ];
        assert_eq!(series(false), fused);
        let with_bn = [
            "0.conv2d",
            "1.batchnorm",
            "2.relu_pool",
            "4.conv2d",
            "5.batchnorm",
            "6.relu_pool",
            "8.conv2d",
            "9.batchnorm",
            "10.relu_pool",
            "12.conv2d",
            "13.batchnorm",
            "14.relu_pool",
            "16.flatten",
            "17.dense",
            "18.relu",
            "19.dense",
            "20.relu",
            "21.dense",
            "22.relu",
            "23.dense",
        ];
        assert_eq!(series(true), with_bn);
    }

    #[test]
    fn rejects_indivisible_grid() {
        let mut c = cfg();
        c.grid_h = 24; // 24/16 not integral
        assert!(build_cnn2d(&c).is_err());
    }

    #[test]
    fn rejects_zero_fields() {
        let mut c = cfg();
        c.classes = 0;
        assert!(build_nn(&c).is_err());
    }

    #[test]
    fn prediction_does_not_depend_on_the_batch_it_rode_in() {
        // Dense runs its direct path up to MR = 6 rows and the packed
        // kernel above; conv shards samples over worker groups. Neither may
        // show in a script's outputs: `Prionn::predict` memoises a script's
        // answer from whichever batch it first rode in.
        let x = prionn_tensor::init::uniform(
            [8, 4, 64 * 64],
            -1.0,
            1.0,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(5),
        );
        let row_len = 4 * 64 * 64;
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let kinds = [
            (ModelKind::Nn, false),
            (ModelKind::Cnn1d, false),
            (ModelKind::Cnn2d, false),
            (ModelKind::Cnn2d, true),
        ];
        for (kind, batch_norm) in kinds {
            // The mapping's layout for this kind: a grid for the 2-D CNN.
            let input = |rows: std::ops::Range<usize>| {
                let data = x.as_slice()[rows.start * row_len..rows.end * row_len].to_vec();
                match kind {
                    ModelKind::Cnn2d => Tensor::from_vec([rows.len(), 4, 64, 64], data),
                    _ => Tensor::from_vec([rows.len(), 4, 64 * 64], data),
                }
                .unwrap()
            };
            for classes in [1, 37, 64, 960] {
                let why = format!("{kind:?} batch_norm={batch_norm} width {classes}");
                let mut m = ArchConfig {
                    batch_norm,
                    ..ArchConfig::paper(4, classes)
                }
                .build(kind)
                .unwrap();
                let alone: Vec<Vec<u32>> = (0..8)
                    .map(|i| bits(m.forward(&input(i..i + 1), false).unwrap().as_slice()))
                    .collect();
                for batch in 2..=8usize {
                    let y = m.forward(&input(0..batch), false).unwrap();
                    for (i, want) in alone.iter().enumerate().take(batch) {
                        assert_eq!(
                            &bits(&y.as_slice()[i * classes..(i + 1) * classes]),
                            want,
                            "{why}: script {i} inside a batch of {batch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn training_step_runs_end_to_end_on_cnn2d() {
        use crate::loss::{LossTarget, SoftmaxCrossEntropy};
        use crate::optim::Adam;
        let mut m = build_cnn2d(&cfg()).unwrap();
        let x = prionn_tensor::init::uniform(
            [4, 4, 32, 32],
            -1.0,
            1.0,
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(2),
        );
        let y = [0usize, 1, 2, 3];
        let mut opt = Adam::new(0.01);
        let l1 = m
            .train_batch(&x, &LossTarget::Classes(&y), &SoftmaxCrossEntropy, &mut opt)
            .unwrap();
        assert!(l1.is_finite());
    }
}
