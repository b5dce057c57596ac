//! Integration between the text mapping and the deep-learning substrate:
//! every (transform, model) combination flows end to end.

use prionn::nn::{Adam, ArchConfig, LossTarget, ModelKind, SoftmaxCrossEntropy};
use prionn::text::{
    map_corpus_1d, map_corpus_2d, BinaryTransform, CharTransform, OneHotTransform, SimpleTransform,
    Word2vecConfig, Word2vecTransform,
};

fn scripts() -> Vec<&'static str> {
    vec![
        "#!/bin/bash\n#SBATCH -N 4\nsrun ./a\n",
        "#!/bin/bash\n#SBATCH -N 64\nsrun ./b --big 12\n",
        "#!/bin/bash\nmodule load x\nsrun ./c\n",
        "#!/bin/bash\n#SBATCH -t 08:00:00\nsrun ./d\n",
    ]
}

#[test]
fn every_transform_feeds_every_model() {
    let scripts = scripts();
    let w2v = Word2vecTransform::train(&scripts, &Word2vecConfig::default());
    let transforms: Vec<Box<dyn CharTransform>> = vec![
        Box::new(BinaryTransform),
        Box::new(SimpleTransform),
        Box::new(OneHotTransform),
        Box::new(w2v),
    ];
    for t in &transforms {
        let cfg = ArchConfig {
            emb_dim: t.dim(),
            grid_h: 16,
            grid_w: 16,
            classes: 8,
            base_width: 2,
            batch_norm: false,
            seed: 7,
        };
        for kind in ModelKind::ALL {
            let mut model = cfg.build(kind).unwrap();
            let x = match kind {
                ModelKind::Cnn2d => map_corpus_2d(&scripts, t.as_ref(), 16, 16).unwrap(),
                _ => map_corpus_1d(&scripts, t.as_ref(), 16, 16).unwrap(),
            };
            let y = model.forward(&x, false).unwrap();
            assert_eq!(y.dims(), &[scripts.len(), 8], "{} + {kind:?}", t.name());
        }
    }
}

#[test]
fn one_training_step_reduces_loss_on_mapped_scripts() {
    let scripts = scripts();
    let t = SimpleTransform;
    let x = map_corpus_2d(&scripts, &t, 16, 16).unwrap();
    let classes = [0usize, 1, 2, 3];
    let cfg = ArchConfig {
        emb_dim: 1,
        grid_h: 16,
        grid_w: 16,
        classes: 4,
        base_width: 2,
        batch_norm: false,
        seed: 3,
    };
    let mut model = cfg.build(ModelKind::Cnn2d).unwrap();
    let mut opt = Adam::new(0.001);
    let mut losses = Vec::new();
    for _ in 0..30 {
        losses.push(
            model
                .train_batch(
                    &x,
                    &LossTarget::Classes(&classes),
                    &SoftmaxCrossEntropy,
                    &mut opt,
                )
                .unwrap(),
        );
    }
    assert!(
        losses.last().unwrap() < losses.first().unwrap(),
        "loss should fall: {:?} -> {:?}",
        losses.first(),
        losses.last()
    );
}

#[test]
fn word2vec_dim_controls_model_input_channels() {
    let scripts = scripts();
    for dim in [2usize, 4, 8] {
        let cfg = Word2vecConfig {
            dim,
            epochs: 1,
            ..Default::default()
        };
        let t = Word2vecTransform::train(&scripts, &cfg);
        let x = map_corpus_2d(&scripts, &t, 16, 16).unwrap();
        assert_eq!(x.dims(), &[scripts.len(), dim, 16, 16]);
    }
}
