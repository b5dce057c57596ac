//! A from-scratch CPU deep-learning library for PRIONN.
//!
//! The paper (ICPP 2018) trains three model families on image-like job-script
//! tensors: a fully connected network (NN), a 1-D CNN, and the winning 2-D
//! CNN with four convolutional and four fully connected layers feeding a
//! 960-way classifier head (runtime minutes 0–960 on the Cab cluster).
//!
//! This crate provides everything those models need and nothing more:
//!
//! * [`layer`] — the [`Layer`] trait plus `Dense`, `Conv2d`
//!   (with a 1-D convenience constructor), `MaxPool2d`, `ReLU`, `Dropout`,
//!   `Flatten`, and `Reshape`,
//! * [`loss`] — softmax cross-entropy (classifier head) and MSE (regression
//!   ablation),
//! * [`optim`] — SGD with momentum and Adam, with state keyed by parameter
//!   slot so warm-started retraining (the paper's online protocol) keeps
//!   optimiser state coherent,
//! * [`model`] — a [`Sequential`] container with batched
//!   training, prediction, and weight export/import,
//! * [`arch`] — the paper's three architectures behind one [`arch::ArchConfig`].
//!
//! Parallelism: convolutions (over sample groups) and large dense matmuls
//! (over row panels) share the one process-wide compute pool behind
//! `par_iter`; all randomness is caller-seeded (`ChaCha8Rng`).

#![warn(missing_docs)]

pub mod arch;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;

pub use arch::{build_cnn1d, build_cnn2d, build_nn, ArchConfig, ModelKind};
pub use layer::Layer;
pub use loss::{Loss, LossTarget, MseLoss, SoftmaxCrossEntropy};
pub use model::Sequential;
pub use optim::{Adam, Optimizer, OptimizerState, Sgd};

/// Errors bubbled up from the tensor substrate.
pub type Result<T> = prionn_tensor::Result<T>;
