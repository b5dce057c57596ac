//! Dense `f32` tensor library backing PRIONN's from-scratch neural networks.
//!
//! The paper trains small models (64×64-character script images, 500-job
//! batches), so the design favours predictable, cache-friendly, row-major
//! storage with rayon-parallel kernels over elaborate lazy abstractions.
//!
//! The public surface is:
//!
//! * [`Shape`] — a small owned dimension list (1–4 axes in practice),
//! * [`Tensor`] — contiguous row-major storage plus a shape,
//! * [`ops`] — cache-blocked GEMM (plain and transposed variants, fused
//!   bias epilogues), direct 3×3 convolution kernels, im2col/col2im for
//!   the other convolutions, elementwise arithmetic, and reductions,
//! * [`Scratch`] — a reusable buffer pool + GEMM pack workspace that keeps
//!   the training hot path allocation-free,
//! * [`init`] — seeded weight initialisers (uniform, normal, Xavier/Glorot,
//!   He) used by the `prionn-nn` layers.
//!
//! All randomness flows through caller-provided RNGs so experiments are
//! reproducible bit-for-bit.

#![warn(missing_docs)]

pub mod error;
pub mod init;
pub mod ops;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use scratch::{Scratch, ScratchStats};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;
