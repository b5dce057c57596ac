//! The PRIONN tool (paper §2): whole-job-script deep models for per-job
//! runtime and IO prediction, the warm-started online-training protocol, and
//! the evaluation drivers behind every figure in §3–4.
//!
//! * [`metrics`] — Equation 1's relative accuracy and companions;
//! * [`bins`] — the classifier heads' value binning (960 runtime-minute
//!   bins; logarithmic byte bins for IO volumes);
//! * [`predictor`] — [`predictor::Prionn`]: mapping + three CNN heads
//!   (runtime, bytes read, bytes written) with warm-started `retrain`;
//! * [`online`] — the §2.3 protocol: predict at submission, retrain every
//!   `retrain_every` submissions on the `train_window` most recently
//!   completed jobs;
//! * [`baselines`] — the same protocol for RF/DT/kNN on Table-1 features
//!   and for the user-request baseline.

pub mod baselines;
pub mod bins;
pub mod checkpoint;
mod fit_threads;
pub mod metrics;
pub mod online;
pub mod predictor;

pub use baselines::{run_online_baseline, BaselineKind};
pub use bins::ValueBins;
pub use metrics::{mean_absolute_error, relative_accuracy, relative_accuracy_vec};
pub use online::{resume_online_prionn, run_online_prionn, JobPrediction, OnlineConfig};
pub use predictor::{HeadKind, Prionn, PrionnConfig, ResourcePrediction, TrainingBatch};
/// The size of the process-wide compute pool every `par_iter` of training
/// and predicting shares, callers included. The first call starts the
/// pool's workers on the calling thread, at its scheduling priority.
pub use rayon::current_num_threads as compute_threads;
