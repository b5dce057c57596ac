//! # prionn-revise — continuous in-flight re-prediction with calibrated intervals
//!
//! PRIONN predicts a job exactly once, at submission. This crate closes
//! the loop while the job *runs*:
//!
//! * [`progress`] — a job's [`JobTruth`] synthesises its partial-progress
//!   observations (elapsed wall time, IO-so-far) on the sched simulator,
//!   standing in for a real resource manager's node-agent counters;
//! * [`reviser`] — the [`Reviser`] re-predicts in-flight jobs by blending
//!   the submission-time prediction with a progress extrapolation under a
//!   recency weight `t / (t + half_life)` (monotone staleness decay),
//!   never revising a job below its observed elapsed floor;
//! * [`conformal`] — a [`ConformalCalibrator`] turns the rolling outcome
//!   window the `prionn-observe` [`DriftMonitor`](prionn_observe::DriftMonitor)
//!   already maintains into split-conformal quantiles, so every
//!   prediction ships as a calibrated `[lo, point, hi]`
//!   [`PredictionInterval`] at a configurable coverage level;
//! * [`engine`] — the [`ReviseEngine`] drives the loop against a
//!   [`SimEngine`](prionn_sched::SimEngine), one pass over the running
//!   set per tick and one lookup per job: intervals flow into
//!   interval-aware EASY backfill (reserve against `hi`, backfill against
//!   `lo`) and a kill/requeue policy terminates jobs whose revised `lo`
//!   exceeds their requested walltime, reclaiming the node-hours the
//!   walltime limit would have burned. Outcomes — completed *and* killed —
//!   feed back into the drift window, keeping calibration free of
//!   survivorship bias.
//!
//! ```
//! use prionn_revise::{ConformalCalibrator, ProgressObs, Reviser, ReviseConfig};
//! use prionn_core::ResourcePrediction;
//!
//! let reviser = Reviser::new(ReviseConfig::default());
//! let initial = ResourcePrediction {
//!     runtime_minutes: 60.0,
//!     read_bytes: 1.0e9,
//!     write_bytes: 1.0e9,
//! };
//! // 30 minutes in, only 10% of the predicted IO is done: re-predict.
//! let obs = ProgressObs {
//!     job_id: 1,
//!     elapsed_seconds: 1800.0,
//!     read_bytes_so_far: 1.0e8,
//!     write_bytes_so_far: 1.0e8,
//! };
//! let revised = reviser.revise(&initial, &obs);
//! assert!(revised.runtime_minutes > initial.runtime_minutes);
//!
//! // Wrap it in a calibrated interval (scores from a drift window).
//! let cal = ConformalCalibrator::from_scores(vec![0.8, 0.9, 1.0, 1.1, 1.25]);
//! let interval = cal.interval(revised.runtime_minutes, 0.8);
//! assert!(interval.lo <= interval.hi);
//! ```
//!
//! Revision runs in-process beside the scheduler, the ops endpoint
//! exposes `/revise`, and `docs/REVISION.md` covers the cadence,
//! blending, and conformal math in detail.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformal;
pub mod engine;
pub mod progress;
pub mod reviser;

pub use conformal::{ConformalCalibrator, PredictionInterval, SCORE_EPSILON};
pub use engine::{ReviseEngine, ReviseSnapshot, Revision, TickReport, TrackedJob};
pub use progress::JobTruth;
pub use reviser::{ProgressObs, ReviseConfig, Reviser};
