//! Event-driven HPC cluster simulation — the stand-in for the Flux
//! resource-manager simulator the paper drives with its predictions (§4).
//!
//! * [`engine`] — an incremental FCFS + EASY-backfill scheduler over a node
//!   pool; jobs run for their *actual* runtime while the scheduler plans
//!   with caller-supplied *estimates* (user requests or model predictions);
//! * [`snapshot`] — the paper's turnaround-time predictor (§4.2): at each
//!   submission, copy the system state, replace every runtime with its
//!   prediction, and roll the copy forward until the new job completes;
//! * [`io`] — per-minute system IO timelines summed over running jobs'
//!   bandwidths (§4.3);
//! * [`burst`] — IO-burst detection at the paper's mean + 1σ threshold and
//!   the windowed sensitivity/precision matching of Figs 13 & 15.

pub mod burst;
pub mod engine;
pub mod io;
pub mod io_aware;
pub mod snapshot;

pub use burst::{burst_metrics, burst_threshold, BurstMetrics};
pub use engine::{KilledJob, RunningJob, Schedule, ScheduleEntry, SimEngine, SimJob};
pub use io::{horizon_minutes, io_timeline, minute_contribution, JobIoInterval};
pub use io_aware::{simulate_io_aware, IoAwareConfig, IoAwareEngine};
pub use snapshot::predict_turnarounds;
