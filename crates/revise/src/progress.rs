//! The progress tap on the scheduling simulator.
//!
//! A real resource manager reads a running job's elapsed time and IO
//! counters from the node agents; the simulator knows both exactly. A job
//! hands the [`ReviseEngine`](crate::ReviseEngine) its [`JobTruth`] at
//! submission, and each tick turns the truth of every due running job into
//! a [`ProgressObs`] with [`JobTruth::progress`]: elapsed wall time plus
//! bytes read and written so far (IO accrues linearly over the job's life,
//! matching the constant-bandwidth model `prionn-sched`'s IO timelines
//! use).

use crate::reviser::ProgressObs;

/// Ground truth a job hands the engine so the tap can synthesise its
/// node-agent counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobTruth {
    /// Actual total runtime, seconds.
    pub runtime_seconds: u64,
    /// Actual total bytes read.
    pub read_bytes: f64,
    /// Actual total bytes written.
    pub write_bytes: f64,
}

impl JobTruth {
    /// Job `job_id`'s counters `elapsed_seconds` after it started: IO so
    /// far is the actual total times the fraction of the actual runtime
    /// elapsed, capped at the total.
    pub fn progress(&self, job_id: u64, elapsed_seconds: u64) -> ProgressObs {
        let time_frac = (elapsed_seconds as f64 / self.runtime_seconds.max(1) as f64).min(1.0);
        ProgressObs {
            job_id,
            elapsed_seconds: elapsed_seconds as f64,
            read_bytes_so_far: self.read_bytes * time_frac,
            write_bytes_so_far: self.write_bytes * time_frac,
        }
    }
}
