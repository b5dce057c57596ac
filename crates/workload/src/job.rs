//! The job record: everything the paper's dataset carries per job.

use serde::{Deserialize, Serialize};

/// One job from the synthetic trace: the script, the scheduler metadata, and
/// the ground-truth resource usage the predictors are scored against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Sequential job id, ordered by submission.
    pub id: u64,
    /// Submitting user login.
    pub user: String,
    /// User's login group.
    pub group: String,
    /// Account / bank charged.
    pub account: String,
    /// Application family name (hidden label; never given to predictors).
    pub app: String,
    /// Full job-script text.
    pub script: String,
    /// Directory the job was submitted from.
    pub submit_dir: String,
    /// Submission time, seconds since trace start.
    pub submit_time: u64,
    /// User-requested wall time, seconds.
    pub requested_seconds: u64,
    /// Requested node count.
    pub nodes: u32,
    /// True runtime, seconds (0 for cancelled jobs).
    pub runtime_seconds: u64,
    /// True bytes read over the job's lifetime.
    pub bytes_read: f64,
    /// True bytes written over the job's lifetime.
    pub bytes_written: f64,
    /// Mean power draw over the job's lifetime, watts (0 for cancelled
    /// jobs). Power is the paper's named future-work resource; no model
    /// here predicts it, but the draw stays in the generator so traces keep
    /// their bits.
    #[serde(default)]
    pub mean_power_watts: f64,
    /// Cancelled before execution (excluded from evaluation, as in §2.3).
    pub cancelled: bool,
}

impl JobRecord {
    /// True runtime in (fractional) minutes.
    pub fn runtime_minutes(&self) -> f64 {
        self.runtime_seconds as f64 / 60.0
    }

    /// True mean read bandwidth, bytes/second (0 for zero-length jobs).
    pub fn read_bandwidth(&self) -> f64 {
        if self.runtime_seconds == 0 {
            0.0
        } else {
            self.bytes_read / self.runtime_seconds as f64
        }
    }

    /// True mean write bandwidth, bytes/second.
    pub fn write_bandwidth(&self) -> f64 {
        if self.runtime_seconds == 0 {
            0.0
        } else {
            self.bytes_written / self.runtime_seconds as f64
        }
    }

    /// User-requested runtime in minutes (the baseline "user prediction").
    pub fn requested_minutes(&self) -> f64 {
        self.requested_seconds as f64 / 60.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            id: 1,
            user: "user001".into(),
            group: "grp01".into(),
            account: "acct1".into(),
            app: "lammps".into(),
            script: "#!/bin/bash\n".into(),
            submit_dir: "/home/user001".into(),
            submit_time: 100,
            requested_seconds: 7200,
            nodes: 8,
            runtime_seconds: 1800,
            bytes_read: 9.0e9,
            bytes_written: 3.6e9,
            mean_power_watts: 2_400.0,
            cancelled: false,
        }
    }

    #[test]
    fn bandwidth_is_bytes_over_runtime() {
        let j = job();
        assert!((j.read_bandwidth() - 5.0e6).abs() < 1.0);
        assert!((j.write_bandwidth() - 2.0e6).abs() < 1.0);
    }

    #[test]
    fn zero_runtime_has_zero_bandwidth() {
        let mut j = job();
        j.runtime_seconds = 0;
        assert_eq!(j.read_bandwidth(), 0.0);
        assert_eq!(j.write_bandwidth(), 0.0);
    }

    #[test]
    fn minute_conversions() {
        let j = job();
        assert_eq!(j.runtime_minutes(), 30.0);
        assert_eq!(j.requested_minutes(), 120.0);
    }
}
