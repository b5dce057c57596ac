//! Recency-weighted in-flight re-prediction.
//!
//! PRIONN's prediction is made once, from the job script alone. But a
//! running job leaks information every second it runs: its elapsed wall
//! time is a hard floor on its total runtime, and the fraction of its
//! predicted IO already consumed is a direct progress signal. The
//! [`Reviser`] folds that signal back into the submission-time prediction:
//!
//! 1. **Progress extrapolation** — with `f` = fraction of predicted total
//!    IO consumed and `t` = elapsed, the progress-implied total runtime is
//!    `t / f` (a job that did half its IO in 10 minutes is a ~20-minute
//!    job). Below [`ReviseConfig::min_io_fraction`] the signal is too
//!    noisy and the initial prediction stands.
//! 2. **Recency-weighted blend** — `revised = (1−w)·initial + w·progress`
//!    with `w = t / (t + half_life)`. The weight is monotone in elapsed
//!    time: the older the submission-time prediction gets, the less it is
//!    trusted (monotone staleness decay), smoothly and without a cliff.
//! 3. **Elapsed floor** — whatever the blend says, a job that has already
//!    run `t` cannot finish in less than `t`: revised runtime is clamped
//!    to the observed floor, and revised IO totals to the IO already seen.

use prionn_core::ResourcePrediction;

/// Tuning for the revision loop (shared by [`Reviser`] and the
/// [`ReviseEngine`](crate::ReviseEngine) built on it).
#[derive(Clone, Debug)]
pub struct ReviseConfig {
    /// Seconds between progress observations per job.
    pub cadence_seconds: u64,
    /// Nominal coverage for the conformal intervals (e.g. `0.9`).
    pub coverage: f64,
    /// Blend half-saturation: at `elapsed == half_life_seconds` the
    /// progress estimate and the initial prediction weigh equally.
    pub half_life_seconds: f64,
    /// Minimum fraction of predicted IO consumed before the progress
    /// extrapolation is trusted at all.
    pub min_io_fraction: f64,
    /// Calibration scores required before intervals are non-degenerate
    /// and the kill policy may act.
    pub min_calibration: usize,
    /// Terminate jobs whose revised interval `lo` exceeds their requested
    /// walltime.
    pub kill_enabled: bool,
    /// Put killed jobs back on the queue for a fresh attempt.
    pub requeue_killed: bool,
}

impl Default for ReviseConfig {
    fn default() -> Self {
        ReviseConfig {
            cadence_seconds: 60,
            coverage: 0.9,
            half_life_seconds: 600.0,
            min_io_fraction: 0.02,
            min_calibration: 32,
            kill_enabled: true,
            requeue_killed: false,
        }
    }
}

/// One partial-progress observation of a running job, as the engine
/// synthesises it on the simulator with [`JobTruth::progress`](crate::JobTruth::progress).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressObs {
    /// The running job.
    pub job_id: u64,
    /// Wall time since the job started, seconds.
    pub elapsed_seconds: f64,
    /// Bytes read so far.
    pub read_bytes_so_far: f64,
    /// Bytes written so far.
    pub write_bytes_so_far: f64,
}

impl ProgressObs {
    /// Fraction of `initial`'s predicted total IO already consumed
    /// (0 when the prediction expected no IO; may exceed 1 when the job
    /// out-runs its prediction).
    pub fn io_fraction(&self, initial: &ResourcePrediction) -> f64 {
        let predicted_total = initial.read_bytes + initial.write_bytes;
        if predicted_total <= 0.0 {
            return 0.0;
        }
        ((self.read_bytes_so_far + self.write_bytes_so_far) / predicted_total).max(0.0)
    }
}

/// The pure revision step: no locks, no allocation, no model inference —
/// this is the wire/tick hot path, benchmarked at hundreds of thousands
/// of revisions per second.
#[derive(Clone, Debug)]
pub struct Reviser {
    cfg: ReviseConfig,
}

impl Reviser {
    /// A reviser with the given tuning.
    pub fn new(cfg: ReviseConfig) -> Self {
        Reviser { cfg }
    }

    /// The configured tuning.
    pub fn config(&self) -> &ReviseConfig {
        &self.cfg
    }

    /// Blend weight on the progress estimate after `elapsed_seconds` —
    /// `t / (t + half_life)`, monotone in `t`, 0 at submission,
    /// approaching 1 as the initial prediction goes stale.
    pub fn staleness_weight(&self, elapsed_seconds: f64) -> f64 {
        let t = elapsed_seconds.max(0.0);
        let h = self.cfg.half_life_seconds.max(f64::EPSILON);
        t / (t + h)
    }

    /// Revise `initial` with one progress observation. Guarantees:
    /// revised runtime ≥ observed elapsed time, revised IO totals ≥ IO
    /// already observed, and at `elapsed == 0` the initial prediction is
    /// returned unchanged.
    pub fn revise(&self, initial: &ResourcePrediction, obs: &ProgressObs) -> ResourcePrediction {
        let elapsed_min = obs.elapsed_seconds.max(0.0) / 60.0;
        if elapsed_min <= 0.0 {
            return *initial;
        }
        let w = self.staleness_weight(obs.elapsed_seconds);
        let frac = obs.io_fraction(initial);

        // Progress-implied total runtime; without a usable IO signal the
        // initial prediction stands in (the blend then only enforces the
        // elapsed floor).
        let progress_runtime = if frac >= self.cfg.min_io_fraction {
            elapsed_min / frac
        } else {
            initial.runtime_minutes
        };
        let runtime_minutes =
            ((1.0 - w) * initial.runtime_minutes + w * progress_runtime).max(elapsed_min);

        // IO totals: extrapolate the observed rate over the revised
        // runtime, blend the same way, floor at what has been seen.
        let time_scale = runtime_minutes / elapsed_min;
        let read_bytes = ((1.0 - w) * initial.read_bytes + w * obs.read_bytes_so_far * time_scale)
            .max(obs.read_bytes_so_far);
        let write_bytes = ((1.0 - w) * initial.write_bytes
            + w * obs.write_bytes_so_far * time_scale)
            .max(obs.write_bytes_so_far);

        ResourcePrediction {
            runtime_minutes,
            read_bytes,
            write_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial() -> ResourcePrediction {
        ResourcePrediction {
            runtime_minutes: 60.0,
            read_bytes: 6.0e9,
            write_bytes: 6.0e9,
        }
    }

    fn obs(elapsed_seconds: f64, io_frac_of_initial: f64) -> ProgressObs {
        ProgressObs {
            job_id: 1,
            elapsed_seconds,
            read_bytes_so_far: 6.0e9 * io_frac_of_initial,
            write_bytes_so_far: 6.0e9 * io_frac_of_initial,
        }
    }

    #[test]
    fn zero_elapsed_returns_initial_unchanged() {
        let r = Reviser::new(ReviseConfig::default());
        assert_eq!(r.revise(&initial(), &obs(0.0, 0.0)), initial());
    }

    #[test]
    fn staleness_weight_is_monotone_and_bounded() {
        let r = Reviser::new(ReviseConfig::default());
        let mut last = -1.0;
        for t in [0.0, 10.0, 60.0, 600.0, 3600.0, 86400.0] {
            let w = r.staleness_weight(t);
            assert!((0.0..1.0).contains(&w), "w={w}");
            assert!(w > last || (t == 0.0 && w == 0.0), "not monotone at {t}");
            last = w;
        }
        assert!((r.staleness_weight(600.0) - 0.5).abs() < 1e-12, "half-life");
    }

    #[test]
    fn on_pace_job_keeps_its_prediction() {
        // Half the predicted IO done at half the predicted runtime: the
        // progress estimate agrees with the initial one.
        let r = Reviser::new(ReviseConfig::default());
        let revised = r.revise(&initial(), &obs(1800.0, 0.5));
        assert!(
            (revised.runtime_minutes - 60.0).abs() < 1e-9,
            "{}",
            revised.runtime_minutes
        );
    }

    #[test]
    fn slow_job_is_revised_upward_with_growing_conviction() {
        // Only 10% of predicted IO done at the 30-minute mark: the job is
        // pacing toward ~300 minutes. More elapsed time at the same pace
        // pushes the blend further from the initial 60.
        let r = Reviser::new(ReviseConfig::default());
        let at_30 = r.revise(&initial(), &obs(1800.0, 0.10));
        assert!(at_30.runtime_minutes > 60.0);
        let at_60 = r.revise(&initial(), &obs(3600.0, 0.20));
        assert!(
            at_60.runtime_minutes > at_30.runtime_minutes,
            "staleness decay: {} then {}",
            at_30.runtime_minutes,
            at_60.runtime_minutes
        );
        assert!(at_60.runtime_minutes < 300.0, "blend, not replacement");
    }

    #[test]
    fn elapsed_floor_is_never_violated() {
        // A job claimed to be 60 minutes that is still running at 100
        // minutes must be revised to at least 100 minutes, even when the
        // IO signal (absurdly) says it is nearly done.
        let r = Reviser::new(ReviseConfig::default());
        let revised = r.revise(&initial(), &obs(6000.0, 0.99));
        assert!(
            revised.runtime_minutes >= 100.0,
            "{}",
            revised.runtime_minutes
        );
    }

    #[test]
    fn io_floors_at_observed_bytes() {
        let r = Reviser::new(ReviseConfig::default());
        // The job already read 2× its predicted total.
        let o = ProgressObs {
            job_id: 1,
            elapsed_seconds: 600.0,
            read_bytes_so_far: 12.0e9,
            write_bytes_so_far: 0.0,
        };
        let revised = r.revise(&initial(), &o);
        assert!(revised.read_bytes >= 12.0e9, "{}", revised.read_bytes);
    }

    #[test]
    fn tiny_io_fraction_falls_back_to_initial_estimate() {
        let cfg = ReviseConfig {
            min_io_fraction: 0.05,
            ..ReviseConfig::default()
        };
        let r = Reviser::new(cfg);
        // 1% of IO done after one minute: too little signal, the revision
        // is just the initial prediction (the floor is far away).
        let revised = r.revise(&initial(), &obs(60.0, 0.01));
        assert!(
            (revised.runtime_minutes - 60.0).abs() < 1e-9,
            "{}",
            revised.runtime_minutes
        );
    }
}
