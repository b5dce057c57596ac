//! The revision engine: progress taps, re-prediction, intervals, kills.
//!
//! [`ReviseEngine`] owns the full in-flight loop around a
//! [`SimEngine`]:
//!
//! 1. jobs are [`track`](ReviseEngine::track)ed at submission with the
//!    prediction the gateway served and their requested walltime;
//! 2. each [`tick`](ReviseEngine::tick) makes one pass over the
//!    simulator's running set with one lookup per job: a tracked job at
//!    least a cadence past its last observation (its start, if none) is
//!    observed from its own [`JobTruth`], revised with the [`Reviser`],
//!    and its revised runtime wrapped in a split-conformal interval
//!    calibrated on the drift monitor's outcome window; then, in running
//!    order, each due job's `[lo, hi]` seconds are installed into the
//!    simulator (reserve against `hi`, backfill against `lo`);
//! 3. a job whose interval `lo` exceeds its requested walltime is
//!    *hopeless* — it will be killed at the walltime limit anyway, so the
//!    engine kills it now, reclaiming the nodes it would have burned, and
//!    records the partial outcome in the drift window so calibration
//!    stays honest;
//! 4. tracked jobs the simulator reports as departed since the last tick
//!    are swept, their truth checked against the last served interval
//!    (the empirical-coverage gauges), and their outcome fed back to the
//!    attached drift monitor.
//!
//! A tick costs what changed since the last one: the calibrator follows
//! the drift window by sorted insert and evict (nothing when no outcome
//! arrived) and gives its quantiles once, each running job costs one
//! lookup of its record and is installed at the slot the pass saw it in,
//! the tick's interval widths are recorded in one batch, and the sweep
//! visits only the simulator's departures.
//!
//! Everything exports under the `revise_*` metric prefix and the
//! [`ops_probe`](ReviseEngine::ops_probe) JSON served at `/revise`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use prionn_core::ResourcePrediction;
use prionn_observe::{DriftHead, DriftMonitor};
use prionn_sched::{KilledJob, SimEngine};
use prionn_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::conformal::{ConformalCalibrator, PredictionInterval};
use crate::progress::JobTruth;
use crate::reviser::{ProgressObs, ReviseConfig, Reviser};

/// A job handed to the engine at submission time.
#[derive(Clone, Copy, Debug)]
pub struct TrackedJob {
    /// Simulator job id.
    pub id: u64,
    /// The prediction served at submission.
    pub prediction: ResourcePrediction,
    /// User-requested walltime, seconds (the kill threshold).
    pub requested_seconds: u64,
    /// Ground truth for the progress tap.
    pub truth: JobTruth,
}

/// One revision the engine produced during a tick.
#[derive(Clone, Copy, Debug)]
pub struct Revision {
    /// The revised job.
    pub job_id: u64,
    /// Elapsed wall time at the observation, seconds.
    pub elapsed_seconds: f64,
    /// The blended re-prediction.
    pub revised: ResourcePrediction,
    /// Calibrated runtime interval, minutes (degenerate while the
    /// calibrator is below `min_calibration`).
    pub runtime_interval: PredictionInterval,
    /// True when the kill policy terminated the job on this revision.
    pub killed: bool,
}

/// What one [`ReviseEngine::tick`] did.
#[derive(Clone, Debug, Default)]
pub struct TickReport {
    /// Revisions produced, in observation order.
    pub revisions: Vec<Revision>,
    /// Jobs the kill policy terminated.
    pub kills: Vec<KilledJob>,
    /// Tracked jobs that completed naturally and were swept.
    pub completions: usize,
}

/// Point-in-time engine readout (also the `/revise` JSON document).
#[derive(Clone, Debug)]
pub struct ReviseSnapshot {
    /// Jobs currently tracked in flight.
    pub inflight: usize,
    /// Revisions produced since spawn.
    pub revisions_total: u64,
    /// Kill-policy terminations.
    pub kills_total: u64,
    /// Kills that requeued the job.
    pub requeues_total: u64,
    /// Node-hours reclaimed by killing hopeless jobs before their
    /// walltime limit would have.
    pub cpu_hours_saved: f64,
    /// Configured interval coverage level.
    pub nominal_coverage: f64,
    /// Observed coverage over completed jobs (`None` until a tracked job
    /// with a served interval has completed).
    pub empirical_coverage: Option<f64>,
    /// Completed jobs whose truth was checked against an interval.
    pub outcomes_observed: u64,
    /// Scores currently in the conformal calibrator.
    pub calibration_samples: usize,
}

impl ReviseSnapshot {
    /// The `/revise` ops document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"inflight\":{},\"revisions_total\":{},\"kills_total\":{},\
             \"requeues_total\":{},\"cpu_hours_saved\":{:.6},\
             \"nominal_coverage\":{:.4},\"empirical_coverage\":{},\
             \"outcomes_observed\":{},\"calibration_samples\":{}}}",
            self.inflight,
            self.revisions_total,
            self.kills_total,
            self.requeues_total,
            self.cpu_hours_saved,
            self.nominal_coverage,
            match self.empirical_coverage {
                Some(c) => format!("{c:.4}"),
                None => "null".to_string(),
            },
            self.outcomes_observed,
            self.calibration_samples,
        )
    }

    /// Compact single-line rendering for logs and demos.
    pub fn render(&self) -> String {
        format!(
            "inflight={} revisions={} kills={} requeues={} saved={:.2}h coverage={}/{:.0}% cal={}",
            self.inflight,
            self.revisions_total,
            self.kills_total,
            self.requeues_total,
            self.cpu_hours_saved,
            match self.empirical_coverage {
                Some(c) => format!("{:.0}%", c * 100.0),
                None => "-".to_string(),
            },
            self.nominal_coverage * 100.0,
            self.calibration_samples,
        )
    }
}

#[derive(Clone)]
struct Instruments {
    revisions: Counter,
    inflight: Gauge,
    kills: Counter,
    requeues: Counter,
    cpu_hours_saved: Gauge,
    interval_width: Histogram,
    outcomes_covered: Counter,
    outcomes_missed: Counter,
    calibration_samples: Gauge,
}

impl Instruments {
    fn build(t: &Telemetry) -> Self {
        Instruments {
            revisions: t.counter(
                "revise_revisions_total",
                "In-flight re-predictions produced by the revision engine",
            ),
            inflight: t.gauge("revise_inflight_jobs", "Jobs currently tracked in flight"),
            kills: t.counter(
                "revise_kills_total",
                "Jobs terminated because their revised interval lo exceeded the requested walltime",
            ),
            requeues: t.counter(
                "revise_requeues_total",
                "Killed jobs placed back on the queue by the revision engine",
            ),
            cpu_hours_saved: t.gauge(
                "revise_cpu_hours_saved",
                "Node-hours reclaimed by early termination vs. running to the walltime limit",
            ),
            // Minutes, not seconds: log buckets from 1 min to 8192 min,
            // past 8× the paper's 960-minute runtime cap.
            interval_width: t.histogram_custom(
                "revise_interval_width_minutes",
                "Width (hi - lo) of served runtime prediction intervals, minutes",
                &[],
                || Histogram::with_log_buckets(1.0, 8192.0, 1),
            ),
            outcomes_covered: t.counter_with(
                "revise_outcomes_total",
                "Completed tracked jobs checked against their last served interval",
                &[("covered", "true")],
            ),
            outcomes_missed: t.counter_with(
                "revise_outcomes_total",
                "Completed tracked jobs checked against their last served interval",
                &[("covered", "false")],
            ),
            calibration_samples: t.gauge(
                "revise_calibration_samples",
                "Nonconformity scores currently in the conformal calibrator",
            ),
        }
    }
}

/// Hashes a simulator job id with one multiply (Fibonacci hashing): ids
/// come from the simulator, not the network, so SipHash's flooding
/// resistance buys nothing on the tick's per-job lookup.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything the engine keeps about one tracked job.
struct Tracked {
    job: TrackedJob,
    /// The last interval served, checked against the truth at completion.
    latest: Option<PredictionInterval>,
    /// Simulated time of the last observation.
    last_obs: Option<u64>,
}

/// A job observed in a tick's pass over the running set, waiting to have
/// its interval installed and the kill policy applied.
struct Due {
    job: TrackedJob,
    /// Where the pass saw the job in the simulator's running set.
    slot: usize,
    obs: ProgressObs,
    revised: ResourcePrediction,
    interval: PredictionInterval,
}

struct EngineInner {
    tracked: HashMap<u64, Tracked, BuildHasherDefault<IdHasher>>,
    /// The due jobs of the current tick (kept to reuse its allocation).
    due: Vec<Due>,
    /// The current tick's interval widths, recorded in one batch.
    widths: Vec<f64>,
    drift: Option<DriftMonitor>,
    calibrator: ConformalCalibrator,
    covered: u64,
    observed: u64,
    cpu_hours_saved: f64,
}

/// The in-flight revision engine. Cloning shares state; all methods take
/// `&self` and are thread-safe.
#[derive(Clone)]
pub struct ReviseEngine {
    inner: Arc<Mutex<EngineInner>>,
    instruments: Instruments,
    reviser: Reviser,
}

impl std::fmt::Debug for ReviseEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReviseEngine").finish()
    }
}

fn lock(m: &Mutex<EngineInner>) -> MutexGuard<'_, EngineInner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ReviseEngine {
    /// Build an engine registering its `revise_*` instruments in
    /// `telemetry`.
    pub fn new(telemetry: &Telemetry, cfg: ReviseConfig) -> Self {
        ReviseEngine {
            inner: Arc::new(Mutex::new(EngineInner {
                tracked: HashMap::default(),
                due: Vec::new(),
                widths: Vec::new(),
                drift: None,
                calibrator: ConformalCalibrator::default(),
                covered: 0,
                observed: 0,
                cpu_hours_saved: 0.0,
            })),
            instruments: Instruments::build(telemetry),
            reviser: Reviser::new(cfg),
        }
    }

    /// The engine's tuning.
    pub fn config(&self) -> &ReviseConfig {
        self.reviser.config()
    }

    /// Attach a drift monitor (a serving gateway's, to calibrate on what it
    /// served): it becomes both the calibration source and the outcome
    /// sink. The calibrator starts afresh on the new monitor's window.
    pub fn attach_drift(&self, drift: &DriftMonitor) {
        let mut inner = lock(&self.inner);
        inner.drift = Some(drift.clone());
        inner.calibrator = ConformalCalibrator::default();
    }

    /// Start tracking a job. Call at submission, alongside
    /// `SimEngine::submit`: completions are swept from the simulator's
    /// departures, so a job tracked after it has left the machine is never
    /// swept. Tracking an id again replaces its record.
    pub fn track(&self, job: TrackedJob) {
        let mut inner = lock(&self.inner);
        inner.tracked.insert(
            job.id,
            Tracked {
                job,
                latest: None,
                last_obs: None,
            },
        );
        self.instruments.inflight.set(inner.tracked.len() as f64);
    }

    /// One revision pass over `sim`: observe and revise due jobs, install
    /// intervals, apply the kill policy, sweep completions.
    pub fn tick(&self, sim: &mut SimEngine) -> TickReport {
        let cfg = self.reviser.config();
        let cadence = cfg.cadence_seconds.max(1);
        let mut report = TickReport::default();
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;

        // Catch the calibrator up with the drift monitor's rolling window
        // (killed/requeued outcomes included, so the intervals are not
        // calibrated only on the jobs the kill policy spared).
        if let Some(d) = &inner.drift {
            inner.calibrator.follow(d, DriftHead::Runtime);
        }
        self.instruments
            .calibration_samples
            .set(inner.calibrator.len() as f64);
        let calibrated = inner.calibrator.len() >= cfg.min_calibration;
        // The conformal quantiles depend on the scores and the coverage
        // only: take them once and wrap every due job with them.
        let quantiles = if calibrated {
            inner.calibrator.quantiles(cfg.coverage)
        } else {
            None
        };

        // One pass over the running set, one lookup per job: observe every
        // tracked job that has run and is a cadence past its last
        // observation, revise it, and wrap it in an interval. Nothing here
        // touches the simulator, so every job is observed before the first
        // kill reshapes the running set.
        let now = sim.now();
        inner.due.clear();
        inner.widths.clear();
        for (slot, r) in sim.running_info().enumerate() {
            let Some(t) = inner.tracked.get_mut(&r.id) else {
                continue;
            };
            let elapsed = now.saturating_sub(r.start);
            if elapsed == 0 || now.saturating_sub(t.last_obs.unwrap_or(r.start)) < cadence {
                continue;
            }
            t.last_obs = Some(now);
            let obs = t.job.truth.progress(r.id, elapsed);
            let revised = self.reviser.revise(&t.job.prediction, &obs);
            let mut interval =
                PredictionInterval::from_quantiles(revised.runtime_minutes, quantiles);
            // The elapsed floor binds the interval too: the job has
            // already run this long.
            interval.lo = interval.lo.max(obs.elapsed_seconds / 60.0);
            interval.hi = interval.hi.max(interval.lo);
            t.latest = Some(interval);
            inner.widths.push(interval.width());
            inner.due.push(Due {
                job: t.job,
                slot,
                obs,
                revised,
                interval,
            });
        }
        self.instruments.revisions.add(inner.due.len() as u64);
        self.instruments.interval_width.observe_many(&inner.widths);

        // Install and kill in running order: a kill runs a scheduling pass
        // that reads the estimates installed before it. A kill's
        // `swap_remove` can move a later job out of the slot the pass saw;
        // the install then finds it by search.
        report.revisions.reserve(inner.due.len());
        for &Due {
            job,
            slot,
            obs,
            revised,
            interval,
        } in &inner.due
        {
            let lo_seconds = ceil_u64(interval.lo * 60.0);
            let hi_seconds = ceil_u64(interval.hi * 60.0).max(lo_seconds);
            sim.set_estimate_interval(job.id, lo_seconds, hi_seconds, Some(slot));

            // Kill policy: a calibrated lower bound beyond the requested
            // walltime means the job cannot finish inside its limit.
            let hopeless = cfg.kill_enabled && calibrated && lo_seconds > job.requested_seconds;
            report.revisions.push(Revision {
                job_id: job.id,
                elapsed_seconds: obs.elapsed_seconds,
                revised,
                runtime_interval: interval,
                killed: hopeless,
            });
            if !hopeless {
                continue;
            }
            let killed = if cfg.requeue_killed {
                sim.kill_and_requeue(job.id, hi_seconds)
            } else {
                sim.kill_running(job.id)
            };
            let Some(killed) = killed else {
                // Not actually running (already finished this instant);
                // the completion sweep below will handle it.
                report.revisions.last_mut().expect("just pushed").killed = false;
                continue;
            };
            if cfg.requeue_killed {
                self.instruments.requeues.inc();
            }
            self.instruments.kills.inc();
            // Without early termination the job runs until its walltime
            // limit (or its natural end, whichever comes first): the
            // reclaimed occupancy is what the kill saved.
            let baseline_end = killed
                .projected_end
                .min(killed.started + job.requested_seconds);
            let saved_node_seconds =
                killed.nodes as f64 * baseline_end.saturating_sub(killed.killed_at) as f64;
            inner.cpu_hours_saved += saved_node_seconds / 3600.0;
            self.instruments.cpu_hours_saved.set(inner.cpu_hours_saved);
            // The partial outcome still scores the submission-time
            // prediction: truth-as-observed at termination.
            record_outcome(
                inner.drift.as_ref(),
                &job.prediction,
                obs.elapsed_seconds / 60.0,
                obs.read_bytes_so_far,
                obs.write_bytes_so_far,
            );
            inner.tracked.remove(&job.id);
            report.kills.push(killed);
        }

        // Sweep completions: tracked jobs that left the machine since the
        // last tick (the kills above are untracked already). Sorted by id
        // so jobs finishing in one tick enter the drift window in the same
        // order on every replay.
        let mut departed = sim.take_departures();
        departed.sort_unstable();
        for id in departed {
            let Some(t) = inner.tracked.remove(&id) else {
                continue;
            };
            let truth_minutes = t.job.truth.runtime_seconds as f64 / 60.0;
            if let Some(interval) = t.latest {
                inner.observed += 1;
                if interval.contains(truth_minutes) {
                    inner.covered += 1;
                    self.instruments.outcomes_covered.inc();
                } else {
                    self.instruments.outcomes_missed.inc();
                }
            }
            record_outcome(
                inner.drift.as_ref(),
                &t.job.prediction,
                truth_minutes,
                t.job.truth.read_bytes,
                t.job.truth.write_bytes,
            );
            report.completions += 1;
        }
        self.instruments.inflight.set(inner.tracked.len() as f64);
        report
    }

    /// Point-in-time readout.
    pub fn snapshot(&self) -> ReviseSnapshot {
        let inner = lock(&self.inner);
        ReviseSnapshot {
            inflight: inner.tracked.len(),
            revisions_total: self.instruments.revisions.value(),
            kills_total: self.instruments.kills.value(),
            requeues_total: self.instruments.requeues.value(),
            cpu_hours_saved: inner.cpu_hours_saved,
            nominal_coverage: self.reviser.config().coverage,
            empirical_coverage: (inner.observed > 0)
                .then(|| inner.covered as f64 / inner.observed as f64),
            outcomes_observed: inner.observed,
            calibration_samples: inner.calibrator.len(),
        }
    }

    /// A closure serving [`snapshot`](Self::snapshot) as JSON — register it
    /// under `/revise` in `OpsOptions::json_routes`.
    pub fn ops_probe(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let engine = self.clone();
        Arc::new(move || engine.snapshot().to_json())
    }
}

/// `x.ceil() as u64` in integer arithmetic, with no libm call: NaN and
/// anything at or below zero give 0, and anything at or past 2⁶⁴
/// saturates. The cast truncates toward zero (saturating); a positive value
/// left above its truncation then needs one more.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// Feed an outcome to the attached drift monitor, if any.
fn record_outcome(
    drift: Option<&DriftMonitor>,
    prediction: &ResourcePrediction,
    runtime_minutes: f64,
    read_bytes: f64,
    write_bytes: f64,
) {
    let Some(d) = drift else { return };
    d.record(
        DriftHead::Runtime,
        runtime_minutes,
        prediction.runtime_minutes,
    );
    d.record(DriftHead::Read, read_bytes, prediction.read_bytes);
    d.record(DriftHead::Write, write_bytes, prediction.write_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prionn_sched::SimJob;

    #[test]
    fn integer_ceil_is_the_saturating_cast_of_ceil() {
        let two_64 = 18_446_744_073_709_551_616.0f64;
        let just_above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut cases = vec![
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -0.5,
            -1e-300,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0,
            2.0,
            59.999_999_999,
            60.0,
            123_456.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            4_503_599_627_370_495.5,
            two_64 / 2.0,
            f64::from_bits(two_64.to_bits() - 1),
            two_64,
            1e30,
            f64::MAX,
            f64::INFINITY,
        ];
        for x in [0.0, 1.0, 2.0, 60.0, 123_456.0, 4_503_599_627_370_495.0] {
            cases.push(just_above(x));
        }
        for i in 0..10_000u32 {
            cases.push(f64::from(i) * 0.37 - 100.0);
            cases.push(f64::from(i) / 60.0 * 60.0);
        }
        for x in cases {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e} ({:#x})", x.to_bits());
        }
    }

    fn tracked(id: u64, predicted_min: f64, requested_s: u64, truth_s: u64) -> TrackedJob {
        TrackedJob {
            id,
            prediction: ResourcePrediction {
                runtime_minutes: predicted_min,
                read_bytes: 1.0e9,
                write_bytes: 1.0e9,
            },
            requested_seconds: requested_s,
            truth: JobTruth {
                runtime_seconds: truth_s,
                read_bytes: 1.0e9,
                write_bytes: 1.0e9,
            },
        }
    }

    fn seeded_drift(t: &Telemetry, n: usize) -> DriftMonitor {
        let d = DriftMonitor::with_defaults(t);
        for i in 0..n {
            // Perfect predictions: all conformal scores are 1.
            let v = 10.0 + i as f64;
            d.record(DriftHead::Runtime, v, v);
        }
        d
    }

    #[test]
    fn revisions_move_toward_observed_pace() {
        let t = Telemetry::new();
        let engine = ReviseEngine::new(
            &t,
            ReviseConfig {
                cadence_seconds: 60,
                ..ReviseConfig::default()
            },
        );
        // Predicted 60 min, actually a 300-minute job.
        engine.track(tracked(1, 60.0, 30_000, 18_000));
        let mut sim = SimEngine::new(8);
        sim.submit(SimJob {
            id: 1,
            submit: 0,
            nodes: 4,
            runtime: 18_000,
            estimate: 3_600,
        });
        sim.advance_to(3_600);
        let report = engine.tick(&mut sim);
        assert_eq!(report.revisions.len(), 1);
        let rev = &report.revisions[0];
        assert!(
            rev.revised.runtime_minutes > 60.0,
            "revised={}",
            rev.revised.runtime_minutes
        );
        assert!(
            rev.revised.runtime_minutes >= 60.0,
            "elapsed floor: already ran 60 minutes"
        );
        assert!(!rev.killed);
        assert_eq!(engine.snapshot().inflight, 1);
        assert!(t.prometheus().contains("revise_revisions_total 1"));
    }

    #[test]
    fn kill_policy_reclaims_hopeless_jobs() {
        let t = Telemetry::new();
        let engine = ReviseEngine::new(&t, ReviseConfig::default());
        let drift = seeded_drift(&t, 64);
        engine.attach_drift(&drift);
        // Requested 2h walltime; the job actually runs 400 minutes and the
        // model (correctly, by pace) revises far past the limit.
        engine.track(tracked(7, 240.0, 7_200, 24_000));
        let mut sim = SimEngine::new(8);
        sim.submit(SimJob {
            id: 7,
            submit: 0,
            nodes: 8,
            runtime: 24_000,
            estimate: 14_400,
        });
        sim.advance_to(1_800);
        let report = engine.tick(&mut sim);
        assert_eq!(report.kills.len(), 1, "hopeless job killed");
        assert!(report.revisions[0].killed);
        let killed = report.kills[0];
        assert_eq!(killed.killed_at, 1_800);
        // Baseline would have burned nodes until the 7200s walltime limit.
        let snap = engine.snapshot();
        let expected_hours = 8.0 * (7_200.0 - 1_800.0) / 3600.0;
        assert!(
            (snap.cpu_hours_saved - expected_hours).abs() < 1e-9,
            "saved={} expected={expected_hours}",
            snap.cpu_hours_saved
        );
        assert_eq!(snap.inflight, 0, "killed job untracked");
        // The killed outcome entered the drift window (no survivorship
        // bias): 64 seeds + 1 killed sample.
        assert_eq!(drift.outcome_window(DriftHead::Runtime).len(), 65);
        let text = t.prometheus();
        assert!(text.contains("revise_kills_total 1"), "{text}");
        assert!(
            text.contains("drift_samples_total{head=\"runtime\"} 65"),
            "{text}"
        );
    }

    #[test]
    fn completions_are_swept_and_coverage_tracked() {
        let t = Telemetry::new();
        let engine = ReviseEngine::new(
            &t,
            ReviseConfig {
                cadence_seconds: 60,
                kill_enabled: false,
                ..ReviseConfig::default()
            },
        );
        let drift = seeded_drift(&t, 64);
        engine.attach_drift(&drift);
        // On-pace job: prediction matches truth, interval must cover.
        engine.track(tracked(3, 60.0, 7_200, 3_600));
        let mut sim = SimEngine::new(8);
        sim.submit(SimJob {
            id: 3,
            submit: 0,
            nodes: 2,
            runtime: 3_600,
            estimate: 3_600,
        });
        sim.advance_to(1_800);
        let mid = engine.tick(&mut sim);
        assert_eq!(mid.revisions.len(), 1, "revised mid-flight");
        sim.advance_to(4_000);
        let done = engine.tick(&mut sim);
        assert_eq!(done.completions, 1);
        let snap = engine.snapshot();
        assert_eq!(snap.outcomes_observed, 1);
        assert_eq!(snap.empirical_coverage, Some(1.0), "on-pace job covered");
        assert_eq!(snap.inflight, 0);
        let text = t.prometheus();
        assert!(
            text.contains("revise_outcomes_total{covered=\"true\"} 1"),
            "{text}"
        );
        // The completion fed the drift window too.
        assert!(
            text.contains("drift_samples_total{head=\"runtime\"} 65"),
            "{text}"
        );
    }

    #[test]
    fn wide_intervals_land_in_a_finite_width_bucket() {
        let t = Telemetry::new();
        let engine = ReviseEngine::new(&t, ReviseConfig::default());
        // Scores 1 and 18 in equal parts: at 90% the interval is
        // [p, 18·p], so a 120-minute point is 2,040 minutes wide.
        let drift = DriftMonitor::with_defaults(&t);
        for _ in 0..32 {
            drift.record(DriftHead::Runtime, 100.0, 100.0);
            drift.record(DriftHead::Runtime, 1800.0, 100.0);
        }
        engine.attach_drift(&drift);
        engine.track(tracked(5, 120.0, 200_000, 7_200));
        let mut sim = SimEngine::new(8);
        sim.submit(SimJob {
            id: 5,
            submit: 0,
            nodes: 2,
            runtime: 7_200,
            estimate: 7_200,
        });
        sim.advance_to(600);
        let report = engine.tick(&mut sim);
        let width = report.revisions[0].runtime_interval.width();
        assert!((2_000.0..2_100.0).contains(&width), "width={width}");
        let text = t.prometheus();
        for bucket in [
            "revise_interval_width_minutes_bucket{le=\"1024\"} 0",
            "revise_interval_width_minutes_bucket{le=\"2048\"} 1",
        ] {
            assert!(text.contains(bucket), "missing {bucket}:\n{text}");
        }
    }

    #[test]
    fn tick_intervals_equal_the_calibrators_over_windows_and_points() {
        let cfg = ReviseConfig {
            cadence_seconds: 60,
            kill_enabled: false,
            ..ReviseConfig::default()
        };
        let m = cfg.min_calibration;
        for n in [0, 1, 2, m - 1, m, m + 1, 57, 200] {
            let t = Telemetry::new();
            let engine = ReviseEngine::new(&t, cfg.clone());
            let drift = DriftMonitor::with_defaults(&t);
            for i in 0..n {
                let truth = 10.0 + (i * 37 % 23) as f64;
                drift.record(DriftHead::Runtime, truth, 12.0 + (i % 5) as f64);
            }
            engine.attach_drift(&drift);
            let reference =
                ConformalCalibrator::from_window(&drift.outcome_window(DriftHead::Runtime));
            // Points from half a minute to ~8 hours, one job each.
            let mut sim = SimEngine::new(64);
            for id in 0..24u64 {
                let predicted = 0.5 * 1.35f64.powi(id as i32);
                engine.track(tracked(id, predicted, 1_000_000, 600));
                sim.submit(SimJob {
                    id,
                    submit: 0,
                    nodes: 1,
                    runtime: 600,
                    estimate: 600,
                });
            }
            sim.advance_to(90);
            let report = engine.tick(&mut sim);
            assert_eq!(report.revisions.len(), 24);
            for rev in &report.revisions {
                let point = rev.revised.runtime_minutes;
                let mut expected = if reference.len() >= m {
                    reference.interval(point, cfg.coverage)
                } else {
                    PredictionInterval::degenerate(point)
                };
                expected.lo = expected.lo.max(rev.elapsed_seconds / 60.0);
                expected.hi = expected.hi.max(expected.lo);
                let bits = |iv: PredictionInterval| [iv.lo, iv.point, iv.hi].map(f64::to_bits);
                assert_eq!(
                    bits(rev.runtime_interval),
                    bits(expected),
                    "window {n}, job {}",
                    rev.job_id
                );
            }
        }
    }

    /// A job submitted at 0 on an idle 8-node machine, tracked with a
    /// 1000 s truth of 1 GB read and 0.5 GB written.
    fn one_running_job(cadence_seconds: u64) -> (ReviseEngine, SimEngine, TrackedJob) {
        let engine = ReviseEngine::new(
            &Telemetry::new(),
            ReviseConfig {
                cadence_seconds,
                ..ReviseConfig::default()
            },
        );
        let job = TrackedJob {
            truth: JobTruth {
                runtime_seconds: 1000,
                read_bytes: 1.0e9,
                write_bytes: 5.0e8,
            },
            ..tracked(1, 20.0, 1_200, 1_000)
        };
        engine.track(job);
        let mut sim = SimEngine::new(8);
        sim.submit(SimJob {
            id: 1,
            submit: 0,
            nodes: 4,
            runtime: 1000,
            estimate: 1200,
        });
        (engine, sim, job)
    }

    #[test]
    fn a_tick_observes_elapsed_time_and_linear_io() {
        let (engine, mut sim, job) = one_running_job(60);
        sim.advance_to(250);
        let report = engine.tick(&mut sim);
        assert_eq!(report.revisions.len(), 1);
        let rev = report.revisions[0];
        assert_eq!(rev.elapsed_seconds, 250.0);
        // A quarter of the runtime: a quarter of each IO total so far.
        let obs = job.truth.progress(1, 250);
        assert!((obs.read_bytes_so_far - 0.25e9).abs() < 1.0);
        assert!((obs.write_bytes_so_far - 0.125e9).abs() < 1.0);
        assert_eq!(rev.revised, engine.reviser.revise(&job.prediction, &obs));
        // Past the runtime the counters stop at the totals.
        let done = job.truth.progress(1, 5_000);
        assert_eq!(
            (done.read_bytes_so_far, done.write_bytes_so_far),
            (1.0e9, 5.0e8)
        );
    }

    #[test]
    fn cadence_rate_limits_observations() {
        let (engine, mut sim, _) = one_running_job(100);
        sim.advance_to(150);
        assert_eq!(engine.tick(&mut sim).revisions.len(), 1);
        sim.advance_to(200);
        assert_eq!(
            engine.tick(&mut sim).revisions.len(),
            0,
            "50s later: not due yet"
        );
        sim.advance_to(260);
        assert_eq!(
            engine.tick(&mut sim).revisions.len(),
            1,
            "110s later: due again"
        );
        assert_eq!(engine.snapshot().revisions_total, 2);
    }

    #[test]
    fn untracked_and_queued_jobs_are_not_observed() {
        let engine = ReviseEngine::new(
            &Telemetry::new(),
            ReviseConfig {
                cadence_seconds: 10,
                kill_enabled: false,
                ..ReviseConfig::default()
            },
        );
        // Job 1 runs but is not tracked; job 2 is tracked but queued
        // behind job 1.
        engine.track(tracked(2, 10.0, 600, 500));
        let mut sim = SimEngine::new(4);
        for (id, submit) in [(1, 0), (2, 1)] {
            sim.submit(SimJob {
                id,
                submit,
                nodes: 4,
                runtime: 500,
                estimate: 500,
            });
        }
        sim.advance_to(100);
        assert!(engine.tick(&mut sim).revisions.is_empty());
        assert_eq!(engine.snapshot().inflight, 1);
        // Once job 2 runs it is observed, and once it leaves it is dropped.
        sim.advance_to(600);
        let report = engine.tick(&mut sim);
        assert_eq!(report.revisions.len(), 1);
        assert_eq!(report.revisions[0].job_id, 2);
        assert_eq!(report.revisions[0].elapsed_seconds, 100.0);
        sim.advance_to(1_100);
        assert_eq!(engine.tick(&mut sim).completions, 1);
        assert_eq!(engine.snapshot().inflight, 0);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let t = Telemetry::new();
        let engine = ReviseEngine::new(&t, ReviseConfig::default());
        let json = (engine.ops_probe())();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.get("inflight").unwrap().as_u64(), Some(0));
        assert!(parsed.get("empirical_coverage").unwrap().is_null());
        assert!(parsed.get("nominal_coverage").unwrap().as_f64().unwrap() > 0.0);
        assert!(engine.snapshot().render().contains("inflight=0"));
    }
}
