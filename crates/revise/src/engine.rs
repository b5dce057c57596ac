//! The revision engine: progress taps, re-prediction, intervals, kills.
//!
//! [`ReviseEngine`] owns the full in-flight loop around a
//! [`SimEngine`]:
//!
//! 1. jobs are [`track`](ReviseEngine::track)ed at submission with the
//!    prediction the gateway served and their requested walltime;
//! 2. each [`tick`](ReviseEngine::tick) polls the
//!    [`ProgressStream`], revises every due job
//!    with the [`Reviser`], wraps the revised runtime in
//!    a split-conformal interval calibrated on the drift monitor's
//!    outcome window, and installs the `[lo, hi]` seconds into the
//!    simulator (reserve against `hi`, backfill against `lo`);
//! 3. a job whose interval `lo` exceeds its requested walltime is
//!    *hopeless* — it will be killed at the walltime limit anyway, so the
//!    engine kills it now, reclaiming the nodes it would have burned, and
//!    records the partial outcome (tagged killed/requeued) so calibration
//!    stays honest;
//! 4. completed jobs are swept, their truth checked against the last
//!    served interval (the empirical-coverage gauges), and their outcome
//!    fed back to the gateway's drift monitor.
//!
//! Everything exports under the `revise_*` metric prefix and the
//! [`ops_probe`](ReviseEngine::ops_probe) JSON served at `/revise`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use prionn_core::ResourcePrediction;
use prionn_observe::{DriftHead, DriftMonitor, OutcomeStatus};
use prionn_sched::{KilledJob, SimEngine};
use prionn_serve::Gateway;
use prionn_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::conformal::{ConformalCalibrator, PredictionInterval};
use crate::progress::{JobTruth, ProgressStream};
use crate::reviser::{ReviseConfig, Reviser};

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
    empirical_coverage: Gauge,
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
            interval_width: t.histogram(
                "revise_interval_width_minutes",
                "Width (hi - lo) of served runtime prediction intervals, minutes",
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
            empirical_coverage: t.gauge(
                "revise_empirical_coverage",
                "Fraction of completed jobs whose truth fell inside the served interval",
            ),
            calibration_samples: t.gauge(
                "revise_calibration_samples",
                "Nonconformity scores currently in the conformal calibrator",
            ),
        }
    }
}

struct Tracked {
    job: TrackedJob,
    latest: Option<PredictionInterval>,
}

struct EngineInner {
    stream: ProgressStream,
    tracked: HashMap<u64, Tracked>,
    gateway: Option<Arc<Gateway>>,
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
        let stream = ProgressStream::new(cfg.cadence_seconds);
        ReviseEngine {
            inner: Arc::new(Mutex::new(EngineInner {
                stream,
                tracked: HashMap::new(),
                gateway: None,
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

    /// Attach the serving gateway: outcomes (completed and killed) are fed
    /// back through [`Gateway::record_outcome_with_status`], and the
    /// gateway's drift monitor becomes the calibration source.
    pub fn attach_gateway(&self, gateway: Arc<Gateway>) {
        let mut inner = lock(&self.inner);
        if let Some(d) = gateway.drift() {
            inner.drift = Some(d.clone());
        }
        inner.gateway = Some(gateway);
    }

    /// Attach a drift monitor directly (no gateway): it becomes both the
    /// calibration source and the outcome sink.
    pub fn attach_drift(&self, drift: &DriftMonitor) {
        lock(&self.inner).drift = Some(drift.clone());
    }

    /// Start tracking a job. Call at submission, alongside
    /// `SimEngine::submit`.
    pub fn track(&self, job: TrackedJob) {
        let mut inner = lock(&self.inner);
        inner.stream.register(job.id, job.truth);
        inner.tracked.insert(job.id, Tracked { job, latest: None });
        self.instruments.inflight.set(inner.tracked.len() as f64);
    }

    /// One revision pass over `sim`: poll progress, revise due jobs,
    /// install intervals, apply the kill policy, sweep completions.
    pub fn tick(&self, sim: &mut SimEngine) -> TickReport {
        let cfg = self.reviser.config().clone();
        let mut report = TickReport::default();
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;

        // Refresh the calibrator from the drift monitor's rolling window
        // (killed/requeued outcomes included — that is the point of the
        // status-tagged record path).
        if let Some(d) = &inner.drift {
            inner.calibrator =
                ConformalCalibrator::from_window(&d.outcome_window(DriftHead::Runtime));
        }
        self.instruments
            .calibration_samples
            .set(inner.calibrator.len() as f64);
        let calibrated = inner.calibrator.len() >= cfg.min_calibration;

        for obs in inner.stream.poll(sim) {
            let Some(t) = inner.tracked.get_mut(&obs.job_id) else {
                continue;
            };
            let revised = self.reviser.revise(&t.job.prediction, &obs);
            let elapsed_min = obs.elapsed_seconds / 60.0;
            let mut interval = if calibrated {
                inner
                    .calibrator
                    .interval(revised.runtime_minutes, cfg.coverage)
            } else {
                PredictionInterval::degenerate(revised.runtime_minutes)
            };
            // The elapsed floor binds the interval too: the job has
            // already run this long.
            interval.lo = interval.lo.max(elapsed_min);
            interval.hi = interval.hi.max(interval.lo);
            t.latest = Some(interval);
            self.instruments.revisions.inc();
            self.instruments.interval_width.observe(interval.width());

            let lo_seconds = (interval.lo * 60.0).ceil() as u64;
            let hi_seconds = ((interval.hi * 60.0).ceil() as u64).max(lo_seconds);
            sim.set_estimate_interval(obs.job_id, lo_seconds, hi_seconds);

            // Kill policy: a calibrated lower bound beyond the requested
            // walltime means the job cannot finish inside its limit.
            let hopeless = cfg.kill_enabled && calibrated && lo_seconds > t.job.requested_seconds;
            report.revisions.push(Revision {
                job_id: obs.job_id,
                elapsed_seconds: obs.elapsed_seconds,
                revised,
                runtime_interval: interval,
                killed: hopeless,
            });
            if !hopeless {
                continue;
            }
            let job = t.job;
            let killed = if cfg.requeue_killed {
                sim.kill_and_requeue(obs.job_id, hi_seconds)
            } else {
                sim.kill_running(obs.job_id)
            };
            let Some(killed) = killed else {
                // Not actually running (already finished this instant);
                // the completion sweep below will handle it.
                report.revisions.last_mut().expect("just pushed").killed = false;
                continue;
            };
            let status = if cfg.requeue_killed {
                self.instruments.requeues.inc();
                OutcomeStatus::Requeued
            } else {
                OutcomeStatus::Killed
            };
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
                inner.gateway.as_deref(),
                inner.drift.as_ref(),
                &job.prediction,
                elapsed_min,
                obs.read_bytes_so_far,
                obs.write_bytes_so_far,
                status,
            );
            inner.tracked.remove(&obs.job_id);
            inner.stream.forget(obs.job_id);
            report.kills.push(killed);
        }

        // Sweep completions: tracked jobs that are neither running nor
        // queued but have a schedule entry ran to their natural end.
        let running: HashSet<u64> = sim.running_info().map(|r| r.id).collect();
        let queued: HashSet<u64> = sim.queued_jobs().map(|q| q.id).collect();
        let mut done: Vec<u64> = inner
            .tracked
            .keys()
            .filter(|id| !running.contains(id) && !queued.contains(id))
            .copied()
            .collect();
        // `tracked` is a HashMap: sort so jobs finishing in one tick enter
        // the drift window in the same order on every replay.
        done.sort_unstable();
        for id in done {
            if !sim.finished().iter().any(|e| e.id == id) {
                continue; // tracked but not yet submitted to this sim
            }
            let t = inner.tracked.remove(&id).expect("tracked");
            inner.stream.forget(id);
            let truth_minutes = t.job.truth.runtime_seconds as f64 / 60.0;
            if let Some(interval) = t.latest {
                inner.observed += 1;
                if interval.contains(truth_minutes) {
                    inner.covered += 1;
                    self.instruments.outcomes_covered.inc();
                } else {
                    self.instruments.outcomes_missed.inc();
                }
                self.instruments
                    .empirical_coverage
                    .set(inner.covered as f64 / inner.observed as f64);
            }
            record_outcome(
                inner.gateway.as_deref(),
                inner.drift.as_ref(),
                &t.job.prediction,
                truth_minutes,
                t.job.truth.read_bytes,
                t.job.truth.write_bytes,
                OutcomeStatus::Completed,
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

/// Route an outcome to the gateway when attached (it forwards to its
/// drift monitor), else straight to the drift monitor, else nowhere.
fn record_outcome(
    gateway: Option<&Gateway>,
    drift: Option<&DriftMonitor>,
    prediction: &ResourcePrediction,
    runtime_minutes: f64,
    read_bytes: f64,
    write_bytes: f64,
    status: OutcomeStatus,
) {
    if let Some(gw) = gateway {
        gw.record_outcome_with_status(prediction, runtime_minutes, read_bytes, write_bytes, status);
    } else if let Some(d) = drift {
        d.record_with_status(
            DriftHead::Runtime,
            runtime_minutes,
            prediction.runtime_minutes,
            status,
        );
        d.record_with_status(DriftHead::Read, read_bytes, prediction.read_bytes, status);
        d.record_with_status(
            DriftHead::Write,
            write_bytes,
            prediction.write_bytes,
            status,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prionn_sched::SimJob;

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
            text.contains("drift_outcomes_total{head=\"runtime\",status=\"killed\"} 1"),
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
            text.contains("drift_outcomes_total{head=\"runtime\",status=\"completed\"} 65"),
            "{text}"
        );
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
