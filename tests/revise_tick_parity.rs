//! `ReviseEngine::tick` against its oracle.
//!
//! The engine keeps its calibrator up to date by following the drift
//! window, observes running jobs from one record per job, and sweeps
//! completions from the simulator's departures. This suite replays a
//! seeded straggler trace and holds every tick to the definitions those
//! shortcuts replace:
//!
//! * **observations** — every tick revises exactly the tracked running
//!   jobs that have run and are a cadence past their last observation
//!   (their start, if none), in the simulator's running order, each from
//!   the IO-so-far that accrues linearly over its actual runtime;
//! * **intervals** — every revision's runtime interval is, bit for bit,
//!   the one a calibrator rebuilt from the drift window before the tick
//!   gives at the revised point, floored at the elapsed time;
//! * **completions** — every tick's count is the number of tracked jobs
//!   that are neither running nor queued and have a schedule entry.
//!
//! It runs once with killed jobs dropped and once with them requeued,
//! ticks more often than the observation cadence, and kills one tracked
//! job behind the engine's back with `SimEngine::kill_running`.

use std::collections::{BTreeSet, HashMap};

use prionn::core::ResourcePrediction;
use prionn::observe::{DriftConfig, DriftHead, DriftMonitor};
use prionn::revise::{
    ConformalCalibrator, JobTruth, PredictionInterval, ProgressObs, ReviseConfig, ReviseEngine,
    Reviser, TrackedJob,
};
use prionn::sched::{SimEngine, SimJob};
use prionn::telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CADENCE_SECONDS: u64 = 60;
/// Ticks come faster than the cadence, so a job observed on one tick is
/// not due on the next.
const TICK_SECONDS: u64 = 45;
/// The tick before which the test kills one tracked job itself.
const DIRECT_KILL_TICK: usize = 40;

#[derive(Clone, Copy)]
struct ReplayJob {
    id: u64,
    submit: u64,
    nodes: u32,
    predicted_seconds: u64,
    truth_seconds: u64,
    requested_seconds: u64,
}

/// Jobs of 2–30 predicted minutes with a 15 % straggler tail running 3–8×
/// past the prediction, arriving in bursts so ticks often finish several.
fn straggler_trace(seed: u64, n: u64) -> Vec<ReplayJob> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let predicted_seconds = rng.gen_range(2..30u64) * 60;
            let error = if rng.gen_bool(0.15) {
                rng.gen_range(3.0..8.0)
            } else {
                2f64.powf(rng.gen_range(-0.3..0.3))
            };
            ReplayJob {
                id,
                submit: id / 5 * CADENCE_SECONDS,
                nodes: rng.gen_range(1..6),
                predicted_seconds,
                truth_seconds: (predicted_seconds as f64 * error) as u64,
                requested_seconds: predicted_seconds * 3 / 2,
            }
        })
        .collect()
}

/// The interval the engine must serve: a calibrator rebuilt from the drift
/// window, degenerate below `min_calibration`, floored at elapsed time.
fn oracle_interval(
    reference: &ConformalCalibrator,
    cfg: &ReviseConfig,
    point: f64,
    elapsed_seconds: f64,
) -> PredictionInterval {
    let mut interval = if reference.len() >= cfg.min_calibration {
        reference.interval(point, cfg.coverage)
    } else {
        PredictionInterval::degenerate(point)
    };
    interval.lo = interval.lo.max(elapsed_seconds / 60.0);
    interval.hi = interval.hi.max(interval.lo);
    interval
}

fn bits(iv: &PredictionInterval) -> [u64; 3] {
    [iv.lo.to_bits(), iv.point.to_bits(), iv.hi.to_bits()]
}

fn prediction_bits(p: &ResourcePrediction) -> [u64; 3] {
    [
        p.runtime_minutes.to_bits(),
        p.read_bytes.to_bits(),
        p.write_bytes.to_bits(),
    ]
}

fn prediction(j: &ReplayJob) -> ResourcePrediction {
    ResourcePrediction {
        runtime_minutes: j.predicted_seconds as f64 / 60.0,
        read_bytes: 1.0e9,
        write_bytes: 1.0e9,
    }
}

/// The observations the engine must make this tick: tracked running jobs
/// with nonzero elapsed time, a cadence past their last observation (their
/// start, if none), in running order; IO so far is 1 GB each way times the
/// elapsed fraction of the actual runtime, capped at 1.
fn due_observations(
    sim: &SimEngine,
    jobs: &[ReplayJob],
    tracked: &BTreeSet<u64>,
    last_obs: &HashMap<u64, u64>,
) -> Vec<ProgressObs> {
    let now = sim.now();
    sim.running_info()
        .filter(|r| tracked.contains(&r.id))
        .filter(|r| {
            let last = last_obs.get(&r.id).copied().unwrap_or(r.start);
            now > r.start && now - last >= CADENCE_SECONDS
        })
        .map(|r| {
            let elapsed = now - r.start;
            let frac = (elapsed as f64 / jobs[r.id as usize].truth_seconds.max(1) as f64).min(1.0);
            ProgressObs {
                job_id: r.id,
                elapsed_seconds: elapsed as f64,
                read_bytes_so_far: 1.0e9 * frac,
                write_bytes_so_far: 1.0e9 * frac,
            }
        })
        .collect()
}

/// Totals over one replay, for the checks that the trace exercised
/// anything.
#[derive(Debug, Default)]
struct Totals {
    revisions: usize,
    calibrated_revisions: usize,
    kills: usize,
    completions: usize,
    multi_completion_ticks: usize,
    direct_kill: Option<u64>,
}

fn replay(jobs: &[ReplayJob], requeue_killed: bool) -> Totals {
    let telemetry = Telemetry::new();
    // A window far shorter than the trace, so evictions happen all along.
    let drift = DriftMonitor::new(
        &telemetry,
        DriftConfig {
            window: 64,
            ..DriftConfig::default()
        },
    );
    // Fewer warm outcomes than `min_calibration`: the first ticks serve
    // degenerate intervals, later ones calibrated ones.
    let mut warm = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..20 {
        let predicted = warm.gen_range(2.0..30.0);
        drift.record(
            DriftHead::Runtime,
            predicted * 2f64.powf(warm.gen_range(-0.3..0.3)),
            predicted,
        );
    }
    let cfg = ReviseConfig {
        cadence_seconds: CADENCE_SECONDS,
        requeue_killed,
        ..ReviseConfig::default()
    };
    let engine = ReviseEngine::new(&telemetry, cfg.clone());
    engine.attach_drift(&drift);
    let reviser = Reviser::new(cfg.clone());
    let mut sim = SimEngine::new(40);

    // The jobs the engine tracks, as the old sweep saw them, and when the
    // oracle last saw each observed.
    let mut tracked: BTreeSet<u64> = BTreeSet::new();
    let mut last_obs: HashMap<u64, u64> = HashMap::new();
    let mut totals = Totals::default();
    let mut next = 0;
    let mut clock = 0;
    for tick in 0.. {
        while next < jobs.len() && jobs[next].submit <= clock {
            let j = jobs[next];
            engine.track(TrackedJob {
                id: j.id,
                prediction: prediction(&j),
                requested_seconds: j.requested_seconds,
                truth: JobTruth {
                    runtime_seconds: j.truth_seconds,
                    read_bytes: 1.0e9,
                    write_bytes: 1.0e9,
                },
            });
            tracked.insert(j.id);
            sim.submit(SimJob {
                id: j.id,
                submit: j.submit,
                nodes: j.nodes,
                runtime: j.truth_seconds.min(j.requested_seconds),
                estimate: j.requested_seconds,
            });
            next += 1;
        }
        if tick == DIRECT_KILL_TICK {
            let victim = sim
                .running_info()
                .map(|r| r.id)
                .find(|id| tracked.contains(id))
                .expect("a tracked job is running");
            sim.kill_running(victim).expect("running");
            totals.direct_kill = Some(victim);
        }

        let reference = ConformalCalibrator::from_window(&drift.outcome_window(DriftHead::Runtime));
        let now = sim.now();
        let due = due_observations(&sim, jobs, &tracked, &last_obs);
        let report = engine.tick(&mut sim);

        let revised: Vec<u64> = report.revisions.iter().map(|r| r.job_id).collect();
        let want: Vec<u64> = due.iter().map(|o| o.job_id).collect();
        assert_eq!(
            revised, want,
            "tick {tick}: revised jobs against the due set"
        );
        for (rev, obs) in report.revisions.iter().zip(&due) {
            assert_eq!(rev.elapsed_seconds, obs.elapsed_seconds, "tick {tick}");
            let want = reviser.revise(&prediction(&jobs[obs.job_id as usize]), obs);
            assert_eq!(
                prediction_bits(&rev.revised),
                prediction_bits(&want),
                "tick {tick}, job {}: revised {:?}, the synthesised observation gives {want:?}",
                obs.job_id,
                rev.revised
            );
            last_obs.insert(obs.job_id, now);
        }

        for rev in &report.revisions {
            let want = oracle_interval(
                &reference,
                &cfg,
                rev.revised.runtime_minutes,
                rev.elapsed_seconds,
            );
            assert_eq!(
                bits(&rev.runtime_interval),
                bits(&want),
                "tick {tick}, job {}: served {:?}, rebuilt calibrator gives {want:?}",
                rev.job_id,
                rev.runtime_interval
            );
            if reference.len() >= cfg.min_calibration {
                totals.calibrated_revisions += 1;
            }
        }
        for killed in &report.kills {
            assert!(tracked.remove(&killed.id), "killed an untracked job");
            last_obs.remove(&killed.id);
        }
        let running: BTreeSet<u64> = sim.running_info().map(|r| r.id).collect();
        let queued: BTreeSet<u64> = sim.queued_jobs().map(|q| q.id).collect();
        let done: Vec<u64> = tracked
            .iter()
            .copied()
            .filter(|id| !running.contains(id) && !queued.contains(id))
            .filter(|id| sim.finished().iter().any(|e| e.id == *id))
            .collect();
        assert_eq!(
            report.completions,
            done.len(),
            "tick {tick}: completions against the sweep over every tracked job {done:?}"
        );
        for id in &done {
            tracked.remove(id);
            last_obs.remove(id);
        }
        totals.revisions += report.revisions.len();
        totals.kills += report.kills.len();
        totals.completions += report.completions;
        totals.multi_completion_ticks += usize::from(report.completions >= 2);

        if next == jobs.len()
            && sim.running_info().next().is_none()
            && sim.queued_jobs().next().is_none()
        {
            break;
        }
        clock += TICK_SECONDS;
        sim.advance_to(clock);
    }
    assert!(tracked.is_empty(), "jobs left tracked: {tracked:?}");
    assert_eq!(engine.snapshot().inflight, 0);
    totals
}

fn check(requeue_killed: bool) {
    let jobs = straggler_trace(29, 600);
    let totals = replay(&jobs, requeue_killed);
    assert!(
        totals.calibrated_revisions > 1_000 && totals.revisions > totals.calibrated_revisions,
        "revisions on both sides of min_calibration: {totals:?}"
    );
    assert!(totals.kills > 0, "the kill policy fired: {totals:?}");
    assert!(totals.direct_kill.is_some());
    assert!(
        totals.multi_completion_ticks > 20,
        "ticks often finish several jobs: {totals:?}"
    );
    // Every job leaves the engine exactly once: a completion (the direct
    // kill among them) or a kill.
    assert_eq!(totals.completions + totals.kills, jobs.len(), "{totals:?}");
}

#[test]
fn ticks_match_the_oracle_when_kills_drop_the_job() {
    check(false);
}

#[test]
fn ticks_match_the_oracle_when_kills_requeue_the_job() {
    check(true);
}
