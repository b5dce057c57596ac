//! Replaying one seeded trace through two fresh engines must give the same
//! answer: `ReviseEngine` keeps its in-flight jobs in a `HashMap`, and the
//! order in which jobs finishing in one tick enter the drift window decides
//! which of them a full window evicts first — and with it every later
//! interval, kill and coverage count.

use prionn_core::ResourcePrediction;
use prionn_observe::{DriftConfig, DriftHead, DriftMonitor};
use prionn_revise::{JobTruth, ReviseConfig, ReviseEngine, ReviseSnapshot, TrackedJob};
use prionn_sched::{SimEngine, SimJob};
use prionn_telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CADENCE_SECONDS: u64 = 60;

#[derive(Clone, Copy)]
struct ReplayJob {
    id: u64,
    submit: u64,
    nodes: u32,
    predicted_seconds: u64,
    truth_seconds: u64,
    requested_seconds: u64,
}

/// Short jobs arriving in bursts, so most ticks sweep several completions.
fn seeded_jobs(seed: u64, n: u64) -> Vec<ReplayJob> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let predicted_seconds = rng.gen_range(2..20u64) * 60;
            let error = if rng.gen_bool(0.15) {
                rng.gen_range(3.0..8.0)
            } else {
                2f64.powf(rng.gen_range(-0.3..0.3))
            };
            ReplayJob {
                id,
                submit: id / 6 * CADENCE_SECONDS,
                nodes: rng.gen_range(1..4),
                predicted_seconds,
                truth_seconds: (predicted_seconds as f64 * error) as u64,
                requested_seconds: predicted_seconds * 3 / 2,
            }
        })
        .collect()
}

/// Per-tick `(revisions, kills, completions)` and the closing snapshot.
fn replay(jobs: &[ReplayJob]) -> (Vec<(usize, usize, usize)>, ReviseSnapshot) {
    let telemetry = Telemetry::new();
    // A window shorter than the trace, so eviction order matters early.
    let drift = DriftMonitor::new(
        &telemetry,
        DriftConfig {
            window: 48,
            ..DriftConfig::default()
        },
    );
    let mut warm = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..48 {
        let predicted = warm.gen_range(2.0..20.0);
        drift.record(
            DriftHead::Runtime,
            predicted * 2f64.powf(warm.gen_range(-0.3..0.3)),
            predicted,
        );
    }
    let engine = ReviseEngine::new(
        &telemetry,
        ReviseConfig {
            cadence_seconds: CADENCE_SECONDS,
            ..ReviseConfig::default()
        },
    );
    engine.attach_drift(&drift);
    let mut sim = SimEngine::new(48);

    let mut ticks = Vec::new();
    let mut next = 0;
    let mut clock = 0;
    loop {
        while next < jobs.len() && jobs[next].submit <= clock {
            let j = jobs[next];
            engine.track(TrackedJob {
                id: j.id,
                prediction: ResourcePrediction {
                    runtime_minutes: j.predicted_seconds as f64 / 60.0,
                    read_bytes: 1.0e9,
                    write_bytes: 1.0e9,
                },
                requested_seconds: j.requested_seconds,
                truth: JobTruth {
                    runtime_seconds: j.truth_seconds,
                    read_bytes: 1.0e9,
                    write_bytes: 1.0e9,
                },
            });
            sim.submit(SimJob {
                id: j.id,
                submit: j.submit,
                nodes: j.nodes,
                runtime: j.truth_seconds.min(j.requested_seconds),
                estimate: j.requested_seconds,
            });
            next += 1;
        }
        let report = engine.tick(&mut sim);
        ticks.push((
            report.revisions.len(),
            report.kills.len(),
            report.completions,
        ));
        if next == jobs.len()
            && sim.running_info().next().is_none()
            && sim.queued_jobs().next().is_none()
        {
            return (ticks, engine.snapshot());
        }
        clock += CADENCE_SECONDS;
        sim.advance_to(clock);
    }
}

#[test]
fn two_fresh_engines_replay_one_trace_identically() {
    let jobs = seeded_jobs(13, 900);
    let (ticks_a, snap_a) = replay(&jobs);
    let (ticks_b, snap_b) = replay(&jobs);
    assert!(
        ticks_a.iter().filter(|t| t.2 >= 2).count() > 50,
        "the trace must finish several jobs in one tick, often"
    );
    assert!(snap_a.kills_total > 0 && snap_a.outcomes_observed > 0);
    assert_eq!(ticks_a.len(), ticks_b.len(), "ticks until drained");
    let diverged = ticks_a.iter().zip(&ticks_b).position(|(a, b)| a != b);
    assert_eq!(
        diverged, None,
        "first tick whose revisions / kills / completions differ"
    );
    assert_eq!(format!("{snap_a:?}"), format!("{snap_b:?}"));
}
