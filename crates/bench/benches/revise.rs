//! Revision-loop bench: throughput of the in-flight re-prediction hot
//! path, split-conformal coverage against nominal, and the CPU-hours an
//! interval-driven kill policy reclaims on a simulated trace.
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench
//! revise`) and writes `BENCH_revise.json` to the workspace root
//! (override with `BENCH_REVISE_OUT`). Flags:
//!
//! * `--smoke`   — smaller trace and fewer hot-path iterations, for CI;
//! * `--enforce` — exit non-zero unless the run sustained ≥ 50k
//!   revisions/sec on the pure step and ≥ 500k inside
//!   `ReviseEngine::tick`, held mean empirical coverage within ±3% of
//!   nominal and no lower than nominal − 3·SE at 80/90/95%, terminated
//!   hopeless jobs early (saved CPU-hours > 0),
//!   and revised predictions beat submission-only predictions on mean
//!   relativeAccuracy for jobs past 25% progress.
//!
//! Method: a population of jobs whose runtime predictions carry
//! log-uniform multiplicative error (IO predictions tighter — volumes
//! are easier than durations). Phase 1 times the pure revise+interval
//! step on a fixed calibrator (`revisions_per_sec`). Phase 2 draws
//! [`COVERAGE_DRAWS`] populations, calibrates on half of each and scores
//! coverage on the held-out half, reporting the mean and its standard
//! error over the draws.
//! Phase 3 replays the trace through a [`SimEngine`] with a
//! [`ReviseEngine`] ticking on a 60s cadence — jobs whose revised
//! interval `lo` crosses their requested walltime are killed early —
//! against the walltime-limit baseline where the same doomed jobs burn
//! their full allocation; it times the whole tick as well
//! (`tick_revisions_per_sec`: revisions ÷ seconds inside `tick`, which
//! adds calibration upkeep, the pass over the running set, scheduling
//! updates and the completion sweep to the pure step).

use prionn_core::{relative_accuracy, ResourcePrediction};
use prionn_observe::{DriftHead, DriftMonitor};
use prionn_revise::{
    ConformalCalibrator, JobTruth, ProgressObs, ReviseConfig, ReviseEngine, Reviser, TrackedJob,
    SCORE_EPSILON,
};
use prionn_sched::{SimEngine, SimJob};
use prionn_telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::time::Instant;

const CADENCE_SECONDS: u64 = 60;

/// The bench's base seed.
const SEED: u64 = 0x4e71_5e00;

/// Populations phase 2 scores coverage over: the first from the bench's
/// stream, draw `k` from `SEED + k`.
const COVERAGE_DRAWS: u64 = 20;

/// One simulated job: the truth, the (noisy) prediction served at
/// submission, and the padded walltime the user requested.
#[derive(Clone, Copy)]
struct TraceJob {
    id: u64,
    submit: u64,
    nodes: u32,
    truth_seconds: u64,
    predicted_minutes: f64,
    requested_seconds: u64,
    io_truth: f64,
    io_predicted: f64,
}

impl TraceJob {
    /// Doomed to the walltime limit: cannot finish inside the request.
    fn hopeless(&self) -> bool {
        self.truth_seconds > self.requested_seconds
    }
}

/// Multiplicative runtime error of the trace's model: a well-calibrated
/// bulk (±23%) with a 15% straggler tail whose jobs run 3–8x past their
/// prediction — inputs the script features never saw. The stragglers are
/// the population the kill policy exists for: their padded walltime
/// request cannot hold them, and a conformal lower bound calibrated on
/// this mixture proves it mid-flight.
fn runtime_error(rng: &mut ChaCha8Rng) -> f64 {
    if rng.gen_range(0.0..1.0) < 0.15 {
        rng.gen_range(3.0..8.0)
    } else {
        2.0f64.powf(rng.gen_range(-0.3..0.3))
    }
}

fn trace(rng: &mut ChaCha8Rng, jobs: usize) -> Vec<TraceJob> {
    (0..jobs)
        .map(|i| {
            // Predictions from 20 minutes to ~8 hours; truths off by the
            // bulk-plus-stragglers error, IO predictions by a tight 2^±0.25.
            let predicted_minutes = rng.gen_range(20.0..480.0f64);
            let truth_seconds = (predicted_minutes * 60.0 * runtime_error(rng)) as u64;
            let io_err = 2.0f64.powf(rng.gen_range(-0.25..0.25));
            let io_truth = rng.gen_range(1.0e9..5.0e10);
            TraceJob {
                id: i as u64 + 1,
                submit: rng.gen_range(0..14_400),
                nodes: rng.gen_range(1u32..16),
                truth_seconds,
                predicted_minutes,
                // Users pad their estimate by 50%.
                requested_seconds: (predicted_minutes * 60.0 * 1.5) as u64,
                io_truth,
                io_predicted: io_truth * io_err,
            }
        })
        .collect()
}

fn prediction(j: &TraceJob) -> ResourcePrediction {
    ResourcePrediction {
        runtime_minutes: j.predicted_minutes,
        read_bytes: j.io_predicted * 0.6,
        write_bytes: j.io_predicted * 0.4,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let (hot_iters, trace_jobs) = if smoke {
        (400_000usize, 600usize)
    } else {
        (4_000_000usize, 3_000usize)
    };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "revise bench ({mode} mode): {hot_iters} hot-path revisions, {trace_jobs}-job kill trace"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);

    // ── Phase 1: the revise + interval hot path ────────────────────────
    let reviser = Reviser::new(ReviseConfig::default());
    let cal = ConformalCalibrator::from_scores(
        (0..512)
            .map(|_| 2.0f64.powf(rng.gen_range(-1.5..1.5)))
            .collect(),
    );
    let pool: Vec<(ResourcePrediction, ProgressObs)> = (0..8_192)
        .map(|i| {
            let initial = ResourcePrediction {
                runtime_minutes: rng.gen_range(5.0..480.0),
                read_bytes: rng.gen_range(1.0e8..1.0e10),
                write_bytes: rng.gen_range(1.0e8..1.0e10),
            };
            let frac = rng.gen_range(0.05..0.95);
            let obs = ProgressObs {
                job_id: i as u64,
                elapsed_seconds: initial.runtime_minutes * 60.0 * frac * rng.gen_range(0.5..2.0),
                read_bytes_so_far: initial.read_bytes * frac,
                write_bytes_so_far: initial.write_bytes * frac,
            };
            (initial, obs)
        })
        .collect();
    let t = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..hot_iters {
        let (initial, obs) = &pool[i % pool.len()];
        let revised = reviser.revise(initial, obs);
        let iv = cal.interval(revised.runtime_minutes, 0.9);
        acc += iv.lo + iv.hi;
    }
    let hot_secs = t.elapsed().as_secs_f64();
    let revisions_per_sec = hot_iters as f64 / hot_secs;
    assert!(acc.is_finite());
    println!("  hot path: {hot_iters} revisions in {hot_secs:.3}s ({revisions_per_sec:.0}/s)");

    // ── Phase 2: split-conformal coverage vs nominal ───────────────────
    // One population: 4 000 (truth, prediction) pairs, the first half
    // calibrating and the second held out.
    let population = |rng: &mut ChaCha8Rng| -> Vec<(f64, f64)> {
        (0..4_000)
            .map(|_| {
                let predicted = rng.gen_range(5.0..500.0f64);
                let truth = predicted * 2.0f64.powf(rng.gen_range(-1.5..1.5));
                (truth, predicted)
            })
            .collect()
    };
    let mut draws = vec![population(&mut rng)];
    draws.extend((1..COVERAGE_DRAWS).map(|k| population(&mut ChaCha8Rng::seed_from_u64(SEED + k))));
    let calibrated: Vec<(ConformalCalibrator, &[(f64, f64)])> = draws
        .iter()
        .map(|outcomes| {
            let (calset, holdout) = outcomes.split_at(outcomes.len() / 2);
            let cal = ConformalCalibrator::from_scores(
                calset
                    .iter()
                    .map(|(truth, pred)| truth / pred.max(SCORE_EPSILON))
                    .collect(),
            );
            (cal, holdout)
        })
        .collect();
    let (mut coverage, mut coverage_se) = (serde_json::Map::new(), serde_json::Map::new());
    let mut coverage_ok = true;
    for nominal in [0.80, 0.90, 0.95] {
        let empirical: Vec<f64> = calibrated
            .iter()
            .map(|(cal, holdout)| {
                let covered = holdout
                    .iter()
                    .filter(|(truth, pred)| cal.interval(*pred, nominal).contains(*truth))
                    .count();
                covered as f64 / holdout.len() as f64
            })
            .collect();
        let k = empirical.len() as f64;
        let mean = empirical.iter().sum::<f64>() / k;
        let var = empirical.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (k - 1.0);
        let se = (var / k).sqrt();
        let ok = (mean - nominal).abs() <= 0.03 && mean >= nominal - 3.0 * se;
        coverage_ok &= ok;
        println!(
            "  coverage @ {:.0}%: mean {:.2}% (SE {:.2} points over {COVERAGE_DRAWS} draws, {})",
            nominal * 100.0,
            mean * 100.0,
            se * 100.0,
            if ok { "ok" } else { "OUT OF TOLERANCE" }
        );
        coverage.insert(format!("{:.2}", nominal), json!(mean));
        coverage_se.insert(format!("{:.2}", nominal), json!(se));
    }

    // ── Phase 3: kill-policy trace vs walltime-limit baseline ──────────
    let jobs = {
        let mut jobs = trace(&mut rng, trace_jobs);
        jobs.sort_by_key(|j| j.submit);
        jobs
    };
    let hopeless = jobs.iter().filter(|j| j.hopeless()).count();
    // Baseline (PR 6 sched, no revision): a hopeless job burns its full
    // requested allocation at the walltime limit and produces nothing.
    let baseline_wasted_hours: f64 = jobs
        .iter()
        .filter(|j| j.hopeless())
        .map(|j| j.nodes as f64 * j.requested_seconds as f64 / 3600.0)
        .sum();

    let telemetry = Telemetry::new();
    let drift = DriftMonitor::with_defaults(&telemetry);
    // Warm calibration: outcomes from the same bulk-plus-stragglers
    // model, as the drift window would hold in steady state.
    for _ in 0..256 {
        let predicted = rng.gen_range(20.0..480.0f64);
        let truth = predicted * runtime_error(&mut rng);
        drift.record(DriftHead::Runtime, truth, predicted);
    }
    let engine = ReviseEngine::new(
        &telemetry,
        ReviseConfig {
            cadence_seconds: CADENCE_SECONDS,
            ..ReviseConfig::default()
        },
    );
    engine.attach_drift(&drift);

    let mut sim = SimEngine::new(96);
    let mut ra_revised_sum = 0.0f64;
    let mut ra_initial_sum = 0.0f64;
    let mut ra_count = 0usize;
    let truth_of = |id: u64| jobs.iter().find(|j| j.id == id).expect("trace job");

    let t = Instant::now();
    let mut tick_secs = 0.0f64;
    let mut next = 0usize;
    let mut clock = 0u64;
    loop {
        while next < jobs.len() && jobs[next].submit <= clock {
            let j = &jobs[next];
            engine.track(TrackedJob {
                id: j.id,
                prediction: prediction(j),
                requested_seconds: j.requested_seconds,
                truth: JobTruth {
                    runtime_seconds: j.truth_seconds,
                    read_bytes: j.io_truth * 0.6,
                    write_bytes: j.io_truth * 0.4,
                },
            });
            sim.submit(SimJob {
                id: j.id,
                submit: j.submit,
                nodes: j.nodes,
                // The walltime limit would stop the job anyway; what the
                // kill policy buys is stopping it *earlier*.
                runtime: j.truth_seconds.min(j.requested_seconds),
                estimate: j.requested_seconds,
            });
            next += 1;
        }
        let tick_started = Instant::now();
        let report = engine.tick(&mut sim);
        tick_secs += tick_started.elapsed().as_secs_f64();
        for rev in &report.revisions {
            let j = truth_of(rev.job_id);
            // Past 25% of the job's actual life: does the revised point
            // beat the submission-time one?
            if rev.elapsed_seconds >= 0.25 * j.truth_seconds as f64 {
                let truth_minutes = j.truth_seconds as f64 / 60.0;
                ra_revised_sum += relative_accuracy(rev.revised.runtime_minutes, truth_minutes);
                ra_initial_sum += relative_accuracy(j.predicted_minutes, truth_minutes);
                ra_count += 1;
            }
        }
        if next >= jobs.len()
            && sim.running_info().next().is_none()
            && sim.queued_jobs().next().is_none()
        {
            break;
        }
        clock = clock.max(sim.now()) + CADENCE_SECONDS;
        sim.advance_to(clock);
    }
    let trace_secs = t.elapsed().as_secs_f64();
    let snap = engine.snapshot();
    let tick_revisions_per_sec = snap.revisions_total as f64 / tick_secs;
    let revise_wasted_hours = baseline_wasted_hours - snap.cpu_hours_saved;
    let mean_ra_revised = ra_revised_sum / ra_count.max(1) as f64;
    let mean_ra_initial = ra_initial_sum / ra_count.max(1) as f64;
    println!(
        "  trace: {trace_jobs} jobs ({hopeless} hopeless) replayed in {trace_secs:.2}s; \
         {} kills reclaimed {:.1} of {:.1} doomed CPU-hours",
        snap.kills_total, snap.cpu_hours_saved, baseline_wasted_hours
    );
    println!(
        "  accuracy past 25% progress: revised {:.4} vs initial {:.4} mean relativeAccuracy \
         over {ra_count} revisions",
        mean_ra_revised, mean_ra_initial
    );
    println!(
        "  tick: {} revisions in {tick_secs:.3}s inside ReviseEngine::tick \
         ({tick_revisions_per_sec:.0}/s)",
        snap.revisions_total
    );

    let report = json!({
        "bench": "revise",
        "mode": mode,
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "hot_path_revisions": hot_iters,
        "revisions_per_sec": revisions_per_sec,
        "tick_revisions_per_sec": tick_revisions_per_sec,
        "coverage_draws": COVERAGE_DRAWS,
        "empirical_coverage": coverage,
        "empirical_coverage_se": coverage_se,
        "coverage_tolerance": 0.03,
        "coverage_ok": coverage_ok,
        "trace_jobs": trace_jobs,
        "hopeless_jobs": hopeless,
        "kills": snap.kills_total,
        "baseline_wasted_cpu_hours": baseline_wasted_hours,
        "revise_wasted_cpu_hours": revise_wasted_hours,
        "cpu_hours_saved": snap.cpu_hours_saved,
        "mean_relative_accuracy_revised": mean_ra_revised,
        "mean_relative_accuracy_initial": mean_ra_initial,
        // -1 when no tracked job with a served interval completed.
        "trace_empirical_coverage": snap.empirical_coverage.unwrap_or(-1.0),
        "floor": {
            "revisions_per_sec": 50_000,
            "tick_revisions_per_sec": 500_000,
            "coverage_within": 0.03,
            "coverage_below_nominal_max_se": 3.0,
            "cpu_hours_saved_gt": 0.0,
        },
    });
    let out = std::env::var("BENCH_REVISE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_revise.json").into());
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {out}");

    if enforce {
        let mut failed = false;
        if revisions_per_sec < 50_000.0 {
            eprintln!("FAIL: hot path sustained {revisions_per_sec:.0} revisions/s (< 50k floor)");
            failed = true;
        }
        if tick_revisions_per_sec < 500_000.0 {
            eprintln!(
                "FAIL: ReviseEngine::tick sustained {tick_revisions_per_sec:.0} revisions/s \
                 (< 500k floor)"
            );
            failed = true;
        }
        if !coverage_ok {
            eprintln!(
                "FAIL: mean empirical coverage strayed more than 3 points from nominal \
                 or fell more than 3 SE below it"
            );
            failed = true;
        }
        if snap.cpu_hours_saved <= 0.0 {
            eprintln!("FAIL: kill policy reclaimed no CPU-hours");
            failed = true;
        }
        if mean_ra_revised <= mean_ra_initial {
            eprintln!(
                "FAIL: revised predictions ({mean_ra_revised:.4}) did not beat submission-only \
                 ({mean_ra_initial:.4}) past 25% progress"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: {revisions_per_sec:.0} revisions/s >= 50k, {tick_revisions_per_sec:.0} \
             tick revisions/s >= 500k, mean coverage within 3 points and >= nominal - 3 SE, \
             {:.1} CPU-hours saved > 0, revised accuracy {mean_ra_revised:.4} > {mean_ra_initial:.4}",
            snap.cpu_hours_saved
        );
    }
}
