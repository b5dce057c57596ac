//! Continuous in-flight re-prediction end to end: a bulk-plus-stragglers
//! trace replays through the cluster simulator while the revision engine
//! taps progress on a 60s cadence, blends each job's submission-time
//! prediction with its observed pace, wraps the result in split-conformal
//! `[lo, point, hi]` intervals calibrated on the drift monitor's outcome
//! window, and kills jobs whose calibrated lower bound proves they cannot
//! finish inside their requested walltime. The embedded ops endpoint
//! serves the `/revise` snapshot next to `/metrics`.
//!
//! ```text
//! cargo run --release --example revise_demo [-- --serve-seconds N]
//! ```
//!
//! Prints `OPS_ADDR=<ip:port>` as soon as the endpoint is up (CI curls
//! it), the first kill edge, hourly engine state, and the reclaimed
//! CPU-hours against the walltime-limit baseline. `--serve-seconds N`
//! keeps the endpoint alive for N extra seconds after the replay.

use prionn::core::ResourcePrediction;
use prionn::observe::{DriftHead, DriftMonitor, OpsOptions, OpsServer};
use prionn::revise::{JobTruth, ReviseConfig, ReviseEngine, TrackedJob};
use prionn::sched::{SimEngine, SimJob};
use prionn::telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Progress-tap cadence, seconds.
const CADENCE_SECONDS: u64 = 60;
/// Cluster size, nodes.
const NODES: u32 = 48;
/// Trace size, jobs.
const JOBS: usize = 300;

/// One trace job: ground truth, the (noisy) prediction served at
/// submission, and the user's padded walltime request.
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
    /// Cannot finish inside its request: doomed to the walltime limit.
    fn hopeless(&self) -> bool {
        self.truth_seconds > self.requested_seconds
    }
}

/// The trace model's multiplicative runtime error: a well-calibrated bulk
/// (±23%) plus a 15% straggler tail running 3–8x past prediction — the
/// population the kill policy exists for.
fn runtime_error(rng: &mut ChaCha8Rng) -> f64 {
    if rng.gen_range(0.0..1.0) < 0.15 {
        rng.gen_range(3.0..8.0)
    } else {
        2.0f64.powf(rng.gen_range(-0.3..0.3))
    }
}

fn trace(rng: &mut ChaCha8Rng) -> Vec<TraceJob> {
    let mut jobs: Vec<TraceJob> = (0..JOBS)
        .map(|i| {
            let predicted_minutes = rng.gen_range(20.0..240.0f64);
            let truth_seconds = (predicted_minutes * 60.0 * runtime_error(rng)) as u64;
            let io_truth = rng.gen_range(1.0e9..5.0e10);
            let io_err = 2.0f64.powf(rng.gen_range(-0.25..0.25));
            TraceJob {
                id: i as u64 + 1,
                submit: rng.gen_range(0..7_200),
                nodes: rng.gen_range(1u32..8),
                truth_seconds,
                predicted_minutes,
                // Users pad their estimate by 50%.
                requested_seconds: (predicted_minutes * 60.0 * 1.5) as u64,
                io_truth,
                io_predicted: io_truth * io_err,
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.submit);
    jobs
}

fn main() {
    let serve_seconds: u64 = std::env::args()
        .skip_while(|a| a != "--serve-seconds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let mut rng = ChaCha8Rng::seed_from_u64(0x7e15_e000);
    let jobs = trace(&mut rng);
    let hopeless = jobs.iter().filter(|j| j.hopeless()).count();
    let baseline_wasted: f64 = jobs
        .iter()
        .filter(|j| j.hopeless())
        .map(|j| j.nodes as f64 * j.requested_seconds as f64 / 3600.0)
        .sum();
    println!(
        "=== revise_demo ===\n{JOBS} jobs on {NODES} nodes, {hopeless} hopeless \
         (would burn {baseline_wasted:.1} CPU-hours at the walltime limit)"
    );

    // 1. The drift monitor is the calibration source: warm it with
    //    steady-state outcomes from the same bulk-plus-stragglers model.
    let telemetry = Telemetry::new();
    let drift = DriftMonitor::with_defaults(&telemetry);
    for _ in 0..256 {
        let predicted = rng.gen_range(20.0..240.0f64);
        let truth = predicted * runtime_error(&mut rng);
        drift.record(DriftHead::Runtime, truth, predicted);
    }

    // 2. The revision engine, ticking on a 60s progress cadence.
    let engine = ReviseEngine::new(
        &telemetry,
        ReviseConfig {
            cadence_seconds: CADENCE_SECONDS,
            ..ReviseConfig::default()
        },
    );
    engine.attach_drift(&drift);

    // 3. The ops endpoint: `/revise` serves the engine snapshot.
    let ops = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            telemetry: Some(telemetry.clone()),
            json_routes: vec![("/revise", engine.ops_probe())],
            ..OpsOptions::default()
        },
    )
    .unwrap();
    println!("OPS_ADDR={}", ops.addr());

    // 4. Replay: submit jobs as they arrive, tick the engine each cadence,
    //    let the kill policy reclaim the stragglers' doomed allocations.
    let mut sim = SimEngine::new(NODES);
    let mut next = 0usize;
    let mut clock = 0u64;
    let mut first_kill = true;
    let mut next_report_hour = 1u64;
    loop {
        while next < jobs.len() && jobs[next].submit <= clock {
            let j = &jobs[next];
            engine.track(TrackedJob {
                id: j.id,
                prediction: ResourcePrediction {
                    runtime_minutes: j.predicted_minutes,
                    read_bytes: j.io_predicted * 0.6,
                    write_bytes: j.io_predicted * 0.4,
                },
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
                // The walltime limit would stop the job anyway; the kill
                // policy's value is stopping it *earlier*.
                runtime: j.truth_seconds.min(j.requested_seconds),
                estimate: j.requested_seconds,
            });
            next += 1;
        }
        let report = engine.tick(&mut sim);
        for rev in report.revisions.iter().filter(|r| r.killed) {
            if first_kill {
                first_kill = false;
                println!(
                    "first kill: job {} at {:.0} min elapsed — revised interval \
                     [{:.0}, {:.0}] min lower-bounds past its walltime request",
                    rev.job_id,
                    rev.elapsed_seconds / 60.0,
                    rev.runtime_interval.lo,
                    rev.runtime_interval.hi,
                );
            }
        }
        if next >= jobs.len()
            && sim.running_info().next().is_none()
            && sim.queued_jobs().next().is_none()
        {
            break;
        }
        clock = clock.max(sim.now()) + CADENCE_SECONDS;
        if clock >= next_report_hour * 3_600 {
            println!("t={:>2}h {}", next_report_hour, engine.snapshot().render());
            next_report_hour = clock / 3_600 + 1;
        }
        sim.advance_to(clock);
    }
    let snap = engine.snapshot();
    println!("final: {}", snap.render());
    println!(
        "kill policy reclaimed {:.1} of {:.1} doomed CPU-hours ({} kills)",
        snap.cpu_hours_saved, baseline_wasted, snap.kills_total
    );

    // 5. The revision-specific metric surface.
    println!("\n--- prometheus (revise_* series) ---");
    for line in telemetry.prometheus().lines() {
        if line.starts_with("revise_") {
            println!("{line}");
        }
    }
    println!("REVISE_DEMO_OK");

    if serve_seconds > 0 {
        println!("\nserving ops endpoint for {serve_seconds}s more (ctrl-c to stop) ...");
        std::thread::sleep(std::time::Duration::from_secs(serve_seconds));
    }
    ops.shutdown();
}
