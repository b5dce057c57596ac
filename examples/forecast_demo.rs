//! Cluster-scale IO burst forecasting end to end: a synthetic workload's
//! per-job predicted IO intervals stream through the incremental
//! aggregator as jobs start and finish, the live aggregate feeds Holt
//! smoothing, edge-triggered pre-burst alerts fire ahead of the
//! bursts, and the embedded ops endpoint serves the `/forecast` snapshot
//! next to `/metrics`.
//!
//! ```text
//! cargo run --release --example forecast_demo [-- --serve-seconds N]
//! ```
//!
//! Prints `OPS_ADDR=<ip:port>` as soon as the endpoint is up (CI curls
//! it), the live walk's alert edges, and the paper's Fig. 10-style burst
//! sensitivity/precision table for the engine's Holt across the standard
//! ±window sweep. `--serve-seconds N` keeps the endpoint
//! alive for N extra seconds after the walk.

use prionn::forecast::{
    forecast_timeline, AlertTransition, ForecastConfig, ForecastEngine, Holt, HOLT_ALPHA, HOLT_BETA,
};
use prionn::observe::{OpsOptions, OpsServer};
use prionn::sched::{burst_metrics, horizon_minutes, io_timeline, JobIoInterval};
use prionn::telemetry::Telemetry;
use prionn::workload::{Trace, TraceConfig, TracePreset};

/// The standard burst window sweep (minutes), as in Figs 13/15.
const WINDOWS: [usize; 6] = [5, 10, 20, 30, 45, 60];
/// Forecast lead times swept in the table (minutes).
const HORIZONS: [usize; 3] = [5, 10, 30];
/// Lead time of the live engine walk (minutes).
const LEAD_MINUTES: u64 = 10;

fn main() {
    let serve_seconds: u64 = std::env::args()
        .skip_while(|a| a != "--serve-seconds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    // 1. A synthetic Cab-like workload. Each executed job contributes one
    //    predicted IO interval: constant bandwidth across its runtime —
    //    exactly the shape `sched::io_timeline` aggregates in batch.
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 400));
    let intervals: Vec<JobIoInterval> = trace
        .jobs
        .iter()
        .filter(|j| !j.cancelled)
        .map(|j| JobIoInterval {
            start: j.submit_time,
            end: j.submit_time + j.runtime_seconds,
            bandwidth: j.read_bandwidth() + j.write_bandwidth(),
        })
        .collect();
    let horizon = horizon_minutes(&intervals);
    println!(
        "=== forecast_demo ===\n{} jobs over a {horizon}-minute horizon",
        intervals.len()
    );

    // 2. The live engine, fed event-driven: each job's interval is added
    //    the minute it starts and withdrawn the minute it ends, the clock
    //    ticks once per minute, and alert edges are collected.
    let telemetry = Telemetry::new();
    let engine = ForecastEngine::new(
        &telemetry,
        ForecastConfig {
            horizon_minutes: horizon,
            lead_minutes: LEAD_MINUTES,
            ..ForecastConfig::default()
        },
    );

    // 3. The ops endpoint: `/forecast` serves the engine snapshot.
    let ops = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            telemetry: Some(telemetry.clone()),
            json_routes: vec![("/forecast", engine.ops_probe())],
            ..OpsOptions::default()
        },
    )
    .unwrap();
    println!("OPS_ADDR={}", ops.addr());

    let mut starts: Vec<(u64, usize)> = intervals
        .iter()
        .enumerate()
        .map(|(i, iv)| (iv.start / 60, i))
        .collect();
    let mut ends: Vec<(u64, usize)> = intervals
        .iter()
        .enumerate()
        .map(|(i, iv)| (iv.end / 60 + 1, i))
        .collect();
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut si, mut ei) = (0usize, 0usize);
    let mut raised = 0usize;
    let mut cleared = 0usize;
    let mut first_alert: Option<u64> = None;
    for minute in 0..horizon as u64 {
        while si < starts.len() && starts[si].0 <= minute {
            engine.job_started(&intervals[starts[si].1]);
            si += 1;
        }
        while ei < ends.len() && ends[ei].0 <= minute {
            engine.job_finished(&intervals[ends[ei].1]);
            ei += 1;
        }
        let tick = engine.tick();
        match tick.transition {
            Some(AlertTransition::Raised) => {
                raised += 1;
                if first_alert.is_none() {
                    first_alert = Some(minute);
                    println!("first alert edge: {}", engine.snapshot().render());
                }
            }
            Some(AlertTransition::Cleared) => cleared += 1,
            None => {}
        }
    }
    println!("live walk: {raised} burst alerts raised, {cleared} cleared over {horizon} minutes");
    println!("final state: {}", engine.snapshot().render());

    // 4. The Fig. 10-style table: the engine's h-minute-ahead series
    //    scored against the actual aggregate with the paper's burst
    //    sensitivity/precision at the standard ±window sweep.
    let actual = io_timeline(&intervals, horizon);
    println!("\n--- burst forecast quality (sensitivity / precision by ±window) ---");
    print!("{:<16}{:>8}", "forecaster", "lead");
    for w in WINDOWS {
        print!("{:>12}", format!("±{w}m"));
    }
    println!();
    for h in HORIZONS {
        let predicted = forecast_timeline(Holt::new(HOLT_ALPHA, HOLT_BETA), &actual, h);
        print!("{:<16}{:>7}m", "holt", h);
        for w in WINDOWS {
            let m = burst_metrics(&actual, &predicted, w);
            print!("{:>12}", format!("{:.2}/{:.2}", m.sensitivity, m.precision));
        }
        println!();
    }

    // 5. The forecast-specific metric surface.
    println!("\n--- prometheus (forecast_* series) ---");
    for line in telemetry.prometheus().lines() {
        if line.starts_with("forecast_") {
            println!("{line}");
        }
    }
    println!("FORECAST_DEMO_OK");

    if serve_seconds > 0 {
        println!("\nserving ops endpoint for {serve_seconds}s more (ctrl-c to stop) ...");
        std::thread::sleep(std::time::Duration::from_secs(serve_seconds));
    }
    ops.shutdown();
}
