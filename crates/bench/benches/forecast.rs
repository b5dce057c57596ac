//! Forecast aggregator scale bench: can the incremental [`IoAggregator`]
//! sustain a cluster of 100k+ concurrent jobs where the batch
//! `io_timeline` rebuild cannot?
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench
//! forecast`) and writes `BENCH_forecast.json` to the workspace root
//! (override with `BENCH_FORECAST_OUT`). Flags:
//!
//! * `--smoke`   — fewer jobs/updates, for CI;
//! * `--enforce` — exit non-zero unless the run held ≥ 100k concurrent
//!   jobs, sustained ≥ 50k interval updates/sec under churn, and the
//!   incremental snapshot stayed within 1e-9 relative of the batch
//!   rebuild (the PR's acceptance floor).
//!
//! Method: populate a one-week (10080-minute) horizon with randomized job
//! IO intervals, then churn it — every update retires one random resident
//! job and admits a fresh one, the aggregator doing one `remove` + one
//! `add` while a batch system would re-sum every job. The batch
//! `io_timeline` rebuild is timed on the same resident set as the honest
//! baseline, and the final snapshot is checked against it.

use prionn_forecast::IoAggregator;
use prionn_sched::{io_timeline, JobIoInterval};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::time::Instant;

const HORIZON_MINUTES: usize = 10_080; // one week

fn random_interval(rng: &mut ChaCha8Rng) -> JobIoInterval {
    let horizon_secs = (HORIZON_MINUTES as u64) * 60;
    let start = rng.gen_range(0..horizon_secs);
    // Runtimes from minutes to a couple of days, bandwidths to ~1 GB/s.
    let duration = rng.gen_range(60u64..(48 * 3600));
    JobIoInterval {
        start,
        end: start + duration,
        bandwidth: rng.gen_range(1.0..1e9),
    }
}

/// Max |incremental - batch| per minute, relative to the batch value.
fn max_rel_err(snapshot: &[f64], batch: &[f64]) -> f64 {
    snapshot
        .iter()
        .zip(batch)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
        .fold(0.0, f64::max)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let (jobs, churn_updates) = if smoke {
        (120_000usize, 100_000usize)
    } else {
        (250_000usize, 500_000usize)
    };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "forecast bench ({mode} mode): {jobs} concurrent jobs over a {HORIZON_MINUTES}-minute \
         horizon, {churn_updates} churn updates"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_f04e);
    let mut resident: Vec<JobIoInterval> = (0..jobs).map(|_| random_interval(&mut rng)).collect();

    // Phase 1: admit the whole cluster.
    let mut agg = IoAggregator::new(HORIZON_MINUTES);
    let t = Instant::now();
    for iv in &resident {
        agg.add(iv);
    }
    let add_secs = t.elapsed().as_secs_f64();
    let adds_per_sec = jobs as f64 / add_secs;
    println!("  populate: {jobs} adds in {add_secs:.3}s ({adds_per_sec:.0}/s)");

    // Phase 2: steady-state churn — retire one, admit one, per update.
    let t = Instant::now();
    for _ in 0..churn_updates {
        let slot = rng.gen_range(0..resident.len());
        agg.remove(&resident[slot]);
        resident[slot] = random_interval(&mut rng);
        agg.add(&resident[slot]);
    }
    let churn_secs = t.elapsed().as_secs_f64();
    // One update = one remove + one add (two interval operations).
    let updates_per_sec = churn_updates as f64 / churn_secs;
    println!("  churn: {churn_updates} updates in {churn_secs:.3}s ({updates_per_sec:.0}/s)");

    // Phase 3: full-horizon snapshot and streaming reads.
    let t = Instant::now();
    let snapshot = agg.snapshot(HORIZON_MINUTES);
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut streamed = 0.0f64;
    for m in 0..HORIZON_MINUTES {
        streamed += agg.advance_to(m);
    }
    let stream_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("  reads: snapshot {snapshot_ms:.3} ms, streaming walk {stream_ms:.3} ms");

    // Phase 4: the batch rebuild on the same resident set — what a
    // non-incremental system pays on *every* arrival or completion.
    let t = Instant::now();
    let batch = io_timeline(&resident, HORIZON_MINUTES);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let rel_err = max_rel_err(&snapshot, &batch);
    let speedup = (rebuild_ms / 1e3) / (1.0 / updates_per_sec);
    println!(
        "  batch io_timeline rebuild: {rebuild_ms:.3} ms (one churn update is {speedup:.0}x \
         cheaper); parity max rel err {rel_err:.3e}"
    );
    assert!(streamed.is_finite());

    let parity_ok = rel_err <= 1e-9;
    let report = json!({
        "bench": "forecast",
        "mode": mode,
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "horizon_minutes": HORIZON_MINUTES,
        "concurrent_jobs": jobs,
        "populate_adds_per_sec": adds_per_sec,
        "churn_updates": churn_updates,
        "churn_updates_per_sec": updates_per_sec,
        "snapshot_ms": snapshot_ms,
        "streaming_walk_ms": stream_ms,
        "batch_rebuild_ms": rebuild_ms,
        "update_vs_rebuild_speedup": speedup,
        "parity_max_rel_err": rel_err,
        "parity_ok": parity_ok,
        "floor": { "concurrent_jobs": 100_000, "churn_updates_per_sec": 50_000 },
    });
    let out = std::env::var("BENCH_FORECAST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_forecast.json").into()
    });
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {out}");

    if enforce {
        let mut failed = false;
        if jobs < 100_000 {
            eprintln!("FAIL: only {jobs} concurrent jobs (< 100k floor)");
            failed = true;
        }
        if updates_per_sec < 50_000.0 {
            eprintln!("FAIL: churn sustained {updates_per_sec:.0} updates/s (< 50k floor)");
            failed = true;
        }
        if !parity_ok {
            eprintln!("FAIL: snapshot diverged from batch io_timeline (max rel err {rel_err:.3e})");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("enforce: {jobs} jobs >= 100k, {updates_per_sec:.0} updates/s >= 50k, parity OK");
    }
}
