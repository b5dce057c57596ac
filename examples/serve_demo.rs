//! The serving gateway end to end: a trained model behind
//! [`prionn::serve::Gateway`], eight client threads submitting jobs one at
//! a time, and background retrains hot-swapping the weights mid-traffic.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! Prints the sustained throughput, the batch-fusion profile, the weight
//! epochs the clients observed, and the gateway's Prometheus metric
//! surface (`docs/SERVING.md` walks through the architecture).

use prionn::core::{Prionn, PrionnConfig, TrainingBatch};
use prionn::serve::{Gateway, GatewayConfig, ServeError};
use prionn::telemetry::Telemetry;
use prionn::workload::{Trace, TraceConfig, TracePreset};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 40;

fn main() {
    // 1. A synthetic workload and an initially-trained model.
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 160));
    let jobs: Vec<_> = trace.executed_jobs().collect();
    let scripts: Vec<String> = jobs.iter().map(|j| j.script.clone()).collect();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();

    let cfg = PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 64,
        predict_io: false,
        epochs: 1,
        batch_size: 32,
        ..Default::default()
    };
    let mut model = Prionn::new(cfg, &refs).unwrap();
    model.retrain(&refs, &runtimes, &[], &[]).unwrap();

    // 2. The gateway: one replica per "socket" (two here), micro-batching
    //    up to 8 scripts per fused forward pass.
    let telemetry = Telemetry::default();
    let gateway = Gateway::spawn(
        model,
        GatewayConfig {
            replicas: 2,
            max_batch: CLIENTS,
            max_wait: Duration::from_micros(500),
            queue_cap: 64,
            telemetry: Some(telemetry.clone()),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    // 3. Eight clients hammer the gateway with single-job requests while
    //    the main thread feeds completed-job batches to the background
    //    trainer; each successful retrain hot-swaps every replica.
    let started = Instant::now();
    let epochs_seen: BTreeSet<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let gateway = &gateway;
                let scripts = &scripts;
                s.spawn(move || {
                    let mut seen = BTreeSet::new();
                    for r in 0..REQUESTS_PER_CLIENT {
                        let idx = (c * 13 + r) % scripts.len();
                        let one = std::slice::from_ref(&scripts[idx]);
                        match gateway.predict_detailed(one, None) {
                            Ok(reply) => {
                                seen.insert(reply.epoch);
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                // Real clients back off; the demo just retries.
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("predict failed: {e}"),
                        }
                    }
                    seen
                })
            })
            .collect();

        // Completed jobs arrive in windows of 32 (the paper retrains on
        // recent history); three windows land mid-traffic.
        for window in 0..3 {
            let lo = (window * 32) % scripts.len();
            let hi = (lo + 32).min(scripts.len());
            gateway.retrain_async(TrainingBatch {
                scripts: scripts[lo..hi].to_vec(),
                runtime_minutes: runtimes[lo..hi].to_vec(),
                read_bytes: Vec::new(),
                write_bytes: Vec::new(),
            });
            std::thread::sleep(Duration::from_millis(10));
        }

        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    // Let the trainer finish any queued window so the final stats settle.
    let deadline = Instant::now() + Duration::from_secs(30);
    while gateway.stats().retrains_pending > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = gateway.stats();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let batches = stats.batches_served;
    println!("=== serve_demo ===");
    println!(
        "{total} requests from {CLIENTS} clients in {:.2} s  ->  {:.0} req/s",
        wall,
        total as f64 / wall
    );
    println!(
        "fused into {batches} forward passes ({:.1} scripts/batch mean)",
        stats.scripts_predicted as f64 / batches.max(1) as f64
    );
    println!(
        "retrains: {} done, {} dropped (latest-wins)  |  swaps: {} published, {} applied",
        stats.retrains_done, stats.retrains_dropped, stats.swaps_published, stats.swaps_applied,
    );
    println!(
        "weight epochs observed by clients: {:?} (latest published: {})",
        epochs_seen,
        gateway.epoch()
    );
    if let Some(err) = gateway.last_error() {
        println!("last background error: {err}");
    }

    // 4. The metric surface an operator would scrape.
    println!("\n--- prometheus (serve_* series) ---");
    for line in telemetry.prometheus().lines() {
        if line.contains("serve_") {
            println!("{line}");
        }
    }

    gateway.shutdown();
}
