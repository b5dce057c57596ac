//! Observability end to end: the serving gateway under concurrent load
//! with mid-traffic retrains, fully traced — request-scoped span trees
//! across micro-batch fusion, a flight recorder armed for crash dumps, a
//! drift monitor scoring completed jobs, and the embedded ops endpoint
//! serving `/metrics`, `/healthz`, `/readyz`, `/traces`, and `/flight`.
//!
//! ```text
//! cargo run --release --example observe_demo [-- --serve-seconds N]
//! ```
//!
//! Prints `OPS_ADDR=<ip:port>` as soon as the endpoint is up (CI curls
//! it), one request's full span tree — admission → batch fusion → the
//! fused forward with its mapping and head timings — and the drift readout.
//! `--serve-seconds N` keeps the process (and the endpoint) alive for N
//! extra seconds after the load so external scrapers can poke it.

use prionn::core::{Prionn, PrionnConfig, TrainingBatch};
use prionn::observe::{
    render_trace_tree, DriftConfig, DriftMonitor, FlightConfig, FlightRecorder, OpsOptions,
    OpsServer, Readiness, Tracer,
};
use prionn::serve::{Gateway, GatewayConfig, ServeError};
use prionn::telemetry::Telemetry;
use prionn::workload::{Trace, TraceConfig, TracePreset};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 30;

fn main() {
    let serve_seconds: u64 = std::env::args()
        .skip_while(|a| a != "--serve-seconds")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    // 1. A synthetic workload and an initially-trained model.
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 160));
    let jobs: Vec<_> = trace.executed_jobs().collect();
    let scripts: Vec<String> = jobs.iter().map(|j| j.script.clone()).collect();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();
    let reads: Vec<f64> = jobs.iter().map(|j| j.bytes_read).collect();
    let writes: Vec<f64> = jobs.iter().map(|j| j.bytes_written).collect();

    let cfg = PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 64,
        io_bins: 16,
        epochs: 1,
        batch_size: 32,
        ..Default::default()
    };
    let mut model = Prionn::new(cfg, &refs).unwrap();
    model.retrain(&refs, &runtimes, &reads, &writes).unwrap();

    // 2. The observability stack: one registry, one flight recorder (panic
    //    hook armed), one tracer, one drift monitor — shared by everything.
    let telemetry = Telemetry::default();
    let recorder = FlightRecorder::new(FlightConfig {
        // Room for every span of the demo's load, so the printed trees are
        // complete (production keeps the default and accepts eviction).
        per_thread_capacity: 16384,
        ..FlightConfig::default()
    });
    recorder.attach_telemetry(&telemetry);
    recorder.set_dump_dir(std::env::temp_dir().join("prionn-observe-demo"));
    recorder.install_panic_hook();
    let tracer = Tracer::new(&recorder);
    let drift = DriftMonitor::new(
        &telemetry,
        DriftConfig {
            min_samples: 16,
            ..DriftConfig::default()
        },
    );

    // 3. The gateway, traced and drift-monitored.
    let gateway = Arc::new(
        Gateway::spawn(
            model,
            GatewayConfig {
                replicas: 2,
                max_batch: CLIENTS,
                max_wait: Duration::from_micros(500),
                queue_cap: 64,
                telemetry: Some(telemetry.clone()),
                tracer: Some(tracer.clone()),
                drift: Some(drift.clone()),
                ..GatewayConfig::default()
            },
        )
        .unwrap(),
    );

    // 4. The ops endpoint: readiness reflects live replicas + queue depth.
    let probe_gw = Arc::clone(&gateway);
    let ops = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            telemetry: Some(telemetry.clone()),
            recorder: Some(recorder.clone()),
            drift: Some(drift.clone()),
            readiness: Some(Arc::new(move || {
                let (ready, detail) = probe_gw.readiness();
                Readiness { ready, detail }
            })),
            json_routes: Vec::new(),
            fleet: None,
            max_traces: 64,
        },
    )
    .unwrap();
    println!("OPS_ADDR={}", ops.addr());

    // 5. Concurrent load with mid-traffic retrains. Each completed request
    //    is scored against its job's true usage — that feed is what moves
    //    the drift gauges.
    let started = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let gateway = &gateway;
                let scripts = &scripts;
                let (runtimes, reads, writes) = (&runtimes, &reads, &writes);
                s.spawn(move || {
                    for r in 0..REQUESTS_PER_CLIENT {
                        let idx = (c * 13 + r) % scripts.len();
                        let one = std::slice::from_ref(&scripts[idx]);
                        match gateway.predict_detailed(one, None) {
                            Ok(reply) => {
                                // The job "completes": truth arrives.
                                gateway.record_outcome(
                                    &reply.predictions[0],
                                    runtimes[idx],
                                    reads[idx],
                                    writes[idx],
                                );
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                std::thread::sleep(Duration::from_micros(200))
                            }
                            Err(e) => panic!("predict failed: {e}"),
                        }
                    }
                })
            })
            .collect();

        // Three completed-job windows land mid-traffic; each successful
        // retrain hot-swaps the replicas and marks the weights fresh.
        for window in 0..3 {
            let lo = (window * 32) % scripts.len();
            let hi = (lo + 32).min(scripts.len());
            gateway.retrain_async(TrainingBatch {
                scripts: scripts[lo..hi].to_vec(),
                runtime_minutes: runtimes[lo..hi].to_vec(),
                read_bytes: reads[lo..hi].to_vec(),
                write_bytes: writes[lo..hi].to_vec(),
            });
            std::thread::sleep(Duration::from_millis(10));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs(30);
    while gateway.stats().retrains_pending > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = gateway.stats();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!("=== observe_demo ===");
    println!(
        "{total} requests from {CLIENTS} clients in {wall:.2} s  ->  {:.0} req/s  |  retrains: {} done, epoch {}",
        total as f64 / wall,
        stats.retrains_done,
        gateway.epoch(),
    );

    // 6. One request, end to end: its own trace (admission → queue wait →
    //    fused stage) and the shared fused forward it rode, with its `map`
    //    and `head:<name>` timings. The `-> link` annotations are the fan-in
    //    edges.
    let spans = recorder.snapshot();
    if let Some(sample) = spans
        .iter()
        .rfind(|s| s.name == "fused" && !s.links.is_empty())
    {
        println!(
            "\n--- one request's span tree (trace {}) ---",
            sample.trace_id
        );
        print!("{}", render_trace_tree(&spans, sample.trace_id));
        let fused_trace = sample.links[0].trace_id;
        println!("--- the fused forward it joined (trace {fused_trace}) ---");
        print!("{}", render_trace_tree(&spans, fused_trace));
    }

    // 7. The drift readout an operator would alert on.
    println!("\n--- drift ---");
    println!("{}", drift.snapshot().render());

    // 8. The observe-specific metric surface.
    println!("--- prometheus (drift_* series) ---");
    for line in telemetry.prometheus().lines() {
        if line.contains("drift_") && !line.starts_with('#') {
            println!("{line}");
        }
    }

    if serve_seconds > 0 {
        println!("\nserving ops endpoint for {serve_seconds}s more (ctrl-c to stop) ...");
        std::thread::sleep(Duration::from_secs(serve_seconds));
    }
    ops.shutdown();
    gateway.shutdown();
}
