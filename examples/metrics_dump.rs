//! Dump the full telemetry surface: run a short train/predict session
//! through a [`Gateway`] and the instrumented cluster simulator, then
//! print the span-event log and both export formats (Prometheus text
//! exposition and JSON).
//!
//! ```text
//! cargo run --release --example metrics_dump
//! ```
//!
//! The output includes per-layer forward/backward timings
//! (`nn_layer_forward_seconds` / `nn_layer_backward_seconds`), the
//! predict-latency histogram with p50/p90/p99 estimates in the JSON view,
//! and the scheduler work counters. `docs/OBSERVABILITY.md` documents every
//! metric that appears here.

use prionn::core::{Prionn, PrionnConfig, TrainingBatch};
use prionn::sched::{simulate_with_telemetry, SimJob};
use prionn::serve::{Gateway, GatewayConfig};
use prionn::telemetry::Telemetry;
use prionn::workload::{Trace, TraceConfig, TracePreset};

fn main() {
    // One registry shared by the gateway, the models inside it, and the
    // simulator — exactly how an operator would wire a scrape endpoint.
    let telemetry = Telemetry::default();

    // 1. A small synthetic workload (stand-in for a live submission stream).
    let mut trace_cfg = TraceConfig::preset(TracePreset::CabLike, 200);
    trace_cfg.n_users = 25;
    let trace = Trace::generate(&trace_cfg);
    let jobs: Vec<_> = trace.executed_jobs().collect();
    let corpus: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();

    // 2. The gateway, sized so the example finishes in seconds on one core.
    let cfg = PrionnConfig {
        grid: (32, 32),
        base_width: 2,
        runtime_bins: 120,
        io_bins: 32,
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    let model = Prionn::new(cfg, &corpus).expect("build model");
    let gateway_cfg = GatewayConfig {
        replicas: 1,
        telemetry: Some(telemetry.clone()),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::spawn(model, gateway_cfg).expect("spawn gateway");

    // 3. One retraining event fills the backward-pass timers and the
    //    retrain histogram; the snapshot queues behind it on the trainer
    //    thread, so waiting for the file is waiting for the retrain ...
    let (history, incoming) = jobs.split_at(jobs.len() - 40);
    gateway.retrain_async(TrainingBatch {
        scripts: history.iter().map(|j| j.script.clone()).collect(),
        runtime_minutes: history.iter().map(|j| j.runtime_minutes()).collect(),
        read_bytes: history.iter().map(|j| j.bytes_read).collect(),
        write_bytes: history.iter().map(|j| j.bytes_written).collect(),
    });

    let snapshot = std::env::temp_dir().join("prionn_metrics_dump.ckpt");
    gateway.snapshot(&snapshot).expect("snapshot");
    let _ = std::fs::remove_file(&snapshot);

    // 4. ... then a stream of predicts fills the latency histograms.
    let mut predicted_minutes = Vec::with_capacity(incoming.len());
    for chunk in incoming.chunks(8) {
        let scripts: Vec<String> = chunk.iter().map(|j| j.script.clone()).collect();
        let preds = gateway.predict(&scripts).expect("predict");
        predicted_minutes.extend(preds.iter().map(|p| p.runtime_minutes));
    }

    // 5. Feed the predictions into the instrumented cluster simulator so
    //    the sched_* counters are populated too.
    let sim_jobs: Vec<SimJob> = incoming
        .iter()
        .zip(&predicted_minutes)
        .map(|(j, mins)| SimJob {
            id: j.id,
            submit: j.submit_time,
            nodes: j.nodes,
            runtime: j.runtime_seconds,
            estimate: (mins * 60.0).max(1.0) as u64,
        })
        .collect();
    let schedule = simulate_with_telemetry(64, &sim_jobs, &telemetry);
    println!(
        "simulated {} predicted jobs; makespan {} s",
        schedule.entries.len(),
        schedule.entries.iter().map(|e| e.end).max().unwrap_or(0)
    );

    // 6. The structured event log: timestamped spans for retrains, weight
    //    swaps and snapshots.
    println!("\n== span events ==");
    for ev in telemetry.events().drain() {
        println!(
            "  +{:>8} us  {:<10} {:>8} us  {}",
            ev.at_micros, ev.name, ev.duration_micros, ev.detail
        );
    }

    // 7. Both export formats, from the same registry.
    println!(
        "\n== prometheus text exposition ==\n{}",
        telemetry.prometheus()
    );
    println!("== json snapshot ==\n{}", telemetry.json());

    gateway.shutdown();
}
