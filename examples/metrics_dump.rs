//! Dump the full telemetry surface: run a short train/predict session
//! through a [`Gateway`], then print both export formats (Prometheus text
//! exposition and JSON).
//!
//! ```text
//! cargo run --release --example metrics_dump
//! ```
//!
//! The output includes per-layer forward/backward timings
//! (`nn_layer_forward_seconds` / `nn_layer_backward_seconds`), the
//! retrain counters and histograms, and the predict-latency histogram with p50/p90/p99 estimates in the JSON
//! view. `docs/OBSERVABILITY.md` documents every metric that appears here.

use prionn::core::{Prionn, PrionnConfig, TrainingBatch};
use prionn::serve::{Gateway, GatewayConfig};
use prionn::telemetry::Telemetry;
use prionn::workload::{Trace, TraceConfig, TracePreset};

fn main() {
    // One registry shared by the gateway and the models inside it — exactly
    // how an operator would wire a scrape endpoint.
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
    for chunk in incoming.chunks(8) {
        let scripts: Vec<String> = chunk.iter().map(|j| j.script.clone()).collect();
        gateway.predict(&scripts).expect("predict");
    }

    // 5. Both export formats, from the same registry.
    println!(
        "\n== prometheus text exposition ==\n{}",
        telemetry.prometheus()
    );
    println!("== json snapshot ==\n{}", telemetry.json());

    gateway.shutdown();
}
