//! Criterion bench for the persistence subsystem: serialising a trained
//! predictor to its checkpoint container, parsing it back, and the full
//! save/load disk round trip. These set the budget for the service's
//! periodic snapshots — a snapshot runs on the worker thread between
//! retrains, so it must stay far cheaper than one retraining event.
//!
//! The `predict` group measures telemetry overhead on the hot path: the
//! same forward pass with and without an attached registry. The budget is
//! ≤5% — see the overhead discussion in `DESIGN.md` §10.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use prionn_bench::support::distinct_script;
use prionn_core::{Prionn, PrionnConfig};
use prionn_store::Checkpoint;
use prionn_telemetry::Telemetry;
use prionn_workload::{Trace, TraceConfig, TracePreset};

fn trained_model() -> Prionn {
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 80));
    let jobs: Vec<_> = trace.executed_jobs().collect();
    let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
    let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();
    let reads: Vec<f64> = jobs.iter().map(|j| j.bytes_read).collect();
    let writes: Vec<f64> = jobs.iter().map(|j| j.bytes_written).collect();
    let cfg = PrionnConfig {
        base_width: 2,
        runtime_bins: 96,
        io_bins: 24,
        epochs: 1,
        ..Default::default()
    };
    let mut model = Prionn::new(cfg, &scripts).unwrap();
    model.retrain(&scripts, &runtimes, &reads, &writes).unwrap();
    model
}

fn bench_checkpoint(c: &mut Criterion) {
    let model = trained_model();
    let bytes = model.to_checkpoint().unwrap().to_bytes();
    let path = std::env::temp_dir().join(format!("prionn-bench-{}.ckpt", std::process::id()));

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes.len() as u64));

    group.bench_function("encode", |b| {
        b.iter(|| model.to_checkpoint().unwrap().to_bytes());
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let ck = Checkpoint::from_bytes(&bytes).unwrap();
            Prionn::from_checkpoint(&ck).unwrap()
        });
    });
    group.bench_function("save_to_disk", |b| {
        b.iter(|| model.save(&path).unwrap());
    });
    group.bench_function("load_from_disk", |b| {
        b.iter(|| Prionn::load(&path).unwrap());
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_predict_telemetry_overhead(c: &mut Criterion) {
    let mut model = trained_model();
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 40));
    let corpus: Vec<String> = trace
        .executed_jobs()
        .take(16)
        .map(|j| j.script.clone())
        .collect();
    // Every iteration forwards 16 scripts the model has not answered yet.
    let mut sent = 0;
    let mut predict_fresh = |model: &mut Prionn| {
        let batch: Vec<String> = (sent..sent + corpus.len())
            .map(|n| distinct_script(&corpus, n))
            .collect();
        sent += corpus.len();
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        model.predict(&refs).unwrap()
    };

    let mut group = c.benchmark_group("predict");
    group.sample_size(20);
    group.throughput(Throughput::Elements(corpus.len() as u64));

    group.bench_function("uninstrumented", |b| {
        b.iter(|| predict_fresh(&mut model));
    });
    let registry = Telemetry::default();
    model.set_telemetry(&registry);
    group.bench_function("instrumented", |b| {
        b.iter(|| predict_fresh(&mut model));
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint, bench_predict_telemetry_overhead);
criterion_main!(benches);
