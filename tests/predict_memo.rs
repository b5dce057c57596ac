//! `Prionn::predict` answers a script it has already answered from memory.
//! These tests pin that such an answer is never a stale one: a gateway
//! that served a set of scripts serves the new weights' answers after a
//! hot-swap, and the online protocol, which retrains mid-run, gives the bits
//! of a model that remembers nothing.

use prionn::core::{run_online_prionn, OnlineConfig, Prionn, PrionnConfig, ResourcePrediction};
use prionn::serve::{Gateway, GatewayConfig};
use prionn::telemetry::Telemetry;
use prionn::workload::{JobRecord, Trace, TraceConfig, TracePreset};

fn tiny_cfg() -> PrionnConfig {
    PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 32,
        io_bins: 16,
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    }
}

fn executed_jobs(n: usize) -> Vec<JobRecord> {
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, n));
    trace.executed_jobs().cloned().collect()
}

/// Retrain `model` on `jobs`, with runtimes passed through `runtime`.
fn retrain(model: &mut Prionn, jobs: &[JobRecord], runtime: impl Fn(f64) -> f64) {
    let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
    let runtimes: Vec<f64> = jobs.iter().map(|j| runtime(j.runtime_minutes())).collect();
    let reads: Vec<f64> = jobs.iter().map(|j| j.bytes_read).collect();
    let writes: Vec<f64> = jobs.iter().map(|j| j.bytes_written).collect();
    model.retrain(&scripts, &runtimes, &reads, &writes).unwrap();
}

/// Every field's bits, so a NaN or a signed zero cannot hide a mismatch.
fn bits(preds: &[ResourcePrediction]) -> Vec<[u64; 3]> {
    preds
        .iter()
        .map(|p| {
            [
                p.runtime_minutes.to_bits(),
                p.read_bytes.to_bits(),
                p.write_bytes.to_bits(),
            ]
        })
        .collect()
}

#[test]
fn a_hot_swapped_gateway_serves_the_new_weights_answers() {
    let jobs = executed_jobs(60);
    let all: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
    let mut master = Prionn::new(tiny_cfg(), &all).unwrap();
    retrain(&mut master, &jobs, |m| m);
    let gateway = Gateway::spawn(
        master.fork_replica().unwrap(),
        GatewayConfig {
            replicas: 1,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let scripts: Vec<String> = jobs.iter().take(12).map(|j| j.script.clone()).collect();
    let refs: Vec<&str> = scripts.iter().map(String::as_str).collect();
    let before = gateway.predict(&scripts).unwrap();
    assert_eq!(bits(&gateway.predict(&scripts).unwrap()), bits(&before));

    for _ in 0..2 {
        retrain(&mut master, &jobs, |m| (m * 3.0 + 60.0).min(900.0));
    }
    gateway.hot_swap(&master).unwrap();
    let after = bits(&gateway.predict(&scripts).unwrap());
    let mut restored = Prionn::from_checkpoint(&master.to_checkpoint().unwrap()).unwrap();
    assert_eq!(after, bits(&restored.predict(&refs).unwrap()));
    assert_ne!(after, bits(&before), "the retrain must move some answer");
    assert!(gateway.last_error().is_none(), "{:?}", gateway.last_error());
    gateway.shutdown();
}

#[test]
fn online_protocol_gives_the_bits_of_a_model_that_remembers_nothing() {
    // Space submissions past the longest runtime: every job completes
    // before the next arrives, so the protocol's training window at job `i`
    // is simply the jobs before it.
    let mut jobs = executed_jobs(120);
    let gap = jobs.iter().map(|j| j.runtime_seconds).max().unwrap() + 1;
    for (i, job) in jobs.iter_mut().enumerate() {
        job.submit_time = i as u64 * gap;
    }
    let telemetry = Telemetry::default();
    let cfg = OnlineConfig {
        train_window: 40,
        retrain_every: 25,
        min_history: 20,
        telemetry: Some(telemetry.clone()),
        prionn: tiny_cfg(),
        ..OnlineConfig::default()
    };
    let served = run_online_prionn(&jobs, &cfg).unwrap();
    assert_eq!(served.len(), jobs.len());
    let hits = telemetry.counter("prionn_predict_memo_hits_total", "");
    assert!(hits.value() > 0, "the trace's resubmissions never hit");

    // The same protocol with a fresh replica, memory empty, per predict.
    let corpus: Vec<&str> = jobs.iter().take(200).map(|j| j.script.as_str()).collect();
    let mut model = Prionn::new(cfg.prionn.clone(), &corpus).unwrap();
    let (mut trained, mut since_retrain) = (false, 0);
    for (i, job) in jobs.iter().enumerate() {
        if i >= cfg.min_history && (!trained || since_retrain >= cfg.retrain_every) {
            retrain(
                &mut model,
                &jobs[i.saturating_sub(cfg.train_window)..i],
                |m| m,
            );
            (trained, since_retrain) = (true, 0);
        }
        assert_eq!(served[i].model_trained, trained, "job {i}");
        if trained {
            let mut fresh = model.fork_replica().unwrap();
            let want = fresh.predict(&[job.script.as_str()]).unwrap();
            let got = ResourcePrediction {
                runtime_minutes: served[i].runtime_minutes,
                read_bytes: served[i].read_bytes,
                write_bytes: served[i].write_bytes,
            };
            assert_eq!(bits(&[got]), bits(&want), "job {i}");
        }
        since_retrain += 1;
    }
}
