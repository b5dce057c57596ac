//! End-to-end gateway tests: fused batching correctness, atomic hot-swap
//! under fire, background retrain with the latest-wins queue, and the
//! Prometheus metric surface.

use std::time::{Duration, Instant};

use prionn_core::{Prionn, PrionnConfig, TrainingBatch};
use prionn_serve::{Gateway, GatewayConfig, ServeError};
use prionn_telemetry::Telemetry;

fn tiny_cfg() -> PrionnConfig {
    PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 8,
        io_bins: 4,
        epochs: 2,
        batch_size: 32,
        lr: 3e-3,
        ..Default::default()
    }
}

/// Two visually distinct script families (the paper's whole-script inputs).
fn corpus() -> Vec<String> {
    let mut scripts = Vec::new();
    for i in 0..8 {
        scripts.push(format!(
            "#!/bin/bash\n#SBATCH -N 2\nsrun ./short_app run{i}\n"
        ));
        scripts.push(format!(
            "#!/bin/bash\n#SBATCH -N 64\nmodule load big\nsrun ./long_app case{i}\nsync\n"
        ));
    }
    scripts
}

fn trained_model(rounds: usize) -> Prionn {
    let scripts = corpus();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let mut model = Prionn::new(tiny_cfg(), &refs).unwrap();
    let runtimes: Vec<f64> = (0..refs.len())
        .map(|i| if i % 2 == 0 { 100.0 } else { 800.0 })
        .collect();
    let reads: Vec<f64> = (0..refs.len())
        .map(|i| if i % 2 == 0 { 1e7 } else { 1e12 })
        .collect();
    let writes = reads.clone();
    for _ in 0..rounds {
        model.retrain(&refs, &runtimes, &reads, &writes).unwrap();
    }
    model
}

fn retrain_batch(flip: bool) -> TrainingBatch {
    let scripts = corpus();
    let n = scripts.len();
    let hi = if flip { 100.0 } else { 800.0 };
    let lo = if flip { 800.0 } else { 100.0 };
    TrainingBatch {
        scripts,
        runtime_minutes: (0..n).map(|i| if i % 2 == 0 { lo } else { hi }).collect(),
        read_bytes: vec![1e9; n],
        write_bytes: vec![1e9; n],
    }
}

/// Micro-batched answers must be bit-identical to serial, batch-1 answers
/// from an equivalent model: fusion is a latency/throughput optimisation,
/// never a numerical one. Eight concurrent clients hammer one replica so
/// requests genuinely coalesce.
#[test]
fn fused_batches_match_serial_predictions_bitwise() {
    let model = trained_model(2);
    let mut reference = model.fork_replica().unwrap();
    let scripts = corpus();
    let gw = Gateway::spawn(
        model,
        GatewayConfig {
            replicas: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    let expected: Vec<_> = scripts
        .iter()
        .map(|s| reference.predict(&[s.as_str()]).unwrap()[0])
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let gw = &gw;
                let scripts = &scripts;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for round in 0..4 {
                        let idx = (c + round * 3) % scripts.len();
                        let reply = gw
                            .predict_detailed(std::slice::from_ref(&scripts[idx]), None)
                            .unwrap();
                        assert_eq!(reply.epoch, 0, "no swap was ever published");
                        got.push((idx, reply.predictions[0]));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (idx, pred) in h.join().unwrap() {
                assert_eq!(
                    pred, expected[idx],
                    "fused prediction for script {idx} diverged from serial"
                );
            }
        }
    });

    let stats = gw.stats();
    assert_eq!(stats.requests_admitted, 32);
    assert_eq!(stats.scripts_predicted, 32);
    gw.shutdown();
}

/// The acceptance-criteria torn-model test: clients hammer the gateway
/// while weights are hot-swapped back and forth between two differently
/// trained models. Every reply must be bitwise-identical to one model or
/// the other — a half-applied swap would produce predictions matching
/// neither — and the reply's epoch tag must identify which one.
#[test]
fn hot_swap_never_exposes_a_torn_model() {
    let model_a = trained_model(2);
    let mut a_copy = model_a.fork_replica().unwrap();
    // Model B: same architecture, visibly different weights (trained
    // further with inverted targets).
    let mut model_b = model_a.fork_replica().unwrap();
    {
        let batch = retrain_batch(true);
        let refs: Vec<&str> = batch.scripts.iter().map(|s| s.as_str()).collect();
        for _ in 0..2 {
            model_b
                .retrain(
                    &refs,
                    &batch.runtime_minutes,
                    &batch.read_bytes,
                    &batch.write_bytes,
                )
                .unwrap();
        }
    }

    let scripts = corpus();
    let probe = vec![scripts[0].clone(), scripts[1].clone()];
    let probe_refs: Vec<&str> = probe.iter().map(|s| s.as_str()).collect();
    let ref_a = a_copy.predict(&probe_refs).unwrap();
    let ref_b = model_b.predict(&probe_refs).unwrap();
    assert_ne!(ref_a, ref_b, "models must be distinguishable for this test");

    let gw = Gateway::spawn(
        model_a,
        GatewayConfig {
            replicas: 2,
            max_batch: 4,
            max_wait: Duration::from_micros(500),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    std::thread::scope(|s| {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let gw = &gw;
                let probe = &probe;
                let ref_a = &ref_a;
                let ref_b = &ref_b;
                s.spawn(move || {
                    for _ in 0..40 {
                        let reply = gw.predict_detailed(probe, None).unwrap();
                        // Swaps alternate B (odd epochs) and A (even
                        // epochs); epoch 0 is the spawn weights, i.e. A.
                        let want = if reply.epoch % 2 == 1 { ref_b } else { ref_a };
                        assert_eq!(
                            &reply.predictions, want,
                            "torn or mislabelled model at epoch {}",
                            reply.epoch
                        );
                    }
                })
            })
            .collect();

        // Swap while the clients are in flight.
        for _ in 0..10 {
            gw.hot_swap(&model_b).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            gw.hot_swap(&a_copy).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        for c in clients {
            c.join().unwrap();
        }
    });

    assert_eq!(gw.epoch(), 20);
    assert!(
        gw.stats().swaps_applied > 0,
        "no replica ever applied a swap — the test exercised nothing"
    );
    assert!(gw.last_error().is_none(), "{:?}", gw.last_error());
    gw.shutdown();
}

/// Background retrains go through the latest-wins bounded queue, publish a
/// fresh epoch on success, and replicas pick the new weights up before
/// their next batch.
#[test]
fn background_retrain_publishes_and_replicas_catch_up() {
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            retrain_queue_cap: 1,
            max_wait: Duration::from_micros(200),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    // Flood the depth-1 queue: the latest-wins policy must drop some
    // batches and account for every one of them.
    for i in 0..3 {
        gw.retrain_async(retrain_batch(i % 2 == 0));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while gw.stats().retrains_pending > 0 {
        assert!(Instant::now() < deadline, "trainer never drained the queue");
        std::thread::sleep(Duration::from_millis(5));
    }

    let done = gw.stats().retrains_done;
    let dropped = gw.stats().retrains_dropped;
    assert_eq!(done + dropped, 3, "done={done} dropped={dropped}");
    assert!(done >= 1 && dropped >= 1, "done={done} dropped={dropped}");
    assert_eq!(gw.epoch() as usize, done, "one epoch per completed retrain");

    // The next prediction must already run on the retrained weights.
    let scripts = corpus();
    let reply = gw.predict_detailed(&scripts[..1], None).unwrap();
    assert_eq!(reply.epoch as usize, done);
    assert!(gw.last_error().is_none(), "{:?}", gw.last_error());
    gw.shutdown();
}

/// A published epoch reaches an idle replica with no request in flight,
/// from either publisher: the swap counter moves while nothing is queued,
/// and the next reply is served on that epoch without another apply. The
/// wake that carried it is not a request: no batch, no queue wait.
#[test]
fn an_idle_replica_applies_a_published_epoch_with_no_request_in_flight() {
    let mut donor = trained_model(3);
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            max_wait: Duration::from_micros(200),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let applied_within = |want: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while gw.stats().swaps_applied < want {
            assert!(Instant::now() < deadline, "no idle apply of epoch {want}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let epoch = gw.hot_swap(&donor).unwrap();
    applied_within(1);
    let stats = gw.stats();
    assert_eq!((stats.requests_admitted, stats.batches_served), (0, 0));

    let scripts = corpus();
    let refs: Vec<&str> = scripts[..2].iter().map(|s| s.as_str()).collect();
    let reply = gw.predict_detailed(&scripts[..2], None).unwrap();
    assert_eq!(reply.epoch, epoch);
    assert_eq!(reply.predictions, donor.predict(&refs).unwrap());
    assert_eq!(
        gw.stats().swaps_applied,
        1,
        "the batch found the epoch applied"
    );

    // The trainer's publish wakes the replica the same way.
    gw.retrain_async(retrain_batch(true));
    applied_within(2);
    assert_eq!(gw.epoch(), 2);
    let reply = gw.predict_detailed(&scripts[..2], None).unwrap();
    assert_eq!(reply.epoch, 2);
    assert_eq!(gw.stats().swaps_applied, 2);

    let text = gw.telemetry().prometheus();
    assert!(text.contains("serve_batches_total 2"), "{text}");
    assert!(text.contains("serve_queue_wait_seconds_count 2"), "{text}");
    assert!(text.contains("serve_queue_depth 0"), "{text}");
    assert!(
        text.contains("serve_swaps_applied_total{replica=\"0\"} 2"),
        "{text}"
    );
    assert!(gw.last_error().is_none(), "{:?}", gw.last_error());
    gw.shutdown();
}

/// A wake never takes a request's place: at `queue_cap: 1`, publishes in
/// step with requests and a burst of them from another thread shed
/// nothing, and shutting down with a wake still queued returns.
#[test]
fn wakes_never_shed_a_request_at_queue_cap_one() {
    let donor = trained_model(2);
    let weights = donor.weights_checkpoint().unwrap();
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            queue_cap: 1,
            max_wait: Duration::from_micros(100),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let scripts = corpus();
    for i in 0..20 {
        gw.hot_swap(&donor).unwrap();
        let reply = gw.predict_detailed(&scripts[i % 16..][..1], None).unwrap();
        assert!(
            reply.epoch >= 1,
            "request {i} ran before the epoch it followed"
        );
    }
    std::thread::scope(|s| {
        let burst = s.spawn(|| {
            for _ in 0..200 {
                gw.hot_swap_checkpoint(weights.clone());
            }
        });
        for i in 0..60 {
            gw.predict(&scripts[i % 16..][..1])
                .unwrap_or_else(|e| panic!("request {i} refused: {e}"));
        }
        burst.join().unwrap();
    });
    assert_eq!(gw.stats().requests_shed_overload, 0);
    assert_eq!(gw.stats().requests_admitted, 80);
    assert_eq!(gw.queue_depth(), 0);

    gw.hot_swap_checkpoint(weights);
    gw.shutdown();
    assert_eq!(gw.predict(&scripts[..1]).unwrap_err(), ServeError::Stopped);
}

/// A hot-swap whose architecture does not match is rejected whole: the
/// replica keeps serving its spawn weights and reports the rejection, once
/// per published epoch however many batches and wakes follow it.
#[test]
fn mismatched_hot_swap_is_rejected_not_applied() {
    use prionn_observe::{FlightConfig, FlightRecorder, Tracer};

    let model = trained_model(1);
    let mut reference = model.fork_replica().unwrap();
    let scripts = corpus();
    let expected = reference
        .predict(&[scripts[0].as_str(), scripts[1].as_str()])
        .unwrap();

    // A donor with a different architecture (wider model).
    let donor = {
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let cfg = PrionnConfig {
            base_width: 4,
            ..tiny_cfg()
        };
        Prionn::new(cfg, &refs).unwrap()
    };

    let rec = FlightRecorder::new(FlightConfig::default());
    let gw = Gateway::spawn(
        model,
        GatewayConfig {
            replicas: 1,
            max_wait: Duration::from_micros(200),
            tracer: Some(Tracer::new(&rec)),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let rejections = || {
        rec.snapshot()
            .iter()
            .filter(|s| s.name == "weight_swap" && s.detail == "rejected")
            .count()
    };
    for published in 1..=2u64 {
        assert_eq!(gw.hot_swap(&donor).unwrap(), published);
        for _ in 0..3 {
            let reply = gw.predict_detailed(&scripts[..2], None).unwrap();
            // The swap was rejected: epoch stays at the spawn weights and
            // the predictions are untouched.
            assert_eq!(reply.epoch, 0);
            assert_eq!(reply.predictions, expected);
        }
        // The wake and the three batches met the epoch; one checked it.
        assert_eq!(rejections(), published as usize, "epoch {published}");
    }
    let err = gw.last_error().expect("rejection must be reported");
    assert!(err.contains("hot-swap rejected"), "{err}");
    assert_eq!(gw.stats().swaps_applied, 0);
    gw.shutdown();
}

/// Request-scoped tracing across micro-batch fusion: N concurrent predicts
/// coalesced into shared forward passes must each yield a complete span
/// tree (admission → queued → fused) under a *distinct* trace id, with the
/// shared fused-forward span linked from every participating request.
#[test]
fn concurrent_fused_predictions_carry_complete_linked_span_trees() {
    use prionn_observe::{FlightConfig, FlightRecorder, Tracer};

    let rec = FlightRecorder::new(FlightConfig::default());
    let tracer = Tracer::new(&rec);
    let scripts = corpus();
    const CLIENTS: usize = 4;
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            max_batch: CLIENTS,
            // A generous linger so concurrently submitted requests reliably
            // coalesce into one fused batch.
            max_wait: Duration::from_millis(50),
            tracer: Some(tracer.clone()),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let gw = &gw;
                let scripts = &scripts;
                s.spawn(move || gw.predict_detailed(std::slice::from_ref(&scripts[c]), None))
            })
            .collect();
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });
    gw.shutdown();

    let spans = rec.snapshot();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "predict").collect();
    assert_eq!(roots.len(), CLIENTS, "one root span per request");
    let mut trace_ids: Vec<u64> = roots.iter().map(|r| r.trace_id).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), CLIENTS, "trace ids must be distinct");

    // Every request's tree is complete: admission, queue wait, and the
    // fused stage all recorded under the caller's trace.
    let mut fused_targets: Vec<u64> = Vec::new();
    for root in &roots {
        for stage in ["admission", "queued", "fused"] {
            let span = spans
                .iter()
                .find(|s| s.trace_id == root.trace_id && s.name == stage)
                .unwrap_or_else(|| panic!("missing `{stage}` span in trace {}", root.trace_id));
            assert_eq!(span.parent_id, root.span_id, "`{stage}` hangs off the root");
            if stage == "fused" {
                assert_eq!(span.links.len(), 1, "fused stage links the shared batch");
                fused_targets.push(span.links[0].span_id);
            }
        }
    }
    // At least two requests must have coalesced into the *same* fused
    // forward pass — their link targets coincide.
    fused_targets.sort_unstable();
    let distinct_batches = {
        let mut t = fused_targets.clone();
        t.dedup();
        t.len()
    };
    assert!(
        distinct_batches < CLIENTS,
        "no coalescing observed: {fused_targets:?}"
    );

    // The fused forward passes are their own traces, linking back to every
    // participating caller, with per-layer spans nested beneath them.
    let fused_roots: Vec<_> = spans.iter().filter(|s| s.name == "fused_forward").collect();
    assert!(!fused_roots.is_empty());
    let linked_callers: usize = fused_roots.iter().map(|f| f.links.len()).sum();
    assert_eq!(linked_callers, CLIENTS, "every caller linked from a batch");
    for f in &fused_roots {
        for link in &f.links {
            assert!(
                trace_ids.binary_search(&link.trace_id).is_ok(),
                "fused_forward links an unknown trace"
            );
        }
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == f.trace_id && s.name.starts_with("layer:")),
            "no per-layer spans under fused_forward"
        );
    }
}

/// The gateway's metric surface: every serve_* series must appear in the
/// Prometheus text export with the documented names and labels.
#[test]
fn prometheus_export_carries_the_serve_metric_surface() {
    let telemetry = Telemetry::new();
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            queue_cap: 1,
            max_wait: Duration::from_micros(200),
            telemetry: Some(telemetry.clone()),
            ..GatewayConfig::default()
        },
    )
    .unwrap();

    let scripts = corpus();
    gw.predict(&scripts[..2]).unwrap();
    gw.retrain_async(retrain_batch(false));
    let deadline = Instant::now() + Duration::from_secs(60);
    while gw.stats().retrains_pending > 0 {
        assert!(Instant::now() < deadline, "trainer never drained the queue");
        std::thread::sleep(Duration::from_millis(5));
    }
    // One shed via an already-expired deadline.
    let err = gw
        .predict_detailed(&scripts[..1], Some(Duration::ZERO))
        .unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);

    let text = gw.telemetry().prometheus();
    for series in [
        "# TYPE serve_predict_seconds histogram",
        "# TYPE serve_queue_wait_seconds histogram",
        "# TYPE serve_batch_scripts histogram",
        "# TYPE serve_retrain_seconds histogram",
        "# TYPE serve_requests_total counter",
        "# TYPE serve_batches_total counter",
        "# TYPE serve_shed_total counter",
        "# TYPE serve_retrains_dropped_total counter",
        "# TYPE serve_replica_panics_total counter",
        "# TYPE serve_swaps_applied_total counter",
        "# TYPE serve_queue_depth gauge",
        "# TYPE serve_swap_epoch gauge",
        "# TYPE serve_retrain_queue_depth gauge",
        r#"serve_shed_total{reason="overloaded"} 0"#,
        r#"serve_shed_total{reason="deadline"} 1"#,
        r#"serve_swaps_applied_total{replica="0"}"#,
        "serve_predict_seconds_bucket",
        "serve_batch_scripts_sum",
        "serve_swap_epoch 1",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
    // The shared registry also carries the model-level metrics, proving
    // the replicas report into the same export.
    assert!(text.contains("prionn_predict_seconds"), "{text}");
    gw.shutdown();
}

/// Nice value of every thread of this process whose name starts with
/// `prefix` (Linux truncates thread names to 15 bytes).
#[cfg(target_os = "linux")]
fn nice_of_threads(prefix: &str) -> Vec<i64> {
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap_or_default();
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter(|task| read(task.path().join("comm")).starts_with(prefix))
        .filter_map(|task| {
            // The name is in parentheses and may hold spaces: count fields
            // from the closing one. `nice` is field 19, the 17th after it.
            let stat = read(task.path().join("stat"));
            let (_, rest) = stat.rsplit_once(')')?;
            rest.split_whitespace().nth(16)?.parse().ok()
        })
        .collect()
}

/// Spare CPU goes to training and a request never waits on it: the trainer
/// runs at nice 19, the replicas and the compute pool at nice 0.
#[cfg(target_os = "linux")]
#[test]
fn the_trainer_yields_the_cpu_to_the_request_path() {
    let gw = Gateway::spawn(
        trained_model(1),
        GatewayConfig {
            replicas: 1,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    // The trainer lowers itself as it starts, which may not have happened
    // yet (nor in another test's gateway).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let trainers = nice_of_threads("prionn-serve-tr");
        if !trainers.is_empty() && trainers.iter().all(|&nice| nice == 19) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "trainer nice values {trainers:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let replicas = nice_of_threads("prionn-serve-re");
    assert!(!replicas.is_empty());
    assert!(
        replicas.iter().all(|&nice| nice == 0),
        "replicas {replicas:?}"
    );
    let pool = nice_of_threads("compute-");
    // The pool's size is the host's parallelism, callers included.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(pool.len(), cores - 1);
    assert!(pool.iter().all(|&nice| nice == 0), "compute pool {pool:?}");
    gw.shutdown();
}
