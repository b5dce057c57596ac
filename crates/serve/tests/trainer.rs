//! The gateway as the one long-running predictor: serving before any
//! training, background retrains through the latest-wins queue, and
//! snapshots for warm restart — all on the trainer thread, beside predicts.

use std::time::{Duration, Instant};

use prionn_core::{Prionn, PrionnConfig, TrainingBatch};
use prionn_serve::{Gateway, GatewayConfig, ServeError};
use prionn_telemetry::Telemetry;

fn tiny_cfg() -> PrionnConfig {
    PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 32,
        predict_io: false,
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    }
}

fn scripts(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "#!/bin/bash\n#SBATCH -N {}\nsrun ./app_{}\n",
                1 + i % 8,
                i % 3
            )
        })
        .collect()
}

/// An untrained model over `corpus` behind one replica.
fn gateway_over(corpus: &[String], model_cfg: PrionnConfig, cfg: GatewayConfig) -> Gateway {
    let refs: Vec<&str> = corpus.iter().map(|s| s.as_str()).collect();
    let model = Prionn::new(model_cfg, &refs).unwrap();
    let cfg = GatewayConfig {
        replicas: 1,
        max_wait: Duration::from_micros(200),
        ..cfg
    };
    Gateway::spawn(model, cfg).unwrap()
}

fn batch(scripts: &[String], minutes: f64) -> TrainingBatch {
    TrainingBatch {
        scripts: scripts.to_vec(),
        runtime_minutes: vec![minutes; scripts.len()],
        ..Default::default()
    }
}

/// A batch the trainer must reject: targets do not match the scripts.
fn malformed_batch(scripts: &[String]) -> TrainingBatch {
    TrainingBatch {
        scripts: scripts.to_vec(),
        runtime_minutes: vec![1.0],
        ..Default::default()
    }
}

/// Block until the trainer has worked off its backlog. The backlog count
/// drops last, so every batch's outcome is visible once it reads zero.
fn wait_for_trainer(gw: &Gateway) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while gw.stats().retrains_pending > 0 {
        assert!(Instant::now() < deadline, "trainer never drained the queue");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("prionn-gw-{tag}-{}.ckpt", std::process::id()))
}

#[test]
fn predicts_before_any_training() {
    let corpus = scripts(8);
    let gw = gateway_over(&corpus, tiny_cfg(), GatewayConfig::default());
    let reply = gw.predict_detailed(&corpus[..3], None).unwrap();
    assert_eq!(reply.predictions.len(), 3);
    assert_eq!(reply.epoch, 0, "spawn weights");
    assert_eq!(gw.stats().requests_admitted, 1);
    assert_eq!(gw.stats().retrains_done, 0);
    gw.shutdown();
}

#[test]
fn bad_batches_surface_as_last_error_not_panics() {
    let corpus = scripts(8);
    let gw = gateway_over(&corpus, tiny_cfg(), GatewayConfig::default());
    gw.retrain_async(malformed_batch(&corpus));
    wait_for_trainer(&gw);
    let err = gw.last_error().expect("failed retrain is reported");
    assert!(err.contains("background retrain failed"), "{err}");
    let stats = gw.stats();
    assert_eq!(stats.retrains_done, 0);
    assert_eq!(stats.replica_panics, 0, "the trainer thread survived");
    assert_eq!(gw.epoch(), 0, "nothing was published");
    // serve_retrain_seconds times failed retrains too; serve_retrains_total
    // is the count of the ones that succeeded.
    let text = gw.telemetry().prometheus();
    assert!(text.contains("serve_retrain_seconds_count 1"), "{text}");
    assert!(text.contains("serve_retrains_total 0"), "{text}");
    assert_eq!(gw.predict(&corpus[..1]).unwrap().len(), 1);
    gw.shutdown();
}

#[test]
fn training_improves_served_predictions_after_the_swap() {
    // Two textually distinct script families: 5 vs 300 minutes.
    let corpus: Vec<String> = (0..24)
        .map(|i| {
            if i % 2 == 0 {
                format!("#!/bin/bash\n#SBATCH -N 2\nsrun ./tiny {i}\n")
            } else {
                format!("#!/bin/bash\n#SBATCH -N 64\nmodule load big\nsrun ./huge case{i}\nsync\n")
            }
        })
        .collect();
    let model_cfg = PrionnConfig {
        epochs: 6,
        lr: 3e-3,
        ..tiny_cfg()
    };
    let gw = gateway_over(&corpus, model_cfg, GatewayConfig::default());
    let runtimes: Vec<f64> = (0..corpus.len())
        .map(|i| if i % 2 == 0 { 5.0 } else { 300.0 })
        .collect();
    for _ in 0..6 {
        gw.retrain_async(TrainingBatch {
            scripts: corpus.clone(),
            runtime_minutes: runtimes.clone(),
            ..Default::default()
        });
    }
    wait_for_trainer(&gw);
    let stats = gw.stats();
    assert_eq!(stats.retrains_done + stats.retrains_dropped, 6);

    // Served by the replica, so the trained weights crossed the bus.
    let reply = gw.predict_detailed(&corpus[..2], None).unwrap();
    assert_eq!(reply.epoch as usize, stats.retrains_done);
    let (short, long) = (reply.predictions[0], reply.predictions[1]);
    assert!(
        short.runtime_minutes < long.runtime_minutes,
        "{} vs {}",
        short.runtime_minutes,
        long.runtime_minutes
    );
    gw.shutdown();
}

#[test]
fn full_retrain_queue_drops_the_oldest_and_counts_it() {
    let corpus = scripts(12);
    let gw = gateway_over(
        &corpus,
        tiny_cfg(),
        GatewayConfig {
            retrain_queue_cap: 2,
            ..GatewayConfig::default()
        },
    );
    // Eight batches at once against two slots: whatever prefix the trainer
    // gets to, everything shed must be counted.
    for i in 0..8 {
        gw.retrain_async(batch(&corpus[..4 + i], 10.0));
    }
    wait_for_trainer(&gw);
    let stats = gw.stats();
    assert_eq!(stats.retrains_done + stats.retrains_dropped, 8, "{stats:?}");
    assert!(stats.retrains_dropped >= 1, "{stats:?}");
    assert!(gw.last_error().is_none(), "{:?}", gw.last_error());
    let text = gw.telemetry().prometheus();
    assert!(
        text.contains(&format!(
            "serve_retrains_dropped_total {}",
            stats.retrains_dropped
        )),
        "{text}"
    );
    gw.shutdown();
}

#[test]
fn concurrent_retrains_account_every_batch_and_the_newest_survives() {
    let corpus = scripts(12);
    let model_cfg = PrionnConfig {
        epochs: 1,
        ..tiny_cfg()
    };
    let gw = gateway_over(
        &corpus,
        model_cfg,
        GatewayConfig {
            retrain_queue_cap: 2,
            ..GatewayConfig::default()
        },
    );
    // Four submitters race the latest-wins eviction against each other and
    // against the trainer's own drains.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    gw.retrain_async(batch(&corpus, 10.0));
                }
            });
        }
    });
    // All submitters done: enqueue one final, newest batch that is
    // deliberately malformed. Latest-wins must never shed it (only older
    // batches are evicted), so it reaches the trainer and fails there —
    // `last_error` is the proof of survival.
    gw.retrain_async(malformed_batch(&corpus));
    wait_for_trainer(&gw);
    let stats = gw.stats();
    assert_eq!(
        stats.retrains_done + stats.retrains_dropped,
        THREADS * PER_THREAD,
        "every good batch either trained or was counted shed: {stats:?}"
    );
    assert!(
        gw.last_error().is_some(),
        "the newest (malformed) batch must survive eviction and reach the trainer"
    );
    gw.shutdown();
}

#[test]
fn snapshot_round_trips_bit_identically_and_the_restored_gateway_keeps_learning() {
    let corpus = scripts(16);
    let path = tmp_path("roundtrip");
    let _ = std::fs::remove_file(&path);
    let telemetry = Telemetry::new();
    let gw = gateway_over(
        &corpus,
        tiny_cfg(),
        GatewayConfig {
            telemetry: Some(telemetry.clone()),
            ..GatewayConfig::default()
        },
    );
    gw.retrain_async(batch(&corpus, 10.0));
    // First in, first out on the trainer thread: the snapshot is taken
    // after the retrain queued before it, and returns once it is on disk.
    gw.snapshot(&path).unwrap();
    assert_eq!(gw.stats().retrains_done, 1);
    assert!(path.exists(), "`Ok` means the file is on disk");
    assert!(gw.last_error().is_none(), "{:?}", gw.last_error());
    assert!(
        !telemetry.prometheus().contains("snapshot"),
        "the caller's `Result` is the record; no instrument beside it"
    );
    let before = gw.predict_detailed(&corpus[..3], None).unwrap();
    assert_eq!(before.epoch, 1, "served by the snapshot's weights");
    gw.shutdown();
    assert_eq!(gw.snapshot(&path).unwrap_err(), ServeError::Stopped);

    // A new process restores the gateway and serves identical predictions…
    let cfg = GatewayConfig {
        replicas: 1,
        ..GatewayConfig::default()
    };
    let restored = Gateway::spawn_from_checkpoint(&path, cfg).unwrap();
    let after = restored.predict(&corpus[..3]).unwrap();
    assert_eq!(
        before.predictions, after,
        "bit-identical across the restart"
    );

    // …then keeps learning from the restored weights.
    restored.retrain_async(batch(&corpus, 400.0));
    wait_for_trainer(&restored);
    assert_eq!(restored.stats().retrains_done, 1);
    assert!(
        restored.last_error().is_none(),
        "{:?}",
        restored.last_error()
    );
    let moved = restored.predict(&corpus[..3]).unwrap();
    assert_ne!(moved, after, "a retrain after restore moves the weights");
    restored.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn spawn_from_checkpoint_rejects_garbage_files() {
    let path = tmp_path("garbage");
    std::fs::write(&path, b"not a checkpoint at all").unwrap();
    let err = Gateway::spawn_from_checkpoint(&path, GatewayConfig::default())
        .err()
        .expect("garbage must not spawn a gateway");
    assert!(matches!(err, ServeError::Spawn(_)), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_to_an_unwritable_path_fails_typed_and_the_gateway_keeps_serving() {
    let corpus = scripts(8);
    let gw = gateway_over(&corpus, tiny_cfg(), GatewayConfig::default());
    let path = std::env::temp_dir()
        .join(format!("prionn-gw-no-such-dir-{}", std::process::id()))
        .join("model.ckpt");
    let err = gw.snapshot(&path).unwrap_err();
    assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
    let reported = gw.last_error().expect("failed snapshot is reported");
    assert!(reported.contains("snapshot failed"), "{reported}");
    assert!(!path.exists());
    assert_eq!(gw.predict(&corpus[..2]).unwrap().len(), 2);
    assert_eq!(gw.stats().replica_panics, 0);
    gw.shutdown();
}
