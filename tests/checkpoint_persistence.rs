//! Integration tests for the persistence subsystem: a full predictor
//! survives the disk round trip bit-for-bit, corruption is always an error,
//! and a `Gateway` restored from a snapshot continues the online protocol
//! warm-started.

use prionn::core::{Prionn, PrionnConfig, TrainingBatch};
use prionn::serve::{Gateway, GatewayConfig};
use prionn::store::Checkpoint;
use prionn::workload::{Trace, TraceConfig, TracePreset};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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

fn workload() -> (Vec<String>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 60));
    let jobs: Vec<_> = trace.executed_jobs().collect();
    (
        jobs.iter().map(|j| j.script.clone()).collect(),
        jobs.iter().map(|j| j.runtime_minutes()).collect(),
        jobs.iter().map(|j| j.bytes_read).collect(),
        jobs.iter().map(|j| j.bytes_written).collect(),
    )
}

/// One trained model's checkpoint, serialised — shared across property
/// cases so each case only pays for parsing, not training.
fn trained_checkpoint_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (scripts, runtimes, reads, writes) = workload();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut model = Prionn::new(tiny_cfg(), &refs).expect("build");
        model
            .retrain(&refs, &runtimes, &reads, &writes)
            .expect("train");
        model.to_checkpoint().expect("checkpoint").to_bytes()
    })
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prionn-it-{}-{}.ckpt", tag, std::process::id()))
}

#[test]
fn save_load_save_through_the_filesystem_is_byte_identical() {
    let (scripts, runtimes, reads, writes) = workload();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let mut model = Prionn::new(tiny_cfg(), &refs).unwrap();
    model.retrain(&refs, &runtimes, &reads, &writes).unwrap();

    let path_a = tmp_path("bytes-a");
    let path_b = tmp_path("bytes-b");
    model.save(&path_a).unwrap();
    let restored = Prionn::load(&path_a).unwrap();
    restored.save(&path_b).unwrap();
    assert_eq!(
        std::fs::read(&path_a).unwrap(),
        std::fs::read(&path_b).unwrap(),
        "save -> load -> save must not change a single byte"
    );
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// A restart between two retrains changes nothing: with the IO heads on,
/// `retrain → save → load → retrain` writes the checkpoint bytes (every
/// head's weights and Adam moments, the RNG position) of `retrain →
/// retrain`.
#[test]
fn a_restart_between_retrains_continues_bit_for_bit() {
    let (scripts, runtimes, reads, writes) = workload();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    assert!(tiny_cfg().predict_io);
    let mut uninterrupted = Prionn::new(tiny_cfg(), &refs).unwrap();
    uninterrupted
        .retrain(&refs, &runtimes, &reads, &writes)
        .unwrap();
    let path = tmp_path("restart");
    uninterrupted.save(&path).unwrap();
    let mut restarted = Prionn::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let half = refs.len() / 2;
    for model in [&mut uninterrupted, &mut restarted] {
        model
            .retrain(
                &refs[half..],
                &runtimes[half..],
                &reads[half..],
                &writes[half..],
            )
            .unwrap();
    }
    let digest = |m: &Prionn| {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        m.to_checkpoint().unwrap().to_bytes().hash(&mut h);
        h.finish()
    };
    assert_eq!(digest(&restarted), digest(&uninterrupted));
}

#[test]
fn restored_predictor_serves_bit_identical_predictions() {
    let (scripts, runtimes, reads, writes) = workload();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let mut model = Prionn::new(tiny_cfg(), &refs).unwrap();
    model.retrain(&refs, &runtimes, &reads, &writes).unwrap();
    let before = model.predict(&refs[..8]).unwrap();

    let path = tmp_path("bitident");
    model.save(&path).unwrap();
    let mut restored = Prionn::load(&path).unwrap();
    let after = restored.predict(&refs[..8]).unwrap();
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.runtime_minutes.to_bits(), a.runtime_minutes.to_bits());
        assert_eq!(b.read_bytes.to_bits(), a.read_bytes.to_bits());
        assert_eq!(b.write_bytes.to_bits(), a.write_bytes.to_bits());
    }
    let _ = std::fs::remove_file(&path);
}

/// The section list is the on-disk format: if the predictor's head table
/// ever reorders or renames a section, files already written stop loading.
#[test]
fn checkpoint_sections_keep_their_names_and_order() {
    let (scripts, ..) = workload();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let sections = |predict_io| -> Vec<String> {
        let cfg = PrionnConfig {
            predict_io,
            ..tiny_cfg()
        };
        let model = Prionn::new(cfg, &refs[..8]).unwrap();
        let ck = model.to_checkpoint().unwrap();
        ck.section_names().map(str::to_string).collect()
    };
    #[rustfmt::skip]
    assert_eq!(
        sections(false),
        ["config", "transform", "bins", "model.runtime", "opt.runtime", "rng", "trainer"]
    );
    #[rustfmt::skip]
    assert_eq!(
        sections(true),
        [
            "config", "transform", "bins", "model.runtime", "opt.runtime", "model.read",
            "opt.read", "model.write", "opt.write", "rng", "trainer",
        ]
    );
}

/// Block until the gateway's trainer has worked off its retrain backlog.
fn wait_for_trainer(gateway: &Gateway) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while gateway.stats().retrains_pending > 0 {
        assert!(Instant::now() < deadline, "trainer never drained the queue");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn gateway_restored_from_snapshot_continues_the_protocol_warm() {
    let (scripts, runtimes, _, _) = workload();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let mut cfg = tiny_cfg();
    cfg.predict_io = false;
    let gateway_cfg = || GatewayConfig {
        replicas: 1,
        ..GatewayConfig::default()
    };

    // First "process": train through the gateway, snapshot, shut down.
    let path = tmp_path("gateway");
    let _ = std::fs::remove_file(&path);
    let gateway = Gateway::spawn(Prionn::new(cfg, &refs).unwrap(), gateway_cfg()).unwrap();
    gateway.retrain_async(TrainingBatch {
        scripts: scripts.clone(),
        runtime_minutes: runtimes.clone(),
        ..Default::default()
    });
    // The snapshot queues behind the retrain on the trainer thread, so it
    // holds the retrained master model — the weights of epoch 1.
    gateway.snapshot(&path).expect("snapshot");
    let before = gateway.predict_detailed(&scripts[..6], None).unwrap();
    assert_eq!(before.epoch, 1, "served by the retrained weights");
    gateway.shutdown();

    // Second "process": warm restart. Identical predictions out of the box…
    let restored = Gateway::spawn_from_checkpoint(&path, gateway_cfg()).expect("restore gateway");
    let after = restored.predict(&scripts[..6]).unwrap();
    for (b, a) in before.predictions.iter().zip(&after) {
        assert_eq!(b.runtime_minutes.to_bits(), a.runtime_minutes.to_bits());
    }

    // …and the *next* retrain updates the restored weights: train the
    // restored model toward very different targets and watch the served
    // predictions move.
    let shifted: Vec<f64> = runtimes
        .iter()
        .map(|r| (r * 3.0 + 60.0).min(900.0))
        .collect();
    for _ in 0..4 {
        restored.retrain_async(TrainingBatch {
            scripts: scripts.clone(),
            runtime_minutes: shifted.clone(),
            ..Default::default()
        });
    }
    wait_for_trainer(&restored);
    let moved = restored.predict(&scripts[..6]).unwrap();
    assert!(restored.stats().retrains_done >= 1);
    assert!(
        restored.last_error().is_none(),
        "{:?}",
        restored.last_error()
    );
    assert!(
        moved
            .iter()
            .zip(&before.predictions)
            .any(|(m, b)| m.runtime_minutes != b.runtime_minutes),
        "retraining the restored gateway must update its weights"
    );
    restored.shutdown();
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Any single flipped byte in a real trained-model checkpoint is
    // reported as an error — never a panic, never a silently-wrong model.
    #[test]
    fn corrupting_a_trained_checkpoint_is_an_error_not_a_panic(
        offset_seed in 0usize..100_000_000,
        flip in 1u8..255,
    ) {
        let bytes = trained_checkpoint_bytes();
        let mut bad = bytes.to_vec();
        let offset = offset_seed % bad.len();
        bad[offset] ^= flip;
        let result = Checkpoint::from_bytes(&bad)
            .and_then(|ck| Prionn::from_checkpoint(&ck).map(|_| ()));
        prop_assert!(result.is_err(), "flip at byte {} went undetected", offset);
    }

    // Parsing and restoring the intact bytes keeps working no matter how
    // often it is repeated (no hidden state in the load path).
    #[test]
    fn intact_checkpoint_bytes_always_restore(_round in 0usize..4) {
        let ck = Checkpoint::from_bytes(trained_checkpoint_bytes()).expect("parse");
        let model = Prionn::from_checkpoint(&ck).expect("restore");
        prop_assert!(model.retrain_count() > 0, "restored model is warm");
    }
}
