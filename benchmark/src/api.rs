//! The pinned API surface: every crate item the benchmark touches is
//! imported here and nowhere else, so this file is the list of what a later
//! refactor must keep callable (or change here, in a benchmark-only change).
//!
//! Deliberately absent: `GatewayStats` fields and telemetry metric names.
//! The harness counts at its own boundaries instead.

use std::sync::Arc;
use std::time::Instant;

pub use prionn_core::{
    relative_accuracy, run_online_prionn, JobPrediction, OnlineConfig, Prionn, PrionnConfig,
    ResourcePrediction, TrainingBatch,
};
pub use prionn_fleet::{proto, Router, RouterConfig, ShardConfig, ShardServer};
pub use prionn_forecast::ForecastEngine;
pub use prionn_nn::{Adam, ArchConfig, LossTarget, ModelKind, SoftmaxCrossEntropy};
pub use prionn_observe::{DriftHead, DriftMonitor, FlightConfig, FlightRecorder, Tracer};
pub use prionn_revise::{JobTruth, ReviseConfig, ReviseEngine, TrackedJob};
pub use prionn_sched::{
    burst_metrics, engine::simulate, horizon_minutes, io_timeline, JobIoInterval, ScheduleEntry,
    SimEngine, SimJob,
};
pub use prionn_serve::{Gateway, GatewayConfig, Priority};
pub use prionn_store::{wire, Checkpoint};
pub use prionn_telemetry::Telemetry;
pub use prionn_tensor::ops::gemm::{gemm, kernel_tier, Epilogue, GemmWorkspace, Layout};
pub use prionn_tensor::ops::{im2col_into, Conv2dGeom};
pub use prionn_workload::{JobRecord, Trace, TraceConfig, TracePreset};

/// The paper's model: 64×64 grid, word2vec dim 4, width 8, 960 runtime bins
/// and two 128-bin IO heads. One epoch per retrain: cost per epoch is the
/// quantity measured, and ten of them do not fit a run.
pub fn paper_config() -> PrionnConfig {
    PrionnConfig {
        epochs: 1,
        ..PrionnConfig::default()
    }
}

/// The toy model the repository's own benches use: 16×16 grid, width 2,
/// 64 runtime bins, no IO heads. A forward pass costs about 0.1 ms, which
/// takes the model out of the request path.
pub fn toy_config() -> PrionnConfig {
    PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 64,
        predict_io: false,
        epochs: 1,
        ..PrionnConfig::default()
    }
}

/// `n` CabLike submissions from `seed`, cancelled ones dropped, in
/// submission order; and the seconds generation took.
pub fn generate_jobs(seed: u64, n: usize) -> (Vec<JobRecord>, f64) {
    let started = Instant::now();
    let mut cfg = TraceConfig::preset(TracePreset::CabLike, n);
    cfg.seed = seed;
    let jobs: Vec<JobRecord> = Trace::generate(&cfg).executed_jobs().cloned().collect();
    (jobs, started.elapsed().as_secs_f64())
}

pub fn scripts_of(jobs: &[JobRecord]) -> Vec<&str> {
    jobs.iter().map(|j| j.script.as_str()).collect()
}

/// Warm-started retrain on `jobs`, with IO targets when the model has IO
/// heads.
pub fn retrain_on(model: &mut Prionn, jobs: &[JobRecord]) {
    let scripts = scripts_of(jobs);
    let runtimes: Vec<f64> = jobs.iter().map(JobRecord::runtime_minutes).collect();
    let (reads, writes): (Vec<f64>, Vec<f64>) = if model.config().predict_io {
        (
            jobs.iter().map(|j| j.bytes_read).collect(),
            jobs.iter().map(|j| j.bytes_written).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    model
        .retrain(&scripts, &runtimes, &reads, &writes)
        .expect("retrain on generated jobs");
}

/// The same jobs as a gateway retrain batch (IO targets included: the only
/// model retrained through a gateway is the paper-shaped one).
pub fn training_batch(jobs: &[JobRecord]) -> TrainingBatch {
    TrainingBatch {
        scripts: jobs.iter().map(|j| j.script.clone()).collect(),
        runtime_minutes: jobs.iter().map(JobRecord::runtime_minutes).collect(),
        read_bytes: jobs.iter().map(|j| j.bytes_read).collect(),
        write_bytes: jobs.iter().map(|j| j.bytes_written).collect(),
    }
}

/// A model with word2vec fitted on `history` and one retrain over it.
/// Returns the model and the seconds word2vec fitting took.
pub fn trained_model(cfg: PrionnConfig, history: &[JobRecord]) -> (Prionn, f64) {
    let started = Instant::now();
    let mut model = Prionn::new(cfg, &scripts_of(history)).expect("build model");
    let w2v_s = started.elapsed().as_secs_f64();
    retrain_on(&mut model, history);
    (model, w2v_s)
}

/// What the shipped `prionn-shard` binary runs: the demo gateway config with
/// one replica, default shard config; tracer, drift and pressure stay unset.
pub fn shard_gateway_config() -> GatewayConfig {
    GatewayConfig {
        replicas: 1,
        ..prionn_fleet::testkit::demo_gateway_config()
    }
}

/// In-process shards on loopback TCP behind one router.
pub struct Fleet {
    pub router: Router,
    gateways: Vec<Arc<Gateway>>,
    servers: Vec<ShardServer>,
}

impl Fleet {
    /// Boot `shards` shards from one checkpoint. `observed` attaches a
    /// tracer and flight recorder to the router and every shard (used only
    /// to price tracing, never in a measured run).
    pub fn boot(checkpoint: &Checkpoint, shards: usize, observed: bool) -> Fleet {
        let recorder = observed.then(|| FlightRecorder::new(FlightConfig::default()));
        let mut gateways = Vec::new();
        let mut servers = Vec::new();
        for i in 0..shards {
            let model = Prionn::from_checkpoint(checkpoint).expect("model from checkpoint");
            let mut cfg = shard_gateway_config();
            if let Some(rec) = &recorder {
                cfg.tracer = Some(Tracer::with_namespace(rec, 2 + i as u16));
            }
            let gateway = Arc::new(Gateway::spawn(model, cfg).expect("spawn gateway"));
            let server = ShardServer::spawn(Arc::clone(&gateway), ShardConfig::default())
                .expect("bind shard on loopback");
            gateways.push(gateway);
            servers.push(server);
        }
        let endpoints = servers.iter().map(|s| s.addr().to_string()).collect();
        let mut router_cfg = RouterConfig::for_endpoints(endpoints);
        if let Some(rec) = &recorder {
            router_cfg.tracer = Some(Tracer::with_namespace(rec, 1));
        }
        Fleet {
            router: Router::new(router_cfg),
            gateways,
            servers,
        }
    }

    /// Stop everything and wait for the threads. Gateways go first: a shard
    /// worker blocked in `predict` must be released before its server joins.
    pub fn shutdown(self) {
        drop(self.router);
        for gateway in &self.gateways {
            gateway.shutdown();
        }
        for server in &self.servers {
            server.shutdown();
        }
    }
}

/// Every method the harness calls, named once so that a signature change
/// fails to compile here, next to the list, rather than deep in a workload.
#[allow(dead_code, clippy::type_complexity)]
fn pinned_surface() {
    let _: fn(PrionnConfig, &[&str]) -> _ = Prionn::new;
    let _: fn(&mut Prionn, &[&str]) -> _ = Prionn::predict;
    let _: fn(&mut Prionn, &[&str], &[f64], &[f64], &[f64]) -> _ = Prionn::retrain;
    let _: fn(&Prionn, &[&str]) -> _ = Prionn::map_scripts;
    let _: for<'a> fn(&'a Prionn) -> &'a PrionnConfig = Prionn::config;
    let _: fn(&Prionn) -> _ = Prionn::to_checkpoint;
    let _: fn(&Checkpoint) -> _ = Prionn::from_checkpoint;
    let _: fn(&Prionn) -> _ = Prionn::weights_checkpoint;
    let _: fn(&mut Prionn, &Checkpoint) -> _ = Prionn::apply_weights_checkpoint;
    let _: fn(&[JobRecord], &OnlineConfig) -> _ = run_online_prionn;
    let _: fn(Prionn, GatewayConfig) -> _ = Gateway::spawn;
    let _: fn(&Gateway, &[String]) -> _ = Gateway::predict;
    let _: fn(&Gateway, &[String], Option<std::time::Duration>) -> _ = Gateway::predict_detailed;
    let _: fn(&Gateway, TrainingBatch) = Gateway::retrain_async;
    let _: fn(&Gateway, &Prionn) -> _ = Gateway::hot_swap;
    let _: fn(&Gateway) -> u64 = Gateway::epoch;
    let _: for<'a> fn(&'a Gateway) -> &'a Telemetry = Gateway::telemetry;
    let _: fn(&Gateway) = Gateway::shutdown;
    let _: fn(Arc<Gateway>, ShardConfig) -> _ = ShardServer::spawn;
    let _: fn(&ShardServer) -> _ = ShardServer::addr;
    let _: fn(&ShardServer) = ShardServer::shutdown;
    let _: fn(RouterConfig) -> Router = Router::new;
    let _: fn(&Router, u64, &[String]) -> _ = Router::predict;
    let _: fn(&Router, u64) -> Option<usize> = Router::route;
    let _: fn(&Router, usize) -> _ = Router::shard_stats;
    let _: fn(Priority, u32, &[String]) -> Vec<u8> = proto::encode_predict;
    let _: fn(&[u8]) -> _ = proto::decode_predict;
    let _: fn(u64, &[ResourcePrediction]) -> Vec<u8> = proto::encode_predictions;
    let _: fn(&[u8]) -> _ = proto::decode_predictions;
    let _: fn(u8, u64, &[u8]) -> Vec<u8> = wire::encode_frame;
    let _: fn(&Checkpoint) -> Vec<u8> = Checkpoint::to_bytes;
    let _: fn(&[u8]) -> _ = Checkpoint::from_bytes;
    let _: fn(u32) -> SimEngine = SimEngine::new;
    let _: fn(&mut SimEngine, SimJob) = SimEngine::submit;
    let _: fn(&mut SimEngine, u64) = SimEngine::advance_to;
    let _: fn(&SimEngine) -> u64 = SimEngine::now;
    let _: for<'a> fn(&'a SimEngine) -> &'a [ScheduleEntry] = SimEngine::finished;
    let _: fn(u32, &[SimJob]) -> _ = simulate;
    let _: fn(&[JobIoInterval], usize) -> Vec<f64> = io_timeline;
    let _: fn(&[JobIoInterval]) -> usize = horizon_minutes;
    let _: fn(&[f64], &[f64], usize) -> _ = burst_metrics;
    let _: fn(&Telemetry) -> ForecastEngine = ForecastEngine::with_defaults;
    let _: fn(&ForecastEngine, &JobIoInterval) = ForecastEngine::job_started;
    let _: fn(&ForecastEngine, &JobIoInterval) = ForecastEngine::job_finished;
    let _: fn(&ForecastEngine, u64) -> _ = ForecastEngine::tick_to;
    let _: fn(&Telemetry, ReviseConfig) -> ReviseEngine = ReviseEngine::new;
    let _: fn(&ReviseEngine, &DriftMonitor) = ReviseEngine::attach_drift;
    let _: fn(&ReviseEngine, TrackedJob) = ReviseEngine::track;
    let _: fn(&ReviseEngine, &mut SimEngine) -> _ = ReviseEngine::tick;
    let _: fn(&ReviseEngine) -> _ = ReviseEngine::snapshot;
    let _: fn(&Telemetry) -> DriftMonitor = DriftMonitor::with_defaults;
    let _: fn(&DriftMonitor, DriftHead, f64, f64) = DriftMonitor::record;
    let _: fn(&Telemetry) -> String = Telemetry::prometheus;
}
