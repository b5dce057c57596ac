//! **PRIONN** — Predicting Runtime and IO using Neural Networks.
//!
//! A from-scratch Rust reproduction of the ICPP 2018 paper by Wyatt et al.
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`tensor`] — dense `f32` tensors and parallel kernels;
//! * [`nn`] — the deep-learning substrate (layers, losses, optimisers, the
//!   paper's NN / 1D-CNN / 2D-CNN architectures);
//! * [`text`] — job-script grids, the four character transforms, and the
//!   character-level word2vec;
//! * [`ml`] — traditional baselines (random forest, decision tree, kNN) and
//!   the Table-1 SLURM feature parser;
//! * [`workload`] — the synthetic Cab-like trace generator standing in for
//!   LLNL's non-public dataset;
//! * [`sched`] — the event-driven cluster simulator (FCFS + EASY backfill),
//!   snapshot turnaround prediction, IO timelines, and burst metrics;
//! * [`store`] — the versioned, checksummed checkpoint container behind
//!   [`core::Prionn::save`] / [`core::Prionn::load`];
//! * [`telemetry`] — dependency-free counters, gauges, and latency
//!   histograms with Prometheus/JSON export (see `docs/OBSERVABILITY.md`);
//! * [`observe`] — request-scoped span tracing, the lock-free flight
//!   recorder with panic-hook crash dumps, model-drift monitors, and the
//!   embedded `/metrics` + `/healthz` + `/readyz` + `/traces` + `/flight`
//!   ops endpoint;
//! * [`core`] — the PRIONN tool itself: whole-script models, warm-started
//!   online retraining, and the evaluation metrics;
//! * [`serve`] — the sharded, micro-batching inference gateway: replica
//!   workers, admission control with load shedding, and epoch-tagged
//!   weight hot-swap (see `docs/SERVING.md`);
//! * [`fleet`] — the distributed serving fleet: N gateway shards behind
//!   a length-prefixed binary wire protocol over TCP, a consistent-hash
//!   router with pipelined connections and typed shed/failover, and a
//!   coordinator that rolls weight epochs shard-by-shard (see
//!   `docs/SERVING.md` § Distributed fleet);
//! * [`forecast`] — cluster-scale IO burst forecasting: the incremental
//!   per-minute aggregator (O(log n) per job arrival/completion), Holt
//!   smoothing over it, and edge-triggered burst alerts served at
//!   `/forecast` (see `DESIGN.md` §14);
//! * [`revise`] — continuous in-flight re-prediction: progress taps on
//!   the simulator, recency-weighted revision, split-conformal
//!   `[lo, point, hi]` intervals calibrated on the drift window,
//!   interval-aware backfill, and a kill/requeue policy for jobs whose
//!   revised lower bound exceeds their walltime (see
//!   `docs/REVISION.md`).
//!
//! # Example
//!
//! ```
//! use prionn::core::{Prionn, PrionnConfig};
//! use prionn::workload::{Trace, TraceConfig, TracePreset};
//!
//! // A tiny synthetic workload and a tiny model (CI-friendly sizes).
//! let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 60));
//! let jobs: Vec<_> = trace.executed_jobs().collect();
//! let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
//! let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();
//!
//! let cfg = PrionnConfig {
//!     grid: (16, 16),
//!     base_width: 2,
//!     runtime_bins: 64,
//!     predict_io: false,
//!     epochs: 1,
//!     batch_size: 8,
//!     ..Default::default()
//! };
//! let mut model = Prionn::new(cfg, &scripts).unwrap();
//! model.retrain(&scripts, &runtimes, &[], &[]).unwrap();
//! let predictions = model.predict(&scripts[..3]).unwrap();
//! assert_eq!(predictions.len(), 3);
//! ```

pub use prionn_core as core;
pub use prionn_fleet as fleet;
pub use prionn_forecast as forecast;
pub use prionn_ml as ml;
pub use prionn_nn as nn;
pub use prionn_observe as observe;
pub use prionn_revise as revise;
pub use prionn_sched as sched;
pub use prionn_serve as serve;
pub use prionn_store as store;
pub use prionn_telemetry as telemetry;
pub use prionn_tensor as tensor;
pub use prionn_text as text;
pub use prionn_workload as workload;
