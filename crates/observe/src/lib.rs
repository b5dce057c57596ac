//! # prionn-observe — tracing, flight recording, drift monitoring, ops
//!
//! PR 2's `prionn-telemetry` answers *how much*: counters, gauges, latency
//! histograms. This crate answers *which request* and *is the model still
//! good* — the two questions an online predictor serving a scheduler's
//! critical path gets asked when something goes wrong:
//!
//! * [`trace`] — request-scoped span trees. A [`Tracer`] hands every
//!   `Gateway::predict` call a fresh trace id that follows the request
//!   through queue admission, micro-batch fusion (the fused forward pass
//!   is its own trace, *linked* to every caller it fans in), and the
//!   predictor's `map` and `head:<name>` stages via an implicit
//!   thread-local context.
//! * [`flight`] — the flight recorder: bounded per-thread span rings
//!   written through a never-blocking `try_lock`, plus a chained global
//!   panic hook that dumps the recent window and a metric snapshot to
//!   `flight-<ts>.json` the moment anything panics — including replica
//!   panics later contained by `catch_unwind`.
//! * [`drift`] — model-quality monitors: rolling-window relativeAccuracy
//!   (paper Eq. 1) per prediction head, per-bin calibration error,
//!   weight-epoch staleness, and an edge-triggered alert counter.
//! * [`ops`] — a dependency-free `std::net` HTTP endpoint serving
//!   `/metrics`, `/healthz`, `/readyz`, `/traces`, and `/flight` from one
//!   background thread — plus `/fleet/metrics`, `/fleet/healthz`, and
//!   `/fleet/traces` when a [`FleetCollector`] is attached.
//! * [`collector`] — the fleet plane: scrapes every shard's ops endpoint
//!   on a cadence, merges counters/gauges/histograms bucket-exactly, and
//!   stitches cross-shard traces back into one tree by asking every shard's
//!   `/traces?trace_id=N` for the one trace.
//! * [`slo`] — declarative SLO specs evaluated with multi-window
//!   burn-rate alerting (fast 5m/1h pair, slow 6h), exported as `slo_*`
//!   metrics and edge-triggered alert transitions a rollout can gate on.
//!
//! ```
//! use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
//!
//! let recorder = FlightRecorder::new(FlightConfig::default());
//! let tracer = Tracer::new(&recorder);
//! let mut root = tracer.root("predict");
//! root.set_detail("scripts=1");
//! {
//!     let _admission = root.child("admission");
//! }
//! drop(root);
//! let spans = recorder.snapshot();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans.iter().filter(|s| s.parent_id == 0).count(), 1);
//! ```
//!
//! The crate depends only on `prionn-telemetry` and `std`, so it slots
//! *below* `core`/`serve` in the dependency graph — which is what lets the
//! predictor attach its spans without a dependency cycle. See
//! `docs/OBSERVABILITY.md` and `DESIGN.md` §13.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod drift;
pub mod flight;
pub mod ops;
pub mod slo;
pub mod trace;

pub use collector::{CollectorConfig, FleetCollector, ShardTarget};
pub use drift::{
    DriftConfig, DriftHead, DriftMonitor, DriftSnapshot, HeadSnapshot, OutcomeDelta, OutcomeSample,
};
pub use flight::{FlightConfig, FlightRecorder};
pub use ops::{JsonProbe, OpsOptions, OpsServer, Readiness, ReadyProbe};
pub use slo::{BurnWindows, SloEngine, SloSource, SloSpec, SloStatus};
pub use trace::{
    child_of_current, push_current, render_trace_tree, CurrentGuard, Span, SpanCtx, SpanRecord,
    Tracer,
};
