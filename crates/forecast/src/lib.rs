//! # prionn-forecast — cluster-scale IO burst forecasting
//!
//! The paper's end-goal is system-wide IO burst detection: per-job IO
//! predictions summed into a per-minute cluster timeline, bursts at the
//! mean+1σ threshold (Fig. 10). `prionn_sched::io_timeline` computes that
//! timeline as a batch rebuild — O(jobs × minutes) — which cannot keep up
//! with 100k+ concurrent jobs arriving and finishing continuously. This
//! crate makes the aggregate *live* and pushes it *forward in time*:
//!
//! * [`aggregate`] — [`IoAggregator`], a hierarchical time-wheel over
//!   per-minute buckets: O(log n) add/remove of one job's predicted IO
//!   interval, O(1) streaming reads, batch-identical snapshots (the
//!   randomized parity suite in `tests/parity.rs` holds it bit-for-bit
//!   against `io_timeline` on exact inputs).
//! * [`forecaster`] — [`Holt`] double-exponential smoothing over the live
//!   aggregate, and [`forecast_timeline`], which replays it over a
//!   historical aggregate for scoring with `prionn_sched::burst`.
//! * [`alert`] — [`BurstAlerter`]: edge-triggered burst alerts returned as
//!   [`AlertTransition`]s and counted in `forecast_burst_alerts_total` (the
//!   same machinery as `prionn-observe`'s drift alerts), plus the
//!   `forecast_*` gauge/counter/histogram surface.
//! * [`engine`] — [`ForecastEngine`]: everything behind one thread-safe
//!   handle, exposing a JSON snapshot probe for `prionn-observe`'s
//!   `/forecast` ops route.
//!
//! ```
//! use prionn_forecast::{ForecastConfig, ForecastEngine};
//! use prionn_sched::JobIoInterval;
//! use prionn_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let engine = ForecastEngine::new(
//!     &telemetry,
//!     ForecastConfig {
//!         horizon_minutes: 60,
//!         lead_minutes: 5,
//!         ..ForecastConfig::default()
//!     },
//! );
//! engine.job_started(&JobIoInterval { start: 0, end: 1800, bandwidth: 1e6 });
//! let tick = engine.tick();
//! assert!((tick.aggregate - 1e6).abs() < 1.0);
//! ```
//!
//! The crate depends only on `prionn-sched` and `prionn-telemetry`, so it
//! slots below `observe`/`serve` in the dependency graph; the ops endpoint
//! consumes it through a probe closure rather than a hard dependency.
//! See `DESIGN.md` §14 and `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod alert;
pub mod engine;
pub mod forecaster;

pub use aggregate::IoAggregator;
// Re-exported so downstream users of the engine (`job_started` /
// `job_finished` take one) don't need a direct `prionn-sched` dependency.
pub use alert::{AlertConfig, AlertTransition, BurstAlerter};
pub use engine::{ForecastConfig, ForecastEngine, ForecastSnapshot, ForecastTick};
pub use forecaster::{forecast_timeline, Holt, HOLT_ALPHA, HOLT_BETA};
pub use prionn_sched::io::JobIoInterval;
