//! # prionn-telemetry
//!
//! Lock-light metrics and tracing for PRIONN's train/predict hot paths.
//!
//! PRIONN is an *online* system — it retrains every hundred submissions and
//! serves predictions on the scheduler's critical path — so "is it fast" and
//! "is it healthy" are questions about a live process, not a benchmark run.
//! This crate provides the measurement substrate the rest of the workspace
//! wires through:
//!
//! * [`Counter`] — monotonic totals (predictions served, retrains, sim
//!   steps), striped across cache-padded atomic shards;
//! * [`Gauge`] — last-write-wins values (queue depth, last epoch loss);
//! * [`Histogram`] — fixed log-scale-bucket latency distributions with
//!   mergeable shards and quantile estimates;
//! * [`Telemetry`] — the registry tying them together, exporting snapshots
//!   as JSON and Prometheus text exposition format;
//! * [`MetricsSnapshot`] — a typed point-in-time view, read from a live
//!   registry ([`Telemetry::snapshot`]), parsed from an exposition, or
//!   merged across processes; [`MetricsSnapshot::to_prometheus`] is the one
//!   exposition writer, and [`json_str`] the one JSON string escaper.
//!
//! Design constraints, in order: hot-path updates must be allocation-free
//! and lock-free (one striped atomic add); the whole crate must stand on
//! `std` alone; exports are pull-based snapshots so there is no background
//! thread to manage. See `docs/OBSERVABILITY.md` for the metric inventory
//! and `DESIGN.md` §10 for the architecture rationale.
//!
//! ```
//! use prionn_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let lat = t.histogram("predict_seconds", "Predict latency");
//! {
//!     let _timer = lat.start_timer(); // records on drop
//! }
//! t.counter("predictions_served_total", "Requests").inc();
//!
//! let prom = t.prometheus(); // scrape-ready text
//! assert!(prom.contains("predict_seconds_bucket"));
//! let json = t.json(); // snapshot with p50/p90/p99 estimates
//! assert!(json.contains("\"p90\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod instrument;
pub mod merge;
mod registry;

pub use instrument::{Counter, Gauge, HistTimer, Histogram};
pub use merge::{merge_histograms, merge_shards, MergedMetrics, MetricsSnapshot};
pub use registry::{json_str, Labels, Telemetry};
