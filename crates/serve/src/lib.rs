//! # prionn-serve — sharded, micro-batching inference gateway
//!
//! PRIONN's predictions are cheapest in bulk: one fused forward pass over a
//! batch of job scripts amortises the data-mapping and GEMM overhead that
//! dominates batch-1 inference. But a scheduler integration sees jobs one at
//! a time, from many submitting threads at once. This crate bridges the two
//! shapes with a [`Gateway`] that sits in front of [`prionn_core::Prionn`]:
//!
//! * **Micro-batching** — every request enters through
//!   [`Gateway::submit`] (non-blocking, one-shot completion; `predict` is
//!   blocking sugar over it) onto one shared bounded queue. Replica
//!   workers drain it up to
//!   [`GatewayConfig::max_batch`] scripts, lingering at most
//!   [`GatewayConfig::max_wait`] past the first request's arrival, then run
//!   one fused forward pass and split the answers back out per caller.
//! * **Replica sharding** — [`GatewayConfig::replicas`] worker threads each
//!   own a private copy of the model forked from the same checkpoint.
//!   Work-pulling from the shared queue gives least-loaded dispatch for
//!   free: whichever replica is idle takes the next batch.
//! * **Admission control** — the request queue is bounded
//!   ([`GatewayConfig::queue_cap`]); when it is full, callers get a typed
//!   [`ServeError::Overloaded`] immediately instead of queueing without
//!   bound. Per-request deadlines shed stale work *before* a forward pass
//!   is spent on it, and shutdown drains in-flight requests before the
//!   worker threads exit.
//! * **Hot-swap** — a background trainer thread retrains on completed-job
//!   batches (latest-wins bounded queue) and publishes the new weights
//!   through [`prionn_store::broadcast::WeightBus`] as an epoch-tagged
//!   immutable checkpoint. Replicas apply the swap between batches,
//!   all-or-nothing, so a prediction can never observe a half-updated
//!   model; every reply carries the weight epoch that served it. The same
//!   thread writes [`Gateway::snapshot`] files for warm restarts.
//!
//! ```no_run
//! use prionn_core::{Prionn, PrionnConfig};
//! use prionn_serve::{Gateway, GatewayConfig};
//!
//! let scripts = vec!["#!/bin/bash\nsrun ./app\n".to_string()];
//! let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
//! let model = Prionn::new(PrionnConfig::default(), &refs).unwrap();
//! let gw = Gateway::spawn(model, GatewayConfig::default()).unwrap();
//! let preds = gw.predict(&scripts).unwrap();
//! assert_eq!(preds.len(), 1);
//! gw.shutdown();
//! ```

#![warn(missing_docs)]

mod gateway;

pub use gateway::{
    Gateway, GatewayConfig, GatewayStats, PredictRequest, PredictionReply, PressureProbe, Priority,
    ServeError, ServeResult,
};
