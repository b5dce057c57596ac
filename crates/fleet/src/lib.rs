//! # prionn-fleet — sharded multi-gateway serving over a binary wire protocol
//!
//! One [`prionn_serve::Gateway`] scales until it saturates a process; a
//! cluster-wide deployment needs many gateways and something to route
//! between them. This crate is that layer, built entirely on `std::net`
//! TCP (the same dependency-free pattern the observe crate's ops server
//! proves out — no async runtime, no HTTP stack):
//!
//! * **Wire protocol** ([`proto`]) — every message is one length-prefixed,
//!   CRC32-checked frame ([`prionn_store::wire`]) carrying a correlation
//!   id, so a single connection runs many requests concurrently and
//!   responses may return out of order (pipelining). Malformed frames
//!   fail with typed errors, never panics.
//! * **Shard server** ([`ShardServer`]) — fronts a gateway on a TCP
//!   listener. Per-connection worker threads feed concurrent requests
//!   into the gateway, which is exactly the shape its micro-batch fusion
//!   wants; a writer thread batches replies into shared flushes.
//! * **Router** ([`Router`]) — consistent-hash maps user ids to shards
//!   ([`HashRing`]: FNV-1a + vnodes, shard loss only remaps the lost
//!   arc), pools pipelined connections, and distinguishes *load* from
//!   *availability*: typed sheds ([`ErrorCode::Overloaded`] etc.) return
//!   to the caller unchanged, while connection loss, timeouts, and
//!   draining shards fail over along the ring's deterministic order.
//! * **Coordinator** ([`FleetCoordinator`]) — rolls a new checkpoint
//!   across the fleet shard-by-shard over each shard's all-or-nothing
//!   `WeightBus` swap, bounding the mixed-epoch window to one shard;
//!   drains shards gracefully before removal.
//! * **Observability plane** — the router opens a client span per call
//!   and injects its trace context into the frame (see
//!   [`proto::KIND_TRACE_FLAG`]); shards adopt it as the root of their
//!   gateway span tree, so `prionn_observe::FleetCollector` can stitch
//!   one fleet-wide trace and federate every shard's metrics.
//!
//! The `prionn-shard` binary serves one shard process; the `loadgen`
//! binary drives scripted users against a local fleet, including a
//! shard-kill + drain drill.

#![warn(missing_docs)]

pub mod coordinator;
pub mod proto;
pub mod ring;
pub mod router;
pub mod shard;
pub mod testkit;

pub use coordinator::{FleetCoordinator, RolloutReport, ShardRollout};
pub use proto::{ErrorCode, ReviseRequest, RevisionReply, ShardStats, TraceContext};
pub use ring::HashRing;
pub use router::{FleetError, FleetReply, FleetRevision, Router, RouterConfig};
pub use shard::{ShardConfig, ShardServer};
