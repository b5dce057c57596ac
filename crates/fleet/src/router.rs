//! The fleet router: a client library that maps users to shards and
//! keeps pipelined connections to each.
//!
//! Routing is consistent hashing over the [`HashRing`]: a user id always
//! lands on the same shard while the fleet membership holds, and shard
//! loss only remaps the lost shard's arc. Each shard gets a small pool of
//! TCP connections; every connection is **pipelined** — requests carry
//! correlation ids, a dedicated reader thread demultiplexes responses to
//! per-request channels, so hundreds of callers can share one socket
//! without head-of-line blocking on the response side.
//!
//! **Shed vs. failover.** A live shard answering with a typed error
//! ([`ErrorCode::Overloaded`], deadline, model) is a *load
//! decision*: the router surfaces it to the caller unchanged rather than
//! hammering the next shard — retrying an overload elsewhere just moves
//! the hotspot. Only *availability* failures route around: connection
//! loss, timeouts, [`ErrorCode::Draining`] and [`ErrorCode::Stopped`]
//! walk the ring's deterministic failover order, and if every candidate
//! is unavailable the caller gets a typed [`FleetError::Unavailable`].

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use prionn_core::ResourcePrediction;
use prionn_observe::{Span, Tracer};
use prionn_serve::Priority;
use prionn_store::wire::{encode_frame, read_frame, Frame, MAX_FRAME_PAYLOAD};
use prionn_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::proto::{
    decode_error, decode_predictions, decode_stats, decode_swap_ack, encode_predict,
    encode_with_trace, ErrorCode, ShardStats, TraceContext, KIND_DRAIN, KIND_DRAIN_ACK, KIND_ERROR,
    KIND_PREDICT, KIND_PREDICTIONS, KIND_STATS, KIND_STATS_REPLY, KIND_SWAP_ACK, KIND_SWAP_WEIGHTS,
    KIND_TRACE_FLAG,
};
use crate::ring::HashRing;

/// Why a fleet request failed.
#[derive(Debug)]
pub enum FleetError {
    /// A live shard refused the request with a typed code. Not retried on
    /// other shards: the refusal is a load decision, not an outage.
    Rejected {
        /// Shard index that answered.
        shard: usize,
        /// The typed wire code.
        code: ErrorCode,
        /// Human-readable detail from the shard.
        message: String,
    },
    /// Every candidate shard in the user's failover order was down,
    /// draining, or timed out.
    Unavailable {
        /// How many shards were tried.
        attempts: usize,
        /// The last failure seen, for diagnostics.
        last: String,
    },
    /// The router has no shards configured.
    EmptyFleet,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Rejected {
                shard,
                code,
                message,
            } => write!(f, "shard {shard} rejected request ({code}): {message}"),
            FleetError::Unavailable { attempts, last } => {
                write!(
                    f,
                    "no shard available after {attempts} attempts (last: {last})"
                )
            }
            FleetError::EmptyFleet => write!(f, "router has no shards configured"),
        }
    }
}

impl std::error::Error for FleetError {}

impl FleetError {
    /// Stable label for `fleet_shed_total{reason=...}`.
    pub fn label(&self) -> &'static str {
        match self {
            FleetError::Rejected { code, .. } => code.label(),
            FleetError::Unavailable { .. } => "unavailable",
            FleetError::EmptyFleet => "empty_fleet",
        }
    }
}

/// A successful fleet prediction.
#[derive(Debug, Clone)]
pub struct FleetReply {
    /// One prediction per submitted script.
    pub predictions: Vec<ResourcePrediction>,
    /// The weight epoch the serving shard used.
    pub epoch: u64,
    /// Which shard served the request (after any failover).
    pub shard: usize,
}

/// Virtual nodes per shard on the hash ring.
const VNODES: usize = 128;

/// Pipelined connections the router keeps to each shard.
const CONNS_PER_SHARD: usize = 2;

/// Router construction knobs.
#[derive(Clone)]
pub struct RouterConfig {
    /// One endpoint (`host:port`) per shard, indexed by shard id.
    pub endpoints: Vec<String>,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request response timeout (independent of the model deadline
    /// carried inside the request).
    pub request_timeout: Duration,
    /// After a connect failure the shard is considered down for this
    /// long before the router re-attempts it.
    pub down_backoff: Duration,
    /// Registry for `fleet_*` router metrics; a fresh one when `None`.
    pub telemetry: Option<Telemetry>,
    /// Tracer for client-side request spans. When set, every predict
    /// opens a `fleet_predict` root with one `hop` child per shard tried,
    /// and the trace context rides the wire to the serving shard (the
    /// frame kind gains [`KIND_TRACE_FLAG`]). Give it a distinct
    /// namespace from the shards' tracers
    /// ([`Tracer::with_namespace`]) so stitched ids never collide.
    /// Disabled (and zero-overhead on the wire) when `None`.
    pub tracer: Option<Tracer>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            endpoints: Vec::new(),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            down_backoff: Duration::from_millis(250),
            telemetry: None,
            tracer: None,
        }
    }
}

impl std::fmt::Debug for RouterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: Tracer is an opaque handle.
        f.debug_struct("RouterConfig")
            .field("endpoints", &self.endpoints)
            .field("connect_timeout", &self.connect_timeout)
            .field("request_timeout", &self.request_timeout)
            .field("down_backoff", &self.down_backoff)
            .field("tracer", &self.tracer.as_ref().map(|_| "<tracer>"))
            .finish_non_exhaustive()
    }
}

impl RouterConfig {
    /// A config for `endpoints` with all other knobs at their defaults.
    pub fn for_endpoints(endpoints: Vec<String>) -> Self {
        RouterConfig {
            endpoints,
            ..RouterConfig::default()
        }
    }
}

/// One pipelined connection: writes go through a mutex-guarded stream,
/// a reader thread routes responses to per-request channels by id.
struct Conn {
    writer: Mutex<TcpStream>,
    shared: Arc<ConnShared>,
}

struct ConnShared {
    pending: Mutex<HashMap<u64, Sender<Frame>>>,
    alive: AtomicBool,
}

impl Conn {
    fn connect(addr: &SocketAddr, connect_timeout: Duration) -> std::io::Result<Arc<Conn>> {
        let stream = TcpStream::connect_timeout(addr, connect_timeout)?;
        let _ = stream.set_nodelay(true);
        let read_stream = stream.try_clone()?;
        let shared = Arc::new(ConnShared {
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        let reader_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("prionn-router-reader".to_string())
            .spawn(move || {
                let mut r = read_stream;
                // Clean close, truncation, corruption: either way the
                // connection is done once frames stop. Dropping the
                // pending senders wakes every waiter with Disconnected.
                while let Ok(Some(frame)) = read_frame(&mut r, MAX_FRAME_PAYLOAD) {
                    let waiter = reader_shared.pending.lock().remove(&frame.id);
                    if let Some(tx) = waiter {
                        let _ = tx.send(frame);
                    }
                }
                reader_shared.alive.store(false, Ordering::SeqCst);
                reader_shared.pending.lock().clear();
            })?;
        Ok(Arc::new(Conn {
            writer: Mutex::new(stream),
            shared,
        }))
    }

    fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Send one frame and wait for the response with the same id.
    fn request(
        &self,
        kind: u8,
        id: u64,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<Frame, ConnFailure> {
        if !self.is_alive() {
            return Err(ConnFailure::Closed);
        }
        let (tx, rx) = bounded::<Frame>(1);
        self.shared.pending.lock().insert(id, tx);
        let bytes = encode_frame(kind, id, payload);
        {
            let mut w = self.writer.lock();
            if w.write_all(&bytes).is_err() {
                self.shared.pending.lock().remove(&id);
                self.shared.alive.store(false, Ordering::SeqCst);
                return Err(ConnFailure::Closed);
            }
        }
        match rx.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => {
                self.shared.pending.lock().remove(&id);
                Err(ConnFailure::Timeout)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ConnFailure::Closed),
        }
    }
}

enum ConnFailure {
    Closed,
    Timeout,
}

impl ConnFailure {
    fn describe(&self, shard: usize) -> String {
        match self {
            ConnFailure::Closed => format!("shard {shard}: connection closed"),
            ConnFailure::Timeout => format!("shard {shard}: response timeout"),
        }
    }
}

struct ShardState {
    endpoint: Mutex<String>,
    conns: Mutex<Vec<Arc<Conn>>>,
    rr: AtomicUsize,
    down_until: Mutex<Option<Instant>>,
    up: Gauge,
    /// Requests this shard ultimately served, failovers included — the
    /// per-shard attribution the federated view aggregates.
    served: Counter,
}

struct RouterMetrics {
    requests: Counter,
    latency: Histogram,
    failovers: Counter,
    reconnects: Counter,
    /// `fleet_shed_total` indexed by wire code byte; the bytes
    /// [`ErrorCode::from_u8`] does not know (0, and the retired 3) hold
    /// the `unknown` series.
    shed: Vec<Counter>,
    shed_unavailable: Counter,
}

impl RouterMetrics {
    fn build(t: &Telemetry) -> Self {
        let shed_total = |reason: &str| {
            t.counter_with(
                "fleet_shed_total",
                "Requests answered with a typed shed, by reason",
                &[("reason", reason)],
            )
        };
        let shed = (0..=ErrorCode::TooLarge as u8)
            .map(|raw| shed_total(ErrorCode::from_u8(raw).map_or("unknown", |c| c.label())))
            .collect();
        RouterMetrics {
            requests: t.counter("fleet_requests_total", "Predict requests routed"),
            latency: t.histogram(
                "fleet_request_seconds",
                "End-to-end fleet request latency (seconds)",
            ),
            failovers: t.counter(
                "fleet_failover_total",
                "Requests that moved past an unavailable shard",
            ),
            reconnects: t.counter(
                "fleet_reconnects_total",
                "New TCP connections dialed to shards",
            ),
            shed,
            shed_unavailable: shed_total("unavailable"),
        }
    }

    fn count_shed(&self, code: ErrorCode) {
        self.shed[code as usize].inc();
    }

    /// An error frame this build cannot read, such as a retired code from
    /// an older shard.
    fn count_unknown_shed(&self) {
        self.shed[0].inc();
    }
}

/// The fleet client: consistent-hash routing, pooled pipelined
/// connections, typed shed, ring-ordered failover.
pub struct Router {
    ring: HashRing,
    shards: Vec<ShardState>,
    cfg: RouterConfig,
    telemetry: Telemetry,
    tracer: Tracer,
    next_id: AtomicU64,
    metrics: RouterMetrics,
}

impl Router {
    /// Build a router over `cfg.endpoints`. Does not dial anything yet —
    /// connections are established lazily on first use per shard.
    pub fn new(cfg: RouterConfig) -> Router {
        // Ring placement is by slot name, not address, so a replacement
        // process at a new address keeps its slot's users.
        let names: Vec<String> = (0..cfg.endpoints.len())
            .map(|i| format!("shard-{i}"))
            .collect();
        let telemetry = cfg.telemetry.clone().unwrap_or_default();
        let metrics = RouterMetrics::build(&telemetry);
        let shards = cfg
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| ShardState {
                endpoint: Mutex::new(ep.clone()),
                conns: Mutex::new(Vec::new()),
                rr: AtomicUsize::new(0),
                down_until: Mutex::new(None),
                up: telemetry.gauge_with(
                    "fleet_shard_up",
                    "1 while the router considers the shard reachable",
                    &[("shard", &i.to_string())],
                ),
                served: telemetry.counter_with(
                    "fleet_served_total",
                    "Requests served, by the shard that ultimately answered",
                    &[("shard", &i.to_string())],
                ),
            })
            .collect();
        let ring = HashRing::new(&names, VNODES);
        let tracer = cfg.tracer.clone().unwrap_or_default();
        Router {
            ring,
            shards,
            cfg,
            telemetry,
            tracer,
            next_id: AtomicU64::new(1),
            metrics,
        }
    }

    /// The registry holding this router's `fleet_*` metrics.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a user id maps to while all shards are healthy.
    pub fn route(&self, user: u64) -> Option<usize> {
        self.ring.owner(user)
    }

    /// Predict with no deadline.
    pub fn predict(&self, user: u64, scripts: &[String]) -> Result<FleetReply, FleetError> {
        self.predict_for_user(user, scripts, None)
    }

    /// Route a predict request for `user`, failing over along the ring on
    /// unavailability and returning typed errors on shed. A `deadline`
    /// travels in whole milliseconds, rounded up.
    pub fn predict_for_user(
        &self,
        user: u64,
        scripts: &[String],
        deadline: Option<Duration>,
    ) -> Result<FleetReply, FleetError> {
        let deadline_ms = deadline.map_or(0, wire_deadline_ms);
        let payload = encode_predict(Priority::Normal, deadline_ms, scripts);
        // Waiting for a response should outlast the in-shard deadline;
        // otherwise the shard's typed DeadlineExceeded never reaches us.
        let timeout = match deadline {
            Some(d) => self.cfg.request_timeout.max(d + Duration::from_millis(500)),
            None => self.cfg.request_timeout,
        };

        // Client-side trace root: one `hop` child per shard tried. The
        // hop span's context rides the wire so the shard's Gateway tree
        // parents under it — one stitched fleet-wide trace.
        let mut root = self.tracer.root("fleet_predict");
        if root.is_recording() {
            root.set_detail(format!("user={user} scripts={}", scripts.len()));
        }
        let walked = self.walk_ring(user, &root, &payload, timeout);
        if root.is_recording() {
            match &walked {
                Ok(reply) => root.set_detail(format!(
                    "user={user} scripts={} served_by={}",
                    scripts.len(),
                    reply.shard
                )),
                Err(FleetError::Unavailable { attempts, .. }) => {
                    root.set_detail(format!("user={user} unavailable after {attempts} attempts"));
                }
                Err(_) => {}
            }
        }
        walked
    }

    /// The ring walk: try `user`'s owners in failover order until one
    /// serves the predict `payload` or refuses it with a typed code, or all
    /// are unavailable. Does the request, failover, shed, served and
    /// latency accounting, and opens one `hop` child of `root` per shard
    /// tried, whose context rides the wire.
    fn walk_ring(
        &self,
        user: u64,
        root: &Span,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<FleetReply, FleetError> {
        if self.shards.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        self.metrics.requests.inc();
        let started = Instant::now();
        let walk = || {
            let mut attempts = 0usize;
            let mut last = String::from("no shard tried");
            for shard in self.ring.owners(user) {
                let mut hop = root.child("hop");
                let trace = hop.is_recording().then(|| TraceContext {
                    trace_id: hop.ctx().trace_id,
                    parent_span_id: hop.ctx().span_id,
                    hop: attempts.min(u8::MAX as usize) as u8,
                });
                attempts += 1;
                match self.try_on(shard, payload, timeout, trace) {
                    Ok((epoch, predictions)) => {
                        if attempts > 1 {
                            self.metrics.failovers.inc();
                        }
                        self.shards[shard].served.inc();
                        if hop.is_recording() {
                            hop.set_detail(format!("shard={shard} served"));
                        }
                        return Ok(FleetReply {
                            predictions,
                            epoch,
                            shard,
                        });
                    }
                    Err(TryError::Reject(code, message)) => {
                        self.metrics.count_shed(code);
                        if hop.is_recording() {
                            hop.set_detail(format!("shard={shard} reject={code}"));
                        }
                        return Err(FleetError::Rejected {
                            shard,
                            code,
                            message,
                        });
                    }
                    Err(TryError::Failover(reason)) => {
                        if hop.is_recording() {
                            hop.set_detail(format!("shard={shard} failover: {reason}"));
                        }
                        last = reason;
                    }
                }
            }
            self.metrics.shed_unavailable.inc();
            Err(FleetError::Unavailable { attempts, last })
        };
        let walked = walk();
        self.metrics
            .latency
            .observe(started.elapsed().as_secs_f64());
        walked
    }

    /// One attempt on one shard: send the predict `payload` and classify
    /// the reply frame — predictions decode to the answer; availability
    /// errors (`Stopped`, `Draining`) and anything unintelligible walk the
    /// ring; every other typed error surfaces as a refusal.
    fn try_on(
        &self,
        shard: usize,
        payload: &[u8],
        timeout: Duration,
        trace: Option<TraceContext>,
    ) -> Result<(u64, Vec<ResourcePrediction>), TryError> {
        let conn = self.conn_for(shard).map_err(TryError::Failover)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let framed;
        let (kind, bytes): (u8, &[u8]) = match &trace {
            Some(ctx) => {
                framed = encode_with_trace(ctx, payload);
                (KIND_PREDICT | KIND_TRACE_FLAG, &framed)
            }
            None => (KIND_PREDICT, payload),
        };
        let frame = match conn.request(kind, id, bytes, timeout) {
            Ok(f) => f,
            Err(fail) => {
                if matches!(fail, ConnFailure::Closed) {
                    self.mark_down(shard);
                }
                return Err(TryError::Failover(fail.describe(shard)));
            }
        };
        match frame.kind {
            KIND_PREDICTIONS => decode_predictions(&frame.payload).map_err(|e| {
                TryError::Failover(format!("shard {shard}: bad predictions payload: {e}"))
            }),
            KIND_ERROR => match decode_error(&frame.payload) {
                Ok((code, msg)) if matches!(code, ErrorCode::Stopped | ErrorCode::Draining) => {
                    self.metrics.count_shed(code);
                    Err(TryError::Failover(format!("shard {shard} {code}: {msg}")))
                }
                Ok((code, msg)) => Err(TryError::Reject(code, msg)),
                Err(e) => {
                    self.metrics.count_unknown_shed();
                    Err(TryError::Failover(format!(
                        "shard {shard}: bad error payload: {e}"
                    )))
                }
            },
            other => Err(TryError::Failover(format!(
                "shard {shard}: unexpected frame kind {other}"
            ))),
        }
    }

    /// Fetch a shard's health snapshot.
    pub fn shard_stats(&self, shard: usize) -> Result<ShardStats, String> {
        let frame = self.admin_request(shard, KIND_STATS, &[], self.cfg.request_timeout)?;
        match frame.kind {
            KIND_STATS_REPLY => decode_stats(&frame.payload).map_err(|e| e.to_string()),
            KIND_ERROR => Err(describe_error_frame(&frame)),
            other => Err(format!("unexpected frame kind {other}")),
        }
    }

    /// Tell a shard to drain: it answers new predicts with a typed
    /// Draining error and finishes in-flight work.
    pub fn drain_shard(&self, shard: usize) -> Result<(), String> {
        let frame = self.admin_request(shard, KIND_DRAIN, &[], self.cfg.request_timeout)?;
        match frame.kind {
            KIND_DRAIN_ACK => Ok(()),
            KIND_ERROR => Err(describe_error_frame(&frame)),
            other => Err(format!("unexpected frame kind {other}")),
        }
    }

    /// Push checkpoint bytes to one shard's weight bus; returns the epoch
    /// the shard assigned. `timeout` should be generous — the shard
    /// verifies section CRCs and deserialises the model before acking.
    pub fn swap_weights(
        &self,
        shard: usize,
        checkpoint_bytes: &[u8],
        timeout: Duration,
    ) -> Result<u64, String> {
        let frame = self.admin_request(shard, KIND_SWAP_WEIGHTS, checkpoint_bytes, timeout)?;
        match frame.kind {
            KIND_SWAP_ACK => decode_swap_ack(&frame.payload).map_err(|e| e.to_string()),
            KIND_ERROR => Err(describe_error_frame(&frame)),
            other => Err(format!("unexpected frame kind {other}")),
        }
    }

    /// Point a shard slot at a new address (a replacement process) and
    /// clear its down state. The ring layout is untouched — the slot
    /// keeps its name, so users keep their assignment.
    pub fn set_endpoint(&self, shard: usize, endpoint: &str) {
        let state = &self.shards[shard];
        *state.endpoint.lock() = endpoint.to_string();
        state.conns.lock().clear();
        *state.down_until.lock() = None;
    }

    fn mark_down(&self, shard: usize) {
        let state = &self.shards[shard];
        state.conns.lock().retain(|c| c.is_alive());
        if state.conns.lock().is_empty() {
            *state.down_until.lock() = Some(Instant::now() + self.cfg.down_backoff);
            state.up.set(0.0);
        }
    }

    fn admin_request(
        &self,
        shard: usize,
        kind: u8,
        payload: &[u8],
        timeout: Duration,
    ) -> Result<Frame, String> {
        let conn = self.conn_for(shard)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        conn.request(kind, id, payload, timeout).map_err(|fail| {
            if matches!(fail, ConnFailure::Closed) {
                self.mark_down(shard);
            }
            fail.describe(shard)
        })
    }

    /// Round-robin a live connection for a shard, dialing up to the pool
    /// size. Returns a failover reason when the shard is in backoff or
    /// unreachable.
    fn conn_for(&self, shard: usize) -> Result<Arc<Conn>, String> {
        let state = &self.shards[shard];
        if let Some(until) = *state.down_until.lock() {
            if Instant::now() < until {
                return Err(format!("shard {shard} in down backoff"));
            }
        }
        {
            let mut conns = state.conns.lock();
            conns.retain(|c| c.is_alive());
            if conns.len() >= CONNS_PER_SHARD {
                let i = state.rr.fetch_add(1, Ordering::Relaxed) % conns.len();
                return Ok(Arc::clone(&conns[i]));
            }
        }
        let endpoint = state.endpoint.lock().clone();
        let addr =
            resolve(&endpoint).ok_or_else(|| format!("shard {shard}: bad endpoint {endpoint}"))?;
        match Conn::connect(&addr, self.cfg.connect_timeout) {
            Ok(conn) => {
                self.metrics.reconnects.inc();
                state.up.set(1.0);
                *state.down_until.lock() = None;
                state.conns.lock().push(Arc::clone(&conn));
                Ok(conn)
            }
            Err(e) => {
                let mut conns = state.conns.lock();
                conns.retain(|c| c.is_alive());
                if let Some(c) = conns.first() {
                    // Dial failed but an older connection still lives —
                    // keep using it rather than declaring the shard down.
                    return Ok(Arc::clone(c));
                }
                drop(conns);
                *state.down_until.lock() = Some(Instant::now() + self.cfg.down_backoff);
                state.up.set(0.0);
                Err(format!("shard {shard}: connect {endpoint} failed: {e}"))
            }
        }
    }
}

enum TryError {
    /// Typed refusal from a live shard — return to caller.
    Reject(ErrorCode, String),
    /// Availability failure — try the next shard in ring order.
    Failover(String),
}

/// A deadline on the wire: whole milliseconds, rounded up and at least 1,
/// because a shard reads 0 as "no deadline".
fn wire_deadline_ms(d: Duration) -> u32 {
    d.as_nanos().div_ceil(1_000_000).clamp(1, u32::MAX as u128) as u32
}

fn describe_error_frame(frame: &Frame) -> String {
    match decode_error(&frame.payload) {
        Ok((code, msg)) => format!("{code}: {msg}"),
        Err(e) => format!("undecodable error frame: {e}"),
    }
}

fn resolve(endpoint: &str) -> Option<SocketAddr> {
    endpoint.to_socket_addrs().ok()?.next()
}
