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
//! ([`ErrorCode::Overloaded`], deadline, pre-burst, model) is a *load
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
    decode_error, decode_predictions, decode_revision, decode_stats, decode_swap_ack,
    encode_predict, encode_revise, encode_with_trace, ErrorCode, ReviseRequest, RevisionReply,
    ShardStats, TraceContext, KIND_DRAIN, KIND_DRAIN_ACK, KIND_ERROR, KIND_PING, KIND_PONG,
    KIND_PREDICT, KIND_PREDICTIONS, KIND_REVISE, KIND_REVISION, KIND_STATS, KIND_STATS_REPLY,
    KIND_SWAP_ACK, KIND_SWAP_WEIGHTS, KIND_TRACE_FLAG,
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

/// A successful fleet revision.
#[derive(Debug, Clone, Copy)]
pub struct FleetRevision {
    /// The revised intervals and the serving shard's weight epoch.
    pub revision: RevisionReply,
    /// Which shard served the request (after any failover).
    pub shard: usize,
}

/// Router construction knobs.
#[derive(Clone)]
pub struct RouterConfig {
    /// One endpoint (`host:port`) per shard, indexed by shard id.
    pub endpoints: Vec<String>,
    /// Stable shard names for ring placement. Defaults to `shard-<i>`;
    /// override when shards can be replaced at different addresses so
    /// ring layout survives the address change.
    pub shard_names: Option<Vec<String>>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Pipelined connections per shard.
    pub conns_per_shard: usize,
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
            shard_names: None,
            vnodes: 128,
            conns_per_shard: 2,
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
            .field("shard_names", &self.shard_names)
            .field("vnodes", &self.vnodes)
            .field("conns_per_shard", &self.conns_per_shard)
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
    /// Indexed so `shed[code as usize]` works; slot 0 unused.
    shed: Vec<Counter>,
    shed_unavailable: Counter,
}

impl RouterMetrics {
    fn build(t: &Telemetry) -> Self {
        let codes = [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShedPreBurst,
            ErrorCode::Stopped,
            ErrorCode::Model,
            ErrorCode::Draining,
            ErrorCode::BadRequest,
            ErrorCode::TooLarge,
        ];
        let mut shed = vec![t.counter_with(
            "fleet_shed_total",
            "Requests answered with a typed shed, by reason",
            &[("reason", "unknown")],
        )];
        for code in codes {
            shed.push(t.counter_with(
                "fleet_shed_total",
                "Requests answered with a typed shed, by reason",
                &[("reason", code.label())],
            ));
        }
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
            shed_unavailable: t.counter_with(
                "fleet_shed_total",
                "Requests answered with a typed shed, by reason",
                &[("reason", "unavailable")],
            ),
        }
    }

    fn count_shed(&self, code: ErrorCode) {
        self.shed[code as usize].inc();
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
        let names: Vec<String> = match &cfg.shard_names {
            Some(names) => names.clone(),
            None => (0..cfg.endpoints.len())
                .map(|i| format!("shard-{i}"))
                .collect(),
        };
        assert_eq!(
            names.len(),
            cfg.endpoints.len(),
            "shard_names must match endpoints one-to-one"
        );
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
        let ring = HashRing::new(&names, cfg.vnodes);
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

    /// Predict with default priority and no deadline.
    pub fn predict(&self, user: u64, scripts: &[String]) -> Result<FleetReply, FleetError> {
        self.predict_for_user(user, scripts, None, Priority::Normal)
    }

    /// Route a predict request for `user`, failing over along the ring on
    /// unavailability and returning typed errors on shed.
    pub fn predict_for_user(
        &self,
        user: u64,
        scripts: &[String],
        deadline: Option<Duration>,
        priority: Priority,
    ) -> Result<FleetReply, FleetError> {
        let deadline_ms = deadline.map_or(0, |d| d.as_millis().min(u32::MAX as u128) as u32);
        let payload = encode_predict(priority, deadline_ms, scripts);
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
        let walked = self.walk_ring(user, &root, |shard, trace| {
            self.try_on(shard, &PREDICT, &payload, timeout, trace)
        });
        if root.is_recording() {
            match &walked {
                Ok((shard, _)) => root.set_detail(format!(
                    "user={user} scripts={} served_by={shard}",
                    scripts.len()
                )),
                Err(FleetError::Unavailable { attempts, .. }) => {
                    root.set_detail(format!("user={user} unavailable after {attempts} attempts"));
                }
                Err(_) => {}
            }
        }
        walked.map(|(shard, (epoch, predictions))| FleetReply {
            predictions,
            epoch,
            shard,
        })
    }

    /// Route an in-flight revision request, hashing on the job id so a
    /// job's revisions land on one shard (one drift window calibrates
    /// all of its intervals). Fails over along the ring like predicts;
    /// typed refusals surface unchanged. Untraced.
    pub fn revise(&self, req: &ReviseRequest) -> Result<FleetRevision, FleetError> {
        let payload = encode_revise(req);
        let untraced = Tracer::disabled().root("fleet_revise");
        self.walk_ring(req.obs.job_id, &untraced, |shard, trace| {
            self.try_on(shard, &REVISE, &payload, self.cfg.request_timeout, trace)
        })
        .map(|(shard, revision)| FleetRevision { revision, shard })
    }

    /// The one ring walk: try `key`'s owners in failover order until one
    /// serves (`Ok` with the shard that did) or refuses with a typed code,
    /// or all are unavailable. Does the request, failover, shed, served and
    /// latency accounting, and opens one `hop` child of `root` per shard
    /// tried, handing its context to `attempt` to put on the wire.
    fn walk_ring<T>(
        &self,
        key: u64,
        root: &Span,
        attempt: impl Fn(usize, Option<TraceContext>) -> Result<T, TryError>,
    ) -> Result<(usize, T), FleetError> {
        if self.shards.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        self.metrics.requests.inc();
        let started = Instant::now();
        let walk = || {
            let mut attempts = 0usize;
            let mut last = String::from("no shard tried");
            for shard in self.ring.owners(key) {
                let mut hop = root.child("hop");
                let trace = hop.is_recording().then(|| TraceContext {
                    trace_id: hop.ctx().trace_id,
                    parent_span_id: hop.ctx().span_id,
                    hop: attempts.min(u8::MAX as usize) as u8,
                });
                attempts += 1;
                match attempt(shard, trace) {
                    Ok(served) => {
                        if attempts > 1 {
                            self.metrics.failovers.inc();
                        }
                        self.shards[shard].served.inc();
                        if hop.is_recording() {
                            hop.set_detail(format!("shard={shard} served"));
                        }
                        return Ok((shard, served));
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

    /// One attempt on one shard: send `payload` as an `exchange` request
    /// and classify the reply frame — the exchange's reply kind decodes to
    /// the answer; availability errors (`Stopped`, and `Draining` for
    /// predicts: a draining shard still revises) and anything
    /// unintelligible walk the ring; every other typed error surfaces as a
    /// refusal.
    fn try_on<T>(
        &self,
        shard: usize,
        exchange: &Exchange<T>,
        payload: &[u8],
        timeout: Duration,
        trace: Option<TraceContext>,
    ) -> Result<T, TryError> {
        let conn = self.conn_for(shard).map_err(TryError::Failover)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let framed;
        let (kind, bytes): (u8, &[u8]) = match &trace {
            Some(ctx) => {
                framed = encode_with_trace(ctx, payload);
                (exchange.ask | KIND_TRACE_FLAG, &framed)
            }
            None => (exchange.ask, payload),
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
            k if k == exchange.reply => (exchange.decode)(&frame.payload).map_err(|e| {
                let what = exchange.what;
                TryError::Failover(format!("shard {shard}: bad {what} payload: {e}"))
            }),
            KIND_ERROR => match decode_error(&frame.payload) {
                Ok((code, msg))
                    if code == ErrorCode::Stopped
                        || (code == ErrorCode::Draining && exchange.ask == KIND_PREDICT) =>
                {
                    self.metrics.count_shed(code);
                    Err(TryError::Failover(format!("shard {shard} {code}: {msg}")))
                }
                Ok((code, msg)) => Err(TryError::Reject(code, msg)),
                Err(e) => Err(TryError::Failover(format!(
                    "shard {shard}: bad error payload: {e}"
                ))),
            },
            other => Err(TryError::Failover(format!(
                "shard {shard}: unexpected frame kind {other}"
            ))),
        }
    }

    /// Liveness probe: true when the shard answers a ping in time.
    pub fn ping(&self, shard: usize) -> bool {
        matches!(
            self.admin_request(shard, KIND_PING, &[], self.cfg.request_timeout),
            Ok(f) if f.kind == KIND_PONG
        )
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

    /// Forget a shard's backoff so the next request re-dials immediately
    /// (used after a known recovery instead of waiting out the backoff).
    pub fn mark_up(&self, shard: usize) {
        *self.shards[shard].down_until.lock() = None;
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
            if conns.len() >= self.cfg.conns_per_shard.max(1) {
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

/// The wire shape of one kind of request that walks the ring.
struct Exchange<T> {
    ask: u8,
    reply: u8,
    /// The reply's name in diagnostics.
    what: &'static str,
    decode: fn(&[u8]) -> prionn_store::Result<T>,
}

const PREDICT: Exchange<(u64, Vec<ResourcePrediction>)> = Exchange {
    ask: KIND_PREDICT,
    reply: KIND_PREDICTIONS,
    what: "predictions",
    decode: decode_predictions,
};

const REVISE: Exchange<RevisionReply> = Exchange {
    ask: KIND_REVISE,
    reply: KIND_REVISION,
    what: "revision",
    decode: decode_revision,
};

fn describe_error_frame(frame: &Frame) -> String {
    match decode_error(&frame.payload) {
        Ok((code, msg)) => format!("{code}: {msg}"),
        Err(e) => format!("undecodable error frame: {e}"),
    }
}

fn resolve(endpoint: &str) -> Option<SocketAddr> {
    endpoint.to_socket_addrs().ok()?.next()
}
