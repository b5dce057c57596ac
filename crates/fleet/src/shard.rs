//! The shard server: one gateway process's TCP front door.
//!
//! A [`ShardServer`] listens on a `std::net::TcpListener` (the same
//! dependency-free pattern as the observe crate's `OpsServer`) and speaks
//! the [`proto`](crate::proto) frame protocol. Each accepted connection
//! is two threads:
//!
//! * a **reader** decoding frames, answering admin messages (ping, stats,
//!   drain, weight swap, revise) inline, and handing each predict straight
//!   to [`Gateway::submit`] — which never blocks, so one connection can
//!   have as many requests inside the gateway as its queue admits, and
//!   that is what feeds micro-batch fusion. The gateway's bounded queue is
//!   the only queue in front of a replica: when it is full the request is
//!   answered [`ErrorCode::Overloaded`] at once;
//! * a **writer** that owns the send half behind a `BufWriter` and
//!   flushes once per drain of its reply channel, so responses completing
//!   close together share one syscall. A predict's completion, run by the
//!   gateway, encodes the reply frame and hands it the bytes.
//!
//! Because every frame carries a correlation id, responses may be written
//! in completion order: the connection is fully pipelined.
//!
//! **Drain semantics:** [`ShardServer::drain`] flips the shard into
//! draining mode — new predict frames are answered with a typed
//! [`ErrorCode::Draining`] error while in-flight requests finish
//! normally. The listener keeps accepting connections (a client that
//! dials in must learn the state through a typed answer, not a refused
//! connection) and ops keeps serving `/metrics`, until
//! [`ShardServer::shutdown`].

use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use prionn_observe::{DriftHead, SpanCtx};
use prionn_revise::{ConformalCalibrator, PredictionInterval, ReviseConfig, Reviser};
use prionn_serve::{Gateway, PredictRequest};
use prionn_store::wire::{encode_frame, read_frame, Frame};
use prionn_store::{Checkpoint, StoreError};
use prionn_telemetry::{Counter, Gauge};

use crate::proto::{
    decode_predict, decode_revise, encode_error, encode_predictions, encode_revision, encode_stats,
    encode_swap_ack, strip_trace, ErrorCode, RevisionReply, ShardStats, KIND_DRAIN, KIND_DRAIN_ACK,
    KIND_ERROR, KIND_PING, KIND_PONG, KIND_PREDICT, KIND_PREDICTIONS, KIND_REVISE, KIND_REVISION,
    KIND_STATS, KIND_STATS_REPLY, KIND_SWAP_ACK, KIND_SWAP_WEIGHTS,
};

/// Tuning knobs for [`ShardServer::spawn`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bind address; use `127.0.0.1:0` for an ephemeral port.
    pub bind: String,
    /// Cap on one frame's payload; oversized frames are answered with a
    /// typed error and the connection is closed (framing is lost).
    pub max_payload: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            bind: "127.0.0.1:0".to_string(),
            max_payload: prionn_store::wire::MAX_FRAME_PAYLOAD,
        }
    }
}

/// Instruments registered in the gateway's telemetry registry, so one
/// `/metrics` scrape shows the serve and fleet surfaces together.
struct ShardMetrics {
    connections: Gauge,
    frames_rx: Counter,
    frames_tx: Counter,
    bytes_rx: Counter,
    bytes_tx: Counter,
    requests: Counter,
    revisions: Counter,
    shed_draining: Counter,
    failover_arrivals: Counter,
    decode_errors: Counter,
    draining: Gauge,
    in_flight: Gauge,
}

impl ShardMetrics {
    fn build(gateway: &Gateway) -> Self {
        let t = gateway.telemetry();
        ShardMetrics {
            connections: t.gauge("fleet_shard_connections", "Open fleet protocol connections"),
            frames_rx: t.counter_with(
                "fleet_shard_frames_total",
                "Wire frames by direction",
                &[("dir", "rx")],
            ),
            frames_tx: t.counter_with(
                "fleet_shard_frames_total",
                "Wire frames by direction",
                &[("dir", "tx")],
            ),
            bytes_rx: t.counter_with(
                "fleet_shard_bytes_total",
                "Wire bytes by direction (headers included)",
                &[("dir", "rx")],
            ),
            bytes_tx: t.counter_with(
                "fleet_shard_bytes_total",
                "Wire bytes by direction (headers included)",
                &[("dir", "tx")],
            ),
            requests: t.counter(
                "fleet_shard_requests_total",
                "Predict requests received over the wire",
            ),
            revisions: t.counter(
                "fleet_shard_revisions_total",
                "In-flight revision requests answered over the wire",
            ),
            shed_draining: t.counter_with(
                "fleet_shard_shed_total",
                "Requests shed at the shard server",
                &[("reason", "draining")],
            ),
            failover_arrivals: t.counter(
                "fleet_shard_failover_arrivals_total",
                "Predict requests that arrived after another shard refused them (trace hop > 0)",
            ),
            decode_errors: t.counter(
                "fleet_shard_decode_errors_total",
                "Connections dropped on malformed frames",
            ),
            draining: t.gauge("fleet_shard_draining", "1 while draining, else 0"),
            in_flight: t.gauge(
                "fleet_shard_in_flight",
                "Predict requests currently being served",
            ),
        }
    }
}

struct ShardInner {
    gateway: Arc<Gateway>,
    cfg: ShardConfig,
    draining: AtomicBool,
    stopping: AtomicBool,
    in_flight: AtomicUsize,
    requests_served: AtomicU64,
    requests_shed: AtomicU64,
    failover_arrivals: AtomicU64,
    revisions_served: AtomicU64,
    /// Live connection streams keyed by token, for prompt close at
    /// shutdown. A connection removes itself when its thread exits, so
    /// the map does not grow with connection churn.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    conn_tokens: AtomicU64,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: ShardMetrics,
}

/// A running shard server. Shuts down on drop (the gateway it fronts is
/// shared and stays up — stop it separately).
pub struct ShardServer {
    addr: SocketAddr,
    inner: Arc<ShardInner>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl ShardServer {
    /// Bind and start serving `gateway` over the fleet protocol.
    pub fn spawn(gateway: Arc<Gateway>, cfg: ShardConfig) -> std::io::Result<ShardServer> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let metrics = ShardMetrics::build(&gateway);
        let inner = Arc::new(ShardInner {
            gateway,
            cfg,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            requests_served: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            failover_arrivals: AtomicU64::new(0),
            revisions_served: AtomicU64::new(0),
            conns: Mutex::new(std::collections::HashMap::new()),
            conn_tokens: AtomicU64::new(0),
            conn_handles: Mutex::new(Vec::new()),
            metrics,
        });
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name(format!("prionn-shard-accept-{}", addr.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_inner.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Out of descriptors or threads (a client opening many
                    // connections gets there): that one connection closes,
                    // the shard keeps accepting.
                    match open_connection(stream, &accept_inner) {
                        Ok(handle) => {
                            let mut handles = accept_inner.conn_handles.lock();
                            handles.retain(|h| !h.is_finished());
                            handles.push(handle);
                        }
                        Err(e) => accept_inner.conn_failed(&e),
                    }
                }
            })?;
        Ok(ShardServer {
            addr,
            inner,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Predict requests currently inside the gateway.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::SeqCst)
    }

    /// Predict requests answered since spawn.
    pub fn requests_served(&self) -> u64 {
        self.inner.requests_served.load(Ordering::SeqCst)
    }

    /// Enter draining mode and wait up to `grace` for in-flight requests
    /// to finish. New predicts are answered with a typed
    /// [`ErrorCode::Draining`] error. Returns true if the shard fully
    /// quiesced within the grace period.
    pub fn drain(&self, grace: Duration) -> bool {
        self.enter_draining();
        let deadline = Instant::now() + grace;
        while self.inner.in_flight.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    fn enter_draining(&self) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            self.inner.metrics.draining.set(1.0);
            self.inner.gateway.telemetry().events().record(
                "fleet_shard_drain",
                format!("addr={}", self.addr),
                0,
            );
        }
    }

    /// Stop accepting, close every connection, join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept_handle.lock().take() {
            let _ = h.join();
        }
        for (_, conn) in self.inner.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = self.inner.conn_handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the writer thread sends: an already-encoded frame.
type OutFrame = Vec<u8>;

impl ShardInner {
    /// Record a connection lost to descriptor or thread exhaustion.
    fn conn_failed(&self, e: &std::io::Error) {
        self.gateway
            .telemetry()
            .events()
            .record("fleet_shard_conn_failed", e.to_string(), 0);
    }

    /// Forget a connection: close the registry's dup of its stream (or the
    /// peer never sees EOF) and drop it from the gauge.
    fn close_connection(&self, token: u64) {
        if let Some(s) = self.conns.lock().remove(&token) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.metrics.connections.add(-1.0);
    }
}

/// Register an accepted stream and start its reader thread.
fn open_connection(stream: TcpStream, inner: &Arc<ShardInner>) -> std::io::Result<JoinHandle<()>> {
    let _ = stream.set_nodelay(true);
    let registered = stream.try_clone()?;
    let token = inner.conn_tokens.fetch_add(1, Ordering::Relaxed);
    inner.conns.lock().insert(token, registered);
    inner.metrics.connections.add(1.0);
    let conn_inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("prionn-shard-conn".to_string())
        .spawn(move || {
            if let Err(e) = serve_connection(stream, &conn_inner) {
                conn_inner.conn_failed(&e);
            }
            conn_inner.close_connection(token);
        })
        // The closure, and the stream in it, died with the failed spawn.
        .inspect_err(|_| inner.close_connection(token))
}

/// Run one connection on the calling (reader) thread until EOF, a framing
/// error, or shutdown closes the socket. `Err` only when the connection
/// could not be set up.
fn serve_connection(stream: TcpStream, inner: &Arc<ShardInner>) -> std::io::Result<()> {
    let (reply_tx, reply_rx) = unbounded::<OutFrame>();
    let write_stream = stream.try_clone()?;

    // Writer: drain the reply channel, flush once per lull.
    let writer_metrics_tx = inner.metrics.frames_tx.clone();
    let writer_bytes_tx = inner.metrics.bytes_tx.clone();
    let writer = std::thread::Builder::new()
        .name("prionn-shard-writer".to_string())
        .spawn(move || {
            let mut out = BufWriter::new(write_stream);
            while let Ok(frame) = reply_rx.recv() {
                let mut wrote = frame.len();
                if out.write_all(&frame).is_err() {
                    return;
                }
                writer_metrics_tx.inc();
                // Opportunistically batch everything already queued into
                // the same flush.
                while let Ok(next) = reply_rx.try_recv() {
                    if out.write_all(&next).is_err() {
                        return;
                    }
                    writer_metrics_tx.inc();
                    wrote += next.len();
                }
                writer_bytes_tx.add(wrote as u64);
                if out.flush().is_err() {
                    return;
                }
            }
            let _ = out.flush();
        })?;

    // Reader: decode frames until EOF, error, or shutdown closes the
    // socket under us.
    let mut read_stream = stream;
    loop {
        match read_frame(&mut read_stream, inner.cfg.max_payload) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                inner.metrics.frames_rx.inc();
                inner
                    .metrics
                    .bytes_rx
                    .add((prionn_store::wire::FRAME_HEADER_LEN + frame.payload.len()) as u64);
                if !dispatch_frame(frame, inner, &reply_tx) {
                    break;
                }
            }
            Err(StoreError::FrameTooLarge { declared, cap }) => {
                // Typed answer, then close: the oversized payload bytes
                // are still in the pipe, so framing cannot be recovered.
                inner.metrics.decode_errors.inc();
                let _ = reply_tx.send(encode_frame(
                    KIND_ERROR,
                    0,
                    &encode_error(
                        ErrorCode::TooLarge,
                        &format!("frame payload {declared} exceeds cap {cap}"),
                    ),
                ));
                break;
            }
            Err(_) => {
                // Truncated / corrupt / checksum-failed stream: nothing
                // trustworthy left to answer to. Count and drop.
                inner.metrics.decode_errors.inc();
                break;
            }
        }
    }

    // Teardown: every predict still inside the gateway holds a sender, so
    // the writer outlives them all and flushes their replies.
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

/// Handle one decoded frame. Returns false when the connection must close.
fn dispatch_frame(frame: Frame, inner: &Arc<ShardInner>, reply_tx: &Sender<OutFrame>) -> bool {
    let id = frame.id;
    let send = |f: OutFrame| reply_tx.send(f).is_ok();
    // Peel the optional trace-context extension off the payload before
    // kind dispatch; a malformed extension is a typed refusal, not a
    // dropped connection (the frame itself passed its checksum).
    let (kind, trace, payload) = match strip_trace(frame.kind, &frame.payload) {
        Ok(parts) => parts,
        Err(e) => {
            inner.metrics.decode_errors.inc();
            return send(encode_frame(
                KIND_ERROR,
                id,
                &encode_error(ErrorCode::BadRequest, &format!("bad trace extension: {e}")),
            ));
        }
    };
    match kind {
        KIND_PREDICT => {
            inner.metrics.requests.inc();
            if let Some(t) = &trace {
                if t.hop > 0 {
                    inner.failover_arrivals.fetch_add(1, Ordering::SeqCst);
                    inner.metrics.failover_arrivals.inc();
                }
            }
            if inner.draining.load(Ordering::SeqCst) || inner.stopping.load(Ordering::SeqCst) {
                inner.metrics.shed_draining.inc();
                inner.requests_shed.fetch_add(1, Ordering::SeqCst);
                return send(encode_frame(
                    KIND_ERROR,
                    id,
                    &encode_error(ErrorCode::Draining, "shard is draining"),
                ));
            }
            match decode_predict(payload) {
                // The priority byte is validated by the decoder and
                // otherwise unused: admission treats every request alike.
                Ok((_priority, deadline_ms, scripts)) => {
                    let n = inner.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    inner.metrics.in_flight.set(n as f64);
                    let req = PredictRequest {
                        scripts,
                        deadline: (deadline_ms > 0)
                            .then(|| Duration::from_millis(deadline_ms as u64)),
                        // Adopt the caller's trace so the gateway span
                        // tree stitches under the router's hop span.
                        trace: trace.map_or(SpanCtx::NONE, |t| SpanCtx {
                            trace_id: t.trace_id,
                            span_id: t.parent_span_id,
                        }),
                    };
                    // The completion runs on a gateway thread (or here, for
                    // an admission refusal): encode, settle, hand over.
                    let shard = Arc::clone(inner);
                    let reply_tx = reply_tx.clone();
                    inner.gateway.submit(req, move |result| {
                        let (kind, payload) = match result {
                            Ok(reply) => {
                                shard.requests_served.fetch_add(1, Ordering::SeqCst);
                                let payload = encode_predictions(reply.epoch, &reply.predictions);
                                (KIND_PREDICTIONS, payload)
                            }
                            Err(e) => {
                                shard.requests_shed.fetch_add(1, Ordering::SeqCst);
                                let code = ErrorCode::from_serve_error(&e);
                                (KIND_ERROR, encode_error(code, &e.to_string()))
                            }
                        };
                        let left = shard.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
                        shard.metrics.in_flight.set(left as f64);
                        let _ = reply_tx.send(encode_frame(kind, id, &payload));
                    });
                    true
                }
                Err(e) => {
                    inner.metrics.decode_errors.inc();
                    inner.requests_shed.fetch_add(1, Ordering::SeqCst);
                    send(encode_frame(
                        KIND_ERROR,
                        id,
                        &encode_error(ErrorCode::BadRequest, &e.to_string()),
                    ))
                }
            }
        }
        KIND_REVISE => {
            // Revisions are pure math over the drift window — no model
            // inference, no queue. They are answered inline on the reader
            // thread, and they keep serving while draining: in-flight
            // jobs still need their intervals during a rollout.
            inner.metrics.revisions.inc();
            match decode_revise(payload) {
                Ok(req) => {
                    let reviser = Reviser::new(ReviseConfig::default());
                    let revised = reviser.revise(&req.initial, &req.obs);
                    let gw = &inner.gateway;
                    let interval_for = |head: DriftHead, point: f64| match gw.drift() {
                        Some(d) => ConformalCalibrator::from_window(&d.outcome_window(head))
                            .interval(point, req.coverage),
                        None => PredictionInterval::degenerate(point),
                    };
                    let reply = RevisionReply {
                        epoch: gw.epoch(),
                        runtime_minutes: interval_for(DriftHead::Runtime, revised.runtime_minutes),
                        read_bytes: interval_for(DriftHead::Read, revised.read_bytes),
                        write_bytes: interval_for(DriftHead::Write, revised.write_bytes),
                    };
                    inner.revisions_served.fetch_add(1, Ordering::SeqCst);
                    send(encode_frame(KIND_REVISION, id, &encode_revision(&reply)))
                }
                Err(e) => {
                    inner.metrics.decode_errors.inc();
                    send(encode_frame(
                        KIND_ERROR,
                        id,
                        &encode_error(ErrorCode::BadRequest, &e.to_string()),
                    ))
                }
            }
        }
        KIND_PING => send(encode_frame(KIND_PONG, id, &[])),
        KIND_STATS => {
            let gw = &inner.gateway;
            let stats = ShardStats {
                epoch: gw.epoch(),
                live_replicas: gw.live_replicas() as u64,
                queue_depth: gw.queue_depth() as u64,
                requests_served: inner.requests_served.load(Ordering::SeqCst),
                draining: inner.draining.load(Ordering::SeqCst),
                requests_shed: inner.requests_shed.load(Ordering::SeqCst),
                failover_arrivals: inner.failover_arrivals.load(Ordering::SeqCst),
                revisions_served: inner.revisions_served.load(Ordering::SeqCst),
            };
            send(encode_frame(KIND_STATS_REPLY, id, &encode_stats(&stats)))
        }
        KIND_SWAP_WEIGHTS => match Checkpoint::from_bytes(payload) {
            Ok(ck) => {
                let epoch = inner.gateway.hot_swap_checkpoint(ck);
                inner.gateway.telemetry().events().record(
                    "fleet_shard_swap",
                    format!("epoch={epoch}"),
                    0,
                );
                send(encode_frame(KIND_SWAP_ACK, id, &encode_swap_ack(epoch)))
            }
            Err(e) => {
                inner.metrics.decode_errors.inc();
                send(encode_frame(
                    KIND_ERROR,
                    id,
                    &encode_error(ErrorCode::BadRequest, &format!("bad checkpoint: {e}")),
                ))
            }
        },
        KIND_DRAIN => {
            if !inner.draining.swap(true, Ordering::SeqCst) {
                inner.metrics.draining.set(1.0);
                inner
                    .gateway
                    .telemetry()
                    .events()
                    .record("fleet_shard_drain", "remote", 0);
            }
            send(encode_frame(KIND_DRAIN_ACK, id, &[]))
        }
        other => {
            inner.metrics.decode_errors.inc();
            send(encode_frame(
                KIND_ERROR,
                id,
                &encode_error(
                    ErrorCode::BadRequest,
                    &format!("unknown frame kind {other}"),
                ),
            ))
        }
    }
}
