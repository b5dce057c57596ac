//! The gateway implementation: admission, replica workers, trainer thread.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use prionn_core::{Prionn, ResourcePrediction, TrainingBatch};
use prionn_observe::{trace, DriftHead, DriftMonitor, Span, SpanCtx, Tracer};
use prionn_store::broadcast::WeightBus;
use prionn_store::Checkpoint;
use prionn_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Errors surfaced to gateway callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue was full; the request was shed at
    /// admission without queueing. Callers should back off and retry.
    Overloaded {
        /// Capacity of the request queue that rejected the request.
        queue_cap: usize,
    },
    /// The request sat in the queue past its deadline and was shed before
    /// a forward pass was spent on it.
    DeadlineExceeded,
    /// The gateway has shut down (or every replica died) before the
    /// request could be served.
    Stopped,
    /// The model itself failed on this batch (mapping or forward error).
    Model(String),
    /// The gateway could not be constructed.
    Spawn(String),
    /// The trainer thread could not write a [`Gateway::snapshot`] file.
    Snapshot(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_cap } => {
                write!(f, "gateway overloaded: request queue full ({queue_cap})")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded in queue"),
            ServeError::Stopped => write!(f, "gateway stopped"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Spawn(e) => write!(f, "gateway spawn failed: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result alias for gateway operations.
pub type ServeResult<T> = Result<T, ServeError>;

/// The priority byte of a fleet predict frame.
///
/// The wire accepts and validates it (0 = normal, 1 = low; anything else
/// is a bad request), but it does not affect admission: every request is
/// admitted the same way. The type stays only because the wire codec's
/// signature is pinned by the repository benchmark, and it leaves in a
/// change that touches only that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Wire byte 0.
    #[default]
    Normal,
    /// Wire byte 1.
    Low,
}

/// Tuning knobs for [`Gateway::spawn`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Number of replica worker threads, each owning a private model copy.
    /// `0` is allowed (accept-and-queue only, useful for tests and staged
    /// start-up): requests queue until shed and are failed at shutdown.
    pub replicas: usize,
    /// Max scripts fused into one forward pass.
    pub max_batch: usize,
    /// How long a replica lingers for more requests after the first one
    /// arrives, before running a partial batch.
    pub max_wait: Duration,
    /// Bound on the shared request queue; admission control rejects
    /// requests beyond this with [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Bound on the background retrain queue (latest-wins drop policy).
    pub retrain_queue_cap: usize,
    /// Metrics registry; a private one is created when `None`.
    pub telemetry: Option<Telemetry>,
    /// Span tracer; `None` disables request tracing (zero per-request
    /// cost beyond one branch per call site). Pass a
    /// [`Tracer`] backed by a flight recorder to get per-request span
    /// trees through admission, fusion, and the per-layer forward.
    pub tracer: Option<Tracer>,
    /// Drift monitor; when present the trainer marks every published
    /// weight epoch on it and [`Gateway::record_outcome`] feeds completed
    /// jobs into its rolling-accuracy windows.
    pub drift: Option<DriftMonitor>,
    /// Test hook (integration tests and failure drills): when true, a
    /// request containing the reserved script `__serve_test_panic__`
    /// panics the serving replica, exercising the panic-containment and
    /// flight-dump paths. Never enable in production.
    #[doc(hidden)]
    pub test_panic_marker: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            replicas: 2,
            max_batch: 16,
            max_wait: Duration::from_micros(2000),
            queue_cap: 128,
            retrain_queue_cap: 8,
            telemetry: None,
            tracer: None,
            drift: None,
            test_panic_marker: false,
        }
    }
}

/// A point-in-time view of the gateway's counters, read from the
/// telemetry instruments (see [`Gateway::stats`]) — for assertions and
/// quick logging without parsing the Prometheus text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests accepted into the queue.
    pub requests_admitted: usize,
    /// Requests rejected at admission because the queue was full.
    pub requests_shed_overload: usize,
    /// Requests shed by a replica because their deadline had passed.
    pub requests_shed_deadline: usize,
    /// Fused forward passes served across all replicas.
    pub batches_served: usize,
    /// Scripts fused into forward passes across all replicas.
    pub scripts_predicted: usize,
    /// Background retrains completed by the trainer thread.
    pub retrains_done: usize,
    /// Retrain batches submitted and not yet trained on or evicted.
    pub retrains_pending: usize,
    /// Retrain batches evicted by newer ones (latest-wins queue).
    pub retrains_dropped: usize,
    /// Weight checkpoints published on the bus (trainer + manual swaps).
    pub swaps_published: usize,
    /// Swap applications performed by replicas (≤ replicas × published).
    pub swaps_applied: usize,
    /// Replica or trainer threads lost to a panic.
    pub replica_panics: usize,
}

/// A prediction plus the weight epoch that produced it.
///
/// The epoch is the [`WeightBus`] tag of the checkpoint the serving replica
/// had applied when it ran the batch; epoch `0` means the replica still
/// runs the weights it was spawned with.
#[derive(Debug, Clone)]
pub struct PredictionReply {
    /// One prediction per submitted script, in submission order.
    pub predictions: Vec<ResourcePrediction>,
    /// Weight epoch in effect for the whole fused batch.
    pub epoch: u64,
}

/// One predict request, as [`Gateway::submit`] takes it.
#[derive(Debug, Clone, Default)]
pub struct PredictRequest {
    /// The job scripts to predict; moved into the queue, never cloned.
    pub scripts: Vec<String>,
    /// If no replica picks the request up within this long, it is shed
    /// with [`ServeError::DeadlineExceeded`] instead of being served
    /// stale. `None` waits as long as it takes.
    pub deadline: Option<Duration>,
    /// A foreign trace parent ([`SpanCtx::NONE`] for none), e.g. from a
    /// fleet frame's trace-context extension: the request's root span
    /// adopts its trace id and parents under it, so the tree stitches into
    /// the fleet-wide trace instead of starting a disconnected one.
    pub trace: SpanCtx,
}

/// The one-shot completion of a queued request.
type Completion = Box<dyn FnOnce(ServeResult<PredictionReply>) + Send>;

/// What an admitted request is owed: its open spans, its latency
/// observation and its completion.
struct Pending {
    /// The request's `predict` root span and the `queued` child covering
    /// admission to completion.
    root: Span,
    queued: Span,
    predict_seconds: Histogram,
    done: Completion,
}

/// One queued predict request. Settling it closes its spans, observes
/// `serve_predict_seconds` and runs the completion; a job dropped
/// unsettled (replica panic, shutdown, dead-mode drain) settles itself
/// with [`ServeError::Stopped`], so the completion runs exactly once on
/// every path.
struct Job {
    scripts: Vec<String>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// The root span's context ([`SpanCtx::NONE`] when untraced).
    trace: SpanCtx,
    pending: Option<Pending>,
}

impl Job {
    fn settle(&mut self, result: ServeResult<PredictionReply>) {
        let Some(p) = self.pending.take() else { return };
        drop(p.queued);
        p.predict_seconds
            .observe(self.enqueued.elapsed().as_secs_f64());
        drop(p.root);
        (p.done)(result);
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        self.settle(Err(ServeError::Stopped));
    }
}

/// What the request channel carries: an admitted request, or a wake that
/// makes an idle replica apply a newly published epoch.
// A wake is rare and sits in a slot sized for a request either way; boxing
// the request would cost an allocation per predict.
#[allow(clippy::large_enum_variant)]
enum Queued {
    Request(Job),
    Wake,
}

/// The request queue, shared by the admission door, the replicas and every
/// publisher of weights. Admission, the depth gauge and readiness read
/// `depth`, which counts requests only, so a wake never takes a request's
/// place: the channel holds `cap` requests plus one wake per replica.
struct Queue {
    /// `None` once shutdown has begun: dropping the only sender is what
    /// lets the replicas drain the channel and exit.
    tx: Mutex<Option<Sender<Queued>>>,
    rx: Receiver<Queued>,
    cap: usize,
    replicas: usize,
    /// Requests admitted and not yet taken by a replica.
    depth: AtomicUsize,
    /// Wakes sent and not yet taken by a replica.
    wakes: AtomicUsize,
}

impl Queue {
    fn new(cap: usize, replicas: usize) -> Self {
        let (tx, rx) = bounded(cap + replicas);
        Queue {
            tx: Mutex::new(Some(tx)),
            rx,
            cap,
            replicas,
            depth: AtomicUsize::new(0),
            wakes: AtomicUsize::new(0),
        }
    }

    fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Uncount what a replica (or a drain) just took off the channel.
    fn took(&self, msg: Queued) -> Queued {
        let counter = match msg {
            Queued::Request(_) => &self.depth,
            Queued::Wake => &self.wakes,
        };
        counter.fetch_sub(1, Ordering::SeqCst);
        msg
    }

    fn recv(&self) -> Option<Queued> {
        self.rx.recv().ok().map(|m| self.took(m))
    }

    fn try_recv(&self) -> Result<Queued, TryRecvError> {
        self.rx.try_recv().map(|m| self.took(m))
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Queued> {
        self.rx.recv_timeout(timeout).ok().map(|m| self.took(m))
    }

    /// Wake the idle replicas after a publish, without polling: one wake
    /// per replica not already owed one, sent only while no request is
    /// queued — a replica about to serve a request applies the epoch before
    /// its batch anyway. Sent under the admission lock, through the one
    /// sender, so a wake can neither outlive shutdown nor fill a slot a
    /// request could need.
    fn wake_idle(&self) {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else { return };
        if self.depth() > 0 {
            return;
        }
        while self.wakes.load(Ordering::SeqCst) < self.replicas {
            self.wakes.fetch_add(1, Ordering::SeqCst);
            if tx.try_send(Queued::Wake).is_err() {
                self.wakes.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

/// Publishing a weight epoch, the one way both publishers do it (the
/// trainer after a retrain, [`Gateway::hot_swap_checkpoint`]): put it on the
/// bus, set the epoch gauge, mark the drift monitor and wake the idle
/// replicas so they apply it before the next request arrives.
#[derive(Clone)]
struct Publisher {
    bus: WeightBus,
    queue: Arc<Queue>,
    swap_epoch: Gauge,
    drift: Option<DriftMonitor>,
}

impl Publisher {
    fn publish(&self, ck: Checkpoint) -> u64 {
        let epoch = self.bus.publish(ck);
        self.swap_epoch.set(epoch as f64);
        if let Some(d) = &self.drift {
            d.mark_weight_update();
        }
        self.queue.wake_idle();
        epoch
    }
}

/// Telemetry instruments shared by the admission path and the workers.
#[derive(Clone)]
struct Instruments {
    predict_seconds: Histogram,
    queue_wait_seconds: Histogram,
    batch_scripts: Histogram,
    requests_total: Counter,
    batches_total: Counter,
    shed_overload: Counter,
    shed_deadline: Counter,
    queue_depth: Gauge,
    swap_epoch: Gauge,
    retrain_seconds: Histogram,
    retrains_total: Counter,
    retrain_queue_depth: Gauge,
    retrains_dropped: Counter,
    /// One counter per replica, indexed by replica number.
    swaps_applied: Vec<Counter>,
    replica_panics: Counter,
}

impl Instruments {
    fn build(t: &Telemetry, max_batch: usize, replicas: usize) -> Self {
        Instruments {
            predict_seconds: t.histogram(
                "serve_predict_seconds",
                "Gateway predict latency, admission to reply (queue wait included)",
            ),
            queue_wait_seconds: t.histogram(
                "serve_queue_wait_seconds",
                "Time requests spent queued before a replica picked them up",
            ),
            batch_scripts: t.histogram_custom(
                "serve_batch_scripts",
                "Scripts fused per forward pass",
                &[],
                || Histogram::with_linear_buckets(1.0, 1.0, max_batch.clamp(1, 64)),
            ),
            requests_total: t.counter("serve_requests_total", "Requests admitted to the queue"),
            batches_total: t.counter("serve_batches_total", "Fused forward passes served"),
            shed_overload: t.counter_with(
                "serve_shed_total",
                "Requests shed by admission control",
                &[("reason", "overloaded")],
            ),
            shed_deadline: t.counter_with(
                "serve_shed_total",
                "Requests shed by admission control",
                &[("reason", "deadline")],
            ),
            queue_depth: t.gauge("serve_queue_depth", "Requests currently queued"),
            swap_epoch: t.gauge(
                "serve_swap_epoch",
                "Latest weight epoch published on the bus",
            ),
            retrain_seconds: t.histogram(
                "serve_retrain_seconds",
                "Background retrain duration on the trainer thread",
            ),
            retrains_total: t.counter(
                "serve_retrains_total",
                "Background retrains completed successfully",
            ),
            retrain_queue_depth: t.gauge(
                "serve_retrain_queue_depth",
                "Retrain batches queued behind the trainer",
            ),
            retrains_dropped: t.counter(
                "serve_retrains_dropped_total",
                "Retrain batches evicted by newer ones (latest-wins queue)",
            ),
            swaps_applied: (0..replicas)
                .map(|i| {
                    t.counter_with(
                        "serve_swaps_applied_total",
                        "Weight swaps applied, per replica",
                        &[("replica", &i.to_string())],
                    )
                })
                .collect(),
            replica_panics: t.counter(
                "serve_replica_panics_total",
                "Replica or trainer threads lost to a panic",
            ),
        }
    }
}

/// Commands for the trainer thread.
enum TrainerCmd {
    /// A retrain batch was enqueued; drain one from the retrain queue.
    Tick,
    /// Write the master model to `path` and report the outcome.
    Snapshot {
        path: PathBuf,
        reply: Sender<ServeResult<()>>,
    },
    /// Exit after the commands queued so far.
    Shutdown,
}

/// A sharded, micro-batching inference front-end over [`Prionn`].
///
/// See the [crate docs](crate) for the architecture. All methods take
/// `&self`; the gateway is meant to be shared across submitting threads
/// (e.g. behind an `Arc`).
pub struct Gateway {
    queue: Arc<Queue>,
    retrain_tx: Sender<TrainingBatch>,
    retrain_rx: Receiver<TrainingBatch>,
    trainer_tx: Sender<TrainerCmd>,
    trainer_handle: Mutex<Option<JoinHandle<()>>>,
    replica_handles: Mutex<Vec<JoinHandle<()>>>,
    publisher: Publisher,
    last_error: Arc<Mutex<Option<String>>>,
    stopped: Arc<AtomicBool>,
    telemetry: Telemetry,
    tracer: Tracer,
    instruments: Instruments,
    live_replicas: Arc<AtomicUsize>,
}

/// Count a thread lost to a panic and keep its message for `last_error`.
fn record_panic(
    who: &str,
    payload: &(dyn std::any::Any + Send),
    instr: &Instruments,
    last_error: &Mutex<Option<String>>,
) {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    instr.replica_panics.inc();
    *last_error.lock() = Some(format!("{who} panicked: {message}"));
}

impl Gateway {
    /// Spawn a gateway serving `model`. The model becomes the trainer's
    /// master copy; each replica is forked from its checkpoint, so all
    /// replicas start bit-identical to it.
    pub fn spawn(model: Prionn, cfg: GatewayConfig) -> ServeResult<Self> {
        let spawn_err = |e: &dyn std::fmt::Display| ServeError::Spawn(e.to_string());
        let master_ck = model.to_checkpoint().map_err(|e| spawn_err(&e))?;

        let telemetry = cfg.telemetry.clone().unwrap_or_default();
        let tracer = cfg.tracer.clone().unwrap_or_default();
        let instruments = Instruments::build(&telemetry, cfg.max_batch, cfg.replicas);
        let queue = Arc::new(Queue::new(cfg.queue_cap.max(1), cfg.replicas));
        let (retrain_tx, retrain_rx) = bounded::<TrainingBatch>(cfg.retrain_queue_cap.max(1));
        let (trainer_tx, trainer_rx) = unbounded::<TrainerCmd>();
        let publisher = Publisher {
            bus: WeightBus::new(),
            queue: Arc::clone(&queue),
            swap_epoch: instruments.swap_epoch.clone(),
            drift: cfg.drift,
        };
        let last_error = Arc::new(Mutex::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let live_replicas = Arc::new(AtomicUsize::new(cfg.replicas));

        let max_batch = cfg.max_batch.max(1);
        let mut replica_handles = Vec::with_capacity(cfg.replicas);
        for i in 0..cfg.replicas {
            let mut replica = Prionn::from_checkpoint(&master_ck).map_err(|e| spawn_err(&e))?;
            replica.set_telemetry(&telemetry);
            let queue = Arc::clone(&queue);
            let bus = publisher.bus.clone();
            let last_error = Arc::clone(&last_error);
            let live = Arc::clone(&live_replicas);
            let instr = instruments.clone();
            let replica_tracer = tracer.clone();
            let panic_marker = cfg.test_panic_marker;
            let handle = std::thread::Builder::new()
                .name(format!("prionn-serve-replica-{i}"))
                .spawn(move || {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        replica_loop(
                            replica,
                            &queue,
                            &bus,
                            max_batch,
                            cfg.max_wait,
                            &last_error,
                            &instr,
                            &instr.swaps_applied[i],
                            &replica_tracer,
                            panic_marker,
                        );
                    }));
                    if let Err(payload) = result {
                        let who = format!("replica {i}");
                        record_panic(&who, payload.as_ref(), &instr, &last_error);
                        // If this was the last live replica, nothing will
                        // ever serve the queue: drop every request that
                        // still arrives (a dropped job completes with
                        // `Stopped`) until the gateway drops its sender at
                        // shutdown. Without this, callers wait on
                        // completions that never run.
                        if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                            while let Some(msg) = queue.recv() {
                                drop(msg);
                            }
                        }
                    } else {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
                .map_err(|e| spawn_err(&e))?;
            replica_handles.push(handle);
        }

        // Start the compute pool here, so that its workers are created by
        // this thread at its priority rather than by the trainer after the
        // trainer has lowered its own (a thread inherits its creator's).
        prionn_core::compute_threads();
        let trainer_handle = {
            let mut master = model;
            master.set_telemetry(&telemetry);
            let rx = trainer_rx;
            let batches = retrain_rx.clone();
            let publisher = publisher.clone();
            let last_error = Arc::clone(&last_error);
            let instr = instruments.clone();
            let events = telemetry.clone();
            std::thread::Builder::new()
                .name("prionn-serve-trainer".to_string())
                .spawn(move || {
                    lower_own_priority();
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        trainer_loop(
                            &mut master,
                            &rx,
                            &batches,
                            &publisher,
                            &last_error,
                            &instr,
                            &events,
                        );
                    }));
                    if let Err(payload) = result {
                        record_panic("trainer", payload.as_ref(), &instr, &last_error);
                        // A queued snapshot command holds its caller's
                        // reply sender: keep dropping commands until
                        // shutdown so that caller fails with `Stopped`
                        // instead of waiting for ever.
                        while let Ok(cmd) = rx.recv() {
                            if matches!(cmd, TrainerCmd::Shutdown) {
                                break;
                            }
                        }
                    }
                })
                .map_err(|e| spawn_err(&e))?
        };

        Ok(Gateway {
            queue,
            retrain_tx,
            retrain_rx,
            trainer_tx,
            trainer_handle: Mutex::new(Some(trainer_handle)),
            replica_handles: Mutex::new(replica_handles),
            publisher,
            last_error,
            stopped,
            telemetry,
            tracer,
            instruments,
            live_replicas,
        })
    }

    /// Spawn a gateway from a checkpoint file written by
    /// [`Prionn::save`](prionn_core::Prionn) or [`Gateway::snapshot`] —
    /// the warm restart: the trainer continues from the restored weights.
    pub fn spawn_from_checkpoint(path: impl AsRef<Path>, cfg: GatewayConfig) -> ServeResult<Self> {
        let model = Prionn::load(path).map_err(|e| ServeError::Spawn(e.to_string()))?;
        Self::spawn(model, cfg)
    }

    /// Predict resources for `scripts` with no queueing deadline. Blocks
    /// until a replica serves the fused batch containing this request.
    pub fn predict(&self, scripts: &[String]) -> ServeResult<Vec<ResourcePrediction>> {
        self.predict_detailed(scripts, None).map(|r| r.predictions)
    }

    /// Blocking [`submit`](Self::submit): returns
    /// the weight epoch alongside the predictions so callers can correlate
    /// answers with hot-swaps. If no replica picks the request up within
    /// `deadline`, it is shed with [`ServeError::DeadlineExceeded`] instead
    /// of being served stale.
    pub fn predict_detailed(
        &self,
        scripts: &[String],
        deadline: Option<Duration>,
    ) -> ServeResult<PredictionReply> {
        let (tx, rx) = bounded(1);
        self.submit(
            PredictRequest {
                scripts: scripts.to_vec(),
                deadline,
                ..PredictRequest::default()
            },
            move |result| {
                let _ = tx.send(result);
            },
        );
        rx.recv().unwrap_or(Err(ServeError::Stopped))
    }

    /// The one door onto the queue: admit `req` or refuse it, without
    /// blocking, and run `done` exactly once with the outcome —
    ///
    /// * on the calling thread, before `submit` returns, when the request
    ///   is refused at admission ([`ServeError::Overloaded`],
    ///   [`ServeError::Stopped`]) or is empty;
    /// * on a replica thread after the fused forward pass, or when the
    ///   request's deadline passed in the queue
    ///   ([`ServeError::DeadlineExceeded`]);
    /// * with [`ServeError::Stopped`], on whichever thread drops it, when a
    ///   queued request is discarded unanswered (replica panic, shutdown
    ///   with no replica, every replica dead).
    ///
    /// `done` must be cheap and non-blocking — it runs on the thread that
    /// serves every other request — and must not call back into the
    /// gateway. Hand the result to a channel or another thread.
    pub fn submit<F>(&self, req: PredictRequest, done: F)
    where
        F: FnOnce(ServeResult<PredictionReply>) + Send + 'static,
    {
        if req.scripts.is_empty() {
            return done(Ok(PredictionReply {
                predictions: Vec::new(),
                epoch: self.publisher.bus.epoch(),
            }));
        }
        if self.stopped.load(Ordering::SeqCst) {
            return done(Err(ServeError::Stopped));
        }
        // The request's trace root: records on every exit path (shed,
        // stopped, served) so failed requests leave evidence too.
        let mut root = if req.trace.is_none() {
            self.tracer.root("predict")
        } else {
            self.tracer.span_within(req.trace, "predict")
        };
        if root.is_recording() {
            root.set_detail(format!("scripts={}", req.scripts.len()));
        }
        let now = Instant::now();
        let mut admission = root.child("admission");
        // Admission happens under the sender lock so shutdown's
        // take-then-drain cannot race a straggling enqueue. Every send
        // and every count of a request happens under it too, so the queue
        // can only have shrunk by the time the job is sent. (A replica
        // uncounts a request just after taking it, so for that instant the
        // depth reads one high: as if the request arrived just before.)
        let guard = self.queue.tx.lock();
        let admitted = match guard.as_ref() {
            None => Err(ServeError::Stopped),
            Some(tx) => self.admit(self.queue.depth(), &mut admission).map(|()| tx),
        };
        match admitted {
            Ok(tx) => {
                // Counted before the send, so a reader of the counters who
                // has seen this request's answer has seen its admission.
                self.instruments.requests_total.inc();
                let job = Job {
                    scripts: req.scripts,
                    enqueued: now,
                    deadline: req.deadline.map(|d| now + d),
                    trace: root.ctx(),
                    pending: Some(Pending {
                        queued: root.child("queued"),
                        root,
                        predict_seconds: self.instruments.predict_seconds.clone(),
                        done: Box::new(done),
                    }),
                };
                self.queue.depth.fetch_add(1, Ordering::SeqCst);
                let unsent = tx.try_send(Queued::Request(job)).err();
                drop(guard);
                drop(admission);
                self.instruments.queue_depth.set(self.queue.depth() as f64);
                // The depth check and the wake slots rule a failed send out;
                // were it ever wrong, the job still must not complete under
                // the lock.
                drop(unsent);
            }
            Err(e) => {
                // Released first: the completion never runs under the lock.
                drop(guard);
                drop(admission);
                drop(root);
                done(Err(e));
            }
        }
    }

    /// The queue-depth half of admission: `Ok` when a request may join a
    /// queue currently `depth` deep.
    fn admit(&self, depth: usize, admission: &mut Span) -> ServeResult<()> {
        if depth >= self.queue.cap {
            self.instruments.shed_overload.inc();
            admission.set_detail("shed=overloaded");
            return Err(ServeError::Overloaded {
                queue_cap: self.queue.cap,
            });
        }
        Ok(())
    }

    /// Queue a retrain batch for the background trainer. Never blocks:
    /// when the bounded retrain queue is full, the *oldest* queued batch
    /// is evicted (latest-wins, counted in
    /// [`GatewayStats::retrains_dropped`]) — under a backlog, training on
    /// the freshest jobs matters more than training on all of them.
    /// After a successful retrain the trainer publishes the new weights;
    /// idle replicas apply them at once, busy ones before their next batch.
    pub fn retrain_async(&self, mut batch: TrainingBatch) {
        self.instruments.retrain_queue_depth.add(1.0);
        loop {
            match self.retrain_tx.try_send(batch) {
                Ok(()) => break,
                Err(TrySendError::Full(b)) => {
                    // Evict the oldest queued batch. The trainer may drain
                    // the queue concurrently, in which case the eviction
                    // misses and the retry simply succeeds.
                    if self.retrain_rx.try_recv().is_ok() {
                        self.instruments.retrains_dropped.inc();
                        self.instruments.retrain_queue_depth.add(-1.0);
                    }
                    batch = b;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.instruments.retrain_queue_depth.add(-1.0);
                    return;
                }
            }
        }
        let _ = self.trainer_tx.send(TrainerCmd::Tick);
    }

    /// Write the trainer's master model — architecture, word2vec and the
    /// weights of the latest completed retrain — to `path`, atomically
    /// (tmp + rename, via [`Prionn::save`](prionn_core::Prionn)). The
    /// trainer thread, which owns that model, does the write: first in,
    /// first out behind the retrains already queued, and never in the way
    /// of a predict. Blocks the caller until the file is written; a gateway
    /// [spawned from it](Self::spawn_from_checkpoint) predicts
    /// bit-identically to this one at the snapshot's epoch. A failed write
    /// returns [`ServeError::Snapshot`], is kept in
    /// [`last_error`](Self::last_error) and leaves the gateway serving;
    /// either way a `snapshot` / `snapshot_failed` span event records it.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> ServeResult<()> {
        let (reply, written) = bounded(1);
        let cmd = TrainerCmd::Snapshot {
            path: path.as_ref().to_path_buf(),
            reply,
        };
        self.trainer_tx.send(cmd).map_err(|_| ServeError::Stopped)?;
        written.recv().unwrap_or(Err(ServeError::Stopped))
    }

    /// Publish `model`'s weights to every replica as a new epoch. Returns
    /// the epoch. Idle replicas apply it at once, busy ones before their
    /// next batch. The architecture must match the serving model; replicas
    /// reject (and log via [`last_error`](Self::last_error)) mismatched
    /// checkpoints and keep serving their current weights.
    pub fn hot_swap(&self, model: &Prionn) -> ServeResult<u64> {
        let ck = model
            .weights_checkpoint()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(self.hot_swap_checkpoint(ck))
    }

    /// Publish an already-encoded weights checkpoint (the
    /// [`Prionn::weights_checkpoint`] section format) as a new epoch.
    pub fn hot_swap_checkpoint(&self, ck: Checkpoint) -> u64 {
        self.publisher.publish(ck)
    }

    /// Latest weight epoch published on the bus (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.publisher.bus.epoch()
    }

    /// Requests currently sitting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The counters as of now. A view, not a second ledger: every field is
    /// read from the telemetry instrument (or the weight bus) that records
    /// it, so this and a `/metrics` scrape cannot disagree — and gateways
    /// given one [`GatewayConfig::telemetry`] registry share the view.
    pub fn stats(&self) -> GatewayStats {
        let i = &self.instruments;
        let count = |c: &Counter| c.value() as usize;
        GatewayStats {
            requests_admitted: count(&i.requests_total),
            requests_shed_overload: count(&i.shed_overload),
            requests_shed_deadline: count(&i.shed_deadline),
            batches_served: count(&i.batches_total),
            scripts_predicted: i.batch_scripts.sum() as usize,
            retrains_done: count(&i.retrains_total),
            retrains_pending: i.retrain_queue_depth.value() as usize,
            retrains_dropped: count(&i.retrains_dropped),
            swaps_published: self.publisher.bus.epoch() as usize,
            swaps_applied: i.swaps_applied.iter().map(count).sum(),
            replica_panics: count(&i.replica_panics),
        }
    }

    /// The metrics registry serving this gateway (shared with the model
    /// replicas), for Prometheus/JSON export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The tracer serving this gateway (disabled when none was configured).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Feed a completed job back into the drift monitor: `prediction` is
    /// what the gateway answered at submission, the rest is ground truth
    /// observed at completion. No-op without a configured monitor.
    pub fn record_outcome(
        &self,
        prediction: &ResourcePrediction,
        runtime_minutes: f64,
        read_bytes: f64,
        write_bytes: f64,
    ) {
        let Some(d) = &self.publisher.drift else {
            return;
        };
        d.record(
            DriftHead::Runtime,
            runtime_minutes,
            prediction.runtime_minutes,
        );
        d.record(DriftHead::Read, read_bytes, prediction.read_bytes);
        d.record(DriftHead::Write, write_bytes, prediction.write_bytes);
    }

    /// Replica worker threads still alive (panics decrement this).
    pub fn live_replicas(&self) -> usize {
        self.live_replicas.load(Ordering::SeqCst)
    }

    /// Readiness verdict for ops probes (`/readyz`): ready while the
    /// gateway is running, at least one configured replica is alive, and
    /// the admission queue has headroom. The detail string is what the
    /// probe body shows.
    pub fn readiness(&self) -> (bool, String) {
        let live = self.live_replicas();
        let depth = self.queue.depth();
        let stopped = self.stopped.load(Ordering::SeqCst);
        let configured = self.queue.replicas;
        let ready = !stopped && (configured == 0 || live > 0) && depth < self.queue.cap;
        (
            ready,
            format!(
                "live_replicas={live}/{configured} queue={depth}/{}{}",
                self.queue.cap,
                if stopped { " stopped" } else { "" }
            ),
        )
    }

    /// Most recent background failure (replica panic, rejected hot-swap,
    /// failed retrain or snapshot), if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Drain the queue and stop every thread. Queued requests are served
    /// (or failed) before the replicas exit; queued retrains are trained
    /// before the trainer exits. Idempotent, and safe to call from any
    /// thread sharing the gateway; also runs on `Drop`.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let tx = self.queue.tx.lock().take();
        drop(tx);
        let mut handles = self.replica_handles.lock();
        if handles.is_empty() {
            // No replica will ever serve the queue: drop what is queued,
            // which completes each request with `Stopped`. New enqueues
            // and wakes are impossible (sender taken).
            while let Ok(msg) = self.queue.try_recv() {
                drop(msg);
            }
        }
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
        drop(handles);
        let _ = self.trainer_tx.send(TrainerCmd::Shutdown);
        if let Some(handle) = self.trainer_handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The bus epochs one replica has dealt with.
#[derive(Default)]
struct Epochs {
    /// Epoch of the weights it serves (0 = its spawn weights): the tag on
    /// every reply.
    applied: u64,
    /// Latest epoch whose payload it rejected (0 = none), not checked again.
    rejected: u64,
}

/// Apply the newest published weights when the replica is behind and has
/// not already rejected them, under the span `open_span` makes. The bus
/// payload is an immutable snapshot and the apply is all-or-nothing, so the
/// model holds entirely old or entirely new weights — never a mix. On a
/// rejected checkpoint the replica keeps its current weights, reports the
/// rejection once, and waits for a newer epoch.
fn catch_up(
    model: &mut Prionn,
    epochs: &mut Epochs,
    bus: &WeightBus,
    swaps_applied: &Counter,
    last_error: &Mutex<Option<String>>,
    open_span: impl FnOnce() -> Span,
) {
    let latest = bus.latest();
    if latest.epoch == epochs.applied || latest.epoch == epochs.rejected {
        return;
    }
    let Some(payload) = latest.payload.as_deref() else {
        return;
    };
    let mut swap_span = open_span();
    match model.apply_weights_checkpoint(payload) {
        Ok(()) => {
            epochs.applied = latest.epoch;
            swaps_applied.inc();
            swap_span.set_detail(format!("epoch={}", latest.epoch));
        }
        Err(e) => {
            epochs.rejected = latest.epoch;
            swap_span.set_detail("rejected");
            *last_error.lock() = Some(format!("hot-swap rejected: {e}"));
        }
    }
}

/// Worker loop for one replica: collect a micro-batch, catch up to the
/// latest published weights, run one fused forward, settle each request
/// with its share of the answers. A wake with no request behind it
/// applies a newly published epoch while the replica is idle.
#[allow(clippy::too_many_arguments)]
fn replica_loop(
    mut model: Prionn,
    queue: &Queue,
    bus: &WeightBus,
    max_batch: usize,
    max_wait: Duration,
    last_error: &Mutex<Option<String>>,
    instr: &Instruments,
    swaps_applied: &Counter,
    tracer: &Tracer,
    test_panic_marker: bool,
) {
    // Only this loop mutates `model`, so between the pre-batch swap and the
    // reply the weights cannot change — that ownership is what makes the
    // per-reply epoch tag exact and torn reads impossible.
    let mut epochs = Epochs::default();
    loop {
        let first = match queue.recv() {
            Some(Queued::Request(job)) => job,
            Some(Queued::Wake) => {
                catch_up(
                    &mut model,
                    &mut epochs,
                    bus,
                    swaps_applied,
                    last_error,
                    || tracer.root("weight_swap"),
                );
                continue;
            }
            None => break, // gateway dropped the sender: drained, exit
        };
        let mut jobs = vec![first];
        let mut n_scripts = jobs[0].scripts.len();
        let linger_until = jobs[0].enqueued + max_wait;
        // A wake met while lingering is dropped: the pre-batch check below
        // applies the epoch it announced.
        while n_scripts < max_batch {
            let next = match queue.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) => {
                    let now = Instant::now();
                    if now >= linger_until {
                        break;
                    }
                    queue.recv_timeout(linger_until - now)
                }
                Err(TryRecvError::Disconnected) => None,
            };
            match next {
                Some(Queued::Request(job)) => {
                    n_scripts += job.scripts.len();
                    jobs.push(job);
                }
                Some(Queued::Wake) => {}
                None => break, // linger expired (or disconnected)
            }
        }
        instr.queue_depth.set(queue.depth() as f64);

        // Shed expired requests before spending a forward pass on them.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            if job.deadline.is_some_and(|d| now > d) {
                instr.shed_deadline.inc();
                tracer.instant(job.trace, "shed", "reason=deadline", vec![]);
                job.settle(Err(ServeError::DeadlineExceeded));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }

        // The fused forward is a trace of its own — one batch serves many
        // callers — linked both ways: the fused span lists every caller
        // context, and each caller's tree gains a `fused` child pointing
        // back. The `batch_assembled` instant records *immediately* (span
        // guards only record on drop), so a crash dump taken mid-batch
        // still names the requests that were on board.
        let mut fused = tracer.root("fused_forward");
        for job in &live {
            fused.add_link(job.trace);
        }
        // Held until the requests are settled: each caller's tree shows a
        // `fused` span covering its share of the batch.
        let _job_spans: Vec<Span> = live
            .iter()
            .map(|job| {
                let mut s = tracer.span_within(job.trace, "fused");
                s.add_link(fused.ctx());
                s
            })
            .collect();
        if fused.is_recording() {
            tracer.instant(
                fused.ctx(),
                "batch_assembled",
                format!("jobs={}", live.len()),
                live.iter().map(|j| j.trace).collect(),
            );
        }

        // Test hook: a reserved script marker kills this replica so the
        // panic-surfacing, no-wedge, and flight-dump guarantees can be
        // exercised (placed after `batch_assembled` so the dump carries
        // the dying batch's trace links).
        if test_panic_marker
            && live
                .iter()
                .any(|j| j.scripts.iter().any(|s| s == "__serve_test_panic__"))
        {
            panic!("injected replica panic");
        }

        // Pre-batch epoch check, the fallback for an epoch published while
        // this replica was busy: the batch runs entirely on one epoch.
        catch_up(
            &mut model,
            &mut epochs,
            bus,
            swaps_applied,
            last_error,
            || fused.child("weight_swap"),
        );
        let epoch = epochs.applied;

        for job in &live {
            instr
                .queue_wait_seconds
                .observe(now.saturating_duration_since(job.enqueued).as_secs_f64());
        }
        let total: usize = live.iter().map(|j| j.scripts.len()).sum();
        instr.batch_scripts.observe(total as f64);
        if fused.is_recording() {
            fused.set_detail(format!("jobs={} scripts={total} epoch={epoch}", live.len()));
        }

        let refs: Vec<&str> = live
            .iter()
            .flat_map(|j| j.scripts.iter().map(String::as_str))
            .collect();
        // The implicit context makes the per-layer forward spans children
        // of the fused span without any nn-crate API change.
        let ctx_guard = trace::push_current(tracer, fused.ctx());
        let predicted = model.predict(&refs);
        drop(ctx_guard);
        match predicted {
            Ok(mut preds) => {
                // Post-batch epoch check: this loop owns the weights, so
                // the epoch cannot have moved under the forward pass.
                debug_assert_eq!(epoch, epochs.applied, "weights mutated mid-batch");
                instr.batches_total.inc();
                for mut job in live {
                    let rest = preds.split_off(job.scripts.len());
                    let predictions = std::mem::replace(&mut preds, rest);
                    job.settle(Ok(PredictionReply { predictions, epoch }));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                *last_error.lock() = Some(format!("replica predict failed: {msg}"));
                for mut job in live {
                    job.settle(Err(ServeError::Model(msg.clone())));
                }
            }
        }
    }
}

/// Give the calling thread the lowest scheduling priority (nice 19), so it
/// runs on what CPU the replicas and the compute pool leave. Linux keeps a
/// nice value per thread, so this leaves the rest of the process alone; the
/// threads this one creates later (a retrain's head fits) inherit it. Best
/// effort: a refusal leaves the priority as it was.
#[cfg(target_os = "linux")]
fn lower_own_priority() {
    extern "C" {
        // From the C library std already links.
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: plain integer arguments; `who` 0 names the calling thread; the
    // call touches no memory of ours.
    unsafe {
        setpriority(PRIO_PROCESS, 0, 19);
    }
}

/// Thread priorities are left alone off Linux.
#[cfg(not(target_os = "linux"))]
fn lower_own_priority() {}

/// Trainer loop: drain retrain batches (latest-wins queue), retrain the
/// master model, publish the new weights as the next epoch; write the
/// master model out when a snapshot is asked for.
#[allow(clippy::too_many_arguments)]
fn trainer_loop(
    master: &mut Prionn,
    cmd_rx: &Receiver<TrainerCmd>,
    batches: &Receiver<TrainingBatch>,
    publisher: &Publisher,
    last_error: &Mutex<Option<String>>,
    instr: &Instruments,
    telemetry: &Telemetry,
) {
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            TrainerCmd::Tick => {
                // The batch this tick announced may have been evicted by a
                // newer one; in that case the tick is a no-op.
                let Ok(batch) = batches.try_recv() else {
                    continue;
                };
                let refs: Vec<&str> = batch.scripts.iter().map(String::as_str).collect();
                let started = Instant::now();
                let result = master.retrain(
                    &refs,
                    &batch.runtime_minutes,
                    &batch.read_bytes,
                    &batch.write_bytes,
                );
                instr
                    .retrain_seconds
                    .observe(started.elapsed().as_secs_f64());
                match result {
                    Ok(()) => {
                        instr.retrains_total.inc();
                        match master.weights_checkpoint() {
                            Ok(ck) => {
                                let epoch = publisher.publish(ck);
                                telemetry.events().record(
                                    "serve_hot_swap",
                                    format!("epoch={epoch}"),
                                    started.elapsed().as_micros() as u64,
                                );
                            }
                            Err(e) => {
                                *last_error.lock() = Some(format!("weight publish failed: {e}"));
                            }
                        }
                    }
                    Err(e) => {
                        *last_error.lock() = Some(format!("background retrain failed: {e}"));
                    }
                }
                // Last: a reader who sees the backlog reach zero sees the
                // outcome of every batch that was in it.
                instr.retrain_queue_depth.add(-1.0);
            }
            TrainerCmd::Snapshot { path, reply } => {
                let started = Instant::now();
                let result = master.save(&path);
                let micros = started.elapsed().as_micros() as u64;
                let events = telemetry.events();
                let _ = reply.send(match result {
                    Ok(()) => {
                        events.record("snapshot", format!("path={}", path.display()), micros);
                        Ok(())
                    }
                    Err(e) => {
                        events.record("snapshot_failed", e.to_string(), micros);
                        *last_error.lock() = Some(format!("snapshot failed: {e}"));
                        Err(ServeError::Snapshot(e.to_string()))
                    }
                });
            }
            TrainerCmd::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;
    use prionn_core::PrionnConfig;

    fn tiny_cfg() -> PrionnConfig {
        PrionnConfig {
            grid: (16, 16),
            base_width: 2,
            runtime_bins: 8,
            io_bins: 4,
            epochs: 2,
            batch_size: 32,
            lr: 3e-3,
            ..Default::default()
        }
    }

    fn corpus() -> Vec<String> {
        (0..8)
            .map(|i| format!("#!/bin/bash\n#SBATCH -N 2\nsrun ./app run{i}\n"))
            .collect()
    }

    fn tiny_model() -> Prionn {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        Prionn::new(tiny_cfg(), &refs).unwrap()
    }

    type Results = Receiver<ServeResult<PredictionReply>>;

    /// `submit` one script without blocking. The receiver yields every
    /// result the completion is run with and disconnects once the
    /// completion is gone, which is what lets [`the_only_result`] tell
    /// "once" from "twice" and from "never".
    fn submit_one(gw: &Gateway, deadline: Option<Duration>) -> Results {
        let (tx, rx) = unbounded();
        gw.submit(
            PredictRequest {
                scripts: corpus()[..1].to_vec(),
                deadline,
                ..PredictRequest::default()
            },
            move |result| {
                let _ = tx.send(result);
            },
        );
        rx
    }

    fn the_only_result(rx: &Results) -> ServeResult<PredictionReply> {
        let wait = Duration::from_secs(30);
        let result = rx.recv_timeout(wait).expect("completion never ran");
        assert_eq!(
            rx.recv_timeout(wait).err(),
            Some(RecvTimeoutError::Disconnected),
            "completion ran twice, or outlived its run"
        );
        result
    }

    /// A replica panic must surface through `last_error`, fail queued and
    /// future callers fast (no wedged `recv`), and leave `shutdown`
    /// working.
    #[test]
    fn replica_panic_surfaces_and_never_wedges() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 1,
                max_wait: Duration::from_micros(100),
                test_panic_marker: true,
                ..GatewayConfig::default()
            },
        )
        .unwrap();

        // The killing request itself fails fast: the unwinding replica
        // drops its job, which completes it with `Stopped`.
        let err = gw
            .predict(&["__serve_test_panic__".to_string()])
            .unwrap_err();
        assert_eq!(err, ServeError::Stopped);

        // The dead replica's drain loop answers later requests instead of
        // letting them block forever on an unserved queue.
        let scripts = corpus();
        let err = gw.predict(&scripts[..1]).unwrap_err();
        assert_eq!(err, ServeError::Stopped);

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(e) = gw.last_error() {
                assert!(e.contains("panicked"), "unexpected error: {e}");
                assert!(e.contains("injected replica panic"), "{e}");
                break;
            }
            assert!(Instant::now() < deadline, "panic never surfaced");
            std::thread::yield_now();
        }
        assert_eq!(gw.stats().replica_panics, 1);

        // Shutdown must not wedge on the dead replica.
        gw.shutdown();
    }

    /// With zero replicas the queue fills deterministically: admission
    /// control must shed with the typed error, and shutdown must fail the
    /// queued callers instead of leaking them.
    #[test]
    fn overload_sheds_typed_error_and_shutdown_drains_queued_callers() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 0,
                queue_cap: 2,
                ..GatewayConfig::default()
            },
        )
        .unwrap();

        std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|_| s.spawn(|| gw.predict(&corpus()[..1])))
                .collect();
            let deadline = Instant::now() + Duration::from_secs(5);
            while gw.queue_depth() < 2 {
                assert!(Instant::now() < deadline, "clients never queued");
                std::thread::yield_now();
            }

            let err = gw.predict(&corpus()[..1]).unwrap_err();
            assert_eq!(err, ServeError::Overloaded { queue_cap: 2 });
            assert_eq!(gw.stats().requests_shed_overload, 1);
            assert_eq!(gw.stats().requests_admitted, 2);

            // Shutdown unblocks both queued callers with a typed error.
            gw.shutdown();
            for c in clients {
                let res = c.join().unwrap();
                assert_eq!(res.unwrap_err(), ServeError::Stopped);
            }
        });
    }

    /// A request whose deadline expires while queued is shed before any
    /// forward pass is spent on it.
    #[test]
    fn expired_deadlines_are_shed_before_the_forward_pass() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 1,
                // Long linger guarantees the deadline is past by the time
                // the replica evaluates the batch.
                max_wait: Duration::from_millis(30),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let err = gw
            .predict_detailed(&corpus()[..1], Some(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(gw.stats().requests_shed_deadline, 1);
        assert_eq!(gw.stats().batches_served, 0);
        gw.shutdown();
    }

    /// Empty requests answer immediately without touching the queue.
    #[test]
    fn empty_request_short_circuits() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 0,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let reply = gw.predict_detailed(&[], None).unwrap();
        assert!(reply.predictions.is_empty());
        assert_eq!(reply.epoch, 0);
        assert_eq!(gw.stats().requests_admitted, 0);
        gw.shutdown();
    }

    /// After shutdown the gateway answers `Stopped` through both doors
    /// instead of queueing, and a second shutdown (explicit, then Drop) is
    /// harmless.
    #[test]
    fn predict_after_shutdown_fails_fast() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 1,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let scripts = corpus();
        assert_eq!(gw.predict(&scripts[..2]).unwrap().len(), 2);
        gw.shutdown();
        assert_eq!(gw.predict(&scripts[..2]).unwrap_err(), ServeError::Stopped);
        let refused = submit_one(&gw, None);
        assert_eq!(the_only_result(&refused).unwrap_err(), ServeError::Stopped);
        assert_eq!(gw.stats().requests_admitted, 1);
        gw.shutdown();
    }

    /// The completion contract on the paths that reach a replica: a served
    /// request and a deadline-shed one each complete exactly once.
    #[test]
    fn completion_runs_once_for_served_and_deadline_shed_requests() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 1,
                max_wait: Duration::from_millis(5),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let served = submit_one(&gw, None);
        let late = submit_one(&gw, Some(Duration::ZERO));
        assert_eq!(the_only_result(&served).unwrap().predictions.len(), 1);
        assert_eq!(
            the_only_result(&late).unwrap_err(),
            ServeError::DeadlineExceeded
        );
        assert_eq!(gw.stats().requests_admitted, 2);
        gw.shutdown();
    }

    /// The completion contract where no replica ever sees the request: an
    /// admission refusal completes on the caller's thread before `submit`
    /// returns, and a request still queued at shutdown completes with
    /// `Stopped` — each exactly once.
    #[test]
    fn completion_runs_once_for_refused_and_dropped_requests() {
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 0,
                queue_cap: 1,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let queued = submit_one(&gw, None);
        assert_eq!(gw.queue_depth(), 1);

        let caller = std::thread::current().id();
        let (tx, refused) = unbounded();
        gw.submit(
            PredictRequest {
                scripts: corpus()[..1].to_vec(),
                ..PredictRequest::default()
            },
            move |result| {
                let _ = tx.send((std::thread::current().id(), result));
            },
        );
        let (ran_on, result) = refused.try_recv().expect("refusal completes inside submit");
        assert_eq!(ran_on, caller);
        assert_eq!(result.unwrap_err(), ServeError::Overloaded { queue_cap: 1 });
        assert!(refused.try_recv().is_err(), "completion ran twice");

        assert!(queued.try_recv().is_err(), "nothing can have served it");
        gw.shutdown();
        assert_eq!(the_only_result(&queued).unwrap_err(), ServeError::Stopped);
        // Only admitted requests are timed.
        let text = gw.telemetry().prometheus();
        assert!(text.contains("serve_predict_seconds_count 1"), "{text}");
    }
}
