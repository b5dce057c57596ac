//! The gateway implementation: admission, replica workers, trainer thread.

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use prionn_core::{Prionn, PrionnService, ResourcePrediction, TrainingBatch};
use prionn_observe::{trace, DriftHead, DriftMonitor, OutcomeStatus, Span, SpanCtx, Tracer};
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
    /// Shed by the pre-burst admission tightener: an IO burst is forecast
    /// (the configured [`PressureProbe`] returned true) and the request
    /// was either low-priority or beyond the tightened queue cap.
    ShedPreBurst,
    /// The gateway has shut down (or every replica died) before the
    /// request could be served.
    Stopped,
    /// The model itself failed on this batch (mapping or forward error).
    Model(String),
    /// The gateway could not be constructed.
    Spawn(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_cap } => {
                write!(f, "gateway overloaded: request queue full ({queue_cap})")
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded in queue"),
            ServeError::ShedPreBurst => {
                write!(
                    f,
                    "shed pre-emptively: IO burst forecast, admission tightened"
                )
            }
            ServeError::Stopped => write!(f, "gateway stopped"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Spawn(e) => write!(f, "gateway spawn failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result alias for gateway operations.
pub type ServeResult<T> = Result<T, ServeError>;

/// Forecast pressure probe: returns true while an IO burst is forecast
/// within the lead horizon. A closure rather than a typed handle so the
/// gateway stays decoupled from `prionn-forecast` — wire
/// `ForecastEngine::pressure_probe()` in here.
pub type PressureProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// Request priority class for [`Gateway::predict_traced`].
///
/// Priorities only matter while the [`PressureProbe`] reports forecast
/// burst pressure: low-priority requests are shed outright and normal ones
/// face a tightened queue cap. Without pressure both classes are admitted
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Interactive / scheduler-critical work; admitted under pressure up
    /// to the tightened queue cap.
    #[default]
    Normal,
    /// Batch / speculative work; shed at admission while a burst is
    /// forecast.
    Low,
}

/// Fraction of [`GatewayConfig::queue_cap`] normal-priority requests may
/// still fill while a burst is forecast (the tightened cap never drops
/// below 1).
const PRESHED_QUEUE_FRAC: f64 = 0.5;

/// Tuning knobs for [`Gateway::spawn`].
#[derive(Clone)]
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
    /// Forecast pressure probe; when present, admission tightens while it
    /// returns true (see [`Priority`]). `None` disables pre-shedding.
    pub pressure: Option<PressureProbe>,
    /// Test hook (integration tests and failure drills): when true, a
    /// request containing the reserved script `__serve_test_panic__`
    /// panics the serving replica, exercising the panic-containment and
    /// flight-dump paths. Never enable in production.
    #[doc(hidden)]
    pub test_panic_marker: bool,
}

impl std::fmt::Debug for GatewayConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: the pressure probe is an opaque closure.
        f.debug_struct("GatewayConfig")
            .field("replicas", &self.replicas)
            .field("max_batch", &self.max_batch)
            .field("max_wait", &self.max_wait)
            .field("queue_cap", &self.queue_cap)
            .field("retrain_queue_cap", &self.retrain_queue_cap)
            .field("pressure", &self.pressure.as_ref().map(|_| "<probe>"))
            .field("test_panic_marker", &self.test_panic_marker)
            .finish_non_exhaustive()
    }
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
            pressure: None,
            test_panic_marker: false,
        }
    }
}

/// Cheap cross-thread counters mirroring the telemetry instruments, for
/// assertions and quick logging without parsing the Prometheus text.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Requests accepted into the queue.
    pub requests_admitted: AtomicUsize,
    /// Requests rejected at admission because the queue was full.
    pub requests_shed_overload: AtomicUsize,
    /// Requests shed by a replica because their deadline had passed.
    pub requests_shed_deadline: AtomicUsize,
    /// Requests shed pre-emptively while an IO burst was forecast.
    pub requests_shed_preburst: AtomicUsize,
    /// Fused forward passes run across all replicas.
    pub batches_served: AtomicUsize,
    /// Scripts predicted across all replicas.
    pub scripts_predicted: AtomicUsize,
    /// Background retrains completed by the trainer thread.
    pub retrains_done: AtomicUsize,
    /// Retrain batches queued but not yet trained on.
    pub retrains_pending: AtomicUsize,
    /// Retrain batches evicted by newer ones (latest-wins queue).
    pub retrains_dropped: AtomicUsize,
    /// Weight checkpoints published on the bus (trainer + manual swaps).
    pub swaps_published: AtomicUsize,
    /// Swap applications performed by replicas (≤ replicas × published).
    pub swaps_applied: AtomicUsize,
    /// Replica or trainer threads lost to a panic.
    pub replica_panics: AtomicUsize,
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

/// One queued predict call.
struct Job {
    scripts: Vec<String>,
    reply: Sender<ServeResult<PredictionReply>>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// The caller's trace context ([`SpanCtx::NONE`] when untraced).
    trace: SpanCtx,
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
    shed_preburst: Counter,
    preshed_active: Gauge,
    queue_depth: Gauge,
    swap_epoch: Gauge,
    retrain_seconds: Histogram,
    retrain_queue_depth: Gauge,
    retrains_dropped: Counter,
    replica_panics: Counter,
}

impl Instruments {
    fn build(t: &Telemetry, max_batch: usize) -> Self {
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
            shed_preburst: t.counter_with(
                "serve_shed_total",
                "Requests shed by admission control",
                &[("reason", "preburst")],
            ),
            preshed_active: t.gauge(
                "serve_preshed_active",
                "1 while forecast pressure is tightening admission, else 0",
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
            retrain_queue_depth: t.gauge(
                "serve_retrain_queue_depth",
                "Retrain batches queued behind the trainer",
            ),
            retrains_dropped: t.counter(
                "serve_retrains_dropped_total",
                "Retrain batches evicted by newer ones (latest-wins queue)",
            ),
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
    /// Exit after the commands queued so far.
    Shutdown,
}

/// A sharded, micro-batching inference front-end over [`Prionn`].
///
/// See the [crate docs](crate) for the architecture. All methods take
/// `&self`; the gateway is meant to be shared across submitting threads
/// (e.g. behind an `Arc`).
pub struct Gateway {
    req_tx: Mutex<Option<Sender<Job>>>,
    req_rx: Receiver<Job>,
    retrain_tx: Sender<TrainingBatch>,
    retrain_rx: Receiver<TrainingBatch>,
    trainer_tx: Sender<TrainerCmd>,
    trainer_handle: Mutex<Option<JoinHandle<()>>>,
    replica_handles: Mutex<Vec<JoinHandle<()>>>,
    bus: WeightBus,
    stats: Arc<GatewayStats>,
    last_error: Arc<Mutex<Option<String>>>,
    stopped: Arc<AtomicBool>,
    telemetry: Telemetry,
    tracer: Tracer,
    drift: Option<DriftMonitor>,
    instruments: Instruments,
    live_replicas: Arc<AtomicUsize>,
    configured_replicas: usize,
    queue_cap: usize,
    pressure: Option<PressureProbe>,
    preshed_cap: usize,
    preshed_engaged: AtomicBool,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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
        let instruments = Instruments::build(&telemetry, cfg.max_batch);
        let (req_tx, req_rx) = bounded::<Job>(cfg.queue_cap.max(1));
        let (retrain_tx, retrain_rx) = bounded::<TrainingBatch>(cfg.retrain_queue_cap.max(1));
        let (trainer_tx, trainer_rx) = unbounded::<TrainerCmd>();
        let bus = WeightBus::new();
        let stats = Arc::new(GatewayStats::default());
        let last_error = Arc::new(Mutex::new(None));
        let stopped = Arc::new(AtomicBool::new(false));
        let live_replicas = Arc::new(AtomicUsize::new(cfg.replicas));

        let max_batch = cfg.max_batch.max(1);
        let mut replica_handles = Vec::with_capacity(cfg.replicas);
        for i in 0..cfg.replicas {
            let mut replica = Prionn::from_checkpoint(&master_ck).map_err(|e| spawn_err(&e))?;
            replica.set_telemetry(&telemetry);
            let rx = req_rx.clone();
            let bus = bus.clone();
            let stats = Arc::clone(&stats);
            let last_error = Arc::clone(&last_error);
            let live = Arc::clone(&live_replicas);
            let instr = instruments.clone();
            let replica_tracer = tracer.clone();
            let panic_marker = cfg.test_panic_marker;
            let swaps_applied = telemetry.counter_with(
                "serve_swaps_applied_total",
                "Weight swaps applied, per replica",
                &[("replica", &i.to_string())],
            );
            let handle = std::thread::Builder::new()
                .name(format!("prionn-serve-replica-{i}"))
                .spawn(move || {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        replica_loop(
                            replica,
                            &rx,
                            &bus,
                            max_batch,
                            cfg.max_wait,
                            &stats,
                            &last_error,
                            &instr,
                            &swaps_applied,
                            &replica_tracer,
                            panic_marker,
                        );
                    }));
                    if let Err(payload) = result {
                        stats.replica_panics.fetch_add(1, Ordering::SeqCst);
                        instr.replica_panics.inc();
                        *last_error.lock() = Some(format!(
                            "replica {i} panicked: {}",
                            panic_message(payload.as_ref())
                        ));
                        // If this was the last live replica, nothing will
                        // ever answer queued requests: fail them fast until
                        // the gateway drops its sender at shutdown. Without
                        // this, callers block on replies that never come.
                        if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                            while let Ok(job) = rx.recv() {
                                let _ = job.reply.send(Err(ServeError::Stopped));
                            }
                        }
                    } else {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                })
                .map_err(|e| spawn_err(&e))?;
            replica_handles.push(handle);
        }

        let trainer_handle = {
            let mut master = model;
            master.set_telemetry(&telemetry);
            let rx = trainer_rx;
            let batches = retrain_rx.clone();
            let bus = bus.clone();
            let stats = Arc::clone(&stats);
            let last_error = Arc::clone(&last_error);
            let instr = instruments.clone();
            let events = telemetry.clone();
            let trainer_drift = cfg.drift.clone();
            std::thread::Builder::new()
                .name("prionn-serve-trainer".to_string())
                .spawn(move || {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        trainer_loop(
                            &mut master,
                            &rx,
                            &batches,
                            &bus,
                            &stats,
                            &last_error,
                            &instr,
                            &events,
                            trainer_drift.as_ref(),
                        );
                    }));
                    if let Err(payload) = result {
                        stats.replica_panics.fetch_add(1, Ordering::SeqCst);
                        instr.replica_panics.inc();
                        *last_error.lock() = Some(format!(
                            "trainer panicked: {}",
                            panic_message(payload.as_ref())
                        ));
                    }
                })
                .map_err(|e| spawn_err(&e))?
        };

        Ok(Gateway {
            req_tx: Mutex::new(Some(req_tx)),
            req_rx,
            retrain_tx,
            retrain_rx,
            trainer_tx,
            trainer_handle: Mutex::new(Some(trainer_handle)),
            replica_handles: Mutex::new(replica_handles),
            bus,
            stats,
            last_error,
            stopped,
            telemetry,
            tracer,
            drift: cfg.drift,
            instruments,
            live_replicas,
            configured_replicas: cfg.replicas,
            queue_cap: cfg.queue_cap.max(1),
            pressure: cfg.pressure,
            preshed_cap: ((cfg.queue_cap.max(1) as f64 * PRESHED_QUEUE_FRAC) as usize).max(1),
            preshed_engaged: AtomicBool::new(false),
        })
    }

    /// Spawn a gateway from a checkpoint file written by
    /// [`Prionn::save`](prionn_core::Prionn) / `prionn-store`.
    pub fn spawn_from_checkpoint(path: impl AsRef<Path>, cfg: GatewayConfig) -> ServeResult<Self> {
        let model = Prionn::load(path).map_err(|e| ServeError::Spawn(e.to_string()))?;
        Self::spawn(model, cfg)
    }

    /// Spawn a gateway from the live model inside a running
    /// [`PrionnService`], without stopping the service: the model is
    /// exported between requests on the service worker, so the fork never
    /// observes a half-applied retrain.
    pub fn spawn_from_service(service: &PrionnService, cfg: GatewayConfig) -> ServeResult<Self> {
        let ck = service
            .model_checkpoint()
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        let model = Prionn::from_checkpoint(&ck).map_err(|e| ServeError::Spawn(e.to_string()))?;
        Self::spawn(model, cfg)
    }

    /// Predict resources for `scripts` with no queueing deadline. Blocks
    /// until a replica serves the fused batch containing this request.
    pub fn predict(&self, scripts: &[String]) -> ServeResult<Vec<ResourcePrediction>> {
        self.predict_detailed(scripts, None).map(|r| r.predictions)
    }

    /// Full-fidelity predict: returns the weight epoch alongside the
    /// predictions so callers can correlate answers with hot-swaps. If no
    /// replica picks the request up within `deadline`, it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of being served stale.
    /// Admits at [`Priority::Normal`].
    pub fn predict_detailed(
        &self,
        scripts: &[String],
        deadline: Option<Duration>,
    ) -> ServeResult<PredictionReply> {
        self.predict_traced(scripts, deadline, Priority::Normal, SpanCtx::NONE)
    }

    /// [`predict_detailed`](Self::predict_detailed) with an explicit
    /// [`Priority`] and a foreign trace parent. While the configured
    /// [`PressureProbe`] reports a forecast IO burst, [`Priority::Low`]
    /// requests are shed with [`ServeError::ShedPreBurst`] and normal
    /// requests face the tightened queue cap (half of
    /// [`GatewayConfig::queue_cap`]) — load is shed *before* the burst
    /// arrives rather than during it. When `parent` is set (e.g. extracted
    /// from a fleet frame's trace-context extension), the request's root
    /// span adopts the caller's trace id and parents under the caller's
    /// span, so the shard-side tree stitches into the fleet-wide trace
    /// instead of starting a disconnected one.
    pub fn predict_traced(
        &self,
        scripts: &[String],
        deadline: Option<Duration>,
        priority: Priority,
        parent: SpanCtx,
    ) -> ServeResult<PredictionReply> {
        if scripts.is_empty() {
            return Ok(PredictionReply {
                predictions: Vec::new(),
                epoch: self.bus.epoch(),
            });
        }
        if self.stopped.load(Ordering::SeqCst) {
            return Err(ServeError::Stopped);
        }
        let under_pressure = self.refresh_pressure();
        if under_pressure && priority == Priority::Low {
            self.stats
                .requests_shed_preburst
                .fetch_add(1, Ordering::SeqCst);
            self.instruments.shed_preburst.inc();
            return Err(ServeError::ShedPreBurst);
        }
        // The request's trace root: records on every exit path (shed,
        // stopped, served) so failed requests leave evidence too.
        let mut root = if parent.is_none() {
            self.tracer.root("predict")
        } else {
            self.tracer.span_within(parent, "predict")
        };
        if root.is_recording() {
            root.set_detail(format!("scripts={}", scripts.len()));
        }
        let now = Instant::now();
        let (reply_tx, reply_rx) = unbounded();
        let job = Job {
            scripts: scripts.to_vec(),
            reply: reply_tx,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            trace: root.ctx(),
        };
        {
            // Admission happens under the sender lock so shutdown's
            // take-then-drain cannot race a straggling enqueue.
            let mut admission = root.child("admission");
            let guard = self.req_tx.lock();
            let Some(tx) = guard.as_ref() else {
                return Err(ServeError::Stopped);
            };
            // Pre-burst tightening: while a burst is forecast, normal
            // requests only fill a fraction of the queue, keeping headroom
            // for the burst itself.
            if under_pressure && self.req_rx.len() >= self.preshed_cap {
                self.stats
                    .requests_shed_preburst
                    .fetch_add(1, Ordering::SeqCst);
                self.instruments.shed_preburst.inc();
                admission.set_detail("shed=preburst");
                return Err(ServeError::ShedPreBurst);
            }
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.stats
                        .requests_shed_overload
                        .fetch_add(1, Ordering::SeqCst);
                    self.instruments.shed_overload.inc();
                    admission.set_detail("shed=overloaded");
                    return Err(ServeError::Overloaded {
                        queue_cap: self.queue_cap,
                    });
                }
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::Stopped),
            }
        }
        self.stats.requests_admitted.fetch_add(1, Ordering::SeqCst);
        self.instruments.requests_total.inc();
        self.instruments.queue_depth.set(self.req_rx.len() as f64);
        let timer = self.instruments.predict_seconds.start_timer();
        let queued = root.child("queued");
        let out = reply_rx.recv().map_err(|_| ServeError::Stopped)?;
        drop(queued);
        timer.stop();
        out
    }

    /// Queue a retrain batch for the background trainer. Never blocks:
    /// when the bounded retrain queue is full, the *oldest* queued batch
    /// is evicted (latest-wins, counted in
    /// [`GatewayStats::retrains_dropped`]) — under a backlog, training on
    /// the freshest jobs matters more than training on all of them.
    /// After a successful retrain the trainer publishes the new weights;
    /// replicas pick them up before their next batch.
    pub fn retrain_async(&self, mut batch: TrainingBatch) {
        let pending = self.stats.retrains_pending.fetch_add(1, Ordering::SeqCst) + 1;
        self.instruments.retrain_queue_depth.set(pending as f64);
        loop {
            match self.retrain_tx.try_send(batch) {
                Ok(()) => break,
                Err(TrySendError::Full(b)) => {
                    if self.retrain_rx.try_recv().is_ok() {
                        self.stats.retrains_dropped.fetch_add(1, Ordering::SeqCst);
                        self.instruments.retrains_dropped.inc();
                        let left = self.stats.retrains_pending.fetch_sub(1, Ordering::SeqCst) - 1;
                        self.instruments.retrain_queue_depth.set(left as f64);
                    }
                    batch = b;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.stats.retrains_pending.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            }
        }
        let _ = self.trainer_tx.send(TrainerCmd::Tick);
    }

    /// Publish `model`'s weights to every replica as a new epoch. Returns
    /// the epoch. The architecture must match the serving model; replicas
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
        let epoch = self.bus.publish(ck);
        self.stats.swaps_published.fetch_add(1, Ordering::SeqCst);
        self.instruments.swap_epoch.set(epoch as f64);
        if let Some(d) = &self.drift {
            d.mark_weight_update();
        }
        epoch
    }

    /// Latest weight epoch published on the bus (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.bus.epoch()
    }

    /// Requests currently sitting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.req_rx.len()
    }

    /// Cross-thread counters (cheap; no parsing needed).
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
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

    /// The drift monitor, when one was configured.
    pub fn drift(&self) -> Option<&DriftMonitor> {
        self.drift.as_ref()
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
        self.record_outcome_with_status(
            prediction,
            runtime_minutes,
            read_bytes,
            write_bytes,
            OutcomeStatus::Completed,
        );
    }

    /// [`record_outcome`](Self::record_outcome) with an explicit terminal
    /// status. Jobs the kill/requeue policy terminated still carry an
    /// observed (partial) truth; folding them into the drift windows keeps
    /// the rolling statistics — and the conformal calibration built on
    /// them — free of survivorship bias.
    pub fn record_outcome_with_status(
        &self,
        prediction: &ResourcePrediction,
        runtime_minutes: f64,
        read_bytes: f64,
        write_bytes: f64,
        status: OutcomeStatus,
    ) {
        let Some(d) = &self.drift else { return };
        d.record_with_status(
            DriftHead::Runtime,
            runtime_minutes,
            prediction.runtime_minutes,
            status,
        );
        d.record_with_status(DriftHead::Read, read_bytes, prediction.read_bytes, status);
        d.record_with_status(
            DriftHead::Write,
            write_bytes,
            prediction.write_bytes,
            status,
        );
    }

    /// Replica worker threads still alive (panics decrement this).
    pub fn live_replicas(&self) -> usize {
        self.live_replicas.load(Ordering::SeqCst)
    }

    /// Poll the pressure probe, record engage/release edges in the event
    /// log, and return the current verdict. `false` without a probe.
    fn refresh_pressure(&self) -> bool {
        let Some(probe) = &self.pressure else {
            return false;
        };
        let now = probe();
        let was = self.preshed_engaged.swap(now, Ordering::SeqCst);
        if now != was {
            self.instruments
                .preshed_active
                .set(if now { 1.0 } else { 0.0 });
            self.telemetry.events().record(
                if now {
                    "serve_preshed_engage"
                } else {
                    "serve_preshed_release"
                },
                format!("tightened_cap={}/{}", self.preshed_cap, self.queue_cap),
                0,
            );
        }
        now
    }

    /// True while forecast pressure is tightening admission (the verdict
    /// from the most recent admission attempt).
    pub fn preshed_active(&self) -> bool {
        self.preshed_engaged.load(Ordering::SeqCst)
    }

    /// Readiness verdict for ops probes (`/readyz`): ready while the
    /// gateway is running, at least one configured replica is alive, and
    /// the admission queue has headroom. The detail string is what the
    /// probe body shows.
    pub fn readiness(&self) -> (bool, String) {
        let live = self.live_replicas();
        let depth = self.req_rx.len();
        let stopped = self.stopped.load(Ordering::SeqCst);
        let ready =
            !stopped && (self.configured_replicas == 0 || live > 0) && depth < self.queue_cap;
        (
            ready,
            format!(
                "live_replicas={live}/{} queue={depth}/{}{}",
                self.configured_replicas,
                self.queue_cap,
                if stopped { " stopped" } else { "" }
            ),
        )
    }

    /// Most recent background failure (replica panic, rejected hot-swap,
    /// failed retrain), if any. Mirrors [`PrionnService::last_error`].
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Drain the queue and stop every thread. Queued requests are served
    /// (or failed) before the replicas exit; queued retrains are trained
    /// before the trainer exits. Idempotent, and safe to call from any
    /// thread sharing the gateway; also runs on `Drop`.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        let tx = self.req_tx.lock().take();
        drop(tx);
        let mut handles = self.replica_handles.lock();
        if handles.is_empty() {
            // No replica will ever answer the queue: fail queued callers
            // so they unblock. New enqueues are impossible (sender taken).
            while let Ok(job) = self.req_rx.try_recv() {
                let _ = job.reply.send(Err(ServeError::Stopped));
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

/// Worker loop for one replica: collect a micro-batch, catch up to the
/// latest published weights, run one fused forward, split the replies.
#[allow(clippy::too_many_arguments)]
fn replica_loop(
    mut model: Prionn,
    rx: &Receiver<Job>,
    bus: &WeightBus,
    max_batch: usize,
    max_wait: Duration,
    stats: &GatewayStats,
    last_error: &Mutex<Option<String>>,
    instr: &Instruments,
    swaps_applied: &Counter,
    tracer: &Tracer,
    test_panic_marker: bool,
) {
    // Epoch of the weights this replica currently serves. Only this loop
    // mutates `model`, so between the pre-batch swap and the reply the
    // weights cannot change — that ownership is what makes the per-reply
    // epoch tag exact and torn reads impossible.
    let mut local_epoch = 0u64;
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break, // gateway dropped the sender: drained, exit
        };
        let mut jobs = vec![first];
        let mut n_scripts = jobs[0].scripts.len();
        let linger_until = jobs[0].enqueued + max_wait;
        while n_scripts < max_batch {
            match rx.try_recv() {
                Ok(job) => {
                    n_scripts += job.scripts.len();
                    jobs.push(job);
                }
                Err(TryRecvError::Empty) => {
                    let now = Instant::now();
                    if now >= linger_until {
                        break;
                    }
                    match rx.recv_timeout(linger_until - now) {
                        Ok(job) => {
                            n_scripts += job.scripts.len();
                            jobs.push(job);
                        }
                        Err(_) => break, // linger expired (or disconnected)
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        instr.queue_depth.set(rx.len() as f64);

        // Shed expired requests before spending a forward pass on them.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline.is_some_and(|d| now > d) {
                stats.requests_shed_deadline.fetch_add(1, Ordering::SeqCst);
                instr.shed_deadline.inc();
                tracer.instant(job.trace, "shed", "reason=deadline", vec![]);
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
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
        // Held until the replies are sent: each caller's tree shows a
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

        // Pre-batch epoch check: catch up to the latest published weights.
        // The bus payload is an immutable snapshot and the apply is
        // all-or-nothing, so the batch runs entirely on old or entirely on
        // new weights — never a mix. On a rejected checkpoint the replica
        // keeps its current weights and will retry at the next epoch.
        let latest = bus.latest();
        if latest.epoch != local_epoch {
            if let Some(payload) = latest.payload.as_deref() {
                let mut swap_span = fused.child("weight_swap");
                match model.apply_weights_checkpoint(payload) {
                    Ok(()) => {
                        local_epoch = latest.epoch;
                        stats.swaps_applied.fetch_add(1, Ordering::SeqCst);
                        swaps_applied.inc();
                        swap_span.set_detail(format!("epoch={}", latest.epoch));
                    }
                    Err(e) => {
                        swap_span.set_detail("rejected");
                        *last_error.lock() = Some(format!("hot-swap rejected: {e}"));
                    }
                }
            }
        }
        let epoch = local_epoch;

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
                debug_assert_eq!(epoch, local_epoch, "weights mutated mid-batch");
                stats.batches_served.fetch_add(1, Ordering::SeqCst);
                stats.scripts_predicted.fetch_add(total, Ordering::SeqCst);
                instr.batches_total.inc();
                for job in live {
                    let rest = preds.split_off(job.scripts.len());
                    let part = std::mem::replace(&mut preds, rest);
                    let _ = job.reply.send(Ok(PredictionReply {
                        predictions: part,
                        epoch,
                    }));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                *last_error.lock() = Some(format!("replica predict failed: {msg}"));
                for job in live {
                    let _ = job.reply.send(Err(ServeError::Model(msg.clone())));
                }
            }
        }
    }
}

/// Trainer loop: drain retrain batches (latest-wins queue), retrain the
/// master model, publish the new weights as the next epoch.
#[allow(clippy::too_many_arguments)]
fn trainer_loop(
    master: &mut Prionn,
    cmd_rx: &Receiver<TrainerCmd>,
    batches: &Receiver<TrainingBatch>,
    bus: &WeightBus,
    stats: &GatewayStats,
    last_error: &Mutex<Option<String>>,
    instr: &Instruments,
    telemetry: &Telemetry,
    drift: Option<&DriftMonitor>,
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
                let left = stats.retrains_pending.fetch_sub(1, Ordering::SeqCst) - 1;
                instr.retrain_queue_depth.set(left as f64);
                match result {
                    Ok(()) => {
                        stats.retrains_done.fetch_add(1, Ordering::SeqCst);
                        match master.weights_checkpoint() {
                            Ok(ck) => {
                                let epoch = bus.publish(ck);
                                stats.swaps_published.fetch_add(1, Ordering::SeqCst);
                                instr.swap_epoch.set(epoch as f64);
                                if let Some(d) = drift {
                                    d.mark_weight_update();
                                }
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
            }
            TrainerCmd::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A replica panic must surface through `last_error`, fail queued and
    /// future callers fast (no wedged `recv`), and leave `shutdown`
    /// working. This is the serve-side mirror of the service worker's
    /// panic test.
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

        // The killing request itself fails fast: its reply sender dies
        // with the unwinding replica.
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
        assert_eq!(gw.stats().replica_panics.load(Ordering::SeqCst), 1);

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
            assert_eq!(gw.stats().requests_shed_overload.load(Ordering::SeqCst), 1);
            assert_eq!(gw.stats().requests_admitted.load(Ordering::SeqCst), 2);

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
        assert_eq!(gw.stats().requests_shed_deadline.load(Ordering::SeqCst), 1);
        assert_eq!(gw.stats().batches_served.load(Ordering::SeqCst), 0);
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
        assert_eq!(gw.stats().requests_admitted.load(Ordering::SeqCst), 0);
        gw.shutdown();
    }

    /// While the pressure probe reports a forecast burst, low-priority
    /// requests are shed outright, normal ones face the tightened cap, and
    /// the engage/release edges land in the event log exactly once each.
    #[test]
    fn forecast_pressure_sheds_low_priority_and_tightens_the_cap() {
        let pressure = Arc::new(AtomicBool::new(false));
        let probe_flag = Arc::clone(&pressure);
        let telemetry = Telemetry::new();
        let gw = Gateway::spawn(
            tiny_model(),
            GatewayConfig {
                replicas: 0,
                queue_cap: 4, // tightened cap = 2
                telemetry: Some(telemetry.clone()),
                pressure: Some(Arc::new(move || probe_flag.load(Ordering::SeqCst))),
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let scripts = corpus();

        std::thread::scope(|s| {
            // No pressure: both priorities queue freely.
            let clients: Vec<_> = (0..3)
                .map(|i| {
                    let scripts = &scripts;
                    let gw = &gw;
                    s.spawn(move || {
                        let prio = if i == 0 {
                            Priority::Low
                        } else {
                            Priority::Normal
                        };
                        gw.predict_traced(&scripts[..1], None, prio, SpanCtx::NONE)
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(5);
            while gw.queue_depth() < 3 {
                assert!(Instant::now() < deadline, "clients never queued");
                std::thread::yield_now();
            }
            assert!(!gw.preshed_active());

            // Pressure on: a low-priority request is shed before queueing,
            // and a normal one hits the tightened cap (depth 3 >= 2).
            pressure.store(true, Ordering::SeqCst);
            let err = gw
                .predict_traced(&scripts[..1], None, Priority::Low, SpanCtx::NONE)
                .unwrap_err();
            assert_eq!(err, ServeError::ShedPreBurst);
            let err = gw.predict_detailed(&scripts[..1], None).unwrap_err();
            assert_eq!(err, ServeError::ShedPreBurst);
            assert!(gw.preshed_active());
            assert_eq!(gw.stats().requests_shed_preburst.load(Ordering::SeqCst), 2);
            assert_eq!(gw.stats().requests_shed_overload.load(Ordering::SeqCst), 0);

            // Pressure off: admission is back to the full cap (depth 3 < 4).
            pressure.store(false, Ordering::SeqCst);
            let c =
                s.spawn(|| gw.predict_traced(&scripts[..1], None, Priority::Low, SpanCtx::NONE));
            while gw.queue_depth() < 4 {
                assert!(
                    Instant::now() < deadline,
                    "post-release client never queued"
                );
                std::thread::yield_now();
            }
            assert!(!gw.preshed_active());

            gw.shutdown();
            for client in clients {
                assert_eq!(client.join().unwrap().unwrap_err(), ServeError::Stopped);
            }
            assert_eq!(c.join().unwrap().unwrap_err(), ServeError::Stopped);
        });

        // Exactly one engage edge and one release edge.
        let events = telemetry.events().drain();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "serve_preshed_engage")
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "serve_preshed_release")
                .count(),
            1
        );
        let text = telemetry.prometheus();
        assert!(
            text.contains(r#"serve_shed_total{reason="preburst"} 2"#),
            "{text}"
        );
    }

    /// After shutdown (observable via Drop too) the gateway answers
    /// `Stopped` instead of queueing.
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
        // Exercise shutdown_inner idempotence through an explicit call
        // followed by Drop.
        gw.shutdown();
    }
}
