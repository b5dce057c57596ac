//! [`ForecastEngine`]: the aggregator, Holt, and the alerter glued
//! behind one shared, thread-safe handle — the object the scheduler
//! simulator feeds (job started / finished), the minute clock drives
//! ([`ForecastEngine::tick`]), and the `/forecast` ops route snapshots
//! ([`ForecastEngine::ops_probe`]).

use std::sync::{Arc, Mutex};

use prionn_sched::io::JobIoInterval;
use prionn_telemetry::{Gauge, Telemetry};

use crate::aggregate::IoAggregator;
use crate::alert::{AlertConfig, AlertTransition, BurstAlerter};
use crate::forecaster::{Holt, HOLT_ALPHA, HOLT_BETA};

/// Engine tuning.
#[derive(Debug, Clone)]
pub struct ForecastConfig {
    /// Aggregation wheel capacity, minutes (intervals past it truncate).
    pub horizon_minutes: usize,
    /// Forecast lead time, minutes: alerts fire when the aggregate
    /// `lead_minutes` ahead is predicted to burst.
    pub lead_minutes: u64,
    /// Alerting policy.
    pub alert: AlertConfig,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            horizon_minutes: 7 * 24 * 60, // one week of minutes
            lead_minutes: 10,
            alert: AlertConfig::default(),
        }
    }
}

/// One minute's readout from [`ForecastEngine::tick`].
#[derive(Debug, Clone, Copy)]
pub struct ForecastTick {
    /// The minute just observed.
    pub minute: u64,
    /// Aggregate bandwidth observed at that minute (B/s).
    pub aggregate: f64,
    /// Forecast aggregate `lead_minutes` ahead (B/s).
    pub forecast: f64,
    /// Burst threshold in force (B/s).
    pub threshold: f64,
    /// True while a burst is forecast (level-triggered).
    pub alerting: bool,
    /// The alert edge this tick produced, if any.
    pub transition: Option<AlertTransition>,
}

/// Point-in-time engine state for the `/forecast` ops route.
#[derive(Debug, Clone)]
pub struct ForecastSnapshot {
    /// Minutes ticked so far (the engine clock).
    pub minute: u64,
    /// Forecast lead time, minutes.
    pub lead_minutes: u64,
    /// Latest observed aggregate (B/s).
    pub aggregate: f64,
    /// Latest forecast at the lead horizon (B/s).
    pub forecast: f64,
    /// Burst threshold in force (B/s).
    pub threshold: f64,
    /// True while a burst is forecast.
    pub alerting: bool,
    /// Jobs currently resident in the aggregator.
    pub active_jobs: usize,
    /// Summed bandwidth of resident jobs (B/s).
    pub total_bandwidth: f64,
    /// Jobs clipped at the aggregation horizon so far.
    pub truncated_jobs: u64,
}

impl ForecastSnapshot {
    /// Render as the JSON document `/forecast` serves.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"minute\":{},\"lead_minutes\":{},\"aggregate_bps\":{:.6},",
                "\"forecast_bps\":{:.6},\"threshold_bps\":{:.6},\"alerting\":{},",
                "\"active_jobs\":{},\"total_bandwidth_bps\":{:.6},",
                "\"truncated_jobs\":{}}}"
            ),
            self.minute,
            self.lead_minutes,
            self.aggregate,
            self.forecast,
            self.threshold,
            self.alerting,
            self.active_jobs,
            self.total_bandwidth,
            self.truncated_jobs
        )
    }

    /// Compact single-line rendering for logs and demos.
    pub fn render(&self) -> String {
        format!(
            "minute {}: aggregate={:.3e} B/s forecast(+{}m)={:.3e} B/s threshold={:.3e} B/s jobs={}{}",
            self.minute,
            self.aggregate,
            self.lead_minutes,
            self.forecast,
            self.threshold,
            self.active_jobs,
            if self.alerting { " BURST-ALERT" } else { "" }
        )
    }
}

struct EngineInner {
    aggregator: IoAggregator,
    holt: Holt,
    alerter: BurstAlerter,
    lead_minutes: u64,
    clock: u64,
    last_aggregate: f64,
    last_forecast: f64,
    resident_gauge: Gauge,
    truncated_gauge: Gauge,
}

impl EngineInner {
    /// One minute of [`ForecastEngine::tick`], under the caller's lock.
    fn tick(&mut self) -> ForecastTick {
        let minute = self.clock;
        self.clock += 1;
        let aggregate = self.aggregator.advance_to(minute as usize);
        self.holt.observe(aggregate);
        let forecast = self.holt.forecast(self.lead_minutes as usize);
        let transition = self.alerter.observe(aggregate, forecast);
        self.last_aggregate = aggregate;
        self.last_forecast = forecast;
        ForecastTick {
            minute,
            aggregate,
            forecast,
            threshold: self.alerter.threshold(),
            alerting: self.alerter.alerting(),
            transition,
        }
    }
}

/// The cluster-scale burst forecasting engine. Cloning shares state; all
/// methods take `&self` and are thread-safe.
#[derive(Clone)]
pub struct ForecastEngine {
    inner: Arc<Mutex<EngineInner>>,
}

impl std::fmt::Debug for ForecastEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForecastEngine").finish()
    }
}

fn lock(m: &Mutex<EngineInner>) -> std::sync::MutexGuard<'_, EngineInner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ForecastEngine {
    /// Build an engine registering its instruments in `telemetry`.
    pub fn new(telemetry: &Telemetry, cfg: ForecastConfig) -> Self {
        ForecastEngine {
            inner: Arc::new(Mutex::new(EngineInner {
                aggregator: IoAggregator::new(cfg.horizon_minutes),
                holt: Holt::new(HOLT_ALPHA, HOLT_BETA),
                alerter: BurstAlerter::new(telemetry, cfg.alert),
                lead_minutes: cfg.lead_minutes.max(1),
                clock: 0,
                last_aggregate: 0.0,
                last_forecast: 0.0,
                resident_gauge: telemetry.gauge(
                    "forecast_resident_jobs",
                    "Jobs currently resident in the forecast aggregator",
                ),
                truncated_gauge: telemetry.gauge(
                    "forecast_truncated_jobs",
                    "Jobs whose IO interval was clipped at the aggregation horizon",
                ),
            })),
        }
    }

    /// Engine with default tuning.
    pub fn with_defaults(telemetry: &Telemetry) -> Self {
        Self::new(telemetry, ForecastConfig::default())
    }

    /// A job started (or its prediction arrived): fold its predicted IO
    /// interval into the aggregate. O(log horizon).
    pub fn job_started(&self, iv: &JobIoInterval) {
        let mut s = lock(&self.inner);
        s.aggregator.add(iv);
        let (resident, truncated) = (s.aggregator.active_jobs(), s.aggregator.truncated_jobs());
        s.resident_gauge.set(resident as f64);
        s.truncated_gauge.set(truncated as f64);
    }

    /// A job finished (or its prediction was revised: remove old, add
    /// new): withdraw its interval from the aggregate. O(log horizon).
    pub fn job_finished(&self, iv: &JobIoInterval) {
        let mut s = lock(&self.inner);
        s.aggregator.remove(iv);
        let resident = s.aggregator.active_jobs();
        s.resident_gauge.set(resident as f64);
    }

    /// Advance the engine clock one minute: observe the aggregate at the
    /// current minute, refresh the forecast at the lead horizon, and run
    /// the alerter. Returns the minute's readout.
    pub fn tick(&self) -> ForecastTick {
        lock(&self.inner).tick()
    }

    /// [`tick`](Self::tick) repeatedly until the clock reaches `minute`
    /// (exclusive), returning the last readout, if any ticks ran. One lock
    /// covers every check and tick, so clones racing to the same target
    /// never carry the clock past it.
    pub fn tick_to(&self, minute: u64) -> Option<ForecastTick> {
        let mut s = lock(&self.inner);
        let mut last = None;
        while s.clock < minute {
            last = Some(s.tick());
        }
        last
    }

    /// Point-in-time readout of the whole engine.
    pub fn snapshot(&self) -> ForecastSnapshot {
        let s = lock(&self.inner);
        ForecastSnapshot {
            minute: s.clock,
            lead_minutes: s.lead_minutes,
            aggregate: s.last_aggregate,
            forecast: s.last_forecast,
            threshold: s.alerter.threshold(),
            alerting: s.alerter.alerting(),
            active_jobs: s.aggregator.active_jobs(),
            total_bandwidth: s.aggregator.total_bandwidth(),
            truncated_jobs: s.aggregator.truncated_jobs(),
        }
    }

    /// The snapshot as a JSON-producing probe closure, shaped for an entry
    /// of `prionn_observe::OpsOptions::json_routes` (the `/forecast` route).
    pub fn ops_probe(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let engine = self.clone();
        Arc::new(move || engine.snapshot().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ForecastConfig {
        ForecastConfig {
            horizon_minutes: 120,
            lead_minutes: 5,
            alert: AlertConfig {
                threshold_window: 64,
                min_samples: 4,
            },
        }
    }

    fn iv(start: u64, end: u64, bandwidth: f64) -> JobIoInterval {
        JobIoInterval {
            start,
            end,
            bandwidth,
        }
    }

    /// The default engine is `IoAggregator` → `Holt(0.5, 0.3)` →
    /// `BurstAlerter` and nothing else: the bare composition, fed the same
    /// seeded starts and finishes, reads the same bits every minute.
    #[test]
    fn default_engine_is_the_aggregator_holt_alerter_composition() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        const MINUTES: u64 = 2_000;
        let defaults = ForecastConfig::default();
        let engine = ForecastEngine::with_defaults(&Telemetry::new());
        let mut aggregator = IoAggregator::new(defaults.horizon_minutes);
        let mut holt = Holt::new(0.5, 0.3);
        let mut alerter = BurstAlerter::new(&Telemetry::new(), defaults.alert.clone());

        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        let mut running: Vec<JobIoInterval> = Vec::new();
        let (mut raised, mut cleared) = (0, 0);
        for minute in 0..MINUTES {
            // Up to three starts a minute, one job in 40 a 100× one.
            for _ in 0..rng.gen_range(0..=3) {
                let start = minute * 60 + rng.gen_range(0..60u64);
                let scale = if rng.gen_range(0..40) == 0 { 1e8 } else { 1e6 };
                let job = iv(
                    start,
                    start + rng.gen_range(60..7_200u64),
                    scale * rng.gen_range(0.5..1.5),
                );
                engine.job_started(&job);
                aggregator.add(&job);
                running.push(job);
            }
            // A job leaves at its end, or early (a kill) one minute in 50.
            let mut i = 0;
            while i < running.len() {
                if running[i].end <= minute * 60 || rng.gen_range(0..50) == 0 {
                    let job = running.swap_remove(i);
                    engine.job_finished(&job);
                    aggregator.remove(&job);
                } else {
                    i += 1;
                }
            }

            let tick = engine.tick();
            let aggregate = aggregator.advance_to(minute as usize);
            holt.observe(aggregate);
            let forecast = holt.forecast(defaults.lead_minutes as usize);
            let transition = alerter.observe(aggregate, forecast);
            assert_eq!(tick.minute, minute);
            assert_eq!(
                tick.aggregate.to_bits(),
                aggregate.to_bits(),
                "minute {minute}"
            );
            assert_eq!(
                tick.forecast.to_bits(),
                forecast.to_bits(),
                "minute {minute}"
            );
            assert_eq!(
                tick.threshold.to_bits(),
                alerter.threshold().to_bits(),
                "minute {minute}"
            );
            assert_eq!(tick.transition, transition, "minute {minute}");
            assert_eq!(tick.alerting, alerter.alerting(), "minute {minute}");
            match transition {
                Some(AlertTransition::Raised) => raised += 1,
                Some(AlertTransition::Cleared) => cleared += 1,
                None => {}
            }
        }
        assert!(
            raised > 0 && cleared > 0,
            "the stream never edged: {raised} raised, {cleared} cleared"
        );
    }

    #[test]
    fn clones_racing_to_the_same_minute_stop_there() {
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

        const ROUNDS: u64 = 2_000;
        let t = Telemetry::new();
        let engine = ForecastEngine::new(&t, cfg());
        engine.job_started(&iv(0, 60 * 60, 5.0));
        let samples = t.counter("forecast_samples_total", "");
        // A spinning barrier: both threads leave it within nanoseconds of
        // each other, so both find the clock one minute short.
        let arrived = AtomicU64::new(0);
        let meet = |all: u64| {
            arrived.fetch_add(1, SeqCst);
            while arrived.load(SeqCst) < all {
                std::hint::spin_loop();
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let engine = engine.clone();
                let (meet, samples) = (&meet, &samples);
                scope.spawn(move || {
                    for target in 1..=ROUNDS {
                        meet(4 * target - 2);
                        engine.tick_to(target);
                        // Nobody ticks again until both have checked.
                        meet(4 * target);
                        assert_eq!(engine.snapshot().minute, target, "clock past the target");
                        assert_eq!(samples.value(), target, "one sample per minute");
                    }
                });
            }
        });
    }

    #[test]
    fn job_finished_withdraws_the_contribution() {
        let t = Telemetry::new();
        let engine = ForecastEngine::new(&t, cfg());
        let job = iv(0, 60 * 60, 50.0);
        engine.job_started(&job);
        assert_eq!(engine.snapshot().active_jobs, 1);
        engine.job_finished(&job);
        assert_eq!(engine.snapshot().active_jobs, 0);
        let tick = engine.tick();
        assert_eq!(tick.aggregate, 0.0);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let t = Telemetry::new();
        let engine = ForecastEngine::new(&t, cfg());
        engine.job_started(&iv(0, 600, 25.0));
        engine.tick();
        let json = engine.ops_probe()();
        for key in [
            "\"minute\":",
            "\"lead_minutes\":5",
            "\"aggregate_bps\":",
            "\"forecast_bps\":",
            "\"threshold_bps\":",
            "\"alerting\":false",
            "\"active_jobs\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn resident_and_truncated_gauges_track_the_aggregator() {
        let t = Telemetry::new();
        let engine = ForecastEngine::new(&t, cfg());
        engine.job_started(&iv(0, 600, 1.0));
        engine.job_started(&iv(0, 1_000_000, 1.0)); // clipped at 120 min
        let text = t.prometheus();
        assert!(text.contains("forecast_resident_jobs 2"), "{text}");
        assert!(text.contains("forecast_truncated_jobs 1"), "{text}");
    }
}
