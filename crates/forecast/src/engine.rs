//! [`ForecastEngine`]: the aggregator, a forecaster, and the alerter glued
//! behind one shared, thread-safe handle — the object the scheduler
//! simulator feeds (job started / finished), the minute clock drives
//! ([`ForecastEngine::tick`]), the serve gateway's pre-shed hook polls
//! ([`ForecastEngine::pressure_probe`]), and the `/forecast` ops route
//! snapshots ([`ForecastEngine::ops_probe`]).

use std::sync::{Arc, Mutex};

use prionn_sched::io::JobIoInterval;
use prionn_telemetry::{Gauge, Telemetry};

use crate::aggregate::IoAggregator;
use crate::alert::{AlertConfig, AlertTransition, BurstAlerter};
use crate::forecaster::{Ewma, Forecaster, Holt, SeasonalNaive};

/// Which forecaster the engine runs over the live aggregate.
#[derive(Debug, Clone, Copy)]
pub enum ForecasterKind {
    /// Exponentially weighted moving average at weight `alpha`.
    Ewma {
        /// Weight of the newest observation, `(0, 1]`.
        alpha: f64,
    },
    /// Holt double-exponential smoothing (level `alpha`, trend `beta`).
    Holt {
        /// Level smoothing weight, `(0, 1]`.
        alpha: f64,
        /// Trend smoothing weight, `(0, 1]`.
        beta: f64,
    },
    /// Seasonal-naive at `period` minutes.
    SeasonalNaive {
        /// Season length in minutes (e.g. 1440 = daily).
        period: usize,
    },
}

impl ForecasterKind {
    fn build(self) -> Box<dyn Forecaster + Send> {
        match self {
            ForecasterKind::Ewma { alpha } => Box::new(Ewma::new(alpha)),
            ForecasterKind::Holt { alpha, beta } => Box::new(Holt::new(alpha, beta)),
            ForecasterKind::SeasonalNaive { period } => Box::new(SeasonalNaive::new(period)),
        }
    }
}

/// Engine tuning.
#[derive(Debug, Clone)]
pub struct ForecastConfig {
    /// Aggregation wheel capacity, minutes (intervals past it truncate).
    pub horizon_minutes: usize,
    /// Forecast lead time, minutes: alerts fire when the aggregate
    /// `lead_minutes` ahead is predicted to burst.
    pub lead_minutes: u64,
    /// The forecaster over the live aggregate.
    pub forecaster: ForecasterKind,
    /// Alerting policy.
    pub alert: AlertConfig,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig {
            horizon_minutes: 7 * 24 * 60, // one week of minutes
            lead_minutes: 10,
            forecaster: ForecasterKind::Holt {
                alpha: 0.5,
                beta: 0.3,
            },
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
    /// Forecaster display name.
    pub forecaster: &'static str,
}

impl ForecastSnapshot {
    /// Render as the JSON document `/forecast` serves.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"minute\":{},\"lead_minutes\":{},\"aggregate_bps\":{:.6},",
                "\"forecast_bps\":{:.6},\"threshold_bps\":{:.6},\"alerting\":{},",
                "\"active_jobs\":{},\"total_bandwidth_bps\":{:.6},",
                "\"truncated_jobs\":{},\"forecaster\":\"{}\"}}"
            ),
            self.minute,
            self.lead_minutes,
            self.aggregate,
            self.forecast,
            self.threshold,
            self.alerting,
            self.active_jobs,
            self.total_bandwidth,
            self.truncated_jobs,
            self.forecaster
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
    forecaster: Box<dyn Forecaster + Send>,
    alerter: BurstAlerter,
    lead_minutes: u64,
    clock: u64,
    last_aggregate: f64,
    last_forecast: f64,
    resident_gauge: Gauge,
    truncated_gauge: Gauge,
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
                forecaster: cfg.forecaster.build(),
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
        let mut s = lock(&self.inner);
        let minute = s.clock;
        s.clock += 1;
        let aggregate = s.aggregator.advance_to(minute as usize);
        s.forecaster.observe(aggregate);
        let lead = s.lead_minutes;
        let forecast = s.forecaster.forecast(lead as usize);
        let transition = s.alerter.observe(minute, aggregate, lead, forecast);
        s.last_aggregate = aggregate;
        s.last_forecast = forecast;
        ForecastTick {
            minute,
            aggregate,
            forecast,
            threshold: s.alerter.threshold(),
            alerting: s.alerter.alerting(),
            transition,
        }
    }

    /// [`tick`](Self::tick) repeatedly until the clock reaches `minute`
    /// (exclusive), returning the last readout, if any ticks ran.
    pub fn tick_to(&self, minute: u64) -> Option<ForecastTick> {
        let mut last = None;
        while lock(&self.inner).clock < minute {
            last = Some(self.tick());
        }
        last
    }

    /// Level-triggered burst pressure: true while a burst is forecast
    /// within the lead horizon. This is what the serve gateway's pre-shed
    /// admission hook polls.
    pub fn pressure(&self) -> bool {
        lock(&self.inner).alerter.alerting()
    }

    /// The pressure flag as a shareable probe closure, shaped for
    /// `prionn_serve::GatewayConfig::pressure`.
    pub fn pressure_probe(&self) -> Arc<dyn Fn() -> bool + Send + Sync> {
        let engine = self.clone();
        Arc::new(move || engine.pressure())
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
            forecaster: s.forecaster.name(),
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
            forecaster: ForecasterKind::Ewma { alpha: 1.0 },
            alert: AlertConfig {
                threshold_window: 64,
                min_samples: 4,
                threshold_override: Some(100.0),
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

    #[test]
    fn ticks_observe_the_aggregate_and_raise_pressure() {
        let t = Telemetry::new();
        let engine = ForecastEngine::new(&t, cfg());
        // Calm minutes 0..10, then a 200 B/s burst from minute 10.
        engine.job_started(&iv(0, 120 * 60, 10.0));
        engine.job_started(&iv(10 * 60, 20 * 60, 200.0));

        let at9 = engine.tick_to(10).unwrap();
        assert!((at9.aggregate - 10.0).abs() < 1e-9);
        assert!(!engine.pressure());

        // With alpha=1 EWMA the forecast equals the last observation:
        // minute 10 observes 210 B/s > the 100 B/s override -> alert.
        let at10 = engine.tick();
        assert!((at10.aggregate - 210.0).abs() < 1e-9);
        assert_eq!(at10.transition, Some(AlertTransition::Raised));
        assert!(engine.pressure());
        assert!(engine.pressure_probe()());

        // The burst ends at minute 20: pressure clears.
        let at20 = engine.tick_to(21).unwrap();
        assert!((at20.aggregate - 10.0).abs() < 1e-9);
        assert_eq!(at20.transition, Some(AlertTransition::Cleared));
        assert!(!engine.pressure());
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
            "\"forecaster\":\"ewma\"",
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
