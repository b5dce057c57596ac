//! Edge-triggered burst alerts over the forecast stream, mirroring the
//! drift-alert machinery in `prionn-observe`: crossing into a forecast
//! burst records one `forecast_burst_alert` event in the shared telemetry
//! span log (and bumps `forecast_burst_alerts_total`); crossing back out
//! records `forecast_burst_clear`. A forecast sitting above threshold does
//! not flood the event ring, and consumers (the `/forecast` ops route) read
//! the level-triggered [`BurstAlerter::alerting`] flag.

use std::collections::VecDeque;

use prionn_sched::burst::burst_threshold;
use prionn_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Alerting policy.
#[derive(Debug, Clone)]
pub struct AlertConfig {
    /// Rolling window of trailing *actual* aggregates the mean+1σ burst
    /// threshold is derived from (the paper's threshold, computed live).
    pub threshold_window: usize,
    /// Actual samples required before alerts may fire.
    pub min_samples: usize,
    /// Fixed threshold override (B/s); `None` derives mean+1σ from the
    /// trailing window.
    pub threshold_override: Option<f64>,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            threshold_window: 360, // six hours of minutes
            min_samples: 30,
            threshold_override: None,
        }
    }
}

/// An alert edge returned by [`BurstAlerter::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransition {
    /// The forecast crossed above the burst threshold.
    Raised,
    /// The forecast dropped back below it.
    Cleared,
}

/// Edge-triggered burst alerter fed one (actual, forecast) pair per minute.
pub struct BurstAlerter {
    cfg: AlertConfig,
    telemetry: Telemetry,
    trailing: VecDeque<f64>,
    trailing_sum: f64,
    alerting: bool,
    threshold: f64,
    // instruments
    aggregate_gauge: Gauge,
    horizon_gauge: Gauge,
    threshold_gauge: Gauge,
    active_gauge: Gauge,
    alerts_total: Counter,
    samples_total: Counter,
    error_hist: Histogram,
    // forecasts waiting for their target minute's actual, oldest first,
    // as (target_minute, forecast) — scored into `error_hist` on arrival.
    pending: VecDeque<(u64, f64)>,
}

impl BurstAlerter {
    /// Build an alerter registering its instruments in `telemetry`.
    pub fn new(telemetry: &Telemetry, cfg: AlertConfig) -> Self {
        BurstAlerter {
            trailing: VecDeque::with_capacity(cfg.threshold_window.max(1)),
            trailing_sum: 0.0,
            alerting: false,
            threshold: cfg.threshold_override.unwrap_or(0.0),
            aggregate_gauge: telemetry.gauge(
                "forecast_aggregate_bandwidth",
                "Cluster-wide per-minute IO bandwidth aggregate (B/s) at the forecast clock",
            ),
            horizon_gauge: telemetry.gauge(
                "forecast_horizon_bandwidth",
                "Forecast aggregate bandwidth (B/s) at the configured lead horizon",
            ),
            threshold_gauge: telemetry.gauge(
                "forecast_burst_threshold",
                "Live mean+1sigma burst threshold derived from trailing actuals (B/s)",
            ),
            active_gauge: telemetry.gauge(
                "forecast_burst_active",
                "1 while a burst is forecast within the lead horizon, else 0",
            ),
            alerts_total: telemetry.counter(
                "forecast_burst_alerts_total",
                "Forecast crossed above the burst threshold (edge-triggered)",
            ),
            samples_total: telemetry.counter(
                "forecast_samples_total",
                "Per-minute aggregate samples folded into the forecaster",
            ),
            error_hist: telemetry.histogram(
                "forecast_abs_error",
                "Absolute forecast error |actual - forecast| scored when the target minute arrives (B/s)",
            ),
            telemetry: telemetry.clone(),
            cfg,
            pending: VecDeque::new(),
        }
    }

    /// Alerter with default tuning.
    pub fn with_defaults(telemetry: &Telemetry) -> Self {
        Self::new(telemetry, AlertConfig::default())
    }

    /// True while the forecast sits above the burst threshold.
    pub fn alerting(&self) -> bool {
        self.alerting
    }

    /// The threshold currently in force (B/s).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Fold in minute `minute`'s observed aggregate and the forecast for
    /// `minute + horizon`. Returns the edge, if one fired.
    pub fn observe(
        &mut self,
        minute: u64,
        actual: f64,
        horizon: u64,
        forecast: f64,
    ) -> Option<AlertTransition> {
        if !actual.is_finite() || !forecast.is_finite() {
            return None;
        }
        self.samples_total.inc();
        self.aggregate_gauge.set(actual);
        self.horizon_gauge.set(forecast);

        // Score every pending forecast whose target minute has arrived.
        // Same-minute aggregates only: a forecast for a *later* minute
        // stays queued.
        while let Some(&(target, f)) = self.pending.front() {
            if target > minute {
                break;
            }
            self.pending.pop_front();
            if target == minute {
                self.error_hist.observe((actual - f).abs());
            }
        }
        self.pending.push_back((minute + horizon, forecast));

        // Slide the trailing-actual window and refresh the threshold.
        if self.trailing.len() >= self.cfg.threshold_window.max(1) {
            if let Some(old) = self.trailing.pop_front() {
                self.trailing_sum -= old;
            }
        }
        self.trailing.push_back(actual);
        self.trailing_sum += actual;
        self.threshold = match self.cfg.threshold_override {
            Some(t) => t,
            None => {
                // One O(window) pass per minute: cheap (window ≤ a few
                // hundred) and exactly the paper's mean+1σ definition.
                self.trailing.make_contiguous();
                burst_threshold(self.trailing.as_slices().0)
            }
        };
        self.threshold_gauge.set(self.threshold);

        if self.trailing.len() < self.cfg.min_samples.max(1) {
            return None;
        }
        let burst = forecast > self.threshold;
        if burst && !self.alerting {
            self.alerting = true;
            self.active_gauge.set(1.0);
            self.alerts_total.inc();
            self.telemetry.events().record(
                "forecast_burst_alert",
                format!(
                    "minute={minute} horizon={horizon} forecast={forecast:.3e} threshold={:.3e}",
                    self.threshold
                ),
                0,
            );
            Some(AlertTransition::Raised)
        } else if !burst && self.alerting {
            self.alerting = false;
            self.active_gauge.set(0.0);
            self.telemetry.events().record(
                "forecast_burst_clear",
                format!(
                    "minute={minute} forecast={forecast:.3e} threshold={:.3e}",
                    self.threshold
                ),
                0,
            );
            Some(AlertTransition::Cleared)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alerter(t: &Telemetry) -> BurstAlerter {
        BurstAlerter::new(
            t,
            AlertConfig {
                threshold_window: 32,
                min_samples: 8,
                threshold_override: None,
            },
        )
    }

    #[test]
    fn alert_is_edge_triggered_and_clears() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        // Quiet baseline, then a sustained forecast burst, then calm.
        for m in 0..16u64 {
            assert_eq!(a.observe(m, 1.0 + (m % 3) as f64 * 0.1, 5, 1.0), None);
        }
        assert!(!a.alerting());
        let raised = a.observe(16, 1.0, 5, 500.0);
        assert_eq!(raised, Some(AlertTransition::Raised));
        // Still bursting: no second edge.
        assert_eq!(a.observe(17, 1.0, 5, 500.0), None);
        assert!(a.alerting());
        let cleared = a.observe(18, 1.0, 5, 1.0);
        assert_eq!(cleared, Some(AlertTransition::Cleared));
        assert!(!a.alerting());

        let events = t.events().drain();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "forecast_burst_alert")
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "forecast_burst_clear")
                .count(),
            1
        );
        assert!(t.prometheus().contains("forecast_burst_alerts_total 1"));
    }

    #[test]
    fn no_alerts_before_min_samples() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        for m in 0..7u64 {
            assert_eq!(a.observe(m, 1.0, 5, 1e9), None, "minute {m}");
        }
        assert!(!a.alerting());
    }

    #[test]
    fn forecast_errors_are_scored_when_the_target_minute_arrives() {
        let t = Telemetry::new();
        let mut a = BurstAlerter::new(
            &t,
            AlertConfig {
                threshold_window: 8,
                min_samples: 2,
                threshold_override: Some(1e12),
            },
        );
        // Forecast 10.0 for minute 2; actual at minute 2 is 14.0 -> |err| 4.
        a.observe(0, 5.0, 2, 10.0);
        a.observe(1, 5.0, 2, 10.0);
        a.observe(2, 14.0, 2, 10.0);
        let text = t.prometheus();
        assert!(
            text.contains("forecast_abs_error_count 1"),
            "one scored forecast:\n{text}"
        );
        assert!(text.contains("forecast_abs_error_sum 4"), "{text}");
    }

    #[test]
    fn fixed_threshold_override_is_respected() {
        let t = Telemetry::new();
        let mut a = BurstAlerter::new(
            &t,
            AlertConfig {
                threshold_window: 8,
                min_samples: 1,
                threshold_override: Some(100.0),
            },
        );
        assert_eq!(a.observe(0, 1.0, 5, 99.0), None);
        assert_eq!(a.observe(1, 1.0, 5, 101.0), Some(AlertTransition::Raised));
        assert_eq!(a.threshold(), 100.0);
    }

    #[test]
    fn non_finite_inputs_are_ignored() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        assert_eq!(a.observe(0, f64::NAN, 5, 1.0), None);
        assert_eq!(a.observe(0, 1.0, 5, f64::INFINITY), None);
        assert!(!a.alerting());
    }
}
