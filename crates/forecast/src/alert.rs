//! Edge-triggered burst alerts over the forecast stream, mirroring the
//! drift-alert machinery in `prionn-observe`: crossing into a forecast
//! burst returns [`AlertTransition::Raised`], bumps
//! `forecast_burst_alerts_total` and sets `forecast_burst_active` to 1;
//! crossing back out returns [`AlertTransition::Cleared`] and sets it to
//! 0. A forecast sitting above threshold counts one alert, not one per
//! minute, and consumers (the `/forecast` ops route) read the
//! level-triggered [`BurstAlerter::alerting`] flag.
//!
//! The threshold is the paper's mean + 1σ over a trailing window of
//! actuals, kept as compensated running sums of the window's values and
//! squares: a minute costs one push and one evict, whatever the window.
//! It agrees with [`burst_threshold`](prionn_sched::burst::burst_threshold)
//! over the same window to within its last bits (relative error ~1e-8
//! where the window is flat and `Σx²/n − mean²` cancels), so a forecast
//! that close to the threshold can edge differently than a rescan would.

use std::collections::VecDeque;

use prionn_telemetry::{Counter, Gauge, Telemetry};

/// Alerting policy.
#[derive(Debug, Clone)]
pub struct AlertConfig {
    /// Rolling window of trailing *actual* aggregates the mean+1σ burst
    /// threshold is derived from (the paper's threshold, computed live).
    pub threshold_window: usize,
    /// Actual samples required before alerts may fire.
    pub min_samples: usize,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            threshold_window: 360, // six hours of minutes
            min_samples: 30,
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

/// A running sum that carries each addition's rounding error (Knuth's
/// TwoSum) in a second word. Adding and later subtracting the same terms
/// (a window sliding past a 10⁴× burst) leaves a residue of ~ε² of the
/// largest sum held, where a plain sum leaves ~ε of it.
#[derive(Clone, Copy, Debug, Default)]
struct CompensatedSum {
    sum: f64,
    err: f64,
}

impl CompensatedSum {
    fn add(&mut self, x: f64) {
        let s = self.sum + x;
        let b = s - self.sum;
        self.err += (self.sum - (s - b)) + (x - b);
        self.sum = s;
    }

    fn value(&self) -> f64 {
        self.sum + self.err
    }
}

/// Σx² this far below its peak since the sums were last re-summed means
/// their error words may carry residue of values long gone.
const RESUM_BELOW: f64 = 1.0 / (1u64 << 32) as f64;

/// The trailing window of actuals with its Σx and Σx² kept as it slides.
#[derive(Debug, Default)]
struct Window {
    values: VecDeque<f64>,
    sum: CompensatedSum,
    sum_sq: CompensatedSum,
    /// Largest Σx² since the sums were last re-summed from `values`.
    peak_sq: f64,
}

impl Window {
    /// Append `x`, evicting the oldest value first when `cap` are held.
    fn push(&mut self, x: f64, cap: usize) {
        if self.values.len() >= cap {
            if let Some(old) = self.values.pop_front() {
                self.sum.add(-old);
                self.sum_sq.add(-(old * old));
            }
        }
        self.values.push_back(x);
        self.sum.add(x);
        self.sum_sq.add(x * x);
    }

    /// Mean + 1σ (population) of the window; 0 when empty.
    fn threshold(&mut self) -> f64 {
        // The compensated sums are exact to ~ε² of the largest sum they
        // have held. Once Σx² has fallen far below that peak (a burst slid
        // out of a quiet window) or reads NaN (an overflowed square slid
        // out), re-sum what the window holds. A burst takes a window's
        // length to slide out, so this costs O(1) amortised.
        let sq = self.sum_sq.value();
        self.peak_sq = self.peak_sq.max(sq);
        if sq.is_nan() || sq < self.peak_sq * RESUM_BELOW {
            self.sum = CompensatedSum::default();
            self.sum_sq = CompensatedSum::default();
            for &x in &self.values {
                self.sum.add(x);
                self.sum_sq.add(x * x);
            }
            self.peak_sq = self.sum_sq.value();
        }
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.sum.value() / n as f64;
        let var = self.sum_sq.value() / n as f64 - mean * mean;
        mean + var.max(0.0).sqrt()
    }
}

/// Edge-triggered burst alerter fed one (actual, forecast) pair per minute.
pub struct BurstAlerter {
    cfg: AlertConfig,
    trailing: Window,
    alerting: bool,
    threshold: f64,
    // instruments
    aggregate_gauge: Gauge,
    horizon_gauge: Gauge,
    threshold_gauge: Gauge,
    active_gauge: Gauge,
    alerts_total: Counter,
    samples_total: Counter,
}

impl BurstAlerter {
    /// Build an alerter registering its instruments in `telemetry`.
    pub fn new(telemetry: &Telemetry, cfg: AlertConfig) -> Self {
        BurstAlerter {
            trailing: Window {
                values: VecDeque::with_capacity(cfg.threshold_window.max(1)),
                ..Window::default()
            },
            alerting: false,
            threshold: 0.0,
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
            cfg,
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

    /// Fold in a minute's observed aggregate and the forecast for the lead
    /// horizon ahead of it. Returns the edge, if one fired.
    pub fn observe(&mut self, actual: f64, forecast: f64) -> Option<AlertTransition> {
        if !actual.is_finite() || !forecast.is_finite() {
            return None;
        }
        self.samples_total.inc();
        self.aggregate_gauge.set(actual);
        self.horizon_gauge.set(forecast);

        // Slide the trailing-actual window and refresh the threshold.
        self.trailing.push(actual, self.cfg.threshold_window.max(1));
        self.threshold = self.trailing.threshold();
        self.threshold_gauge.set(self.threshold);

        if self.trailing.values.len() < self.cfg.min_samples.max(1) {
            return None;
        }
        let burst = forecast > self.threshold;
        if burst && !self.alerting {
            self.alerting = true;
            self.active_gauge.set(1.0);
            self.alerts_total.inc();
            Some(AlertTransition::Raised)
        } else if !burst && self.alerting {
            self.alerting = false;
            self.active_gauge.set(0.0);
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
            },
        )
    }

    #[test]
    fn alert_is_edge_triggered_and_clears() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        // Quiet baseline, then a sustained forecast burst, then calm.
        for m in 0..16u64 {
            assert_eq!(a.observe(1.0 + (m % 3) as f64 * 0.1, 1.0), None);
        }
        assert!(!a.alerting());
        let raised = a.observe(1.0, 500.0);
        assert_eq!(raised, Some(AlertTransition::Raised));
        // Still bursting: no second edge.
        assert_eq!(a.observe(1.0, 500.0), None);
        assert!(a.alerting());
        assert!(t.prometheus().contains("forecast_burst_active 1"));
        let cleared = a.observe(1.0, 1.0);
        assert_eq!(cleared, Some(AlertTransition::Cleared));
        assert!(!a.alerting());
        let prom = t.prometheus();
        assert!(prom.contains("forecast_burst_alerts_total 1"), "{prom}");
        assert!(prom.contains("forecast_burst_active 0"), "{prom}");
    }

    #[test]
    fn no_alerts_before_min_samples() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        for m in 0..7u64 {
            assert_eq!(a.observe(1.0, 1e9), None, "minute {m}");
        }
        assert!(!a.alerting());
    }

    #[test]
    fn non_finite_inputs_are_ignored() {
        let t = Telemetry::new();
        let mut a = alerter(&t);
        assert_eq!(a.observe(f64::NAN, 1.0), None);
        assert_eq!(a.observe(1.0, f64::INFINITY), None);
        assert!(!a.alerting());
    }
}
