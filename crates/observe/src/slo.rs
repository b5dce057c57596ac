//! Declarative SLOs with multi-window burn-rate alerting over the
//! federated metrics surface.
//!
//! An [`SloSpec`] names an objective ("99% of predicts under 250ms") and
//! where its good/bad counts come from ([`SloSource`]). The [`SloEngine`]
//! ingests per-scrape good/bad deltas and evaluates **burn rate** — the
//! rate the error budget is being spent, `bad_fraction / (1 - objective)`
//! — over a fast window pair (5m *and* 1h must both burn hot, the
//! standard guard against paging on a blip) and a slow 6h window for
//! sustained, slower burns. Alerts are edge-triggered: a start bumps
//! `slo_alerts_total`, the `slo_alert` gauge reads 1 until the burn
//! clears, and [`SloStatus::edge`] marks the evaluation of each flip. Consumers like the fleet
//! coordinator read [`SloEngine::any_alert`] to pause weight rollouts
//! while the budget is burning.
//!
//! Time is injected (seconds on the caller's monotonic clock), so tests
//! and demos can replay hours of burn in microseconds.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use prionn_telemetry::{Counter, Gauge, Telemetry};

/// Where an SLO's good/bad counts come from on the merged surface.
#[derive(Debug, Clone)]
pub enum SloSource {
    /// A latency histogram: observations ≤ `threshold` are good. The
    /// threshold should sit on a bucket edge for exact counting.
    LatencyBuckets {
        /// Histogram family name (e.g. `fleet_request_seconds`).
        histogram: String,
        /// Good/bad split point, in the histogram's unit.
        threshold: f64,
    },
    /// A ratio of two counters: `bad / total` (e.g. sheds over requests).
    ErrorRatio {
        /// Counter counting every event.
        total: String,
        /// Counter counting the bad subset (summed across label sets).
        bad: String,
    },
    /// A gauge that must stay at or above `floor` (e.g. drift
    /// relativeAccuracy). Sampled, not cumulative: each evaluation below
    /// the floor contributes one bad sample.
    GaugeFloor {
        /// Gauge name; when per-shard copies exist the minimum is judged.
        gauge: String,
        /// Lowest acceptable value.
        floor: f64,
    },
    /// A gauge that must stay at or below `ceiling` (e.g. revise
    /// coverage-gap). Sampled like [`SloSource::GaugeFloor`]; the
    /// maximum across per-shard copies is judged.
    GaugeCeiling {
        /// Gauge name.
        gauge: String,
        /// Highest acceptable value.
        ceiling: f64,
    },
}

/// The multi-window burn thresholds. Defaults follow the common
/// error-budget policy: page when a 1h burn of 14.4× (2% of a 30-day
/// budget) is corroborated by the 5m window, ticket on a sustained 6×
/// burn over 6h.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindows {
    /// Short corroborating window, seconds (default 5 minutes).
    pub fast_short: f64,
    /// Long fast window, seconds (default 1 hour).
    pub fast_long: f64,
    /// Burn-rate threshold both fast windows must exceed.
    pub fast_burn: f64,
    /// Slow window, seconds (default 6 hours).
    pub slow: f64,
    /// Burn-rate threshold for the slow window.
    pub slow_burn: f64,
}

impl Default for BurnWindows {
    fn default() -> Self {
        BurnWindows {
            fast_short: 300.0,
            fast_long: 3600.0,
            fast_burn: 14.4,
            slow: 21_600.0,
            slow_burn: 6.0,
        }
    }
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable name, used as the `slo` metric label.
    pub name: String,
    /// Target good fraction in `(0, 1)`, e.g. `0.99`.
    pub objective: f64,
    /// Where the good/bad counts come from.
    pub source: SloSource,
    /// Burn windows and thresholds.
    pub windows: BurnWindows,
}

impl SloSpec {
    /// A spec with default windows.
    pub fn new(name: impl Into<String>, objective: f64, source: SloSource) -> SloSpec {
        SloSpec {
            name: name.into(),
            objective,
            source,
            windows: BurnWindows::default(),
        }
    }
}

/// One evaluation's verdict for one SLO: the one record of when an alert
/// starts and clears (the `slo_*` series carry levels and counts only).
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The spec's name.
    pub slo: String,
    /// Burn rate over the fast-short window.
    pub burn_fast_short: f64,
    /// Burn rate over the fast-long window.
    pub burn_fast_long: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// True while the alert condition holds (the `slo_alert` gauge).
    pub firing: bool,
    /// True only on the evaluation where `firing` flipped; an edge into
    /// `firing` is one `slo_alerts_total` increment.
    pub edge: bool,
}

struct SeriesState {
    /// (timestamp seconds, good delta, bad delta), pruned past the
    /// longest window.
    samples: VecDeque<(f64, u64, u64)>,
    /// Previous cumulative totals for counter-style sources.
    prev_totals: Option<(u64, u64)>,
    firing: bool,
}

struct SloInstruments {
    burn_fast_short: Gauge,
    burn_fast_long: Gauge,
    burn_slow: Gauge,
    alert: Gauge,
    alerts_total: Counter,
}

/// Evaluates a set of [`SloSpec`]s over injected good/bad samples.
/// Cloning shares state.
#[derive(Clone)]
pub struct SloEngine {
    inner: Arc<SloEngineInner>,
}

struct SloEngineInner {
    specs: Vec<SloSpec>,
    state: Mutex<HashMap<String, SeriesState>>,
    instruments: HashMap<String, SloInstruments>,
}

impl SloEngine {
    /// Build an engine registering `slo_*` instruments in `telemetry`.
    pub fn new(specs: Vec<SloSpec>, telemetry: &Telemetry) -> SloEngine {
        let mut instruments = HashMap::new();
        let mut state = HashMap::new();
        for spec in &specs {
            fn labels<'a>(slo: &'a str, window: &'a str) -> Vec<(&'a str, &'a str)> {
                vec![("slo", slo), ("window", window)]
            }
            instruments.insert(
                spec.name.clone(),
                SloInstruments {
                    burn_fast_short: telemetry.gauge_with(
                        "slo_burn_rate",
                        "Error-budget burn rate by SLO and window",
                        &labels(spec.name.as_str(), "fast_short"),
                    ),
                    burn_fast_long: telemetry.gauge_with(
                        "slo_burn_rate",
                        "Error-budget burn rate by SLO and window",
                        &labels(spec.name.as_str(), "fast_long"),
                    ),
                    burn_slow: telemetry.gauge_with(
                        "slo_burn_rate",
                        "Error-budget burn rate by SLO and window",
                        &labels(spec.name.as_str(), "slow"),
                    ),
                    alert: telemetry.gauge_with(
                        "slo_alert",
                        "1 while the SLO's burn-rate alert fires",
                        &[("slo", spec.name.as_str())],
                    ),
                    alerts_total: telemetry.counter_with(
                        "slo_alerts_total",
                        "Burn-rate alerts fired (edges, not evaluations)",
                        &[("slo", spec.name.as_str())],
                    ),
                },
            );
            state.insert(
                spec.name.clone(),
                SeriesState {
                    samples: VecDeque::new(),
                    prev_totals: None,
                    firing: false,
                },
            );
        }
        SloEngine {
            inner: Arc::new(SloEngineInner {
                specs,
                state: Mutex::new(state),
                instruments,
            }),
        }
    }

    /// The declared specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.inner.specs
    }

    /// Feed cumulative good/bad totals (counter-style sources). The
    /// engine diffs against the previous totals; a total that went
    /// *backwards* (shard restart) resets the baseline without producing
    /// a negative delta.
    pub fn observe_totals(&self, name: &str, good_total: u64, bad_total: u64, now_s: f64) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(s) = state.get_mut(name) else { return };
        let (good, bad) = match s.prev_totals {
            Some((pg, pb)) if good_total >= pg && bad_total >= pb => {
                (good_total - pg, bad_total - pb)
            }
            _ => (0, 0),
        };
        s.prev_totals = Some((good_total, bad_total));
        if good > 0 || bad > 0 {
            s.samples.push_back((now_s, good, bad));
        }
    }

    /// Feed one good/bad delta directly (gauge-style sources and tests).
    pub fn observe_delta(&self, name: &str, good: u64, bad: u64, now_s: f64) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = state.get_mut(name) {
            if good > 0 || bad > 0 {
                s.samples.push_back((now_s, good, bad));
            }
        }
    }

    /// Evaluate every SLO at `now_s`: update the `slo_*` gauges, count an
    /// alert that starts in `slo_alerts_total`, and return the per-SLO
    /// statuses.
    pub fn evaluate(&self, now_s: f64) -> Vec<SloStatus> {
        let mut out = Vec::with_capacity(self.inner.specs.len());
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        for spec in &self.inner.specs {
            let Some(s) = state.get_mut(&spec.name) else {
                continue;
            };
            let longest = spec.windows.slow.max(spec.windows.fast_long);
            while let Some(&(t, _, _)) = s.samples.front() {
                if t < now_s - longest {
                    s.samples.pop_front();
                } else {
                    break;
                }
            }
            let budget = (1.0 - spec.objective).max(1e-9);
            let burn_over = |window: f64| {
                let (mut good, mut bad) = (0u64, 0u64);
                for &(t, g, b) in s.samples.iter().rev() {
                    if t < now_s - window {
                        break;
                    }
                    good += g;
                    bad += b;
                }
                let total = good + bad;
                if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / budget
                }
            };
            let burn_fast_short = burn_over(spec.windows.fast_short);
            let burn_fast_long = burn_over(spec.windows.fast_long);
            let burn_slow = burn_over(spec.windows.slow);
            // Page when both fast windows corroborate, or the slow
            // window shows a sustained burn.
            let firing = (burn_fast_short >= spec.windows.fast_burn
                && burn_fast_long >= spec.windows.fast_burn)
                || burn_slow >= spec.windows.slow_burn;
            let edge = firing != s.firing;
            s.firing = firing;
            if let Some(ins) = self.inner.instruments.get(&spec.name) {
                ins.burn_fast_short.set(burn_fast_short);
                ins.burn_fast_long.set(burn_fast_long);
                ins.burn_slow.set(burn_slow);
                ins.alert.set(if firing { 1.0 } else { 0.0 });
                if edge && firing {
                    ins.alerts_total.inc();
                }
            }
            out.push(SloStatus {
                slo: spec.name.clone(),
                burn_fast_short,
                burn_fast_long,
                burn_slow,
                firing,
                edge,
            });
        }
        out
    }

    /// True while `name`'s alert fires.
    pub fn alert_active(&self, name: &str) -> bool {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|s| s.firing)
            .unwrap_or(false)
    }

    /// The first firing SLO's name, if any — the rollout-gate primitive.
    pub fn any_alert(&self) -> Option<String> {
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        self.inner
            .specs
            .iter()
            .find(|spec| state.get(&spec.name).map(|s| s.firing).unwrap_or(false))
            .map(|spec| spec.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(objective: f64) -> (SloEngine, Telemetry) {
        let t = Telemetry::new();
        let spec = SloSpec::new(
            "predict_latency",
            objective,
            SloSource::ErrorRatio {
                total: "req".into(),
                bad: "bad".into(),
            },
        );
        (SloEngine::new(vec![spec], &t), t)
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let (e, _t) = engine(0.99);
        for i in 0..100 {
            e.observe_delta("predict_latency", 1000, 5, i as f64 * 60.0);
        }
        let st = &e.evaluate(6000.0)[0];
        assert!(!st.firing, "{st:?}");
        assert!(st.burn_fast_short < 1.0);
    }

    #[test]
    fn fast_pair_fires_edge_triggered_and_clears() {
        let (e, t) = engine(0.99);
        // 50% bad for an hour: burn 50x the 1% budget in both windows.
        for i in 0..60 {
            e.observe_delta("predict_latency", 50, 50, i as f64 * 60.0);
        }
        let st = &e.evaluate(3600.0)[0];
        assert!(st.firing && st.edge, "{st:?}");
        assert!(st.burn_fast_short > 14.4 && st.burn_fast_long > 14.4);
        assert!(e.alert_active("predict_latency"));
        assert_eq!(e.any_alert().as_deref(), Some("predict_latency"));
        assert!(t
            .prometheus()
            .contains("slo_alert{slo=\"predict_latency\"} 1"));
        // Still firing next round, but no new edge.
        let st = &e.evaluate(3660.0)[0];
        assert!(st.firing && !st.edge);
        // Seven clean hours later everything aged out: clears on an edge.
        let clear_t = 3600.0 + 7.0 * 3600.0;
        e.observe_delta("predict_latency", 100, 0, clear_t - 10.0);
        let st = &e.evaluate(clear_t)[0];
        assert!(!st.firing && st.edge, "{st:?}");
        assert!(e.any_alert().is_none());
        // slo_alert gauge followed, and exactly one alert was counted.
        let prom = t.prometheus();
        assert!(
            prom.contains("slo_alert{slo=\"predict_latency\"} 0"),
            "{prom}"
        );
        assert!(
            prom.contains("slo_alerts_total{slo=\"predict_latency\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn short_blip_does_not_page_without_long_window_corroboration() {
        let (e, _t) = engine(0.99);
        // 55 clean minutes, then 5 awful ones: the 5m window burns hot
        // but the 1h window stays under threshold -> no page.
        for i in 0..55 {
            e.observe_delta("predict_latency", 1000, 0, i as f64 * 60.0);
        }
        for i in 55..60 {
            e.observe_delta("predict_latency", 50, 50, i as f64 * 60.0);
        }
        let st = &e.evaluate(3600.0)[0];
        assert!(st.burn_fast_short >= 14.4, "{st:?}");
        assert!(st.burn_fast_long < 14.4, "{st:?}");
        assert!(!st.firing);
    }

    #[test]
    fn counter_totals_diff_and_survive_resets() {
        let (e, _t) = engine(0.9);
        e.observe_totals("predict_latency", 100, 0, 0.0);
        e.observe_totals("predict_latency", 150, 50, 60.0); // +50 good +50 bad
        let st = &e.evaluate(60.0)[0];
        assert!(st.burn_fast_short > 0.0);
        // A restart drops totals to near zero: baseline resets, no
        // underflow, no phantom burn.
        e.observe_totals("predict_latency", 3, 0, 120.0);
        e.observe_totals("predict_latency", 10, 0, 180.0);
        let st = &e.evaluate(7.0 * 3600.0 + 180.0)[0];
        assert_eq!(st.burn_fast_short, 0.0);
    }
}
