//! Model-quality drift monitors for the online loop.
//!
//! PRIONN retrains every hundred submissions on the five hundred most
//! recent completed jobs, so prediction quality is a *moving* quantity: a
//! workload shift shows up first as decaying relativeAccuracy, long before
//! any latency metric notices. A [`DriftMonitor`] watches completed jobs as
//! they arrive (truth vs. the prediction served at submission) and keeps,
//! per prediction head:
//!
//! * **rolling relativeAccuracy** (paper Equation 1,
//!   `1 − |true − pred| / (max(true, pred) + ε)`) over a bounded window —
//!   exported as the `drift_relative_accuracy{head=...}` gauge;
//! * **per-bin calibration error** — the window is partitioned into bins by
//!   the true value's magnitude, and the count-weighted mean of each bin's
//!   relative bias `|mean_pred − mean_true| / max(mean_true, mean_pred)`
//!   becomes `drift_calibration_error{head=...}` (set when a scrape asks,
//!   [`DriftMonitor::refresh_gauges`]). A model can hold a good
//!   *average* accuracy while systematically over-predicting short jobs and
//!   under-predicting long ones; binning catches exactly that;
//! * **weight-epoch staleness** — seconds since the serving weights last
//!   changed (`drift_weight_staleness_seconds`), the "has the online loop
//!   stalled" alarm.
//!
//! Crossing the accuracy threshold downward bumps `drift_alerts_total`;
//! crossing back up re-arms the alert. Alerts are edge-triggered, so the
//! counter reads the number of times the model fell below threshold, not
//! the number of samples it spent there.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use prionn_telemetry::{Counter, Gauge, Telemetry};

/// Which prediction head a sample belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftHead {
    /// Job runtime (minutes).
    Runtime,
    /// IO read volume.
    Read,
    /// IO write volume.
    Write,
}

impl DriftHead {
    /// The metric label for this head.
    pub fn label(self) -> &'static str {
        match self {
            DriftHead::Runtime => "runtime",
            DriftHead::Read => "read",
            DriftHead::Write => "write",
        }
    }

    fn index(self) -> usize {
        match self {
            DriftHead::Runtime => 0,
            DriftHead::Read => 1,
            DriftHead::Write => 2,
        }
    }
}

const HEADS: [DriftHead; 3] = [DriftHead::Runtime, DriftHead::Read, DriftHead::Write];

/// One (truth, prediction) pair from a head's rolling window, exposed so
/// the conformal calibrator in `prionn-revise` can reuse the monitor's
/// window instead of maintaining a duplicate one.
#[derive(Clone, Copy, Debug)]
pub struct OutcomeSample {
    /// Observed true value (minutes for the runtime head, bytes/s for IO).
    pub truth: f64,
    /// The prediction that was served for this job.
    pub predicted: f64,
    /// Calibration bin the truth fell into.
    pub bin: usize,
}

/// A head's window change since a given sample count, from
/// [`DriftMonitor::outcomes_since`].
#[derive(Clone, Debug)]
pub struct OutcomeDelta {
    /// Samples ever recorded into the head.
    pub samples: u64,
    /// Samples the window holds now.
    pub window_len: usize,
    /// Samples newer than the given count still in the window, oldest
    /// first: the last `min(samples − seen, window_len)` of it.
    pub fresh: Vec<OutcomeSample>,
}

/// Drift-monitor tuning.
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Rolling window length per head (completed jobs).
    pub window: usize,
    /// Samples required in a head's window before alerts can fire.
    pub min_samples: usize,
    /// Rolling relativeAccuracy below this counts a `drift_alerts_total`
    /// edge.
    pub accuracy_threshold: f64,
    /// Calibration bins per head.
    pub bins: usize,
    /// Upper edge for runtime binning (values clamp into the last bin).
    pub runtime_bin_max: f64,
    /// Upper edge for IO-head binning.
    pub io_bin_max: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 256,
            min_samples: 16,
            accuracy_threshold: 0.5,
            bins: 8,
            // The paper's runtime range: Cab jobs up to 16 hours.
            runtime_bin_max: 960.0,
            io_bin_max: 10_000.0,
        }
    }
}

/// Paper Equation 1, duplicated from `prionn-core` (this crate sits below
/// `core` in the dependency graph).
fn relative_accuracy(truth: f64, pred: f64) -> f64 {
    let denom = truth.max(pred) + f64::EPSILON;
    1.0 - (truth - pred).abs() / denom
}

#[derive(Clone, Copy, Default)]
struct BinStats {
    count: u64,
    sum_truth: f64,
    sum_pred: f64,
}

struct HeadState {
    /// (accuracy, (truth, predicted), bin) — enough to undo a sample when
    /// it slides out of the window.
    window: std::collections::VecDeque<(f64, (f64, f64), usize)>,
    sum_acc: f64,
    bins: Vec<BinStats>,
    alerting: bool,
    samples: u64,
    acc_gauge: Gauge,
    calib_gauge: Gauge,
    sample_counter: Counter,
    alert_counter: Counter,
}

struct DriftInner {
    cfg: DriftConfig,
    heads: [Mutex<HeadState>; 3],
    staleness: Gauge,
    weight_updates: Counter,
    last_weight_update: Mutex<Instant>,
}

/// Rolling model-quality monitor. Cloning shares state; all methods take
/// `&self` and are thread-safe.
#[derive(Clone)]
pub struct DriftMonitor {
    inner: Arc<DriftInner>,
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftMonitor").finish()
    }
}

impl DriftMonitor {
    /// Build a monitor registering its gauges/counters in `telemetry`.
    pub fn new(telemetry: &Telemetry, cfg: DriftConfig) -> Self {
        let head_state = |h: DriftHead| {
            let l = [("head", h.label())];
            Mutex::new(HeadState {
                window: std::collections::VecDeque::with_capacity(cfg.window.max(1)),
                sum_acc: 0.0,
                bins: vec![BinStats::default(); cfg.bins.max(1)],
                alerting: false,
                samples: 0,
                acc_gauge: telemetry.gauge_with(
                    "drift_relative_accuracy",
                    "Rolling-window relativeAccuracy (paper Eq. 1) per prediction head",
                    &l,
                ),
                calib_gauge: telemetry.gauge_with(
                    "drift_calibration_error",
                    "Count-weighted per-bin relative bias over the rolling window",
                    &l,
                ),
                sample_counter: telemetry.counter_with(
                    "drift_samples_total",
                    "Completed jobs folded into the drift monitor",
                    &l,
                ),
                alert_counter: telemetry.counter_with(
                    "drift_alerts_total",
                    "Rolling accuracy fell below the alert threshold",
                    &l,
                ),
            })
        };
        DriftMonitor {
            inner: Arc::new(DriftInner {
                staleness: telemetry.gauge(
                    "drift_weight_staleness_seconds",
                    "Seconds since serving weights last changed",
                ),
                weight_updates: telemetry.counter(
                    "drift_weight_updates_total",
                    "Weight publishes observed by the drift monitor",
                ),
                heads: [
                    head_state(DriftHead::Runtime),
                    head_state(DriftHead::Read),
                    head_state(DriftHead::Write),
                ],
                last_weight_update: Mutex::new(Instant::now()),
                cfg,
            }),
        }
    }

    /// Monitor with default tuning.
    pub fn with_defaults(telemetry: &Telemetry) -> Self {
        Self::new(telemetry, DriftConfig::default())
    }

    fn bin_of(&self, head: DriftHead, truth: f64) -> usize {
        let max = match head {
            DriftHead::Runtime => self.inner.cfg.runtime_bin_max,
            _ => self.inner.cfg.io_bin_max,
        };
        let bins = self.inner.cfg.bins.max(1);
        if !truth.is_finite() || truth <= 0.0 || max <= 0.0 {
            return 0;
        }
        (((truth / max) * bins as f64) as usize).min(bins - 1)
    }

    /// Fold one observed job (truth vs. the prediction that was served
    /// for it) into `head`'s window, updating the accuracy gauge and, on a
    /// downward threshold crossing, `drift_alerts_total`. Killed and
    /// requeued jobs enter the window like completed ones (truth is
    /// whatever was observed at termination), so the statistics downstream
    /// — drift gauges and conformal calibration — are not
    /// survivorship-biased toward jobs the kill policy spared.
    pub fn record(&self, head: DriftHead, truth: f64, predicted: f64) {
        if !truth.is_finite() || !predicted.is_finite() {
            return;
        }
        let acc = relative_accuracy(truth, predicted);
        let bin = self.bin_of(head, truth);
        let cfg = &self.inner.cfg;
        let mut s = lock(&self.inner.heads[head.index()]);
        if s.window.len() >= cfg.window.max(1) {
            if let Some((old_acc, old_truth_pred, old_bin)) = s.window.pop_front() {
                s.sum_acc -= old_acc;
                let b = &mut s.bins[old_bin];
                b.count -= 1;
                b.sum_truth -= old_truth_pred.0;
                b.sum_pred -= old_truth_pred.1;
            }
        }
        s.window.push_back((acc, (truth, predicted), bin));
        s.sum_acc += acc;
        {
            let b = &mut s.bins[bin];
            b.count += 1;
            b.sum_truth += truth;
            b.sum_pred += predicted;
        }
        s.samples += 1;
        s.sample_counter.inc();

        let rolling = s.sum_acc / s.window.len() as f64;
        s.acc_gauge.set(rolling);

        if s.window.len() >= cfg.min_samples.max(1) {
            if rolling < cfg.accuracy_threshold && !s.alerting {
                s.alerting = true;
                s.alert_counter.inc();
            } else if rolling >= cfg.accuracy_threshold && s.alerting {
                s.alerting = false;
            }
        }
        drop(s);
        self.refresh_staleness();
    }

    /// Note a weight publish (retrain / hot-swap): resets the staleness
    /// clock and bumps `drift_weight_updates_total`.
    pub fn mark_weight_update(&self) {
        *lock(&self.inner.last_weight_update) = Instant::now();
        self.inner.weight_updates.inc();
        self.inner.staleness.set(0.0);
    }

    /// Recompute and return weight staleness in seconds.
    pub fn refresh_staleness(&self) -> f64 {
        let secs = lock(&self.inner.last_weight_update).elapsed().as_secs_f64();
        self.inner.staleness.set(secs);
        secs
    }

    /// Set the gauges that are pull snapshots: weight staleness and each
    /// head's calibration error, which a record leaves alone so that it
    /// costs the same whatever the bin count. Scrape paths call this
    /// before export.
    pub fn refresh_gauges(&self) {
        for head in &self.inner.heads {
            let s = lock(head);
            s.calib_gauge.set(calibration_error(&s.bins));
        }
        self.refresh_staleness();
    }

    /// Copy of `head`'s rolling outcome window, oldest first — one window,
    /// maintained here, consumed by the split-conformal calibrator (which
    /// follows it through [`outcomes_since`](Self::outcomes_since)).
    pub fn outcome_window(&self, head: DriftHead) -> Vec<OutcomeSample> {
        let s = lock(&self.inner.heads[head.index()]);
        s.window.iter().map(outcome_sample).collect()
    }

    /// What `head`'s window gained since it had recorded `seen` samples:
    /// the samples recorded so far, the window's length, and the samples
    /// newer than `seen` that are still in the window, oldest first. Copies
    /// nothing when no sample is newer.
    pub fn outcomes_since(&self, head: DriftHead, seen: u64) -> OutcomeDelta {
        let s = lock(&self.inner.heads[head.index()]);
        let window_len = s.window.len();
        let newer = s.samples.saturating_sub(seen).min(window_len as u64) as usize;
        OutcomeDelta {
            samples: s.samples,
            window_len,
            fresh: s
                .window
                .range(window_len - newer..)
                .map(outcome_sample)
                .collect(),
        }
    }

    /// Point-in-time readout of every head plus the staleness clock.
    pub fn snapshot(&self) -> DriftSnapshot {
        let heads = HEADS
            .iter()
            .map(|&h| {
                let s = lock(&self.inner.heads[h.index()]);
                let n = s.window.len();
                HeadSnapshot {
                    head: h.label(),
                    samples: s.samples,
                    window_len: n,
                    relative_accuracy: if n == 0 { 1.0 } else { s.sum_acc / n as f64 },
                    calibration_error: calibration_error(&s.bins),
                    alerting: s.alerting,
                }
            })
            .collect();
        DriftSnapshot {
            heads,
            staleness_seconds: self.refresh_staleness(),
            weight_updates: self.inner.weight_updates.value(),
        }
    }
}

fn outcome_sample(&(_, (truth, predicted), bin): &(f64, (f64, f64), usize)) -> OutcomeSample {
    OutcomeSample {
        truth,
        predicted,
        bin,
    }
}

fn calibration_error(bins: &[BinStats]) -> f64 {
    let total: u64 = bins.iter().map(|b| b.count).sum();
    if total == 0 {
        return 0.0;
    }
    bins.iter()
        .filter(|b| b.count > 0)
        .map(|b| {
            let mean_t = b.sum_truth / b.count as f64;
            let mean_p = b.sum_pred / b.count as f64;
            let bias = (mean_t - mean_p).abs() / (mean_t.max(mean_p) + f64::EPSILON);
            bias * (b.count as f64 / total as f64)
        })
        .sum()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One head's readout in a [`DriftSnapshot`].
#[derive(Clone, Debug)]
pub struct HeadSnapshot {
    /// Head label (`runtime` / `read` / `write`).
    pub head: &'static str,
    /// Samples ever folded into this head.
    pub samples: u64,
    /// Samples currently in the rolling window.
    pub window_len: usize,
    /// Rolling-window mean relativeAccuracy (1.0 when empty).
    pub relative_accuracy: f64,
    /// Count-weighted per-bin relative bias.
    pub calibration_error: f64,
    /// True while below the alert threshold.
    pub alerting: bool,
}

/// Point-in-time drift readout from [`DriftMonitor::snapshot`].
#[derive(Clone, Debug)]
pub struct DriftSnapshot {
    /// Per-head readouts, `runtime` / `read` / `write` order.
    pub heads: Vec<HeadSnapshot>,
    /// Seconds since the last weight publish.
    pub staleness_seconds: f64,
    /// Weight publishes observed.
    pub weight_updates: u64,
}

impl DriftSnapshot {
    /// Compact single-line rendering for logs and demos.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .heads
            .iter()
            .map(|h| {
                format!(
                    "{}: acc={:.3} calib={:.3} n={}{}",
                    h.head,
                    h.relative_accuracy,
                    h.calibration_error,
                    h.window_len,
                    if h.alerting { " ALERT" } else { "" }
                )
            })
            .collect();
        parts.push(format!(
            "weights: {} updates, stale {:.1}s",
            self.weight_updates, self.staleness_seconds
        ));
        parts.join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_score_one() {
        let t = Telemetry::new();
        let d = DriftMonitor::with_defaults(&t);
        for i in 0..32 {
            d.record(DriftHead::Runtime, 10.0 + i as f64, 10.0 + i as f64);
        }
        let snap = d.snapshot();
        let rt = &snap.heads[0];
        assert!((rt.relative_accuracy - 1.0).abs() < 1e-9);
        assert!(rt.calibration_error < 1e-9);
        assert!(!rt.alerting);
    }

    #[test]
    fn window_slides_and_recovers() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 8,
                min_samples: 4,
                ..DriftConfig::default()
            },
        );
        // Fill the window with terrible predictions, then good ones: the
        // rolling mean must fully recover once the bad samples age out.
        for _ in 0..8 {
            d.record(DriftHead::Read, 100.0, 0.0);
        }
        assert!(d.snapshot().heads[1].alerting);
        for _ in 0..8 {
            d.record(DriftHead::Read, 100.0, 100.0);
        }
        let snap = d.snapshot();
        assert!((snap.heads[1].relative_accuracy - 1.0).abs() < 1e-9);
        assert!(!snap.heads[1].alerting);
        assert_eq!(snap.heads[1].window_len, 8);
    }

    #[test]
    fn alerts_are_edge_triggered_and_counted() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 16,
                min_samples: 2,
                accuracy_threshold: 0.9,
                ..DriftConfig::default()
            },
        );
        let alerts = |n: u64| {
            let want = format!("drift_alerts_total{{head=\"runtime\"}} {n}");
            let text = t.prometheus();
            assert!(text.contains(&want), "want `{want}` in:\n{text}");
            assert!(text.contains("drift_alerts_total{head=\"read\"} 0"));
        };
        for _ in 0..6 {
            d.record(DriftHead::Runtime, 100.0, 10.0);
        }
        assert!(d.snapshot().heads[0].alerting);
        alerts(1); // once, not per sample
        for _ in 0..60 {
            d.record(DriftHead::Runtime, 100.0, 100.0);
        }
        assert!(!d.snapshot().heads[0].alerting, "recovered");
        alerts(1);
        for _ in 0..16 {
            d.record(DriftHead::Runtime, 100.0, 10.0);
        }
        assert!(d.snapshot().heads[0].alerting);
        alerts(2); // the recovery re-armed the edge
    }

    #[test]
    fn calibration_catches_systematic_per_bin_bias() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 64,
                bins: 4,
                runtime_bin_max: 100.0,
                ..DriftConfig::default()
            },
        );
        // Short jobs over-predicted 2x, long jobs under-predicted 2x: mean
        // accuracy is mediocre-but-flat, calibration error is large.
        for _ in 0..16 {
            d.record(DriftHead::Runtime, 10.0, 20.0);
            d.record(DriftHead::Runtime, 90.0, 45.0);
        }
        let snap = d.snapshot();
        assert!(
            snap.heads[0].calibration_error > 0.4,
            "calib={}",
            snap.heads[0].calibration_error
        );
    }

    #[test]
    fn calibration_error_is_the_bins_value_whenever_it_is_read() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 16,
                runtime_bin_max: 100.0,
                io_bin_max: 100.0,
                ..DriftConfig::default()
            },
        );
        let opts = crate::ops::OpsOptions {
            telemetry: Some(t.clone()),
            drift: Some(d.clone()),
            ..Default::default()
        };
        let gauge = |body: &str, head: &str| -> f64 {
            let series = format!("drift_calibration_error{{head=\"{head}\"}} ");
            let line = body.lines().find(|l| l.starts_with(&series)).unwrap();
            line[series.len()..].parse().unwrap()
        };
        // Enough samples that the window slides and bins empty again.
        for i in 0..40u32 {
            let truth = f64::from(i * 7 % 97) + 1.0;
            d.record(
                DriftHead::Runtime,
                truth,
                truth * (1.0 + f64::from(i % 5) / 4.0),
            );
            d.record(DriftHead::Read, truth, truth / 2.0);
            if i % 9 == 0 {
                let want = HEADS.map(|h| calibration_error(&lock(&d.inner.heads[h.index()]).bins));
                let snap = d.snapshot();
                let (_, _, body) = crate::ops::route("/metrics", None, &opts);
                for (h, want) in HEADS.iter().zip(want) {
                    let read = snap.heads[h.index()].calibration_error;
                    assert_eq!(read.to_bits(), want.to_bits(), "snapshot {h:?} at {i}");
                    let scraped = gauge(&body, h.label());
                    assert_eq!(scraped.to_bits(), want.to_bits(), "/metrics {h:?} at {i}");
                }
            }
        }
    }

    #[test]
    fn staleness_tracks_weight_updates() {
        let t = Telemetry::new();
        let d = DriftMonitor::with_defaults(&t);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(d.refresh_staleness() >= 0.01);
        d.mark_weight_update();
        assert!(d.refresh_staleness() < 0.01);
        assert_eq!(d.snapshot().weight_updates, 1);
    }

    #[test]
    fn outcome_window_exposes_truth_and_prediction_pairs() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 4,
                ..DriftConfig::default()
            },
        );
        for i in 0..6u32 {
            d.record(DriftHead::Runtime, 10.0 * f64::from(i), 5.0 * f64::from(i));
        }
        let w = d.outcome_window(DriftHead::Runtime);
        assert_eq!(w.len(), 4, "window is bounded");
        // Oldest-first: samples 2..6 survive the slide.
        assert_eq!(w[0].truth, 20.0);
        assert_eq!(w[0].predicted, 10.0);
        assert_eq!(w[3].truth, 50.0);
        assert!(d.outcome_window(DriftHead::Read).is_empty());
    }

    #[test]
    fn outcomes_since_returns_the_fresh_tail_of_the_window() {
        let t = Telemetry::new();
        let d = DriftMonitor::new(
            &t,
            DriftConfig {
                window: 4,
                ..DriftConfig::default()
            },
        );
        for i in 0..3u32 {
            d.record(DriftHead::Runtime, f64::from(i), 1.0);
        }
        let delta = d.outcomes_since(DriftHead::Runtime, 1);
        assert_eq!((delta.samples, delta.window_len), (3, 3));
        let truths: Vec<f64> = delta.fresh.iter().map(|s| s.truth).collect();
        assert_eq!(truths, [1.0, 2.0]);
        let idle = d.outcomes_since(DriftHead::Runtime, 3);
        assert!(idle.fresh.is_empty());
        assert_eq!(idle.fresh.capacity(), 0, "nothing newer, nothing copied");
        // Six more: more arrived than the window holds, so the whole
        // window is fresh.
        for i in 3..9u32 {
            d.record(DriftHead::Runtime, f64::from(i), 1.0);
        }
        let burst = d.outcomes_since(DriftHead::Runtime, 3);
        assert_eq!((burst.samples, burst.window_len), (9, 4));
        let truths: Vec<f64> = burst.fresh.iter().map(|s| s.truth).collect();
        assert_eq!(truths, [5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn killed_outcomes_enter_the_window_and_are_counted() {
        let t = Telemetry::new();
        let d = DriftMonitor::with_defaults(&t);
        d.record(DriftHead::Runtime, 30.0, 30.0);
        // Truth observed at a kill or a requeue: far past the prediction.
        d.record(DriftHead::Runtime, 120.0, 20.0);
        d.record(DriftHead::Runtime, 90.0, 15.0);
        assert_eq!(
            d.outcome_window(DriftHead::Runtime).len(),
            3,
            "killed/requeued samples share the window with completed ones"
        );
        assert!(t
            .prometheus()
            .contains("drift_samples_total{head=\"runtime\"} 3"));
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let t = Telemetry::new();
        let d = DriftMonitor::with_defaults(&t);
        d.record(DriftHead::Write, f64::NAN, 1.0);
        d.record(DriftHead::Write, 1.0, f64::INFINITY);
        assert_eq!(d.snapshot().heads[2].window_len, 0);
    }
}
