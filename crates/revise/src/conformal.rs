//! Split-conformal prediction intervals over the drift monitor's window.
//!
//! The calibration set is the rolling outcome window `prionn-observe`'s
//! [`DriftMonitor`] already maintains per
//! prediction head: recent `(truth, predicted)` pairs, killed and requeued
//! jobs included. Each pair yields a *nonconformity score* — the
//! multiplicative residual
//!
//! ```text
//! s = truth / max(predicted, ε)
//! ```
//!
//! — and split-conformal inference turns the empirical score distribution
//! into a calibrated interval for a new point prediction `p`:
//!
//! ```text
//! [p · q̂(α/2),  p · q̂(1 − α/2)]      with α = 1 − coverage
//! ```
//!
//! where `q̂(β)` is the conformal quantile at level `β` over the `n`
//! calibration scores (rank `⌈(n+1)β⌉`, clamped to the sample — the
//! finite-sample correction that makes marginal coverage ≥ nominal hold
//! under exchangeability). Ratios rather than additive residuals because
//! both runtime and IO span four-plus orders of magnitude in the paper's
//! workload: an additive band wide enough for 16-hour jobs would be
//! useless for 5-minute ones.
//!
//! The engine's calibrator *follows* the window
//! ([`ConformalCalibrator::follow`]): each outcome recorded since the last
//! tick goes into the sorted scores by binary search, each one that slid
//! out of the window comes out the same way, and a tick with no new
//! outcome costs one lock and a comparison. The quantiles depend only on
//! the multiset of scores, so a followed calibrator answers bit for bit
//! what [`ConformalCalibrator::from_window`] over the same window would.
//!
//! Two properties the property tests pin:
//! * **coverage** — on held-out outcomes drawn from the same distribution,
//!   the fraction of truths inside the interval is within a few percent of
//!   nominal at 80/90/95%;
//! * **monotonicity** — raising the coverage level never narrows the
//!   interval (immediate from the quantile ranks moving outward).

use std::collections::VecDeque;

use prionn_observe::{DriftHead, DriftMonitor, OutcomeSample};

/// Floor for the prediction in the score denominator (and for interval
/// arithmetic), so a zero prediction cannot produce infinite scores.
pub const SCORE_EPSILON: f64 = 1e-9;

/// A calibrated `[lo, point, hi]` prediction. `point` is the model's
/// (possibly revised) point estimate; `lo`/`hi` bound the truth at the
/// calibrator's coverage level. For a systematically biased model the
/// point can sit outside `[lo, hi]` — the interval calibrates where the
/// *truth* lands, not where the model thinks it does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictionInterval {
    /// Lower bound (optimistic: backfill fit-checks against this).
    pub lo: f64,
    /// The point estimate itself.
    pub point: f64,
    /// Upper bound (pessimistic: reservations hold space until this).
    pub hi: f64,
}

impl PredictionInterval {
    /// The zero-width interval around `point` — what an uncalibrated
    /// engine serves until it has seen enough outcomes.
    pub fn degenerate(point: f64) -> Self {
        PredictionInterval {
            lo: point,
            point,
            hi: point,
        }
    }

    /// The interval around `point` from conformal score quantiles
    /// `(q_lo, q_hi)` ([`ConformalCalibrator::quantiles`]):
    /// `[p · q_lo, p · q_hi]` with `p` floored at [`SCORE_EPSILON`];
    /// degenerate when there are none. Take the quantiles once to wrap
    /// many points at one coverage.
    pub(crate) fn from_quantiles(point: f64, quantiles: Option<(f64, f64)>) -> Self {
        match quantiles {
            Some((q_lo, q_hi)) => {
                let base = point.max(SCORE_EPSILON);
                PredictionInterval {
                    lo: base * q_lo,
                    point,
                    hi: base * q_hi,
                }
            }
            None => PredictionInterval::degenerate(point),
        }
    }

    /// Does the interval cover `truth`?
    pub fn contains(&self, truth: f64) -> bool {
        self.lo <= truth && truth <= self.hi
    }

    /// `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// The raw nonconformity score of one outcome.
fn score(s: &OutcomeSample) -> f64 {
    s.truth / s.predicted.max(SCORE_EPSILON)
}

/// Scores that calibrate: finite and positive.
fn usable(score: f64) -> bool {
    score.is_finite() && score > 0.0
}

fn sort_scores(scores: &mut [f64]) {
    scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
}

/// Split-conformal calibrator for one prediction head: a sorted sample of
/// nonconformity scores and the quantile machinery over it. Build one
/// from a score sample or a window, or keep one up to date with a drift
/// monitor's window through [`follow`](Self::follow).
#[derive(Clone, Debug, Default)]
pub struct ConformalCalibrator {
    /// Ascending nonconformity scores.
    scores: Vec<f64>,
    /// The followed window's scores in arrival order, `None` where the
    /// sample's score did not calibrate (empty unless following).
    arrivals: VecDeque<Option<f64>>,
    /// The followed head's sample count at the last `follow`.
    seen: u64,
}

impl ConformalCalibrator {
    /// Calibrator over raw `truth / max(pred, ε)` scores. Non-finite and
    /// non-positive entries are dropped.
    pub fn from_scores(mut scores: Vec<f64>) -> Self {
        scores.retain(|&s| usable(s));
        sort_scores(&mut scores);
        ConformalCalibrator {
            scores,
            ..ConformalCalibrator::default()
        }
    }

    /// Calibrator over a drift-monitor outcome window
    /// (`DriftMonitor::outcome_window(head)`): the reference a followed
    /// calibrator answers the same as.
    pub fn from_window(window: &[OutcomeSample]) -> Self {
        Self::from_scores(window.iter().map(score).collect())
    }

    /// Bring the calibrator up to date with `head`'s window on `drift`:
    /// the outcomes recorded since the last call go in by binary search,
    /// the ones the window evicted come out the same way, and when more
    /// arrived than the window holds the scores are rebuilt from it. No
    /// new outcome, no work. A calibrator follows one monitor; start from
    /// `ConformalCalibrator::default()` to follow another.
    pub fn follow(&mut self, drift: &DriftMonitor, head: DriftHead) {
        let delta = drift.outcomes_since(head, self.seen);
        let arrived = delta.samples.saturating_sub(self.seen);
        if arrived == 0 {
            return;
        }
        self.seen = delta.samples;
        let fresh = delta
            .fresh
            .iter()
            .map(|s| Some(score(s)).filter(|&v| usable(v)));
        if arrived >= delta.window_len as u64 {
            self.arrivals.clear();
            self.arrivals.extend(fresh);
            self.scores.clear();
            self.scores.extend(self.arrivals.iter().flatten());
            sort_scores(&mut self.scores);
            return;
        }
        for v in fresh {
            if let Some(v) = v {
                let at = self.scores.partition_point(|&x| x < v);
                self.scores.insert(at, v);
            }
            self.arrivals.push_back(v);
        }
        while self.arrivals.len() > delta.window_len {
            if let Some(Some(v)) = self.arrivals.pop_front() {
                let at = self.scores.partition_point(|&x| x < v);
                debug_assert_eq!(self.scores[at], v, "evicted score was calibrating");
                self.scores.remove(at);
            }
        }
    }

    /// Calibration-sample count.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no usable scores were supplied.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The conformal `(q_lo, q_hi)` score quantiles at `coverage`
    /// (e.g. `0.9` → the 5% and 95% conformal quantiles), or `None` when
    /// uncalibrated. Ranks use the `(n+1)` finite-sample correction and
    /// clamp to the observed sample, so `q_hi` saturates at the largest
    /// score once coverage exceeds `n/(n+1)`.
    pub fn quantiles(&self, coverage: f64) -> Option<(f64, f64)> {
        let n = self.scores.len();
        if n == 0 {
            return None;
        }
        let alpha = (1.0 - coverage.clamp(0.0, 1.0)).clamp(0.0, 1.0);
        let np1 = (n + 1) as f64;
        // Lower tail: rank ⌊(n+1)·α/2⌋, at least 1 (the smallest score).
        let r_lo = ((np1 * (alpha / 2.0)).floor() as usize).clamp(1, n);
        // Upper tail: rank ⌈(n+1)·(1−α/2)⌉, at most n.
        let r_hi = ((np1 * (1.0 - alpha / 2.0)).ceil() as usize).clamp(1, n);
        Some((self.scores[r_lo - 1], self.scores[r_hi - 1]))
    }

    /// The calibrated interval around `point` at `coverage`; degenerate
    /// when uncalibrated.
    pub fn interval(&self, point: f64, coverage: f64) -> PredictionInterval {
        PredictionInterval::from_quantiles(point, self.quantiles(coverage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_until_calibrated() {
        let c = ConformalCalibrator::default();
        assert!(c.is_empty());
        let iv = c.interval(10.0, 0.9);
        assert_eq!(iv, PredictionInterval::degenerate(10.0));
        assert_eq!(iv.width(), 0.0);
        assert!(iv.contains(10.0));
    }

    #[test]
    fn perfect_model_gives_tight_intervals() {
        // All scores exactly 1: the interval collapses onto the point.
        let c = ConformalCalibrator::from_scores(vec![1.0; 100]);
        let iv = c.interval(42.0, 0.9);
        assert!((iv.lo - 42.0).abs() < 1e-9);
        assert!((iv.hi - 42.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_ranks_bracket_the_sample() {
        // Scores 0.01..=1.00 in hundredths: conformal 5%/95% quantiles of
        // 100 samples land at ranks ⌊101·0.05⌋=5 and ⌈101·0.95⌉=96.
        let scores: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let c = ConformalCalibrator::from_scores(scores);
        let (q_lo, q_hi) = c.quantiles(0.9).unwrap();
        assert!((q_lo - 0.05).abs() < 1e-9, "q_lo={q_lo}");
        assert!((q_hi - 0.96).abs() < 1e-9, "q_hi={q_hi}");
    }

    #[test]
    fn intervals_widen_monotonically_with_coverage() {
        let scores: Vec<f64> = (1..=500).map(|i| 0.5 + i as f64 / 500.0).collect();
        let c = ConformalCalibrator::from_scores(scores);
        let mut last_width = -1.0;
        for coverage in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let w = c.interval(100.0, coverage).width();
            assert!(
                w >= last_width,
                "width shrank at coverage {coverage}: {w} < {last_width}"
            );
            last_width = w;
        }
    }

    #[test]
    fn biased_model_interval_recentres_on_truth() {
        // Model underpredicts 2×: every score is ~2, so the calibrated
        // interval sits around 2·point — above the point estimate.
        let c = ConformalCalibrator::from_scores(vec![2.0; 64]);
        let iv = c.interval(50.0, 0.8);
        assert!(iv.lo > 50.0, "lo={} should exceed the biased point", iv.lo);
        assert!(iv.contains(100.0), "covers where the truth actually lands");
    }

    #[test]
    fn window_scores_are_truth_over_prediction() {
        let window = vec![
            OutcomeSample {
                truth: 30.0,
                predicted: 10.0,
                bin: 0,
            },
            OutcomeSample {
                truth: 5.0,
                predicted: 10.0,
                bin: 0,
            },
            OutcomeSample {
                truth: f64::NAN,
                predicted: 10.0,
                bin: 0,
            },
        ];
        let c = ConformalCalibrator::from_window(&window);
        assert_eq!(c.len(), 2, "NaN dropped");
        let (q_lo, q_hi) = c.quantiles(0.0).unwrap();
        assert!((q_lo - 0.5).abs() < 1e-9);
        assert!((q_hi - 3.0).abs() < 1e-9);
    }
}
