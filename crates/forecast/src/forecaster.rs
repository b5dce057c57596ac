//! Holt double-exponential smoothing over the live aggregate.
//!
//! Holt is an *online* model — O(1) state, one `observe` per minute —
//! because the input is the unbounded stream the [`crate::IoAggregator`]
//! produces as simulated time advances, not a fixed array. It forecasts
//! `h` minutes ahead; [`forecast_timeline`] turns a historical aggregate
//! into the per-minute forecast series a burst evaluation needs (the
//! demo scores it with [`prionn_sched::burst_metrics`]).

/// Level weight of the Holt the [`crate::ForecastEngine`] runs.
pub const HOLT_ALPHA: f64 = 0.5;
/// Trend weight of the Holt the [`crate::ForecastEngine`] runs.
pub const HOLT_BETA: f64 = 0.3;

/// Holt double-exponential smoothing: level + trend, so a *rising* IO ramp
/// is extrapolated upward instead of lagged — the leading edge of a burst
/// is caught before the level alone reaches it.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    state: Option<(f64, f64)>, // (level, trend)
}

impl Holt {
    /// `alpha` smooths the level, `beta` the trend; both in `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        Holt {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            beta: beta.clamp(f64::EPSILON, 1.0),
            state: None,
        }
    }

    /// Fold in the aggregate observed for the current minute. Non-finite
    /// values are ignored.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.state = Some(match self.state {
            None => (value, 0.0),
            Some((level, trend)) => {
                let new_level = self.alpha * value + (1.0 - self.alpha) * (level + trend);
                let new_trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend;
                (new_level, new_trend)
            }
        });
    }

    /// Forecast the aggregate `steps_ahead` minutes past the last
    /// observation. Before any observation the forecast is `0.0`.
    pub fn forecast(&self, steps_ahead: usize) -> f64 {
        match self.state {
            None => 0.0,
            // Bandwidth cannot go negative: clamp the extrapolation.
            Some((level, trend)) => (level + steps_ahead as f64 * trend).max(0.0),
        }
    }
}

/// Run `holt` over `actual`, emitting the per-minute series of
/// `horizon`-minute-ahead forecasts: `out[t]` is what it said at time
/// `t - horizon` about time `t`. The first `horizon` minutes have no
/// forecast yet and are `0.0` (scored as non-burst — the warm-up window).
pub fn forecast_timeline(mut holt: Holt, actual: &[f64], horizon: usize) -> Vec<f64> {
    let horizon = horizon.max(1);
    let mut out = vec![0.0; actual.len()];
    for (t, &v) in actual.iter().enumerate() {
        holt.observe(v);
        let target = t + horizon;
        if target < out.len() {
            out[target] = holt.forecast(horizon);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holt_extrapolates_a_linear_ramp() {
        let mut f = Holt::new(0.5, 0.5);
        for t in 0..200 {
            f.observe(10.0 * t as f64);
        }
        // On a perfect ramp the h-step forecast continues the ramp.
        let last = 10.0 * 199.0;
        let pred5 = f.forecast(5);
        assert!(
            (pred5 - (last + 50.0)).abs() < 5.0,
            "pred5={pred5} expected ~{}",
            last + 50.0
        );
        // And never goes negative on a falling ramp.
        let mut down = Holt::new(0.5, 0.5);
        for t in 0..50 {
            down.observe(100.0 - 10.0 * t as f64);
        }
        assert_eq!(down.forecast(60), 0.0);
    }

    #[test]
    fn forecast_timeline_aligns_lead_time() {
        // A step at t=5. With both weights 1 the level is the last value
        // and the trend the last difference, so the 2-ahead forecast made
        // at t lands at t+2 as `x[t] + 2·(x[t] − x[t−1])`.
        let actual = [0.0, 0.0, 0.0, 0.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0];
        let pred = forecast_timeline(Holt::new(1.0, 1.0), &actual, 2);
        assert_eq!(pred[..2], [0.0, 0.0], "warm-up window is zero");
        assert_eq!(pred[6], 0.0, "made at t=4, before the step");
        assert_eq!(pred[7], 27.0, "made at t=5, on the step");
        assert_eq!(pred[8], 9.0, "made at t=6, past the step");
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut h = Holt::new(0.5, 0.5);
        h.observe(f64::NAN);
        assert_eq!(h.forecast(1), 0.0);
        h.observe(10.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.forecast(1), 10.0);
    }
}
