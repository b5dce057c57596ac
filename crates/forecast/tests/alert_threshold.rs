//! `BurstAlerter`'s running-sum threshold against its definition.
//!
//! The alerter keeps the mean + 1σ of its trailing window as running sums.
//! This suite feeds it a seeded stream of 120k minutes — noisy stretches
//! with 10⁴× bursts, runs of zero minutes and constant stretches — and
//! holds every minute to a reference alerter that rescans the window with
//! `sched::burst_threshold`: the threshold within 1e-7 relative, and every
//! `Raised` / `Cleared` edge identical.

use std::collections::VecDeque;

use prionn_forecast::{AlertConfig, AlertTransition, BurstAlerter};
use prionn_sched::burst_threshold;
use prionn_telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MINUTES: usize = 120_000;

/// The alerter as it was before running sums: rescan the window each
/// minute, edge on `forecast > threshold` once `min_samples` are in.
struct RescanAlerter {
    cfg: AlertConfig,
    window: VecDeque<f64>,
    alerting: bool,
}

impl RescanAlerter {
    fn observe(&mut self, actual: f64, forecast: f64) -> (f64, Option<AlertTransition>) {
        if self.window.len() >= self.cfg.threshold_window {
            self.window.pop_front();
        }
        self.window.push_back(actual);
        let threshold = burst_threshold(self.window.make_contiguous());
        if self.window.len() < self.cfg.min_samples {
            return (threshold, None);
        }
        let burst = forecast > threshold;
        let edge = match (burst, self.alerting) {
            (true, false) => Some(AlertTransition::Raised),
            (false, true) => Some(AlertTransition::Cleared),
            _ => None,
        };
        self.alerting = burst;
        (threshold, edge)
    }
}

/// `(actual, forecast)` per minute: stretches of 1–600 minutes that are
/// noisy around a level drawn over three decades (1 % of their minutes a
/// 10⁴× burst), all zero, or constant; forecasts scatter 0.3–3× around the
/// stretch's level.
fn stream(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(MINUTES);
    let mut level = 1.0e6;
    while out.len() < MINUTES {
        let len = rng.gen_range(1..=600usize);
        let kind = rng.gen_range(0..4u32);
        if kind != 1 {
            level = 10f64.powf(rng.gen_range(6.0..9.0));
        }
        let constant = level * rng.gen_range(0.5..1.5);
        for _ in 0..len {
            let actual = match kind {
                1 => 0.0,
                2 => constant,
                _ if rng.gen_bool(0.01) => level * 1.0e4,
                _ => level * rng.gen_range(0.5..1.5),
            };
            out.push((actual, level * rng.gen_range(0.3..3.0)));
        }
    }
    out.truncate(MINUTES);
    out
}

#[test]
fn running_sum_threshold_matches_the_rescan_and_edges_identically() {
    let cfg = AlertConfig::default();
    let telemetry = Telemetry::new();
    let mut alerter = BurstAlerter::new(&telemetry, cfg.clone());
    let mut reference = RescanAlerter {
        cfg: cfg.clone(),
        window: VecDeque::new(),
        alerting: false,
    };
    let (mut worst, mut raised, mut cleared) = (0.0f64, 0, 0);
    for (minute, (actual, forecast)) in stream(41).into_iter().enumerate() {
        let edge = alerter.observe(actual, forecast);
        let (threshold, expected) = reference.observe(actual, forecast);
        let got = alerter.threshold();
        let rel = (got - threshold).abs() / threshold.abs().max(f64::MIN_POSITIVE);
        assert!(
            got == threshold || rel <= 1e-7,
            "minute {minute}: running sums read {got:e}, rescan {threshold:e} (rel {rel:e})"
        );
        worst = worst.max(if got == threshold { 0.0 } else { rel });
        assert_eq!(
            edge, expected,
            "minute {minute}: edge differs from the rescan"
        );
        match edge {
            Some(AlertTransition::Raised) => raised += 1,
            Some(AlertTransition::Cleared) => cleared += 1,
            None => {}
        }
    }
    // The stream must exercise the edges, not sit on one side of them.
    assert!(
        raised > 100 && cleared > 100,
        "raised {raised}, cleared {cleared}"
    );
    println!("worst relative threshold error {worst:e}; {raised} raised, {cleared} cleared");
}

#[test]
fn a_window_of_zeros_and_one_of_constants_read_their_value() {
    let cfg = AlertConfig {
        threshold_window: 64,
        min_samples: 1,
    };
    let mut alerter = BurstAlerter::new(&Telemetry::new(), cfg);
    // A burst passes through, then the window fills with zeros.
    alerter.observe(1.0e12, 0.0);
    for _ in 0..64 {
        alerter.observe(0.0, 0.0);
    }
    assert_eq!(alerter.threshold(), 0.0);
    for _ in 0..64 {
        alerter.observe(3.0e8, 0.0);
    }
    let rel = (alerter.threshold() - 3.0e8).abs() / 3.0e8;
    assert!(
        rel <= 1e-7,
        "threshold {} (rel {rel:e})",
        alerter.threshold()
    );
}

#[test]
fn an_overflowing_square_does_not_poison_the_threshold() {
    let cfg = AlertConfig {
        threshold_window: 8,
        min_samples: 1,
    };
    let mut alerter = BurstAlerter::new(&Telemetry::new(), cfg);
    alerter.observe(1.0e200, 0.0);
    for _ in 0..8 {
        alerter.observe(5.0, 0.0);
    }
    assert_eq!(alerter.threshold(), 5.0, "window is all 5.0 again");
}
