//! A calibrator that follows a drift window by sorted insert and evict
//! must answer exactly what a rebuild over the same window answers.
//!
//! Each case drives a seeded stream of `record` calls into a
//! `DriftMonitor` and, after every burst of them, checks the followed
//! calibrator's quantiles against `ConformalCalibrator::from_window` bit
//! for bit. The stream mixes filtered scores (zero truths), ε-floored
//! predictions (zero predictions), repeated scores, bursts longer than the
//! window, and a switch to a second monitor with a different window, on
//! window lengths 1, 256 and one drawn per case.

use prionn_observe::{DriftConfig, DriftHead, DriftMonitor};
use prionn_revise::ConformalCalibrator;
use prionn_telemetry::Telemetry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const HEAD: DriftHead = DriftHead::Runtime;
const COVERAGES: [f64; 3] = [0.8, 0.9, 0.95];

fn monitor(t: &Telemetry, window: usize) -> DriftMonitor {
    DriftMonitor::new(
        t,
        DriftConfig {
            window,
            ..DriftConfig::default()
        },
    )
}

/// One outcome: mostly a noisy ratio, sometimes a zero truth (its score is
/// filtered), a zero prediction (ε floor), or an exact hit (score 1, so
/// equal scores go in and come out).
fn record_one(d: &DriftMonitor, rng: &mut ChaCha8Rng) {
    let predicted = rng.gen_range(1.0..500.0f64);
    let (truth, predicted) = match rng.gen_range(0..10u32) {
        0 => (0.0, predicted),
        1 => (rng.gen_range(1.0..500.0), 0.0),
        2 | 3 => (predicted, predicted),
        _ => (predicted * 2f64.powf(rng.gen_range(-2.0..2.0)), predicted),
    };
    d.record(HEAD, truth, predicted);
}

fn bits(q: Option<(f64, f64)>) -> Option<(u64, u64)> {
    q.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

fn assert_matches_rebuild(cal: &ConformalCalibrator, d: &DriftMonitor, at: &str) {
    let reference = ConformalCalibrator::from_window(&d.outcome_window(HEAD));
    assert_eq!(cal.len(), reference.len(), "{at}: calibration samples");
    for c in COVERAGES {
        assert_eq!(
            bits(cal.quantiles(c)),
            bits(reference.quantiles(c)),
            "{at}: quantiles at coverage {c}"
        );
    }
}

/// Records in bursts — mostly single calls, sometimes up to three windows
/// long — following after each burst.
fn drive(d: &DriftMonitor, cal: &mut ConformalCalibrator, rng: &mut ChaCha8Rng, window: usize) {
    for step in 0..400 {
        let burst = if rng.gen_bool(0.9) {
            1
        } else {
            rng.gen_range(2..=3 * window + 2)
        };
        for _ in 0..burst {
            record_one(d, rng);
        }
        cal.follow(d, HEAD);
        assert_matches_rebuild(cal, d, &format!("window {window}, step {step}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_followed_calibrator_equals_the_rebuild(
        seed in 0u64..u64::MAX,
        drawn_window in 2usize..64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for window in [1, 256, drawn_window] {
            let t = Telemetry::new();
            let first = monitor(&t, window);
            let mut cal = ConformalCalibrator::default();
            cal.follow(&first, HEAD);
            prop_assert!(cal.is_empty(), "an empty window calibrates nothing");
            drive(&first, &mut cal, &mut rng, window);

            // Re-attach: a second monitor with a different window and
            // history of its own, followed by a fresh calibrator.
            let other_window = window % 7 + 3;
            let second = monitor(&t, other_window);
            for _ in 0..rng.gen_range(0..2 * other_window) {
                record_one(&second, &mut rng);
            }
            let mut cal = ConformalCalibrator::default();
            drive(&second, &mut cal, &mut rng, other_window);
        }
    }
}
