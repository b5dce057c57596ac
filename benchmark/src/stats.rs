//! The benchmark's own statistics: one percentile, the "ten samples beyond"
//! rule, windows within a run, median of repetitions, inter-quartile spread,
//! and the verdict a comparison gives per (workload, metric).
//!
//! The harness does not borrow `prionn_workload::stats` for this: a change to
//! the repository must not be able to move the yardstick it is judged by.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample ascending (NaN-free by construction: every value is a
/// duration or a ratio of finite numbers).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 100]` of an ascending sample, by linear
/// interpolation between closest ranks. Panics on an empty sample: every
/// caller has already checked that work was done.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The highest percentile not above `wanted` that still has
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`; never below 50.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let highest = 100.0 * (1.0 - MIN_BEYOND as f64 / n as f64);
    wanted.min(highest).max(50.0)
}

/// Tail percentile of one window of latencies, clamped by
/// [`supported_percentile`].
pub fn tail(sorted: &[f64], wanted: f64) -> f64 {
    percentile(sorted, supported_percentile(sorted.len(), wanted))
}

/// Split `(time, value)` samples into `windows` equal spans of `span`
/// seconds; returns each non-empty window's values, sorted.
pub fn windows(samples: &[(f64, f64)], span: f64, windows: usize) -> Vec<Vec<f64>> {
    let width = span / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        buckets[((t / width) as usize).min(windows - 1)].push(v);
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(sorted)
        .collect()
}

/// The best of the per-window values. A run is cut into windows and the best
/// one reported because noise on a shared host only ever slows a window
/// down: a stall or a noisy neighbour spoils the windows it touches, and the
/// best window is the one nearest the uncontended system.
pub fn best(per_window: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    per_window
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one window")
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing a candidate's runs with a baseline's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median moved by no more than the bound.
    Within,
    /// Median is worse by more than the bound.
    Worse,
    /// Median is better by more than the bound.
    Better,
    /// The runs' spread is wider than the bound and the two sets overlap, so
    /// neither "unchanged" nor "changed" can be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against baseline runs `a` of one metric.
/// `bound` is a share of the baseline median.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Signed change, positive = worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(a) <= max(b) && min(b) <= max(a);
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            relative_spread(v)
        } else {
            0.0
        }
    };
    if spread(a).max(spread(b)) > bound && overlap {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it; 999 do not.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert!(supported_percentile(999, 99.0) < 99.0);
        // 200 samples support p95 but not p99, which falls back to p95.
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        // A tiny sample never reports below its median.
        assert_eq!(supported_percentile(12, 99.0), 50.0);
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0), percentile(&s, 95.0));
    }

    #[test]
    fn a_stalled_window_does_not_move_the_best_window() {
        // Five windows of 300 requests at ~1 ms; window 2 absorbs a stall.
        let mut samples = Vec::new();
        for w in 0..5 {
            for i in 0..300 {
                let t = w as f64 * 2.0 + i as f64 * (2.0 / 300.0);
                let v = if w == 2 && i >= 250 {
                    600.0
                } else {
                    1.0 + (i % 7) as f64 * 0.01
                };
                samples.push((t, v));
            }
        }
        let per_window: Vec<f64> = windows(&samples, 10.0, 5)
            .iter()
            .map(|w| tail(w, 95.0))
            .collect();
        assert_eq!(per_window.len(), 5);
        assert!(per_window[2] > 500.0);
        assert!(best(&per_window, Better::Lower) < 1.1);
        assert_eq!(best(&[3.0, 9.0, 4.0], Better::Higher), 9.0);
        let whole = sorted(samples.iter().map(|s| s.1).collect());
        assert!(percentile(&whole, 99.0) > 500.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        let slow = [110.0, 111.0, 109.0, 110.5, 109.5];
        let fast = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.05), Verdict::Within);
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &fast, Better::Lower, 0.05), Verdict::Better);
        // Direction flips the reading of the same numbers.
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.05), Verdict::Better);
        assert_eq!(verdict(&base, &fast, Better::Higher, 0.05), Verdict::Worse);
        // Wide, overlapping runs cannot be called either way...
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 104.0, 125.0, 95.0, 112.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        let far = [200.0, 240.0, 260.0, 210.0, 230.0];
        assert_eq!(verdict(&noisy_a, &far, Better::Lower, 0.05), Verdict::Worse);
    }
}
