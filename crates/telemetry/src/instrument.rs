//! The three instrument kinds: [`Counter`], [`Gauge`], and [`Histogram`].
//!
//! All instruments are cheap cloneable handles over shared atomic state, so
//! a hot path can capture its instruments once and update them without any
//! registry lookup, allocation, or lock. Counters and histograms stripe
//! their state across cache-line-padded shards indexed by a per-thread slot,
//! which keeps concurrent writers off each other's cache lines.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of write shards per instrument. Eight covers the worker-thread
/// counts this workspace ever spawns while keeping snapshot merges trivial.
pub(crate) const SHARDS: usize = 8;

/// A cache-line-padded atomic cell: adjacent shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread claims a stable shard slot on first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn thread_shard() -> usize {
    THREAD_SLOT.with(|s| *s)
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
///
/// Increments go to a thread-striped shard with `Relaxed` ordering — the
/// cost is one uncontended atomic add. Reads merge the shards.
///
/// ```
/// use prionn_telemetry::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.value(), 42);
/// ```
#[derive(Clone, Default)]
pub struct Counter {
    shards: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The merged total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-write-wins `f64` gauge (queue depths, norms, losses).
///
/// Stored as raw `f64` bits in one atomic word; `set` is a plain store, so
/// gauges are safe on hot paths but—unlike counters—concurrent `add`s use a
/// compare-exchange loop and are meant for low-frequency updates.
///
/// ```
/// use prionn_telemetry::Gauge;
/// let g = Gauge::new();
/// g.set(2.5);
/// g.add(0.5);
/// assert_eq!(g.value(), 3.0);
/// ```
#[derive(Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add a delta (compare-exchange loop; use for low-frequency updates).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// One shard of histogram state: per-bucket counts plus a sum accumulator.
struct HistShard {
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Running sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

struct HistInner {
    /// Ascending bucket upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    shards: Vec<HistShard>,
}

impl HistShard {
    /// Replace the sum with `next(sum)`: a relaxed CAS loop on the
    /// shard-local sum, whose contention is bounded by the (small) number
    /// of threads mapped to this shard.
    #[inline]
    fn add_to_sum(&self, next: impl Fn(f64) -> f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = next(f64::from_bits(cur)).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

impl HistInner {
    /// The bucket `v` counts in: the first whose bound is `>= v`.
    #[inline]
    fn bucket(&self, v: f64) -> usize {
        self.bounds.partition_point(|&b| b < v)
    }
}

/// What a histogram records for `v`: negatives as 0, non-finite as 0.
#[inline]
fn clamp_observation(v: f64) -> f64 {
    if v.is_finite() {
        v.max(0.0)
    } else {
        0.0
    }
}

/// A fixed-bucket histogram with logarithmically spaced bounds.
///
/// The bucket layout is frozen at construction — observation is a binary
/// search over ~tens of bounds plus one striped atomic add, allocation-free
/// and lock-free. Log-scale buckets give constant *relative* error across
/// the huge dynamic range of the quantities PRIONN tracks (layer timings of
/// microseconds next to retrains of seconds), which uniform buckets cannot.
///
/// ```
/// use prionn_telemetry::Histogram;
/// let h = Histogram::with_log_buckets(1e-3, 1e3, 2);
/// h.observe(0.25);
/// h.observe(4.0);
/// assert_eq!(h.count(), 2);
/// assert!(h.sum() > 4.2 && h.sum() < 4.3);
/// let p50 = h.quantile(0.5);
/// assert!(p50 > 0.0);
/// ```
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// A histogram whose bucket bounds double from `min` upward until they
    /// cover `max`, with `per_octave` geometrically spaced bounds per
    /// doubling (1 = powers of two). Bounds are clamped to at most 64
    /// buckets per octave and the total layout to 512 buckets.
    pub fn with_log_buckets(min: f64, max: f64, per_octave: u32) -> Self {
        let min = if min > 0.0 && min.is_finite() {
            min
        } else {
            1e-9
        };
        let max = if max > min { max } else { min * 2.0 };
        let per_octave = per_octave.clamp(1, 64);
        let step = 2f64.powf(1.0 / per_octave as f64);
        let mut bounds = Vec::new();
        let mut b = min;
        while b < max * (1.0 + 1e-12) && bounds.len() < 512 {
            bounds.push(b);
            b *= step;
        }
        let shards = (0..SHARDS)
            .map(|_| HistShard {
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })
            .collect();
        Histogram {
            inner: Arc::new(HistInner { bounds, shards }),
        }
    }

    /// A histogram with `count` uniformly spaced bucket bounds starting at
    /// `start` and stepping by `width` (plus the implicit `+Inf` overflow
    /// bucket). Built for small-integer quantities with a known range —
    /// micro-batch sizes, queue depths — where log buckets would smear
    /// adjacent values together. `count` is clamped to 512 bounds; a
    /// non-positive `width` falls back to 1.
    ///
    /// ```
    /// use prionn_telemetry::Histogram;
    /// let h = Histogram::with_linear_buckets(1.0, 1.0, 4);
    /// assert_eq!(h.bounds(), &[1.0, 2.0, 3.0, 4.0]);
    /// h.observe(3.0);
    /// assert_eq!(h.count(), 1);
    /// ```
    pub fn with_linear_buckets(start: f64, width: f64, count: usize) -> Self {
        let width = if width > 0.0 && width.is_finite() {
            width
        } else {
            1.0
        };
        let start = if start.is_finite() { start } else { 0.0 };
        let bounds: Vec<f64> = (0..count.clamp(1, 512))
            .map(|i| start + width * i as f64)
            .collect();
        let shards = (0..SHARDS)
            .map(|_| HistShard {
                counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })
            .collect();
        Histogram {
            inner: Arc::new(HistInner { bounds, shards }),
        }
    }

    /// The default latency layout: 1 µs to ~64 s, two bounds per octave
    /// (≈41% bucket width). 52 buckets, ~3.3 KiB of counters per shard.
    pub fn latency() -> Self {
        Histogram::with_log_buckets(1e-6, 64.0, 2)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let v = clamp_observation(v);
        let shard = &self.inner.shards[thread_shard()];
        shard.counts[self.inner.bucket(v)].fetch_add(1, Ordering::Relaxed);
        shard.add_to_sum(|sum| sum + v);
    }

    /// Record a batch of observations with one shard lookup and one sum
    /// update. Counts, and the sum's bits, are those of calling
    /// [`observe`](Self::observe) on each value in order.
    pub fn observe_many(&self, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let shard = &self.inner.shards[thread_shard()];
        for &v in values {
            let idx = self.inner.bucket(clamp_observation(v));
            shard.counts[idx].fetch_add(1, Ordering::Relaxed);
        }
        shard.add_to_sum(|sum| {
            values
                .iter()
                .fold(sum, |sum, &v| sum + clamp_observation(v))
        });
    }

    /// Start a timer that records the elapsed seconds when dropped.
    ///
    /// ```
    /// use prionn_telemetry::Histogram;
    /// let h = Histogram::latency();
    /// {
    ///     let _t = h.start_timer();
    ///     // ... timed work ...
    /// }
    /// assert_eq!(h.count(), 1);
    /// ```
    pub fn start_timer(&self) -> HistTimer {
        HistTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.merged_counts().iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.inner
            .shards
            .iter()
            .map(|s| f64::from_bits(s.sum_bits.load(Ordering::Relaxed)))
            .sum()
    }

    /// The bucket upper bounds (exclusive of the implicit `+Inf` bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Per-bucket counts merged across shards; one entry per bound plus the
    /// trailing overflow bucket.
    pub fn merged_counts(&self) -> Vec<u64> {
        let n = self.inner.bounds.len() + 1;
        let mut out = vec![0u64; n];
        for shard in &self.inner.shards {
            for (o, c) in out.iter_mut().zip(&shard.counts) {
                *o += c.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by geometric interpolation
    /// inside the bucket containing the rank. Returns 0 when empty. The
    /// estimate's relative error is bounded by the bucket width (≈41% for
    /// the default latency layout) — enough to spot a regression, not a
    /// substitute for exact traces.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.merged_counts();
        bucket_quantile(&self.inner.bounds, &counts, counts.iter().sum(), q)
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// The bucket-quantile estimator behind both [`Histogram::quantile`] and
/// [`HistogramSeries::quantile`](crate::merge::HistogramSeries::quantile):
/// geometric interpolation (it matches the log-spaced layouts) inside the
/// bucket of `counts` that holds rank `q · total`. A bucket with no finite
/// upper bound in `bounds` — the live overflow bucket, the exposition's
/// `+Inf` — ends at twice the last finite bound, and the first bucket
/// starts at half its bound. Returns 0 when `total` is 0.
pub(crate) fn bucket_quantile(bounds: &[f64], counts: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let finite = |i: usize| bounds.get(i).copied().filter(|b| b.is_finite());
    let last = bounds.iter().rev().copied().find(|b| b.is_finite());
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let next = seen.saturating_add(c);
        if (next as f64) >= rank && c > 0 {
            let lo = match i {
                0 => finite(0).or(last).unwrap_or(1.0) / 2.0,
                _ => finite(i - 1).or(last).unwrap_or(1.0),
            };
            let hi = finite(i).unwrap_or_else(|| last.unwrap_or(1.0) * 2.0);
            let frac = (rank - seen as f64) / c as f64;
            return lo.max(1e-12) * (hi / lo.max(1e-12)).powf(frac);
        }
        seen = next;
    }
    last.unwrap_or(0.0)
}

/// RAII timer from [`Histogram::start_timer`]: records elapsed seconds into
/// its histogram on drop.
pub struct HistTimer {
    hist: Histogram,
    start: Instant,
}

impl HistTimer {
    /// Stop early and return the elapsed seconds that were recorded.
    pub fn stop(self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.hist.observe(secs);
        std::mem::forget(self);
        secs
    }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(10.0);
        g.add(-2.5);
        assert_eq!(g.value(), 7.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_half_open() {
        // Bounds 1,2,4,8: an observation equal to a bound lands in the
        // bucket whose upper bound it is (le semantics: v <= bound).
        let h = Histogram::with_log_buckets(1.0, 8.0, 1);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0, 8.0]);
        h.observe(1.0); // -> bucket le=1
        h.observe(1.5); // -> bucket le=2
        h.observe(2.0); // -> bucket le=2
        h.observe(9.0); // -> overflow
        assert_eq!(h.merged_counts(), vec![1, 2, 0, 0, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn observe_many_equals_sequential_observe_to_the_bit() {
        // Sums that round at every step, bounds hit exactly, and values
        // `observe` clamps (negative, NaN, infinite), in uneven batches.
        let values: Vec<f64> = (0..500)
            .map(|i| match i % 7 {
                0 => 0.1 * i as f64,
                1 => 1.0 / (i as f64 + 3.0),
                2 => 2f64.powi(i % 12 - 2),
                3 => -(i as f64),
                4 if i % 35 == 4 => f64::NAN,
                5 if i % 35 == 5 => f64::INFINITY,
                _ => 1e3 * (i as f64).sqrt(),
            })
            .collect();
        let batched = Histogram::with_log_buckets(1e-3, 1e3, 2);
        let one_by_one = Histogram::with_log_buckets(1e-3, 1e3, 2);
        let mut rest = &values[..];
        for size in (0..).map(|k| k % 23) {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            batched.observe_many(batch);
            rest = tail;
        }
        for &v in &values {
            one_by_one.observe(v);
        }
        assert_eq!(batched.merged_counts(), one_by_one.merged_counts());
        assert_eq!(batched.count(), 500);
        assert_eq!(batched.sum().to_bits(), one_by_one.sum().to_bits());
    }

    #[test]
    fn histogram_concurrent_observations_all_land() {
        let h = Histogram::latency();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..5_000 {
                        h.observe(1e-6 * ((t * 5_000 + i) % 100 + 1) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert!(h.sum() > 0.0);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::with_log_buckets(1e-3, 1e3, 4);
        for i in 1..=1000 {
            h.observe(i as f64 / 10.0); // 0.1 .. 100.0
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 > 30.0 && p50 < 80.0, "p50 {p50}");
        assert!(p99 > 80.0 && p99 < 130.0, "p99 {p99}");
        assert!(h.quantile(0.0) <= p50 && p50 <= p99);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn timer_records_once() {
        let h = Histogram::latency();
        let t = h.start_timer();
        let secs = t.stop();
        assert!(secs >= 0.0);
        assert_eq!(h.count(), 1);
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn non_finite_observations_do_not_poison() {
        let h = Histogram::latency();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        assert_eq!(h.count(), 3);
        assert!(h.sum().is_finite());
    }

    #[test]
    fn linear_buckets_keep_adjacent_integers_distinct() {
        let h = Histogram::with_linear_buckets(1.0, 1.0, 8);
        assert_eq!(h.bounds().len(), 8);
        for v in 1..=8 {
            h.observe(v as f64);
        }
        // Every observation lands in its own bucket (bounds are inclusive
        // upper edges: partition_point(|b| b < v)).
        let counts = h.merged_counts();
        assert!(counts[..8].iter().all(|&c| c == 1), "{counts:?}");
        h.observe(100.0); // overflow bucket
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn degenerate_linear_layouts_are_clamped() {
        let h = Histogram::with_linear_buckets(f64::NAN, -3.0, 0);
        assert_eq!(h.bounds(), &[0.0]);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
    }
}
