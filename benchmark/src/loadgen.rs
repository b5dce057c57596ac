//! The load generator: a seeded Poisson arrival schedule, an open loop that
//! times every request from when it was *due*, and a closed loop.
//!
//! Generator threads sleep until the next due time rather than spin: on a
//! two-core host a spinning generator would take a core from the system
//! under test. How late the generator ran is reported next to the latencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// SplitMix64: the harness's own generator, so that its inputs do not shift
/// when a crate's random source changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Due times, in seconds from the start of the phase, of a Poisson process
/// of `rate` per second over `seconds`, conditioned on its expected count:
/// `rate × seconds` arrivals, independently uniform over the phase (which is
/// what a Poisson process looks like once its count is known). Every seed
/// then offers the same number of requests, and only their spacing varies.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x706f_6973_736f_6e21);
    let count = (rate * seconds).round() as usize;
    stats::sorted((0..count).map(|_| rng.range(0.0, seconds)).collect())
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due (open loop) or sent (closed loop), seconds
    /// from the start of the phase.
    pub at_s: f64,
    /// Reply time minus due time (open) or send time (closed).
    pub latency_ms: f64,
    /// Send time minus due time; zero in a closed loop.
    pub late_ms: f64,
    pub ok: bool,
}

/// All samples of one phase plus its wall time.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl PhaseResult {
    pub fn sent(&self) -> usize {
        self.samples.len()
    }

    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.sent() - self.ok()
    }

    /// `(time, latency)` of the requests that were answered.
    pub fn latencies(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.at_s, s.latency_ms))
            .collect()
    }

    pub fn late_p99_ms(&self) -> f64 {
        let late = stats::sorted(self.samples.iter().map(|s| s.late_ms).collect());
        if late.is_empty() {
            0.0
        } else {
            stats::tail(&late, 99.0)
        }
    }
}

/// Open loop: request `i` is due at `due[i]`; whichever of the `threads`
/// generator threads is free takes the next one, sleeps until it is due and
/// calls `send(i)`. A request that could not be sent on time (the generator
/// was still waiting for an earlier reply) is sent at once and its latency
/// still counts from the due time, so a stall in the system shows in every
/// request it delayed, not only in the one that hit it.
pub fn open_loop(due: &[f64], threads: usize, send: impl Fn(usize) -> bool + Sync) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due_s) = due.get(i) else {
                            return out;
                        };
                        let due_at = origin + Duration::from_secs_f64(due_s);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent_at = Instant::now();
                        let ok = send(i);
                        let done_at = Instant::now();
                        out.push(Sample {
                            at_s: due_s,
                            latency_ms: (done_at - due_at).as_secs_f64() * 1e3,
                            late_ms: sent_at.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                            ok,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    samples.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    PhaseResult { samples, wall_s }
}

/// Closed loop: each of `clients` sends its next request as soon as the
/// previous one is answered, until `seconds` have passed.
pub fn closed_loop(
    clients: usize,
    seconds: f64,
    send: impl Fn(usize) -> bool + Sync,
) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let sent_at = Instant::now();
                        if sent_at >= deadline {
                            return out;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let ok = send(i);
                        out.push(Sample {
                            at_s: (sent_at - origin).as_secs_f64(),
                            latency_ms: sent_at.elapsed().as_secs_f64() * 1e3,
                            late_ms: 0.0,
                            ok,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    samples.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    PhaseResult { samples, wall_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(7, 120.0, 20.0);
        let b = poisson_schedule(7, 120.0, 20.0);
        let c = poisson_schedule(8, 120.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 20.0);
        assert_eq!(a.len(), 2400);
    }

    #[test]
    fn schedule_holds_its_rate_and_spaces_like_poisson() {
        let due = poisson_schedule(42, 500.0, 200.0);
        let rate = due.len() as f64 / 200.0;
        assert!((rate / 500.0 - 1.0).abs() < 0.02, "rate {rate}");
        // Exponential gaps: the standard deviation equals the mean.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
        // Any tenth of the phase holds about a tenth of the arrivals.
        let early = due.iter().filter(|&&t| t < 20.0).count() as f64;
        assert!((early / due.len() as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn a_stall_inflates_the_requests_queued_behind_it() {
        // One generator thread, a request every 2 ms, and a server that
        // stalls 60 ms on request 5. Timed from send, only request 5 would
        // look slow; timed from due, the ~30 requests behind it do too.
        let due: Vec<f64> = (0..60).map(|i| i as f64 * 0.002).collect();
        let result = open_loop(&due, 1, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        assert_eq!(result.sent(), 60);
        let slow = result
            .samples
            .iter()
            .filter(|s| s.latency_ms > 10.0)
            .count();
        assert!(slow >= 15, "only {slow} requests saw the stall");
        // The requests right behind the stall were sent late, and say so.
        assert!(result.samples[6].late_ms > 30.0);
        assert!(result.samples[6].latency_ms >= result.samples[6].late_ms);
        // Before the stall nothing was late.
        assert!(result.samples[..5].iter().all(|s| s.latency_ms < 10.0));
    }

    #[test]
    fn closed_loop_counts_failures() {
        let result = closed_loop(2, 0.05, |i| {
            std::thread::sleep(Duration::from_millis(1));
            i % 10 != 0
        });
        assert!(result.sent() > 20);
        assert!(result.failed() >= result.sent() / 10 - 1);
        assert_eq!(result.ok() + result.failed(), result.sent());
    }
}
