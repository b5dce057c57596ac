//! The five workloads. Each module offers `run(&Args) -> Outcome`: with
//! tracing off it measures the end-to-end metrics under load; with tracing
//! on it measures the layers that workload crosses, one caller at a time.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{Map, Value};

use crate::stats::{self, Better};

pub mod cluster_replay;
pub mod online_protocol;
pub mod serve_while_training;
pub mod serving;
pub mod submit_open;
pub mod wire_closed;

/// Set-up runs at least this often within one invocation, and `setup_s` is
/// the median; a set-up of milliseconds repeats until [`SETUP_MIN_TOTAL_S`]
/// have gone (at most [`SETUP_MAX_REPEATS`] times), so that a small number
/// is still a steady one.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_TOTAL_S: f64 = 1.5;
pub const SETUP_MAX_REPEATS: usize = 40;
/// Windows a measured phase is cut into for windowed percentiles.
pub const MAX_WINDOWS: usize = 15;
/// Probe scripts sent one at a time after a serving phase.
pub const PROBES: usize = 32;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness checks; empty means correct.
    pub errors: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Phase counts, rates used and other context for the result file.
    pub detail: Map,
    /// Span dump of a traced run.
    pub spans: Option<Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.insert(key.to_string(), value.into());
    }

    /// Record a broken check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub const NAMES: [&str; 5] = [
    "submit_open",
    "wire_closed",
    "online_protocol",
    "serve_while_training",
    "cluster_replay",
];

pub fn run(name: &str, args: &Args) -> Option<Outcome> {
    let _awake = crate::hostquiet::KeepAwake::start();
    let steal_before = crate::hostquiet::host_cpu_seconds();
    let mut outcome = match name {
        "submit_open" => submit_open::run(args),
        "wire_closed" => wire_closed::run(args),
        "online_protocol" => online_protocol::run(args),
        "serve_while_training" => serve_while_training::run(args),
        "cluster_replay" => cluster_replay::run(args),
        _ => return None,
    };
    // How much CPU time the hypervisor withheld while this ran: above a few
    // percent, read every wall-clock number of the run with suspicion.
    let (steal, all) = crate::hostquiet::host_cpu_seconds();
    let steal_share = (steal - steal_before.0) / (all - steal_before.1).max(1e-9);
    println!("# host steal share {:.2} %", steal_share * 100.0);
    outcome.note("host_steal_share", steal_share);
    if args.trace {
        outcome.set("host.steal_share", steal_share);
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    Some(outcome)
}

/// Run `setup` repeatedly (once when tracing: set-up time is an end-to-end
/// metric), tearing each state down before building the next, and return
/// the last state with the median set-up time.
pub fn repeat_setup<S>(args: &Args, setup: impl Fn() -> S, teardown: impl Fn(S)) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPEATS
            && (times.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S || times.len() >= SETUP_MAX_REPEATS);
        if args.trace || enough {
            return (last.expect("at least one set-up"), stats::median(&times));
        }
    }
}

/// Windows for `samples` values with at least `per_window` in each, at most
/// [`MAX_WINDOWS`].
pub fn windows_for(samples: usize, per_window: usize) -> usize {
    (samples / per_window).clamp(1, MAX_WINDOWS)
}

/// Samples a window needs for a median (ten beyond it on either side, and
/// some) and for a 95th percentile (ten beyond it).
pub const MEDIAN_WINDOW: usize = 50;
pub const TAIL_WINDOW: usize = 200;

/// Best-window percentile `wanted` of `(time, latency_ms)` samples over a
/// phase of `span_s` seconds, and the percentile actually reported (lower
/// than `wanted` where a window has fewer than ten samples beyond it).
pub fn best_window_percentile(
    samples: &[(f64, f64)],
    span_s: f64,
    wanted: f64,
    per_window: usize,
) -> (f64, f64) {
    let windows = stats::windows(samples, span_s, windows_for(samples.len(), per_window));
    let per: Vec<f64> = windows.iter().map(|w| stats::tail(w, wanted)).collect();
    let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
    (
        stats::best(&per, Better::Lower),
        stats::supported_percentile(smallest, wanted),
    )
}

/// Set `latency_p50_ms` (end to end) and note the tail percentiles, which a
/// traced run reports per layer: on a shared host they measure the host.
pub fn set_latencies(outcome: &mut Outcome, samples: &[(f64, f64)], span_s: f64) {
    outcome.note("latency_samples", samples.len());
    let (p50, _) = best_window_percentile(samples, span_s, 50.0, MEDIAN_WINDOW);
    outcome.set("latency_p50_ms", p50);
    for (name, wanted) in [("latency_p95_ms", 95.0), ("latency_p99_ms", 99.0)] {
        let (value, reported_as) = best_window_percentile(samples, span_s, wanted, TAIL_WINDOW);
        outcome.note(name, value);
        outcome.note(&format!("{name}_reported_as"), reported_as);
        println!("# {name} {value:.6} (best window; reported as p{reported_as:.1})");
    }
}

/// The same tails as per-layer metrics of a traced run.
pub fn set_tail_metrics(outcome: &mut Outcome, samples: &[(f64, f64)], span_s: f64) {
    for (name, wanted) in [
        ("loadgen.latency_p95_ms", 95.0),
        ("loadgen.latency_p99_ms", 99.0),
    ] {
        outcome.set(
            name,
            best_window_percentile(samples, span_s, wanted, TAIL_WINDOW).0,
        );
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of `f` over `reps` calls after one untimed call, in
/// seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}
