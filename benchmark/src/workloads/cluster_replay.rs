//! `cluster_replay` — the paper's back half, no neural network. Seeded jobs
//! with noisy predictions are replayed through the EASY-backfill simulator;
//! every 60 simulated seconds the revision engine ticks (conformal
//! intervals, kill policy) and every start and finish feeds the IO
//! forecaster; the replay closes with the IO timeline and burst metrics.
//! Only `sched`, `forecast`, `revise` and `observe::DriftMonitor` work.
//!
//! One control-loop step (arrivals, advance 60 s, revise, feed the
//! forecaster) is the unit whose wall time the latency metrics report.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::api::*;
use crate::hostquiet::cpu_seconds;
use crate::loadgen::Rng;
use crate::spans::Recorder;
use crate::stats::{self, Better};
use crate::workloads::{repeat_setup, time_median, Args, Outcome};

const CADENCE_SECONDS: u64 = 60;
/// Jobs per replay pass; passes repeat until `--seconds` have gone.
const JOBS_PER_PASS: usize = 4000;
/// Burst-matching window of the closing burst metrics, minutes.
const BURST_WINDOW: usize = 5;
/// How far a pass may differ from the first pass of the same inputs (see the
/// checks in [`run`]): the replay repeats, but not bit for bit.
const KILLS_TOLERANCE: u64 = 2;
const COVERAGE_TOLERANCE: f64 = 2e-3;
const ACCURACY_TOLERANCE: f64 = 1e-3;

/// One job of the replay: the trace's submission, a truth that may overrun
/// the request (a straggler), and the noisy prediction served at submission.
#[derive(Debug, Clone, Copy)]
struct ReplayJob {
    id: u64,
    submit: u64,
    nodes: u32,
    truth_seconds: u64,
    requested_seconds: u64,
    predicted_minutes: f64,
    read_truth: f64,
    write_truth: f64,
    read_predicted: f64,
    write_predicted: f64,
}

struct Inputs {
    jobs: Vec<ReplayJob>,
    nodes: u32,
    /// Calibration outcomes `(truth, predicted)` the drift window starts with.
    warm: Vec<(f64, f64)>,
    gen_s: f64,
}

/// Multiplicative runtime error: a calibrated bulk (2^±0.3) and a 15 %
/// straggler tail running 3–8× past its prediction — the population the
/// kill policy exists for.
fn runtime_error(rng: &mut Rng) -> f64 {
    if rng.unit() < 0.15 {
        rng.range(3.0, 8.0)
    } else {
        2f64.powf(rng.range(-0.3, 0.3))
    }
}

fn setup(seed: u64, wanted: usize) -> Inputs {
    let (trace, gen_s) = generate_jobs(seed, wanted + wanted / 5);
    assert!(trace.len() >= wanted, "trace too short: {}", trace.len());
    let mut rng = Rng::new(seed ^ 0x7265_706c_6179);
    let jobs: Vec<ReplayJob> = trace[..wanted]
        .iter()
        .map(|j| {
            let predicted_seconds = j.runtime_seconds.max(60) as f64;
            let truth_seconds = (predicted_seconds * runtime_error(&mut rng)) as u64;
            let io_error = 2f64.powf(rng.range(-0.25, 0.25));
            ReplayJob {
                id: j.id,
                submit: j.submit_time,
                nodes: j.nodes,
                truth_seconds,
                // Users pad: the trace's request, but never under 1.5× the
                // prediction, as in the repository's revise bench.
                requested_seconds: j.requested_seconds.max((predicted_seconds * 1.5) as u64),
                predicted_minutes: predicted_seconds / 60.0,
                read_truth: j.bytes_read,
                write_truth: j.bytes_written,
                read_predicted: j.bytes_read * io_error,
                write_predicted: j.bytes_written * io_error,
            }
        })
        .collect();
    let warm = (0..256)
        .map(|_| {
            let predicted = rng.range(20.0, 480.0);
            (predicted * runtime_error(&mut rng), predicted)
        })
        .collect();
    // A cluster the trace keeps busy, so backfill has a queue to work on:
    // 80 % of the node-seconds the truths need over the submission span.
    let span = (jobs.last().expect("jobs").submit - jobs[0].submit).max(1) as f64;
    let demand: f64 = jobs
        .iter()
        .map(|j| j.nodes as f64 * j.truth_seconds.min(j.requested_seconds) as f64)
        .sum();
    let widest = jobs.iter().map(|j| j.nodes).max().expect("jobs");
    let nodes = ((demand / span / 0.8) as u32).max(widest);
    Inputs {
        jobs,
        nodes,
        warm,
        gen_s,
    }
}

fn sim_job(j: &ReplayJob) -> SimJob {
    SimJob {
        id: j.id,
        submit: j.submit,
        nodes: j.nodes,
        // The walltime limit stops a job anyway; the kill policy stops it
        // earlier.
        runtime: j.truth_seconds.min(j.requested_seconds),
        estimate: j.requested_seconds,
    }
}

/// What one pass over the replay produced.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    /// `(seconds into the pass, ms one control-loop step took)`.
    steps: Vec<(f64, f64)>,
    revise_tick_ms: Vec<f64>,
    revise_tick_s: f64,
    forecast_tick_us: Vec<f64>,
    forecast_updates: u64,
    forecast_update_s: f64,
    revisions: u64,
    kills: u64,
    coverage: Option<f64>,
    started: usize,
    accuracy_revised: f64,
    accuracy_initial: f64,
    scored: usize,
    timeline_ms: f64,
    burst_ms: f64,
    burst_sensitivity: f64,
    drained: bool,
    spans: Recorder,
}

/// `detail` also keeps per-tick timings and spans (a traced run); a measured
/// pass keeps only what the end-to-end metrics need, so memory does not grow
/// with the number of passes.
fn replay(inputs: &Inputs, detail: bool) -> Pass {
    let jobs = &inputs.jobs;
    let by_id: HashMap<u64, &ReplayJob> = jobs.iter().map(|j| (j.id, j)).collect();
    let telemetry = Telemetry::new();
    let drift = DriftMonitor::with_defaults(&telemetry);
    for &(truth, predicted) in &inputs.warm {
        drift.record(DriftHead::Runtime, truth, predicted);
    }
    let engine = ReviseEngine::new(
        &telemetry,
        ReviseConfig {
            cadence_seconds: CADENCE_SECONDS,
            ..ReviseConfig::default()
        },
    );
    engine.attach_drift(&drift);
    let forecast = ForecastEngine::with_defaults(&telemetry);
    let mut sim = SimEngine::new(inputs.nodes);

    let mut pass = Pass::default();
    // Predicted IO interval of every running job, and when the simulator
    // says each one ends.
    let mut live: HashMap<u64, JobIoInterval> = HashMap::new();
    let mut ends: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut predicted_ivs: Vec<JobIoInterval> = Vec::with_capacity(jobs.len());
    let mut seen_started = 0usize;
    let (mut ra_revised, mut ra_initial) = (0.0f64, 0.0f64);

    let origin = Instant::now();
    let mut next = 0usize;
    let mut clock = jobs[0].submit;
    let mut step = 0u32;
    loop {
        let step_started = Instant::now();
        while next < jobs.len() && jobs[next].submit <= clock {
            let j = &jobs[next];
            engine.track(TrackedJob {
                id: j.id,
                prediction: ResourcePrediction {
                    runtime_minutes: j.predicted_minutes,
                    read_bytes: j.read_predicted,
                    write_bytes: j.write_predicted,
                },
                requested_seconds: j.requested_seconds,
                truth: JobTruth {
                    runtime_seconds: j.truth_seconds,
                    read_bytes: j.read_truth,
                    write_bytes: j.write_truth,
                },
            });
            sim.submit(sim_job(j));
            next += 1;
        }
        let sim_us = step_started.elapsed().as_secs_f64() * 1e6;

        let tick_started = Instant::now();
        let report = engine.tick(&mut sim);
        let revise_us = tick_started.elapsed().as_secs_f64() * 1e6;
        pass.revise_tick_s += revise_us / 1e6;
        if detail {
            pass.revise_tick_ms.push(revise_us / 1e3);
        }
        pass.revisions += report.revisions.len() as u64;
        for rev in &report.revisions {
            let j = by_id[&rev.job_id];
            // Past a quarter of the job's actual life: does the revised
            // point beat the one served at submission?
            if rev.elapsed_seconds >= 0.25 * j.truth_seconds as f64 {
                let truth_minutes = j.truth_seconds as f64 / 60.0;
                ra_revised += relative_accuracy(rev.revised.runtime_minutes, truth_minutes);
                ra_initial += relative_accuracy(j.predicted_minutes, truth_minutes);
                pass.scored += 1;
            }
        }

        // Feed the forecaster: jobs the simulator started since the last
        // step, jobs killed this step, jobs whose end has passed.
        let feed_started = Instant::now();
        let entries = sim.finished();
        for e in &entries[seen_started..] {
            let j = by_id[&e.id];
            let predicted_end = e.start + (j.predicted_minutes * 60.0) as u64;
            let iv = JobIoInterval {
                start: e.start,
                end: predicted_end.max(e.start + 1),
                bandwidth: (j.read_predicted + j.write_predicted)
                    / (j.predicted_minutes * 60.0).max(1.0),
            };
            forecast.job_started(&iv);
            pass.forecast_updates += 1;
            live.insert(e.id, iv);
            ends.push(std::cmp::Reverse((e.end, e.id)));
            predicted_ivs.push(iv);
        }
        seen_started = entries.len();
        for killed in &report.kills {
            if let Some(iv) = live.remove(&killed.id) {
                forecast.job_finished(&iv);
                pass.forecast_updates += 1;
            }
        }
        while let Some(&std::cmp::Reverse((end, id))) = ends.peek() {
            if end > sim.now() {
                break;
            }
            ends.pop();
            if let Some(iv) = live.remove(&id) {
                forecast.job_finished(&iv);
                pass.forecast_updates += 1;
            }
        }
        pass.forecast_update_s += feed_started.elapsed().as_secs_f64();
        let tick_started = Instant::now();
        black_box(forecast.tick_to(sim.now() / 60));
        let forecast_tick_us = tick_started.elapsed().as_secs_f64() * 1e6;
        if detail {
            pass.forecast_tick_us.push(forecast_tick_us);
        }
        let feed_us = feed_started.elapsed().as_secs_f64() * 1e6;

        let drained = next >= jobs.len()
            && sim.running_info().next().is_none()
            && sim.queued_jobs().next().is_none();
        if !drained {
            clock = clock.max(sim.now()) + CADENCE_SECONDS;
            let advance_started = Instant::now();
            sim.advance_to(clock);
            let advance_us = advance_started.elapsed().as_secs_f64() * 1e6;
            let step_us = step_started.elapsed().as_secs_f64() * 1e6;
            pass.steps
                .push(((step_started - origin).as_secs_f64(), step_us / 1e3));
            // A tenth of the steps is plenty for the per-layer table.
            if detail && step.is_multiple_of(10) {
                let root = pass.spans.push(step, None, "replay.step", 0.0, step_us);
                pass.spans.push(
                    step,
                    Some(root),
                    "sched.submit_advance",
                    0.0,
                    sim_us + advance_us,
                );
                pass.spans
                    .push(step, Some(root), "revise.tick", 0.0, revise_us);
                pass.spans
                    .push(step, Some(root), "forecast.feed_tick", 0.0, feed_us);
            }
            step += 1;
            continue;
        }
        pass.drained = true;
        break;
    }

    // Close: actual against predicted IO timeline, and the bursts in both.
    let actual_ivs: Vec<JobIoInterval> = sim
        .finished()
        .iter()
        .map(|e| {
            let j = by_id[&e.id];
            JobIoInterval {
                start: e.start,
                end: e.end.max(e.start + 1),
                bandwidth: (j.read_truth + j.write_truth) / j.truth_seconds.max(1) as f64,
            }
        })
        .collect();
    let horizon = horizon_minutes(&actual_ivs).max(horizon_minutes(&predicted_ivs));
    let started = Instant::now();
    let actual = io_timeline(&actual_ivs, horizon);
    let predicted = io_timeline(&predicted_ivs, horizon);
    pass.timeline_ms = started.elapsed().as_secs_f64() * 1e3 / 2.0;
    let started = Instant::now();
    let bursts = burst_metrics(&actual, &predicted, BURST_WINDOW);
    pass.burst_ms = started.elapsed().as_secs_f64() * 1e3;
    pass.burst_sensitivity = bursts.sensitivity;
    pass.wall_s = origin.elapsed().as_secs_f64();

    let snapshot = engine.snapshot();
    pass.kills = snapshot.kills_total;
    pass.coverage = snapshot.empirical_coverage;
    pass.started = sim.finished().len();
    pass.accuracy_revised = ra_revised / pass.scored.max(1) as f64;
    pass.accuracy_initial = ra_initial / pass.scored.max(1) as f64;
    pass
}

pub fn run(args: &Args) -> Outcome {
    // A short run (smoke) replays fewer jobs rather than a fraction of a pass.
    let per_pass = if args.seconds < 5.0 {
        JOBS_PER_PASS / 5
    } else {
        JOBS_PER_PASS
    };
    let (inputs, setup_s) = repeat_setup(args, || setup(args.seed, per_pass), drop);
    let mut out = Outcome::default();
    out.note("jobs_per_pass", inputs.jobs.len());
    out.note("sim_nodes", inputs.nodes);

    if args.trace {
        trace(&inputs, args.seconds, &mut out);
        return out;
    }

    out.set("setup_s", setup_s);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Each pass is a window: its rate and its step percentiles, best kept.
    let mut rates = Vec::new();
    // Over all passes: one pass is too short for the 10 ms CPU clock.
    let cpu_before = cpu_seconds();
    let mut tails: [Vec<f64>; 3] = Default::default();
    let mut steps_per_pass = 0;
    while passes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let mut pass = replay(&inputs, false);
        rates.push(inputs.jobs.len() as f64 / pass.wall_s);
        let steps = stats::sorted(
            std::mem::take(&mut pass.steps)
                .into_iter()
                .map(|s| s.1)
                .collect(),
        );
        steps_per_pass = steps.len();
        for (tail, wanted) in tails.iter_mut().zip([50.0, 95.0, 99.0]) {
            tail.push(stats::tail(&steps, wanted));
        }
        passes.push(pass);
        // Never overshoot by more than half a pass.
        let mean = started.elapsed().as_secs_f64() / passes.len() as f64;
        if passes.len() >= 2 && started.elapsed().as_secs_f64() + mean * 0.5 > args.seconds {
            break;
        }
    }
    let cpu_s = cpu_seconds() - cpu_before;
    let first = &passes[0];
    out.attempted = (passes.len() * inputs.jobs.len()) as u64;
    out.note("passes", passes.len());
    out.note("steps_per_pass", steps_per_pass);
    out.note("kills", first.kills);
    out.note("revisions", first.revisions);
    out.note("accuracy_mean", first.accuracy_revised);
    out.note("accuracy_initial", first.accuracy_initial);
    out.note("accuracy_scored", first.scored);
    out.note("burst_sensitivity", first.burst_sensitivity);
    println!(
        "# accuracy_mean {:.6} over {} revisions",
        first.accuracy_revised, first.scored
    );
    out.set("throughput_per_s", stats::best(&rates, Better::Higher));
    out.set("cpu_ms_per_op", cpu_s * 1e3 / out.attempted as f64);
    out.set("latency_p50_ms", stats::best(&tails[0], Better::Lower));
    for (name, tail) in ["latency_p95_ms", "latency_p99_ms"]
        .into_iter()
        .zip(&tails[1..])
    {
        let value = stats::best(tail, Better::Lower);
        out.note(name, value);
        println!("# {name} {value:.6} (best pass)");
    }
    out.note("windows_throughput_per_s", rates);

    for (i, p) in passes.iter().enumerate() {
        out.check(p.drained && p.started == inputs.jobs.len(), || {
            format!(
                "pass {i}: {} of {} jobs ran to a finish or a kill",
                p.started,
                inputs.jobs.len()
            )
        });
        // Not bit-equal. The revision engine sweeps completions in hash-map
        // order, so two jobs finishing in one tick enter the drift window in
        // either order; when the window's eviction edge later falls between
        // them the conformal quantile of that tick differs. Seen across
        // passes of one seed: revisions ±4, coverage ±3e-7, accuracy ±5e-6,
        // kills equal. The tolerances leave room for one flipped kill.
        let coverage_gap = (p.coverage.unwrap_or(0.0) - first.coverage.unwrap_or(0.0)).abs();
        out.check(
            p.kills.abs_diff(first.kills) <= KILLS_TOLERANCE
                && p.coverage.is_some() == first.coverage.is_some()
                && coverage_gap <= COVERAGE_TOLERANCE,
            || {
                format!(
                    "pass {i}: kills {} coverage {:?} differ from pass 0 ({} {:?})",
                    p.kills, p.coverage, first.kills, first.coverage
                )
            },
        );
        out.check(
            (p.accuracy_revised - first.accuracy_revised).abs() <= ACCURACY_TOLERANCE,
            || {
                format!(
                    "pass {i}: revised accuracy {} differs from pass 0 ({})",
                    p.accuracy_revised, first.accuracy_revised
                )
            },
        );
    }
    // How far the passes really were apart, for the result file.
    let gap_of = |f: &dyn Fn(&Pass) -> f64| {
        let values: Vec<f64> = passes.iter().map(f).collect();
        stats::best(&values, Better::Higher) - stats::best(&values, Better::Lower)
    };
    out.note("passes_kills_gap", gap_of(&|p| p.kills as f64));
    out.note("passes_revisions_gap", gap_of(&|p| p.revisions as f64));
    out.note(
        "passes_coverage_gap",
        gap_of(&|p| p.coverage.unwrap_or(0.0)),
    );
    out.note("passes_accuracy_gap", gap_of(&|p| p.accuracy_revised));
    out.check(first.kills > 0, || "the kill policy never fired".into());
    out.check(first.accuracy_revised > first.accuracy_initial, || {
        format!(
            "revised predictions ({:.4}) no better than initial ({:.4})",
            first.accuracy_revised, first.accuracy_initial
        )
    });
    out
}

fn trace(inputs: &Inputs, seconds: f64, out: &mut Outcome) {
    out.set("workload.trace_generate_s", inputs.gen_s);
    // Detailed passes for a third of the run; each timing is the median
    // over passes, counts and spans are the last pass's.
    let started = Instant::now();
    let mut passes = vec![replay(inputs, true)];
    while started.elapsed().as_secs_f64() < seconds / 3.0 {
        passes.push(replay(inputs, true));
    }
    let median_of =
        |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let pass = passes.last().expect("at least one pass");
    out.attempted = (passes.len() * inputs.jobs.len()) as u64;
    out.check(passes.iter().all(|p| p.drained), || {
        "replay did not drain".into()
    });
    out.set(
        "revise.tick_ms_p50",
        median_of(&|p| stats::median(&p.revise_tick_ms)),
    );
    out.set(
        "revise.revisions_per_s",
        median_of(&|p| p.revisions as f64 / p.revise_tick_s),
    );
    out.set("revise.revisions", pass.revisions as f64);
    out.set("revise.kills", pass.kills as f64);
    out.set("revise.coverage_90", pass.coverage.unwrap_or(0.0));
    out.set(
        "forecast.engine.tick_us",
        median_of(&|p| stats::median(&p.forecast_tick_us)),
    );
    out.set(
        "forecast.aggregator.updates_per_s",
        median_of(&|p| p.forecast_updates as f64 / p.forecast_update_s),
    );
    out.set("sched.io_timeline_ms", median_of(&|p| p.timeline_ms));
    out.set("sched.burst_metrics_ms", median_of(&|p| p.burst_ms));
    let sim_jobs: Vec<SimJob> = inputs.jobs.iter().map(sim_job).collect();
    let sim_s = time_median(9, || {
        black_box(simulate(inputs.nodes, &sim_jobs));
    });
    out.set("sched.sim.jobs_per_s", sim_jobs.len() as f64 / sim_s);
    out.set("answers.accuracy_mean", pass.accuracy_revised);
    let tail_of = |wanted: f64| {
        median_of(&|p| {
            stats::tail(
                &stats::sorted(p.steps.iter().map(|s| s.1).collect()),
                wanted,
            )
        })
    };
    out.set("loadgen.latency_p95_ms", tail_of(95.0));
    out.set("loadgen.latency_p99_ms", tail_of(99.0));
    out.set("trace.within_10pct_share", pass.spans.within_10pct_share());
    println!("# one control-loop step, median self time per layer:");
    for row in pass.spans.layer_table() {
        println!(
            "#   {:<24} total {:>9.1} us  self {:>9.1} us  {:>5.1} %",
            row.name,
            row.total_us,
            row.self_us,
            row.share * 100.0
        );
    }
    out.spans = Some(pass.spans.to_json());
}
