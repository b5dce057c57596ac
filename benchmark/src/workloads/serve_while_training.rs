//! `serve_while_training` — the same layers used the other way round:
//! weight writes beside reads. One in-process paper-shaped gateway (no TCP);
//! a feeder keeps exactly one retrain batch queued behind the one being
//! trained, so the background trainer never idles and every finished cycle
//! hot-swaps the replica; one generator offers four-script requests in an
//! open loop. Shows a predict gain bought with training throughput (or the
//! reverse), contention for the thread pool, and any weight or packed-panel
//! cache that mishandles a swap.
//!
//! The request rate is pinned by the open loop, so `throughput_per_s` here
//! is the throughput that can move: jobs the background trainer gets
//! through per second while serving.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::api::*;
use crate::hostquiet::cpu_seconds;
use crate::layers;
use crate::loadgen::{self, PhaseResult};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::serving::{flag_late, note_phase, probe, set_loadgen};
use crate::workloads::{repeat_setup, set_latencies, set_tail_metrics, Args, Outcome};

/// Fixed offered rate, requests per second (each of [`SCRIPTS`] scripts).
pub const RATE_PER_S: f64 = 7.5;
pub const SCRIPTS: usize = 4;
const TRAIN_JOBS: usize = 128;
/// Jobs per background retrain batch: small enough that a run sees a
/// handful of cycles, large enough that a cycle is several batches of 32.
pub const BATCH_JOBS: usize = 96;
const POOL_JOBS: usize = 800;

struct State {
    gateway: Gateway,
    /// The model the gateway was spawned with, kept in process.
    known: Prionn,
    pool: Vec<JobRecord>,
    scripts: Vec<String>,
    gen_s: f64,
    w2v_s: f64,
}

fn setup(seed: u64) -> State {
    let wanted = TRAIN_JOBS + POOL_JOBS;
    let (jobs, gen_s) = generate_jobs(seed, wanted + wanted / 5);
    assert!(jobs.len() >= wanted, "trace too short: {}", jobs.len());
    let (trained, w2v_s) = trained_model(paper_config(), &jobs[..TRAIN_JOBS]);
    let checkpoint = trained.to_checkpoint().expect("checkpoint trained model");
    let gateway = Gateway::spawn(trained, shard_gateway_config()).expect("spawn gateway");
    let known = Prionn::from_checkpoint(&checkpoint).expect("known model");
    let pool: Vec<JobRecord> = jobs[TRAIN_JOBS..wanted].to_vec();
    let scripts: Vec<String> = pool.iter().map(|j| j.script.clone()).collect();
    for i in 0..8 {
        gateway
            .predict(request(&scripts, i))
            .expect("warm-up request");
    }
    State {
        gateway,
        known,
        pool,
        scripts,
        gen_s,
        w2v_s,
    }
}

/// The scripts of request `i`: four consecutive pool entries.
fn request(scripts: &[String], i: usize) -> &[String] {
    let at = (i * SCRIPTS) % (scripts.len() - SCRIPTS);
    &scripts[at..at + SCRIPTS]
}

/// What a loaded phase saw.
struct Loaded {
    phase: PhaseResult,
    /// Seconds each finished retrain cycle took.
    cycles: Vec<f64>,
    /// CPU seconds the process used during each of those cycles.
    cycles_cpu: Vec<f64>,
    submitted: u64,
    epochs_in_order: bool,
    accuracy: f64,
}

/// Offer the open loop for `seconds` while the feeder keeps the trainer
/// busy; returns once the load has stopped (retrains may still be queued).
fn loaded_phase(s: &State, seed: u64, seconds: f64) -> Loaded {
    // The in-process model is not `Sync`; threads share only the gateway and
    // the job pool.
    let State {
        gateway,
        pool,
        scripts,
        ..
    } = s;
    let stop = AtomicBool::new(false);
    let submitted = AtomicU64::new(gateway.epoch());
    let last_epoch = AtomicU64::new(0);
    let in_order = AtomicBool::new(true);
    // (sum of relative accuracies, scripts scored)
    let accuracy = Mutex::new((0.0f64, 0u64));
    let due = loadgen::poisson_schedule(seed, RATE_PER_S, seconds);
    let feed = |n: u64| {
        let at = (n as usize * BATCH_JOBS) % (pool.len() - BATCH_JOBS);
        gateway.retrain_async(training_batch(&pool[at..at + BATCH_JOBS]));
        submitted.fetch_add(1, Ordering::SeqCst);
    };
    let (phase, (cycles, cycles_cpu)) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let (mut cycles, mut cycles_cpu) = (Vec::new(), Vec::new());
            let mut seen = gateway.epoch();
            // One batch in training plus one queued behind it.
            feed(0);
            feed(1);
            let mut fed = 2u64;
            let (mut cycle_started, mut cycle_cpu) = (Instant::now(), cpu_seconds());
            while !stop.load(Ordering::SeqCst) {
                let epoch = gateway.epoch();
                if epoch > seen {
                    let (now, cpu) = (Instant::now(), cpu_seconds());
                    cycles.push((now - cycle_started).as_secs_f64());
                    cycles_cpu.push(cpu - cycle_cpu);
                    (cycle_started, cycle_cpu) = (now, cpu);
                    seen = epoch;
                    feed(fed);
                    fed += 1;
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            (cycles, cycles_cpu)
        });
        let phase = loadgen::open_loop(&due, 1, |i| {
            let Ok(reply) = gateway.predict_detailed(request(scripts, i), None) else {
                return false;
            };
            if reply.predictions.len() != SCRIPTS {
                return false;
            }
            // One generator thread: replies arrive in the order sent, so
            // their epochs may only grow.
            if last_epoch.fetch_max(reply.epoch, Ordering::SeqCst) > reply.epoch {
                in_order.store(false, Ordering::SeqCst);
            }
            let at = (i * SCRIPTS) % (scripts.len() - SCRIPTS);
            let ra: f64 = reply
                .predictions
                .iter()
                .zip(&pool[at..at + SCRIPTS])
                .map(|(p, job)| relative_accuracy(job.runtime_minutes(), p.runtime_minutes))
                .sum();
            let mut acc = accuracy.lock().expect("accuracy sum poisoned");
            acc.0 += ra;
            acc.1 += SCRIPTS as u64;
            true
        });
        stop.store(true, Ordering::SeqCst);
        (phase, feeder.join().expect("feeder thread panicked"))
    });
    let (sum, scored) = *accuracy.lock().expect("accuracy sum poisoned");
    Loaded {
        phase,
        cycles,
        cycles_cpu,
        submitted: submitted.load(Ordering::SeqCst),
        epochs_in_order: in_order.load(Ordering::SeqCst),
        accuracy: sum / scored.max(1) as f64,
    }
}

/// Wait until every submitted batch has been trained and published.
fn quiesce(gateway: &Gateway, submitted: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while gateway.epoch() < submitted {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

pub fn run(args: &Args) -> Outcome {
    let (mut s, setup_s) = repeat_setup(args, || setup(args.seed), |s| s.gateway.shutdown());
    let mut out = Outcome::default();
    out.note("loop", "open");
    out.note("rate_per_s", RATE_PER_S);
    out.note("scripts_per_request", SCRIPTS);
    out.note("retrain_batch_jobs", BATCH_JOBS);
    if args.trace {
        trace(args, &mut s, &mut out);
        s.gateway.shutdown();
        return out;
    }

    out.set("setup_s", setup_s);
    let loaded = loaded_phase(&s, args.seed, args.seconds);
    out.attempted = loaded.phase.sent() as u64;
    out.failed = loaded.phase.failed() as u64;
    set_latencies(&mut out, &loaded.phase.latencies(), args.seconds);
    note_phase(&mut out, "timed", &loaded.phase);
    flag_late(&mut out, &loaded.phase);
    out.note("accuracy_mean", loaded.accuracy);
    println!("# accuracy_mean {:.6}", loaded.accuracy);
    out.note("retrain_cycles", loaded.cycles.len());
    out.note(
        "requests_per_s",
        loaded.phase.ok() as f64 / loaded.phase.wall_s,
    );
    out.check(!loaded.cycles.is_empty(), || {
        "no retrain cycle completed while serving".into()
    });
    out.check(loaded.epochs_in_order, || {
        "a reply carried an older epoch than an earlier reply".into()
    });
    if !loaded.cycles.is_empty() {
        // A cycle is a window: the fastest one stands for the run.
        let cycle_s = stats::best(&loaded.cycles, stats::Better::Lower);
        out.set("throughput_per_s", BATCH_JOBS as f64 / cycle_s);
        out.set(
            "cpu_ms_per_op",
            stats::best(&loaded.cycles_cpu, stats::Better::Lower) * 1e3 / BATCH_JOBS as f64,
        );
        out.note("train_cycles_per_min", 60.0 / cycle_s);
        out.note("cycles_s", loaded.cycles.clone());
        println!(
            "# train_cycles_per_min {:.3} ({} cycles, fastest {:.3} s, median {:.3} s)",
            60.0 / cycle_s,
            loaded.cycles.len(),
            cycle_s,
            stats::median(&loaded.cycles)
        );
    }

    // After the last queued cycle, swap the known weights back in: probes
    // must then read exactly the known model, on exactly that epoch.
    out.check(quiesce(&s.gateway, loaded.submitted), || {
        "trainer did not drain".into()
    });
    match s.gateway.hot_swap(&s.known) {
        Ok(epoch) => {
            let State {
                gateway,
                known,
                scripts,
                ..
            } = &mut s;
            let result = probe(known, scripts, |k| {
                let reply = gateway
                    .predict_detailed(std::slice::from_ref(&scripts[k]), None)
                    .ok()?;
                (reply.epoch == epoch && reply.predictions.len() == 1).then(|| reply.predictions[0])
            });
            if let Err(e) = result {
                out.errors
                    .push(format!("after hot_swap to epoch {epoch}: {e}"));
            }
        }
        Err(e) => out.errors.push(format!("hot_swap failed: {e}")),
    }
    s.gateway.shutdown();
    out
}

fn trace(args: &Args, s: &mut State, out: &mut Outcome) {
    out.set("workload.trace_generate_s", s.gen_s);
    out.set("text.w2v_train_s", s.w2v_s);

    // Idle gateway: one retrain cycle, and how long a swap takes to show.
    let before = s.gateway.epoch();
    let started = Instant::now();
    s.gateway
        .retrain_async(training_batch(&s.pool[..BATCH_JOBS]));
    out.check(quiesce(&s.gateway, before + 1), || {
        "idle retrain did not finish".into()
    });
    out.set("serve.retrain.cycle_s", started.elapsed().as_secs_f64());
    let visible: Vec<f64> = (0..5)
        .map(|_| {
            let epoch = s.gateway.hot_swap(&s.known).expect("hot swap");
            let started = Instant::now();
            loop {
                let reply = s
                    .gateway
                    .predict_detailed(&s.scripts[..1], None)
                    .expect("predict after swap");
                if reply.epoch >= epoch {
                    return started.elapsed().as_secs_f64() * 1e3;
                }
            }
        })
        .collect();
    out.set("serve.swap.visible_ms", stats::median(&visible));

    // Uncontended four-script requests through each boundary in turn.
    let mut rec = Recorder::default();
    let mut rows: Vec<[f64; 3]> = Vec::new();
    for r in 0..68 {
        let scripts = request(&s.scripts, r);
        let refs: Vec<&str> = scripts.iter().map(String::as_str).collect();
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        black_box(s.gateway.predict(scripts).expect("gateway predict"));
        let gateway = us(t);
        let t = Instant::now();
        black_box(s.known.predict(&refs).expect("core predict"));
        let core = us(t);
        let t = Instant::now();
        black_box(s.known.map_scripts(&refs).expect("map"));
        let map = us(t);
        if r < 8 {
            continue;
        }
        let req = r as u32;
        let root = rec.push(req, None, "serve.gateway_predict", 0.0, gateway);
        let co = rec.push(req, Some(root), "core.predict", 0.0, core);
        rec.push(req, Some(co), "text.map", 0.0, map);
        rec.push(req, Some(co), "nn.forward", map, (core - map).max(0.0));
        rows.push([gateway, core, map]);
    }
    let col = |i: usize| stats::median(&rows.iter().map(|d| d[i]).collect::<Vec<_>>());
    out.set("serve.gateway.predict_ms_p50", col(0) / 1e3);
    out.set(
        "serve.gateway.self_ms_p50",
        (col(0) - col(1)).max(0.0) / 1e3,
    );
    out.set("core.predict.ms_b4", col(1) / 1e3);
    out.set("nn.forward.ms_b4", (col(1) - col(2)).max(0.0) / 1e3);
    out.set("trace.within_10pct_share", rec.within_10pct_share());
    let table = rec.layer_table();
    println!("# uncontended four-script request, median self time per layer:");
    for row in &table {
        println!(
            "#   {:<24} total {:>9.1} us  self {:>9.1} us  {:>5.1} %",
            row.name,
            row.total_us,
            row.self_us,
            row.share * 100.0
        );
    }
    out.set(
        "trace.compute_share",
        table
            .iter()
            .filter(|r| r.name == "text.map" || r.name == "nn.forward")
            .map(|r| r.share)
            .sum(),
    );
    out.spans = Some(rec.to_json());
    let (encode_s, apply_s, bytes, roundtrip_s) = layers::checkpoint_costs(&mut s.known, 7);
    out.set("core.checkpoint.encode_ms", encode_s * 1e3);
    out.set("core.checkpoint.apply_ms", apply_s * 1e3);
    out.set("store.checkpoint.bytes", bytes as f64);
    out.set("store.checkpoint.roundtrip_ms", roundtrip_s * 1e3);

    // A shorter loaded phase for the loop's validity and the cycle rate.
    let loaded = loaded_phase(s, args.seed, (args.seconds * 0.5).max(1.0));
    set_loadgen(out, &loaded.phase);
    set_tail_metrics(out, &loaded.phase.latencies(), loaded.phase.wall_s);
    note_phase(out, "loaded", &loaded.phase);
    if !loaded.cycles.is_empty() {
        let cycle_s = stats::best(&loaded.cycles, stats::Better::Lower);
        out.set("serve.train_cycles_per_min", 60.0 / cycle_s);
    }
    out.set("answers.accuracy_mean", loaded.accuracy);
    out.check(quiesce(&s.gateway, loaded.submitted), || {
        "trainer did not drain".into()
    });
    out.attempted = (loaded.phase.sent() + rows.len()) as u64;
    out.failed = loaded.phase.failed() as u64;
}
