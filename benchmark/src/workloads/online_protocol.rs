//! `online_protocol` — the paper's §2.3 loop: predict every submission with
//! the current model, retrain warm-started on the most recently completed
//! jobs every so many submissions. Paper-shaped model; backward pass,
//! optimizer, GEMM and im2col do about 85 % of the work, batch-1 predicts
//! the rest; no `serve`, no `fleet`.
//!
//! The slice is run three times. Twice through `run_online_prionn` as a
//! black box, which gives throughput (the faster pass: see `stats::best`),
//! accuracy, and a check that the protocol repeats bit for bit. Then through
//! the harness's own copy of the loop over `Prionn::predict` /
//! `Prionn::retrain`, which gives what the black box hides — how long each
//! submission waited for its prediction, retrain stalls included — and must
//! reproduce the black box's predictions exactly.

use std::time::Instant;

use crate::api::*;
use crate::hostquiet::cpu_seconds;
use crate::layers;
use crate::spans::Recorder;
use crate::stats::{self, Better};
use crate::workloads::{repeat_setup, set_latencies, Args, Outcome};

/// Paper: window 500, cadence 100, ten epochs — one such retrain outlasts a
/// run. Kept: one epoch, and the shape of the protocol (window = 4 ×
/// cadence, so the share of submissions that wait for a retrain stays well
/// under 5 % and the p95 is a predict, not a retrain). The cadence scales
/// with `--seconds` so the three passes fill the run on the reference host
/// (never under 10: a smoke run must still see two retrains).
fn cadence(seconds: f64) -> usize {
    ((seconds * 2.0).round() as usize).max(10)
}

fn online_config(cadence: usize) -> OnlineConfig {
    OnlineConfig {
        train_window: 4 * cadence,
        retrain_every: cadence,
        min_history: cadence,
        prionn: paper_config(),
        ..OnlineConfig::default()
    }
}

struct Inputs {
    jobs: Vec<JobRecord>,
    cfg: OnlineConfig,
    /// Model for the harness's pass, word2vec fitted as the black box fits it.
    model: Prionn,
    gen_s: f64,
    w2v_s: f64,
}

fn setup(args: &Args) -> Inputs {
    let cadence = cadence(args.seconds);
    let wanted = 6 * cadence;
    let (mut jobs, gen_s) = generate_jobs(args.seed, wanted + wanted / 5 + 8);
    assert!(jobs.len() >= wanted, "trace too short: {}", jobs.len());
    jobs.truncate(wanted);
    let cfg = online_config(cadence);
    let started = Instant::now();
    let corpus: Vec<&str> = jobs.iter().take(200).map(|j| j.script.as_str()).collect();
    let model = Prionn::new(cfg.prionn.clone(), &corpus).expect("build model");
    let w2v_s = started.elapsed().as_secs_f64();
    Inputs {
        jobs,
        cfg,
        model,
        gen_s,
        w2v_s,
    }
}

/// What the harness's pass over the loop saw.
struct Replay {
    predictions: Vec<JobPrediction>,
    /// `(seconds into the pass, ms the submission waited for its answer)`.
    waits: Vec<(f64, f64)>,
    retrain_s: f64,
    predict_s: f64,
    retrains: usize,
    wall_s: f64,
    spans: Recorder,
}

/// The §2.3 loop of `prionn_core::online`, step for step (same history
/// bookkeeping, same calls in the same order), with a clock around each
/// submission. The generated slice holds no cancelled jobs.
fn replay(jobs: &[JobRecord], cfg: &OnlineConfig, mut model: Prionn) -> Replay {
    let mut out = Replay {
        predictions: Vec::with_capacity(jobs.len()),
        waits: Vec::with_capacity(jobs.len()),
        retrain_s: 0.0,
        predict_s: 0.0,
        retrains: 0,
        wall_s: 0.0,
        spans: Recorder::default(),
    };
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    let mut trained = false;
    let mut since_retrain = 0usize;
    let origin = Instant::now();
    for (idx, job) in jobs.iter().enumerate() {
        let arrived = Instant::now();
        let now = job.submit_time;
        pending.sort_unstable_by_key(|&(end, _)| end);
        while let Some(&(end, j)) = pending.first() {
            if end > now {
                break;
            }
            completed.push(j);
            pending.remove(0);
        }
        let mut retrain_us = None;
        if completed.len() >= cfg.min_history && (!trained || since_retrain >= cfg.retrain_every) {
            let start = completed.len().saturating_sub(cfg.train_window);
            let window: Vec<JobRecord> = completed[start..]
                .iter()
                .map(|&j| jobs[j].clone())
                .collect();
            let started = Instant::now();
            retrain_on(&mut model, &window);
            let took = started.elapsed().as_secs_f64();
            out.retrain_s += took;
            out.retrains += 1;
            retrain_us = Some(took * 1e6);
            trained = true;
            since_retrain = 0;
        }
        let started = Instant::now();
        let prediction = if trained {
            let p = model
                .predict(&[job.script.as_str()])
                .expect("predict submission")[0];
            JobPrediction {
                job_id: job.id,
                runtime_minutes: p.runtime_minutes,
                read_bytes: p.read_bytes,
                write_bytes: p.write_bytes,
                model_trained: true,
            }
        } else {
            JobPrediction {
                job_id: job.id,
                runtime_minutes: job.requested_minutes(),
                read_bytes: 0.0,
                write_bytes: 0.0,
                model_trained: false,
            }
        };
        let predict_us = started.elapsed().as_secs_f64() * 1e6;
        out.predict_s += predict_us * 1e-6;
        let wait_us = arrived.elapsed().as_secs_f64() * 1e6;
        if trained {
            out.waits
                .push(((arrived - origin).as_secs_f64(), wait_us / 1e3));
        }
        let root = out
            .spans
            .push(idx as u32, None, "core.online.submission", 0.0, wait_us);
        if let Some(us) = retrain_us {
            out.spans
                .push(idx as u32, Some(root), "core.retrain", 0.0, us);
        }
        out.spans.push(
            idx as u32,
            Some(root),
            "core.predict",
            retrain_us.unwrap_or(0.0),
            predict_us,
        );
        out.predictions.push(prediction);
        since_retrain += 1;
        pending.push((job.submit_time + job.runtime_seconds, idx));
    }
    out.wall_s = origin.elapsed().as_secs_f64();
    out
}

/// Mean relative accuracy of the runtime predictions a trained model made.
fn trained_accuracy(jobs: &[JobRecord], predictions: &[JobPrediction]) -> (f64, usize) {
    let scored: Vec<f64> = jobs
        .iter()
        .zip(predictions)
        .filter(|(_, p)| p.model_trained)
        .map(|(j, p)| relative_accuracy(j.runtime_minutes(), p.runtime_minutes))
        .collect();
    (
        scored.iter().sum::<f64>() / scored.len().max(1) as f64,
        scored.len(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let (inputs, setup_s) = repeat_setup(args, || setup(args), drop);
    let Inputs {
        jobs,
        cfg,
        model,
        gen_s,
        w2v_s,
    } = inputs;
    let mut out = Outcome::default();
    out.note("jobs", jobs.len());
    out.note("train_window", cfg.train_window);
    out.note("retrain_every", cfg.retrain_every);
    out.note("epochs", cfg.prionn.epochs);

    if args.trace {
        let mut probe_model = Prionn::new(
            cfg.prionn.clone(),
            &scripts_of(&jobs[..jobs.len().min(200)]),
        )
        .expect("build probe model");
        let pass = replay(&jobs, &cfg, model);
        out.attempted = jobs.len() as u64;
        out.set("workload.trace_generate_s", gen_s);
        out.set("text.w2v_train_s", w2v_s);
        out.set("core.online.retrain_share", pass.retrain_s / pass.wall_s);
        out.set("core.online.predict_share", pass.predict_s / pass.wall_s);
        out.set("core.online.retrains", pass.retrains as f64);
        out.set(
            "answers.accuracy_mean",
            trained_accuracy(&jobs, &pass.predictions).0,
        );
        out.set("trace.within_10pct_share", pass.spans.within_10pct_share());
        out.spans = Some(pass.spans.to_json());

        // One paper-sized retrain window, one epoch.
        let (big, _) = generate_jobs(args.seed ^ 0x500, 620);
        let window = &big[..500.min(big.len())];
        retrain_on(&mut probe_model, &window[..64]);
        let started = Instant::now();
        retrain_on(&mut probe_model, window);
        let epoch_s = started.elapsed().as_secs_f64();
        out.set(
            "core.retrain.s_per_epoch_500",
            epoch_s * 500.0 / window.len() as f64,
        );
        out.set("core.retrain.samples_per_s", window.len() as f64 / epoch_s);
        let refs = scripts_of(window);
        out.set(
            "nn.train_step.ms_b32",
            layers::train_step_seconds(&probe_model, &refs, 5) * 1e3,
        );
        let (encode_s, apply_s, bytes, roundtrip_s) = layers::checkpoint_costs(&mut probe_model, 7);
        out.set("core.checkpoint.encode_ms", encode_s * 1e3);
        out.set("core.checkpoint.apply_ms", apply_s * 1e3);
        out.set("store.checkpoint.bytes", bytes as f64);
        out.set("store.checkpoint.roundtrip_ms", roundtrip_s * 1e3);
        out.set(
            "core.predict.ms_b1",
            layers::predict_seconds(&mut probe_model, &refs, 1, 51) * 1e3,
        );
        return out;
    }

    out.set("setup_s", setup_s);
    let timed_black_box = || {
        let (started, cpu) = (Instant::now(), cpu_seconds());
        let predictions = run_online_prionn(&jobs, &cfg).expect("online protocol");
        (
            predictions,
            started.elapsed().as_secs_f64(),
            cpu_seconds() - cpu,
        )
    };
    let (black_box, first_s, first_cpu) = timed_black_box();
    let (black_box_again, second_s, second_cpu) = timed_black_box();
    let pass = replay(&jobs, &cfg, model);

    out.attempted = 3 * jobs.len() as u64;
    let n = jobs.len() as f64;
    out.set(
        "throughput_per_s",
        stats::best(&[n / first_s, n / second_s], Better::Higher),
    );
    out.set(
        "cpu_ms_per_op",
        stats::best(&[first_cpu * 1e3 / n, second_cpu * 1e3 / n], Better::Lower),
    );
    let (accuracy, scored) = trained_accuracy(&jobs, &black_box);
    out.note("accuracy_mean", accuracy);
    out.note("accuracy_jobs", scored);
    println!("# accuracy_mean {accuracy:.6} over {scored} trained predictions");
    out.note("retrains", pass.retrains);
    out.note("black_box_s", vec![first_s, second_s]);
    out.note("harness_pass_s", pass.wall_s);
    out.check(black_box == black_box_again, || {
        "run_online_prionn gave different predictions on the same slice".into()
    });
    set_latencies(&mut out, &pass.waits, pass.wall_s);

    out.check(pass.retrains >= 2, || {
        format!(
            "only {} retrain events: the slice exercises no warm start",
            pass.retrains
        )
    });
    out.check(black_box == pass.predictions, || {
        let at = black_box
            .iter()
            .zip(&pass.predictions)
            .position(|(a, b)| a != b)
            .unwrap_or(black_box.len().min(pass.predictions.len()));
        format!("harness pass diverges from run_online_prionn at submission {at}")
    });
    let (again, _) = trained_accuracy(&jobs, &pass.predictions);
    out.check((again - accuracy).abs() <= 1e-9, || {
        format!("accuracy differs between passes: {accuracy} vs {again}")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_shape_scales_with_seconds() {
        assert_eq!(cadence(15.0), 30);
        assert_eq!(cadence(1.0), 10);
        let cfg = online_config(30);
        assert_eq!(
            (cfg.train_window, cfg.retrain_every, cfg.min_history),
            (120, 30, 30)
        );
        assert!(!cfg.cold_start);
        assert_eq!(cfg.prionn.epochs, 1);
    }
}
