//! The online training/prediction protocol of §2.3.
//!
//! Jobs are processed in submission order. Each submission is predicted with
//! the current model; every `retrain_every` submissions the model is
//! retrained — warm-started — on the `train_window` most recently *completed*
//! jobs. A job counts as completed once its (submission + runtime) instant
//! has passed, mirroring how the paper feeds "jobs that have recently
//! completed" back into training.

use crate::predictor::{Prionn, PrionnConfig, Result};
use prionn_telemetry::Telemetry;
use prionn_workload::JobRecord;

/// Protocol parameters (paper values: window 500, cadence 100).
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Train on this many most-recently-completed jobs.
    pub train_window: usize,
    /// Retrain after every this many (non-cancelled) submissions.
    pub retrain_every: usize,
    /// Completed jobs required before the first training event.
    pub min_history: usize,
    /// Re-initialise the model at every retraining event instead of
    /// warm-starting (ablation of §2.3's knowledge-retention claim).
    pub cold_start: bool,
    /// Optional telemetry registry. When set, the protocol counts
    /// `online_fallback_predictions_total` and attaches the registry to the
    /// model (retrain and predict timings, per-layer timers); see
    /// `docs/OBSERVABILITY.md`.
    pub telemetry: Option<Telemetry>,
    /// Optional model-quality drift monitor. When set, each job's prediction
    /// (made at submission) is scored against its true usage at *completion*
    /// — the moment the truth becomes known — so the rolling relative
    /// accuracy tracks the protocol's live quality; retraining events mark
    /// the weights fresh. Fallback (untrained-model) predictions are not
    /// scored: they measure the user request, not the model.
    pub drift: Option<prionn_observe::DriftMonitor>,
    /// Predictor configuration.
    pub prionn: PrionnConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            train_window: 500,
            retrain_every: 100,
            min_history: 100,
            cold_start: false,
            telemetry: None,
            drift: None,
            prionn: PrionnConfig::default(),
        }
    }
}

/// A per-job prediction produced by the online protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPrediction {
    /// The predicted job's id.
    pub job_id: u64,
    /// Predicted runtime, minutes.
    pub runtime_minutes: f64,
    /// Predicted total bytes read.
    pub read_bytes: f64,
    /// Predicted total bytes written.
    pub write_bytes: f64,
    /// True if the model had been trained when this prediction was made
    /// (cold-start predictions fall back to the user request).
    pub model_trained: bool,
}

/// Run the online protocol over a trace slice with PRIONN.
///
/// Cancelled jobs are skipped (the paper excludes them). Before the first
/// training event the runtime prediction falls back to the user-requested
/// time and IO to zero.
pub fn run_online_prionn(jobs: &[JobRecord], cfg: &OnlineConfig) -> Result<Vec<JobPrediction>> {
    // Seed word2vec with the first chunk of scripts (historical corpus).
    let w2v_corpus: Vec<&str> = jobs.iter().take(200).map(|j| j.script.as_str()).collect();
    let model = Prionn::new(cfg.prionn.clone(), &w2v_corpus)?;
    resume_online_prionn(jobs, cfg, model).map(|(preds, _)| preds)
}

/// Continue the online protocol with a pre-loaded model — the warm-restart
/// path. `model` typically comes from [`Prionn::load`] on a checkpoint
/// written by an earlier run; if it has already been retrained
/// ([`Prionn::retrain_count`] > 0) predictions are served from the first
/// submission instead of falling back to the user request.
///
/// Returns the per-job predictions together with the final model so the
/// caller can checkpoint it again ([`Prionn::save`]) for the next restart.
pub fn resume_online_prionn(
    jobs: &[JobRecord],
    cfg: &OnlineConfig,
    mut model: Prionn,
) -> Result<(Vec<JobPrediction>, Prionn)> {
    // Only the cold-start ablation rebuilds the model mid-run; it re-seeds
    // word2vec from the same historical corpus a fresh run would use.
    let w2v_corpus: Vec<&str> = jobs.iter().take(200).map(|j| j.script.as_str()).collect();
    let mut predictions = Vec::with_capacity(jobs.len());

    // The protocol's own instrument (the model adds its own when attached).
    let fallbacks = cfg.telemetry.as_ref().map(|t| {
        t.counter(
            "online_fallback_predictions_total",
            "Predictions served from the user request (model untrained)",
        )
    });
    if let Some(t) = &cfg.telemetry {
        model.set_telemetry(t);
    }

    // (completion_time, index into jobs) of executed jobs, kept sorted by
    // completion as we sweep submission times forward.
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut completed: Vec<usize> = Vec::new();
    let mut trained = model.retrain_count() > 0;
    let mut since_retrain = 0usize;
    // Model predictions by job index, held until the job completes — that
    // is when the truth becomes known and the drift monitor can score it.
    let mut in_flight: Vec<Option<(f64, f64, f64)>> = if cfg.drift.is_some() {
        vec![None; jobs.len()]
    } else {
        Vec::new()
    };

    for (idx, job) in jobs.iter().enumerate() {
        if job.cancelled {
            continue;
        }
        let now = job.submit_time;
        // Move newly completed jobs into history.
        pending.sort_unstable_by_key(|&(end, _)| end);
        while let Some(&(end, j)) = pending.first() {
            if end <= now {
                if let Some(drift) = &cfg.drift {
                    if let Some((rt, rd, wr)) = in_flight[j].take() {
                        use prionn_observe::DriftHead;
                        drift.record(DriftHead::Runtime, jobs[j].runtime_minutes(), rt);
                        if cfg.prionn.predict_io {
                            drift.record(DriftHead::Read, jobs[j].bytes_read, rd);
                            drift.record(DriftHead::Write, jobs[j].bytes_written, wr);
                        }
                    }
                }
                completed.push(j);
                pending.remove(0);
            } else {
                break;
            }
        }

        // Retrain cadence.
        if completed.len() >= cfg.min_history && (!trained || since_retrain >= cfg.retrain_every) {
            let start = completed.len().saturating_sub(cfg.train_window);
            let window = &completed[start..];
            let scripts: Vec<&str> = window.iter().map(|&j| jobs[j].script.as_str()).collect();
            let runtimes: Vec<f64> = window.iter().map(|&j| jobs[j].runtime_minutes()).collect();
            if cfg.cold_start {
                // Ablation: throw the learned parameters away each event.
                model = Prionn::new(cfg.prionn.clone(), &w2v_corpus)?;
                if let Some(t) = &cfg.telemetry {
                    model.set_telemetry(t);
                }
            }
            let (reads, writes): (Vec<f64>, Vec<f64>) = if cfg.prionn.predict_io {
                (
                    window.iter().map(|&j| jobs[j].bytes_read).collect(),
                    window.iter().map(|&j| jobs[j].bytes_written).collect(),
                )
            } else {
                (Vec::new(), Vec::new())
            };
            model.retrain(&scripts, &runtimes, &reads, &writes)?;
            if let Some(drift) = &cfg.drift {
                drift.mark_weight_update();
            }
            trained = true;
            since_retrain = 0;
        }

        // Predict at submission.
        let prediction = if trained {
            let p = model.predict(&[job.script.as_str()])?[0];
            if cfg.drift.is_some() {
                in_flight[idx] = Some((p.runtime_minutes, p.read_bytes, p.write_bytes));
            }
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
        if !prediction.model_trained {
            if let Some(fallbacks) = &fallbacks {
                fallbacks.inc();
            }
        }
        predictions.push(prediction);
        since_retrain += 1;
        pending.push((job.submit_time + job.runtime_seconds, idx));
    }
    Ok((predictions, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prionn_workload::{Trace, TraceConfig, TracePreset};

    fn tiny_online_cfg() -> OnlineConfig {
        let mut prionn = PrionnConfig::reduced();
        prionn.grid = (16, 16);
        prionn.base_width = 2;
        prionn.runtime_bins = 64;
        prionn.io_bins = 16;
        prionn.epochs = 2;
        OnlineConfig {
            train_window: 60,
            retrain_every: 40,
            min_history: 30,
            cold_start: false,
            telemetry: None,
            drift: None,
            prionn,
        }
    }

    fn tiny_trace(n: usize) -> Trace {
        let mut cfg = TraceConfig::preset(TracePreset::CabLike, n);
        cfg.mean_interarrival_seconds = 200.0; // let jobs complete between arrivals
        Trace::generate(&cfg)
    }

    #[test]
    fn produces_one_prediction_per_executed_job() {
        let trace = tiny_trace(150);
        let preds = run_online_prionn(&trace.jobs, &tiny_online_cfg()).unwrap();
        let executed = trace.jobs.iter().filter(|j| !j.cancelled).count();
        assert_eq!(preds.len(), executed);
    }

    #[test]
    fn early_predictions_fall_back_to_user_request() {
        let trace = tiny_trace(150);
        let preds = run_online_prionn(&trace.jobs, &tiny_online_cfg()).unwrap();
        let first = &preds[0];
        assert!(!first.model_trained);
        let job = trace.jobs.iter().find(|j| j.id == first.job_id).unwrap();
        assert_eq!(first.runtime_minutes, job.requested_minutes());
    }

    #[test]
    fn model_eventually_trains_and_takes_over() {
        let trace = tiny_trace(300);
        let preds = run_online_prionn(&trace.jobs, &tiny_online_cfg()).unwrap();
        assert!(preds.iter().any(|p| p.model_trained), "model never trained");
        // Once trained, it stays trained.
        let first_trained = preds.iter().position(|p| p.model_trained).unwrap();
        assert!(preds[first_trained..].iter().all(|p| p.model_trained));
    }

    #[test]
    fn cold_start_also_runs_and_covers_all_jobs() {
        let trace = tiny_trace(200);
        let mut cfg = tiny_online_cfg();
        cfg.cold_start = true;
        let preds = run_online_prionn(&trace.jobs, &cfg).unwrap();
        let executed = trace.jobs.iter().filter(|j| !j.cancelled).count();
        assert_eq!(preds.len(), executed);
        assert!(preds.iter().any(|p| p.model_trained));
    }

    #[test]
    fn resume_with_a_trained_model_serves_from_the_first_submission() {
        let trace = tiny_trace(200);
        let cfg = tiny_online_cfg();
        // Train a model on the leading scripts, checkpoint it, and resume
        // the protocol from the restored copy: no cold-start fallback.
        let corpus: Vec<&str> = trace
            .jobs
            .iter()
            .take(60)
            .map(|j| j.script.as_str())
            .collect();
        let mut model = Prionn::new(cfg.prionn.clone(), &corpus).unwrap();
        let runtimes: Vec<f64> = trace
            .jobs
            .iter()
            .take(60)
            .map(|j| j.runtime_minutes())
            .collect();
        let reads: Vec<f64> = trace.jobs.iter().take(60).map(|j| j.bytes_read).collect();
        let writes: Vec<f64> = trace
            .jobs
            .iter()
            .take(60)
            .map(|j| j.bytes_written)
            .collect();
        model.retrain(&corpus, &runtimes, &reads, &writes).unwrap();
        let ck = model.to_checkpoint().unwrap();

        let restored = Prionn::from_checkpoint(&ck).unwrap();
        let (preds, final_model) = resume_online_prionn(&trace.jobs, &cfg, restored).unwrap();
        assert!(
            preds.iter().all(|p| p.model_trained),
            "warm model never falls back"
        );
        assert!(final_model.retrain_count() > 1, "protocol kept retraining");

        // Bit-identical restore ⇒ bit-identical resumed protocol.
        let restored_again = Prionn::from_checkpoint(&ck).unwrap();
        let (preds2, _) = resume_online_prionn(&trace.jobs, &cfg, restored_again).unwrap();
        assert_eq!(preds, preds2);
    }

    #[test]
    fn drift_monitor_scores_predictions_at_completion() {
        use prionn_observe::{DriftConfig, DriftMonitor};
        let trace = tiny_trace(300);
        let telemetry = Telemetry::default();
        let drift = DriftMonitor::new(
            &telemetry,
            DriftConfig {
                min_samples: 8,
                ..Default::default()
            },
        );
        let mut cfg = tiny_online_cfg();
        cfg.telemetry = Some(telemetry.clone());
        cfg.drift = Some(drift.clone());
        let preds = run_online_prionn(&trace.jobs, &cfg).unwrap();
        let trained = preds.iter().filter(|p| p.model_trained).count();
        assert!(trained > 0, "model never trained");

        let snap = drift.snapshot();
        let runtime = snap.heads.iter().find(|h| h.head == "runtime").unwrap();
        // Only trained predictions whose jobs completed before the sweep
        // ended are scored — never more than the trained predictions made.
        assert!(runtime.samples > 0, "no completions were scored");
        assert!(runtime.samples <= trained as u64);
        assert!((0.0..=1.0).contains(&runtime.relative_accuracy));
        assert!(snap.weight_updates > 0, "retrains mark the weights fresh");
        assert!(telemetry
            .prometheus()
            .contains(r#"drift_samples_total{head="runtime"}"#));
    }

    #[test]
    fn predictions_are_within_head_range() {
        let trace = tiny_trace(300);
        let preds = run_online_prionn(&trace.jobs, &tiny_online_cfg()).unwrap();
        for p in preds.iter().filter(|p| p.model_trained) {
            assert!((0.0..=960.0).contains(&p.runtime_minutes));
            assert!(p.read_bytes >= 0.0 && p.write_bytes >= 0.0);
        }
    }
}
