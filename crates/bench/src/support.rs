//! Shared plumbing for the experiment modules.

use prionn_core::metrics::relative_accuracy;
use prionn_core::{JobPrediction, Prionn, PrionnConfig};
use prionn_workload::stats::{boxplot_summary, BoxplotSummary};
use prionn_workload::{JobRecord, Trace, TraceConfig, TracePreset};
use serde_json::json;
use std::collections::HashMap;

/// Generate the canonical Cab-like trace slice for an experiment.
///
/// The user population scales with the slice: a 1,200-job slice of Cab's
/// year covers ~1.5 days, during which only a fraction of the 492 users are
/// active. Keeping per-user submission density realistic preserves the
/// script-reuse structure the online protocol exploits.
pub fn cab_trace(n_jobs: usize) -> Trace {
    let mut cfg = TraceConfig::preset(TracePreset::CabLike, n_jobs);
    cfg.n_users = (n_jobs / 15).clamp(40, 492);
    Trace::generate(&cfg)
}

/// Index predictions by job id.
pub fn by_job_id(preds: &[JobPrediction]) -> HashMap<u64, JobPrediction> {
    preds.iter().map(|p| (p.job_id, *p)).collect()
}

/// Relative accuracies of runtime predictions over the executed jobs for
/// which the model had trained (the paper's warm-up period is excluded from
/// per-model comparisons so cold-start fallbacks don't leak into the
/// distributions).
pub fn runtime_accuracy(
    jobs: &[JobRecord],
    preds: &[JobPrediction],
    trained_only: bool,
) -> Vec<f64> {
    let map = by_job_id(preds);
    jobs.iter()
        .filter(|j| !j.cancelled)
        .filter_map(|j| {
            let p = map.get(&j.id)?;
            if trained_only && !p.model_trained {
                return None;
            }
            Some(relative_accuracy(j.runtime_minutes(), p.runtime_minutes))
        })
        .collect()
}

/// Ids of executed jobs in the steady-state portion of the stream: the jobs
/// after the first `skip_frac` of executed submissions.
///
/// The paper's distributions are dominated by a long-mature model (295k jobs
/// vs a few hundred of warm-up); on short slices the maturing phase is a
/// visible artefact, so experiments report steady-state numbers alongside
/// the full stream.
pub fn steady_ids(jobs: &[JobRecord], skip_frac: f64) -> std::collections::HashSet<u64> {
    let executed: Vec<u64> = jobs.iter().filter(|j| !j.cancelled).map(|j| j.id).collect();
    let skip = (executed.len() as f64 * skip_frac) as usize;
    executed[skip.min(executed.len())..]
        .iter()
        .copied()
        .collect()
}

/// Relative accuracies of (read, write) *bandwidth* predictions, derived the
/// paper's way: predicted bytes divided by predicted runtime.
pub fn bandwidth_accuracy(jobs: &[JobRecord], preds: &[JobPrediction]) -> (Vec<f64>, Vec<f64>) {
    let map = by_job_id(preds);
    let mut read = Vec::new();
    let mut write = Vec::new();
    for j in jobs.iter().filter(|j| !j.cancelled) {
        let Some(p) = map.get(&j.id) else { continue };
        if !p.model_trained {
            continue;
        }
        let secs = (p.runtime_minutes * 60.0).max(1.0);
        read.push(relative_accuracy(j.read_bandwidth(), p.read_bytes / secs));
        write.push(relative_accuracy(j.write_bandwidth(), p.write_bytes / secs));
    }
    (read, write)
}

/// Print a labelled boxplot row (the textual form of the paper's boxplots).
pub fn print_boxplot(label: &str, values: &[f64]) -> BoxplotSummary {
    let s = boxplot_summary(values);
    println!(
        "  {label:<22} mean={:6.1}%  median={:6.1}%  q1={:6.1}%  q3={:6.1}%  n={}",
        s.mean * 100.0,
        s.median * 100.0,
        s.q1 * 100.0,
        s.q3 * 100.0,
        values.len()
    );
    s
}

/// Serialize a boxplot summary.
pub fn boxplot_json(s: &BoxplotSummary) -> serde_json::Value {
    json!({
        "min": s.min, "q1": s.q1, "median": s.median,
        "q3": s.q3, "max": s.max, "mean": s.mean,
    })
}

/// Write an experiment's JSON next to the repo's `results/` directory.
pub fn write_results(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // non-fatal: results still printed
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, s);
    }
}

/// The model the serving benches (`serve`, `observe`) put behind their
/// gateways: the paper's default architecture and heads, trained for one
/// epoch on `scripts` (`prionn_fleet::testkit::demo_corpus`). A gate that
/// divides by a predict has to divide by a predict of the size the paper
/// serves — against a toy model's sub-millisecond forward it measures
/// thread hand-offs instead.
pub fn serving_model(scripts: &[String]) -> Prionn {
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let cfg = PrionnConfig {
        epochs: 1,
        ..Default::default()
    };
    let mut model = Prionn::new(cfg, &refs).expect("build serving model");
    let pick = |short: f64, long: f64| -> Vec<f64> {
        (0..refs.len())
            .map(|i| if i % 2 == 0 { short } else { long })
            .collect()
    };
    model
        .retrain(
            &refs,
            &pick(100.0, 700.0),
            &pick(1e7, 1e11),
            &pick(1e6, 1e10),
        )
        .expect("train serving model");
    model
}

/// The script of a bench's `n`-th request: `corpus[n % len]` plus a
/// `# req <n>` line, so no two requests share a script. `Prionn::predict`
/// answers a repeated script from memory; a bench cycling a small corpus
/// would time that memo instead of the model.
pub fn distinct_script(corpus: &[String], n: usize) -> String {
    format!("{}# req {n}\n", corpus[n % corpus.len()])
}

/// Wall-clock a closure in seconds.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_jobs() -> Vec<JobRecord> {
        (0..4u64)
            .map(|i| JobRecord {
                id: i,
                user: "u".into(),
                group: "g".into(),
                account: "a".into(),
                app: "x".into(),
                script: String::new(),
                submit_dir: "/".into(),
                submit_time: i,
                requested_seconds: 3600,
                nodes: 1,
                runtime_seconds: 600,
                bytes_read: 6.0e8,
                bytes_written: 1.2e9,
                mean_power_watts: 1_500.0,
                cancelled: i == 3,
            })
            .collect()
    }

    fn fake_preds() -> Vec<JobPrediction> {
        (0..3u64)
            .map(|i| JobPrediction {
                job_id: i,
                runtime_minutes: 10.0,
                read_bytes: 6.0e8,
                write_bytes: 1.2e9,
                model_trained: i > 0,
            })
            .collect()
    }

    #[test]
    fn runtime_accuracy_respects_trained_filter() {
        let jobs = fake_jobs();
        let preds = fake_preds();
        assert_eq!(runtime_accuracy(&jobs, &preds, false).len(), 3);
        assert_eq!(runtime_accuracy(&jobs, &preds, true).len(), 2);
        // Exact prediction: accuracy 1.
        let acc = runtime_accuracy(&jobs, &preds, true);
        assert!(acc.iter().all(|&a| (a - 1.0).abs() < 1e-9));
    }

    #[test]
    fn bandwidth_accuracy_uses_predicted_runtime() {
        let jobs = fake_jobs();
        let preds = fake_preds();
        let (read, write) = bandwidth_accuracy(&jobs, &preds);
        // Predicted runtime == actual, bytes == actual -> accuracy 1.
        assert!(read.iter().all(|&a| (a - 1.0).abs() < 1e-9));
        assert!(write.iter().all(|&a| (a - 1.0).abs() < 1e-9));
    }

    #[test]
    fn cancelled_jobs_are_excluded() {
        let jobs = fake_jobs();
        let mut preds = fake_preds();
        preds.push(JobPrediction {
            job_id: 3,
            runtime_minutes: 1.0,
            read_bytes: 0.0,
            write_bytes: 0.0,
            model_trained: true,
        });
        assert_eq!(runtime_accuracy(&jobs, &preds, false).len(), 3);
    }
}
