//! Printing one invocation's result, and the commands built on top of
//! single invocations: `run` (every workload, repetitions interleaved),
//! `trace`, `compare`, `calibrate` and `validate`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Map, Value};

use crate::metrics::{self, Metric};
use crate::stats::{self, Better, Verdict};
use crate::workloads::{self, Args, Outcome};

/// Where result and trace files go, relative to the directory the command
/// is run from (the repository root).
pub const OUT_DIR: &str = "benchmark/out";
const SPEC_FILE: &str = "BENCHMARK.json";
/// A pairing noisier than this is no end-to-end metric.
const DEMOTE_SPREAD: f64 = 0.10;

pub fn exit_code(outcome: &Outcome) -> i32 {
    i32::from(!outcome.errors.is_empty())
}

/// Print one invocation: readable lines first, then the one-line JSON
/// object the driver reads. Returns the process exit code.
pub fn print_invocation(name: &str, args: &Args, outcome: &Outcome) -> i32 {
    println!(
        "# {name} seed={} seconds={} trace={} nproc={} kernel={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        crate::api::kernel_tier().name()
    );
    let mut reported = Map::new();
    for metric in metrics::list(args.trace) {
        // Only a layer the workload does not cross may be missing.
        let value = match outcome.metrics.get(metric.name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                println!("# MISSING end-to-end metric {}", metric.name);
                return 2;
            }
        };
        if !args.trace || value != 0.0 {
            println!(
                "{:<34} {:>16.6} {:<8} ({} is better)",
                metric.name,
                value,
                metric.unit,
                metric.better.label()
            );
        }
        reported.insert(
            metric.name.to_string(),
            json!({ "value": value, "unit": metric.unit }),
        );
    }
    for e in &outcome.errors {
        println!("# INCORRECT: {e}");
    }
    if let Some(spans) = &outcome.spans {
        let dump = json!({ "workload": name, "seed": args.seed, "trace": spans.clone() });
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        match write_file(
            &path,
            &serde_json::to_string(&dump).expect("serialize spans"),
        ) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
    }
    println!(
        "#detail {}",
        serde_json::to_string(&Value::Object(outcome.detail.clone())).expect("serialize detail")
    );
    let line = json!({
        "correct": outcome.errors.is_empty(),
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Object(reported),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialize result")
    );
    exit_code(outcome)
}

/// Read and parse a JSON file; the error names the file.
fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child invocation, parsed.
struct Child {
    result: Value,
    detail: Value,
    stdout: String,
}

/// Re-execute this binary for one workload, in a fresh process so that peak
/// memory and pool state do not bleed between workloads or repetitions.
fn invoke(name: &str, args: &Args) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{name}: no result line ({e}); exit {:?}\n{stdout}{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .and_then(|d| serde_json::from_str(d).ok())
        .unwrap_or(Value::Null);
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{name}: incorrect or failed run\n{stdout}"));
    }
    Ok(Child {
        result,
        detail,
        stdout,
    })
}

static NULL: Value = Value::Null;

/// `v[path[0]][path[1]]…`, or null where a key is missing.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .unwrap_or(&NULL)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Options of `run`, `trace` and `calibrate`.
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub out: Option<PathBuf>,
}

/// Run every workload `reps` times, repetitions interleaved round-robin
/// across workloads, and collect per-run values and their medians.
pub fn run_set(opts: &RunOptions, quiet: bool) -> Result<Value, String> {
    let args = Args {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: false,
    };
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut runs: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for rep in 0..opts.reps {
        for name in workloads::NAMES {
            if !quiet {
                eprintln!("[run] repetition {} of {}: {name}", rep + 1, opts.reps);
            }
            let child = invoke(name, &args)?;
            for metric in metrics::END_TO_END {
                let v = metric_value(&child.result, metric.name)
                    .ok_or_else(|| format!("{name}: result lacks {}", metric.name))?;
                values.entry((name, metric.name)).or_default().push(v);
            }
            runs.entry(name).or_default().push(json!({
                "attempted": child.result.get("attempted").cloned().unwrap_or(Value::Null),
                "failed": child.result.get("failed").cloned().unwrap_or(Value::Null),
                "correct": true,
                "detail": child.detail,
            }));
        }
    }
    let mut per_workload = Map::new();
    for name in workloads::NAMES {
        let mut table = Map::new();
        for metric in metrics::END_TO_END {
            let v = &values[&(name, metric.name)];
            table.insert(
                metric.name.to_string(),
                json!({
                    "unit": metric.unit,
                    "better": metric.better.label(),
                    "median": stats::median(v),
                    "runs": v.clone(),
                }),
            );
        }
        per_workload.insert(
            name.to_string(),
            json!({ "metrics": Value::Object(table), "runs": runs[name].clone() }),
        );
    }
    Ok(json!({
        "kind": "prionn-benchmark-result",
        "seed": opts.seed,
        "seconds": opts.seconds,
        "repetitions": opts.reps,
        "nproc": nproc(),
        "kernel_tier": crate::api::kernel_tier().name(),
        "git_commit": git_commit(),
        "fixed_rates_per_s": {
            "submit_open": workloads::submit_open::RATE_PER_S,
            "serve_while_training": workloads::serve_while_training::RATE_PER_S,
        },
        "workloads": Value::Object(per_workload),
    }))
}

fn print_set(set: &Value) {
    for name in workloads::NAMES {
        println!("{name}");
        for metric in metrics::END_TO_END {
            let m = at(set, &["workloads", name, "metrics", metric.name]);
            let runs: Vec<String> = at(m, &["runs"])
                .as_array()
                .map(|r| {
                    r.iter()
                        .filter_map(Value::as_f64)
                        .map(|v| format!("{v:.4}"))
                        .collect()
                })
                .unwrap_or_default();
            println!(
                "  {:<20} {:>14.6} {:<6} ({} is better)  runs [{}]",
                metric.name,
                at(m, &["median"]).as_f64().unwrap_or(f64::NAN),
                metric.unit,
                metric.better.label(),
                runs.join(", ")
            );
        }
    }
}

pub fn cmd_run(opts: &RunOptions) -> i32 {
    let set = match run_set(opts, false) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("run failed: {e}");
            return 1;
        }
    };
    print_set(&set);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("result-seed{}.json", opts.seed)));
    let text = serde_json::to_string_pretty(&set).expect("serialize result set");
    if let Err(e) = write_file(&path, &text) {
        eprintln!("could not write {}: {e}", path.display());
        return 1;
    }
    println!("result written to {}", path.display());
    0
}

pub fn cmd_trace(opts: &RunOptions) -> i32 {
    let args = Args {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: true,
    };
    let mut columns: Vec<(&str, Value)> = Vec::new();
    for name in workloads::NAMES {
        eprintln!("[trace] {name}");
        match invoke(name, &args) {
            Ok(child) => {
                for line in child
                    .stdout
                    .lines()
                    .filter(|l| l.starts_with("# ") || l.starts_with("#  "))
                {
                    println!("{line}");
                }
                columns.push((name, child.result));
            }
            Err(e) => {
                eprintln!("trace failed: {e}");
                return 1;
            }
        }
    }
    println!("\nper-layer metrics (0 = the workload does not cross that layer)");
    print!("{:<34} {:<8}", "metric", "unit");
    for (name, _) in &columns {
        print!(" {:>20}", name);
    }
    println!();
    for metric in metrics::PER_LAYER {
        print!("{:<34} {:<8}", metric.name, metric.unit);
        for (_, result) in &columns {
            print!(
                " {:>20.4}",
                metric_value(result, metric.name).unwrap_or(0.0)
            );
        }
        println!();
    }
    0
}

/// `name → (better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn load_bounds() -> Result<BTreeMap<String, (Better, f64)>, String> {
    let spec = read_json(Path::new(SPEC_FILE))?;
    let mut out = BTreeMap::new();
    for m in at(&spec, &["end_to_end"])
        .as_array()
        .ok_or("end_to_end is not a list")?
    {
        let name = at(m, &["name"]).as_str().ok_or("metric without a name")?;
        let better = at(m, &["better"])
            .as_str()
            .and_then(Better::parse)
            .ok_or("bad direction")?;
        let bound = at(m, &["bound"]).as_f64().ok_or("metric without a bound")?;
        out.insert(name.to_string(), (better, bound));
    }
    Ok(out)
}

fn runs_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    at(set, &["workloads", workload, "metrics", metric, "runs"])
        .as_array()
        .map(|r| r.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Judge result set `b` against `a` with the bounds in `BENCHMARK.json`.
pub fn cmd_compare(a: &Path, b: &Path) -> i32 {
    let (a, b, bounds) = match (read_json(a), read_json(b), load_bounds()) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (a, b, bounds) => {
            for e in [a.err(), b.err(), bounds.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<22} {:<18} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound"
    );
    for name in workloads::NAMES {
        for metric in metrics::END_TO_END {
            let (ra, rb) = (
                runs_of(&a, name, metric.name),
                runs_of(&b, name, metric.name),
            );
            let Some(&(better, bound)) = bounds.get(metric.name) else {
                eprintln!("compare: {SPEC_FILE} lacks {}", metric.name);
                return 2;
            };
            if ra.is_empty() || rb.is_empty() {
                eprintln!("compare: no runs of {name}/{}", metric.name);
                return 2;
            }
            let v = stats::verdict(&ra, &rb, better, bound);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            let (ma, mb) = (stats::median(&ra), stats::median(&rb));
            println!(
                "{:<22} {:<18} {:>12.5} {:>12.5} {:>+7.2}% {:>6.0}%  {}",
                name,
                metric.name,
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    println!("{bad} pairing(s) worse or unresolved");
    i32::from(bad > 0)
}

/// `runs` back-to-back full runs of this commit, each on its own seed as
/// the driver does it; prints every pairing's spread and the bound each
/// metric needs, and with `write` stores the bounds in `BENCHMARK.json`.
pub fn cmd_calibrate(opts: &RunOptions, runs: usize, write: bool) -> i32 {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for run in 0..runs {
        eprintln!("[calibrate] run {} of {runs}", run + 1);
        let one = RunOptions {
            seed: opts.seed + run as u64,
            seconds: opts.seconds,
            reps: 1,
            out: None,
        };
        let set = match run_set(&one, true) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("calibrate failed: {e}");
                return 1;
            }
        };
        for name in workloads::NAMES {
            for metric in metrics::END_TO_END {
                values
                    .entry((name, metric.name))
                    .or_default()
                    .extend(runs_of(&set, name, metric.name));
            }
        }
    }
    let mut raw = Map::new();
    for ((workload, metric), v) in &values {
        raw.insert(format!("{workload}/{metric}"), Value::from(v.clone()));
    }
    let path = Path::new(OUT_DIR).join("calibration.json");
    if let Err(e) = write_file(
        &path,
        &serde_json::to_string_pretty(&Value::Object(raw)).expect("serialize"),
    ) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!(
        "nproc {} kernel {} runs {runs} seeds {}..{}",
        nproc(),
        crate::api::kernel_tier().name(),
        opts.seed,
        opts.seed + runs as u64 - 1
    );
    println!("| workload | metric | median | IQR / median |");
    println!("|---|---|---:|---:|");
    let mut needed: BTreeMap<&str, f64> = BTreeMap::new();
    let mut noisy = Vec::new();
    for name in workloads::NAMES {
        for metric in metrics::END_TO_END {
            let v = &values[&(name, metric.name)];
            let spread = stats::relative_spread(v);
            println!(
                "| {name} | {} | {:.5} | {:.2} % |",
                metric.name,
                stats::median(v),
                spread * 100.0
            );
            let bound = needed.entry(metric.name).or_insert(0.0);
            *bound = bound.max(spread);
            if spread > DEMOTE_SPREAD && metric.name != "setup_s" {
                noisy.push(format!("{name}/{} ({:.1} %)", metric.name, spread * 100.0));
            }
        }
    }
    println!("\nbound per metric = max(5 %, 3 × widest spread), rounded up, at most 25 %:");
    let bounds: BTreeMap<&str, f64> = needed
        .iter()
        .map(|(&name, &spread)| (name, bound_for(spread)))
        .collect();
    for (name, bound) in &bounds {
        println!(
            "  {name:<20} widest spread {:>6.2} %  bound {:.2}",
            needed[name] * 100.0,
            bound
        );
    }
    if noisy.is_empty() {
        println!(
            "no pairing spreads more than {:.0} %",
            DEMOTE_SPREAD * 100.0
        );
    } else {
        println!(
            "pairings over {:.0} % (candidates for demotion): {}",
            DEMOTE_SPREAD * 100.0,
            noisy.join(", ")
        );
    }
    if write {
        if let Err(e) = write_bounds(&bounds) {
            eprintln!("calibrate: {e}");
            return 1;
        }
        println!("bounds written to {SPEC_FILE}");
    }
    0
}

/// The bound a metric needs for its widest spread: three times it (so the
/// spread stays under a third of the bound), at least 5 %, at most the 25 %
/// the contract allows, rounded up to a whole percent.
pub fn bound_for(spread: f64) -> f64 {
    ((spread * 3.0).max(0.05) * 100.0).ceil().min(25.0) / 100.0
}

fn write_bounds(bounds: &BTreeMap<&str, f64>) -> Result<(), String> {
    let mut spec = read_json(Path::new(SPEC_FILE))?;
    let Value::Object(map) = &mut spec else {
        return Err(format!("{SPEC_FILE} is not an object"));
    };
    let Some(Value::Array(list)) = map.get("end_to_end").cloned() else {
        return Err("end_to_end is not a list".into());
    };
    let updated: Vec<Value> = list
        .into_iter()
        .map(|m| {
            let name = at(&m, &["name"]).as_str().unwrap_or("").to_string();
            match (m, bounds.get(name.as_str())) {
                (Value::Object(mut m), Some(&b)) => {
                    m.insert("bound".to_string(), Value::from(b));
                    Value::Object(m)
                }
                (m, _) => m,
            }
        })
        .collect();
    map.insert("end_to_end".to_string(), Value::Array(updated));
    let text = serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?;
    std::fs::write(SPEC_FILE, text + "\n").map_err(|e| format!("{SPEC_FILE}: {e}"))
}

/// Check `BENCHMARK.json` against the metric tables and, when given, a
/// result file against both.
pub fn cmd_validate(result: Option<&Path>) -> i32 {
    let problems = validate(result);
    for p in &problems {
        eprintln!("validate: {p}");
    }
    if problems.is_empty() {
        println!("validate: {SPEC_FILE} and result agree");
    }
    i32::from(!problems.is_empty())
}

fn validate(result: Option<&Path>) -> Vec<String> {
    let mut problems = Vec::new();
    let spec = match read_json(Path::new(SPEC_FILE)) {
        Ok(spec) => spec,
        Err(e) => return vec![e],
    };
    let names = |key: &str| -> Vec<String> {
        at(&spec, &[key])
            .as_array()
            .map(|l| {
                l.iter()
                    .filter_map(|m| at(m, &["name"]).as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    };
    let check = |key: &str, ours: &[Metric], limit: usize, problems: &mut Vec<String>| {
        let theirs = names(key);
        if theirs.len() > limit {
            problems.push(format!("{key}: {} metrics, limit {limit}", theirs.len()));
        }
        let ours: Vec<&str> = ours.iter().map(|m| m.name).collect();
        if theirs != ours {
            problems.push(format!("{key} differs from the harness's metric table"));
        }
        for n in &theirs {
            let ok = !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !ok {
                problems.push(format!("{key}: bad name {n:?}"));
            }
        }
    };
    check("end_to_end", metrics::END_TO_END, 16, &mut problems);
    check("per_layer", metrics::PER_LAYER, 128, &mut problems);
    if names("workloads") != workloads::NAMES {
        problems.push("workloads differ from the harness's".into());
    }
    if let Some(path) = result {
        match read_json(path) {
            Ok(set) => {
                for w in names("workloads") {
                    for m in names("end_to_end") {
                        if runs_of(&set, &w, &m).is_empty() {
                            problems.push(format!("result lacks {w}/{m}"));
                        }
                    }
                }
            }
            Err(e) => problems.push(e),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_spread() {
        assert_eq!(bound_for(0.0), 0.05);
        assert_eq!(bound_for(0.01), 0.05);
        assert_eq!(bound_for(0.031), 0.10);
        assert_eq!(bound_for(0.2), 0.25);
    }
}
