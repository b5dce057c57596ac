//! The repository benchmark.
//!
//! ```text
//! prionn-benchmark --workload NAME --seed N --seconds S --trace 0|1   one invocation (what the driver runs)
//! prionn-benchmark run       [--seed N] [--seconds S] [--reps R] [--smoke] [--out FILE]
//! prionn-benchmark trace     [--seed N] [--seconds S] [--smoke]
//! prionn-benchmark compare   A.json B.json
//! prionn-benchmark calibrate [--seed N] [--seconds S] [--runs N] [--write]
//! prionn-benchmark validate  [RESULT.json]
//! ```
//!
//! Run from the repository root. See `benchmark/README.md`.

mod api;
mod hostquiet;
mod layers;
mod loadgen;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use report::RunOptions;
use workloads::Args;

/// Measured seconds per invocation unless `--seconds` says otherwise; the
/// same number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;
const DEFAULT_SEED: u64 = 1;

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {flag}: {v:?}")),
    }
}

fn usage() -> i32 {
    eprintln!(
        "usage: prionn-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         prionn-benchmark run|trace|compare|calibrate|validate ... (see benchmark/README.md)\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    2
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds = parsed(
        args,
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    )?;
    let seed = parsed(args, "--seed", DEFAULT_SEED)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let options = |default_reps: usize| -> Result<RunOptions, String> {
        Ok(RunOptions {
            seed,
            seconds,
            reps: parsed(args, "--reps", if smoke { 1 } else { default_reps })?,
            out: value_of(args, "--out").map(PathBuf::from),
        })
    };
    match args.first().map(String::as_str) {
        Some("run") => Ok(report::cmd_run(&options(5)?)),
        Some("trace") => Ok(report::cmd_trace(&options(1)?)),
        Some("calibrate") => Ok(report::cmd_calibrate(
            &options(1)?,
            parsed(args, "--runs", 10)?,
            args.iter().any(|a| a == "--write"),
        )),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => Ok(report::cmd_compare(Path::new(a), Path::new(b))),
            _ => Ok(usage()),
        },
        Some("validate") => Ok(report::cmd_validate(args.get(1).map(Path::new))),
        _ => {
            let Some(name) = value_of(args, "--workload") else {
                return Ok(usage());
            };
            let run = Args {
                seed,
                seconds,
                trace: match value_of(args, "--trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                },
            };
            match workloads::run(name, &run) {
                Some(outcome) => Ok(report::print_invocation(name, &run, &outcome)),
                None => Err(format!("unknown workload {name:?}")),
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args).unwrap_or_else(|e| {
        eprintln!("prionn-benchmark: {e}");
        2
    });
    std::process::exit(code);
}
