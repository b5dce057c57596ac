//! Observability overhead bench: `Gateway::predict` p50 latency with
//! request-scoped tracing + flight recording enabled versus disabled.
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench observe`)
//! and writes `BENCH_observe.json` to the workspace root (override with
//! `BENCH_OBSERVE_OUT`). Flags:
//!
//! * `--smoke`   — fewer requests, for CI;
//! * `--enforce` — exit non-zero when the traced p50 exceeds the untraced
//!   p50 by more than 5% (the PR's acceptance ceiling).
//!
//! Method: one sequential client, batch size 1, no linger — the purest
//! per-request path, so the span-tree cost is not hidden inside batching
//! wait time. Both gateways serve identical weights (checkpoint handover)
//! and stay alive together; measurement rounds alternate traced/untraced
//! so clock drift and cache state cancel instead of biasing one side.

use prionn_bench::support::{distinct_script, serving_model};
use prionn_fleet::testkit::demo_corpus;
use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
use prionn_serve::{Gateway, GatewayConfig};
use prionn_workload::stats::percentile;
use serde_json::json;
use std::time::{Duration, Instant};

/// `reqs` sequential single-script predicts, each a script `sent` has not
/// numbered before; returns per-request seconds.
fn drive(gw: &Gateway, scripts: &[String], reqs: usize, sent: &mut usize) -> Vec<f64> {
    let mut lat = Vec::with_capacity(reqs);
    for _ in 0..reqs {
        let one = [distinct_script(scripts, *sent)];
        *sent += 1;
        let t = Instant::now();
        gw.predict(&one).unwrap();
        lat.push(t.elapsed().as_secs_f64());
    }
    lat
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    // Many short alternating chunks: CPU-frequency phases and background
    // load hit both sides equally instead of biasing whichever side was
    // measured during the slow phase.
    let (rounds, reqs) = if smoke { (50, 20) } else { (100, 25) };
    let mode = if smoke { "smoke" } else { "full" };
    println!("observe bench ({mode} mode): {rounds} alternating rounds x {reqs} sequential requests per side");

    let scripts = demo_corpus();
    let model = serving_model(&scripts);
    let ck_path = std::env::temp_dir().join("prionn_bench_observe.ck");
    model.save(&ck_path).unwrap();

    let base_cfg = GatewayConfig {
        replicas: 1,
        max_batch: 1,
        max_wait: Duration::from_micros(100),
        ..GatewayConfig::default()
    };
    let gw_off = Gateway::spawn_from_checkpoint(&ck_path, base_cfg.clone()).unwrap();
    let recorder = FlightRecorder::new(FlightConfig::default());
    let gw_on = Gateway::spawn_from_checkpoint(
        &ck_path,
        GatewayConfig {
            tracer: Some(Tracer::new(&recorder)),
            ..base_cfg
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&ck_path);

    // Warm both replicas (first batch pays one-time scratch setup).
    let mut sent = 0;
    drive(&gw_off, &scripts, 20, &mut sent);
    drive(&gw_on, &scripts, 20, &mut sent);

    let (mut lat_off, mut lat_on) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        lat_off.extend(drive(&gw_off, &scripts, reqs, &mut sent));
        lat_on.extend(drive(&gw_on, &scripts, reqs, &mut sent));
    }
    gw_off.shutdown();
    gw_on.shutdown();

    let p50_off = percentile(&lat_off, 50.0) * 1e3;
    let p50_on = percentile(&lat_on, 50.0) * 1e3;
    let p95_off = percentile(&lat_off, 95.0) * 1e3;
    let p95_on = percentile(&lat_on, 95.0) * 1e3;
    let overhead_pct = (p50_on / p50_off - 1.0) * 100.0;
    let spans_recorded = recorder.snapshot().len();

    println!("  tracing disabled: p50 {p50_off:.3} ms  p95 {p95_off:.3} ms");
    println!(
        "  tracing enabled:  p50 {p50_on:.3} ms  p95 {p95_on:.3} ms  \
         ({spans_recorded} spans live in rings, {} dropped)",
        recorder.dropped()
    );
    println!("  p50 overhead: {overhead_pct:+.2}%");

    let report = json!({
        "bench": "observe",
        "mode": mode,
        "rounds": rounds,
        "requests_per_round": reqs,
        "tracing_disabled": { "p50_ms": p50_off, "p95_ms": p95_off },
        "tracing_enabled": { "p50_ms": p50_on, "p95_ms": p95_on },
        "p50_overhead_pct": overhead_pct,
        "ceiling_pct": 5.0,
    });
    let out = std::env::var("BENCH_OBSERVE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_observe.json").into()
    });
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {out}");

    if enforce {
        if overhead_pct > 5.0 {
            eprintln!(
                "FAIL: traced p50 {p50_on:.3} ms is {overhead_pct:.2}% over untraced \
                 {p50_off:.3} ms (> 5% ceiling)"
            );
            std::process::exit(1);
        }
        println!("enforce: p50 overhead {overhead_pct:+.2}% <= 5% OK");
    }
}
