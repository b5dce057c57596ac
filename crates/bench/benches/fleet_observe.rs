//! Fleet-plane overhead bench: router-path predict latency with
//! cross-shard trace propagation enabled versus disabled, over real TCP
//! against the same observed 2-shard fleet.
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench
//! fleet_observe`) and writes `BENCH_fleet_observe.json` to the
//! workspace root (override with `BENCH_FLEET_OBSERVE_OUT`). Flags:
//!
//! * `--smoke`   — fewer requests, for CI;
//! * `--enforce` — exit non-zero when the traced p50 exceeds the
//!   untraced p50 by more than 5% (the acceptance ceiling for the
//!   observability plane), or when the collector cannot scrape and
//!   merge both shards.
//!
//! Method mirrors the observe bench: both routers stay alive against
//! the *same* shards, and measurement rounds alternate traced/untraced
//! so CPU-frequency phases and background load cancel instead of
//! biasing one side. The traced side pays the full plane: router span
//! tree, trace-context bytes on the wire, shard-side strip + adopt, and
//! shard-local span recording (the fleet is spawned observed).

use std::time::{Duration, Instant};

use prionn_bench::support::distinct_script;
use prionn_fleet::router::{Router, RouterConfig};
use prionn_fleet::testkit::{demo_corpus, LocalFleet, ROUTER_TRACE_NAMESPACE};
use prionn_observe::{
    CollectorConfig, FleetCollector, FlightConfig, FlightRecorder, ShardTarget, Tracer,
};
use prionn_telemetry::Telemetry;
use prionn_workload::stats::percentile;
use serde_json::json;

/// `reqs` sequential single-script predicts, each a script `sent` has not
/// numbered before; returns per-request seconds.
fn drive(
    router: &Router,
    scripts: &[String],
    reqs: usize,
    seed: u64,
    sent: &mut usize,
) -> Vec<f64> {
    let mut lat = Vec::with_capacity(reqs);
    for r in 0..reqs {
        let user = (seed + r as u64).wrapping_mul(2_654_435_761) % 100_000;
        let one = [distinct_script(scripts, *sent)];
        *sent += 1;
        let t = Instant::now();
        router.predict(user, &one).unwrap();
        lat.push(t.elapsed().as_secs_f64());
    }
    lat
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let (rounds, reqs) = if smoke { (50, 20) } else { (100, 25) };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "fleet_observe bench ({mode} mode): {rounds} alternating rounds x {reqs} requests per side"
    );

    let scripts = demo_corpus();
    let mut fleet = LocalFleet::spawn_observed(2);

    let router_cfg = |tracer: Option<Tracer>| RouterConfig {
        request_timeout: Duration::from_secs(30),
        down_backoff: Duration::from_millis(100),
        tracer,
        ..RouterConfig::for_endpoints(fleet.endpoints())
    };
    let router_off = Router::new(router_cfg(None));
    let recorder = FlightRecorder::new(FlightConfig::default());
    let router_on = Router::new(router_cfg(Some(Tracer::with_namespace(
        &recorder,
        ROUTER_TRACE_NAMESPACE,
    ))));

    // Warm both routers' connection pools and every shard's replica.
    // Both routers reach the same shards, so one request count spans both.
    let mut sent = 0;
    drive(&router_off, &scripts, 20, 0, &mut sent);
    drive(&router_on, &scripts, 20, 0, &mut sent);

    let (mut lat_off, mut lat_on) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let seed = (round * reqs) as u64;
        lat_off.extend(drive(&router_off, &scripts, reqs, seed, &mut sent));
        lat_on.extend(drive(&router_on, &scripts, reqs, seed, &mut sent));
    }

    let p50_off = percentile(&lat_off, 50.0) * 1e3;
    let p50_on = percentile(&lat_on, 50.0) * 1e3;
    let p95_off = percentile(&lat_off, 95.0) * 1e3;
    let p95_on = percentile(&lat_on, 95.0) * 1e3;
    let overhead_pct = (p50_on / p50_off - 1.0) * 100.0;
    let spans_recorded = recorder.snapshot().len();

    println!("  tracing disabled: p50 {p50_off:.3} ms  p95 {p95_off:.3} ms");
    println!(
        "  tracing enabled:  p50 {p50_on:.3} ms  p95 {p95_on:.3} ms  \
         ({spans_recorded} router spans live in rings)"
    );
    println!("  p50 overhead: {overhead_pct:+.2}%");

    // The collector must scrape and merge both shards off the same run.
    let collector = FleetCollector::new(CollectorConfig {
        shards: fleet
            .ops_endpoints()
            .into_iter()
            .enumerate()
            .map(|(i, ops_addr)| ShardTarget {
                name: i.to_string(),
                ops_addr,
            })
            .collect(),
        telemetry: Some(Telemetry::new()),
        ..CollectorConfig::default()
    });
    let shards_scraped = collector.scrape_once();
    let merged = collector.merged_prometheus();
    let merged_has_predicts = merged.contains("serve_predict_seconds_count");
    println!(
        "  collector: scraped {shards_scraped}/2 shards, merged view {} bytes",
        merged.len()
    );
    collector.shutdown();
    drop(router_off);
    drop(router_on);
    fleet.shutdown();

    let report = json!({
        "bench": "fleet_observe",
        "mode": mode,
        "rounds": rounds,
        "requests_per_round": reqs,
        "tracing_disabled": { "p50_ms": p50_off, "p95_ms": p95_off },
        "tracing_enabled": { "p50_ms": p50_on, "p95_ms": p95_on },
        "p50_overhead_pct": overhead_pct,
        "ceiling_pct": 5.0,
        "router_spans_recorded": spans_recorded,
        "collector": {
            "shards_scraped": shards_scraped,
            "merged_has_predict_histogram": merged_has_predicts,
        },
    });
    let out = std::env::var("BENCH_FLEET_OBSERVE_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_fleet_observe.json"
        )
        .into()
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
        if shards_scraped != 2 || !merged_has_predicts {
            eprintln!(
                "FAIL: collector merged {shards_scraped}/2 shards \
                 (predict histogram present: {merged_has_predicts})"
            );
            std::process::exit(1);
        }
        println!("enforce: p50 overhead {overhead_pct:+.2}% <= 5%, merged 2/2 shards OK");
    }
}
