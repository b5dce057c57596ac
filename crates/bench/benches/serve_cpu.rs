//! CPU per request on the serving path: what batch fusion costs, and what
//! tracing and telemetry cost. Every gated figure is process CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`, all threads: clients, gateway, replicas,
//! compute pool, shard servers) divided by requests served, so a busy
//! neighbour on the host stretches wall time but not these ratios.
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench
//! serve_cpu`) and writes `BENCH_serve_cpu.json` to the workspace root
//! (override with `BENCH_SERVE_CPU_OUT`). Flags:
//!
//! * `--smoke`   — fewer rounds, for CI;
//! * `--enforce` — exit non-zero when any comparison's ratio crosses its
//!   ceiling.
//!
//! | comparison | on ÷ off | ceiling |
//! |---|---|---|
//! | `fusion`: 8 clients, gateway `max_batch` 8 ÷ `max_batch` 1 | fused ÷ unfused | 1.2 |
//! | `gateway_tracing`: one client, tracer ÷ none | traced ÷ untraced | 1.15 |
//! | `router_tracing`: one client over TCP to 2 shards, router tracer ÷ none | traced ÷ untraced | 1.15 |
//! | `telemetry`: `Prionn::predict` of 16 scripts, registry ÷ none | instrumented ÷ bare | 1.1 |
//! | `swap`: `apply_weights_checkpoint` of the serving model's weights ÷ copying the same payload bytes | apply ÷ copy | 3 |
//! | `retrain`: a 120-job retrain of the paper model, three heads ÷ the runtime head alone | per head fitted | 1.15 |
//!
//! Method: both sides of a comparison stay alive together and rounds
//! alternate off/on, so frequency phases hit both. The ratio is the median
//! over rounds of (on cpu-ms per request) ÷ (off cpu-ms per request) from
//! the same round pair. Every request carries a script no earlier request
//! carried (`distinct_script`), so `Prionn::predict`'s memo never answers
//! and each side pays a forward pass. The serving model is the paper's
//! default architecture (`serving_model`); the fleet's shards serve the
//! fleet test model, as the fleet tests do. In `swap` a "request" is one
//! apply (or one copy) of the whole weights payload, and in `retrain` one
//! head fitted, so its ratio is the 3-head retrain's CPU ÷ 3 × the 1-head
//! one's. Wall time per request, and its on ÷ off ratio (`wall_ratio`), are
//! recorded beside each figure and not gated.

use prionn_bench::support::{distinct_script, process_cpu_seconds, serving_model};
use prionn_core::{Prionn, PrionnConfig};
use prionn_fleet::router::{Router, RouterConfig};
use prionn_fleet::testkit::{demo_corpus, LocalFleet, ROUTER_TRACE_NAMESPACE};
use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
use prionn_serve::{Gateway, GatewayConfig};
use prionn_telemetry::Telemetry;
use prionn_workload::stats::percentile;
use serde_json::json;
use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
/// Fusion must not cost CPU. A fused forward does the same per-sample
/// work as a batch-1 one (the direct 3×3 kernels run per sample), so the
/// ratio reads about 1; what fusion buys is wall time, by spreading one
/// batch over the compute pool.
const FUSION_CEILING: f64 = 1.2;
/// Full tracing: span trees for every request and layer, on a batch-1
/// path where nothing amortises them.
const TRACING_CEILING: f64 = 1.15;
/// Per-layer timers, counters and histograms on the predict path.
const TELEMETRY_CEILING: f64 = 1.1;
/// A hot-swap checks the payload against the live model, then decodes it
/// straight into the live tensors: about one copy of the payload. A
/// decode into fresh tensors plus clones reads several times that.
const SWAP_CEILING: f64 = 3.0;
/// Applies (or copies) of the weights payload per round of `swap`.
const SWAPS_PER_ROUND: usize = 8;
/// `Prionn::retrain` fits its heads at once, one thread each; that must not
/// cost CPU over fitting them in turn (each head's fit being the one-head
/// retrain's). A three-head retrain maps the scripts once for three heads,
/// so the ratio reads below 1 (0.887 in full mode on 2 vCPUs).
const RETRAIN_CEILING: f64 = 1.15;
/// Jobs in a `retrain` batch: the retrain window of the benchmark's
/// `online_protocol` at its 15-second run.
const RETRAIN_JOBS: usize = 120;

/// One comparison's result: cpu-ms and wall-ms per request on each side
/// (all rounds pooled) and the median of the per-round-pair cpu ratios.
struct Comparison {
    name: &'static str,
    off_ms: f64,
    on_ms: f64,
    off_wall_ms: f64,
    on_wall_ms: f64,
    ratio: f64,
    ceiling: f64,
}

impl Comparison {
    fn json(&self) -> serde_json::Value {
        json!({
            "off_cpu_ms_per_request": self.off_ms,
            "on_cpu_ms_per_request": self.on_ms,
            "off_wall_ms_per_request": self.off_wall_ms,
            "on_wall_ms_per_request": self.on_wall_ms,
            "median_round_ratio": self.ratio,
            "ceiling": self.ceiling,
            "wall_ratio": self.on_wall_ms / self.off_wall_ms,
        })
    }
}

/// CPU seconds, wall seconds and requests summed over one side's rounds.
#[derive(Default)]
struct Side {
    cpu_s: f64,
    wall_s: f64,
    reqs: usize,
}

impl Side {
    /// Serve one round and return its cpu seconds per request.
    fn round(&mut self, serve: &mut impl FnMut() -> usize) -> f64 {
        let (cpu, wall) = (process_cpu_seconds(), Instant::now());
        let n = serve();
        let cpu = process_cpu_seconds() - cpu;
        self.cpu_s += cpu;
        self.wall_s += wall.elapsed().as_secs_f64();
        self.reqs += n;
        cpu / n as f64
    }

    fn ms_per_request(&self, seconds: f64) -> f64 {
        seconds * 1e3 / self.reqs as f64
    }
}

/// Run `rounds` alternating round pairs of `off` then `on`; each call
/// serves one round and returns how many requests it served.
fn alternate(
    name: &'static str,
    ceiling: f64,
    rounds: usize,
    mut off: impl FnMut() -> usize,
    mut on: impl FnMut() -> usize,
) -> Comparison {
    let (mut off_side, mut on_side) = (Side::default(), Side::default());
    let ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let off_cpu = off_side.round(&mut off);
            on_side.round(&mut on) / off_cpu
        })
        .collect();
    let c = Comparison {
        name,
        off_ms: off_side.ms_per_request(off_side.cpu_s),
        on_ms: on_side.ms_per_request(on_side.cpu_s),
        off_wall_ms: off_side.ms_per_request(off_side.wall_s),
        on_wall_ms: on_side.ms_per_request(on_side.wall_s),
        ratio: percentile(&ratios, 50.0),
        ceiling,
    };
    println!(
        "  {name:<16} cpu-ms/req off {:.3} on {:.3}  median ratio {:.3} (ceiling {ceiling})  \
         wall-ms/req off {:.3} on {:.3}",
        c.off_ms, c.on_ms, c.ratio, c.off_wall_ms, c.on_wall_ms
    );
    c
}

/// A gateway over the checkpointed weights with `max_batch` and `tracer`.
fn gateway(ck: &std::path::Path, max_batch: usize, tracer: Option<Tracer>) -> Gateway {
    Gateway::spawn_from_checkpoint(
        ck,
        GatewayConfig {
            replicas: 1,
            max_batch,
            max_wait: Duration::from_micros(500),
            tracer,
            ..GatewayConfig::default()
        },
    )
    .unwrap()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let (rounds, reqs) = if smoke { (25, 16) } else { (40, 24) };
    let mode = if smoke { "smoke" } else { "full" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("serve_cpu bench ({mode} mode): {rounds} alternating round pairs per comparison");

    let scripts = demo_corpus();
    let ck = std::env::temp_dir().join(format!("prionn_bench_serve_cpu_{}.ck", std::process::id()));
    serving_model(&scripts).save(&ck).unwrap();
    // One counter for the whole run: no script is ever sent twice.
    let sent = Cell::new(0usize);
    let fresh = |n: usize| -> Vec<String> {
        (0..n)
            .map(|_| {
                sent.set(sent.get() + 1);
                distinct_script(&scripts, sent.get())
            })
            .collect()
    };

    // Fusion: CLIENTS closed-loop clients, `reqs` single-script requests
    // each, against a fusing and a non-fusing gateway.
    let clients = |gw: &Gateway, n: usize| {
        let batch = fresh(CLIENTS * n);
        std::thread::scope(|s| {
            for chunk in batch.chunks(n) {
                s.spawn(move || {
                    for script in chunk {
                        gw.predict(std::slice::from_ref(script)).unwrap();
                    }
                });
            }
        });
        batch.len()
    };
    let unfused = gateway(&ck, 1, None);
    let fused = gateway(&ck, CLIENTS, None);
    // Warm both at their batch shape: scratch is sized per shape.
    clients(&unfused, 2);
    clients(&fused, 2);
    let before = fused.stats();
    let fusion = alternate(
        "fusion",
        FUSION_CEILING,
        rounds,
        || clients(&unfused, reqs),
        || clients(&fused, reqs),
    );
    let after = fused.stats();
    let mean_batch = (after.scripts_predicted - before.scripts_predicted) as f64
        / (after.batches_served - before.batches_served).max(1) as f64;
    println!("  fused gateway: {mean_batch:.2} scripts per batch");
    unfused.shutdown();
    fused.shutdown();

    // Gateway tracing: one sequential client, batch 1.
    let one_by_one = |gw: &Gateway| {
        for script in fresh(reqs) {
            gw.predict(&[script]).unwrap();
        }
        reqs
    };
    let recorder = FlightRecorder::new(FlightConfig::default());
    let plain = gateway(&ck, 1, None);
    let traced = gateway(&ck, 1, Some(Tracer::new(&recorder)));
    one_by_one(&plain);
    one_by_one(&traced);
    let gateway_tracing = alternate(
        "gateway_tracing",
        TRACING_CEILING,
        rounds,
        || one_by_one(&plain),
        || one_by_one(&traced),
    );
    plain.shutdown();
    traced.shutdown();

    // Router tracing: one sequential client over TCP to two observed
    // shards, the router untraced vs traced (span tree, trace context on
    // the wire, shard-side adoption).
    let mut fleet = LocalFleet::spawn_observed(2);
    let router_cfg = |tracer: Option<Tracer>| RouterConfig {
        request_timeout: Duration::from_secs(30),
        down_backoff: Duration::from_millis(100),
        tracer,
        ..RouterConfig::for_endpoints(fleet.endpoints())
    };
    let router_recorder = FlightRecorder::new(FlightConfig::default());
    let router_off = Router::new(router_cfg(None));
    let router_on = Router::new(router_cfg(Some(Tracer::with_namespace(
        &router_recorder,
        ROUTER_TRACE_NAMESPACE,
    ))));
    let via_router = |router: &Router| {
        for (user, script) in fresh(reqs).into_iter().enumerate() {
            let user = (user as u64).wrapping_mul(2_654_435_761) % 100_000;
            router.predict(user, &[script]).unwrap();
        }
        reqs
    };
    via_router(&router_off);
    via_router(&router_on);
    let router_tracing = alternate(
        "router_tracing",
        TRACING_CEILING,
        rounds,
        || via_router(&router_off),
        || via_router(&router_on),
    );
    drop(router_off);
    drop(router_on);
    fleet.shutdown();

    // Telemetry: the same weights predicting 16 fresh scripts per call,
    // bare vs with a registry attached (per-layer timers and counters).
    let mut bare = Prionn::load(&ck).unwrap();
    let mut instrumented = Prionn::load(&ck).unwrap();
    let _ = std::fs::remove_file(&ck);
    instrumented.set_telemetry(&Telemetry::default());
    let predict16 = |m: &mut Prionn| {
        let batch = fresh(16);
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        m.predict(&refs).unwrap();
        batch.len()
    };
    predict16(&mut bare);
    predict16(&mut instrumented);
    let telemetry = alternate(
        "telemetry",
        TELEMETRY_CEILING,
        rounds,
        || predict16(&mut bare),
        || predict16(&mut instrumented),
    );

    // Swap: the serving model's weights applied onto a model of the same
    // architecture, against a plain copy of the same payload bytes into
    // buffers already allocated.
    let weights = bare.weights_checkpoint().unwrap();
    let payload: Vec<&[u8]> = weights
        .section_names()
        .map(|name| weights.get(name).unwrap())
        .collect();
    let mut copies: Vec<Vec<u8>> = payload.iter().map(|p| vec![0; p.len()]).collect();
    let mut copy_payload = || {
        for _ in 0..SWAPS_PER_ROUND {
            for (dst, src) in copies.iter_mut().zip(&payload) {
                dst.copy_from_slice(black_box(src));
            }
            black_box(&mut copies);
        }
        SWAPS_PER_ROUND
    };
    let mut apply = || {
        for _ in 0..SWAPS_PER_ROUND {
            bare.apply_weights_checkpoint(black_box(&weights)).unwrap();
        }
        SWAPS_PER_ROUND
    };
    copy_payload();
    apply();
    let swap = alternate("swap", SWAP_CEILING, rounds, copy_payload, apply);
    let payload_bytes: usize = payload.iter().map(|p| p.len()).sum();

    // Retrain: one epoch over RETRAIN_JOBS fresh jobs, the paper model with
    // its three heads against the same model predicting runtime alone.
    let jobs = fresh(RETRAIN_JOBS);
    let refs: Vec<&str> = jobs.iter().map(String::as_str).collect();
    let runtimes: Vec<f64> = (0..refs.len()).map(|i| (i % 7 * 90 + 30) as f64).collect();
    let bytes: Vec<f64> = (0..refs.len())
        .map(|i| 10f64.powi(6 + i as i32 % 5))
        .collect();
    let retrain_model = |predict_io: bool| {
        let cfg = PrionnConfig {
            epochs: 1,
            predict_io,
            ..PrionnConfig::default()
        };
        Prionn::new(cfg, &refs).unwrap()
    };
    let (mut one_head, mut three_heads) = (retrain_model(false), retrain_model(true));
    let fit = |m: &mut Prionn, heads: usize| {
        m.retrain(&refs, &runtimes, &bytes, &bytes).unwrap();
        heads
    };
    fit(&mut one_head, 1);
    fit(&mut three_heads, 3);
    let retrain = alternate(
        "retrain",
        RETRAIN_CEILING,
        rounds,
        || fit(&mut one_head, 1),
        || fit(&mut three_heads, 3),
    );

    let report = json!({
        "bench": "serve_cpu",
        "mode": mode,
        "cores": cores,
        "rounds": rounds,
        "clients": CLIENTS,
        "requests_per_client_round": reqs,
        "fused_mean_scripts_per_batch": mean_batch,
        "fusion": fusion.json(),
        "gateway_tracing": gateway_tracing.json(),
        "router_tracing": router_tracing.json(),
        "telemetry": telemetry.json(),
        "swap_payload_bytes": payload_bytes,
        "swap": swap.json(),
        "retrain_jobs": RETRAIN_JOBS,
        "retrain": retrain.json(),
    });
    let out = std::env::var("BENCH_SERVE_CPU_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_cpu.json").into()
    });
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {out}");

    if enforce {
        let all = [
            fusion,
            gateway_tracing,
            router_tracing,
            telemetry,
            swap,
            retrain,
        ];
        let failed: Vec<&Comparison> = all.iter().filter(|c| c.ratio > c.ceiling).collect();
        for c in &failed {
            eprintln!(
                "FAIL: {} on/off cpu-ms per request {:.3} > ceiling {}",
                c.name, c.ratio, c.ceiling
            );
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
        println!(
            "enforce: fusion, tracing, telemetry, swap and retrain ratios within their ceilings OK"
        );
    }
}
