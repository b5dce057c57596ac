//! One fleet shard as a standalone process: a gateway behind the fleet
//! wire protocol, plus an ops endpoint for `/metrics` and `/readyz`.
//!
//! ```text
//! prionn-shard [--listen ADDR] [--ops ADDR] [--checkpoint PATH]
//!              [--replicas N] [--trace-namespace N]
//! ```
//!
//! The gateway records request span trees into a flight recorder served
//! on `/traces`, with trace ids minted in `--trace-namespace` (give each
//! shard of one fleet a distinct value, conventionally `2 + shard
//! index`, so a collector can stitch cross-shard traces without id
//! collisions; the router uses namespace 1).
//!
//! With `--checkpoint` the shard serves those weights; without it a small
//! demo model is trained at startup (sub-second), which is what the CI
//! fleet job and local experiments use. The bound addresses are printed
//! as `SHARD_ADDR=<addr>` and `OPS_ADDR=<addr>` lines so a parent process
//! can harvest the ephemeral ports. The shard then serves until stdin
//! reaches EOF (parent exit or explicit close), drains, and shuts down.

use std::io::Read as _;
use std::sync::Arc;
use std::time::Duration;

use prionn_fleet::shard::{ShardConfig, ShardServer};
use prionn_fleet::testkit;
use prionn_observe::ops::{OpsOptions, OpsServer, Readiness};
use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
use prionn_serve::Gateway;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let ops_bind = arg_value(&args, "--ops").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let replicas: usize = arg_value(&args, "--replicas")
        .map(|v| v.parse().expect("--replicas must be an integer"))
        .unwrap_or(1);
    let trace_namespace: u16 = arg_value(&args, "--trace-namespace")
        .map(|v| v.parse().expect("--trace-namespace must be a u16"))
        .unwrap_or(2);

    let recorder = FlightRecorder::new(FlightConfig::default());
    let mut gateway_cfg = testkit::demo_gateway_config();
    gateway_cfg.replicas = replicas;
    gateway_cfg.tracer = Some(Tracer::with_namespace(&recorder, trace_namespace));

    let gateway = match arg_value(&args, "--checkpoint") {
        Some(path) => Gateway::spawn_from_checkpoint(&path, gateway_cfg)
            .unwrap_or_else(|e| panic!("load checkpoint {path}: {e}")),
        None => Gateway::spawn(testkit::demo_model(), gateway_cfg).expect("spawn gateway"),
    };
    let gateway = Arc::new(gateway);

    let server = ShardServer::spawn(
        Arc::clone(&gateway),
        ShardConfig {
            bind: listen,
            ..ShardConfig::default()
        },
    )
    .expect("bind shard listener");

    let ready_gateway = Arc::clone(&gateway);
    let ops = OpsServer::start(
        &ops_bind,
        OpsOptions {
            telemetry: Some(gateway.telemetry().clone()),
            recorder: Some(recorder.clone()),
            readiness: Some(Arc::new(move || {
                let (ready, detail) = ready_gateway.readiness();
                Readiness { ready, detail }
            })),
            ..OpsOptions::default()
        },
    )
    .expect("bind ops listener");

    println!("SHARD_ADDR={}", server.addr());
    println!("OPS_ADDR={}", ops.addr());
    // The parent reads the lines above; make sure they are not buffered.
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    // Serve until the parent closes our stdin.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    server.drain(Duration::from_secs(2));
    server.shutdown();
    ops.shutdown();
    gateway.shutdown();
}
