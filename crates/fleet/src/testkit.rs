//! Support for fleet tests, benches, and the bundled binaries: a small
//! trained model and a helper that boots an N-shard fleet in-process.
//!
//! Everything here runs real components — real gateways, real TCP
//! listeners on ephemeral loopback ports — just sized small enough to
//! start in well under a second, so integration tests and the `loadgen`
//! binary's default mode can stand up a whole fleet without fixtures on
//! disk.

use std::sync::Arc;
use std::time::Duration;

use prionn_core::{Prionn, PrionnConfig};
use prionn_observe::{FlightConfig, FlightRecorder, OpsOptions, OpsServer, Tracer};
use prionn_serve::{Gateway, GatewayConfig};
use prionn_store::Checkpoint;
use prionn_telemetry::Telemetry;

use crate::shard::{ShardConfig, ShardServer};

/// Trace-id namespace of the fleet router (shard `i` gets `2 + i`), so
/// span ids allocated on different processes of one fleet never collide
/// when the collector stitches them back together.
pub const ROUTER_TRACE_NAMESPACE: u16 = 1;

/// A small mixed corpus of short and long job scripts.
pub fn demo_corpus() -> Vec<String> {
    let mut scripts = Vec::new();
    for i in 0..16 {
        scripts.push(format!(
            "#!/bin/bash\n#SBATCH -N 2\n#SBATCH -t 02:00:00\nmodule load mkl\nsrun ./short_app run{i}\n"
        ));
        scripts.push(format!(
            "#!/bin/bash\n#SBATCH -N 64\n#SBATCH -t 12:00:00\nmodule load big\nexport OMP_NUM_THREADS=4\nsrun ./long_app case{i}\nsync\n"
        ));
    }
    scripts
}

/// A quickly-trained model over [`demo_corpus`]: real weights, one epoch,
/// small grid — enough structure for predictions to be deterministic and
/// epoch handling to be exercised end to end.
pub fn demo_model() -> Prionn {
    let scripts = demo_corpus();
    let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let cfg = PrionnConfig {
        grid: (16, 16),
        base_width: 2,
        runtime_bins: 64,
        predict_io: false,
        epochs: 1,
        batch_size: 32,
        ..Default::default()
    };
    let mut model = Prionn::new(cfg, &refs).expect("build demo model");
    let runtimes: Vec<f64> = (0..refs.len())
        .map(|i| if i % 2 == 0 { 100.0 } else { 700.0 })
        .collect();
    model
        .retrain(&refs, &runtimes, &[], &[])
        .expect("train demo model");
    model
}

/// [`demo_model`] serialised to the checkpoint wire format.
pub fn demo_checkpoint() -> Checkpoint {
    demo_model().to_checkpoint().expect("checkpoint demo model")
}

/// A gateway config sized for fleet tests: single replica, aggressive
/// batching window, bounded queue.
pub fn demo_gateway_config() -> GatewayConfig {
    GatewayConfig {
        replicas: 1,
        max_batch: 16,
        max_wait: Duration::from_micros(500),
        queue_cap: 256,
        ..GatewayConfig::default()
    }
}

/// One shard of a [`LocalFleet`]: the gateway plus the TCP server
/// fronting it.
pub struct LocalShard {
    /// The shard's gateway (shared so callers can inspect stats/epoch).
    pub gateway: Arc<Gateway>,
    /// The TCP front door.
    pub server: ShardServer,
    /// The shard's flight recorder, when booted observed.
    pub recorder: Option<FlightRecorder>,
    /// The shard's ops endpoint (`/metrics`, `/traces`, …), when booted
    /// observed.
    pub ops: Option<OpsServer>,
}

/// An N-shard fleet running in this process on ephemeral loopback ports.
///
/// Shards can be killed abruptly ([`LocalFleet::kill`]) and respawned at
/// a new port ([`LocalFleet::respawn`]) to drive failure drills.
pub struct LocalFleet {
    checkpoint: Checkpoint,
    gateway_cfg: GatewayConfig,
    shard_cfg: ShardConfig,
    observed: bool,
    shards: Vec<Option<LocalShard>>,
}

impl LocalFleet {
    /// Boot `n` shards from one [`demo_checkpoint`] with the demo gateway
    /// config.
    pub fn spawn(n: usize) -> LocalFleet {
        Self::spawn_with(n, demo_gateway_config(), ShardConfig::default())
    }

    /// Boot `n` shards with explicit gateway/shard configs. The configs
    /// are kept as templates so [`respawn`](Self::respawn) rebuilds a
    /// shard identically.
    pub fn spawn_with(n: usize, gateway_cfg: GatewayConfig, shard_cfg: ShardConfig) -> LocalFleet {
        Self::spawn_inner(n, gateway_cfg, shard_cfg, false)
    }

    /// Boot `n` *observed* shards: each gets its own telemetry registry,
    /// flight recorder, namespaced [`Tracer`] (`2 + i`, so stitched span
    /// ids never collide with the router's namespace `1`), and an ops
    /// endpoint on an ephemeral port — everything a `FleetCollector`
    /// (`prionn_observe::FleetCollector`) needs to scrape.
    pub fn spawn_observed(n: usize) -> LocalFleet {
        Self::spawn_inner(n, demo_gateway_config(), ShardConfig::default(), true)
    }

    fn spawn_inner(
        n: usize,
        gateway_cfg: GatewayConfig,
        shard_cfg: ShardConfig,
        observed: bool,
    ) -> LocalFleet {
        let checkpoint = demo_checkpoint();
        let mut fleet = LocalFleet {
            checkpoint,
            gateway_cfg,
            shard_cfg,
            observed,
            shards: Vec::new(),
        };
        for i in 0..n {
            let shard = fleet.boot_shard(i);
            fleet.shards.push(Some(shard));
        }
        fleet
    }

    fn boot_shard(&self, i: usize) -> LocalShard {
        let model = Prionn::from_checkpoint(&self.checkpoint).expect("model from checkpoint");
        let mut gateway_cfg = self.gateway_cfg.clone();
        let observability = self.observed.then(|| {
            let telemetry = Telemetry::new();
            let recorder = FlightRecorder::new(FlightConfig::default());
            recorder.attach_telemetry(&telemetry);
            let namespace = ROUTER_TRACE_NAMESPACE + 1 + u16::try_from(i).expect("shard index");
            gateway_cfg.telemetry = Some(telemetry.clone());
            gateway_cfg.tracer = Some(Tracer::with_namespace(&recorder, namespace));
            (telemetry, recorder)
        });
        let gateway = Arc::new(Gateway::spawn(model, gateway_cfg).expect("spawn gateway"));
        let server = ShardServer::spawn(Arc::clone(&gateway), self.shard_cfg.clone())
            .expect("spawn shard server");
        let (recorder, ops) = match observability {
            Some((telemetry, recorder)) => {
                let ops = OpsServer::start(
                    "127.0.0.1:0",
                    OpsOptions {
                        telemetry: Some(telemetry),
                        recorder: Some(recorder.clone()),
                        ..OpsOptions::default()
                    },
                )
                .expect("start shard ops endpoint");
                (Some(recorder), Some(ops))
            }
            None => (None, None),
        };
        LocalShard {
            gateway,
            server,
            recorder,
            ops,
        }
    }

    /// Number of shard slots (killed shards still count).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the fleet has no shard slots.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The live shard at `i`; panics if it was killed.
    pub fn shard(&self, i: usize) -> &LocalShard {
        self.shards[i].as_ref().expect("shard was killed")
    }

    /// Endpoint strings in shard order. Panics if any shard has been
    /// killed — query while all shards are up (typically at boot, to
    /// build the router config).
    pub fn endpoints(&self) -> Vec<String> {
        (0..self.shards.len())
            .map(|i| self.shard(i).server.addr().to_string())
            .collect()
    }

    /// Ops-endpoint addresses in shard order. Panics unless the fleet
    /// was booted with [`spawn_observed`](Self::spawn_observed) and all
    /// shards are up.
    pub fn ops_endpoints(&self) -> Vec<String> {
        (0..self.shards.len())
            .map(|i| {
                self.shard(i)
                    .ops
                    .as_ref()
                    .expect("fleet was not spawned observed")
                    .addr()
                    .to_string()
            })
            .collect()
    }

    /// Abruptly kill shard `i`: close its listener and connections and
    /// stop its gateway, with no drain. Simulates process loss.
    pub fn kill(&mut self, i: usize) {
        if let Some(shard) = self.shards[i].take() {
            // Gateway first: it completes queued requests (typed Stopped),
            // which releases each connection's writer, so the server's
            // thread joins cannot wedge.
            shard.gateway.shutdown();
            shard.server.shutdown();
            if let Some(ops) = shard.ops {
                ops.shutdown();
            }
        }
    }

    /// Bring shard `i` back on a fresh ephemeral port (a replacement
    /// process). Returns the new endpoint.
    pub fn respawn(&mut self, i: usize) -> String {
        assert!(self.shards[i].is_none(), "shard {i} is still running");
        let shard = self.boot_shard(i);
        let endpoint = shard.server.addr().to_string();
        self.shards[i] = Some(shard);
        endpoint
    }

    /// Stop everything still running.
    pub fn shutdown(&mut self) {
        for slot in &mut self.shards {
            if let Some(shard) = slot.take() {
                shard.gateway.shutdown();
                shard.server.shutdown();
                if let Some(ops) = shard.ops {
                    ops.shutdown();
                }
            }
        }
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
