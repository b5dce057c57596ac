//! Losing a shard process never loses a request. Real `prionn-shard`
//! processes serve behind a [`Router`]; one is drained, then SIGKILLed,
//! then replaced by a fresh process, and every probe user is answered
//! throughout. Each live shard's ops endpoint is then read over HTTP.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use prionn_fleet::router::{Router, RouterConfig};
use prionn_fleet::testkit::demo_corpus;
use prionn_telemetry::MetricsSnapshot;

const SHARDS: usize = 3;
const USERS: u64 = 100_000;

/// One `prionn-shard` child process. The child serves until its stdin
/// closes; dropping the guard SIGKILLs and reaps it, so no child outlives
/// the test even when an assertion fails.
struct ShardProcess {
    child: Child,
    shard_addr: String,
    ops_addr: String,
}

impl ShardProcess {
    fn spawn() -> ShardProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_prionn-shard"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn prionn-shard");
        let stdout = child.stdout.take().expect("child stdout");
        let mut shard = ShardProcess {
            child,
            shard_addr: String::new(),
            ops_addr: String::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("read child stdout");
            if let Some(addr) = line.strip_prefix("SHARD_ADDR=") {
                shard.shard_addr = addr.to_string();
            } else if let Some(addr) = line.strip_prefix("OPS_ADDR=") {
                shard.ops_addr = addr.to_string();
            }
            if !shard.shard_addr.is_empty() && !shard.ops_addr.is_empty() {
                return shard;
            }
        }
        panic!("prionn-shard exited before printing its addresses");
    }

    /// Abrupt process loss: SIGKILL, no drain, connections die mid-flight.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL shard");
        self.child.wait().expect("reap shard");
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.0 GET; returns the body of a `200` response.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect ops endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{path}: {response}");
    let (_, body) = response.split_once("\r\n\r\n").expect("header end");
    body.to_string()
}

#[test]
fn killed_shard_process_loses_no_request_and_its_replacement_takes_traffic_back() {
    let mut shards: Vec<ShardProcess> = (0..SHARDS).map(|_| ShardProcess::spawn()).collect();
    let router = Router::new(RouterConfig {
        request_timeout: Duration::from_secs(30),
        down_backoff: Duration::from_millis(50),
        ..RouterConfig::for_endpoints(shards.iter().map(|s| s.shard_addr.clone()).collect())
    });
    let scripts = demo_corpus();
    let script_of = |user: u64| std::slice::from_ref(&scripts[user as usize % scripts.len()]);

    // Load: four closed-loop clients, users strided over the id space so
    // successive requests land on different shards. Every one is answered.
    std::thread::scope(|s| {
        for client in 0..4u64 {
            let (router, script_of) = (&router, &script_of);
            s.spawn(move || {
                for r in (client..400).step_by(4) {
                    let user = r.wrapping_mul(2_654_435_761) % USERS;
                    if let Err(e) = router.predict(user, script_of(user)) {
                        panic!("user {user} lost under load: {e}");
                    }
                }
            });
        }
    });

    let victim = SHARDS - 1;
    let probes: Vec<u64> = (0..USERS)
        .filter(|&u| router.route(u) == Some(victim))
        .take(20)
        .collect();
    let all_answered_by_survivors = |phase: &str| {
        for &user in &probes {
            match router.predict(user, script_of(user)) {
                Ok(reply) => assert_ne!(reply.shard, victim, "{phase}: victim served {user}"),
                Err(e) => panic!("{phase}: user {user} lost: {e}"),
            }
        }
    };

    // Drain: the victim answers with a typed Draining shed, the router
    // walks the ring, a survivor serves.
    router.drain_shard(victim).expect("drain victim");
    all_answered_by_survivors("drain");
    let shed = MetricsSnapshot::parse(&router.telemetry().prometheus())
        .counter_sum("fleet_shed_total", &[("reason", "draining")]);
    assert!(shed >= 1.0, "no typed draining shed at the router");

    // SIGKILL: the process is gone, its sockets reset.
    shards[victim].kill();
    all_answered_by_survivors("kill");

    // A replacement process on a fresh port takes the victim's ring slot,
    // and the victim's users come back to it.
    shards[victim] = ShardProcess::spawn();
    router.set_endpoint(victim, &shards[victim].shard_addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router
        .predict(probes[0], script_of(probes[0]))
        .is_ok_and(|reply| reply.shard == victim)
    {
        assert!(
            Instant::now() < deadline,
            "traffic never returned to the replacement"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Every live shard's ops endpoint, as a scraper sees it.
    for shard in &shards {
        let metrics = http_get(&shard.ops_addr, "/metrics");
        assert!(
            metrics.contains("# TYPE fleet_shard_requests_total counter"),
            "{metrics}"
        );
        assert!(metrics.contains("fleet_shard_connections"), "{metrics}");
        assert_eq!(http_get(&shard.ops_addr, "/healthz").trim_end(), "ok");
    }
}
