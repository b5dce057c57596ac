//! Fleet observability plane, end to end: real shards with real ops
//! endpoints, a tracing router, and a `FleetCollector` federating the
//! lot. Pins the three acceptance surfaces of the plane:
//!
//! 1. a request traced across router + shard is retrievable as ONE
//!    stitched tree by trace id via `/fleet/traces`;
//! 2. `/fleet/metrics` serves bucket-exact merged histograms — the
//!    merged counts equal the per-shard scrapes summed bucket-wise;
//! 3. an SLO burn-rate alert fires edge-triggered under an injected
//!    violation and is visible as `slo_*` metrics on the merged surface,
//!    and a killed shard degrades the merged view (up gauge drops,
//!    quorum decides `/fleet/healthz`).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use prionn_fleet::router::{Router, RouterConfig};
use prionn_fleet::testkit::{demo_corpus, LocalFleet, ROUTER_TRACE_NAMESPACE};
use prionn_observe::{
    CollectorConfig, FleetCollector, FlightConfig, FlightRecorder, OpsOptions, OpsServer,
    ShardTarget, SloSource, SloSpec, Tracer,
};
use prionn_telemetry::{MetricsSnapshot, Telemetry};

/// One raw HTTP/1.0 GET; returns the full response (headers + body).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// An observed fleet plus a tracing router and a collector over both.
struct ObservedPlane {
    fleet: LocalFleet,
    router: Router,
    recorder: FlightRecorder,
    collector: FleetCollector,
    ops: OpsServer,
}

fn observed_plane(n: usize, quorum: usize, slos: Vec<SloSpec>) -> ObservedPlane {
    let fleet = LocalFleet::spawn_observed(n);
    let recorder = FlightRecorder::new(FlightConfig::default());
    let router = Router::new(RouterConfig {
        request_timeout: Duration::from_secs(30),
        down_backoff: Duration::from_millis(50),
        tracer: Some(Tracer::with_namespace(&recorder, ROUTER_TRACE_NAMESPACE)),
        ..RouterConfig::for_endpoints(fleet.endpoints())
    });
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
        quorum,
        telemetry: Some(Telemetry::new()),
        slos,
        local_recorder: Some(recorder.clone()),
        ..CollectorConfig::default()
    });
    let ops = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            fleet: Some(collector.clone()),
            ..OpsOptions::default()
        },
    )
    .unwrap();
    ObservedPlane {
        fleet,
        router,
        recorder,
        collector,
        ops,
    }
}

#[test]
fn stitched_trace_is_retrievable_by_id_via_fleet_traces() {
    let mut plane = observed_plane(2, 1, Vec::new());
    let scripts = demo_corpus();
    // Force a failover: the user's home shard is draining, so the first
    // hop is refused and the second serves — two hops, one trace.
    let home = plane.router.route(7).unwrap();
    plane.router.drain_shard(home).unwrap();
    let reply = plane.router.predict(7, &scripts[..1]).unwrap();
    assert_ne!(reply.shard, home, "drained shard must not serve");

    // The router's root span carries the fleet-wide trace id, minted in
    // the router's namespace so it cannot collide with shard-local ids.
    let spans = plane.recorder.snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "fleet_predict")
        .expect("router recorded a fleet_predict root");
    assert_eq!(
        root.trace_id >> 48,
        u64::from(ROUTER_TRACE_NAMESPACE),
        "trace id carries the router namespace: {:#x}",
        root.trace_id
    );
    assert!(
        root.detail.contains(&format!("served_by={}", reply.shard)),
        "root span names the serving shard: {:?}",
        root.detail
    );
    let hops: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "hop" && s.parent_id == root.span_id)
        .collect();
    assert!(hops.len() >= 2, "failover records >= 2 hops: {hops:?}");
    let last_hop = hops.last().unwrap();
    assert_eq!(
        last_hop.detail,
        format!("shard={} served", reply.shard),
        "last hop is the serving one"
    );

    let ops_addr = plane.ops.addr().to_string();
    let resp = http_get(
        &ops_addr,
        &format!("/fleet/traces?trace_id={}", root.trace_id),
    );
    assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
    let doc: serde_json::Value = serde_json::from_str(body_of(&resp)).unwrap();
    assert_eq!(
        doc.get("trace_id").and_then(|v| v.as_u64()),
        Some(root.trace_id)
    );
    let stitched = doc
        .get("spans")
        .and_then(|v| v.as_array())
        .expect("spans array");

    // Every stitched span belongs to the one trace, and the tree spans
    // both processes: the router's client spans AND the serving shard's
    // gateway spans, with the shard's root parented under the last hop.
    for span in stitched {
        assert_eq!(
            span.get("trace_id").and_then(|v| v.as_u64()),
            Some(root.trace_id),
            "{span:?}"
        );
    }
    let names: Vec<&str> = stitched
        .iter()
        .filter_map(|s| s.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(names.contains(&"fleet_predict"), "{names:?}");
    assert!(
        names.iter().filter(|&&n| n == "hop").count() >= 2,
        "{names:?}"
    );
    let shard_roots: Vec<_> = stitched
        .iter()
        .filter(|s| s.get("name").and_then(|v| v.as_str()) == Some("predict"))
        .collect();
    assert_eq!(shard_roots.len(), 1, "one gateway root: {shard_roots:?}");
    assert_eq!(
        shard_roots[0].get("parent_id").and_then(|v| v.as_u64()),
        Some(last_hop.span_id),
        "serving shard's root adopts the last router hop as parent"
    );

    // Unknown query → clear 400, not a panic or an empty 200.
    let bad = http_get(&ops_addr, "/fleet/traces");
    assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");

    plane.ops.shutdown();
    plane.collector.shutdown();
    plane.fleet.shutdown();
}

#[test]
fn fleet_metrics_serves_bucket_exact_merged_histograms() {
    let mut plane = observed_plane(2, 1, Vec::new());
    let scripts = demo_corpus();
    for user in 0..64u64 {
        plane.router.predict(user, &scripts[..1]).unwrap();
    }
    assert_eq!(plane.collector.scrape_once(), 2, "both shards scraped");

    let shard_snaps: Vec<MetricsSnapshot> = plane
        .fleet
        .ops_endpoints()
        .iter()
        .map(|addr| MetricsSnapshot::parse(body_of(&http_get(addr, "/metrics"))))
        .collect();
    let merged_text = http_get(&plane.ops.addr().to_string(), "/fleet/metrics");
    assert!(merged_text.starts_with("HTTP/1.0 200"), "{merged_text}");
    let merged = MetricsSnapshot::parse(body_of(&merged_text));

    let merged_hist = merged
        .histogram("serve_predict_seconds", &[])
        .expect("merged predict histogram");
    let parts: Vec<_> = shard_snaps
        .iter()
        .map(|s| {
            s.histogram("serve_predict_seconds", &[])
                .expect("per-shard predict histogram")
        })
        .collect();
    assert!(
        parts.iter().all(|p| p.count > 0),
        "both shards served requests: {:?}",
        parts.iter().map(|p| p.count).collect::<Vec<_>>()
    );
    assert_eq!(
        merged_hist.count,
        parts.iter().map(|p| p.count).sum::<u64>(),
        "merged count is the exact sum"
    );
    assert_eq!(merged_hist.les, parts[0].les, "bucket layout preserved");
    for (b, le) in merged_hist.les.iter().enumerate() {
        let want: u64 = parts.iter().map(|p| p.cumulative[b]).sum();
        assert_eq!(
            merged_hist.cumulative[b], want,
            "bucket le={le} merged exactly"
        );
    }

    // Counters federate too, and the per-shard `up` gauges say who
    // contributed.
    let text = body_of(&merged_text);
    assert!(
        merged.counter_sum("serve_requests_total", &[]) >= 64.0,
        "merged requests counter"
    );
    assert!(
        text.contains(r#"fleet_obs_shard_up{shard="0"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"fleet_obs_shard_up{shard="1"} 1"#),
        "{text}"
    );

    // A valid exposition: every name has one `# TYPE` block and every
    // series one sample, the collector's own counters beside the shards'.
    let mut types: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let mut series: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' ').map(|(s, _)| s))
        .collect();
    for names in [&mut types, &mut series] {
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicated in /fleet/metrics:\n{text}");
    }
    assert!(types.contains(&"fleet_obs_rounds_total"), "{text}");
    assert!(types.contains(&"serve_requests_total"), "{text}");

    plane.ops.shutdown();
    plane.collector.shutdown();
    plane.fleet.shutdown();
}

#[test]
fn burn_rate_alert_fires_under_injected_violation_and_quorum_degrades() {
    // Impossible latency objective: 99% of predicts under 1ns. Every
    // real request violates it, so the fast burn windows saturate at
    // 100x — far past the 14.4x page threshold.
    let slos = vec![
        SloSpec::new(
            "predict_p99",
            0.99,
            SloSource::LatencyBuckets {
                histogram: "serve_predict_seconds".into(),
                threshold: 1e-9,
            },
        ),
        // A healthy control: everything completes under an hour.
        SloSpec::new(
            "predict_sane",
            0.99,
            SloSource::LatencyBuckets {
                histogram: "serve_predict_seconds".into(),
                threshold: 3600.0,
            },
        ),
    ];
    let mut plane = observed_plane(2, 2, slos);
    let scripts = demo_corpus();

    // First scrape sets the cumulative baseline; the violating traffic
    // in between becomes the delta the second scrape judges.
    plane.collector.scrape_once();
    for user in 0..32u64 {
        plane.router.predict(user, &scripts[..1]).unwrap();
    }
    plane.collector.scrape_once();

    assert!(plane.collector.slo().alert_active("predict_p99"));
    assert!(!plane.collector.slo().alert_active("predict_sane"));
    assert_eq!(
        plane.collector.slo().any_alert().as_deref(),
        Some("predict_p99")
    );

    let ops_addr = plane.ops.addr().to_string();
    let text_resp = http_get(&ops_addr, "/fleet/metrics");
    let text = body_of(&text_resp);
    assert!(text.contains(r#"slo_alert{slo="predict_p99"} 1"#), "{text}");
    assert!(
        text.contains(r#"slo_alert{slo="predict_sane"} 0"#),
        "{text}"
    );
    assert!(
        text.contains(r#"slo_alerts_total{slo="predict_p99"} 1"#),
        "edge-triggered: exactly one alert despite repeated evaluations\n{text}"
    );
    assert!(text.contains(r#"slo_burn_rate{slo="predict_p99",window="fast_short"}"#));

    // Quorum 2 of 2: healthy while both shards answer…
    let health = http_get(&ops_addr, "/fleet/healthz");
    assert!(health.starts_with("HTTP/1.0 200"), "{health}");

    // …then kill one shard: its up gauge drops to 0 in the merged view
    // and the quorum check degrades `/fleet/healthz` to a 503.
    plane.fleet.kill(1);
    plane.collector.scrape_once();
    let text_resp = http_get(&ops_addr, "/fleet/metrics");
    let text = body_of(&text_resp);
    assert!(
        text.contains(r#"fleet_obs_shard_up{shard="0"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"fleet_obs_shard_up{shard="1"} 0"#),
        "{text}"
    );
    let health = http_get(&ops_addr, "/fleet/healthz");
    assert!(health.starts_with("HTTP/1.0 503"), "{health}");
    assert!(body_of(&health).contains("shards_up=1/2"), "{health}");

    plane.ops.shutdown();
    plane.collector.shutdown();
    plane.fleet.shutdown();
}
