//! HTTP-level integration tests for the embedded ops endpoint, plus the
//! pinned metric surface of the observe crate: every drift_* series (and
//! the event-log drop counter) must appear in the Prometheus export with
//! exactly the documented names and labels — renaming a metric breaks
//! dashboards, so renames must break this test first.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use prionn_observe::{
    DriftConfig, DriftHead, DriftMonitor, FlightConfig, FlightRecorder, OpsOptions, OpsServer,
    Readiness, Tracer,
};
use prionn_telemetry::Telemetry;

/// One raw HTTP/1.0 GET; returns the full response (headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
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

/// A fully wired endpoint: telemetry + recorder + drift + readiness probe.
fn wired() -> (OpsServer, Telemetry, FlightRecorder, DriftMonitor) {
    let telemetry = Telemetry::new();
    let rec = FlightRecorder::new(FlightConfig {
        dump_dir: Some(std::env::temp_dir().join(format!("prionn-ops-{}", std::process::id()))),
        ..FlightConfig::default()
    });
    rec.attach_telemetry(&telemetry);
    let drift = DriftMonitor::new(&telemetry, DriftConfig::default());
    // Some traced work so /traces has content.
    let tracer = Tracer::new(&rec);
    {
        let root = tracer.root("predict");
        let _child = root.child("admission");
    }
    drift.record(DriftHead::Runtime, 100.0, 90.0);
    drift.mark_weight_update();
    let server = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            telemetry: Some(telemetry.clone()),
            recorder: Some(rec.clone()),
            drift: Some(drift.clone()),
            readiness: Some(Arc::new(|| Readiness {
                ready: true,
                detail: "live_replicas=2/2 queue=0/128".into(),
            })),
            json_routes: Vec::new(),
            fleet: None,
            max_traces: 16,
        },
    )
    .unwrap();
    (server, telemetry, rec, drift)
}

#[test]
fn ops_routes_serve_wellformed_output() {
    let (server, _telemetry, _rec, _drift) = wired();
    let addr = server.addr();

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
    assert!(
        metrics.contains("text/plain; version=0.0.4"),
        "prometheus content type: {metrics}"
    );
    assert!(body_of(&metrics).contains("# TYPE drift_relative_accuracy gauge"));

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    assert_eq!(body_of(&health), "ok\n");

    let ready = http_get(addr, "/readyz");
    assert!(ready.starts_with("HTTP/1.0 200"), "{ready}");
    assert!(body_of(&ready).contains("live_replicas=2/2"), "{ready}");

    let traces = http_get(addr, "/traces");
    assert!(traces.starts_with("HTTP/1.0 200"), "{traces}");
    let parsed: serde_json::Value = serde_json::from_str(body_of(&traces)).unwrap();
    let trees = parsed
        .get("traces")
        .and_then(|t| t.as_array())
        .expect("/traces returns {\"traces\": [...]}");
    assert_eq!(trees.len(), 1, "one recorded trace");
    let spans = trees[0].get("spans").unwrap().as_array().unwrap();
    assert_eq!(spans.len(), 2, "root + child");

    let flight = http_get(addr, "/flight");
    assert!(flight.starts_with("HTTP/1.0 200"), "{flight}");
    let parsed: serde_json::Value = serde_json::from_str(body_of(&flight)).unwrap();
    assert_eq!(parsed.get("dumped").unwrap().as_bool(), Some(true));
    let path = parsed.get("path").unwrap().as_str().unwrap().to_string();
    assert!(std::path::Path::new(&path).exists(), "{path}");
    let _ = std::fs::remove_file(&path);

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

    server.shutdown();
}

#[test]
fn readiness_probe_failure_is_a_503() {
    let server = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            readiness: Some(Arc::new(|| Readiness {
                ready: false,
                detail: "live_replicas=0/2 queue=128/128".into(),
            })),
            ..OpsOptions::default()
        },
    )
    .unwrap();
    let ready = http_get(server.addr(), "/readyz");
    assert!(ready.starts_with("HTTP/1.0 503"), "{ready}");
    assert!(body_of(&ready).contains("not ready"), "{ready}");
    server.shutdown();
}

#[test]
fn observe_metric_names_and_labels_are_pinned() {
    let telemetry = Telemetry::new();
    let drift = DriftMonitor::new(&telemetry, DriftConfig::default());
    for _ in 0..4 {
        drift.record(DriftHead::Runtime, 100.0, 95.0);
        drift.record(DriftHead::Read, 1e9, 2e9);
        drift.record(DriftHead::Write, 1e9, 1e9);
    }
    drift.mark_weight_update();
    drift.refresh_staleness();

    let text = telemetry.prometheus();
    for series in [
        "# TYPE drift_relative_accuracy gauge",
        "# TYPE drift_calibration_error gauge",
        "# TYPE drift_samples_total counter",
        "# TYPE drift_alerts_total counter",
        "# TYPE drift_weight_staleness_seconds gauge",
        "# TYPE drift_weight_updates_total counter",
        "# TYPE telemetry_events_dropped_total counter",
        r#"drift_relative_accuracy{head="runtime"}"#,
        r#"drift_relative_accuracy{head="read"}"#,
        r#"drift_relative_accuracy{head="write"}"#,
        r#"drift_calibration_error{head="runtime"}"#,
        r#"drift_samples_total{head="runtime"} 4"#,
        r#"drift_samples_total{head="read"} 4"#,
        r#"drift_samples_total{head="write"} 4"#,
        r#"drift_alerts_total{head="runtime"} 0"#,
        "# TYPE drift_outcomes_total counter",
        r#"drift_outcomes_total{head="runtime",status="completed"} 4"#,
        r#"drift_outcomes_total{head="runtime",status="killed"} 0"#,
        r#"drift_outcomes_total{head="runtime",status="requeued"} 0"#,
        "drift_weight_updates_total 1",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
}

/// The fleet plane's metric surface is pinned the same way: the
/// collector's `fleet_obs_*` instruments and the SLO engine's `slo_*`
/// series must keep exactly the documented names and labels — they are
/// what fleet dashboards and the burn-rate alert rules key on.
#[test]
fn fleet_plane_metric_names_and_labels_are_pinned() {
    use prionn_observe::{CollectorConfig, FleetCollector, ShardTarget, SloSource, SloSpec};

    let telemetry = Telemetry::new();
    let collector = FleetCollector::new(CollectorConfig {
        shards: vec![ShardTarget {
            name: "0".into(),
            // Nothing listens here: the surface must exist (with up=0)
            // even when every scrape fails.
            ops_addr: "127.0.0.1:1".into(),
        }],
        telemetry: Some(telemetry.clone()),
        slos: vec![SloSpec::new(
            "predict_p99",
            0.99,
            SloSource::LatencyBuckets {
                histogram: "serve_predict_seconds".into(),
                threshold: 0.25,
            },
        )],
        scrape_timeout: std::time::Duration::from_millis(200),
        ..CollectorConfig::default()
    });
    assert_eq!(collector.scrape_once(), 0, "dead target scrapes as down");

    let text = telemetry.prometheus();
    for series in [
        "# TYPE fleet_obs_shard_up gauge",
        "# TYPE fleet_obs_scrape_age_seconds gauge",
        "# TYPE fleet_obs_scrapes_total counter",
        "# TYPE fleet_obs_rounds_total counter",
        "# TYPE fleet_obs_shards_up gauge",
        "# TYPE slo_burn_rate gauge",
        "# TYPE slo_alert gauge",
        "# TYPE slo_alerts_total counter",
        r#"fleet_obs_shard_up{shard="0"} 0"#,
        r#"fleet_obs_scrapes_total{outcome="error",shard="0"} 1"#,
        "fleet_obs_rounds_total 1",
        "fleet_obs_shards_up 0",
        r#"slo_burn_rate{slo="predict_p99",window="fast_short"}"#,
        r#"slo_burn_rate{slo="predict_p99",window="fast_long"}"#,
        r#"slo_burn_rate{slo="predict_p99",window="slow"}"#,
        r#"slo_alert{slo="predict_p99"} 0"#,
        r#"slo_alerts_total{slo="predict_p99"} 0"#,
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }
    collector.shutdown();
}

/// The forecast_* metric surface is pinned the same way: the forecast
/// engine registers its instruments in the shared registry, and the ops
/// endpoint exposes its snapshot on `/forecast`. Renames break here first.
#[test]
fn forecast_metric_names_are_pinned_and_forecast_route_serves_json() {
    use prionn_forecast::{ForecastConfig, ForecastEngine, JobIoInterval};

    let telemetry = Telemetry::new();
    let engine = ForecastEngine::new(
        &telemetry,
        ForecastConfig {
            horizon_minutes: 120,
            lead_minutes: 5,
            ..ForecastConfig::default()
        },
    );
    engine.job_started(&JobIoInterval {
        start: 0,
        end: 3600,
        bandwidth: 2.5e8,
    });
    engine.tick();

    let text = telemetry.prometheus();
    for series in [
        "# TYPE forecast_aggregate_bandwidth gauge",
        "# TYPE forecast_horizon_bandwidth gauge",
        "# TYPE forecast_burst_threshold gauge",
        "# TYPE forecast_burst_active gauge",
        "# TYPE forecast_burst_alerts_total counter",
        "# TYPE forecast_samples_total counter",
        "# TYPE forecast_abs_error histogram",
        "# TYPE forecast_resident_jobs gauge",
        "# TYPE forecast_truncated_jobs gauge",
        "forecast_samples_total 1",
        "forecast_resident_jobs 1",
        "forecast_abs_error_count",
    ] {
        assert!(text.contains(series), "missing `{series}` in:\n{text}");
    }

    let server = OpsServer::start(
        "127.0.0.1:0",
        OpsOptions {
            telemetry: Some(telemetry.clone()),
            json_routes: vec![("/forecast", engine.ops_probe())],
            ..OpsOptions::default()
        },
    )
    .unwrap();
    let resp = http_get(server.addr(), "/forecast");
    assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
    let parsed: serde_json::Value = serde_json::from_str(body_of(&resp)).unwrap();
    assert_eq!(parsed.get("active_jobs").unwrap().as_u64(), Some(1));
    assert_eq!(parsed.get("lead_minutes").unwrap().as_u64(), Some(5));
    assert!(parsed.get("aggregate_bps").unwrap().as_f64().unwrap() > 0.0);
    assert!(parsed.get("alerting").is_some());
    server.shutdown();

    // Without a probe the route is a 404.
    let bare = OpsServer::start("127.0.0.1:0", OpsOptions::default()).unwrap();
    let resp = http_get(bare.addr(), "/forecast");
    assert!(resp.starts_with("HTTP/1.0 404"), "{resp}");
    bare.shutdown();
}
