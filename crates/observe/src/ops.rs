//! The embedded ops endpoint: a dependency-free blocking HTTP/1.0 server.
//!
//! One `std::net::TcpListener`, one thread, `Connection: close` on every
//! response — deliberately the smallest thing that a Prometheus scraper, a
//! Kubernetes probe, and a curious operator with `curl` can all talk to.
//! Routes:
//!
//! | route      | serves |
//! |------------|--------|
//! | `/metrics` | Prometheus text exposition from the attached [`Telemetry`] |
//! | `/healthz` | liveness: `200 ok` while the server thread runs |
//! | `/readyz`  | readiness from the injected probe (gateway queue + replica liveness); `503` when not ready |
//! | `/traces`  | recent span trees from the flight recorder, as JSON |
//! | `/flight`  | triggers a flight dump to disk, returns the path |
//! | `/forecast`| live IO-forecast snapshot as JSON, when registered in [`OpsOptions::json_routes`] |
//! | `/revise`  | in-flight revision engine snapshot as JSON, likewise |
//! | `/fleet/metrics` | merged fleet-wide exposition from the attached [`FleetCollector`] |
//! | `/fleet/healthz` | quorum-aware fleet health: `200` while enough shards scrape |
//! | `/fleet/traces?trace_id=N` | one trace's spans stitched across every shard |
//!
//! Anything else is `404`. The server binds before [`OpsServer::start`]
//! returns, so tests and scripts can read the bound port immediately.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use prionn_telemetry::Telemetry;

use crate::collector::FleetCollector;
use crate::drift::DriftMonitor;
use crate::flight::{json_str, span_json, FlightRecorder};
use crate::trace::SpanRecord;

/// A readiness verdict from the injected probe.
#[derive(Clone, Debug)]
pub struct Readiness {
    /// Serve `200` when true, `503` otherwise.
    pub ready: bool,
    /// Human-readable detail included in the body.
    pub detail: String,
}

/// The readiness probe: called per `/readyz` request.
pub type ReadyProbe = Arc<dyn Fn() -> Readiness + Send + Sync>;

/// A JSON snapshot probe: called per request to the route it is
/// registered under, returns a JSON document (e.g. `prionn-forecast`'s
/// `ForecastEngine::ops_probe`, `prionn-revise`'s
/// `ReviseEngine::ops_probe`). A closure rather than a typed handle keeps
/// `observe` below those crates in the dependency graph.
pub type JsonProbe = Arc<dyn Fn() -> String + Send + Sync>;

/// What the ops endpoint exposes. Every field is optional; absent sources
/// degrade their route to a clear `404`/empty answer rather than an error.
#[derive(Clone, Default)]
pub struct OpsOptions {
    /// Metric registry behind `/metrics`.
    pub telemetry: Option<Telemetry>,
    /// Flight recorder behind `/traces` and `/flight`.
    pub recorder: Option<FlightRecorder>,
    /// Drift monitor; when present its staleness gauge is refreshed on
    /// every `/metrics` scrape so the exported value is current.
    pub drift: Option<DriftMonitor>,
    /// Readiness probe behind `/readyz` (absent = always ready).
    pub readiness: Option<ReadyProbe>,
    /// JSON snapshot routes, `(path, probe)`: by convention `/forecast`
    /// serves `ForecastEngine::ops_probe()` and `/revise` serves
    /// `ReviseEngine::ops_probe()`. An unregistered path is a `404`; the
    /// built-in routes win over an entry of the same path.
    pub json_routes: Vec<(&'static str, JsonProbe)>,
    /// Fleet collector behind the `/fleet/*` routes (absent = `404`).
    pub fleet: Option<FleetCollector>,
    /// Most recent traces returned by `/traces` (default 64).
    pub max_traces: usize,
}

struct ServerState {
    opts: OpsOptions,
    stop: AtomicBool,
}

/// Handle to the running ops endpoint; shuts down on drop.
pub struct OpsServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl OpsServer {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and serve on
    /// a background thread.
    pub fn start(bind: &str, opts: OpsOptions) -> io::Result<OpsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            opts,
            stop: AtomicBool::new(false),
        });
        let thread_state = state.clone();
        let handle = std::thread::Builder::new()
            .name("prionn-ops".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_state.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = handle_connection(stream, &thread_state);
                    }
                }
            })?;
        Ok(OpsServer {
            addr,
            state,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread. Idempotent.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.handle.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request headers; GETs have no body.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path_full = parts.next().unwrap_or("/");
    let (path, query) = match path_full.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path_full, None),
    };

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is served here\n".to_string(),
        )
    } else {
        route(path, query, &state.opts)
    };

    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn route(
    path: &str,
    query: Option<&str>,
    opts: &OpsOptions,
) -> (&'static str, &'static str, String) {
    const OK: &str = "200 OK";
    const TEXT: &str = "text/plain; charset=utf-8";
    const JSON: &str = "application/json";
    match path {
        "/metrics" => match &opts.telemetry {
            Some(t) => {
                if let Some(d) = &opts.drift {
                    d.refresh_staleness();
                }
                (
                    OK,
                    "text/plain; version=0.0.4; charset=utf-8",
                    t.prometheus(),
                )
            }
            None => ("404 Not Found", TEXT, "no telemetry attached\n".into()),
        },
        "/healthz" => (OK, TEXT, "ok\n".into()),
        "/readyz" => match &opts.readiness {
            Some(probe) => {
                let r = probe();
                if r.ready {
                    (OK, TEXT, format!("ready: {}\n", r.detail))
                } else {
                    (
                        "503 Service Unavailable",
                        TEXT,
                        format!("not ready: {}\n", r.detail),
                    )
                }
            }
            None => (OK, TEXT, "ready\n".into()),
        },
        "/traces" => match &opts.recorder {
            Some(rec) => {
                let max = if opts.max_traces == 0 {
                    64
                } else {
                    opts.max_traces
                };
                (OK, JSON, traces_json(&rec.snapshot(), max))
            }
            None => (
                "404 Not Found",
                TEXT,
                "no flight recorder attached\n".into(),
            ),
        },
        "/flight" => match &opts.recorder {
            Some(rec) => match rec.dump_to_file("ops endpoint /flight") {
                Ok(path) => (
                    OK,
                    JSON,
                    format!(
                        "{{\"dumped\":true,\"path\":{}}}",
                        json_str(&path.display().to_string())
                    ),
                ),
                Err(e) => (
                    "500 Internal Server Error",
                    JSON,
                    format!(
                        "{{\"dumped\":false,\"error\":{}}}",
                        json_str(&e.to_string())
                    ),
                ),
            },
            None => (
                "404 Not Found",
                TEXT,
                "no flight recorder attached\n".into(),
            ),
        },
        "/fleet/metrics" => match &opts.fleet {
            Some(fleet) => (
                OK,
                "text/plain; version=0.0.4; charset=utf-8",
                fleet.merged_prometheus(),
            ),
            None => (
                "404 Not Found",
                TEXT,
                "no fleet collector attached\n".into(),
            ),
        },
        "/fleet/healthz" => match &opts.fleet {
            Some(fleet) => {
                let (healthy, detail) = fleet.healthz();
                if healthy {
                    (OK, TEXT, format!("ok: {detail}\n"))
                } else {
                    (
                        "503 Service Unavailable",
                        TEXT,
                        format!("degraded: {detail}\n"),
                    )
                }
            }
            None => (
                "404 Not Found",
                TEXT,
                "no fleet collector attached\n".into(),
            ),
        },
        "/fleet/traces" => match &opts.fleet {
            Some(fleet) => match query_param(query, "trace_id").and_then(|v| v.parse::<u64>().ok())
            {
                Some(trace_id) => (OK, JSON, fleet.trace_json(trace_id)),
                None => ("400 Bad Request", TEXT, "pass ?trace_id=<u64>\n".into()),
            },
            None => (
                "404 Not Found",
                TEXT,
                "no fleet collector attached\n".into(),
            ),
        },
        _ => match opts.json_routes.iter().find(|(p, _)| *p == path) {
            Some((_, probe)) => (OK, JSON, probe()),
            None => ("404 Not Found", TEXT, "unknown route\n".into()),
        },
    }
}

/// Pull one `key=value` pair out of a raw query string.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Group spans by trace and render the most recent `max` traces as JSON.
fn traces_json(spans: &[SpanRecord], max: usize) -> String {
    use std::collections::BTreeMap;
    let mut by_trace: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut traces: Vec<(u64, u64, Vec<&SpanRecord>)> = by_trace
        .into_iter()
        .map(|(id, spans)| {
            let start = spans.iter().map(|s| s.start_micros).min().unwrap_or(0);
            (start, id, spans)
        })
        .collect();
    traces.sort_by_key(|(start, id, _)| (std::cmp::Reverse(*start), *id));
    traces.truncate(max);

    let mut out = String::from("{\"traces\":[");
    for (i, (_, id, spans)) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"trace_id\":{id},\"spans\":["));
        for (j, s) in spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanCtx;

    fn span(trace: u64, id: u64, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: 0,
            name: "s".into(),
            detail: String::new(),
            links: vec![],
            start_micros: start,
            duration_micros: 1,
        }
    }

    #[test]
    fn traces_group_and_cap() {
        let spans = vec![span(1, 1, 0), span(1, 2, 5), span(2, 3, 10), span(3, 4, 20)];
        let j = traces_json(&spans, 2);
        // Most recent two traces only, newest first.
        assert!(j.contains("\"trace_id\":3"), "{j}");
        assert!(j.contains("\"trace_id\":2"), "{j}");
        assert!(!j.contains("\"trace_id\":1,"), "{j}");
    }

    #[test]
    fn unknown_route_is_404_and_health_is_200() {
        let opts = OpsOptions::default();
        assert_eq!(route("/healthz", None, &opts).0, "200 OK");
        assert_eq!(route("/nope", None, &opts).0, "404 Not Found");
        assert_eq!(route("/metrics", None, &opts).0, "404 Not Found");
    }

    #[test]
    fn readiness_probe_drives_status() {
        let flag = Arc::new(AtomicBool::new(false));
        let probe_flag = flag.clone();
        let opts = OpsOptions {
            readiness: Some(Arc::new(move || Readiness {
                ready: probe_flag.load(Ordering::SeqCst),
                detail: "live=1 queue=0".into(),
            })),
            ..OpsOptions::default()
        };
        assert_eq!(route("/readyz", None, &opts).0, "503 Service Unavailable");
        flag.store(true, Ordering::SeqCst);
        let (status, _, body) = route("/readyz", None, &opts);
        assert_eq!(status, "200 OK");
        assert!(body.contains("live=1"), "{body}");
    }

    #[test]
    fn json_routes_serve_probe_json_or_404() {
        for path in ["/forecast", "/revise"] {
            let opts = OpsOptions::default();
            assert_eq!(route(path, None, &opts).0, "404 Not Found");

            let opts = OpsOptions {
                json_routes: vec![(path, Arc::new(|| "{\"inflight\":0}".to_string()))],
                ..OpsOptions::default()
            };
            let (status, ctype, body) = route(path, None, &opts);
            assert_eq!(status, "200 OK");
            assert_eq!(ctype, "application/json");
            assert_eq!(body, "{\"inflight\":0}");
        }
    }

    #[test]
    fn links_survive_trace_json() {
        let mut s = span(7, 1, 0);
        s.links.push(SpanCtx {
            trace_id: 9,
            span_id: 2,
        });
        let j = traces_json(&[s], 8);
        assert!(
            j.contains("\"links\":[{\"trace_id\":9,\"span_id\":2}]"),
            "{j}"
        );
    }
}
