//! The fleet collector: scrapes every shard's ops endpoint, merges the
//! metrics into one fleet-wide surface, stitches cross-shard traces, and
//! drives the [`SloEngine`] over the merged view.
//!
//! One background thread, plain `std::net` HTTP/1.0 GETs (the ops server
//! speaks `Connection: close`, so "pooling" here means cached resolved
//! addresses and reused scrape buffers, not kept-alive sockets). A shard
//! that fails a scrape degrades the merged view — its `up` gauge drops to
//! 0 and its staleness grows — without failing the scrape round:
//! partial-fleet answers are the whole point of federation.
//!
//! The collector exposes (via the ops server's `/fleet/*` routes or
//! directly):
//!
//! * [`FleetCollector::merged_prometheus`] — bucket-exact merged
//!   histograms, summed counters, per-shard labelled gauges;
//! * [`FleetCollector::healthz`] — quorum-aware: `200` while at least
//!   `quorum` shards answered their latest scrape;
//! * [`FleetCollector::trace_json`] — a trace id looked up across every
//!   shard's `/traces` plus the collector-local recorder (where the
//!   router's client spans land), merged into one span set.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prionn_telemetry::{merge_shards, Counter, Gauge, MetricsSnapshot, Telemetry};

use crate::flight::{span_json, FlightRecorder};
use crate::slo::{SloEngine, SloSource, SloSpec};

/// One scrape target.
#[derive(Debug, Clone)]
pub struct ShardTarget {
    /// Stable shard label carried on per-shard gauges.
    pub name: String,
    /// The shard's ops endpoint, `host:port`.
    pub ops_addr: String,
}

/// Collector construction knobs.
#[derive(Clone)]
pub struct CollectorConfig {
    /// Shards to scrape.
    pub shards: Vec<ShardTarget>,
    /// Scrape cadence for the background thread.
    pub interval: Duration,
    /// Per-request connect/read timeout.
    pub scrape_timeout: Duration,
    /// Minimum shards that must have answered their latest scrape for
    /// [`FleetCollector::healthz`] to report healthy. 0 = majority.
    pub quorum: usize,
    /// Registry for the collector's own `fleet_obs_*` and `slo_*`
    /// instruments; a fresh one when `None`.
    pub telemetry: Option<Telemetry>,
    /// SLOs evaluated over the merged surface after every scrape round.
    pub slos: Vec<SloSpec>,
    /// Recorder holding collector-process spans (the router's client
    /// spans, when router and collector share a process); merged into
    /// [`FleetCollector::trace_json`] answers.
    pub local_recorder: Option<FlightRecorder>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            shards: Vec::new(),
            interval: Duration::from_secs(5),
            scrape_timeout: Duration::from_secs(2),
            quorum: 0,
            telemetry: None,
            slos: Vec::new(),
            local_recorder: None,
        }
    }
}

struct ShardScrapeState {
    target: ShardTarget,
    /// Cached resolved address, refreshed on failure.
    addr: Mutex<Option<SocketAddr>>,
    up: Gauge,
    age: Gauge,
    scrapes_ok: Counter,
    scrapes_err: Counter,
    /// Latest successful scrape: (monotonic instant, parsed snapshot).
    last: Mutex<Option<(Instant, MetricsSnapshot)>>,
}

struct CollectorInner {
    cfg: CollectorConfig,
    shards: Vec<ShardScrapeState>,
    telemetry: Telemetry,
    slo: SloEngine,
    epoch: Instant,
    stop: AtomicBool,
    /// Cached merged exposition from the latest round.
    merged: Mutex<String>,
    rounds: Counter,
    shards_up: Gauge,
}

/// The running collector. Cloning shares state; the background thread
/// stops when [`shutdown`](FleetCollector::shutdown) is called (also on
/// drop of the last handle's join guard — tests usually call shutdown).
#[derive(Clone)]
pub struct FleetCollector {
    inner: Arc<CollectorInner>,
    handle: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl FleetCollector {
    /// Build a collector and start its scrape thread.
    pub fn spawn(cfg: CollectorConfig) -> FleetCollector {
        let collector = Self::new(cfg);
        let loop_inner = Arc::clone(&collector.inner);
        let handle = std::thread::Builder::new()
            .name("prionn-fleet-collector".into())
            .spawn(move || {
                while !loop_inner.stop.load(Ordering::SeqCst) {
                    scrape_round(&loop_inner);
                    let mut waited = Duration::ZERO;
                    // Sleep in small steps so shutdown is prompt.
                    while waited < loop_inner.cfg.interval {
                        if loop_inner.stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let step = Duration::from_millis(25).min(loop_inner.cfg.interval - waited);
                        std::thread::sleep(step);
                        waited += step;
                    }
                }
            })
            .expect("spawn collector thread");
        *collector.handle.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        collector
    }

    /// Build a collector without a scrape thread; drive it with
    /// [`scrape_once`](Self::scrape_once). For tests and demos.
    pub fn new(cfg: CollectorConfig) -> FleetCollector {
        let telemetry = cfg.telemetry.clone().unwrap_or_default();
        let slo = SloEngine::new(cfg.slos.clone(), &telemetry);
        let shards = cfg
            .shards
            .iter()
            .map(|target| ShardScrapeState {
                target: target.clone(),
                addr: Mutex::new(None),
                up: telemetry.gauge_with(
                    "fleet_obs_shard_up",
                    "1 while the collector's latest scrape of the shard succeeded",
                    &[("shard", &target.name)],
                ),
                age: telemetry.gauge_with(
                    "fleet_obs_scrape_age_seconds",
                    "Seconds since the shard's last successful scrape",
                    &[("shard", &target.name)],
                ),
                scrapes_ok: telemetry.counter_with(
                    "fleet_obs_scrapes_total",
                    "Scrape attempts by outcome",
                    &[("shard", &target.name), ("outcome", "ok")],
                ),
                scrapes_err: telemetry.counter_with(
                    "fleet_obs_scrapes_total",
                    "Scrape attempts by outcome",
                    &[("shard", &target.name), ("outcome", "error")],
                ),
                last: Mutex::new(None),
            })
            .collect();
        let rounds = telemetry.counter("fleet_obs_rounds_total", "Completed scrape rounds");
        let shards_up = telemetry.gauge(
            "fleet_obs_shards_up",
            "Shards whose latest scrape succeeded",
        );
        FleetCollector {
            inner: Arc::new(CollectorInner {
                shards,
                telemetry,
                slo,
                epoch: Instant::now(),
                stop: AtomicBool::new(false),
                merged: Mutex::new(String::new()),
                rounds,
                shards_up,
                cfg,
            }),
            handle: Arc::new(Mutex::new(None)),
        }
    }

    /// Run one synchronous scrape round: scrape every shard, merge, feed
    /// the SLO engine, refresh gauges. Returns how many shards answered.
    pub fn scrape_once(&self) -> usize {
        scrape_round(&self.inner)
    }

    /// The collector's registry (merged-view consumers scrape this too —
    /// `fleet_obs_*` and `slo_*` live here).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The SLO engine evaluated over the merged surface.
    pub fn slo(&self) -> &SloEngine {
        &self.inner.slo
    }

    /// The merged fleet view in Prometheus text exposition, with the
    /// collector's own instruments appended — one scrape shows federated
    /// shard metrics, scrape health, and SLO burn together.
    pub fn merged_prometheus(&self) -> String {
        let merged = self
            .inner
            .merged
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        format!("{merged}{}", self.inner.telemetry.prometheus())
    }

    /// Quorum-aware health: `(healthy, detail)`. Healthy while at least
    /// `quorum` shards (majority when the config says 0) answered their
    /// latest scrape.
    pub fn healthz(&self) -> (bool, String) {
        let up = self.shards_up();
        let total = self.inner.shards.len();
        let quorum = if self.inner.cfg.quorum == 0 {
            total / 2 + 1
        } else {
            self.inner.cfg.quorum
        };
        (
            up >= quorum.min(total.max(1)),
            format!("shards_up={up}/{total} quorum={quorum}"),
        )
    }

    /// How many shards answered their latest scrape.
    pub fn shards_up(&self) -> usize {
        self.inner
            .shards
            .iter()
            .filter(|s| s.last.lock().unwrap_or_else(|e| e.into_inner()).is_some())
            .filter(|s| s.up.value() >= 1.0)
            .count()
    }

    /// Look one trace up across the fleet: every shard's `/traces` plus
    /// the collector-local recorder, merged into
    /// `{"trace_id":N,"spans":[...],"shards_answered":K}`.
    pub fn trace_json(&self, trace_id: u64) -> String {
        let mut spans: Vec<String> = Vec::new();
        let mut answered = 0usize;
        for shard in &self.inner.shards {
            if let Some(body) = http_get(
                &shard.target.ops_addr,
                "/traces",
                self.inner.cfg.scrape_timeout,
                &shard.addr,
            ) {
                answered += 1;
                spans.extend(extract_trace_spans(&body, trace_id));
            }
        }
        if let Some(rec) = &self.inner.cfg.local_recorder {
            for s in rec.snapshot() {
                if s.trace_id == trace_id {
                    spans.push(span_json(&s));
                }
            }
        }
        format!(
            "{{\"trace_id\":{trace_id},\"shards_answered\":{answered},\"spans\":[{}]}}",
            spans.join(",")
        )
    }

    /// Stop the scrape thread (if one was spawned) and join it.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

/// One scrape round over every shard. Returns how many answered.
fn scrape_round(inner: &CollectorInner) -> usize {
    let mut up = 0usize;
    let mut merged_inputs: Vec<(String, MetricsSnapshot)> = Vec::new();
    for shard in &inner.shards {
        match http_get(
            &shard.target.ops_addr,
            "/metrics",
            inner.cfg.scrape_timeout,
            &shard.addr,
        ) {
            Some(body) => {
                let snap = MetricsSnapshot::parse(&body);
                shard.scrapes_ok.inc();
                shard.up.set(1.0);
                shard.age.set(0.0);
                *shard.last.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some((Instant::now(), snap.clone()));
                merged_inputs.push((shard.target.name.clone(), snap));
                up += 1;
            }
            None => {
                shard.scrapes_err.inc();
                shard.up.set(0.0);
                // Keep the stale snapshot out of the merge but report how
                // stale the shard has gone.
                let last = shard.last.lock().unwrap_or_else(|e| e.into_inner());
                if let Some((at, _)) = last.as_ref() {
                    shard.age.set(at.elapsed().as_secs_f64());
                }
            }
        }
    }
    inner.shards_up.set(up as f64);
    inner.rounds.inc();
    let merged = merge_shards(&merged_inputs);
    for family in &merged.skipped {
        inner
            .telemetry
            .events()
            .record("fleet_obs_merge_skipped", format!("family={family}"), 0);
    }
    let now_s = inner.epoch.elapsed().as_secs_f64();
    feed_slos(inner, &merged.snapshot, now_s);
    inner.slo.evaluate(now_s);
    *inner.merged.lock().unwrap_or_else(|e| e.into_inner()) = merged.to_prometheus();
    up
}

/// Extract good/bad counts for every SLO spec from the merged snapshot.
fn feed_slos(inner: &CollectorInner, snap: &MetricsSnapshot, now_s: f64) {
    for spec in inner.slo.specs() {
        match &spec.source {
            SloSource::LatencyBuckets {
                histogram,
                threshold,
            } => {
                if let Some(h) = snap.histogram(histogram, &[]) {
                    let good = h.count_le(*threshold);
                    inner
                        .slo
                        .observe_totals(&spec.name, good, h.count.saturating_sub(good), now_s);
                }
            }
            SloSource::ErrorRatio { total, bad } => {
                let total = snap.counter_sum(total, &[]).max(0.0) as u64;
                let bad = snap.counter_sum(bad, &[]).max(0.0) as u64;
                inner
                    .slo
                    .observe_totals(&spec.name, total.saturating_sub(bad), bad, now_s);
            }
            SloSource::GaugeFloor { gauge, floor } => {
                let worst = snap
                    .gauges
                    .iter()
                    .filter(|g| &g.name == gauge)
                    .map(|g| g.value)
                    .fold(f64::INFINITY, f64::min);
                if worst.is_finite() {
                    let bad = (worst < *floor) as u64;
                    inner.slo.observe_delta(&spec.name, 1 - bad, bad, now_s);
                }
            }
            SloSource::GaugeCeiling { gauge, ceiling } => {
                let worst = snap
                    .gauges
                    .iter()
                    .filter(|g| &g.name == gauge)
                    .map(|g| g.value)
                    .fold(f64::NEG_INFINITY, f64::max);
                if worst.is_finite() {
                    let bad = (worst > *ceiling) as u64;
                    inner.slo.observe_delta(&spec.name, 1 - bad, bad, now_s);
                }
            }
        }
    }
}

/// Minimal HTTP/1.0 GET against an ops endpoint. Returns the body on a
/// `200`, `None` on anything else. Caches the resolved address in `addr`.
fn http_get(
    endpoint: &str,
    path: &str,
    timeout: Duration,
    addr: &Mutex<Option<SocketAddr>>,
) -> Option<String> {
    let cached = *addr.lock().unwrap_or_else(|e| e.into_inner());
    let target = match cached {
        Some(a) => a,
        None => {
            let resolved = endpoint.to_socket_addrs().ok()?.next()?;
            *addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(resolved);
            resolved
        }
    };
    let result = (|| {
        let mut stream = TcpStream::connect_timeout(&target, timeout).ok()?;
        stream.set_read_timeout(Some(timeout)).ok()?;
        stream.set_write_timeout(Some(timeout)).ok()?;
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: {endpoint}\r\n\r\n").as_bytes())
            .ok()?;
        let mut response = String::new();
        stream.read_to_string(&mut response).ok()?;
        let (head, body) = response.split_once("\r\n\r\n")?;
        head.starts_with("HTTP/1.0 200").then(|| body.to_string())
    })();
    if result.is_none() {
        // Drop the cached address so a replaced shard re-resolves.
        *addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
    result
}

/// Pull the span objects for `trace_id` out of a `/traces` JSON document
/// without a full JSON parser: find `"trace_id":<id>,"spans":[`, then
/// bracket-match to the array's end, honouring strings and escapes.
fn extract_trace_spans(traces_json: &str, trace_id: u64) -> Vec<String> {
    let needle = format!("\"trace_id\":{trace_id},\"spans\":[");
    let Some(at) = traces_json.find(&needle) else {
        return Vec::new();
    };
    let body = &traces_json[at + needle.len()..];
    let Some(end) = matching_bracket_end(body) else {
        return Vec::new();
    };
    split_top_level_objects(&body[..end])
}

/// Index of the `]` closing an array whose `[` was just consumed.
fn matching_bracket_end(s: &str) -> Option<usize> {
    let mut depth = 1i32;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split `{...},{...},...` into its top-level object strings.
fn split_top_level_objects(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = None;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => {
                if depth == 0 && c == '{' {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(from) = start.take() {
                        out.push(s[from..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_span_extraction_handles_nesting_and_strings() {
        let doc = concat!(
            "{\"traces\":[",
            "{\"trace_id\":7,\"spans\":[",
            "{\"span_id\":1,\"name\":\"a[}]\",\"links\":[{\"trace_id\":9,\"span_id\":2}]},",
            "{\"span_id\":2,\"name\":\"b\\\"]\",\"links\":[]}",
            "]},",
            "{\"trace_id\":8,\"spans\":[{\"span_id\":3,\"name\":\"c\",\"links\":[]}]}",
            "]}"
        );
        let spans = extract_trace_spans(doc, 7);
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert!(spans[0].contains("\"span_id\":1"));
        assert!(spans[1].contains("\"span_id\":2"));
        assert!(extract_trace_spans(doc, 8).len() == 1);
        assert!(extract_trace_spans(doc, 99).is_empty());
    }

    #[test]
    fn healthz_quorum_math() {
        let cfg = CollectorConfig {
            shards: vec![
                ShardTarget {
                    name: "0".into(),
                    ops_addr: "127.0.0.1:1".into(),
                },
                ShardTarget {
                    name: "1".into(),
                    ops_addr: "127.0.0.1:1".into(),
                },
                ShardTarget {
                    name: "2".into(),
                    ops_addr: "127.0.0.1:1".into(),
                },
            ],
            scrape_timeout: Duration::from_millis(50),
            ..CollectorConfig::default()
        };
        let c = FleetCollector::new(cfg);
        // Nothing scraped yet: majority quorum of 3 is 2, zero up.
        let (healthy, detail) = c.healthz();
        assert!(!healthy, "{detail}");
        assert!(detail.contains("quorum=2"), "{detail}");
    }
}
