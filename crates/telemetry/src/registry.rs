//! The [`Telemetry`] registry: named instruments, with snapshot export to JSON and Prometheus text exposition format.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a short mutex on
//! a flat entry list and is expected to happen once, at wiring time; the
//! returned handles are then updated lock-free on the hot path. The same
//! (name, labels) pair always resolves to the same underlying instrument,
//! so independent components can share a metric safely.

use crate::instrument::{Counter, Gauge, Histogram};
use crate::merge::{fmt_f64, HistogramSeries, MetricsSnapshot, ScalarSeries};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A metric's label set: `(key, value)` pairs, order-insensitive.
pub type Labels = Vec<(String, String)>;

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Labels,
    inst: Instrument,
}

struct RegistryInner {
    start: Instant,
    entries: Mutex<Vec<Entry>>,
}

/// The telemetry registry handle. Cloning is cheap and shares all state, so
/// one registry can thread through every layer of the stack.
///
/// ```
/// use prionn_telemetry::Telemetry;
/// let t = Telemetry::new();
/// let served = t.counter("predictions_served_total", "Prediction requests served");
/// served.inc();
/// // The same (name, labels) pair resolves to the same counter:
/// t.counter("predictions_served_total", "").inc();
/// assert_eq!(served.value(), 2);
/// let text = t.prometheus();
/// assert!(text.contains("# TYPE predictions_served_total counter"));
/// assert!(text.contains("predictions_served_total 2"));
/// ```
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<RegistryInner>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Arc::new(RegistryInner {
                start: Instant::now(),
                entries: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Get or register the counter `name` with no labels.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or register the counter `name` with the given labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    /// Get or register the gauge `name` with no labels.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or register the gauge `name` with the given labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, labels, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    /// Get or register a latency histogram (default log-bucket layout, 1 µs
    /// – 64 s) named `name` with no labels.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Get or register a latency histogram with the given labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_custom(name, help, labels, Histogram::latency)
    }

    /// Get or register a histogram with a caller-chosen bucket layout
    /// (used for non-latency quantities such as losses or norms).
    pub fn histogram_custom(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Histogram,
    ) -> Histogram {
        match self.get_or_insert(name, help, labels, || Instrument::Histogram(make())) {
            Instrument::Histogram(h) => h,
            other => panic!(
                "metric {name} already registered as a {}",
                other.type_name()
            ),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let name = sanitize_name(name);
        let mut labels: Labels = labels
            .iter()
            .map(|(k, v)| (sanitize_name(k), v.to_string()))
            .collect();
        labels.sort();
        let mut entries = self.inner.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.inst.clone();
        }
        let inst = make();
        entries.push(Entry {
            name,
            help: help.to_string(),
            labels,
            inst: inst.clone(),
        });
        inst
    }

    /// Seconds since the registry was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }

    /// Read every registered instrument, in registration order, into a
    /// [`MetricsSnapshot`]: histograms get `les` = bounds + `+Inf` and
    /// cumulative counts; each name keeps the help it was first
    /// registered with, and an empty help is left out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.inner.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = MetricsSnapshot::default();
        for e in entries.iter() {
            snap.help
                .entry(e.name.clone())
                .or_insert_with(|| e.help.clone());
            let (name, labels) = (e.name.clone(), e.labels.clone());
            match &e.inst {
                Instrument::Counter(c) => snap.counters.push(ScalarSeries {
                    name,
                    labels,
                    value: c.value() as f64,
                }),
                Instrument::Gauge(g) => snap.gauges.push(ScalarSeries {
                    name,
                    labels,
                    value: g.value(),
                }),
                Instrument::Histogram(h) => {
                    let mut count = 0u64;
                    let cumulative = h
                        .merged_counts()
                        .iter()
                        .map(|c| {
                            count += c;
                            count
                        })
                        .collect();
                    let mut les = h.bounds().to_vec();
                    les.push(f64::INFINITY);
                    snap.histograms.push(HistogramSeries {
                        name,
                        labels,
                        les,
                        cumulative,
                        sum: h.sum(),
                        count,
                    });
                }
            }
        }
        snap.help.retain(|_, help| !help.is_empty());
        snap
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format: [`MetricsSnapshot::to_prometheus`] of [`snapshot`](Self::snapshot).
    pub fn prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Render a point-in-time snapshot as a JSON object: uptime and every
    /// metric (histograms include p50/p90/p99 estimates).
    pub fn json(&self) -> String {
        let snap = self.snapshot();
        let labels_json = |labels: &Labels| {
            let pairs: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            format!("{{{}}}", pairs.join(","))
        };
        let mut metrics: Vec<String> = Vec::new();
        for (ty, s) in (snap.counters.iter().map(|s| ("counter", s)))
            .chain(snap.gauges.iter().map(|s| ("gauge", s)))
        {
            metrics.push(format!(
                "{{\"name\":{},\"type\":\"{ty}\",\"labels\":{},\"value\":{}}}",
                json_str(&s.name),
                labels_json(&s.labels),
                fmt_f64(s.value)
            ));
        }
        for h in &snap.histograms {
            metrics.push(format!(
                "{{\"name\":{},\"type\":\"histogram\",\"labels\":{},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_str(&h.name),
                labels_json(&h.labels),
                h.count,
                fmt_f64(h.sum),
                fmt_f64(h.sum / h.count.max(1) as f64),
                fmt_f64(h.quantile(0.5)),
                fmt_f64(h.quantile(0.9)),
                fmt_f64(h.quantile(0.99)),
            ));
        }
        format!(
            "{{\"uptime_seconds\":{},\"metrics\":[{}]}}",
            fmt_f64(self.uptime_seconds()),
            metrics.join(",")
        )
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self
            .inner
            .entries
            .lock()
            .map(|e| e.len())
            .unwrap_or_default();
        f.debug_struct("Telemetry").field("metrics", &n).finish()
    }
}

/// Replace characters outside `[a-zA-Z0-9_:]` with `_` (Prometheus metric
/// name charset); prefix a digit-leading name with `_`.
fn sanitize_name(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    if s.is_empty() {
        s.push('_');
    }
    s
}

/// Quote `s` as a JSON string: `"` and `\` escaped, control characters
/// as `\n`/`\r`/`\t` or `\u00XX`. The workspace's one JSON string escaper,
/// shared by [`Telemetry::json`], flight dumps and the ops routes.
///
/// ```
/// assert_eq!(prionn_telemetry::json_str("a\"b\n\u{1}"), r#""a\"b\n\u0001""#);
/// ```
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_golden_output() {
        let t = Telemetry::new();
        t.counter("requests_total", "Requests served").add(3);
        t.gauge_with("queue_depth", "Waiting batches", &[("queue", "retrain")])
            .set(2.0);
        let h = t.histogram_custom("latency_seconds", "Latency", &[], || {
            Histogram::with_log_buckets(0.5, 2.0, 1)
        });
        h.observe(0.4);
        h.observe(0.9);
        h.observe(64.0);
        let got = t.prometheus();
        let want = "\
# HELP latency_seconds Latency
# TYPE latency_seconds histogram
latency_seconds_bucket{le=\"0.5\"} 1
latency_seconds_bucket{le=\"1\"} 2
latency_seconds_bucket{le=\"2\"} 2
latency_seconds_bucket{le=\"+Inf\"} 3
latency_seconds_sum 65.3
latency_seconds_count 3
# HELP queue_depth Waiting batches
# TYPE queue_depth gauge
queue_depth{queue=\"retrain\"} 2
# HELP requests_total Requests served
# TYPE requests_total counter
requests_total 3
";
        assert_eq!(got, want);
    }

    #[test]
    fn same_name_different_labels_are_distinct_series() {
        let t = Telemetry::new();
        t.counter_with("layer_ops_total", "ops", &[("layer", "0.dense")])
            .inc();
        t.counter_with("layer_ops_total", "ops", &[("layer", "1.relu")])
            .add(2);
        let text = t.prometheus();
        assert!(text.contains("layer_ops_total{layer=\"0.dense\"} 1"));
        assert!(text.contains("layer_ops_total{layer=\"1.relu\"} 2"));
        assert_eq!(text.matches("# TYPE layer_ops_total").count(), 1);
    }

    #[test]
    fn json_snapshot_contains_quantiles() {
        let t = Telemetry::new();
        let h = t.histogram("predict_seconds", "Predict latency");
        h.observe(0.01);
        let json = t.json();
        assert!(json.contains("\"name\":\"predict_seconds\""));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn names_and_labels_are_sanitized() {
        let t = Telemetry::new();
        t.counter("bad name-1", "").inc();
        let text = t.prometheus();
        assert!(text.contains("bad_name_1 1"), "{text}");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let t = Telemetry::new();
        t.counter("m", "");
        t.gauge("m", "");
    }
}
