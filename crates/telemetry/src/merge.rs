//! Metric snapshots: the one Prometheus text writer
//! ([`MetricsSnapshot::to_prometheus`]), its parser, and the merge that
//! combines snapshots from many processes into one fleet-wide view.
//!
//! A live registry renders by taking a
//! [`Telemetry::snapshot`](crate::Telemetry::snapshot) and writing it out.
//! The fleet collector scrapes every shard's `/metrics` endpoint, parses
//! each back into a snapshot, and needs a *merged* surface to evaluate SLOs
//! against. Merge semantics per instrument kind:
//!
//! * **counters** — summed across shards (totals are totals);
//! * **histograms** — bucket-wise sum when the `le` layouts match exactly
//!   (every shard runs the same code, so layouts agree unless versions
//!   are mixed mid-rollout; mismatches are reported, never half-merged);
//! * **gauges** — last-write-wins values cannot be meaningfully summed,
//!   so each shard's gauge is re-exported with a `shard` label and the
//!   consumer picks its own aggregation.
//!
//! The parser only targets the exposition this workspace produces (one
//! sample per line, `# HELP`/`# TYPE` headers, escaped label values); it
//! is not a general Prometheus parser.

use std::collections::BTreeMap;

use crate::instrument::bucket_quantile;
use crate::registry::Labels;

/// One counter or gauge sample: a name, its labels, a value.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarSeries {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The sample value.
    pub value: f64,
}

/// One histogram family instance: the `_bucket`/`_sum`/`_count` series
/// sharing a name and label set (minus `le`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSeries {
    /// Family name (without the `_bucket` suffix).
    pub name: String,
    /// Sorted label pairs, `le` excluded.
    pub labels: Labels,
    /// Ascending bucket upper bounds; the last entry is `+Inf`
    /// (`f64::INFINITY`).
    pub les: Vec<f64>,
    /// Cumulative counts, one per bound (Prometheus `_bucket` semantics).
    pub cumulative: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observation count (the `+Inf` cumulative bucket).
    pub count: u64,
}

impl HistogramSeries {
    /// Per-bucket (non-cumulative) counts, same length as
    /// [`les`](Self::les).
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut prev = 0u64;
        self.cumulative
            .iter()
            .map(|&c| {
                let d = c.saturating_sub(prev);
                prev = c;
                d
            })
            .collect()
    }

    /// Observations with value ≤ `bound`: the cumulative count of the
    /// first bucket whose upper bound is ≥ `bound`. With `bound` equal to
    /// a bucket edge this is exact; between edges it rounds up to the
    /// enclosing bucket (the conservative direction for an SLO's "good"
    /// count is to pick a bound that is a bucket edge).
    pub fn count_le(&self, bound: f64) -> u64 {
        for (le, &cum) in self.les.iter().zip(&self.cumulative) {
            if *le >= bound {
                return cum;
            }
        }
        self.count
    }

    /// Estimate the `q`-quantile by geometric interpolation inside the
    /// bucket containing the rank — the same estimator the live
    /// [`Histogram`](crate::Histogram) uses, so federated and local
    /// quantiles agree on identical data. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count.max(self.cumulative.last().copied().unwrap_or(0));
        bucket_quantile(&self.les, &self.bucket_counts(), total, q)
    }
}

/// Bucket-wise sum of two same-layout histograms. Returns `None` when the
/// `le` layouts differ (different lengths or any bound mismatching beyond
/// f64 round-trip noise) — mixed layouts must be surfaced, not blended.
/// Counts saturate at `u64::MAX` instead of wrapping.
pub fn merge_histograms(a: &HistogramSeries, b: &HistogramSeries) -> Option<HistogramSeries> {
    if a.les.len() != b.les.len() {
        return None;
    }
    for (x, y) in a.les.iter().zip(&b.les) {
        let same_inf = x.is_infinite() && y.is_infinite();
        if !same_inf && x != y {
            return None;
        }
    }
    Some(HistogramSeries {
        name: a.name.clone(),
        labels: a.labels.clone(),
        les: a.les.clone(),
        cumulative: a
            .cumulative
            .iter()
            .zip(&b.cumulative)
            .map(|(x, y)| x.saturating_add(*y))
            .collect(),
        sum: a.sum + b.sum,
        count: a.count.saturating_add(b.count),
    })
}

/// A point-in-time metric view: typed series plus the HELP text, read
/// from a live registry, parsed from an exposition, or merged.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter samples.
    pub counters: Vec<ScalarSeries>,
    /// Gauge samples.
    pub gauges: Vec<ScalarSeries>,
    /// Histogram families.
    pub histograms: Vec<HistogramSeries>,
    /// Unescaped, non-empty `# HELP` text by metric name.
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// Parse a Prometheus text exposition produced by
    /// [`Telemetry::prometheus`](crate::Telemetry::prometheus). Unknown
    /// or malformed lines are skipped — a partially-garbled scrape
    /// degrades to the parseable subset rather than failing wholesale.
    pub fn parse(text: &str) -> MetricsSnapshot {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut snap = MetricsSnapshot::default();
        // Histogram families under assembly, keyed by (family, labels).
        let mut hists: BTreeMap<(String, Labels), HistogramSeries> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.splitn(2, ' ');
                if let (Some(name), Some(ty)) = (it.next(), it.next()) {
                    types.insert(name.to_string(), ty.trim().to_string());
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let mut it = rest.splitn(2, ' ');
                if let (Some(name), Some(help)) = (it.next(), it.next()) {
                    let mut text = String::with_capacity(help.len());
                    let mut chars = help.chars();
                    while let Some(c) = chars.next() {
                        if c != '\\' {
                            text.push(c);
                            continue;
                        }
                        match chars.next() {
                            Some('n') => text.push('\n'),
                            Some(other) => text.push(other),
                            None => text.push('\\'),
                        }
                    }
                    snap.help.insert(name.to_string(), text);
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let Some((name, labels, value)) = parse_sample(line) else {
                continue;
            };
            // Histogram component lines reference the family's TYPE entry.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf).map(|f| (f.to_string(), *suf)));
            if let Some((fam, suffix)) = family {
                if types.get(&fam).map(String::as_str) == Some("histogram") {
                    let (le, labels_sans_le) = split_le(labels);
                    let entry = hists
                        .entry((fam.clone(), labels_sans_le.clone()))
                        .or_insert_with(|| HistogramSeries {
                            name: fam,
                            labels: labels_sans_le,
                            les: Vec::new(),
                            cumulative: Vec::new(),
                            sum: 0.0,
                            count: 0,
                        });
                    match suffix {
                        "_bucket" => {
                            if let Some(le) = le {
                                entry.les.push(le);
                                entry.cumulative.push(value.max(0.0) as u64);
                            }
                        }
                        "_sum" => entry.sum = value,
                        _ => entry.count = value.max(0.0) as u64,
                    }
                    continue;
                }
            }
            match types.get(&name).map(String::as_str) {
                Some("counter") => snap.counters.push(ScalarSeries {
                    name,
                    labels,
                    value,
                }),
                Some("gauge") => snap.gauges.push(ScalarSeries {
                    name,
                    labels,
                    value,
                }),
                _ => {}
            }
        }
        snap.histograms = hists.into_values().collect();
        snap
    }

    /// Find a histogram family by name and an exact label subset match
    /// (every `(k, v)` in `labels` present on the series).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSeries> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_superset(&h.labels, labels))
    }

    /// Sum of every counter sample matching `name` and the label subset.
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.counters
            .iter()
            .filter(|c| c.name == name && labels_superset(&c.labels, labels))
            .map(|c| c.value)
            .sum()
    }

    /// The first gauge sample matching `name` and the label subset.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_superset(&g.labels, labels))
            .map(|g| g.value)
    }
}

fn labels_superset(have: &Labels, want: &[(&str, &str)]) -> bool {
    want.iter()
        .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

/// A fleet-wide merged view plus what could not be merged.
#[derive(Debug, Clone, Default)]
pub struct MergedMetrics {
    /// The merged snapshot (counters summed, histograms bucket-summed,
    /// gauges re-labelled per shard).
    pub snapshot: MetricsSnapshot,
    /// Histogram families dropped because shards disagreed on layout.
    pub skipped: Vec<String>,
    /// How many shard snapshots went into the merge.
    pub shards_merged: usize,
}

/// Merge per-shard snapshots into one fleet view. `shards` pairs a stable
/// shard label (attached to gauges) with that shard's parsed scrape.
pub fn merge_shards(shards: &[(String, MetricsSnapshot)]) -> MergedMetrics {
    let mut counters: BTreeMap<(String, Labels), f64> = BTreeMap::new();
    let mut hists: BTreeMap<(String, Labels), Option<HistogramSeries>> = BTreeMap::new();
    let mut gauges: Vec<ScalarSeries> = Vec::new();
    let mut help: BTreeMap<String, String> = BTreeMap::new();
    let mut skipped: Vec<String> = Vec::new();
    for (shard, snap) in shards {
        for (name, h) in &snap.help {
            help.entry(name.clone()).or_insert_with(|| h.clone());
        }
        for c in &snap.counters {
            *counters
                .entry((c.name.clone(), c.labels.clone()))
                .or_insert(0.0) += c.value;
        }
        for g in &snap.gauges {
            let mut labels = g.labels.clone();
            labels.push(("shard".to_string(), shard.clone()));
            labels.sort();
            gauges.push(ScalarSeries {
                name: g.name.clone(),
                labels,
                value: g.value,
            });
        }
        for h in &snap.histograms {
            let key = (h.name.clone(), h.labels.clone());
            match hists.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(Some(h.clone()));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let slot = e.get_mut();
                    if let Some(acc) = slot.take() {
                        match merge_histograms(&acc, h) {
                            Some(merged) => *slot = Some(merged),
                            None => {
                                // Poison the key: a half-merged histogram
                                // would silently misreport quantiles.
                                skipped.push(format!(
                                    "{} (shard {shard}: bucket layout mismatch)",
                                    h.name
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    let snapshot = MetricsSnapshot {
        counters: counters
            .into_iter()
            .map(|((name, labels), value)| ScalarSeries {
                name,
                labels,
                value,
            })
            .collect(),
        gauges,
        histograms: hists.into_values().flatten().collect(),
        help,
    };
    MergedMetrics {
        snapshot,
        skipped,
        shards_merged: shards.len(),
    }
}

impl MetricsSnapshot {
    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# HELP` / `# TYPE` header per metric name,
    /// names in sorted order, series of one name in snapshot order,
    /// cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
    /// histograms. This is the workspace's only exposition writer: a live
    /// registry renders through [`Telemetry::snapshot`](crate::Telemetry::snapshot),
    /// a fleet view through [`merge_shards`].
    pub fn to_prometheus(&self) -> String {
        enum Row<'a> {
            Scalar(&'a ScalarSeries, &'static str),
            Hist(&'a HistogramSeries),
        }
        let mut rows: Vec<(&str, Row<'_>)> = Vec::new();
        for c in &self.counters {
            rows.push((&c.name, Row::Scalar(c, "counter")));
        }
        for g in &self.gauges {
            rows.push((&g.name, Row::Scalar(g, "gauge")));
        }
        for h in &self.histograms {
            rows.push((&h.name, Row::Hist(h)));
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::new();
        let mut last = "";
        for (name, row) in &rows {
            if *name != last {
                if let Some(help) = self.help.get(*name) {
                    let help = help.replace('\\', "\\\\").replace('\n', "\\n");
                    out.push_str(&format!("# HELP {name} {help}\n"));
                }
                let ty = match row {
                    Row::Scalar(_, ty) => ty,
                    Row::Hist(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {name} {ty}\n"));
                last = name;
            }
            match row {
                Row::Scalar(s, _) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        render_labels(&s.labels, None),
                        fmt_f64(s.value)
                    ));
                }
                Row::Hist(h) => {
                    for (le, cum) in h.les.iter().zip(&h.cumulative) {
                        let le = if le.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            fmt_f64(*le)
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            h.name,
                            render_labels(&h.labels, Some(&le)),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        h.name,
                        render_labels(&h.labels, None),
                        fmt_f64(h.sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        h.name,
                        render_labels(&h.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

/// Format an `f64` the way both Prometheus and JSON accept: finite shortest
/// round-trip form, never `NaN`/`inf` (mapped to 0).
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    format!("{v}")
}

/// Render `{k="v",...}` (with `le` appended for histogram buckets), or the
/// empty string when there is nothing to render.
fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Split the `le` label out of a bucket line's label set.
fn split_le(labels: Labels) -> (Option<f64>, Labels) {
    let mut le = None;
    let mut rest = Vec::with_capacity(labels.len());
    for (k, v) in labels {
        if k == "le" {
            le = if v == "+Inf" {
                Some(f64::INFINITY)
            } else {
                v.parse::<f64>().ok()
            };
        } else {
            rest.push((k, v));
        }
    }
    (le, rest)
}

/// Parse one sample line: `name{k="v",...} value` or `name value`.
fn parse_sample(line: &str) -> Option<(String, Labels, f64)> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let name = &line[..brace];
            let close = find_label_close(&line[brace..])? + brace;
            (name, (&line[brace + 1..close], &line[close + 1..]))
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next()?;
            return Some((
                name.to_string(),
                Vec::new(),
                it.next()?.trim().parse().ok()?,
            ));
        }
    };
    let (label_text, value_text) = rest;
    let value: f64 = value_text.trim().parse().ok()?;
    let mut labels = parse_labels(label_text)?;
    labels.sort();
    Some((name_part.to_string(), labels, value))
}

/// Find the index (relative to `s`, which starts at `{`) of the matching
/// `}` — label values are quoted strings with backslash escapes, so a
/// literal `}` inside a value must not close the block.
fn find_label_close(s: &str) -> Option<usize> {
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
        } else if c == '"' {
            in_str = true;
        } else if c == '}' {
            return Some(i);
        }
    }
    None
}

fn parse_labels(text: &str) -> Option<Labels> {
    let mut labels = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return None;
        }
        // Scan the quoted value, honouring escapes.
        let mut value = String::new();
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after[1..].char_indices() {
            if escaped {
                match c {
                    'n' => value.push('\n'),
                    other => value.push(other),
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end?;
        labels.push((key, value));
        rest = after[1 + end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, Telemetry};

    fn hist(name: &str, les: &[f64], cumulative: &[u64], sum: f64) -> HistogramSeries {
        HistogramSeries {
            name: name.to_string(),
            labels: Vec::new(),
            les: les.to_vec(),
            cumulative: cumulative.to_vec(),
            sum,
            count: cumulative.last().copied().unwrap_or(0),
        }
    }

    #[test]
    fn parse_roundtrips_the_live_registry_output() {
        let t = Telemetry::new();
        t.counter("req_total", "Requests").add(7);
        t.counter_with("shed_total", "Sheds", &[("reason", "overload")])
            .add(2);
        t.gauge_with("up", "Shard up", &[("shard", "0")]).set(1.0);
        let h = t.histogram_custom("lat_seconds", "Latency", &[], || {
            Histogram::with_log_buckets(0.5, 2.0, 1)
        });
        h.observe(0.4);
        h.observe(64.0);
        let snap = MetricsSnapshot::parse(&t.prometheus());
        assert_eq!(snap.counter_sum("req_total", &[]), 7.0);
        assert_eq!(
            snap.counter_sum("shed_total", &[("reason", "overload")]),
            2.0
        );
        assert_eq!(snap.gauge("up", &[("shard", "0")]), Some(1.0));
        let hs = snap.histogram("lat_seconds", &[]).unwrap();
        assert_eq!(hs.les, vec![0.5, 1.0, 2.0, f64::INFINITY]);
        assert_eq!(hs.cumulative, vec![1, 1, 1, 2]);
        assert_eq!(hs.count, 2);
        assert!((hs.sum - 64.4).abs() < 1e-9);
        assert_eq!(hs.bucket_counts(), vec![1, 0, 0, 1]);
    }

    #[test]
    fn federated_and_local_quantiles_agree_on_identical_data() {
        let t = Telemetry::new();
        let live = t.histogram("lat_seconds", "Latency");
        // Below the first bound, across the middle, and into the overflow
        // bucket: every branch of the estimator.
        for v in [2e-7, 3e-4, 1e-3, 1.5e-3, 2e-3, 8e-3, 0.02, 0.3, 5.0, 100.0] {
            live.observe(v);
        }
        let snap = MetricsSnapshot::parse(&t.prometheus());
        let parsed = snap.histogram("lat_seconds", &[]).unwrap();
        for q in [0.0, 0.05, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(parsed.quantile(q), live.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn escaped_label_values_parse_back() {
        let t = Telemetry::new();
        t.counter_with("weird_total", "", &[("path", "a\"b\\c\nd}e")])
            .inc();
        let snap = MetricsSnapshot::parse(&t.prometheus());
        let weird = snap
            .counters
            .iter()
            .find(|c| c.name == "weird_total")
            .unwrap();
        assert_eq!(weird.labels[0].1, "a\"b\\c\nd}e");
        assert_eq!(
            snap.counter_sum("weird_total", &[("path", "a\"b\\c\nd}e")]),
            1.0
        );
    }

    #[test]
    fn merge_sums_counters_and_labels_gauges_per_shard() {
        let mk = |reqs: u64, up: f64| {
            let t = Telemetry::new();
            t.counter("req_total", "").add(reqs);
            t.gauge("queue_depth", "").set(up);
            MetricsSnapshot::parse(&t.prometheus())
        };
        let merged = merge_shards(&[("0".into(), mk(3, 5.0)), ("1".into(), mk(4, 9.0))]);
        assert_eq!(merged.snapshot.counter_sum("req_total", &[]), 7.0);
        assert_eq!(
            merged.snapshot.gauge("queue_depth", &[("shard", "0")]),
            Some(5.0)
        );
        assert_eq!(
            merged.snapshot.gauge("queue_depth", &[("shard", "1")]),
            Some(9.0)
        );
        assert!(merged.skipped.is_empty());
        // Rendered output parses back to the same totals.
        let reparsed = MetricsSnapshot::parse(&merged.snapshot.to_prometheus());
        assert_eq!(reparsed.counter_sum("req_total", &[]), 7.0);
    }

    #[test]
    fn histogram_merge_is_bucket_exact() {
        let a = hist("h", &[1.0, 2.0, f64::INFINITY], &[1, 3, 4], 5.0);
        let b = hist("h", &[1.0, 2.0, f64::INFINITY], &[0, 2, 7], 20.0);
        let m = merge_histograms(&a, &b).unwrap();
        assert_eq!(m.cumulative, vec![1, 5, 11]);
        assert_eq!(m.count, 11);
        assert_eq!(m.sum, 25.0);
        assert_eq!(m.bucket_counts(), vec![1, 4, 6]);
    }

    #[test]
    fn empty_merges_with_nonempty_as_identity() {
        let empty = hist("h", &[1.0, 2.0, f64::INFINITY], &[0, 0, 0], 0.0);
        let full = hist("h", &[1.0, 2.0, f64::INFINITY], &[2, 5, 9], 12.5);
        let m = merge_histograms(&empty, &full).unwrap();
        assert_eq!(m.cumulative, full.cumulative);
        assert_eq!(m.sum, full.sum);
        assert_eq!(m.count, full.count);
        // Quantiles of the merge equal the non-empty side's.
        assert_eq!(m.quantile(0.5), full.quantile(0.5));
    }

    #[test]
    fn disjoint_populated_buckets_union() {
        // a fills only the first bucket, b only the overflow bucket.
        let a = hist("h", &[1.0, 2.0, f64::INFINITY], &[4, 4, 4], 2.0);
        let b = hist("h", &[1.0, 2.0, f64::INFINITY], &[0, 0, 6], 60.0);
        let m = merge_histograms(&a, &b).unwrap();
        assert_eq!(m.bucket_counts(), vec![4, 0, 6]);
        // Median sits in the low bucket, p99 in the overflow.
        assert!(m.quantile(0.4) <= 1.0);
        assert!(m.quantile(0.99) >= 2.0);
    }

    #[test]
    fn overflow_counts_saturate_instead_of_wrapping() {
        let a = hist("h", &[1.0, f64::INFINITY], &[u64::MAX - 1, u64::MAX], 1.0);
        let b = hist("h", &[1.0, f64::INFINITY], &[5, 10], 1.0);
        let m = merge_histograms(&a, &b).unwrap();
        assert_eq!(m.cumulative, vec![u64::MAX, u64::MAX]);
        assert_eq!(m.count, u64::MAX);
    }

    #[test]
    fn layout_mismatch_refuses_to_merge() {
        let a = hist("h", &[1.0, 2.0, f64::INFINITY], &[1, 2, 3], 1.0);
        let b = hist("h", &[1.0, 4.0, f64::INFINITY], &[1, 2, 3], 1.0);
        assert!(merge_histograms(&a, &b).is_none());
        let c = hist("h", &[1.0, f64::INFINITY], &[1, 2], 1.0);
        assert!(merge_histograms(&a, &c).is_none());
        // And merge_shards reports the family instead of half-merging it.
        let snap_of = |h: &HistogramSeries| MetricsSnapshot {
            histograms: vec![h.clone()],
            ..MetricsSnapshot::default()
        };
        let merged = merge_shards(&[("0".into(), snap_of(&a)), ("1".into(), snap_of(&b))]);
        assert!(merged.snapshot.histograms.is_empty());
        assert_eq!(merged.skipped.len(), 1);
        assert!(merged.skipped[0].contains('h'), "{:?}", merged.skipped);
    }

    mod quantile_bound_prop {
        use super::*;
        use proptest::prelude::*;

        /// The bucket index a quantile estimate falls in (les are shared).
        fn qbucket(h: &HistogramSeries, q: f64) -> usize {
            let v = h.quantile(q);
            h.les
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(h.les.len() - 1)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn merged_quantiles_are_bounded_bucketwise(
                counts_a in proptest::collection::vec(0u64..1000, 5),
                counts_b in proptest::collection::vec(0u64..1000, 5),
                qi in 1u32..100,
            ) {
                let les = [0.5, 1.0, 2.0, 4.0, f64::INFINITY];
                let cum = |counts: &[u64]| {
                    let mut acc = 0u64;
                    counts.iter().map(|c| { acc += c; acc }).collect::<Vec<_>>()
                };
                let a = hist("h", &les, &cum(&counts_a), 0.0);
                let b = hist("h", &les, &cum(&counts_b), 0.0);
                prop_assume!(a.count > 0 && b.count > 0);
                let m = merge_histograms(&a, &b).unwrap();
                let q = qi as f64 / 100.0;
                // Merging cannot move a quantile outside the bucket range
                // spanned by the two inputs' quantiles.
                let (qa, qb, qm) = (qbucket(&a, q), qbucket(&b, q), qbucket(&m, q));
                prop_assert!(qm >= qa.min(qb), "q{qi}: merged bucket {qm} < min({qa},{qb})");
                prop_assert!(qm <= qa.max(qb), "q{qi}: merged bucket {qm} > max({qa},{qb})");
            }
        }
    }
}
