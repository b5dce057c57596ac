//! Spans recorded by the harness around calls into each layer.
//!
//! The crates are not instrumented: a "span" here is the wall time of one
//! public call, measured from outside. A request's nested picture
//! (`fleet.router_predict` ⊃ `serve.gateway_predict` ⊃ `core.predict` ⊃ …)
//! is built by sending the *same* input through each boundary in turn, one
//! caller, nothing else running, and laying the measured durations inside
//! one another. Spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    /// Microseconds from the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Record a span of `dur_us` starting at `start_us`, returning its id.
    pub fn push(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            end_us: start_us + dur_us,
        });
        id
    }

    /// Self time of every span: its duration minus the part of it its direct
    /// children cover (children are laid end to end, so their cover is the
    /// sum of their durations, capped at the parent's).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut child_cover = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p as usize] += s.end_us - s.start_us;
            }
        }
        self.spans
            .iter()
            .map(|s| ((s.end_us - s.start_us) - child_cover[s.id as usize]).max(0.0))
            .collect()
    }

    /// Median self time per span name, and that name's share of the median
    /// outermost span.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let selfs = self.self_times_us();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut roots = Vec::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(selfs[s.id as usize]);
            totals
                .entry(s.name)
                .or_default()
                .push(s.end_us - s.start_us);
            if s.parent.is_none() {
                roots.push(s.end_us - s.start_us);
            }
        }
        if roots.is_empty() {
            return Vec::new();
        }
        let root = crate::stats::median(&roots);
        by_name
            .into_iter()
            .map(|(name, v)| {
                let self_us = crate::stats::median(&v);
                LayerRow {
                    name,
                    total_us: crate::stats::median(&totals[name]),
                    self_us,
                    share: self_us / root,
                }
            })
            .collect()
    }

    /// Share of requests whose self times sum to within 10 % of their
    /// outermost span. They differ only where a call measured longer than
    /// the call that encloses it, which a stall between the two does.
    pub fn within_10pct_share(&self) -> f64 {
        let selfs = self.self_times_us();
        let mut sum: BTreeMap<u32, f64> = BTreeMap::new();
        let mut root: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            *sum.entry(s.request).or_default() += selfs[s.id as usize];
            if s.parent.is_none() {
                root.insert(s.request, s.end_us - s.start_us);
            }
        }
        let close = root
            .iter()
            .filter(|(r, total)| (sum[r] - **total).abs() <= 0.1 * **total)
            .count();
        close as f64 / root.len().max(1) as f64
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "request": s.request,
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                })
            })
            .collect();
        json!({ "spans": spans })
    }
}

/// One row of the per-layer self-time table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: &'static str,
    pub total_us: f64,
    pub self_us: f64,
    pub share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::default();
        let root = r.push(0, None, "outer", 0.0, 100.0);
        let mid = r.push(0, Some(root), "mid", 10.0, 60.0);
        r.push(0, Some(mid), "leaf_a", 10.0, 20.0);
        r.push(0, Some(mid), "leaf_b", 30.0, 25.0);
        let selfs = r.self_times_us();
        assert_eq!(selfs, vec![40.0, 15.0, 20.0, 25.0]);
        assert_eq!(r.within_10pct_share(), 1.0);
        let table = r.layer_table();
        let outer = table.iter().find(|row| row.name == "outer").unwrap();
        assert!((outer.share - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_child_measured_longer_than_its_parent_shows_as_residual() {
        let mut r = Recorder::default();
        let root = r.push(7, None, "outer", 0.0, 100.0);
        r.push(7, Some(root), "inner", 0.0, 130.0);
        assert_eq!(r.self_times_us(), vec![0.0, 130.0]);
        assert_eq!(r.within_10pct_share(), 0.0);
        let root = r.push(8, None, "outer", 0.0, 100.0);
        r.push(8, Some(root), "inner", 0.0, 95.0);
        assert_eq!(r.within_10pct_share(), 0.5);
    }
}
