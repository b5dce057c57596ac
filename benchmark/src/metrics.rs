//! Every metric the benchmark reports, by name, with unit and direction.
//! `BENCHMARK.json` must list exactly these (a unit test holds the two
//! together); the bounds live only there.

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Reported by every workload with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("throughput_per_s", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("cpu_ms_per_op", "ms", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Reported with tracing on. A workload that does not cross a layer reports
/// that layer's metrics as 0.
pub const PER_LAYER: &[Metric] = &[
    m("loadgen.sent", "count", Higher),
    m("loadgen.ok", "count", Higher),
    m("loadgen.failed", "count", Lower),
    m("loadgen.offered_per_s", "1/s", Higher),
    m("loadgen.late_p99_ms", "ms", Lower),
    m("loadgen.latency_p95_ms", "ms", Lower),
    m("loadgen.latency_p99_ms", "ms", Lower),
    m("host.steal_share", "ratio", Lower),
    m("loadgen.span_overhead_pct", "%", Lower),
    m("answers.accuracy_mean", "ratio", Higher),
    m("trace.compute_share", "ratio", Lower),
    m("trace.within_10pct_share", "ratio", Higher),
    m("workload.trace_generate_s", "s", Lower),
    m("text.w2v_train_s", "s", Lower),
    m("text.map.us_per_script_b1", "us", Lower),
    m("text.map.us_per_script_b32", "us", Lower),
    m("tensor.gemm.gflops_b1", "GFLOP/s", Higher),
    m("tensor.gemm.gflops_b32", "GFLOP/s", Higher),
    m("tensor.gemm.pack_share_b32", "ratio", Lower),
    m("tensor.gemm.flops_per_script", "FLOP", Lower),
    m("tensor.gemm.bytes_per_script", "B", Lower),
    m("tensor.im2col.us_per_script", "us", Lower),
    m("tensor.im2col.bytes_per_script", "B", Lower),
    m("nn.forward.ms_b1", "ms", Lower),
    m("nn.forward.ms_b4", "ms", Lower),
    m("nn.forward.ms_b32", "ms", Lower),
    m("nn.forward.gflops_b1", "GFLOP/s", Higher),
    m("nn.train_step.ms_b32", "ms", Lower),
    m("core.predict.ms_b1", "ms", Lower),
    m("core.predict.ms_b4", "ms", Lower),
    m("core.predict.ms_b32", "ms", Lower),
    m("core.retrain.s_per_epoch_500", "s", Lower),
    m("core.retrain.samples_per_s", "1/s", Higher),
    m("core.online.retrain_share", "ratio", Lower),
    m("core.online.predict_share", "ratio", Lower),
    m("core.online.retrains", "count", Higher),
    m("core.checkpoint.encode_ms", "ms", Lower),
    m("core.checkpoint.apply_ms", "ms", Lower),
    m("store.frame.roundtrip_us", "us", Lower),
    m("store.checkpoint.bytes", "B", Lower),
    m("store.checkpoint.roundtrip_ms", "ms", Lower),
    m("serve.gateway.predict_ms_p50", "ms", Lower),
    m("serve.gateway.self_ms_p50", "ms", Lower),
    m("serve.gateway.closed2_per_s", "1/s", Higher),
    m("serve.swap.visible_ms", "ms", Lower),
    m("serve.retrain.cycle_s", "s", Lower),
    m("serve.train_cycles_per_min", "1/min", Higher),
    m("fleet.router.predict_ms_p50", "ms", Lower),
    m("fleet.router.self_ms_p50", "ms", Lower),
    m("fleet.proto.codec_us", "us", Lower),
    m("fleet.proto.req_bytes", "B", Lower),
    m("fleet.proto.reply_bytes", "B", Lower),
    m("fleet.ring.lookup_ns", "ns", Lower),
    m("fleet.shard.served", "count", Higher),
    m("fleet.shard.shed", "count", Lower),
    m("fleet.shard.failover_arrivals", "count", Lower),
    m("fleet.shard.balance", "ratio", Lower),
    m("observe.tracing.overhead_pct", "%", Lower),
    m("telemetry.render_ms", "ms", Lower),
    m("sched.sim.jobs_per_s", "1/s", Higher),
    m("sched.io_timeline_ms", "ms", Lower),
    m("sched.burst_metrics_ms", "ms", Lower),
    m("forecast.aggregator.updates_per_s", "1/s", Higher),
    m("forecast.engine.tick_us", "us", Lower),
    m("revise.tick_ms_p50", "ms", Lower),
    m("revise.revisions_per_s", "1/s", Higher),
    m("revise.revisions", "count", Higher),
    m("revise.kills", "count", Lower),
    m("revise.coverage_90", "ratio", Higher),
];

pub fn list(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(
                valid_unit(metric.unit),
                "{} unit {}",
                metric.name,
                metric.unit
            );
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        for w in crate::workloads::NAMES {
            assert!(valid_name(w) && seen.insert(w));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&String> = spec.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = spec.get(key).unwrap().as_array().unwrap();
            assert_eq!(theirs.len(), ours.len(), "{key}");
            for (t, o) in theirs.iter().zip(ours) {
                assert_eq!(t.get("name").unwrap().as_str(), Some(o.name));
                assert_eq!(t.get("unit").unwrap().as_str(), Some(o.unit), "{}", o.name);
                assert_eq!(
                    t.get("better").unwrap().as_str(),
                    Some(o.better.label()),
                    "{}",
                    o.name
                );
                let bound = t.get("bound").and_then(Value::as_f64);
                if key == "end_to_end" {
                    assert!(
                        bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                        "{} bound",
                        o.name
                    );
                } else {
                    assert!(bound.is_none(), "{} has a bound", o.name);
                }
            }
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        for w in spec.get("workloads").unwrap().as_array().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
    }
}
