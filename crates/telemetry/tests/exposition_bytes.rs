//! Byte-level guard on the Prometheus exposition: one deterministic
//! registry covering every shape the writer handles must render to exactly
//! these bytes, and parsing them back must re-render the same bytes.

use prionn_telemetry::{Histogram, MetricsSnapshot, Telemetry};

fn registry() -> Telemetry {
    let t = Telemetry::new();
    t.counter(
        "requests_total",
        "Requests served \\ per route\nsecond help line",
    )
    .add(5);
    t.gauge("queue_depth", "").set(3.0);
    t.gauge_with("queue_depth", "Waiting batches", &[("queue", "retrain")])
        .set(-1.5);
    t.counter_with("requests_total", "Later help", &[("route", "/a\"b}c")])
        .add(2);
    let loss = t.histogram_custom("loss", "Epoch loss", &[("head", "runtime")], || {
        Histogram::with_log_buckets(0.25, 2.0, 1)
    });
    for v in [0.1, 0.3, 0.3, 1.5, 9.0] {
        loss.observe(v);
    }
    let lat = t.histogram("predict_seconds", "Predict latency");
    for v in [2e-6, 3e-4, 0.02, 0.02, 100.0] {
        lat.observe(v);
    }
    t.counter_with("bad name-1", "", &[("label-key", "v\\w\nx")])
        .inc();
    t.gauge("ratio", "A fraction").set(0.125);
    t
}

const WANT: &str = r##"# TYPE bad_name_1 counter
bad_name_1{label_key="v\\w\nx"} 1
# HELP loss Epoch loss
# TYPE loss histogram
loss_bucket{head="runtime",le="0.25"} 1
loss_bucket{head="runtime",le="0.5"} 3
loss_bucket{head="runtime",le="1"} 3
loss_bucket{head="runtime",le="2"} 4
loss_bucket{head="runtime",le="+Inf"} 5
loss_sum{head="runtime"} 11.2
loss_count{head="runtime"} 5
# HELP predict_seconds Predict latency
# TYPE predict_seconds histogram
predict_seconds_bucket{le="0.000001"} 0
predict_seconds_bucket{le="0.0000014142135623730952"} 0
predict_seconds_bucket{le="0.0000020000000000000003"} 1
predict_seconds_bucket{le="0.0000028284271247461907"} 1
predict_seconds_bucket{le="0.0000040000000000000015"} 1
predict_seconds_bucket{le="0.000005656854249492382"} 1
predict_seconds_bucket{le="0.000008000000000000003"} 1
predict_seconds_bucket{le="0.000011313708498984765"} 1
predict_seconds_bucket{le="0.000016000000000000006"} 1
predict_seconds_bucket{le="0.00002262741699796953"} 1
predict_seconds_bucket{le="0.00003200000000000001"} 1
predict_seconds_bucket{le="0.00004525483399593906"} 1
predict_seconds_bucket{le="0.00006400000000000002"} 1
predict_seconds_bucket{le="0.00009050966799187812"} 1
predict_seconds_bucket{le="0.00012800000000000005"} 1
predict_seconds_bucket{le="0.00018101933598375623"} 1
predict_seconds_bucket{le="0.0002560000000000001"} 1
predict_seconds_bucket{le="0.00036203867196751247"} 2
predict_seconds_bucket{le="0.0005120000000000002"} 2
predict_seconds_bucket{le="0.0007240773439350249"} 2
predict_seconds_bucket{le="0.0010240000000000004"} 2
predict_seconds_bucket{le="0.0014481546878700499"} 2
predict_seconds_bucket{le="0.0020480000000000008"} 2
predict_seconds_bucket{le="0.0028963093757400997"} 2
predict_seconds_bucket{le="0.0040960000000000015"} 2
predict_seconds_bucket{le="0.0057926187514801995"} 2
predict_seconds_bucket{le="0.008192000000000003"} 2
predict_seconds_bucket{le="0.011585237502960399"} 2
predict_seconds_bucket{le="0.016384000000000006"} 2
predict_seconds_bucket{le="0.023170475005920798"} 4
predict_seconds_bucket{le="0.03276800000000001"} 4
predict_seconds_bucket{le="0.046340950011841596"} 4
predict_seconds_bucket{le="0.06553600000000002"} 4
predict_seconds_bucket{le="0.09268190002368319"} 4
predict_seconds_bucket{le="0.13107200000000005"} 4
predict_seconds_bucket{le="0.18536380004736638"} 4
predict_seconds_bucket{le="0.2621440000000001"} 4
predict_seconds_bucket{le="0.37072760009473277"} 4
predict_seconds_bucket{le="0.5242880000000002"} 4
predict_seconds_bucket{le="0.7414552001894655"} 4
predict_seconds_bucket{le="1.0485760000000004"} 4
predict_seconds_bucket{le="1.482910400378931"} 4
predict_seconds_bucket{le="2.097152000000001"} 4
predict_seconds_bucket{le="2.965820800757862"} 4
predict_seconds_bucket{le="4.194304000000002"} 4
predict_seconds_bucket{le="5.931641601515724"} 4
predict_seconds_bucket{le="8.388608000000003"} 4
predict_seconds_bucket{le="11.863283203031449"} 4
predict_seconds_bucket{le="16.777216000000006"} 4
predict_seconds_bucket{le="23.726566406062897"} 4
predict_seconds_bucket{le="33.55443200000001"} 4
predict_seconds_bucket{le="47.453132812125794"} 4
predict_seconds_bucket{le="+Inf"} 5
predict_seconds_sum 100.040302
predict_seconds_count 5
# TYPE queue_depth gauge
queue_depth 3
queue_depth{queue="retrain"} -1.5
# HELP ratio A fraction
# TYPE ratio gauge
ratio 0.125
# HELP requests_total Requests served \\ per route\nsecond help line
# TYPE requests_total counter
requests_total 5
requests_total{route="/a\"b}c"} 2
"##;

#[test]
fn exposition_bytes_are_pinned_and_survive_a_parse() {
    let text = registry().prometheus();
    assert_eq!(text, WANT);
    assert_eq!(MetricsSnapshot::parse(&text).to_prometheus(), WANT);
}
