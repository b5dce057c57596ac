//! Requests that are in flight together ride one forward pass. A replica
//! takes the first queued request and keeps taking more until `max_batch`
//! scripts are on board; every caller gets its own slice of the fused
//! answer, bit-identical to a batch-1 `Prionn::predict` on the same weights.
//! The model's own per-layer counters show one network forward per batch,
//! so a replica that took a full batch and then ran each job alone fails.
//!
//! Nothing here is timed. The linger is set far longer than the test runs,
//! so a batch leaves only when it is full, and the counts are exact
//! whatever the host's speed.

use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

use prionn::core::{Prionn, ResourcePrediction};
use prionn::fleet::testkit::{demo_corpus, demo_gateway_config, demo_model};
use prionn::serve::{Gateway, GatewayConfig, PredictRequest, PredictionReply, ServeResult};
use prionn::telemetry::Telemetry;

const BATCH: usize = 8;

/// Where one request's answer arrives.
type Reply = Receiver<ServeResult<PredictionReply>>;

/// One replica fusing up to [`BATCH`] scripts, the registry it reports
/// to, and a fork of its weights to answer the same scripts one at a time.
fn fused_gateway() -> (Gateway, Telemetry, Prionn) {
    let model = demo_model();
    let reference = model.fork_replica().unwrap();
    let telemetry = Telemetry::new();
    let gateway = Gateway::spawn(
        model,
        GatewayConfig {
            max_batch: BATCH,
            max_wait: Duration::from_secs(300),
            telemetry: Some(telemetry.clone()),
            ..demo_gateway_config()
        },
    )
    .unwrap();
    (gateway, telemetry, reference)
}

/// How many forward passes the runtime head's network has run: the sample
/// count of its first layer's forward timer.
fn runtime_forwards(telemetry: &Telemetry) -> u64 {
    let series = "nn_layer_forward_seconds_count{layer=\"0.conv2d\",model=\"runtime\"}";
    let text = telemetry.prometheus();
    let line = text
        .lines()
        .find(|l| l.starts_with(series))
        .unwrap_or_else(|| panic!("no {series} in\n{text}"));
    line[series.len()..].trim().parse().unwrap()
}

/// Submit every request without waiting for any answer, so all of them are
/// queued before the first forward pass can finish.
fn submit_all(gw: &Gateway, requests: &[Vec<String>]) -> Vec<Reply> {
    requests
        .iter()
        .map(|scripts| {
            let (tx, rx) = channel();
            gw.submit(
                PredictRequest {
                    scripts: scripts.clone(),
                    ..PredictRequest::default()
                },
                move |result| {
                    let _ = tx.send(result);
                },
            );
            rx
        })
        .collect()
}

fn serial(reference: &mut Prionn, scripts: &[String]) -> Vec<ResourcePrediction> {
    scripts
        .iter()
        .map(|s| reference.predict(&[s.as_str()]).unwrap()[0])
        .collect()
}

/// Each request's answer equals the serial answers for its own scripts, in
/// its own order, at the spawn weights.
fn assert_each_caller_gets_its_slice(
    replies: Vec<Reply>,
    requests: &[Vec<String>],
    reference: &mut Prionn,
) {
    for (rx, scripts) in replies.iter().zip(requests) {
        let reply = rx.recv_timeout(Duration::from_secs(60)).unwrap().unwrap();
        assert_eq!(reply.epoch, 0, "no swap was ever published");
        assert_eq!(reply.predictions, serial(reference, scripts));
    }
}

#[test]
fn single_script_requests_in_flight_together_fuse_into_full_batches() {
    let (gw, telemetry, mut reference) = fused_gateway();
    let requests: Vec<Vec<String>> = demo_corpus()[..2 * BATCH]
        .iter()
        .map(|s| vec![s.clone()])
        .collect();

    let replies = submit_all(&gw, &requests);
    assert_each_caller_gets_its_slice(replies, &requests, &mut reference);

    let stats = gw.stats();
    assert_eq!(stats.requests_admitted, 2 * BATCH);
    assert_eq!(stats.scripts_predicted, 2 * BATCH);
    assert_eq!(stats.batches_served, 2, "16 requests, 8 per forward pass");
    assert_eq!(
        runtime_forwards(&telemetry),
        2,
        "one network forward per batch"
    );
}

#[test]
fn requests_of_different_sizes_fuse_and_split_back_in_order() {
    let (gw, telemetry, mut reference) = fused_gateway();
    let corpus = demo_corpus();
    // The corpus alternates short and long scripts; an odd-sized request
    // shifts that alternation, so a slice handed to the wrong caller shows.
    let requests: Vec<Vec<String>> = [0..1, 1..4, 4..6, 6..BATCH]
        .into_iter()
        .map(|r| corpus[r].to_vec())
        .collect();

    let replies = submit_all(&gw, &requests);
    assert_each_caller_gets_its_slice(replies, &requests, &mut reference);

    let stats = gw.stats();
    assert_eq!(stats.requests_admitted, 4);
    assert_eq!(stats.scripts_predicted, BATCH);
    assert_eq!(stats.batches_served, 1, "eight scripts, one pass");
    assert_eq!(
        runtime_forwards(&telemetry),
        1,
        "one network forward per batch"
    );
}
