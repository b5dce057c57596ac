//! `Gateway::submit` never blocks and runs the request's completion exactly
//! once, whichever way the request leaves: answered empty, served, refused
//! at admission, shed past its deadline, or stopped at shutdown. These tests
//! pin each of those exits, so a change to `submit` or to admission that
//! drops or doubles a completion fails here.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::ThreadId;
use std::time::Duration;

use prionn::fleet::testkit::{demo_corpus, demo_gateway_config, demo_model};
use prionn::serve::{
    Gateway, GatewayConfig, PredictRequest, PredictionReply, ServeError, ServeResult,
};

/// The thread a completion ran on, and what it was run with.
type Outcome = (ThreadId, ServeResult<PredictionReply>);

fn submit(gw: &Gateway, scripts: Vec<String>, deadline: Option<Duration>) -> Receiver<Outcome> {
    let (tx, rx) = channel();
    gw.submit(
        PredictRequest {
            scripts,
            deadline,
            ..PredictRequest::default()
        },
        move |result| {
            let _ = tx.send((std::thread::current().id(), result));
        },
    );
    rx
}

/// The one outcome `rx` carries. The sender lives inside the completion,
/// so the channel disconnects once the completion has run and is gone;
/// that tells "once" from "never" and from "twice".
fn once(rx: &Receiver<Outcome>) -> Outcome {
    let wait = Duration::from_secs(30);
    let outcome = rx.recv_timeout(wait).expect("completion never ran");
    assert_eq!(
        rx.recv_timeout(wait).err(),
        Some(RecvTimeoutError::Disconnected),
        "completion ran twice, or outlived its run"
    );
    outcome
}

fn one_script() -> Vec<String> {
    demo_corpus()[..1].to_vec()
}

fn spawn(cfg: GatewayConfig) -> Gateway {
    Gateway::spawn(demo_model(), cfg).unwrap()
}

/// A gateway with no replica accepts and queues but never serves: the hold
/// that lets a test fill its queue.
fn held(queue_cap: usize) -> Gateway {
    spawn(GatewayConfig {
        replicas: 0,
        queue_cap,
        ..demo_gateway_config()
    })
}

#[test]
fn an_empty_request_completes_once_on_the_callers_thread() {
    let gw = held(1);
    let (ran_on, result) = once(&submit(&gw, Vec::new(), None));
    assert_eq!(ran_on, std::thread::current().id());
    assert!(result.unwrap().predictions.is_empty());
    assert_eq!(gw.stats().requests_admitted, 0);
}

#[test]
fn a_served_request_completes_once_on_a_replica() {
    let gw = spawn(demo_gateway_config());
    let (ran_on, result) = once(&submit(&gw, one_script(), None));
    assert_ne!(ran_on, std::thread::current().id());
    assert_eq!(result.unwrap().predictions.len(), 1);
}

#[test]
fn a_request_past_its_deadline_completes_once_with_deadline_exceeded() {
    let gw = spawn(GatewayConfig {
        // The linger outlasts the zero deadline before the replica looks.
        max_wait: Duration::from_millis(30),
        ..demo_gateway_config()
    });
    let (_, result) = once(&submit(&gw, one_script(), Some(Duration::ZERO)));
    assert_eq!(result.unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(gw.stats().requests_shed_deadline, 1);
    assert_eq!(gw.stats().batches_served, 0);
}

#[test]
fn a_full_queue_refuses_once_and_shutdown_stops_the_queued_once() {
    let gw = held(1);
    let queued = submit(&gw, one_script(), None);
    assert_eq!(gw.queue_depth(), 1);

    let (ran_on, result) = once(&submit(&gw, one_script(), None));
    assert_eq!(ran_on, std::thread::current().id());
    assert_eq!(result.unwrap_err(), ServeError::Overloaded { queue_cap: 1 });
    assert_eq!(gw.stats().requests_shed_overload, 1);
    assert!(queued.try_recv().is_err(), "nothing can have served it");

    gw.shutdown();
    assert_eq!(once(&queued).1.unwrap_err(), ServeError::Stopped);
    let (ran_on, result) = once(&submit(&gw, one_script(), None));
    assert_eq!(ran_on, std::thread::current().id());
    assert_eq!(result.unwrap_err(), ServeError::Stopped);
}
