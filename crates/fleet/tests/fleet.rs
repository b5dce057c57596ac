//! End-to-end fleet tests: real gateways behind real TCP listeners on
//! loopback, driven through the router.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use prionn_fleet::proto::{
    decode_error, decode_predictions, encode_predict, ErrorCode, KIND_ERROR, KIND_PING, KIND_PONG,
    KIND_PREDICT, KIND_PREDICTIONS,
};
use prionn_fleet::router::{FleetError, Router, RouterConfig};
use prionn_fleet::shard::ShardConfig;
use prionn_fleet::testkit::{demo_corpus, demo_gateway_config, LocalFleet};
use prionn_serve::Priority;
use prionn_store::wire::{encode_frame, read_frame, Frame, MAX_FRAME_PAYLOAD};

fn router_for(fleet: &LocalFleet) -> Router {
    Router::new(RouterConfig {
        request_timeout: Duration::from_secs(30),
        down_backoff: Duration::from_millis(50),
        ..RouterConfig::for_endpoints(fleet.endpoints())
    })
}

/// One raw frame request/response over a fresh connection, bypassing the
/// router — for protocol-level assertions.
fn raw_roundtrip(addr: &str, bytes: &[u8]) -> Option<Frame> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(bytes).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    read_frame(&mut s, MAX_FRAME_PAYLOAD).ok().flatten()
}

#[test]
fn wire_predictions_match_local_gateway() {
    let fleet = LocalFleet::spawn(1);
    let router = router_for(&fleet);
    let scripts = demo_corpus();

    let local = fleet.shard(0).gateway.predict(&scripts[..4]).unwrap();
    let remote = router.predict_for_user(7, &scripts[..4], None).unwrap();
    assert_eq!(remote.predictions.len(), 4);
    assert_eq!(remote.shard, 0);
    for (l, r) in local.iter().zip(remote.predictions.iter()) {
        assert!(
            (l.runtime_minutes - r.runtime_minutes).abs() < 1e-9,
            "wire prediction drifted from local: {} vs {}",
            l.runtime_minutes,
            r.runtime_minutes
        );
    }
}

#[test]
fn requests_spread_over_every_shard() {
    let fleet = LocalFleet::spawn(4);
    let router = router_for(&fleet);
    let scripts = demo_corpus();

    for user in 0..200u64 {
        let one = std::slice::from_ref(&scripts[(user % scripts.len() as u64) as usize]);
        let reply = router.predict(user, one).unwrap();
        assert_eq!(reply.shard, router.route(user).unwrap());
    }
    for shard in 0..4 {
        let stats = router.shard_stats(shard).unwrap();
        assert!(
            stats.requests_served > 0,
            "shard {shard} served nothing over 200 users"
        );
        assert!(!stats.draining);
    }
}

#[test]
fn gateway_shed_comes_back_typed_without_failover() {
    // replicas: 0 = accept-and-queue only; with queue_cap 1 the second
    // request is admission-rejected inside the gateway.
    let fleet = LocalFleet::spawn_with(
        1,
        prionn_serve::GatewayConfig {
            replicas: 0,
            queue_cap: 1,
            ..demo_gateway_config()
        },
        ShardConfig::default(),
    );
    let router = Arc::new(router_for(&fleet));
    let scripts = demo_corpus();

    // Occupy the single queue slot from a background thread (it blocks
    // until shutdown fails it).
    let blocked = {
        let router = Arc::clone(&router);
        let script = scripts[0].clone();
        std::thread::spawn(move || router.predict(1, std::slice::from_ref(&script)))
    };
    std::thread::sleep(Duration::from_millis(100));

    let err = router
        .predict(2, std::slice::from_ref(&scripts[1]))
        .unwrap_err();
    match err {
        FleetError::Rejected { code, shard, .. } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert_eq!(shard, 0);
        }
        other => panic!("expected typed Overloaded rejection, got {other}"),
    }

    drop(fleet); // shutdown fails the queued request
    let queued = blocked.join().unwrap();
    assert!(queued.is_err(), "queued request must not silently succeed");
}

#[test]
fn drain_sheds_typed_and_failover_keeps_users_served() {
    let fleet = LocalFleet::spawn(2);
    let router = router_for(&fleet);
    let scripts = demo_corpus();

    // A user owned by each shard.
    let user_on = |shard: usize| {
        (0..10_000u64)
            .find(|&u| router.route(u) == Some(shard))
            .unwrap()
    };
    let (u0, u1) = (user_on(0), user_on(1));

    router.drain_shard(1).unwrap();
    assert!(router.shard_stats(1).unwrap().draining);

    // The drained shard answers raw predicts with a typed Draining error.
    let frame = raw_roundtrip(
        &fleet.endpoints()[1],
        &encode_frame(
            KIND_PREDICT,
            9,
            &encode_predict(Priority::Normal, 0, &scripts[..1]),
        ),
    )
    .expect("drained shard must still answer");
    assert_eq!(frame.kind, KIND_ERROR);
    let (code, _) = decode_error(&frame.payload).unwrap();
    assert_eq!(code, ErrorCode::Draining);

    // Through the router both users still get answers; the drained
    // shard's user fails over to shard 0.
    let r0 = router
        .predict(u0, std::slice::from_ref(&scripts[0]))
        .unwrap();
    assert_eq!(r0.shard, 0);
    let r1 = router
        .predict(u1, std::slice::from_ref(&scripts[0]))
        .unwrap();
    assert_eq!(
        r1.shard, 0,
        "user {u1} must fail over off the draining shard"
    );
}

/// An older shard may still answer with the retired error code 3. This
/// build cannot read it: the router counts it as `reason="unknown"` and
/// walks the ring past that shard instead of surfacing a typed refusal.
#[test]
fn a_retired_error_code_counts_as_unknown_and_fails_over() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let old_shard = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let request = read_frame(&mut conn, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        let mut payload = vec![3u8];
        prionn_store::wire::put_str(&mut payload, "retired code");
        conn.write_all(&encode_frame(KIND_ERROR, request.id, &payload))
            .unwrap();
    });
    let router = Router::new(RouterConfig {
        request_timeout: Duration::from_secs(30),
        ..RouterConfig::for_endpoints(vec![addr])
    });
    let err = router.predict(1, &demo_corpus()[..1]).unwrap_err();
    assert!(
        matches!(err, FleetError::Unavailable { attempts: 1, .. }),
        "{err}"
    );
    let text = router.telemetry().prometheus();
    assert!(
        text.contains(r#"fleet_shed_total{reason="unknown"} 1"#),
        "{text}"
    );
    old_shard.join().unwrap();
}

#[test]
fn corrupt_frames_drop_the_connection_not_the_shard() {
    let fleet = LocalFleet::spawn(1);
    let addr = fleet.endpoints()[0].clone();
    let scripts = demo_corpus();

    // Garbage bytes: the server closes the connection without a reply.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"this is not a frame at all, not even close....")
        .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match read_frame(&mut s, MAX_FRAME_PAYLOAD) {
        Ok(None) | Err(_) => {} // closed or unreadable: both fine
        Ok(Some(f)) => panic!("server answered garbage with frame kind {}", f.kind),
    }

    // A frame with a corrupted payload byte fails the CRC: same story.
    let mut bytes = encode_frame(
        KIND_PREDICT,
        1,
        &encode_predict(Priority::Normal, 0, &scripts[..1]),
    );
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&bytes).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(
        !matches!(read_frame(&mut s, MAX_FRAME_PAYLOAD), Ok(Some(_))),
        "server must not answer a checksum-failed frame"
    );

    // The shard itself is unharmed: a clean connection still works.
    let frame = raw_roundtrip(
        &addr,
        &encode_frame(
            KIND_PREDICT,
            2,
            &encode_predict(Priority::Normal, 0, &scripts[..1]),
        ),
    )
    .expect("healthy connection after corrupt ones");
    assert_eq!(frame.kind, KIND_PREDICTIONS);
    assert_eq!(decode_predictions(&frame.payload).unwrap().1.len(), 1);
}

#[test]
fn oversized_frame_gets_typed_too_large_error() {
    // A shard configured with a small payload cap answers an oversized
    // declared length with a typed TooLarge error before reading (or
    // allocating) the payload, then closes.
    let fleet = LocalFleet::spawn_with(
        1,
        demo_gateway_config(),
        ShardConfig {
            max_payload: 1024,
            ..ShardConfig::default()
        },
    );
    let addr = fleet.endpoints()[0].clone();

    // Hand-build a header declaring a 2 MiB payload without sending it.
    let big = encode_frame(KIND_PREDICT, 3, &vec![0u8; 2 << 20]);
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&big[..prionn_store::wire::FRAME_HEADER_LEN])
        .unwrap();
    s.flush().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = read_frame(&mut s, MAX_FRAME_PAYLOAD)
        .expect("typed error frame")
        .expect("typed error frame, not silent close");
    assert_eq!(frame.kind, KIND_ERROR);
    let (code, msg) = decode_error(&frame.payload).unwrap();
    assert_eq!(code, ErrorCode::TooLarge);
    assert!(msg.contains("1024"), "cap should be named in {msg:?}");
}

#[test]
fn undecodable_payloads_get_typed_bad_request_and_the_connection_serves_on() {
    let fleet = LocalFleet::spawn(1);
    let scripts = demo_corpus();
    let mut s = TcpStream::connect(&fleet.endpoints()[0]).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut ask = |kind: u8, id: u64, payload: &[u8]| {
        s.write_all(&encode_frame(kind, id, payload)).unwrap();
        read_frame(&mut s, MAX_FRAME_PAYLOAD)
            .unwrap()
            .expect("an answer, not a closed connection")
    };
    let bad_request = |frame: Frame| {
        assert_eq!(frame.kind, KIND_ERROR);
        let (code, msg) = decode_error(&frame.payload).unwrap();
        assert_eq!(code, ErrorCode::BadRequest);
        msg
    };

    // Truncated payload under a valid CRC, so it reaches the decoder: the
    // Truncated decode error comes back as BadRequest.
    let full = encode_predict(Priority::Normal, 0, &scripts[..1]);
    let msg = bad_request(ask(KIND_PREDICT, 1, &full[..full.len() - 3]));
    assert!(msg.contains("truncated"), "decode detail kept: {msg:?}");

    // The retired revise kind is an unknown kind like any other.
    let msg = bad_request(ask(0x04, 2, &[]));
    assert!(
        msg.contains("unknown frame kind 4"),
        "kind named in {msg:?}"
    );

    assert_eq!(
        ask(KIND_PREDICT, 3, &full).kind,
        KIND_PREDICTIONS,
        "connection survives bad frames and serves the next predict"
    );
}

#[test]
fn sub_millisecond_deadlines_are_shed_not_unbounded() {
    // A 30 ms linger keeps a lone request queued well past a 1 ms deadline.
    let fleet = LocalFleet::spawn_with(
        1,
        prionn_serve::GatewayConfig {
            max_wait: Duration::from_millis(30),
            ..demo_gateway_config()
        },
        ShardConfig::default(),
    );
    let router = router_for(&fleet);
    let scripts = demo_corpus();
    for deadline in [Duration::from_micros(500), Duration::ZERO] {
        match router.predict_for_user(1, &scripts[..1], Some(deadline)) {
            Err(FleetError::Rejected {
                code: ErrorCode::DeadlineExceeded,
                shard: 0,
                ..
            }) => {}
            other => panic!("a {deadline:?} deadline must be shed, got {other:?}"),
        }
    }
}

#[test]
fn abrupt_kill_fails_over_and_recovery_restores_routing() {
    let mut fleet = LocalFleet::spawn(2);
    let router = router_for(&fleet);
    let scripts = demo_corpus();

    let victim = 1usize;
    let user = (0..10_000u64)
        .find(|&u| router.route(u) == Some(victim))
        .unwrap();
    assert_eq!(router.predict(user, &scripts[..1]).unwrap().shard, victim);

    // Kill with no drain: connections die mid-stream. The user's next
    // request must still be answered, by the surviving shard.
    fleet.kill(victim);
    let reply = router
        .predict(user, &scripts[..1])
        .expect("failover after abrupt kill");
    assert_eq!(reply.shard, 0);

    // And again — the router must not wedge on the dead shard's backoff.
    for _ in 0..5 {
        assert_eq!(router.predict(user, &scripts[..1]).unwrap().shard, 0);
    }

    // Replacement shard: point the slot at the new endpoint; the user's
    // traffic returns (ring layout never changed).
    let endpoint = fleet.respawn(victim);
    router.set_endpoint(victim, &endpoint);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reply = router.predict(user, &scripts[..1]).unwrap();
        if reply.shard == victim {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "traffic never returned to the respawned shard"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Read frames off a raw connection until `want` have arrived, keyed by
/// correlation id.
fn read_replies(s: &mut TcpStream, want: usize) -> std::collections::HashMap<u64, Frame> {
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = std::collections::HashMap::new();
    while replies.len() < want {
        let frame = read_frame(s, MAX_FRAME_PAYLOAD)
            .expect("readable reply")
            .expect("connection closed with replies outstanding");
        assert!(
            replies.insert(frame.id, frame).is_none(),
            "id answered twice"
        );
    }
    replies
}

#[test]
fn one_connection_pipelines_past_eight_requests_into_the_gateway() {
    // A long linger and a batch as large as the burst: the replica waits
    // for the whole burst, so how much of it fuses shows how much of it the
    // connection got inside the gateway at once.
    const BURST: u64 = 64;
    let fleet = LocalFleet::spawn_with(
        1,
        prionn_serve::GatewayConfig {
            max_batch: BURST as usize,
            max_wait: Duration::from_secs(2),
            ..demo_gateway_config()
        },
        ShardConfig::default(),
    );
    let scripts = demo_corpus();

    let mut s = TcpStream::connect(&fleet.endpoints()[0]).unwrap();
    let mut burst = Vec::new();
    for id in 1..=BURST {
        let one = std::slice::from_ref(&scripts[id as usize % scripts.len()]);
        burst.extend(encode_frame(
            KIND_PREDICT,
            id,
            &encode_predict(Priority::Normal, 0, one),
        ));
    }
    s.write_all(&burst).unwrap();

    let replies = read_replies(&mut s, BURST as usize);
    for id in 1..=BURST {
        let frame = &replies[&id];
        assert_eq!(frame.kind, KIND_PREDICTIONS, "request {id}");
        assert_eq!(decode_predictions(&frame.payload).unwrap().1.len(), 1);
    }
    let stats = fleet.shard(0).gateway.stats();
    assert_eq!(stats.requests_admitted, BURST as usize);
    assert_eq!(stats.scripts_predicted, BURST as usize);
    // 64 scripts in fewer than 8 forward passes: some pass fused more than
    // 8, so more than 8 requests of this one connection were queued at once.
    assert!(
        stats.batches_served < 8,
        "{} batches for {BURST} pipelined requests",
        stats.batches_served
    );
}

#[test]
fn full_queue_answers_overloaded_on_the_wire_and_the_connection_lives_on() {
    // replicas: 0 = accept-and-queue only, so the two slots stay taken.
    let fleet = LocalFleet::spawn_with(
        1,
        prionn_serve::GatewayConfig {
            replicas: 0,
            queue_cap: 2,
            ..demo_gateway_config()
        },
        ShardConfig::default(),
    );
    let scripts = demo_corpus();
    let predict = |id: u64| {
        encode_frame(
            KIND_PREDICT,
            id,
            &encode_predict(Priority::Normal, 0, &scripts[..1]),
        )
    };

    let mut s = TcpStream::connect(&fleet.endpoints()[0]).unwrap();
    for id in 1..=5 {
        s.write_all(&predict(id)).unwrap();
    }
    // The reader never blocks on the full queue: 3, 4 and 5 are refused at
    // once, while 1 and 2 are still waiting for a replica.
    let refused = read_replies(&mut s, 3);
    for id in 3..=5 {
        let frame = &refused[&id];
        assert_eq!(frame.kind, KIND_ERROR, "request {id}");
        let (code, _) = decode_error(&frame.payload).unwrap();
        assert_eq!(code, ErrorCode::Overloaded);
    }
    assert_eq!(fleet.shard(0).gateway.queue_depth(), 2);
    assert_eq!(fleet.shard(0).server.in_flight(), 2);

    // Same connection, still in frame: an admin request is answered.
    s.write_all(&encode_frame(KIND_PING, 6, &[])).unwrap();
    assert_eq!(read_replies(&mut s, 1)[&6].kind, KIND_PONG);

    // Shutdown completes the two queued requests with a typed Stopped.
    fleet.shard(0).gateway.shutdown();
    let stopped = read_replies(&mut s, 2);
    for id in 1..=2 {
        let (code, _) = decode_error(&stopped[&id].payload).unwrap();
        assert_eq!(code, ErrorCode::Stopped);
    }
    assert_eq!(fleet.shard(0).server.in_flight(), 0);
}

#[test]
fn replica_panic_behind_a_shard_reaches_the_router_typed_not_as_a_timeout() {
    let fleet = LocalFleet::spawn_with(
        1,
        prionn_serve::GatewayConfig {
            test_panic_marker: true,
            ..demo_gateway_config()
        },
        ShardConfig::default(),
    );
    let router = router_for(&fleet); // request_timeout: 30 s
    let scripts = demo_corpus();

    // The request that kills the only replica, then one that finds it dead:
    // each is completed with `Stopped` by the gateway, which the router
    // treats as unavailability — and learns at once, not 30 s later.
    for script in ["__serve_test_panic__", scripts[0].as_str()] {
        let started = std::time::Instant::now();
        let err = router.predict(1, &[script.to_string()]).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "waited {:?} for a dead replica",
            started.elapsed()
        );
        match err {
            FleetError::Unavailable { attempts, last } => {
                assert_eq!(attempts, 1);
                assert!(last.contains("stopped"), "{last}");
            }
            other => panic!("expected Unavailable, got {other}"),
        }
    }
    // The shard itself is up and says what happened.
    let stats = router.shard_stats(0).unwrap();
    assert_eq!(stats.live_replicas, 0);
    assert_eq!(stats.requests_shed, 2);
}
