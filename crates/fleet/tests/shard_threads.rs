//! The shard's thread model, counted from outside: a connection is a reader
//! and a writer, and nothing else.
//!
//! Kept in its own integration binary: the census reads every thread of the
//! process, so no other test's shard may be running beside it.
#![cfg(target_os = "linux")]

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use prionn_fleet::proto::{KIND_PING, KIND_PONG};
use prionn_fleet::testkit::LocalFleet;
use prionn_store::wire::{encode_frame, read_frame, MAX_FRAME_PAYLOAD};

/// How many threads of this process have a name starting with `prefix`
/// (the kernel keeps the first 15 bytes of a thread name).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn a_connection_is_a_reader_and_a_writer() {
    let fleet = LocalFleet::spawn(1);
    let addr = fleet.endpoints()[0].clone();

    // Two live connections; a ping answered on each proves its reader and
    // its writer are both up before the count.
    let conns: Vec<TcpStream> = (0..2u64)
        .map(|id| {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(&encode_frame(KIND_PING, id, &[])).unwrap();
            let pong = read_frame(&mut s, MAX_FRAME_PAYLOAD).unwrap().unwrap();
            assert_eq!(pong.kind, KIND_PONG);
            s
        })
        .collect();

    assert_eq!(threads_named("prionn-shard-ac"), 1, "one accept thread");
    assert_eq!(threads_named("prionn-shard-co"), 2, "one reader each");
    assert_eq!(threads_named("prionn-shard-wr"), 2, "one writer each");
    assert_eq!(
        threads_named("prionn-shard-"),
        5,
        "and no other shard thread (no per-connection worker pool)"
    );
    drop(conns);
}
