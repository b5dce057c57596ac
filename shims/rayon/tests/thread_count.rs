//! The pool creates its threads once. This is the only test in this binary
//! so that no other test's threads come and go while it counts.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

/// `Threads:` from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[cfg(not(target_os = "linux"))]
fn process_threads() -> usize {
    0
}

#[test]
fn a_thousand_par_iters_create_no_thread_after_the_first() {
    // Thread ids are never reused, so a thread created per call would show
    // up here as a new id per call.
    let ran_on = Mutex::new(HashSet::new());
    let work = |round: usize| -> usize {
        let v: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                ran_on
                    .lock()
                    .expect("id set")
                    .insert(std::thread::current().id());
                i * round
            })
            .collect();
        v.into_iter().sum()
    };
    assert_eq!(work(1), 2016);
    let after_first = process_threads();
    for round in 0..1000 {
        assert_eq!(work(round), 2016 * round);
    }
    assert_eq!(process_threads(), after_first);
    let ran_on = ran_on.into_inner().expect("id set");
    assert!(ran_on.contains(&std::thread::current().id()));
    assert!(
        ran_on.len() <= rayon::current_num_threads(),
        "{} threads ran items on a pool of {}",
        ran_on.len(),
        rayon::current_num_threads()
    );
}
