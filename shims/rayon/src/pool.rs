//! The one process-wide compute pool behind every parallel iterator.
//!
//! `current_num_threads() − 1` workers are started on first use and then
//! parked on a condvar for the life of the process; nothing here creates a
//! thread after that. A caller of [`run`] publishes its chunks, runs chunks
//! itself, and idle workers claim the rest through an atomic index. Once
//! the index is exhausted the caller blocks (condvar, no spinning) only for
//! chunks a worker has already started, so a caller always makes progress
//! alone: a busy or absent pool, or a `par_iter` inside a `par_iter`,
//! degrades to serial execution and cannot deadlock.
//!
//! Which thread runs a chunk is the only thing the pool decides. How items
//! are cut into chunks is the caller's business and depends on nothing but
//! the item count and [`current_num_threads`].

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Jobs that may still have unclaimed chunks. Parked workers wait on
/// [`WORK`] with this lock.
static QUEUE: Mutex<Vec<Arc<Job>>> = Mutex::new(Vec::new());
static WORK: Condvar = Condvar::new();

/// Pool locks ignore poison: no chunk runs with one held, and each update
/// under one (a push, a retain, a counter bump) leaves the data valid, so a
/// lock here never panics — which `run`'s soundness relies on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The pool's size, callers included: the host's available parallelism,
/// read once when the pool starts. There is no way to set it.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for i in 1..threads {
            // Workers live as long as the process and are never joined. A
            // failed spawn only means fewer helpers: callers still finish
            // every chunk themselves.
            let _ = std::thread::Builder::new()
                .name(format!("compute-{i}"))
                .spawn(worker);
        }
        threads
    })
}

fn worker() {
    let mut queue = lock(&QUEUE);
    loop {
        match queue.iter().find(|job| job.has_unclaimed()) {
            Some(job) => {
                let job = Arc::clone(job);
                drop(queue);
                job.work();
                queue = lock(&QUEUE);
            }
            None => queue = wait(&WORK, queue),
        }
    }
}

struct Progress {
    finished: usize,
    /// Payloads of chunks that panicked; kept (not dropped) until the
    /// caller has stopped waiting.
    panics: Vec<Box<dyn Any + Send>>,
}

/// One `run` call's control block. It is reference-counted so a worker may
/// keep looking at the counters after the caller has returned; the closure
/// behind `chunk` is the only part that lives on the caller's stack.
struct Job {
    /// The caller's chunk closure with its lifetime erased.
    chunk: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next unclaimed chunk. `Relaxed`: it hands each index to exactly one
    /// thread and publishes nothing; the job reaches workers through
    /// `QUEUE`'s lock and results reach the caller through `progress`'s.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    all_finished: Condvar,
}

// SAFETY: `chunk` points at a `Sync` closure, so calling it through a shared
// pointer from any thread is what its type allows; `work` upholds the
// lifetime. Every other field is `Send + Sync` by itself.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claim and run chunks until none is left to claim.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: `chunk` is dereferenced only here, between claiming
            // an index below `chunks` and counting it in `finished`. `run`
            // keeps the closure borrowed until `finished == chunks`, by
            // which time every index has been claimed and finished, and a
            // claim at or past `chunks` returns above without touching it.
            let chunk = unsafe { &*self.chunk };
            let result = catch_unwind(AssertUnwindSafe(|| chunk(i)));
            let mut progress = lock(&self.progress);
            progress.finished += 1;
            if let Err(payload) = result {
                progress.panics.push(payload);
            }
            if progress.finished == self.chunks {
                self.all_finished.notify_one();
            }
        }
    }
}

/// Run `chunk(0) … chunk(chunks − 1)`, each exactly once, on the calling
/// thread and whichever workers are idle; return when all have finished.
/// A panic in any chunk is re-raised here after the rest have run.
pub(crate) fn run<'a>(chunks: usize, chunk: &'a (dyn Fn(usize) + Sync + 'a)) {
    let helpers = (current_num_threads() - 1).min(chunks.saturating_sub(1));
    if helpers == 0 {
        (0..chunks).for_each(chunk);
        return;
    }
    let chunk: *const (dyn Fn(usize) + Sync + 'a) = chunk;
    let job = Arc::new(Job {
        // SAFETY: only the lifetime changes. `Job::work` dereferences the
        // pointer only for chunks counted in `finished`, and this function
        // does not return or unwind before `finished == chunks`: it blocks
        // in the wait below, and nothing between here and there can panic
        // (chunk panics are caught and stored, pool locks ignore poison).
        chunk: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + 'a), *const (dyn Fn(usize) + Sync)>(
                chunk,
            )
        },
        chunks,
        next: AtomicUsize::new(0),
        progress: Mutex::new(Progress {
            finished: 0,
            panics: Vec::new(),
        }),
        all_finished: Condvar::new(),
    });
    lock(&QUEUE).push(Arc::clone(&job));
    for _ in 0..helpers {
        WORK.notify_one();
    }
    // Running until the index is exhausted retracts every ticket no worker
    // has claimed; what is left to wait for is already running elsewhere.
    job.work();
    lock(&QUEUE).retain(|queued| !Arc::ptr_eq(queued, &job));
    let mut progress = lock(&job.progress);
    while progress.finished < chunks {
        progress = wait(&job.all_finished, progress);
    }
    let mut panics = std::mem::take(&mut progress.panics);
    drop(progress);
    if !panics.is_empty() {
        resume_unwind(panics.swap_remove(0));
    }
}
