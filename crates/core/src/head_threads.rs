//! Threads that run a model's further heads beside the thread that fits or
//! predicts with it, and [`at_once`], the one fan-out both do it through.
//!
//! Each thread that asks keeps its own helpers: started on its first
//! multi-head fit or predict, so they run at its scheduling priority (a
//! thread inherits its creator's, and the gateway's trainer runs at nice 19
//! while its replicas stay at 0), and closed and joined when it ends.
//! Keeping them, rather than starting threads per call, keeps the memory
//! each head works in within the same malloc arena from one call to the
//! next: memory a finished thread's arena holds is reused only by whichever
//! thread is handed that arena next, which left the repository benchmark's
//! `submit_open` set-ups, three models trained and dropped in turn beside a
//! fleet's threads, ~45 MiB higher in peak resident set.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// Work for a helper: it runs to the end on the helper and reports through
/// whatever channel it captured.
type Task = Box<dyn FnOnce() + Send>;

/// One helper thread and the channel it takes tasks from.
struct Helper {
    tasks: Option<Sender<Task>>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Helper {
    /// Closing the channel ends the helper once its queued tasks have run;
    /// the owning thread waits for that before it finishes itself.
    fn drop(&mut self) {
        self.tasks = None;
        if let Some(thread) = self.thread.take() {
            // Tasks catch their own panics, so the helper cannot have
            // panicked; there is nothing to report from a destructor.
            let _ = thread.join();
        }
    }
}

thread_local! {
    /// This thread's helpers, by index.
    static HELPERS: RefCell<Vec<Helper>> = const { RefCell::new(Vec::new()) };
}

/// Run `task` on this thread's helper `i`, starting helpers up to it first.
/// Gives the task back when no thread can be started for it, for the caller
/// to run itself.
///
/// A helper is named after its owner, `prionn-` dropped, then `+` and its
/// number from 1: `serve-trainer+1` helps `prionn-serve-trainer` (the
/// kernel keeps 15 bytes of a name).
fn hand_to_helper(i: usize, task: Task) -> Option<Task> {
    HELPERS.with(|helpers| {
        let mut helpers = helpers.borrow_mut();
        while helpers.len() <= i {
            let owner = std::thread::current();
            let owner = owner.name().unwrap_or("prionn");
            let owner = owner.strip_prefix("prionn-").unwrap_or(owner);
            let (tx, rx) = channel::<Task>();
            let started = std::thread::Builder::new()
                .name(format!("{owner}+{}", helpers.len() + 1))
                .spawn(move || rx.into_iter().for_each(|task| task()));
            let Ok(thread) = started else {
                return Some(task);
            };
            helpers.push(Helper {
                tasks: Some(tx),
                thread: Some(thread),
            });
        }
        match &helpers[i].tasks {
            Some(tasks) => tasks.send(task).err().map(|refused| refused.0),
            None => Some(task),
        }
    })
}

/// Run `work` on every item at once: item 0 on the calling thread, item
/// `i` on this thread's helper `i − 1`, each under the caller's trace
/// context (so spans a helper opens keep their parent). Returns every item
/// with what `work` gave or the panic it raised, in item order, once all
/// are back. One item runs inline, with no channel; an item no helper could
/// be started for runs on the caller after item 0.
pub(crate) fn at_once<S, T, F>(items: Vec<S>, work: F) -> Vec<(S, std::thread::Result<T>)>
where
    S: Send + 'static,
    T: Send + 'static,
    F: Fn(&mut S) -> T + Clone + Send + 'static,
{
    let run = |mut item: S, work: &F| {
        let done = std::panic::catch_unwind(AssertUnwindSafe(|| work(&mut item)));
        (item, done)
    };
    if items.len() < 2 {
        return items.into_iter().map(|item| run(item, &work)).collect();
    }
    let count = items.len();
    let (done, finished) = channel();
    let context = prionn_observe::trace::current();
    let mut items = items.into_iter().enumerate();
    let first = items.next();
    let refused: Vec<Task> = items
        .filter_map(|(i, item)| {
            let (work, done, context) = (work.clone(), done.clone(), context.clone());
            let task: Task = Box::new(move || {
                let _ctx = context
                    .as_ref()
                    .map(|(tracer, ctx)| prionn_observe::trace::push_current(tracer, *ctx));
                // The receiver waits for every item, so this cannot fail.
                let _ = done.send((i, run(item, &work)));
            });
            hand_to_helper(i - 1, task)
        })
        .collect();
    if let Some((i, item)) = first {
        let _ = done.send((i, run(item, &work)));
    }
    refused.into_iter().for_each(|task| task());
    let mut back: Vec<_> = finished.iter().take(count).collect();
    back.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(back.len(), count, "every item came back");
    back.into_iter().map(|(_, outcome)| outcome).collect()
}
