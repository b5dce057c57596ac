//! Threads that fit a model's further heads beside the thread that
//! retrains it.
//!
//! Each thread that asks keeps its own helpers: started on its first
//! multi-head retrain, so they run at its scheduling priority (a thread
//! inherits its creator's, and the gateway's trainer runs at nice 19), and
//! closed and joined when it ends. Keeping them, rather than starting
//! threads per retrain, keeps the memory each head trains in within the
//! same malloc arena from one retrain to the next: memory a finished thread's arena
//! holds is reused only by whichever thread is handed that arena next,
//! which left the repository benchmark's `submit_open` set-ups, three
//! models trained and dropped in turn beside a fleet's threads, ~45 MiB
//! higher in peak resident set.

use std::cell::RefCell;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// Work for a helper: it runs to the end on the helper and reports through
/// whatever channel it captured.
pub(crate) type Task = Box<dyn FnOnce() + Send>;

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
pub(crate) fn hand_to_helper(i: usize, task: Task) -> Option<Task> {
    HELPERS.with(|helpers| {
        let mut helpers = helpers.borrow_mut();
        while helpers.len() <= i {
            let (tx, rx) = channel::<Task>();
            let started = std::thread::Builder::new()
                .name(format!("prionn-fit-{}", helpers.len() + 1))
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
