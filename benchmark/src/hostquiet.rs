//! Keeping the host steady while a workload is measured.
//!
//! The reference host is a small virtual machine. When one of its CPUs goes
//! idle the hypervisor takes it away, and handing it back takes anything
//! from 0.2 ms to tens of milliseconds (it shows as steal time: a fifth of
//! all CPU time during the TCP workloads). Every hop of a request between
//! threads waits for such a wake-up, so latencies of a few milliseconds
//! doubled or tripled from one minute to the next with no change in the
//! code. For the length of an invocation the harness therefore parks one
//! spinning thread per CPU in the kernel's `SCHED_IDLE` class: it runs only
//! when nothing else wants that CPU and is preempted the moment anything
//! does, but the CPU never reports idle. Steal time fell thirty-fold with it.
//! The crates under test are not touched; what is lost is the hypervisor's
//! wake-up latency, which is a property of the host, not of the repository.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const SCHED_IDLE: i32 = 5;
/// Thread name of the spinners, by which their CPU time is told apart.
const SPINNER_NAME: &str = "keep-awake";
/// Kernel clock ticks per second in `/proc` (USER_HZ, fixed by the Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `/proc/.../stat` line, in seconds.
fn stat_cpu_s(stat: &str) -> f64 {
    // The command name is in parentheses and may hold spaces: count fields
    // from the closing one. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

/// CPU seconds this process has used so far, the spinners' own excluded:
/// what the system under test and the load generator cost together.
pub fn cpu_seconds() -> f64 {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let total = stat_cpu_s(&read("/proc/self/stat"));
    let spinners: f64 = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|task| read(&task.path().join("comm").to_string_lossy()).trim() == SPINNER_NAME)
        .map(|task| stat_cpu_s(&read(&task.path().join("stat").to_string_lossy())))
        .sum();
    (total - spinners).max(0.0)
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    // From the C library std already links.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn enter_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, correctly laid out `struct sched_param` for
    // the duration of the call; pid 0 names the calling thread; the call has
    // no other memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// `(steal, total)` CPU seconds of the whole machine since boot, from the
/// first line of `/proc/stat`.
pub fn host_cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let steal = fields.get(7).copied().unwrap_or(0.0);
    (
        steal / TICKS_PER_S,
        fields.iter().take(8).sum::<f64>() / TICKS_PER_S,
    )
}

/// One idle-class spinner per CPU, stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let spin = move || {
                    // Without the idle class a spinner would take a CPU from
                    // the system under test: then do nothing instead.
                    if !enter_idle_class() {
                        return;
                    }
                    // Plain arithmetic, not `spin_loop()`: a run of PAUSE
                    // instructions is what a hypervisor takes for a spinlock
                    // waiter, and it answers by descheduling the CPU.
                    let mut turns = 0u64;
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..4096 {
                            turns = std::hint::black_box(turns.wrapping_add(1));
                        }
                    }
                };
                std::thread::Builder::new()
                    .name(SPINNER_NAME.to_string())
                    .spawn(spin)
                    .expect("spawn keep-awake thread")
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}
