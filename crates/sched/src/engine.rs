//! The incremental scheduling engine: FCFS with EASY backfilling.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// A job as the simulator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimJob {
    /// Stable job id.
    pub id: u64,
    /// Submission time, seconds.
    pub submit: u64,
    /// Nodes requested.
    pub nodes: u32,
    /// Actual runtime, seconds (drives completions).
    pub runtime: u64,
    /// Estimated runtime, seconds (drives planning/backfill — the user
    /// request or a model prediction).
    pub estimate: u64,
}

/// One scheduled job in the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// Job id.
    pub id: u64,
    /// Submission time.
    pub submit: u64,
    /// Start time.
    pub start: u64,
    /// End time (`start + runtime`).
    pub end: u64,
}

impl ScheduleEntry {
    /// Turnaround = completion − submission.
    pub fn turnaround(&self) -> u64 {
        self.end - self.submit
    }

    /// Queue wait = start − submission.
    pub fn wait(&self) -> u64 {
        self.start - self.submit
    }
}

/// A completed simulation: entries in job-submission order.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Per-job placement, ordered by id ascending.
    pub entries: Vec<ScheduleEntry>,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    id: u64,
    nodes: u32,
    /// When the job started.
    start: u64,
    /// When the job will actually complete.
    end_actual: u64,
    /// When the scheduler *believes* it completes (start + estimate).
    end_estimated: u64,
}

/// One running job's full placement view, for progress taps and kill
/// policies that need more than the planning tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// Job id.
    pub id: u64,
    /// Nodes held.
    pub nodes: u32,
    /// Start time, seconds.
    pub start: u64,
    /// Actual completion time (hidden from planning).
    pub end_actual: u64,
    /// Planned completion time (start + estimate, or start + interval `hi`
    /// after a revision).
    pub end_estimated: u64,
}

/// Record of a job terminated early by [`SimEngine::kill_running`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KilledJob {
    /// Job id.
    pub id: u64,
    /// Nodes it was holding.
    pub nodes: u32,
    /// When it started.
    pub started: u64,
    /// When the kill landed (the engine's `now`).
    pub killed_at: u64,
    /// When it would have actually completed had it run on.
    pub projected_end: u64,
}

impl KilledJob {
    /// Node-seconds the kill reclaimed: the occupancy the job would have
    /// burned between the kill and its actual completion.
    pub fn node_seconds_saved(&self) -> u64 {
        self.nodes as u64 * self.projected_end.saturating_sub(self.killed_at)
    }
}

/// The incremental FCFS + EASY-backfill engine.
///
/// Cloneable by design: the snapshot turnaround predictor clones the live
/// state and rolls the copy forward under different runtimes.
#[derive(Debug, Clone)]
pub struct SimEngine {
    total_nodes: u32,
    free_nodes: u32,
    now: u64,
    running: Vec<Running>,
    queue: VecDeque<SimJob>,
    finished: Vec<ScheduleEntry>,
    /// Revised `[lo, hi]` runtime intervals by job id (seconds), kept as a
    /// side-table so [`SimJob`] stays a stable `Copy` record. Backfill
    /// fit-checks a candidate against its `lo` (optimistic: squeeze more
    /// work into holes); reservations use `hi` via `end_estimated`
    /// (pessimistic: never let backfill push the queue head back).
    intervals: HashMap<u64, (u64, u64)>,
    /// Ids of jobs that left the machine (natural end or `kill_running`)
    /// since the last [`SimEngine::take_departures`], in departure order.
    departed: Vec<u64>,
}

impl SimEngine {
    /// An empty cluster of `total_nodes` nodes at time 0.
    pub fn new(total_nodes: u32) -> Self {
        assert!(total_nodes > 0, "cluster needs nodes");
        SimEngine {
            total_nodes,
            free_nodes: total_nodes,
            now: 0,
            running: Vec::new(),
            queue: VecDeque::new(),
            finished: Vec::new(),
            intervals: HashMap::new(),
            departed: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Free node count.
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Jobs currently executing, with start times — the view progress taps
    /// and kill policies consume.
    pub fn running_info(&self) -> impl Iterator<Item = RunningJob> + '_ {
        self.running.iter().map(|r| RunningJob {
            id: r.id,
            nodes: r.nodes,
            start: r.start,
            end_actual: r.end_actual,
            end_estimated: r.end_estimated,
        })
    }

    /// Jobs waiting in the queue.
    pub fn queued_jobs(&self) -> impl Iterator<Item = &SimJob> + '_ {
        self.queue.iter()
    }

    /// Install a revised `[lo, hi]` runtime interval (seconds) for job
    /// `id`. A running job's planned end moves to `start + hi` (the
    /// reservation end backfill must respect); any other job — queued or
    /// not yet submitted — will fit-check against `lo` when considered
    /// for backfill and reserve `hi` once started. Re-calling replaces the
    /// previous interval. Returns true if the job is currently running or
    /// queued.
    ///
    /// `slot` is where [`running_info`](Self::running_info) listed the job,
    /// if the caller knows: a hit installs without searching the running
    /// set, and a miss (`None`, or a slot a kill or completion has since
    /// moved another job into) falls back to the search.
    pub fn set_estimate_interval(
        &mut self,
        id: u64,
        lo_seconds: u64,
        hi_seconds: u64,
        slot: Option<usize>,
    ) -> bool {
        let lo = lo_seconds.max(1);
        let hi = hi_seconds.max(lo);
        let at = slot
            .filter(|&i| self.running.get(i).is_some_and(|r| r.id == id))
            .or_else(|| self.running.iter().position(|r| r.id == id));
        if let Some(r) = at.map(|i| &mut self.running[i]) {
            // Never plan an end in the past: a job that already outlived
            // `hi` is treated as ending imminently. The side table is
            // read only when a job starts or is tried for backfill, so a
            // running job needs no entry.
            r.end_estimated = (r.start + hi).max(self.now + 1);
            return true;
        }
        self.intervals.insert(id, (lo, hi));
        self.queue.iter().any(|q| q.id == id)
    }

    /// Terminate running job `id` now, freeing its nodes and running a
    /// scheduling pass over the reclaimed space. The job's schedule entry
    /// is truncated to the kill time (it occupied nodes only that long),
    /// and the job counts as a departure. Returns what was reclaimed, or
    /// `None` if `id` is not running.
    pub fn kill_running(&mut self, id: u64) -> Option<KilledJob> {
        let killed = self.evict(id)?;
        self.departed.push(id);
        self.try_schedule();
        Some(killed)
    }

    /// Take a running job off its nodes: the part of a kill shared by
    /// [`kill_running`](Self::kill_running) and
    /// [`kill_and_requeue`](Self::kill_and_requeue).
    fn evict(&mut self, id: u64) -> Option<KilledJob> {
        let idx = self.running.iter().position(|r| r.id == id)?;
        let r = self.running.swap_remove(idx);
        self.free_nodes += r.nodes;
        self.intervals.remove(&id);
        // The entry pushed at start assumed a natural completion; the job
        // actually held its nodes only until now.
        if let Some(e) = self
            .finished
            .iter_mut()
            .rev()
            .find(|e| e.id == id && e.start == r.start)
        {
            e.end = self.now.max(e.start);
        }
        Some(KilledJob {
            id: r.id,
            nodes: r.nodes,
            started: r.start,
            killed_at: self.now,
            projected_end: r.end_actual,
        })
    }

    /// Kill running job `id` and put it back on the queue for a fresh
    /// attempt (submitted at the current time, full runtime again, with
    /// `estimate_seconds` as its new planning estimate). The job goes back
    /// to the queue, so it is no departure. Returns the kill record, or
    /// `None` if `id` is not running.
    pub fn kill_and_requeue(&mut self, id: u64, estimate_seconds: u64) -> Option<KilledJob> {
        let killed = self.evict(id)?;
        // The pass a plain kill runs, before the retry joins the queue.
        self.try_schedule();
        // Drop the truncated first-attempt entry: the retry's entry will
        // replace it when the job starts again.
        if let Some(pos) = self
            .finished
            .iter()
            .rposition(|e| e.id == id && e.start == killed.started)
        {
            self.finished.remove(pos);
        }
        self.queue.push_back(SimJob {
            id,
            submit: self.now,
            nodes: killed.nodes,
            runtime: killed.projected_end - killed.started,
            estimate: estimate_seconds.max(1),
        });
        self.try_schedule();
        Some(killed)
    }

    /// Completed entries so far.
    pub fn finished(&self) -> &[ScheduleEntry] {
        &self.finished
    }

    /// Hand over the ids of the jobs that left the machine since the last
    /// call, in departure order: every natural end and every
    /// [`kill_running`](Self::kill_running). A requeue puts the job back
    /// in the queue and is no departure; forks start with none.
    pub fn take_departures(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.departed)
    }

    /// Advance the clock to `t`, completing every job whose actual end is
    /// `<= t` (in end-time order) and backfilling after each completion.
    pub fn advance_to(&mut self, t: u64) {
        debug_assert!(t >= self.now, "time cannot run backwards");
        loop {
            let next_end = self.running.iter().map(|r| r.end_actual).min();
            match next_end {
                Some(end) if end <= t => {
                    self.now = end;
                    let mut i = 0;
                    while i < self.running.len() {
                        if self.running[i].end_actual == end {
                            let r = self.running.swap_remove(i);
                            self.free_nodes += r.nodes;
                            self.intervals.remove(&r.id);
                            self.departed.push(r.id);
                        } else {
                            i += 1;
                        }
                    }
                    self.try_schedule();
                }
                _ => break,
            }
        }
        self.now = t;
    }

    /// Submit a job at its `submit` time (the clock is advanced there) and
    /// run the scheduling pass.
    pub fn submit(&mut self, job: SimJob) {
        self.advance_to(job.submit.max(self.now));
        self.queue.push_back(job);
        self.try_schedule();
    }

    /// Run until all submitted work has completed and return the schedule.
    pub fn drain(mut self) -> Schedule {
        while !self.running.is_empty() || !self.queue.is_empty() {
            match self.running.iter().map(|r| r.end_actual).min() {
                Some(end) => self.advance_to(end),
                None => {
                    // Queue non-empty but nothing running: should be
                    // impossible (any queued head fits an empty cluster or
                    // was rejected at submit).
                    unreachable!("queued jobs with an idle cluster");
                }
            }
        }
        let mut entries = self.finished;
        entries.sort_by_key(|e| e.id);
        Schedule { entries }
    }

    /// Clone the live state, replacing every job's runtime with a predicted
    /// total runtime — the paper's snapshot step (§4.2): "we replace the
    /// runtime of each job in execution and in the queue with the predicted
    /// job runtime".
    ///
    /// For running jobs the predicted *end* is `start + predicted_total`; if
    /// the job has already outlived its prediction, completion is assumed
    /// imminent (one second from now).
    pub fn fork_with_predictions(&self, predicted: impl Fn(u64) -> u64) -> SimEngine {
        let mut fork = self.clone();
        // The supplied predictions supersede any revised intervals.
        fork.finished.clear();
        fork.intervals.clear();
        fork.departed.clear();
        for r in &mut fork.running {
            let end = r.start + predicted(r.id).max(1);
            let end = end.max(fork.now + 1);
            r.end_actual = end;
            r.end_estimated = end;
        }
        for q in &mut fork.queue {
            let p = predicted(q.id).max(1);
            q.runtime = p;
            q.estimate = p;
        }
        fork
    }

    /// Roll the engine forward until `target` completes and return its
    /// completion time, or `None` if the target is not present.
    ///
    /// A target that is already running resolves immediately: its end time
    /// is determined the moment it starts.
    pub fn run_until_finished(mut self, target: u64) -> Option<u64> {
        loop {
            if let Some(r) = self.running.iter().find(|r| r.id == target) {
                return Some(r.end_actual);
            }
            if let Some(e) = self.finished.iter().find(|e| e.id == target) {
                return Some(e.end);
            }
            if !self.queue.iter().any(|q| q.id == target) {
                return None;
            }
            let next_end = self.running.iter().map(|r| r.end_actual).min()?;
            self.advance_to(next_end);
        }
    }

    fn start_job(&mut self, job: SimJob) {
        self.free_nodes -= job.nodes;
        let start = self.now;
        // A revised interval's `hi` is the reservation the scheduler
        // plans around once the job holds nodes.
        let planning = match self.intervals.get(&job.id) {
            Some(&(_, hi)) => hi,
            None => job.estimate,
        };
        self.running.push(Running {
            id: job.id,
            nodes: job.nodes,
            start,
            end_actual: start + job.runtime,
            end_estimated: start + planning,
        });
        self.finished.push(ScheduleEntry {
            id: job.id,
            submit: job.submit,
            start,
            end: start + job.runtime,
        });
    }

    /// FCFS with conservative EASY backfill.
    fn try_schedule(&mut self) {
        // FCFS: start queue-head jobs while they fit.
        while let Some(head) = self.queue.front() {
            let nodes = head.nodes.min(self.total_nodes);
            if nodes <= self.free_nodes {
                let mut job = self.queue.pop_front().expect("checked non-empty");
                job.nodes = nodes;
                self.start_job(job);
            } else {
                break;
            }
        }
        let Some(head) = self.queue.front().copied() else {
            return;
        };

        // Shadow time: when will the head job first fit, assuming running
        // jobs end at their *estimated* ends?
        let mut ends: Vec<(u64, u32)> = self
            .running
            .iter()
            .map(|r| (r.end_estimated.max(self.now), r.nodes))
            .collect();
        ends.sort_unstable();
        let mut avail = self.free_nodes;
        let mut shadow = u64::MAX;
        for (end, nodes) in ends {
            avail += nodes;
            if avail >= head.nodes.min(self.total_nodes) {
                shadow = end;
                break;
            }
        }

        // Backfill: any later job that fits now and (by its estimate) will
        // finish before the head's reservation may jump the queue.
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            // With a revised interval, backfill fit-checks the optimistic
            // `lo`: the hole-filling side of interval-aware scheduling.
            // (`hi` still guards the reservation via start_job above.)
            let fit = match self.intervals.get(&cand.id) {
                Some(&(lo, _)) => lo,
                None => cand.estimate,
            };
            if cand.nodes <= self.free_nodes && self.now.saturating_add(fit) <= shadow {
                self.queue.remove(i);
                self.start_job(cand);
                // A start never frees nodes, so the head still does not fit;
                // the shadow computed from estimated ends is unchanged by
                // construction (backfilled jobs finish before it).
            } else {
                i += 1;
            }
        }
    }
}

/// Simulate a whole trace: submit in time order, drain, return the schedule.
///
/// Jobs requesting more nodes than the cluster are clamped to the full
/// machine (matching how real schedulers reject-or-clamp oversized asks).
pub fn simulate(total_nodes: u32, jobs: &[SimJob]) -> Schedule {
    let mut engine = SimEngine::new(total_nodes);
    let mut sorted: Vec<SimJob> = jobs.to_vec();
    sorted.sort_by_key(|j| (j.submit, j.id));
    for job in sorted {
        engine.submit(job);
    }
    engine.drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, submit: u64, nodes: u32, runtime: u64, estimate: u64) -> SimJob {
        SimJob {
            id,
            submit,
            nodes,
            runtime,
            estimate,
        }
    }

    #[test]
    fn single_job_starts_immediately() {
        let s = simulate(10, &[job(0, 5, 4, 100, 100)]);
        assert_eq!(s.entries[0].start, 5);
        assert_eq!(s.entries[0].end, 105);
        assert_eq!(s.entries[0].turnaround(), 100);
    }

    #[test]
    fn fcfs_queues_when_full() {
        let jobs = [job(0, 0, 10, 100, 100), job(1, 1, 10, 50, 50)];
        let s = simulate(10, &jobs);
        assert_eq!(s.entries[0].start, 0);
        assert_eq!(s.entries[1].start, 100, "second job waits for first");
    }

    #[test]
    fn parallel_jobs_share_the_cluster() {
        let jobs = [job(0, 0, 4, 100, 100), job(1, 0, 4, 100, 100)];
        let s = simulate(10, &jobs);
        assert_eq!(s.entries[0].start, 0);
        assert_eq!(s.entries[1].start, 0);
    }

    #[test]
    fn easy_backfill_lets_short_jobs_jump() {
        // Head job (8 nodes) blocks behind job 0; a 2-node job estimated to
        // finish before the head's reservation backfills immediately.
        let jobs = [
            job(0, 0, 8, 100, 100), // runs now
            job(1, 1, 8, 100, 100), // head, must wait until t=100
            job(2, 2, 2, 10, 10),   // fits the 2 free nodes, ends by t=12 <= 100
        ];
        let s = simulate(10, &jobs);
        assert_eq!(s.entries[2].start, 2, "short job backfills");
        assert_eq!(s.entries[1].start, 100);
    }

    #[test]
    fn backfill_does_not_delay_head_reservation() {
        // A backfill candidate whose estimate crosses the head's shadow time
        // must NOT start even though nodes are free.
        let jobs = [
            job(0, 0, 8, 100, 100),
            job(1, 1, 8, 100, 100), // head reserved at t=100
            job(2, 2, 2, 500, 500), // would run past t=100 on head's nodes
        ];
        let s = simulate(10, &jobs);
        assert_eq!(s.entries[1].start, 100, "head keeps its reservation");
        assert!(
            s.entries[2].start >= 100,
            "long candidate must not backfill"
        );
    }

    #[test]
    fn underestimates_still_complete_at_actual_runtime() {
        // Planning uses the estimate, execution uses the actual runtime.
        let jobs = [job(0, 0, 10, 200, 50), job(1, 1, 10, 10, 10)];
        let s = simulate(10, &jobs);
        assert_eq!(s.entries[0].end, 200);
        assert_eq!(
            s.entries[1].start, 200,
            "successor waits for the real completion"
        );
    }

    #[test]
    fn oversized_job_clamps_to_cluster() {
        let s = simulate(10, &[job(0, 0, 99, 10, 10)]);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].start, 0);
    }

    #[test]
    fn entries_are_ordered_by_id_and_complete() {
        let jobs: Vec<SimJob> = (0..50)
            .map(|i| job(i, i * 3, 1 + (i % 7) as u32, 30 + i * 2, 40 + i * 2))
            .collect();
        let s = simulate(8, &jobs);
        assert_eq!(s.entries.len(), jobs.len());
        for (i, e) in s.entries.iter().enumerate() {
            assert_eq!(e.id, i as u64);
            assert!(e.start >= e.submit);
            assert_eq!(e.end - e.start, jobs[i].runtime);
        }
    }

    #[test]
    fn node_capacity_is_never_exceeded() {
        let jobs: Vec<SimJob> = (0..200)
            .map(|i| {
                job(
                    i,
                    i,
                    1 + (i % 10) as u32,
                    20 + (i * 13) % 100,
                    30 + (i * 13) % 100,
                )
            })
            .collect();
        let s = simulate(16, &jobs);
        // Sweep all start/end events and check concurrent node usage.
        let mut events: Vec<(u64, i64)> = Vec::new();
        for (e, j) in s.entries.iter().zip(&jobs) {
            events.push((e.start, j.nodes as i64));
            events.push((e.end, -(j.nodes as i64)));
        }
        events.sort_by_key(|&(t, d)| (t, d)); // process releases before grabs at same t
        let mut in_use = 0i64;
        for (_, d) in events {
            in_use += d;
            assert!(in_use <= 16, "capacity exceeded: {in_use}");
        }
    }

    #[test]
    fn interval_lo_admits_backfill_the_point_estimate_refused() {
        // Same shape as backfill_does_not_delay_head_reservation, but the
        // candidate's revised interval says it is actually short: the
        // optimistic lo lets it fill the hole.
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 0, 8, 100, 100));
        engine.submit(job(1, 1, 8, 100, 100)); // head, reserved at t=100
        let mut pessimist = engine.clone();
        // Candidate requests 500s but a revision bounds it to [10, 40].
        engine.set_estimate_interval(2, 10, 40, None);
        engine.submit(job(2, 2, 2, 30, 500));
        pessimist.submit(job(2, 2, 2, 30, 500));
        let s = engine.drain();
        assert_eq!(s.entries[2].start, 2, "lo admits the backfill");
        let p = pessimist.drain();
        assert!(p.entries[2].start >= 100, "without the interval it waits");
    }

    #[test]
    fn interval_hi_extends_a_running_jobs_reservation() {
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 0, 8, 300, 100)); // will badly overrun
        engine.submit(job(1, 1, 8, 100, 100)); // head, shadow at t=100
                                               // Revision: job 0 actually ends near t=300, so the backfill window
                                               // behind the head's new t=300 reservation is wide open.
        assert!(engine.set_estimate_interval(0, 250, 320, None));
        engine.submit(job(2, 2, 2, 150, 150));
        let s = engine.drain();
        assert_eq!(
            s.entries[2].start, 2,
            "hi moved the shadow out, the 150s candidate fits"
        );
    }

    #[test]
    fn a_stale_slot_after_a_kill_installs_on_the_right_job() {
        // Five 2-node jobs fill the machine and a sixth waits.
        let mut engine = SimEngine::new(10);
        for id in 0..6 {
            engine.submit(job(id, 0, 2, 1000, 1000));
        }
        engine.advance_to(10);
        let seen: Vec<u64> = engine.running_info().map(|r| r.id).collect();
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        // The kill moves job 4 into slot 0, and job 5 starts in slot 4.
        engine.kill_running(0).expect("running");
        let mut searched = engine.clone();
        for (slot, &id) in seen.iter().enumerate().skip(1) {
            let hi = 200 + 100 * id;
            assert!(engine.set_estimate_interval(id, 50, hi, Some(slot)));
            assert!(searched.set_estimate_interval(id, 50, hi, None));
        }
        let installed: Vec<RunningJob> = engine.running_info().collect();
        assert_eq!(installed, searched.running_info().collect::<Vec<_>>());
        for r in &installed {
            let expected = match r.id {
                5 => r.start + 1000,
                id => r.start + 200 + 100 * id,
            };
            assert_eq!(r.end_estimated, expected, "job {}", r.id);
        }
    }

    #[test]
    fn kill_running_frees_nodes_and_truncates_the_entry() {
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 0, 8, 1000, 1000));
        engine.submit(job(1, 1, 8, 50, 50)); // blocked behind job 0
        engine.advance_to(10);
        let killed = engine.kill_running(0).expect("job 0 is running");
        assert_eq!(killed.killed_at, 10);
        assert_eq!(killed.projected_end, 1000);
        assert_eq!(killed.node_seconds_saved(), 8 * 990);
        assert_eq!(engine.kill_running(0), None, "idempotent: already gone");
        let s = engine.drain();
        assert_eq!(s.entries[0].end, 10, "entry truncated to the kill");
        assert_eq!(
            s.entries[1].start, 10,
            "blocked job starts on the freed nodes"
        );
    }

    #[test]
    fn kill_and_requeue_reruns_the_job_from_scratch() {
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 0, 10, 100, 100));
        engine.advance_to(30);
        let killed = engine.kill_and_requeue(0, 120).expect("running");
        assert_eq!(killed.killed_at, 30);
        let s = engine.drain();
        assert_eq!(s.entries.len(), 1, "one entry for the successful attempt");
        assert_eq!(s.entries[0].start, 30, "restarts at the kill time");
        assert_eq!(s.entries[0].end, 130, "full runtime again");
    }

    #[test]
    fn departures_are_natural_ends_and_kills_but_not_requeues() {
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 0, 2, 50, 50));
        engine.submit(job(1, 0, 2, 500, 500));
        engine.submit(job(2, 0, 2, 500, 500));
        engine.advance_to(10);
        assert!(engine.take_departures().is_empty(), "nothing left yet");
        engine.kill_running(2).expect("running");
        engine.kill_and_requeue(1, 500).expect("running");
        engine.advance_to(60);
        assert_eq!(
            engine.take_departures(),
            [2, 0],
            "the kill, then job 0's natural end; the requeue stays"
        );
        assert!(engine.take_departures().is_empty(), "handed over once");
        engine.advance_to(10_000);
        assert_eq!(engine.take_departures(), [1], "the retry's natural end");
        engine.submit(job(3, 10_000, 2, 50, 50));
        engine.advance_to(10_100);
        let mut fork = engine.fork_with_predictions(|_| 1);
        assert!(fork.take_departures().is_empty(), "forks start empty");
        assert_eq!(engine.take_departures(), [3]);
    }

    #[test]
    fn running_info_exposes_start_times() {
        let mut engine = SimEngine::new(10);
        engine.submit(job(0, 5, 4, 100, 100));
        engine.advance_to(20);
        let info: Vec<RunningJob> = engine.running_info().collect();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].start, 5);
        assert_eq!(info[0].end_actual, 105);
        assert_eq!(engine.now() - info[0].start, 15, "elapsed is derivable");
    }

    #[test]
    fn better_estimates_do_not_change_actual_runtimes() {
        let jobs: Vec<SimJob> = (0..30).map(|i| job(i, i * 5, 4, 100, 400)).collect();
        let exact: Vec<SimJob> = jobs
            .iter()
            .map(|j| SimJob {
                estimate: j.runtime,
                ..*j
            })
            .collect();
        let a = simulate(8, &jobs);
        let b = simulate(8, &exact);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.end - x.start, y.end - y.start);
        }
    }
}
