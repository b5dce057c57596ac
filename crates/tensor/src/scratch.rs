//! [`Scratch`]: a reusable workspace that makes the training hot path
//! allocation-free.
//!
//! The workspace owns three kinds of storage:
//!
//! * a **buffer pool** of `Vec<f32>` (and `Vec<usize>`) recycled between
//!   [`Scratch::take`] / [`Scratch::recycle`] calls — layer outputs,
//!   gradients and cached activations all draw from it;
//! * **GEMM pack workspaces** ([`GemmWorkspace`]) — one for the serial
//!   kernel plus one per parallel worker group;
//! * **counters** ([`ScratchStats`]) that expose pool behaviour and kernel
//!   efficiency to telemetry and tests.
//!
//! Ownership rules (documented in DESIGN.md §11):
//!
//! 1. `take` transfers ownership of a buffer to the caller; the pool keeps
//!    no reference. Returning it with `recycle` (or
//!    [`Scratch::recycle_tensor`]) is optional but required for steady-state
//!    reuse — dropped buffers are simply freed.
//! 2. Only recycle buffers that were either taken from the pool or are
//!    produced at a rate matched by takes, otherwise the pool grows without
//!    bound.
//! 3. Buffers keep their capacity while pooled (`reset, not freed`), so a
//!    training loop with fixed shapes stops allocating after the first
//!    step — asserted by [`ScratchStats::grows`] staying flat.

use crate::ops::gemm::{GemmStats, GemmWorkspace};
use crate::Tensor;

/// Pool and kernel counters for one [`Scratch`].
///
/// `grows` is the key steady-state signal: it increments only when a `take`
/// could not be served from the pool. After a warm-up step over fixed
/// shapes it must stay constant.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ScratchStats {
    /// Buffer requests served (f32 and index pools combined).
    pub takes: u64,
    /// Requests satisfied by a pooled buffer without allocating.
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub grows: u64,
    /// Capacity, in elements, of the largest f32 buffer parked in the pool
    /// right now (a level, not a counter: `reset_stats` leaves it alone).
    pub largest_pooled: usize,
    /// Aggregated GEMM kernel counters (main + worker workspaces).
    pub gemm: GemmStats,
}

impl ScratchStats {
    /// Average kernel throughput (GEMM and the direct 3×3 convolution
    /// kernels) in GFLOP/s since the last stats reset (0 when no kernel time
    /// has been recorded).
    pub fn gemm_gflops(&self) -> f64 {
        if self.gemm.total_seconds > 0.0 {
            self.gemm.flops / self.gemm.total_seconds / 1e9
        } else {
            0.0
        }
    }

    /// Fraction of kernel wall time spent packing GEMM panels, in `[0, 1]`
    /// (the direct convolution kernels pack nothing).
    ///
    /// Worker pack time overlaps the measured total on multi-core runs, so
    /// treat values near 1 as "pack dominated" rather than exact.
    pub fn gemm_pack_share(&self) -> f64 {
        if self.gemm.total_seconds > 0.0 {
            (self.gemm.pack_seconds / self.gemm.total_seconds).min(1.0)
        } else {
            0.0
        }
    }
}

/// Reusable scratch memory for tensor kernels and layer forward/backward
/// passes. See the module docs for the ownership rules.
#[derive(Debug, Default)]
pub struct Scratch {
    free_f32: Vec<Vec<f32>>,
    free_idx: Vec<Vec<usize>>,
    gemm: GemmWorkspace,
    workers: Vec<GemmWorkspace>,
    takes: u64,
    hits: u64,
    grows: u64,
}

/// Best-fit lookup: the pooled buffer with the smallest capacity for
/// `len` — unless handing it out would zero-fill it up to `len` (it is
/// shorter): then one already exactly `len` long, if any, which writes
/// nothing. The smallest buffer is usually the one a recent take of this
/// size used, still in cache, so it is kept whenever it costs no fill.
/// `None` when no buffer fits.
fn best_fit<T>(pool: &[Vec<T>], len: usize) -> Option<usize> {
    let fits = || {
        pool.iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= len)
    };
    let (smallest, buf) = fits().min_by_key(|(_, buf)| buf.capacity())?;
    if buf.len() >= len {
        return Some(smallest);
    }
    fits()
        .min_by_key(|(_, buf)| (buf.len() != len, buf.capacity()))
        .map(|(i, _)| i)
}

impl Scratch {
    /// An empty workspace.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Take a buffer of exactly `len` elements. Contents are unspecified
    /// (use [`Scratch::take_zeroed`] when zeroes matter). The buffer is
    /// owned by the caller; return it with [`Scratch::recycle`] so the
    /// capacity is reused.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.takes += 1;
        match best_fit(&self.free_f32, len) {
            Some(i) => {
                self.hits += 1;
                let mut buf = self.free_f32.swap_remove(i);
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.grows += 1;
                vec![0.0; len]
            }
        }
    }

    /// Take a buffer of `len` zeroes.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Take an index buffer of `len` elements (unspecified contents).
    pub fn take_idx(&mut self, len: usize) -> Vec<usize> {
        self.takes += 1;
        match best_fit(&self.free_idx, len) {
            Some(i) => {
                self.hits += 1;
                let mut buf = self.free_idx.swap_remove(i);
                buf.resize(len, 0);
                buf
            }
            None => {
                self.grows += 1;
                vec![0; len]
            }
        }
    }

    /// Return a buffer to the pool, keeping its capacity for later takes.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free_f32.push(buf);
        }
    }

    /// Return an index buffer to the pool.
    pub fn recycle_idx(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.free_idx.push(buf);
        }
    }

    /// Recycle a tensor's element storage (the shape metadata is dropped).
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// The workspace used by serial GEMM calls.
    pub fn gemm_mut(&mut self) -> &mut GemmWorkspace {
        &mut self.gemm
    }

    /// Split access for the grouped GEMM path: the main workspace (B panel
    /// packing) plus `groups` worker workspaces (A panel packing), grown on
    /// demand and reused across calls.
    pub fn gemm_workspaces(&mut self, groups: usize) -> (&mut GemmWorkspace, &mut [GemmWorkspace]) {
        if self.workers.len() < groups {
            self.workers.resize_with(groups, GemmWorkspace::new);
        }
        (&mut self.gemm, &mut self.workers[..groups])
    }

    /// Snapshot the counters (pool + aggregated GEMM stats).
    pub fn stats(&self) -> ScratchStats {
        let mut gemm = self.gemm.stats;
        for w in &self.workers {
            gemm.merge(&w.stats);
        }
        ScratchStats {
            takes: self.takes,
            hits: self.hits,
            grows: self.grows,
            largest_pooled: self.free_f32.iter().map(Vec::capacity).max().unwrap_or(0),
            gemm,
        }
    }

    /// Zero all counters (pooled buffers are kept).
    pub fn reset_stats(&mut self) {
        self.takes = 0;
        self.hits = 0;
        self.grows = 0;
        self.gemm.stats = GemmStats::default();
        for w in &mut self.workers {
            w.stats = GemmStats::default();
        }
    }

    /// Drop every pooled buffer and pack workspace, freeing their memory.
    pub fn clear(&mut self) {
        self.free_f32.clear();
        self.free_idx.clear();
        self.gemm = GemmWorkspace::new();
        self.workers.clear();
    }

    /// Number of buffers currently parked in the pools.
    pub fn pooled_buffers(&self) -> usize {
        self.free_f32.len() + self.free_idx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_capacity() {
        let mut s = Scratch::new();
        let buf = s.take(100);
        let ptr = buf.as_ptr();
        s.recycle(buf);
        let again = s.take(80); // smaller fits the same allocation
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 80);
        let st = s.stats();
        assert_eq!((st.takes, st.hits, st.grows), (2, 1, 1));
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut s = Scratch::new();
        let mut buf = s.take(4);
        buf.fill(9.0);
        s.recycle(buf);
        assert_eq!(s.take_zeroed(4), vec![0.0; 4]);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut s = Scratch::new();
        let big = s.take(1000);
        let small = s.take(10);
        let small_ptr = small.as_ptr();
        s.recycle(big);
        s.recycle(small);
        let got = s.take(8);
        assert_eq!(got.as_ptr(), small_ptr);
    }

    #[test]
    fn a_buffer_already_that_long_is_reused_before_a_smaller_capacity() {
        let mut s = Scratch::new();
        let mut that_long = Vec::with_capacity(256);
        that_long.resize(48, 7.0);
        let mut shorter = Vec::with_capacity(64);
        shorter.resize(10, 1.0);
        let ptr = that_long.as_ptr();
        s.recycle(shorter);
        s.recycle(that_long);
        // Capacity alone would pick `shorter` and zero-fill 38 elements.
        for _ in 0..3 {
            let buf = s.take(48);
            assert_eq!(buf.as_ptr(), ptr);
            assert_eq!(buf, vec![7.0; 48], "nothing was written");
            s.recycle(buf);
        }
        assert_eq!(s.stats().grows, 0);
    }

    #[test]
    fn steady_state_stops_growing() {
        let mut s = Scratch::new();
        for _ in 0..3 {
            let a = s.take(64);
            let b = s.take(128);
            s.recycle(a);
            s.recycle(b);
        }
        let st = s.stats();
        assert_eq!(st.grows, 2, "only the first round allocates");
        assert_eq!(st.takes, 6);
    }

    #[test]
    fn idx_pool_round_trips() {
        let mut s = Scratch::new();
        let buf = s.take_idx(16);
        let ptr = buf.as_ptr();
        s.recycle_idx(buf);
        let again = s.take_idx(16);
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn recycle_tensor_feeds_the_pool() {
        let mut s = Scratch::new();
        let t = Tensor::zeros([4, 4]);
        s.recycle_tensor(t);
        assert_eq!(s.pooled_buffers(), 1);
        assert_eq!(s.take(16).len(), 16);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn reset_stats_keeps_buffers() {
        let mut s = Scratch::new();
        let b = s.take(32);
        s.recycle(b);
        s.reset_stats();
        assert_eq!(s.stats().takes, 0);
        assert_eq!(s.pooled_buffers(), 1);
    }
}
