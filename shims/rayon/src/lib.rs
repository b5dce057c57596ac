//! Offline stand-in for `rayon` covering the workspace's usage:
//! `par_iter()` on slices, `into_par_iter()` on ranges and vectors,
//! `par_chunks_mut()`, plus `enumerate`/`map`/`for_each`/`collect`
//! (collecting into both `Vec<T>` and `Result<Vec<T>, E>`), and
//! `current_num_threads()`.
//!
//! Work is genuinely parallel: items are split into contiguous chunks, one
//! per pool thread, and run on the calling thread plus the parked workers
//! of one process-wide pool (`src/pool.rs` describes the protocol),
//! preserving input order in the collected output. No call creates a thread
//! once the pool has started. There is no work stealing between chunks,
//! which is fine for the near-uniform batch workloads here.

use std::sync::Mutex;

mod pool;

pub use pool::current_num_threads;

pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSliceMut,
    };
}

/// Run `f` over `items` on the pool, preserving order.
fn parallel_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);

    // Carve the input into owned chunks up front: the cut depends on `n`
    // and the pool size only. Each slot is locked by the one thread that
    // claimed its chunk, which swaps the inputs for the outputs.
    let mut slots: Vec<Mutex<(Vec<T>, Vec<U>)>> = Vec::with_capacity(threads);
    let mut rest = items;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        slots.push(Mutex::new((rest, Vec::new())));
        rest = tail;
    }
    pool::run(slots.len(), &|i| {
        let mut slot = slots[i].lock().expect("chunk slot is locked once");
        slot.1 = std::mem::take(&mut slot.0).into_iter().map(&f).collect();
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("run re-raises chunk panics").1)
        .collect()
}

/// Targets of `ParallelIterator::collect`.
pub trait FromParallelIterator<U>: Sized {
    fn from_ordered_vec(items: Vec<U>) -> Self;
}

impl<U> FromParallelIterator<U> for Vec<U> {
    fn from_ordered_vec(items: Vec<U>) -> Self {
        items
    }
}

impl<U, E> FromParallelIterator<Result<U, E>> for Result<Vec<U>, E> {
    fn from_ordered_vec(items: Vec<Result<U, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// An in-memory parallel iterator: a materialized list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Everything chains through these inherent-style trait methods.
pub trait ParallelIterator: Sized {
    type Item: Send;

    fn into_items(self) -> Vec<Self::Item>;

    fn map<U, F>(self, f: F) -> ParMap<Self::Item, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        ParMap {
            items: self.into_items(),
            f,
        }
    }

    fn enumerate(self) -> ParIter<(usize, Self::Item)> {
        ParIter {
            items: self.into_items().into_iter().enumerate().collect(),
        }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        parallel_map_vec(self.into_items(), f);
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_ordered_vec(self.into_items())
    }
}

/// Marker mirroring rayon's indexed iterators (ordering is always preserved
/// in this shim, so it adds nothing beyond the name).
pub trait IndexedParallelIterator: ParallelIterator {}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send> IndexedParallelIterator for ParIter<T> {}

/// A mapped parallel iterator; evaluation happens (in parallel) at
/// `collect`/`for_each` time.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, U, F> ParallelIterator for ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    type Item = U;

    fn into_items(self) -> Vec<U> {
        parallel_map_vec(self.items, self.f)
    }
}

impl<T, U, F> IndexedParallelIterator for ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
}

/// `into_par_iter()` for owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `par_iter()` on anything that view-iterates (slices, Vec via deref).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_to_err() {
        let ok: Result<Vec<usize>, String> = (0..10usize).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);

        let err: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn slice_par_iter_with_enumerate() {
        let data = vec![10, 20, 30];
        let out: Vec<usize> = data.par_iter().enumerate().map(|(i, &v)| i + v).collect();
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut buf = vec![0u32; 64];
        buf.par_chunks_mut(8).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u32;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, (i / 8) as u32);
        }
    }

    #[test]
    fn for_each_runs_every_item() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        (0..500usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn closures_borrow_the_callers_stack() {
        let offsets = [100usize, 200, 300, 400, 500, 600, 700];
        let mut sums = [0usize; 7];
        let scale = 3usize;
        sums.par_chunks_mut(1).enumerate().for_each(|(i, out)| {
            out[0] = offsets[i] * scale;
        });
        assert_eq!(sums, [300, 600, 900, 1200, 1500, 1800, 2100]);
    }

    #[test]
    fn a_chunk_panic_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 63 {
                    panic!("chunk failed");
                }
            });
        });
        let payload = caught.expect_err("the panic crosses par_iter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
        let v: Vec<usize> = (0..64usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_iter_finishes() {
        let rows: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|r| {
                let cells: Vec<usize> = (0..16usize).into_par_iter().map(|c| r * 16 + c).collect();
                cells.into_iter().sum()
            })
            .collect();
        let want: Vec<usize> = (0..16).map(|r| (0..16).map(|c| r * 16 + c).sum()).collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_ordered_result() {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8usize)
                .map(|t| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        (0..50)
                            .map(|round| {
                                (0..257usize)
                                    .into_par_iter()
                                    .map(|i| t * 1_000_000 + round * 1_000 + i)
                                    .collect::<Vec<usize>>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (t, handle) in handles.into_iter().enumerate() {
                let rounds = handle.join().expect("submitter thread");
                for (round, got) in rounds.into_iter().enumerate() {
                    let want: Vec<usize> = (0..257)
                        .map(|i| t * 1_000_000 + round * 1_000 + i)
                        .collect();
                    assert_eq!(got, want, "submitter {t} round {round}");
                }
            }
        });
    }

    #[test]
    fn current_num_threads_is_the_hosts_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(crate::current_num_threads(), host);
    }
}
