//! Dependency-free parallel sweep driver and worker-pool plumbing.
//!
//! The cross-validation suites and the `experiments` harness all have the
//! same shape: evaluate a pure function of a seed over thousands of seeds
//! and aggregate the results. This module fans such sweeps out over the
//! machine's cores with `std::thread::scope` — no rayon, no channels, no
//! unsafe — while keeping the output **deterministic**: results come back
//! in seed order regardless of how the OS schedules the workers, so a
//! sweep's aggregate (medians, tables, BENCH json) is reproducible.
//!
//! Work is distributed in **contiguous chunks, one per worker**: each
//! worker owns a dense sub-range of the seed space and writes its results
//! into its own output segment, so there is no shared cursor, no mutex,
//! and no final sort. (An earlier fine-grained work-stealing scheme paid
//! an atomic round-trip and a result re-sort per sweep; at low core
//! counts that overhead made the "parallel" path lose to the serial one.)
//! At one worker the sweep runs fully inline — the parallel entry points
//! are never slower than a hand-written serial loop there.
//!
//! The same chunked `thread::scope` plumbing ([`join_all`],
//! [`chunk_ranges`]) drives the sharded GCL compiler and the parallel
//! BFS in [`crate::gcl`] and [`crate::FiniteSystem`].
//!
//! # Thread-count control
//!
//! [`available_workers`] honours the `GRAYBOX_THREADS` environment
//! variable (a positive integer) before falling back to
//! `available_parallelism()`, so CI and `graybox-bench` runs are
//! reproducible on any machine. Benchmarks that measure scaling pass
//! explicit counts to the `*_on` entry points instead.
//!
//! # Example
//!
//! ```
//! use graybox_core::sweep::sweep_seeds;
//!
//! let squares = sweep_seeds(0..100u64, |seed| seed * seed);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

use std::ops::Range;

/// The worker count an unconstrained [`sweep_seeds`] call (or any other
/// parallel engine entry point) would use: the `GRAYBOX_THREADS`
/// environment variable if it parses as a positive integer, else
/// `available_parallelism()`, floored at 1. Public so harnesses can
/// record how many threads actually ran (`threads_used` in
/// `BENCH_core.json`) — on a 1-core container every parallel path falls
/// back to a fully inline sweep (no threads spawned), and a parallel
/// "speedup" of ≈1× there is the expected serial fallback, not a
/// regression.
pub fn available_workers() -> usize {
    if let Ok(value) = std::env::var("GRAYBOX_THREADS") {
        if let Ok(threads) = value.trim().parse::<usize>() {
            if threads >= 1 {
                return threads.min(256);
            }
        }
        // Unparsable or zero: fall through to the hardware count rather
        // than aborting a run over a typo'd override.
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper bound on worker threads; sweeps are CPU-bound, so there is no
/// point oversubscribing far beyond the core count.
fn worker_count(jobs: u64) -> usize {
    let jobs = usize::try_from(jobs).unwrap_or(usize::MAX);
    available_workers().min(jobs).max(1)
}

/// Splits `0..len` into at most `workers` contiguous, non-empty ranges
/// whose starts are multiples of `align` (the last range absorbs the
/// remainder). Alignment lets chunk owners write disjoint *blocks* of a
/// `u64` bitset without sharing any word. `align` must be a power of two.
pub(crate) fn chunk_ranges(len: usize, workers: usize, align: usize) -> Vec<Range<usize>> {
    debug_assert!(align.is_power_of_two());
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    // Ceil to a multiple of `align` so every boundary is aligned.
    let step = len.div_ceil(workers).next_multiple_of(align);
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0usize;
    while start < len {
        let end = (start + step).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Runs every task on its own scoped thread (the first on the calling
/// thread) and returns the results in task order. Panics propagate to the
/// caller once every worker has unwound. The core fan-out primitive behind
/// every parallel path in this crate.
pub(crate) fn join_all<T, F>(tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(first());
        for handle in handles {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

/// Runs `f(seed)` for every seed in `seeds` across all cores and returns
/// the results **in seed order**.
///
/// `f` must be pure per seed (it may not rely on call order); it is called
/// exactly once per seed. Panics in `f` propagate: the sweep panics after
/// all workers unwind, so a failing property inside a sweep still fails
/// the enclosing test.
pub fn sweep_seeds<T, F>(seeds: Range<u64>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let jobs = seeds.end.saturating_sub(seeds.start);
    sweep_seeds_on(seeds, worker_count(jobs), f)
}

/// [`sweep_seeds`] with an explicit worker count (1 = sequential).
///
/// The bench harness uses this to measure scaling; everything else should
/// call [`sweep_seeds`].
pub fn sweep_seeds_on<T, F>(seeds: Range<u64>, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let start = seeds.start;
    let len = seeds.end.saturating_sub(seeds.start);
    if len == 0 {
        return Vec::new();
    }
    // The result vector must hold one entry per seed, so a range beyond
    // the address space cannot be swept anyway.
    let len_states = usize::try_from(len).expect("seed range exceeds the address space");
    let workers = workers.clamp(1, len_states);
    if workers == 1 {
        return seeds.map(f).collect();
    }

    // Contiguous chunks, one per worker: each worker returns its segment
    // of the result vector, and concatenating segments in chunk order *is*
    // seed order — no shared cursor, no mutex, no sort.
    let f = &f;
    let tasks: Vec<_> = chunk_ranges(len_states, workers, 1)
        .into_iter()
        .map(|range| {
            move || -> Vec<T> {
                range
                    .map(|offset| f(start + offset as u64))
                    .collect::<Vec<T>>()
            }
        })
        .collect();
    let mut results = Vec::with_capacity(len_states);
    for segment in join_all(tasks) {
        results.extend(segment);
    }
    debug_assert_eq!(results.len(), len_states);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_seed_order() {
        let out = sweep_seeds(10..210u64, |seed| seed * 3);
        assert_eq!(out.len(), 200);
        for (i, value) in out.iter().enumerate() {
            assert_eq!(*value, (10 + i as u64) * 3);
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let out: Vec<u64> = sweep_seeds(5..5u64, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn every_seed_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = sweep_seeds_on(0..1_000u64, 7, |seed| {
            calls.fetch_add(1, Ordering::Relaxed);
            seed
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1_000);
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let seq = sweep_seeds_on(0..257u64, 1, |s| s.wrapping_mul(0x9E3779B9));
        let par = sweep_seeds_on(0..257u64, 4, |s| s.wrapping_mul(0x9E3779B9));
        assert_eq!(seq, par);
    }

    #[test]
    fn available_workers_is_at_least_one() {
        assert!(available_workers() >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        sweep_seeds_on(0..64u64, 4, |seed| {
            if seed == 37 {
                panic!("boom at 37");
            }
            seed
        });
    }

    #[test]
    fn chunk_ranges_cover_exactly_once_and_align() {
        for (len, workers, align) in [
            (1usize, 1usize, 1usize),
            (100, 3, 1),
            (100, 7, 64),
            (1_000_000, 8, 64),
            (63, 8, 64),
            (64, 2, 64),
            (129, 2, 64),
        ] {
            let ranges = chunk_ranges(len, workers, align);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= workers);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(pair[1].start % align, 0);
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(chunk_ranges(0, 4, 64).is_empty());
    }

    #[test]
    fn join_all_preserves_task_order() {
        let tasks: Vec<_> = (0..9usize).map(|i| move || i * i).collect();
        assert_eq!(join_all(tasks), (0..9).map(|i| i * i).collect::<Vec<_>>());
        let empty: Vec<fn() -> usize> = Vec::new();
        assert!(join_all(empty).is_empty());
    }
}
