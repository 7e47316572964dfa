//! Chunked multi-threaded search over the flat profile space (the
//! `parallel` feature).
//!
//! The build environment is offline, so instead of rayon this module uses
//! `std::thread::scope` directly: the flat index space `0..total` is split
//! into one contiguous chunk per worker, each worker runs an
//! allocation-free cursor over its chunk, and results are combined in chunk
//! order. Two primitives cover every parallel search in the workspace:
//!
//! * [`collect_chunked`] — map each chunk to a `Vec` of hits and
//!   concatenate in chunk order, so the output is **bit-identical** to the
//!   sequential sweep. The calling thread is worker 0: it maps the first
//!   chunk itself and spawns threads only for the others, so `w` workers
//!   cost `w − 1` spawns and no thread idles waiting to join;
//! * [`find_first`] — deterministic first-witness search: the result is
//!   always the hit with the **lowest flat index**, independent of thread
//!   timing, because each worker reports its chunk-local minimum and
//!   workers abandon chunks that can no longer contain the global minimum.
//!
//! Worker count defaults to the machine's available parallelism and can be
//! pinned with the `BNE_THREADS` environment variable (useful for
//! reproducible benchmarking).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads used by the parallel searches: `BNE_THREADS`
/// if set to a positive integer, otherwise
/// `std::thread::available_parallelism`. Cached after the first call —
/// `available_parallelism` re-reads cgroup limits on every invocation,
/// which would dwarf a small search.
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("BNE_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Minimum number of flat indices per worker before a second thread is
/// worth its spawn cost *for cheap per-index work* (a pure-Nash check is
/// tens of nanoseconds); spaces smaller than `2 * MIN_CHUNK` run inline.
/// Searches whose per-index cost is exponential (the coalition sweeps in
/// `bne-robust`) bypass this heuristic via [`costly_workers`].
const MIN_CHUNK: usize = 1024;

/// Effective worker count for a space of `total` indices of **cheap**
/// per-index work (a per-profile check of tens of nanoseconds): capped
/// both by [`num_threads`] and by the amount of work available.
pub fn cheap_workers(total: usize) -> usize {
    num_threads().min(total / MIN_CHUNK).max(1)
}

/// Worker count for searches whose per-index cost dwarfs thread spawn
/// (coalition/deviation sweeps): every available thread, as long as each
/// gets at least a handful of indices.
pub fn costly_workers(total: usize) -> usize {
    num_threads().min(total / 4).max(1)
}

/// Splits `0..total` into at most `workers` contiguous, near-equal chunks
/// (never empty; fewer chunks when `total` is small).
pub fn chunks(total: usize, workers: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(total);
    let base = total / workers;
    let extra = total % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `map` over each chunk of `0..total` on its own worker (the
/// calling thread maps the first chunk) and concatenates the results **in
/// chunk order**, which makes the output identical to running
/// `map(0..total)` sequentially whenever `map` visits indices in ascending
/// order.
pub fn collect_chunked<T, F>(total: usize, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    collect_chunked_with(total, cheap_workers(total), map)
}

/// [`collect_chunked`] with an explicit worker count (used by the tests to
/// exercise the multi-threaded path on any machine, and by callers that
/// know their per-index cost is large enough to ignore the work heuristic).
pub fn collect_chunked_with<T, F>(total: usize, workers: usize, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let mut chunk_list = chunks(total, workers).into_iter();
    let Some(first) = chunk_list.next() else {
        return Vec::new();
    };
    if chunk_list.len() == 0 {
        // A single chunk runs inline: no scope, no re-collect.
        return map(first);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunk_list.map(|range| scope.spawn(|| map(range))).collect();
        // The caller is worker 0: it runs the first chunk while the
        // spawned workers run the rest.
        let mut results = map(first);
        for handle in handles {
            results.extend(handle.join().expect("parallel search worker panicked"));
        }
        results
    })
}

/// Deterministic parallel first-witness search: returns the lowest flat
/// index in `0..total` satisfying `pred`, or `None`.
///
/// `pred` receives the flat index and a *cut-off* — the lowest witness any
/// worker has found so far. Chunks whose start lies above the cut-off are
/// abandoned (they cannot contain the global minimum), which is what makes
/// the parallel search faster than "scan everything" while keeping the
/// returned witness identical to the sequential one.
pub fn find_first<F>(total: usize, pred: F) -> Option<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    find_first_with(total, cheap_workers(total), pred)
}

/// [`find_first`] with an explicit worker count (see
/// [`collect_chunked_with`]).
pub fn find_first_with<F>(total: usize, workers: usize, pred: F) -> Option<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    let chunk_list = chunks(total, workers);
    if chunk_list.len() <= 1 {
        return chunk_list.into_iter().flatten().find(|&flat| pred(flat));
    }
    let best = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        for range in chunk_list {
            let best = &best;
            let pred = &pred;
            scope.spawn(move || {
                if range.start >= best.load(Ordering::Relaxed) {
                    return;
                }
                for flat in range {
                    // A lower witness elsewhere makes the rest of this
                    // chunk irrelevant.
                    if flat >= best.load(Ordering::Relaxed) {
                        return;
                    }
                    if pred(flat) {
                        best.fetch_min(flat, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });
    match best.load(Ordering::Relaxed) {
        usize::MAX => None,
        flat => Some(flat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_space_exactly() {
        for total in [0usize, 1, 5, 16, 97] {
            for workers in [1usize, 2, 3, 8, 200] {
                let cs = chunks(total, workers);
                let mut covered = 0;
                let mut expected_start = 0;
                for c in &cs {
                    assert_eq!(c.start, expected_start);
                    assert!(!c.is_empty());
                    covered += c.len();
                    expected_start = c.end;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn collect_chunked_matches_sequential_order() {
        let hits = collect_chunked(1000, |range| {
            range.filter(|i| i % 7 == 0).collect::<Vec<_>>()
        });
        let expected: Vec<usize> = (0..1000).filter(|i| i % 7 == 0).collect();
        assert_eq!(hits, expected);
        // force real threads regardless of the machine / work heuristic
        let threaded = collect_chunked_with(1000, 7, |range| {
            range.filter(|i| i % 7 == 0).collect::<Vec<_>>()
        });
        assert_eq!(threaded, expected);
    }

    #[test]
    fn find_first_returns_lowest_witness() {
        assert_eq!(find_first(10_000, |i| i % 997 == 41), Some(41));
        assert_eq!(find_first(10_000, |_| false), None);
        assert_eq!(find_first(0, |_| true), None);
        assert_eq!(find_first(1, |i| i == 0), Some(0));
        // multi-threaded path: a later chunk contains an earlier-looking
        // witness only in flat order; the lowest index must still win
        for workers in [2, 3, 8] {
            assert_eq!(
                find_first_with(10_000, workers, |i| i % 997 == 41),
                Some(41)
            );
            assert_eq!(
                find_first_with(10_000, workers, |i| i >= 4_999),
                Some(4_999)
            );
            assert_eq!(find_first_with(10_000, workers, |_| false), None);
        }
    }
}
