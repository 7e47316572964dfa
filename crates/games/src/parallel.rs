//! Multi-threaded sweeps under one fan-out rule.
//!
//! The build is offline, so this module uses `std::thread::scope` instead
//! of rayon. Every parallel path in the workspace — the profile sweeps, the
//! scenario engine's replicas and the sampled oracle's payoff queries —
//! numbers its work as *units* and runs them through [`fan_out`]:
//!
//! * the calling thread is worker 0: it runs unit 0 inline and times it;
//! * it spawns helpers (at most [`num_threads`] − 1) only when that time,
//!   multiplied by the number of remaining units, exceeds
//!   [`FAN_OUT_MIN_WORK`], and otherwise runs the rest inline in one call;
//! * workers claim units in increasing order from one atomic counter (one
//!   at a time, or several when the first unit was much cheaper than a
//!   claim), so uneven units balance themselves;
//! * outputs fold strictly in unit order as they arrive, with at most a few
//!   dozen claims per worker held back, so every result is
//!   **bit-identical** to the sequential sweep and memory stays bounded.
//!
//! A forced worker count (`Some(w)`) skips the timing rule; the equality
//! tests use it to run real threads on any machine. A panicking unit
//! re-raises its own payload. [`collect_ranges`] and [`find_first`] cut a
//! flat index space into contiguous ranges, so a sweep's allocation-free
//! cursor runs once per range. `BNE_THREADS` pins the thread count; the
//! timing rule and that variable are the only thread controls.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Number of worker threads used by the parallel searches: `BNE_THREADS`
/// if set to a positive integer (surrounding whitespace allowed);
/// `std::thread::available_parallelism` if it is unset or empty. Cached
/// after the first call — `available_parallelism` re-reads cgroup limits
/// on every invocation, which would dwarf a small search.
///
/// # Panics
///
/// If `BNE_THREADS` is set to anything but a positive integer.
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let value = std::env::var_os("BNE_THREADS");
        let value = value.as_ref().map(|v| v.to_string_lossy());
        thread_count(value.as_deref(), || {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    })
}

/// The thread count that `BNE_THREADS` set to `value` asks for (`None`:
/// unset). Unset or empty means `available()`; a positive integer, with
/// surrounding whitespace allowed, is the count.
///
/// # Panics
///
/// On any other value (`0`, `-1`, `two`, a blank), naming the variable
/// and the value: a mistyped setting must not silently run on every core.
fn thread_count(value: Option<&str>, available: impl FnOnce() -> usize) -> usize {
    match value {
        None | Some("") => available(),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(threads) if threads > 0 => threads,
            _ => panic!("BNE_THREADS must be a positive integer, got {raw:?}"),
        },
    }
}

/// The estimated remaining work from which [`fan_out`] spawns helpers:
/// several scoped spawn+joins, which take 17–24 µs (p50) on a 2-vCPU
/// x86-64 Xeon host and took about 53 µs on an earlier one. A small dense
/// game's sweep stays inline; a replica grid or economy audit fans out.
pub const FAN_OUT_MIN_WORK: Duration = Duration::from_micros(100);

/// Index ranges per worker in [`collect_ranges`] and [`find_first`]:
/// enough to balance uneven indices, few enough for cursors to amortize.
const RANGES_PER_WORKER: usize = 8;

/// Claims per worker that may wait on an earlier one before claims hold
/// back: the memory bound of the in-order fold.
const UNFOLDED_PER_WORKER: usize = 32;

/// The least work one claim covers in an automatic fan-out. A contended
/// claim costs about half a microsecond on the host above, so claims
/// stay a few percent of the work; units slower than this are claimed
/// one at a time.
const MIN_CLAIM: Duration = Duration::from_micros(10);

/// Helpers to spawn after the first unit took `first`, with `remaining`
/// units left and `threads` threads: every other thread (at most one per
/// remaining unit) when the estimated rest exceeds [`FAN_OUT_MIN_WORK`].
fn helpers(first: Duration, remaining: usize, threads: usize) -> usize {
    let pays = first.as_nanos().saturating_mul(remaining as u128) > FAN_OUT_MIN_WORK.as_nanos();
    usize::from(pays) * threads.saturating_sub(1).min(remaining)
}

/// Runs units `0..units` under the fan-out rule and folds their outputs in
/// unit order. `run(range, emit)` runs the units of `range` in order,
/// emits their outputs in order (one per unit, or fewer if folding them
/// equals folding each unit's output, as a concatenation does), and
/// returns `false` when no later unit is needed: then no helper spawns,
/// or that worker claims no more. `workers`: `None` applies the timing
/// rule, and sizes each claim to `MIN_CLAIM` of work by the first
/// unit's time; `Some(w)` runs exactly `w` workers (at most one per unit),
/// the calling thread among them, claiming one unit at a time.
///
/// # Panics
///
/// Re-raises the payload of the lowest unit that panicked.
pub fn fan_out<T, R, F>(units: usize, workers: Option<usize>, run: R, mut fold: F)
where
    T: Send,
    R: Fn(Range<usize>, &mut dyn FnMut(T)) -> bool + Sync,
    F: FnMut(T) + Send,
{
    let start = Instant::now();
    if units == 0 || !run(0..1, &mut fold) || units == 1 {
        return;
    }
    let (helpers, grain) = match workers {
        Some(workers) => (workers.saturating_sub(1).min(units - 1), 1),
        None => {
            let first = start.elapsed();
            let grain = MIN_CLAIM.as_nanos() / first.as_nanos().max(1);
            let helpers = helpers(first, units - 1, num_threads());
            (helpers, (grain as usize).clamp(1, units))
        }
    };
    if helpers == 0 {
        run(1..units, &mut fold);
    } else {
        spread(units, helpers, grain, &run, fold);
    }
}

/// Runs units `1..units` on the calling thread and `helpers` spawned ones,
/// claiming `grain` units at a time, and folds their outputs in unit
/// order (unit 0 already ran).
fn spread<T, F>(
    units: usize,
    helpers: usize,
    grain: usize,
    run: &(impl Fn(Range<usize>, &mut dyn FnMut(T)) -> bool + Sync),
    fold: F,
) where
    T: Send,
    F: FnMut(T) + Send,
{
    let shared = Shared {
        units,
        grain,
        window: UNFOLDED_PER_WORKER * (helpers + 1),
        claimed: AtomicUsize::new(0),
        folded: AtomicUsize::new(0),
        order: Mutex::new(Order {
            fold,
            next: 0,
            done: VecDeque::new(),
            panic: None,
        }),
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(|| shared.work(run));
        }
        shared.work(run);
    });
    let panicked = shared.lock().panic.take();
    if let Some((_, payload)) = panicked {
        panic::resume_unwind(payload);
    }
}

/// What the workers of one [`fan_out`] share. Units after the first are
/// claimed `grain` at a time: claim `c` covers units from
/// `1 + c * grain`. Both counters publish no other data (outputs travel
/// under the lock), hence `Relaxed`.
struct Shared<T, F> {
    units: usize,
    grain: usize,
    /// How far claims may run ahead of the fold.
    window: usize,
    claimed: AtomicUsize,
    /// A copy of `Order::next` for claims to read without the lock.
    folded: AtomicUsize,
    order: Mutex<Order<T, F>>,
}

/// The in-order fold, by claim.
struct Order<T, F> {
    fold: F,
    /// The lowest claim not folded yet.
    next: usize,
    /// `done[i]` holds the outputs of claim `next + i` once it ran.
    done: VecDeque<Option<Vec<T>>>,
    /// The lowest panicking claim and its payload; nothing folds after
    /// it.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl<T, F: FnMut(T)> Order<T, F> {
    fn record(&mut self, claim: usize, payload: Box<dyn Any + Send>) {
        if self.panic.as_ref().is_none_or(|p| claim < p.0) {
            self.panic = Some((claim, payload));
        }
    }
}

impl<T, F: FnMut(T)> Shared<T, F> {
    fn lock(&self) -> MutexGuard<'_, Order<T, F>> {
        // every panic is caught before it could poison the lock
        self.order.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and runs units until none is left, or a claim needs no
    /// later unit or panicked. Every claim is finished, so the fold
    /// always advances past it.
    fn work(&self, run: &(impl Fn(Range<usize>, &mut dyn FnMut(T)) -> bool + ?Sized)) {
        loop {
            let claim = self.claimed.fetch_add(1, Relaxed);
            let first = 1 + claim.saturating_mul(self.grain);
            if first >= self.units {
                return;
            }
            // Only a claim slower than a window of others holds one
            // back, so a short poll costs less than a wake-up per fold.
            while claim >= self.folded.load(Relaxed) + self.window {
                std::thread::sleep(Duration::from_micros(50));
            }
            let mut outs = Vec::new();
            let units = first..first.saturating_add(self.grain).min(self.units);
            let ran = panic::catch_unwind(AssertUnwindSafe(|| run(units, &mut |t| outs.push(t))));
            let more = ran.unwrap_or_else(|payload| {
                self.lock().record(claim, payload);
                false
            });
            self.finish(claim, outs);
            if !more {
                return;
            }
        }
    }

    /// Records the outputs of `claim` and folds every claim now next in
    /// line.
    fn finish(&self, claim: usize, outs: Vec<T>) {
        let mut guard = self.lock();
        let order = &mut *guard;
        let slot = claim - order.next;
        if order.done.len() <= slot {
            order.done.resize_with(slot + 1, || None);
        }
        order.done[slot] = Some(outs);
        while let Some(outs) = order.done.front_mut().and_then(Option::take) {
            order.done.pop_front();
            if order.panic.is_none() {
                let fold = &mut order.fold;
                let folded =
                    panic::catch_unwind(AssertUnwindSafe(|| outs.into_iter().for_each(fold)));
                if let Err(payload) = folded {
                    order.record(order.next, payload);
                }
            }
            order.next += 1;
        }
        self.folded.store(order.next, Relaxed);
    }
}

/// Cuts `0..total` into equal ranges (the last may be shorter), about
/// [`RANGES_PER_WORKER`] per worker: their count, and the indices a run of
/// them covers.
fn ranges(total: usize, workers: Option<usize>) -> (usize, impl Fn(Range<usize>) -> Range<usize>) {
    let per = RANGES_PER_WORKER * workers.unwrap_or_else(num_threads).max(1);
    let len = total.div_ceil(per).max(1);
    (total.div_ceil(len), move |r: Range<usize>| {
        r.start * len..(r.end * len).min(total)
    })
}

/// Maps contiguous ranges of `0..total` through `map` and concatenates the
/// results in index order: identical to `map(0..total)` whenever `map`
/// visits its indices in ascending order. `workers` as in [`fan_out`].
pub fn collect_ranges<T, F>(total: usize, workers: Option<usize>, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let (count, indices) = ranges(total, workers);
    let mut out = Vec::new();
    let run = |ranges, emit: &mut dyn FnMut(Vec<T>)| {
        emit(map(indices(ranges)));
        true
    };
    fan_out(count, workers, run, |hits| out.extend(hits));
    out
}

/// The lowest index in `0..total` satisfying `pred`, whatever the thread
/// timing: ranges are claimed in increasing order, and a worker stops once
/// its next index lies above the lowest witness found so far. `workers` as
/// in [`fan_out`].
pub fn find_first<F>(total: usize, workers: Option<usize>, pred: F) -> Option<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    let (count, indices) = ranges(total, workers);
    let best = AtomicUsize::new(usize::MAX);
    let run = |ranges, _: &mut dyn FnMut(())| {
        for index in indices(ranges) {
            if index >= best.load(Relaxed) || pred(index) {
                best.fetch_min(index, Relaxed);
                return false;
            }
        }
        true
    };
    fan_out(count, workers, run, |()| {});
    Some(best.into_inner()).filter(|&index| index < usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    const MICRO: Duration = Duration::from_micros(1);

    #[test]
    fn thread_count_reads_unset_empty_and_positive_values() {
        let cores = || 6;
        assert_eq!(thread_count(None, cores), 6);
        assert_eq!(thread_count(Some(""), cores), 6);
        assert_eq!(thread_count(Some("1"), cores), 1);
        assert_eq!(thread_count(Some(" 12\n"), cores), 12);
    }

    #[test]
    fn thread_count_rejects_every_other_value() {
        for value in ["0", "-1", "two", " ", "2.5", "3 4"] {
            let read = panic::catch_unwind(|| thread_count(Some(value), || 6));
            let payload = read.expect_err(value);
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("BNE_THREADS"), "{message}");
            assert!(message.contains(&format!("{value:?}")), "{message}");
        }
    }

    #[test]
    fn helpers_follow_the_timing_rule_at_its_edges() {
        let per_unit = FAN_OUT_MIN_WORK / 10;
        // no remaining unit, or no second thread: nothing to spawn
        assert_eq!(helpers(Duration::from_secs(1), 0, 8), 0);
        assert_eq!(helpers(Duration::from_secs(1), 100, 1), 0);
        // ten units left: just below the threshold runs inline, just
        // above it spawns every other thread
        assert_eq!(helpers(per_unit - MICRO, 10, 4), 0);
        assert_eq!(helpers(per_unit, 10, 4), 0);
        assert_eq!(helpers(per_unit + MICRO, 10, 4), 3);
        // never more helpers than remaining units
        assert_eq!(helpers(per_unit + MICRO, 10, 64), 10);
    }

    #[test]
    fn ranges_cover_the_space_exactly() {
        for total in [0usize, 1, 5, 16, 97] {
            for workers in [1usize, 2, 3, 8, 200] {
                let (count, indices) = ranges(total, Some(workers));
                assert!(count <= total);
                let mut expected_start = 0;
                for r in 0..count {
                    let range = indices(r..r + 1);
                    assert_eq!(range.start, expected_start);
                    assert!(!range.is_empty());
                    expected_start = range.end;
                }
                assert_eq!(expected_start, total);
                assert_eq!(indices(0..count), 0..total);
            }
        }
    }

    /// Unit `u` sleeps longer the lower it is, and its output names it.
    fn uneven(units: usize, workers: usize) -> Vec<usize> {
        let mut out = Vec::new();
        fan_out(
            units,
            Some(workers),
            |range, emit| {
                for unit in range {
                    std::thread::sleep(MICRO * ((units - unit) % 4) as u32 * 200);
                    emit(unit);
                }
                true
            },
            |unit| out.push(unit),
        );
        out
    }

    #[test]
    fn uneven_units_fold_in_unit_order_at_any_worker_count() {
        for units in [0usize, 1, 2, 5, 40] {
            for workers in [1usize, 2, 3, 8] {
                let expected: Vec<usize> = (0..units).collect();
                assert_eq!(
                    uneven(units, workers),
                    expected,
                    "{units} units, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn claims_of_several_units_fold_in_unit_order() {
        // a claim emits one output per unit, or one concatenated output
        for grain in [2, 3, 7, 64] {
            let mut out = Vec::new();
            let run = |range: Range<usize>, emit: &mut dyn FnMut(usize)| {
                range.for_each(&mut *emit);
                true
            };
            spread(100, 2, grain, &run, |unit| out.push(unit));
            assert_eq!(out, (1..100).collect::<Vec<_>>(), "grain {grain}");
            let mut out = Vec::new();
            let run = |range: Range<usize>, emit: &mut dyn FnMut(Vec<usize>)| {
                emit(range.collect());
                true
            };
            spread(100, 2, grain, &run, |units| out.extend(units));
            assert_eq!(out, (1..100).collect::<Vec<_>>(), "grain {grain}");
        }
    }

    #[test]
    fn a_slow_unit_holds_claims_at_the_fold_window() {
        // Unit 1 stalls the fold: units 2..=window may run (unit 0
        // already folded), and no later claim may until unit 1 is done.
        let (workers, ran) = (3, AtomicUsize::new(0));
        let window = UNFOLDED_PER_WORKER * workers;
        let mut out = Vec::new();
        let run = |range: Range<usize>, emit: &mut dyn FnMut(usize)| {
            for unit in range {
                if unit == 1 {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while ran.load(Relaxed) < window && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    assert_eq!(ran.load(Relaxed), window, "claims ran past the window");
                } else {
                    ran.fetch_add(1, Relaxed);
                }
                emit(unit);
            }
            true
        };
        fan_out(2 * window, Some(workers), run, |unit| out.push(unit));
        assert_eq!(out, (0..2 * window).collect::<Vec<_>>());
    }

    #[test]
    fn forced_workers_run_on_distinct_threads() {
        // units 1 and 2 wait for each other, so two threads must run them
        let threads = Mutex::new(HashSet::<ThreadId>::new());
        let run = |range: Range<usize>, emit: &mut dyn FnMut(())| {
            for unit in range {
                threads.lock().unwrap().insert(std::thread::current().id());
                let deadline = Instant::now() + Duration::from_secs(5);
                while unit > 0 && threads.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                emit(());
            }
            true
        };
        fan_out(3, Some(2), run, |()| {});
        assert_eq!(threads.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn collect_ranges_matches_sequential_order() {
        let sevens = |range: Range<usize>| range.filter(|i| i % 7 == 0).collect::<Vec<_>>();
        let expected: Vec<usize> = (0..1000).filter(|i| i % 7 == 0).collect();
        assert_eq!(collect_ranges(1000, None, sevens), expected);
        for workers in [1, 2, 3, 7, 8] {
            assert_eq!(collect_ranges(1000, Some(workers), sevens), expected);
        }
        assert!(collect_ranges(0, Some(2), sevens).is_empty());
    }

    #[test]
    fn find_first_returns_lowest_witness() {
        assert_eq!(find_first(10_000, None, |i| i % 997 == 41), Some(41));
        assert_eq!(find_first(10_000, None, |_| false), None);
        assert_eq!(find_first(0, None, |_| true), None);
        assert_eq!(find_first(1, None, |i| i == 0), Some(0));
        // a later range finds its witness first; the lowest index still
        // wins
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                find_first(10_000, Some(workers), |i| i % 997 == 41),
                Some(41)
            );
            assert_eq!(
                find_first(10_000, Some(workers), |i| i >= 4_999),
                Some(4_999)
            );
            assert_eq!(
                find_first(10_000, Some(workers), |i| {
                    if i == 1_000 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    i == 1_000 || i == 9_000
                }),
                Some(1_000)
            );
            assert_eq!(find_first(10_000, Some(workers), |_| false), None);
        }
    }

    #[test]
    #[should_panic(expected = "index 90 is invalid")]
    fn a_panicking_witness_search_surfaces_its_own_message() {
        find_first(100, Some(2), |i| {
            assert!(i != 90, "index 90 is invalid");
            false
        });
    }

    #[test]
    #[should_panic(expected = "unit 37 fails")]
    fn the_lowest_panicking_unit_wins() {
        fan_out(
            64,
            Some(3),
            |range, emit| {
                for unit in range {
                    assert!(unit < 37, "unit {unit} fails");
                    emit(unit);
                }
                true
            },
            |_| {},
        );
    }
}
