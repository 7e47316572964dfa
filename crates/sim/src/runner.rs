//! The scenario trait and the grid × replica runner.
//!
//! A [`Scenario`] is anything that can turn `(config, seed)` into an
//! outcome; a [`SimRunner`] fans a *grid* of configurations times a replica
//! count across workers. Determinism rests on two pillars:
//!
//! * **seed derivation** — every `(cell, replica)` pair gets its own seed
//!   via [`derive_seed`], a bijective SplitMix64-style mix, so replicas are
//!   statistically independent and no two replicas of a grid share a
//!   stream;
//! * **fixed merge structure** — outcomes are folded per cell through
//!   blocks of [`REPLICA_BLOCK`] replicas, and the block structure depends
//!   only on the replica count, never on the worker count. Sequential and
//!   parallel runs therefore apply *exactly the same sequence* of
//!   [`Merge::merge`] calls and produce bit-identical aggregates, even
//!   though floating-point merging is not associative.

use crate::stats::Merge;
use std::ops::Range;

/// A simulation workload: one seeded run of one configuration.
///
/// Implementations live next to the simulators they wrap (`bne-scrip`,
/// `bne-p2p`, `bne-byzantine`, `bne-machine`); the engine only needs the
/// ability to run one replica and merge outcomes.
pub trait Scenario {
    /// One grid cell's parameters.
    type Config;
    /// The (streaming) outcome of one replica; replicas of a cell are
    /// folded together with [`Merge::merge`].
    type Outcome: Merge;

    /// Runs one replica of `config` with the given derived seed.
    fn run(&self, config: &Self::Config, seed: u64) -> Self::Outcome;
}

/// Number of replicas folded into one intermediate accumulator before
/// accumulators are folded into the cell aggregate. It is a fixed
/// constant precisely so the merge tree — and therefore every
/// floating-point rounding — is identical no matter how many workers run
/// the sweep; the unit of parallel work is the single replica.
pub const REPLICA_BLOCK: usize = 16;

fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of replica `replica` in grid cell `cell`.
///
/// For a fixed `(base_seed, cell)` the map `replica → seed` is injective
/// (an odd-multiplier affine map followed by bijective finalizers), so no
/// two replicas of a cell can ever share an RNG stream.
pub fn derive_seed(base_seed: u64, cell: u64, replica: u64) -> u64 {
    let x = base_seed
        .wrapping_add(cell.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(replica.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    splitmix_finalize(splitmix_finalize(x) ^ 0x9E37_79B9_7F4A_7C15)
}

/// The aggregate of one grid cell after all its replicas have been folded.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult<O> {
    /// Index of the cell in the grid passed to the runner.
    pub cell: usize,
    /// Number of replicas folded into `outcome`.
    pub replicas: usize,
    /// The merged outcome.
    pub outcome: O,
}

/// Folds per-replica outcomes (in replica order) with the engine's canonical
/// block structure: left-fold within blocks of [`REPLICA_BLOCK`], then
/// left-fold the block accumulators. An engine run over the same outcomes is
/// bit-identical to this fold — benches use it as the legacy-vs-engine
/// equality gate. Returns `None` for an empty iterator.
pub fn canonical_fold<O: Merge>(outcomes: impl IntoIterator<Item = O>) -> Option<O> {
    let outcomes: Vec<O> = outcomes.into_iter().collect();
    let (replicas, mut cells) = (outcomes.len(), Vec::new());
    outcomes
        .into_iter()
        .for_each(cell_fold(replicas, &mut cells));
    cells.pop().map(|cell| cell.outcome)
}

/// The fold every execution path pushes outcomes through, in flat
/// (cell-major, replica-minor) order: each cell's `replicas` outcomes
/// left-fold within blocks of [`REPLICA_BLOCK`], the block accumulators
/// left-fold into the cell, and the cell joins `cells`. The merge
/// sequence is therefore identical by construction.
fn cell_fold<O: Merge>(replicas: usize, cells: &mut Vec<CellResult<O>>) -> impl FnMut(O) + '_ {
    let (mut pushed, mut block, mut cell) = (0, None, None);
    move |outcome| {
        merge_into(&mut block, outcome);
        pushed += 1;
        if pushed % REPLICA_BLOCK == 0 || pushed == replicas {
            merge_into(&mut cell, block.take().expect("an open block"));
        }
        if pushed == replicas {
            let outcome = cell.take().expect("a cell has at least one replica");
            cells.push(CellResult {
                cell: cells.len(),
                replicas,
                outcome,
            });
            pushed = 0;
        }
    }
}

fn merge_into<O: Merge>(acc: &mut Option<O>, value: O) {
    match acc.as_mut() {
        None => *acc = Some(value),
        Some(a) => a.merge(&value),
    }
}

/// Drives a [`Scenario`] over a parameter grid × replica count.
///
/// [`SimRunner::run`], [`SimRunner::run_parallel_with`] and
/// [`SimRunner::run_sequential`] produce **bit-identical** results.
#[derive(Debug, Clone, Copy)]
pub struct SimRunner {
    replicas: usize,
    base_seed: u64,
}

impl SimRunner {
    /// A runner executing `replicas` seeded replicas per grid cell.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` (a cell aggregate of zero replicas has no
    /// meaningful outcome).
    pub fn new(replicas: usize, base_seed: u64) -> Self {
        assert!(replicas > 0, "need at least one replica per grid cell");
        SimRunner {
            replicas,
            base_seed,
        }
    }

    /// Replicas per grid cell.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The base seed all per-replica seeds derive from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Runs replica `flat % replicas` of cell `flat / replicas`.
    fn run_replica<S: Scenario>(
        &self,
        scenario: &S,
        grid: &[S::Config],
        flat: usize,
    ) -> S::Outcome {
        let (cell, replica) = (flat / self.replicas, flat % self.replicas);
        scenario.run(
            &grid[cell],
            derive_seed(self.base_seed, cell as u64, replica as u64),
        )
    }

    /// Runs the whole grid on the calling thread.
    pub fn run_sequential<S: Scenario>(
        &self,
        scenario: &S,
        grid: &[S::Config],
    ) -> Vec<CellResult<S::Outcome>> {
        let mut cells = Vec::with_capacity(grid.len());
        (0..grid.len() * self.replicas)
            .map(|flat| self.run_replica(scenario, grid, flat))
            .for_each(cell_fold(self.replicas, &mut cells));
        cells
    }

    /// Runs the grid under the workspace's fan-out rule
    /// ([`bne_games::parallel::fan_out`]): the calling thread times the
    /// first replica and recruits helpers only when the rest of the grid
    /// is worth their spawn; every worker then claims single replicas in
    /// flat (cell-major) order, so uneven replicas and small grids
    /// balance. Outcomes fold in replica order through the fixed
    /// [`REPLICA_BLOCK`] structure, so the result is bit-identical to
    /// [`SimRunner::run_sequential`].
    pub fn run<S>(&self, scenario: &S, grid: &[S::Config]) -> Vec<CellResult<S::Outcome>>
    where
        S: Scenario + Sync,
        S::Config: Sync,
        S::Outcome: Send,
    {
        self.run_parallel_with(None, scenario, grid)
    }

    /// [`SimRunner::run`] on exactly `workers` threads, the calling
    /// thread among them, with no timing rule (the equality property
    /// tests force several counts on any machine); `None` applies the
    /// rule.
    pub fn run_parallel_with<S>(
        &self,
        workers: impl Into<Option<usize>>,
        scenario: &S,
        grid: &[S::Config],
    ) -> Vec<CellResult<S::Outcome>>
    where
        S: Scenario + Sync,
        S::Config: Sync,
        S::Outcome: Send,
    {
        let mut cells = Vec::with_capacity(grid.len());
        let run = |replicas: Range<usize>, emit: &mut dyn FnMut(S::Outcome)| {
            replicas.for_each(|flat| emit(self.run_replica(scenario, grid, flat)));
            true
        };
        let units = grid.len() * self.replicas;
        let fold = cell_fold(self.replicas, &mut cells);
        bne_games::parallel::fan_out(units, workers.into(), run, fold);
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Outcome that records every `(cell-config, seed)` pair it saw, in
    /// merge order — makes coverage and ordering directly observable.
    #[derive(Debug, Clone, PartialEq)]
    struct Trace(Vec<(u64, u64)>);

    impl Merge for Trace {
        fn merge(&mut self, other: &Self) {
            self.0.extend_from_slice(&other.0);
        }
    }

    struct TraceScenario;

    impl Scenario for TraceScenario {
        type Config = u64;
        type Outcome = Trace;
        fn run(&self, config: &u64, seed: u64) -> Trace {
            Trace(vec![(*config, seed)])
        }
    }

    #[test]
    fn sequential_run_covers_every_cell_and_replica_in_order() {
        let runner = SimRunner::new(37, 99); // not a multiple of REPLICA_BLOCK
        let grid = [10u64, 20, 30];
        let results = runner.run_sequential(&TraceScenario, &grid);
        assert_eq!(results.len(), 3);
        for (cell, result) in results.iter().enumerate() {
            assert_eq!(result.cell, cell);
            assert_eq!(result.replicas, 37);
            let expected: Vec<(u64, u64)> = (0..37)
                .map(|r| (grid[cell], derive_seed(99, cell as u64, r)))
                .collect();
            assert_eq!(result.outcome.0, expected, "cell {cell}");
        }
    }

    #[test]
    fn canonical_fold_matches_engine_run() {
        let runner = SimRunner::new(37, 99);
        let grid = [7u64];
        let engine = runner.run_sequential(&TraceScenario, &grid);
        let legacy: Vec<Trace> = (0..37)
            .map(|r| TraceScenario.run(&7, derive_seed(99, 0, r)))
            .collect();
        let folded = canonical_fold(legacy).expect("non-empty");
        assert_eq!(engine[0].outcome, folded);
    }

    #[test]
    fn empty_grid_yields_no_results() {
        let runner = SimRunner::new(4, 1);
        assert!(runner.run_sequential(&TraceScenario, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_is_rejected() {
        let _ = SimRunner::new(0, 1);
    }

    #[test]
    fn derived_seeds_never_collide_within_a_grid() {
        let mut seen = std::collections::HashSet::new();
        for cell in 0..64u64 {
            for replica in 0..256u64 {
                assert!(
                    seen.insert(derive_seed(0xDEAD_BEEF, cell, replica)),
                    "collision at cell {cell}, replica {replica}"
                );
            }
        }
    }

    #[test]
    fn derived_seeds_differ_across_base_seeds() {
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 1, 0));
    }

    /// [`TraceScenario`] whose replicas take 0–600 µs, by seed, and note
    /// the threads that ran them; config 3 is invalid.
    #[derive(Default)]
    struct SleepyScenario {
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl Scenario for SleepyScenario {
        type Config = u64;
        type Outcome = Trace;
        fn run(&self, config: &u64, seed: u64) -> Trace {
            assert!(*config != 3, "cell 3 has an invalid config");
            std::thread::sleep(std::time::Duration::from_micros(seed % 4 * 200));
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            TraceScenario.run(config, seed)
        }
    }

    #[test]
    fn uneven_replicas_fold_like_the_sequential_run_at_any_worker_count() {
        // no replica, one, fewer than the workers, and an uneven grid
        for (replicas, grid) in [(1, vec![]), (1, vec![7]), (2, vec![5]), (37, vec![0, 1, 2])] {
            let runner = SimRunner::new(replicas, 5);
            let sequential = runner.run_sequential(&TraceScenario, &grid);
            for workers in [1, 2, 3, 8] {
                let parallel = runner.run_parallel_with(workers, &SleepyScenario::default(), &grid);
                assert_eq!(
                    sequential, parallel,
                    "{replicas} x {grid:?}, {workers} workers"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell 3 has an invalid config")]
    fn a_panicking_replica_surfaces_its_own_message() {
        let runner = SimRunner::new(4, 1);
        runner.run_parallel_with(2, &SleepyScenario::default(), &[0, 1, 2, 3]);
    }

    #[test]
    fn a_few_cells_of_slow_replicas_spread_over_every_thread() {
        // the e15 shape: 5 cells of 8 replicas, each about 1 ms
        struct Slow(SleepyScenario);
        impl Scenario for Slow {
            type Config = u64;
            type Outcome = Trace;
            fn run(&self, config: &u64, seed: u64) -> Trace {
                std::thread::sleep(std::time::Duration::from_millis(1));
                self.0.run(config, seed)
            }
        }
        let slow = Slow(SleepyScenario::default());
        let runner = SimRunner::new(8, 15);
        let grid = [10, 11, 12, 14, 15];
        let results = runner.run(&slow, &grid);
        assert_eq!(results, runner.run_sequential(&TraceScenario, &grid));
        let threads = slow.0.threads.into_inner().unwrap().len();
        assert!(
            threads >= 2.min(bne_games::parallel::num_threads()),
            "{threads} thread(s)"
        );
    }

    #[test]
    fn parallel_run_is_bit_identical_for_any_worker_count() {
        let runner = SimRunner::new(37, 123);
        let grid: Vec<u64> = (0..5).collect();
        let sequential = runner.run_sequential(&TraceScenario, &grid);
        for workers in [1, 2, 3, 8, 64] {
            let parallel = runner.run_parallel_with(workers, &TraceScenario, &grid);
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
        assert_eq!(sequential, runner.run(&TraceScenario, &grid));
    }
}
