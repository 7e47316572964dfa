//! Cross-crate tests of the `bne-sim` scenario engine: seed-derivation
//! collision freedom, sequential/parallel bit-identity under forced worker
//! counts, and equivalence between the scenario ports and the simulator
//! entry points they wrap.

use bne_core::p2p::scenario::{sharing_cost_grid, P2pScenario, P2pStats};
use bne_core::p2p::P2pConfig;
use bne_core::scrip::{economy_grid, Economy, EconomyScenario, EconomyStats};
use bne_core::sim::{canonical_fold, derive_seed, Merge, Scenario, SimRunner, StreamingStats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-replica seeds never collide within a grid, for arbitrary base
    /// seeds and grid shapes.
    #[test]
    fn seed_derivation_never_collides_within_a_grid(
        base_seed in 0u64..u64::MAX,
        cells in 1u64..40,
        replicas in 1u64..200,
    ) {
        let mut seen = std::collections::HashSet::new();
        for cell in 0..cells {
            for replica in 0..replicas {
                prop_assert!(
                    seen.insert(derive_seed(base_seed, cell, replica)),
                    "seed collision at cell {}, replica {}", cell, replica
                );
            }
        }
    }

    /// The canonical fold of singleton statistics reproduces the exact
    /// count/min/max and a numerically close mean for arbitrary samples.
    #[test]
    fn canonical_fold_aggregates_are_sound(
        raw in prop::collection::vec(-1_000_000i32..1_000_000, 1..100),
    ) {
        // the offline proptest stub only samples integer ranges; scale to
        // non-integral floats
        let samples: Vec<f64> = raw.iter().map(|&x| x as f64 / 3.0).collect();
        let folded = canonical_fold(samples.iter().map(|&x| StreamingStats::of(x)))
            .expect("non-empty");
        prop_assert_eq!(folded.count(), samples.len() as u64);
        let naive_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((folded.mean() - naive_mean).abs() < 1e-6);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(folded.min(), min);
        prop_assert_eq!(folded.max(), max);
    }
}

/// A cheap synthetic scenario whose outcome exposes the merged seed stream,
/// so aggregation order and replica coverage are directly observable.
#[derive(Debug, Clone, PartialEq)]
struct SeedTrace(Vec<u64>);

impl Merge for SeedTrace {
    fn merge(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
    }
}

struct SeedScenario;

impl Scenario for SeedScenario {
    type Config = u64;
    type Outcome = SeedTrace;
    fn run(&self, config: &u64, seed: u64) -> SeedTrace {
        SeedTrace(vec![seed ^ config])
    }
}

#[test]
fn every_cell_sees_its_own_replica_seeds_in_order() {
    let runner = SimRunner::new(23, 9);
    let grid = [1u64, 2, 3, 4];
    for result in runner.run_sequential(&SeedScenario, &grid) {
        let expected: Vec<u64> = (0..23)
            .map(|r| derive_seed(9, result.cell as u64, r) ^ grid[result.cell])
            .collect();
        assert_eq!(result.outcome.0, expected);
    }
}

#[test]
fn scrip_scenario_agrees_with_direct_runs() {
    let grid = economy_grid(12, 5, &[2, 4], &[0.0, 0.05], &[0.0, 0.25], 600);
    let runner = SimRunner::new(9, 31);
    let engine = runner.run_sequential(&EconomyScenario, &grid);
    for (cell, config) in grid.iter().enumerate() {
        let mut economy = Economy::new(config);
        let direct = canonical_fold(
            (0..9).map(|r| EconomyStats::of_outcome(&economy.run(derive_seed(31, cell as u64, r)))),
        )
        .expect("non-empty");
        assert_eq!(engine[cell].outcome, direct);
    }
}

#[test]
fn p2p_scenario_agrees_with_legacy_simulate() {
    let base = P2pConfig {
        peers: 60,
        queries: 300,
        ..P2pConfig::default()
    };
    let grid = sharing_cost_grid(&base, &[0.8, 1.6]);
    let runner = SimRunner::new(7, 47);
    let engine = runner.run_sequential(&P2pScenario, &grid);
    for (cell, config) in grid.iter().enumerate() {
        let legacy = canonical_fold((0..7).map(|r| {
            P2pStats::of_outcome(&bne_core::p2p::simulate(
                config,
                derive_seed(47, cell as u64, r),
            ))
        }))
        .expect("non-empty");
        assert_eq!(engine[cell].outcome, legacy);
    }
}

mod parallel {
    use super::*;
    use bne_core::byzantine::adversary::FaultyBehavior;
    use bne_core::byzantine::scenario::{phase_king_grid, PhaseKingScenario};
    use bne_core::machine::scenario::{rounds_grid, TournamentScenario};

    /// Forced worker counts exercise real threads on any machine, as in
    /// the profile-engine equality tests of PR 1.
    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 7];

    #[test]
    fn synthetic_parallel_aggregation_is_bit_identical() {
        let runner = SimRunner::new(23, 9);
        let grid: Vec<u64> = (0..6).collect();
        let sequential = runner.run_sequential(&SeedScenario, &grid);
        for workers in WORKER_COUNTS {
            assert_eq!(
                sequential,
                runner.run_parallel_with(workers, &SeedScenario, &grid),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn scrip_parallel_aggregation_is_bit_identical() {
        let grid = economy_grid(12, 5, &[2, 4, 7], &[0.0, 0.05], &[0.0, 0.25], 400);
        let runner = SimRunner::new(11, 5);
        let sequential = runner.run_sequential(&EconomyScenario, &grid);
        for workers in WORKER_COUNTS {
            assert_eq!(
                sequential,
                runner.run_parallel_with(workers, &EconomyScenario, &grid),
                "workers = {workers}"
            );
        }
        assert_eq!(sequential, runner.run(&EconomyScenario, &grid));
    }

    #[test]
    fn phase_king_parallel_aggregation_is_bit_identical() {
        let grid = phase_king_grid(
            &[(6, 1), (9, 2)],
            &[
                FaultyBehavior::Equivocate { seed: 8 },
                FaultyBehavior::RandomNoise { seed: 3 },
            ],
            true,
        );
        let runner = SimRunner::new(10, 6);
        let sequential = runner.run_sequential(&PhaseKingScenario, &grid);
        for workers in WORKER_COUNTS {
            assert_eq!(
                sequential,
                runner.run_parallel_with(workers, &PhaseKingScenario, &grid),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn tournament_parallel_aggregation_is_bit_identical() {
        let grid = rounds_grid(&[40, 80], true);
        let runner = SimRunner::new(8, 2);
        let sequential = runner.run_sequential(&TournamentScenario, &grid);
        for workers in WORKER_COUNTS {
            assert_eq!(
                sequential,
                runner.run_parallel_with(workers, &TournamentScenario, &grid),
                "workers = {workers}"
            );
        }
    }
}
