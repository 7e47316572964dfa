//! Property tests for the deviation-oracle search core: the pruned
//! strategy (best-response certificate tables + iterated
//! never-best-response elimination) must return **bit-identical** results
//! — same profiles, same order — as the retained
//! [`SearchStrategy::Exhaustive`] escape hatch, on arbitrary games with
//! both degenerate (tie-heavy, small-integer) and non-degenerate payoffs.

use bne_core::games::random::random_game;
use bne_core::games::{DeviationOracle, NormalFormGame, ResilienceVariant, SearchStrategy};
use bne_integration_tests::game_from_payoff_seed;
use proptest::prelude::*;

/// Oracle pair under test: pruned and the exhaustive equality gate.
fn oracle_pair(game: &NormalFormGame) -> (DeviationOracle<'_>, DeviationOracle<'_>) {
    (
        DeviationOracle::new(game),
        DeviationOracle::with_strategy(game, SearchStrategy::Exhaustive),
    )
}

/// Asserts every oracle sweep is bit-identical across strategies and
/// agrees with the pre-oracle `bne-robust` predicates.
fn assert_strategies_agree(game: &NormalFormGame) {
    let n = game.num_players();
    let (pruned, exhaustive) = oracle_pair(game);
    prop_assert_eq!(pruned.nash_profiles(), exhaustive.nash_profiles());
    prop_assert_eq!(pruned.first_nash(), exhaustive.first_nash());
    for variant in [
        ResilienceVariant::SomeMemberGains,
        ResilienceVariant::AllMembersGain,
    ] {
        for k in 0..=n {
            prop_assert_eq!(
                pruned.k_resilient_profiles(k, variant),
                exhaustive.k_resilient_profiles(k, variant),
                "k = {}",
                k
            );
            prop_assert_eq!(
                pruned.first_k_resilient_profile(k, variant),
                exhaustive.first_k_resilient_profile(k, variant)
            );
        }
    }
    for t in 0..=n {
        prop_assert_eq!(
            pruned.t_immune_profiles(t),
            exhaustive.t_immune_profiles(t),
            "t = {}",
            t
        );
    }
    let cells = [(0usize, 1usize), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)];
    let frontier_pruned = pruned.robust_frontier(&cells);
    let frontier_exhaustive = exhaustive.robust_frontier(&cells);
    for (i, &(k, t)) in cells.iter().enumerate() {
        prop_assert_eq!(
            &frontier_pruned[i],
            &frontier_exhaustive[i],
            "frontier cell ({}, {})",
            k,
            t
        );
        prop_assert_eq!(
            &frontier_pruned[i],
            &pruned.robust_profiles(k, t),
            "frontier vs direct sweep at ({}, {})",
            k,
            t
        );
        prop_assert_eq!(
            pruned.first_robust_profile(k, t),
            exhaustive.first_robust_profile(k, t)
        );
    }
    // punishment sweeps relative to the all-zeros profile's payoffs
    let base: Vec<f64> = (0..n).map(|p| game.payoff_by_index(p, 0)).collect();
    for p in 0..=n {
        prop_assert_eq!(
            pruned.punishment_profiles(&base, p),
            exhaustive.punishment_profiles(&base, p),
            "p = {}",
            p
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate payoffs (binary actions, small integers, heavy ties):
    /// the regime where ε-handling and elimination interact the most.
    #[test]
    fn pruned_equals_exhaustive_on_degenerate_games(
        num_players in 2usize..5,
        payoffs in prop::collection::vec(-2i8..=2, 8..48),
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        assert_strategies_agree(&game);
    }

    /// Non-degenerate random games with mixed action counts (n ≤ 4).
    #[test]
    fn pruned_equals_exhaustive_on_random_games(seed in 0u64..300, num_players in 2usize..5) {
        let radices: Vec<usize> = (0..num_players)
            .map(|p| 2 + (seed as usize + p) % 3)
            .collect();
        let game = random_game(seed, &radices);
        assert_strategies_agree(&game);
    }

    /// Oracle predicates agree with the `bne-robust` per-profile checks
    /// (which retained their witness-materializing implementations).
    #[test]
    fn oracle_predicates_match_robust_checks(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-3i8..=3, 8..32),
    ) {
        use bne_core::robust::{is_k_resilient_by_index, is_robust_by_index, is_t_immune_by_index};
        let game = game_from_payoff_seed(num_players, &payoffs);
        let (pruned, exhaustive) = oracle_pair(&game);
        for flat in 0..game.num_profiles() {
            for oracle in [&pruned, &exhaustive] {
                prop_assert_eq!(oracle.is_nash(flat), game.is_pure_nash_by_index(flat));
                for param in 0..=num_players {
                    prop_assert_eq!(
                        oracle.is_k_resilient(flat, param, ResilienceVariant::SomeMemberGains),
                        is_k_resilient_by_index(
                            &game,
                            flat,
                            param,
                            ResilienceVariant::SomeMemberGains
                        )
                    );
                    prop_assert_eq!(
                        oracle.is_t_immune(flat, param),
                        is_t_immune_by_index(&game, flat, param)
                    );
                    prop_assert_eq!(
                        oracle.is_robust(flat, param, 1),
                        is_robust_by_index(&game, flat, param, 1)
                    );
                }
            }
        }
    }

    /// The single-pass `max_resilience` / `max_immunity` agree with the
    /// per-parameter loop they replaced.
    #[test]
    fn single_pass_max_classification_matches_per_k_loop(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-3i8..=3, 8..32),
    ) {
        use bne_core::robust::{
            is_k_resilient, is_t_immune, max_robustness, ResilienceVariant as RV,
        };
        let game = game_from_payoff_seed(num_players, &payoffs);
        for profile in game.profiles() {
            let mut expect_k = 0;
            for k in 1..=num_players {
                if is_k_resilient(&game, &profile, k, RV::SomeMemberGains) {
                    expect_k = k;
                } else {
                    break;
                }
            }
            let mut expect_t = 0;
            for t in 1..=num_players {
                if is_t_immune(&game, &profile, t) {
                    expect_t = t;
                } else {
                    break;
                }
            }
            prop_assert_eq!(
                max_robustness(&game, &profile, num_players, num_players),
                (expect_k, expect_t)
            );
        }
    }
}

mod parallel_oracle {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Pruned parallel sweeps are bit-identical to sequential ones
        /// under forced worker counts, for both strategies.
        #[test]
        fn parallel_oracle_sweeps_match_sequential(seed in 0u64..120, num_players in 2usize..5) {
            let radices: Vec<usize> = (0..num_players)
                .map(|p| 2 + (seed as usize + p) % 2)
                .collect();
            let game = random_game(seed, &radices);
            for strategy in [SearchStrategy::Pruned, SearchStrategy::Exhaustive] {
                let oracle = DeviationOracle::with_strategy(&game, strategy);
                for workers in [2usize, 4] {
                    prop_assert_eq!(
                        oracle.nash_profiles(),
                        oracle.nash_profiles_with_workers(workers)
                    );
                    prop_assert_eq!(
                        oracle.first_nash(),
                        oracle.first_nash_with_workers(workers)
                    );
                    prop_assert_eq!(
                        oracle.robust_profiles(2, 1),
                        oracle.robust_profiles_with_workers(2, 1, workers)
                    );
                    prop_assert_eq!(
                        oracle.first_robust_profile(1, 1),
                        oracle.first_robust_profile_with_workers(1, 1, workers)
                    );
                    prop_assert_eq!(
                        oracle.t_immune_profiles(1),
                        oracle.t_immune_profiles_with_workers(1, workers)
                    );
                }
            }
        }
    }
}
