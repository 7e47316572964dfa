//! Property tests for the deviation-oracle search core: the pruned
//! strategy (best-response certificate tables + iterated
//! never-best-response elimination) must return **bit-identical** results
//! — same profiles, same order — as the retained
//! [`SearchStrategy::Exhaustive`] escape hatch, on arbitrary games with
//! both degenerate (tie-heavy, small-integer) and non-degenerate payoffs;
//! and both sweeps must match a plain filter through the per-profile
//! predicates at every worker count.

use bne_core::games::random::random_game;
use bne_core::games::{
    ActionProfile, Concept, DeviationOracle, NormalFormGame, ResilienceVariant, SearchStrategy,
};
use bne_integration_tests::game_from_payoff_seed;
use proptest::prelude::*;

/// The `(k, t)` cells of the robustness sweeps and the frontier.
const CELLS: [(usize, usize); 6] = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)];

/// Oracle pair under test: pruned and the exhaustive equality gate.
fn oracle_pair(game: &NormalFormGame) -> (DeviationOracle<'_>, DeviationOracle<'_>) {
    (
        DeviationOracle::new(game),
        DeviationOracle::with_strategy(game, SearchStrategy::Exhaustive),
    )
}

/// Every concept the sweeps are checked on for an `n`-player game: Nash,
/// k-resilience under both variants and t-immunity for every parameter
/// up to `n`, the robustness cells, and punishment relative to `base`.
fn concepts(n: usize, base: &[f64]) -> Vec<Concept<'_>> {
    let mut all = vec![Concept::Nash];
    for variant in [
        ResilienceVariant::SomeMemberGains,
        ResilienceVariant::AllMembersGain,
    ] {
        all.extend((0..=n).map(|k| Concept::Resilient { k, variant }));
    }
    all.extend((0..=n).map(|t| Concept::Immune { t }));
    all.extend(CELLS.iter().map(|&(k, t)| Concept::Robust { k, t }));
    all.extend((0..=n).map(|p| Concept::Punishment { base, p }));
    all
}

/// Profile 0's payoffs: the base the punishment sweeps are relative to.
fn base_payoffs(game: &NormalFormGame) -> Vec<f64> {
    (0..game.num_players())
        .map(|p| game.payoff_by_index(p, 0))
        .collect()
}

/// The reference sweep: a plain filter over every flat index through the
/// per-profile predicates, sharing no sweep code with the oracle's.
fn filtered(oracle: &DeviationOracle, concept: &Concept) -> Vec<ActionProfile> {
    let holds = |flat: usize| match *concept {
        Concept::Nash => oracle.is_nash(flat),
        Concept::Resilient { k, variant } => oracle.is_k_resilient(flat, k, variant),
        Concept::Immune { t } => oracle.is_t_immune(flat, t),
        Concept::Robust { k, t } => oracle.is_robust(flat, k, t),
        Concept::Punishment { base, p } => oracle.is_punishment(flat, base, p),
    };
    let game = oracle.game();
    (0..game.num_profiles())
        .filter(|&flat| holds(flat))
        .map(|flat| game.profile_at(flat))
        .collect()
}

/// Asserts every oracle sweep is bit-identical across strategies and
/// that the frontier agrees with the per-cell sweeps.
fn assert_strategies_agree(game: &NormalFormGame) {
    let (pruned, exhaustive) = oracle_pair(game);
    let base = base_payoffs(game);
    for concept in concepts(game.num_players(), &base) {
        prop_assert_eq!(
            pruned.profiles(&concept, None),
            exhaustive.profiles(&concept, None),
            "{:?}",
            concept
        );
        prop_assert_eq!(
            pruned.first_profile(&concept, None),
            exhaustive.first_profile(&concept, None),
            "{:?}",
            concept
        );
    }
    let frontier_pruned = pruned.robust_frontier(&CELLS);
    let frontier_exhaustive = exhaustive.robust_frontier(&CELLS);
    for (i, &(k, t)) in CELLS.iter().enumerate() {
        prop_assert_eq!(
            &frontier_pruned[i],
            &frontier_exhaustive[i],
            "frontier cell ({}, {})",
            k,
            t
        );
        prop_assert_eq!(
            &frontier_pruned[i],
            &pruned.profiles(&Concept::Robust { k, t }, None),
            "frontier vs direct sweep at ({}, {})",
            k,
            t
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

        /// The par == seq gate of every sweep: `profiles` and
        /// `first_profile` match the plain filter for every concept, under
        /// both strategies, with the fan-out rule and with 1, 2, 4 and 8
        /// forced workers.
        #[test]
        fn parallel_oracle_sweeps_match_sequential(seed in 0u64..120, num_players in 2usize..5) {
            let radices: Vec<usize> = (0..num_players)
                .map(|p| 2 + (seed as usize + p) % 2)
                .collect();
            let game = random_game(seed, &radices);
            let base = base_payoffs(&game);
            for strategy in [SearchStrategy::Pruned, SearchStrategy::Exhaustive] {
                let oracle = DeviationOracle::with_strategy(&game, strategy);
                for concept in concepts(num_players, &base) {
                    let expected = filtered(&oracle, &concept);
                    for workers in [None, Some(1), Some(2), Some(4), Some(8)] {
                        prop_assert_eq!(
                            &oracle.profiles(&concept, workers),
                            &expected,
                            "{:?} {:?} workers {:?}",
                            strategy,
                            concept,
                            workers
                        );
                        prop_assert_eq!(
                            oracle.first_profile(&concept, workers).as_ref(),
                            expected.first(),
                            "{:?} {:?} workers {:?}",
                            strategy,
                            concept,
                            workers
                        );
                    }
                }
            }
        }
    }
}
