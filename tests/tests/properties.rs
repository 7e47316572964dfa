//! Property-based tests on the core invariants, across crates.

use bne_core::games::{MixedProfile, MixedStrategy};
use bne_core::robust::{is_k_resilient, is_t_immune, ResilienceVariant};
use bne_core::solvers::{iterated_elimination, pure_nash_equilibria, DominanceKind};
use bne_integration_tests::game_from_payoff_seed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 1-resilience (under either variant) coincides with pure Nash
    /// equilibrium on arbitrary binary-action games.
    #[test]
    fn one_resilience_is_nash(
        num_players in 2usize..5,
        payoffs in prop::collection::vec(-5i8..=5, 8..64),
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        for profile in game.profiles() {
            let nash = game.is_pure_nash(&profile);
            prop_assert_eq!(
                is_k_resilient(&game, &profile, 1, ResilienceVariant::SomeMemberGains),
                nash
            );
        }
    }

    /// Resilience and immunity are monotone: failing at a smaller parameter
    /// implies failing at every larger one.
    #[test]
    fn resilience_and_immunity_are_monotone(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-3i8..=3, 8..32),
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        let profile = vec![0usize; num_players];
        let mut resilient_so_far = true;
        let mut immune_so_far = true;
        for k in 1..=num_players {
            let r = is_k_resilient(&game, &profile, k, ResilienceVariant::SomeMemberGains);
            prop_assert!(resilient_so_far || !r, "resilience not monotone at k = {}", k);
            resilient_so_far = r;
            let t = is_t_immune(&game, &profile, k);
            prop_assert!(immune_so_far || !t, "immunity not monotone at t = {}", k);
            immune_so_far = t;
        }
    }

    /// Strictly dominated strategies never appear in a pure Nash
    /// equilibrium, so eliminating them preserves the equilibrium set.
    #[test]
    fn strict_elimination_preserves_pure_equilibria(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-4i8..=4, 8..48),
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        let original = pure_nash_equilibria(&game);
        let reduction = iterated_elimination(&game, DominanceKind::Strict);
        let reduced_equilibria = pure_nash_equilibria(&reduction.reduced);
        // map the reduced equilibria back and check they are equilibria of
        // the original game
        for eq in &reduced_equilibria {
            let lifted: Vec<usize> = eq
                .iter()
                .enumerate()
                .map(|(p, &a)| reduction.surviving[p][a])
                .collect();
            prop_assert!(game.is_pure_nash(&lifted));
        }
        // every original equilibrium survives strict elimination
        for eq in &original {
            let survives = eq.iter().enumerate().all(|(p, a)| reduction.surviving[p].contains(a));
            prop_assert!(survives, "equilibrium {:?} was eliminated", eq);
        }
    }

    /// Expected payoffs of a mixed profile are convex combinations of pure
    /// payoffs: they always lie between the min and max pure payoff.
    #[test]
    fn mixed_payoffs_are_bounded_by_pure_payoffs(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-5i8..=5, 8..48),
        weights in prop::collection::vec(1u8..=10, 2..8),
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        let strategies: Vec<MixedStrategy> = (0..num_players)
            .map(|p| {
                let w0 = weights[p % weights.len()] as f64;
                let w1 = weights[(p + 1) % weights.len()] as f64;
                MixedStrategy::new(vec![w0 / (w0 + w1), w1 / (w0 + w1)]).unwrap()
            })
            .collect();
        let profile = MixedProfile::new(&game, strategies).unwrap();
        for player in 0..num_players {
            let expected = profile.expected_payoff(&game, player);
            let pure: Vec<f64> = game
                .profiles()
                .map(|pr| game.payoff(player, &pr))
                .collect();
            let min = pure.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = pure.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(expected >= min - 1e-9 && expected <= max + 1e-9);
        }
    }

    /// The VM's primality program agrees with the reference implementation
    /// on arbitrary inputs.
    #[test]
    fn vm_primality_matches_reference(n in 0i64..5_000) {
        use bne_core::machine::vm::{is_prime_reference, Program, VirtualMachine};
        let vm = VirtualMachine::default();
        let out = vm.run(&Program::trial_division_primality(), n).unwrap();
        prop_assert_eq!(out.output == 1, is_prime_reference(n as u64));
    }

    /// Flat-index engine: `profile_to_index`/`index_to_profile` round-trip,
    /// and the cached strides reproduce the encoding as a dot product.
    #[test]
    fn flat_index_round_trips(seed in 0u64..500, num_players in 2usize..5) {
        use bne_core::games::profile::{index_to_profile, profile_to_index};
        use bne_core::games::random::random_game;
        let radices: Vec<usize> = (0..num_players).map(|p| 2 + (seed as usize + p) % 3).collect();
        let game = random_game(seed, &radices);
        for flat in 0..game.num_profiles() {
            let profile = index_to_profile(flat, game.action_counts());
            prop_assert_eq!(profile_to_index(&profile, game.action_counts()), flat);
            let dot: usize = profile
                .iter()
                .zip(game.strides().iter())
                .map(|(a, s)| a * s)
                .sum();
            prop_assert_eq!(dot, flat);
        }
    }

    /// `deviate_index` agrees with the clone-mutate-reencode pattern it
    /// replaced, for every profile, player, and action.
    #[test]
    fn deviate_index_matches_clone_mutate_reencode(seed in 0u64..300) {
        use bne_core::games::random::random_game;
        let game = random_game(seed, &[3, 2, 4]);
        for (flat, profile) in game.profiles().enumerate() {
            for p in 0..game.num_players() {
                prop_assert_eq!(game.action_at(flat, p), profile[p]);
                for a in 0..game.num_actions(p) {
                    let mut cloned = profile.clone();
                    cloned[p] = a;
                    prop_assert_eq!(
                        game.deviate_index(flat, p, a),
                        game.profile_index(&cloned)
                    );
                }
            }
        }
    }

    /// Index-based solution-concept checks agree with the profile-based
    /// ones on arbitrary games.
    #[test]
    fn index_checks_agree_with_profile_checks(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-4i8..=4, 8..48),
    ) {
        use bne_core::robust::{is_k_resilient_by_index, is_robust_by_index, is_t_immune_by_index};
        let game = game_from_payoff_seed(num_players, &payoffs);
        for (flat, profile) in game.profiles().enumerate() {
            prop_assert_eq!(game.is_pure_nash_by_index(flat), game.is_pure_nash(&profile));
            for param in 1..=num_players {
                prop_assert_eq!(
                    is_k_resilient_by_index(&game, flat, param, ResilienceVariant::SomeMemberGains),
                    is_k_resilient(&game, &profile, param, ResilienceVariant::SomeMemberGains)
                );
                prop_assert_eq!(
                    is_t_immune_by_index(&game, flat, param),
                    is_t_immune(&game, &profile, param)
                );
                prop_assert_eq!(
                    is_robust_by_index(&game, flat, param, 1),
                    bne_core::robust::is_robust(&game, &profile, param, 1)
                );
            }
        }
    }

}

mod parallel_properties {
    use super::*;

    proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

        /// Best-response tables, built over index ranges under the fan-out
        /// rule on this machine, match a plain per-profile map (the
        /// profile sweeps' par == seq gate, with forced worker counts, is
        /// `tests/oracle.rs`).
        #[test]
        fn parallel_searches_match_sequential(seed in 0u64..200, num_players in 3usize..6) {
            use bne_core::games::random::random_game;
            use bne_core::solvers::best_response_table;
            let radices: Vec<usize> = (0..num_players).map(|p| 2 + (seed as usize + p) % 2).collect();
            let game = random_game(seed, &radices);
            for p in 0..game.num_players() {
                let expected: Vec<usize> = (0..game.num_profiles())
                    .map(|flat| game.best_unilateral_deviation_by_index(p, flat).0)
                    .collect();
                prop_assert_eq!(best_response_table(&game, p), expected);
            }
        }

        /// The range primitives themselves are order-preserving and
        /// deterministic for any worker count, including worker counts that
        /// force real threads on this machine.
        #[test]
        fn chunked_primitives_are_deterministic(total in 1usize..4_000, workers in 1usize..9) {
            use bne_core::games::parallel::{collect_ranges, find_first};
            let hits = collect_ranges(total, Some(workers), |range| {
                range.filter(|i| i % 13 == 5).collect::<Vec<_>>()
            });
            let expected: Vec<usize> = (0..total).filter(|i| i % 13 == 5).collect();
            prop_assert_eq!(hits, expected);
            prop_assert_eq!(
                find_first(total, Some(workers), |i| i % 17 == 11),
                (0..total).find(|i| i % 17 == 11)
            );
        }
    }
}
