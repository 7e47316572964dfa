//! Punishment strategies.
//!
//! The mediator-implementation theorems of Abraham et al. (quoted in
//! Section 2 of the paper) need, in the `2k + 3t < n ≤ 3k + 3t` regime, a
//! *(k+t)-punishment strategy*: a strategy profile ρ such that if it is
//! used by all but at most `k + t` players, **every** player is strictly
//! worse off than under the candidate equilibrium profile. The threat of
//! switching to ρ is what keeps deviators in line when there are too few
//! honest players for information-theoretic enforcement.

use bne_games::profile::try_for_each_subset_of_size;
use bne_games::{ActionId, DeviationOracle, NormalFormGame, EPSILON};

/// Whether `punishment` is a `p`-punishment strategy relative to the
/// `equilibrium` profile: for every set `D` of at most `p` players and every
/// joint action of `D`, if everyone outside `D` plays their part of
/// `punishment`, every player (deviators included) gets strictly less than
/// their `equilibrium` payoff.
///
/// # Panics
///
/// Panics if either profile is invalid for the game.
pub fn is_punishment_strategy(
    game: &NormalFormGame,
    equilibrium: &[ActionId],
    punishment: &[ActionId],
    p: usize,
) -> bool {
    game.validate_profile(equilibrium)
        .expect("equilibrium profile must be valid");
    game.validate_profile(punishment)
        .expect("punishment profile must be valid");
    let base: Vec<f64> = (0..game.num_players())
        .map(|i| game.payoff(i, equilibrium))
        .collect();
    is_punishment_strategy_by_index(game, &base, game.profile_index(punishment), p)
}

/// Index-based core of [`is_punishment_strategy`]: `base` holds the
/// equilibrium payoffs and `punishment_flat` the candidate's flat index.
/// Runs entirely on stride arithmetic.
pub fn is_punishment_strategy_by_index(
    game: &NormalFormGame,
    base: &[f64],
    punishment_flat: usize,
    p: usize,
) -> bool {
    let n = game.num_players();
    let everyone_below = |flat: usize| {
        (0..n).all(|player| game.payoff_by_index(player, flat) < base[player] - EPSILON)
    };
    // D can be empty: then everyone plays the punishment profile.
    if !everyone_below(punishment_flat) {
        return false;
    }
    for size in 1..=p.min(n) {
        let complete = try_for_each_subset_of_size(n, size, |deviators| {
            game.visit_coalition_deviations(punishment_flat, deviators, |_, flat| {
                everyone_below(flat)
            })
        });
        if !complete {
            return false;
        }
    }
    true
}

/// Exhaustively searches for `p`-punishment strategies relative to
/// `equilibrium`. Returns all pure profiles that qualify, in flat-index
/// order. Runs through the [`DeviationOracle`]: the best-response tables
/// reject most candidates in `O(n)` (a lone deviator reaches their
/// best-response payoff, which must stay strictly below the equilibrium)
/// before the exponential deviator sweep runs.
pub fn find_punishment_strategies(
    game: &NormalFormGame,
    equilibrium: &[ActionId],
    p: usize,
) -> Vec<Vec<ActionId>> {
    game.validate_profile(equilibrium)
        .expect("equilibrium profile must be valid");
    let base: Vec<f64> = (0..game.num_players())
        .map(|i| game.payoff(i, equilibrium))
        .collect();
    DeviationOracle::new(game).punishment_profiles(&base, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;
    use bne_games::NormalFormBuilder;

    #[test]
    fn pd_has_no_punishment_relative_to_defection() {
        // (D,D) is already the worst symmetric outcome; you cannot push both
        // players strictly below it with any profile, because a deviator
        // playing D against... actually (D,D) payoff -3; the profile (C,C)
        // punishes nobody. No punishment strategy exists relative to (D,D)
        // for p = 1 because the deviator can always play D and get at least
        // -3.
        let pd = classic::prisoners_dilemma();
        assert!(find_punishment_strategies(&pd, &[1, 1], 1).is_empty());
    }

    #[test]
    fn pd_defection_punishes_cooperation_at_p_zero() {
        // relative to (C,C) (payoff 3 each), the profile (D,D) gives -3 to
        // everyone: a 0-punishment strategy.
        let pd = classic::prisoners_dilemma();
        assert!(is_punishment_strategy(&pd, &[0, 0], &[1, 1], 0));
        // it is NOT a 1-punishment strategy: when the deviator plays C
        // against the punisher's D, the punisher herself gets 5 > 3, so not
        // *every* player ends up strictly below the equilibrium payoff.
        assert!(!is_punishment_strategy(&pd, &[0, 0], &[1, 1], 1));
    }

    #[test]
    fn bargaining_leave_punishes_stay_equilibrium() {
        // Everyone leaving gives 1 < 2 to everyone; a single deviator who
        // stays gets 0 < 2 and the leavers still get 1 < 2. So "all leave"
        // is a 1-punishment strategy relative to "all stay".
        let g = classic::bargaining_game(4);
        let all_stay = vec![0; 4];
        let all_leave = vec![1; 4];
        assert!(is_punishment_strategy(&g, &all_stay, &all_leave, 1));
        // it even punishes up to n - 1 deviators: any mix of stay/leave
        // keeps everyone at 0 or 1, strictly below the equilibrium's 2
        assert!(is_punishment_strategy(&g, &all_stay, &all_leave, 3));
        // with all n players allowed to deviate, they can simply all stay
        // and recover the payoff of 2, so it is not an n-punishment strategy
        assert!(!is_punishment_strategy(&g, &all_stay, &all_leave, 4));
        let found = find_punishment_strategies(&g, &all_stay, 1);
        assert!(found.contains(&all_leave));
    }

    #[test]
    fn coordination_game_has_no_punishment_for_pairs() {
        // relative to all-zero (payoff 1 each): a pair of deviators can play
        // (1,1) and get 2 > 1 no matter what the others do, so no
        // 2-punishment strategy exists.
        let g = classic::coordination_game(4);
        assert!(find_punishment_strategies(&g, &[0; 4], 2).is_empty());
    }

    #[test]
    fn punishment_requires_strictness() {
        // a game where the "punishment" only matches (not lowers) the
        // equilibrium payoff is rejected
        let g = NormalFormBuilder::new("flat")
            .player("A", &["x", "y"])
            .player("B", &["x", "y"])
            .default_payoff(1.0)
            .payoff(&[0, 0], &[2.0, 2.0])
            .build()
            .unwrap();
        // equilibrium (0,0) with payoff 2; candidate punishment (1,1) gives 1 < 2
        // but a deviator from the punishment playing 0 gives profile (0,1) → 1 < 2 still
        assert!(is_punishment_strategy(&g, &[0, 0], &[1, 1], 1));
        // candidate punishment (0,0) itself gives 2, not strictly less
        assert!(!is_punishment_strategy(&g, &[0, 0], &[0, 0], 0));
    }
}
