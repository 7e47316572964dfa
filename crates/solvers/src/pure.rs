//! Pure-strategy analysis: Nash equilibrium enumeration, dominant
//! strategies, and iterated elimination of dominated strategies.

use bne_games::profile::ActionProfile;
use bne_games::{ActionId, Concept, DeviationOracle, NormalFormGame, PlayerId};

/// Which notion of dominance to use during iterated elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceKind {
    /// Strict dominance: strictly better against every opponent profile.
    /// Iterated elimination of strictly dominated strategies is order
    /// independent.
    Strict,
    /// Weak dominance: never worse and sometimes strictly better. Iterated
    /// elimination of weakly dominated strategies is order dependent; this
    /// crate eliminates lowest-indexed dominated actions first.
    Weak,
}

/// Enumerates every pure Nash equilibrium of the game, in flat order.
/// Runs on the shared [`DeviationOracle`]: best-response payoff tables
/// decide each profile in `O(n)` lookups and iterated
/// never-best-response elimination skips profiles that cannot be
/// equilibria; the result is bit-identical to the exhaustive flat-index
/// sweep. For the first equilibrium only, or another strategy or worker
/// count, sweep the oracle with [`Concept::Nash`] directly.
pub fn pure_nash_equilibria(game: &NormalFormGame) -> Vec<ActionProfile> {
    DeviationOracle::new(game).profiles(&Concept::Nash, None)
}

/// The best-response table of one player: entry `flat` is the
/// lowest-indexed action maximizing the player's payoff against the
/// opponents' actions in the profile with flat index `flat` (the player's
/// own entry is ignored). Entries are therefore constant along the
/// player's own stride. Index ranges run under the fan-out rule of
/// `bne_games::parallel`, so the table is the same for any thread count.
pub fn best_response_table(game: &NormalFormGame, player: PlayerId) -> Vec<ActionId> {
    bne_games::parallel::collect_ranges(game.num_profiles(), None, |range| {
        range
            .map(|flat| game.best_unilateral_deviation_by_index(player, flat).0)
            .collect()
    })
}

/// If every player has a strictly dominant action, returns that profile.
pub fn strictly_dominant_profile(game: &NormalFormGame) -> Option<ActionProfile> {
    let mut profile = Vec::with_capacity(game.num_players());
    for p in 0..game.num_players() {
        let mut dominant = None;
        'candidate: for a in 0..game.num_actions(p) {
            for b in 0..game.num_actions(p) {
                if a != b && !game.strictly_dominates(p, a, b) {
                    continue 'candidate;
                }
            }
            dominant = Some(a);
            break;
        }
        profile.push(dominant?);
    }
    Some(profile)
}

/// Actions of `player` that are dominated (by some other surviving action)
/// under the given dominance notion.
fn dominated_actions(
    game: &NormalFormGame,
    player: PlayerId,
    kind: DominanceKind,
) -> Vec<ActionId> {
    let mut out = Vec::new();
    for b in 0..game.num_actions(player) {
        let dominated = (0..game.num_actions(player)).any(|a| match kind {
            DominanceKind::Strict => game.strictly_dominates(player, a, b),
            DominanceKind::Weak => game.weakly_dominates(player, a, b),
        });
        if dominated {
            out.push(b);
        }
    }
    out
}

/// The result of iterated elimination of dominated strategies.
#[derive(Debug, Clone)]
pub struct EliminationResult {
    /// The reduced game after elimination stabilizes.
    pub reduced: NormalFormGame,
    /// For each player, the surviving actions expressed as indices into the
    /// **original** game's action sets.
    pub surviving: Vec<Vec<ActionId>>,
    /// Number of elimination rounds performed.
    pub rounds: usize,
}

/// Performs iterated elimination of dominated strategies until no player has
/// a dominated action left.
///
/// With [`DominanceKind::Weak`], at most one action per player is removed
/// per round (the lowest-indexed dominated one) to keep the procedure
/// deterministic; with [`DominanceKind::Strict`], all dominated actions are
/// removed each round (the result is order independent).
pub fn iterated_elimination(game: &NormalFormGame, kind: DominanceKind) -> EliminationResult {
    let mut surviving: Vec<Vec<ActionId>> = (0..game.num_players())
        .map(|p| (0..game.num_actions(p)).collect())
        .collect();
    let mut current = game.clone();
    let mut rounds = 0;
    loop {
        let mut changed = false;
        let mut keep: Vec<Vec<ActionId>> = Vec::with_capacity(current.num_players());
        for p in 0..current.num_players() {
            let dominated = dominated_actions(&current, p, kind);
            let to_remove: Vec<ActionId> = match kind {
                DominanceKind::Strict => dominated,
                DominanceKind::Weak => dominated.into_iter().take(1).collect(),
            };
            let kept: Vec<ActionId> = (0..current.num_actions(p))
                .filter(|a| !to_remove.contains(a))
                .collect();
            // never eliminate a player's last action
            let kept = if kept.is_empty() { vec![0] } else { kept };
            if kept.len() != current.num_actions(p) {
                changed = true;
            }
            keep.push(kept);
        }
        if !changed {
            break;
        }
        rounds += 1;
        // map survivors back to original indices
        for (p, kept) in keep.iter().enumerate() {
            surviving[p] = kept.iter().map(|&a| surviving[p][a]).collect();
        }
        current = current
            .restrict(&keep)
            .expect("restriction of surviving actions is well-formed");
    }
    EliminationResult {
        reduced: current,
        surviving,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;

    #[test]
    fn pd_unique_equilibrium_is_mutual_defection() {
        let pd = classic::prisoners_dilemma();
        let eq = pure_nash_equilibria(&pd);
        assert_eq!(eq, vec![vec![1, 1]]);
        assert_eq!(strictly_dominant_profile(&pd), Some(vec![1, 1]));
        assert_eq!(
            DeviationOracle::new(&pd).first_profile(&Concept::Nash, None),
            Some(vec![1, 1])
        );
    }

    #[test]
    fn best_response_table_is_consistent() {
        let g = bne_games::random::random_game(31, &[3, 2, 4]);
        for player in 0..g.num_players() {
            let table = best_response_table(&g, player);
            assert_eq!(table.len(), g.num_profiles());
            for (flat, profile) in g.profiles().enumerate() {
                assert_eq!(table[flat], g.best_unilateral_deviation(player, &profile).0);
            }
        }
    }

    #[test]
    fn roshambo_has_no_pure_equilibrium() {
        assert!(pure_nash_equilibria(&classic::roshambo()).is_empty());
        assert!(strictly_dominant_profile(&classic::roshambo()).is_none());
    }

    #[test]
    fn coordination_game_equilibria_include_all_zero() {
        let g = classic::coordination_game(4);
        let eq = pure_nash_equilibria(&g);
        assert!(eq.contains(&vec![0, 0, 0, 0]));
    }

    #[test]
    fn battle_of_sexes_two_equilibria() {
        let eq = pure_nash_equilibria(&classic::battle_of_the_sexes());
        assert_eq!(eq.len(), 2);
        assert!(eq.contains(&vec![0, 0]));
        assert!(eq.contains(&vec![1, 1]));
    }

    #[test]
    fn strict_elimination_solves_pd() {
        let pd = classic::prisoners_dilemma();
        let result = iterated_elimination(&pd, DominanceKind::Strict);
        assert_eq!(result.surviving, vec![vec![1], vec![1]]);
        assert_eq!(result.reduced.num_profiles(), 1);
        assert!(result.rounds >= 1);
    }

    #[test]
    fn elimination_keeps_undominated_games_unchanged() {
        let g = classic::matching_pennies();
        let result = iterated_elimination(&g, DominanceKind::Strict);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.surviving, vec![vec![0, 1], vec![0, 1]]);
    }

    #[test]
    fn weak_elimination_is_conservative_one_per_round() {
        // Player 0 has three actions; action 2 is weakly dominated by 0 and
        // 1 is weakly dominated by 0 too. Weak elimination removes one per
        // round per player.
        let g = bne_games::NormalFormBuilder::new("weak chain")
            .player("A", &["a0", "a1", "a2"])
            .player("B", &["b0", "b1"])
            .payoff(&[0, 0], &[3.0, 1.0])
            .payoff(&[0, 1], &[3.0, 1.0])
            .payoff(&[1, 0], &[2.0, 1.0])
            .payoff(&[1, 1], &[3.0, 1.0])
            .payoff(&[2, 0], &[1.0, 1.0])
            .payoff(&[2, 1], &[2.0, 1.0])
            .build()
            .unwrap();
        let result = iterated_elimination(&g, DominanceKind::Weak);
        assert!(result.surviving[0].len() < 3);
        // player 0's best action a0 always survives
        assert!(result.surviving[0].contains(&0));
    }

    #[test]
    fn last_action_never_eliminated() {
        let pd = classic::prisoners_dilemma();
        let result = iterated_elimination(&pd, DominanceKind::Weak);
        for p in 0..2 {
            assert!(!result.surviving[p].is_empty());
        }
    }

    #[test]
    fn equilibria_of_reduced_game_are_equilibria_of_original() {
        let g = classic::prisoners_dilemma();
        let res = iterated_elimination(&g, DominanceKind::Strict);
        for eq in pure_nash_equilibria(&res.reduced) {
            // map back to original indices
            let original: Vec<ActionId> = eq
                .iter()
                .enumerate()
                .map(|(p, &a)| res.surviving[p][a])
                .collect();
            assert!(g.is_pure_nash(&original));
        }
    }
}
