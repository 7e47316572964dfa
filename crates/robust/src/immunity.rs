//! t-immunity: protecting non-deviators from arbitrary ("faulty") behavior.
//!
//! A strategy profile is *t-immune* if no player who does **not** deviate is
//! made worse off when up to `t` other players deviate in an arbitrary way.
//! Where resilience is about deviators not *gaining*, immunity is about
//! bystanders not being *hurt* — this is the fault-tolerance dimension the
//! paper imports from distributed computing (Byzantine players, crashed
//! machines, users with unexpected utilities such as Gnutella's sharing
//! hosts).

use bne_games::profile::{try_for_each_subset_of_size, ActionProfile};
use bne_games::{ActionId, DeviationOracle, NormalFormGame, PlayerId, EPSILON};

/// A witness that a profile is not t-immune: a set of deviators and a joint
/// deviation that hurts some non-deviator.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmunityViolation {
    /// The deviating ("faulty") players.
    pub deviators: Vec<PlayerId>,
    /// The actions the deviators switch to, in the same order as
    /// `deviators`.
    pub deviation: Vec<ActionId>,
    /// A non-deviating player who is hurt.
    pub victim: PlayerId,
    /// The victim's utility before the deviation.
    pub before: f64,
    /// The victim's utility after the deviation.
    pub after: f64,
}

impl ImmunityViolation {
    /// How much the victim loses.
    pub fn loss(&self) -> f64 {
        self.before - self.after
    }
}

/// Searches for a violation of t-immunity. Returns the first witness found,
/// or `None` if the profile is t-immune.
///
/// # Panics
///
/// Panics if `profile` is not a valid pure profile of `game`.
pub fn immunity_counterexample(
    game: &NormalFormGame,
    profile: &[ActionId],
    t: usize,
) -> Option<ImmunityViolation> {
    game.validate_profile(profile)
        .expect("profile must be valid for the game");
    immunity_counterexample_by_index(game, game.profile_index(profile), t)
}

/// Index-based form of [`immunity_counterexample`]: runs entirely on flat
/// indices; allocation happens only when a violation is materialized.
pub fn immunity_counterexample_by_index(
    game: &NormalFormGame,
    flat: usize,
    t: usize,
) -> Option<ImmunityViolation> {
    if t == 0 {
        return None;
    }
    let n = game.num_players();
    // Size-1 fast path (see `resilience_counterexample_by_index`): one
    // deviating player is a pure stride walk, in the same enumeration
    // order as the general machinery, so witnesses are unchanged.
    for p in 0..n {
        let stride = game.strides()[p];
        let base = flat - game.action_at(flat, p) * stride;
        for a in 0..game.num_actions(p) {
            let new_flat = base + a * stride;
            if new_flat == flat {
                continue;
            }
            for victim in 0..n {
                if victim == p {
                    continue;
                }
                let before = game.payoff_by_index(victim, flat);
                let after = game.payoff_by_index(victim, new_flat);
                if after < before - EPSILON {
                    return Some(ImmunityViolation {
                        deviators: vec![p],
                        deviation: vec![a],
                        victim,
                        before,
                        after,
                    });
                }
            }
        }
    }
    let mut violation = None;
    for size in 2..=t.min(n) {
        if immunity_size_scan(game, flat, size, &mut violation) {
            break;
        }
    }
    violation
}

/// Scans the deviator sets of exactly `size` members for a deviation that
/// hurts a bystander, materializing the first witness found. Returns
/// `true` when a witness was found (the sweep stopped early).
fn immunity_size_scan(
    game: &NormalFormGame,
    flat: usize,
    size: usize,
    violation: &mut Option<ImmunityViolation>,
) -> bool {
    let n = game.num_players();
    !try_for_each_subset_of_size(n, size, |deviators| {
        game.visit_coalition_deviations(flat, deviators, |dev, new_flat| {
            if new_flat == flat {
                return true; // the non-deviation
            }
            for victim in 0..n {
                if deviators.contains(&victim) {
                    continue;
                }
                let before = game.payoff_by_index(victim, flat);
                let after = game.payoff_by_index(victim, new_flat);
                if after < before - EPSILON {
                    *violation = Some(ImmunityViolation {
                        deviators: deviators.to_vec(),
                        deviation: dev.to_vec(),
                        victim,
                        before,
                        after,
                    });
                    return false;
                }
            }
            true
        })
    })
}

/// Whether `profile` is t-immune. Every profile is trivially 0-immune.
pub fn is_t_immune(game: &NormalFormGame, profile: &[ActionId], t: usize) -> bool {
    immunity_counterexample(game, profile, t).is_none()
}

/// Index-based form of [`is_t_immune`].
pub fn is_t_immune_by_index(game: &NormalFormGame, flat: usize, t: usize) -> bool {
    immunity_counterexample_by_index(game, flat, t).is_none()
}

/// Sweeps the whole profile space and collects every t-immune profile, in
/// flat-index order. Runs through the [`DeviationOracle`] (memoized
/// payoff snapshots); immunity admits no sound pre-elimination, so the
/// sweep always covers the full space.
pub fn find_t_immune_profiles(game: &NormalFormGame, t: usize) -> Vec<ActionProfile> {
    DeviationOracle::new(game).t_immune_profiles(t)
}

/// The t-immune profile with the lowest flat index, if any.
pub fn first_t_immune_profile(game: &NormalFormGame, t: usize) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_t_immune_profile(t)
}

/// Parallel form of [`find_t_immune_profiles`] under the fan-out rule of
/// `bne_games::parallel`; output is bit-identical to the sequential sweep
/// (index-order concatenation). `workers` is `None` for the rule, or an
/// exact worker count.
pub fn find_t_immune_profiles_with_workers(
    game: &NormalFormGame,
    t: usize,
    workers: impl Into<Option<usize>>,
) -> Vec<ActionProfile> {
    DeviationOracle::new(game).t_immune_profiles_with_workers(t, workers)
}

/// Parallel form of [`first_t_immune_profile`] with deterministic
/// lowest-flat-index-wins semantics. `workers` as in
/// [`find_t_immune_profiles_with_workers`].
pub fn first_t_immune_profile_with_workers(
    game: &NormalFormGame,
    t: usize,
    workers: impl Into<Option<usize>>,
) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_t_immune_profile_with_workers(t, workers)
}

/// The largest `t ≤ max_t` for which `profile` is t-immune.
///
/// Runs in a **single pass** over deviator-set sizes (immunity is
/// monotone in `t`): one below the first size with a hurt bystander,
/// instead of re-scanning every size `≤ t` once per `t`.
pub fn max_immunity(game: &NormalFormGame, profile: &[ActionId], max_t: usize) -> usize {
    game.validate_profile(profile)
        .expect("profile must be valid for the game");
    max_immunity_by_index(game, game.profile_index(profile), max_t)
}

/// Index-based form of [`max_immunity`]. Delegates to the oracle's
/// single-pass classifier (immunity never uses the certificate tables,
/// so no precomputation happens for a single-profile query).
pub fn max_immunity_by_index(game: &NormalFormGame, flat: usize, max_t: usize) -> usize {
    DeviationOracle::new(game).max_immunity(flat, max_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;

    #[test]
    fn bargaining_all_stay_is_not_1_immune() {
        // The paper's bargaining example: a single deviator (leaving the
        // table) drops every stayer from 2 to 0.
        let n = 5;
        let g = classic::bargaining_game(n);
        let all_stay = vec![0; n];
        let violation = immunity_counterexample(&g, &all_stay, 1).expect("violation exists");
        assert_eq!(violation.deviators.len(), 1);
        assert_eq!(violation.before, 2.0);
        assert_eq!(violation.after, 0.0);
        assert_eq!(violation.loss(), 2.0);
        assert!(!is_t_immune(&g, &all_stay, 1));
        assert_eq!(max_immunity(&g, &all_stay, n), 0);
    }

    #[test]
    fn coordination_all_zero_is_1_immune_but_not_2_immune() {
        // In the 0/1 coordination game, one deviator playing 1 leaves the
        // others at 0... wait: with exactly one 1, everyone gets 0, so the
        // non-deviators drop from 1 to 0 — not even 1-immune.
        let g = classic::coordination_game(4);
        let all_zero = vec![0; 4];
        assert!(!is_t_immune(&g, &all_zero, 1));
    }

    #[test]
    fn constant_payoff_game_is_immune_to_everything() {
        // a game where payoffs don't depend on actions at all is t-immune
        // for every t
        let g = bne_games::NormalFormBuilder::new("constant")
            .player("A", &["x", "y"])
            .player("B", &["x", "y"])
            .player("C", &["x", "y"])
            .default_payoff(1.0)
            .build()
            .unwrap();
        for profile in g.profiles() {
            for t in 0..=3 {
                assert!(is_t_immune(&g, &profile, t));
            }
        }
    }

    #[test]
    fn zero_immunity_is_trivial() {
        let g = classic::bargaining_game(3);
        assert!(is_t_immune(&g, &[0, 0, 0], 0));
    }

    #[test]
    fn pd_defection_is_1_immune() {
        // in PD, if your opponent deviates from (D,D) to C you *gain*
        // (from -3 to 5), so (D,D) is 1-immune.
        let pd = classic::prisoners_dilemma();
        assert!(is_t_immune(&pd, &[1, 1], 1));
        // but (C,C) is not: the opponent defecting drops you from 3 to -5.
        assert!(!is_t_immune(&pd, &[0, 0], 1));
    }

    #[test]
    fn profile_space_search_finds_all_immune_profiles() {
        let g = classic::prisoners_dilemma();
        let found = find_t_immune_profiles(&g, 1);
        let expected: Vec<_> = g.profiles().filter(|p| is_t_immune(&g, p, 1)).collect();
        assert_eq!(found, expected);
        assert_eq!(first_t_immune_profile(&g, 1), expected.first().cloned());
        // in the bargaining game the only fragile profile is all-stay
        // (stayers drop from 2 to 0 when anyone leaves); the first immune
        // profile in flat order is therefore [0, 0, 0, 1]
        let b = classic::bargaining_game(4);
        assert_eq!(first_t_immune_profile(&b, 1), Some(vec![0, 0, 0, 1]));
        assert!(!is_t_immune(&b, &[0, 0, 0, 0], 1));
    }

    #[test]
    fn parallel_immune_search_is_bit_identical() {
        for seed in 10..14 {
            let g = bne_games::random::random_game(seed, &[2, 3, 2, 3]);
            for t in 1..=3 {
                let seq = find_t_immune_profiles(&g, t);
                assert_eq!(
                    seq,
                    find_t_immune_profiles_with_workers(&g, t, None),
                    "seed {seed} t {t}"
                );
                assert_eq!(
                    first_t_immune_profile(&g, t),
                    first_t_immune_profile_with_workers(&g, t, None),
                    "seed {seed} t {t}"
                );
                // force real threads
                for workers in [2, 4] {
                    assert_eq!(
                        seq,
                        find_t_immune_profiles_with_workers(&g, t, workers),
                        "seed {seed} t {t} workers {workers}"
                    );
                    assert_eq!(
                        seq.first().cloned(),
                        first_t_immune_profile_with_workers(&g, t, workers),
                        "seed {seed} t {t} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn violation_report_is_consistent() {
        let g = classic::bargaining_game(4);
        let v = immunity_counterexample(&g, &[0; 4], 2).expect("violation exists");
        let mut deviated = vec![0; 4];
        for (&p, &a) in v.deviators.iter().zip(v.deviation.iter()) {
            deviated[p] = a;
        }
        assert!(!v.deviators.contains(&v.victim));
        assert_eq!(v.after, g.payoff(v.victim, &deviated));
        assert_eq!(v.before, g.payoff(v.victim, &[0; 4]));
    }
}
