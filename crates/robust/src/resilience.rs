//! k-resilience: tolerating coordinated deviations by coalitions.
//!
//! A strategy profile is *k-resilient* if no coalition of at most `k`
//! players can jointly deviate in a way that benefits its members. The
//! notion goes back to Aumann (1959); the paper uses the strong form of
//! Abraham et al. in which a deviation counts as an objection when **any**
//! coalition member strictly gains. A weaker variant (all members must
//! strictly gain) is also provided for comparison, since both appear in the
//! coalition-proofness literature the paper cites (Bernheim–Peleg–Whinston,
//! Moreno–Wooders).

use bne_games::profile::{try_for_each_subset_of_size, ActionProfile};
use bne_games::{ActionId, DeviationOracle, NormalFormGame, PlayerId, SearchStrategy, EPSILON};

/// Which players must benefit for a coalition deviation to count as a
/// successful objection. Re-exported from the [`bne_games::oracle`]
/// deviation core, which owns the hot-path predicate.
pub use bne_games::ResilienceVariant;

/// A successful coalition deviation: a witness that a profile is not
/// k-resilient.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalitionDeviation {
    /// The deviating coalition (player indices, increasing).
    pub coalition: Vec<PlayerId>,
    /// The actions the coalition members switch to, in the same order as
    /// `coalition`.
    pub deviation: Vec<ActionId>,
    /// Utility of each coalition member before the deviation.
    pub before: Vec<f64>,
    /// Utility of each coalition member after the deviation.
    pub after: Vec<f64>,
}

impl CoalitionDeviation {
    /// The largest per-member gain achieved by this deviation.
    pub fn max_gain(&self) -> f64 {
        self.before
            .iter()
            .zip(self.after.iter())
            .map(|(b, a)| a - b)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Searches for a coalition of size at most `k` whose members can profitably
/// deviate from `profile` (under the given variant). Returns the first
/// witness found, or `None` if the profile is k-resilient.
///
/// # Panics
///
/// Panics if `profile` is not a valid pure profile of `game`.
pub fn resilience_counterexample(
    game: &NormalFormGame,
    profile: &[ActionId],
    k: usize,
    variant: ResilienceVariant,
) -> Option<CoalitionDeviation> {
    game.validate_profile(profile)
        .expect("profile must be valid for the game");
    resilience_counterexample_by_index(game, game.profile_index(profile), k, variant)
}

/// Index-based form of [`resilience_counterexample`]: the profile is given
/// as its flat index and the whole search runs on stride arithmetic —
/// cloning and re-encoding only happen when a witness is materialized.
pub fn resilience_counterexample_by_index(
    game: &NormalFormGame,
    flat: usize,
    k: usize,
    variant: ResilienceVariant,
) -> Option<CoalitionDeviation> {
    if k == 0 {
        return None;
    }
    let n = game.num_players();
    // Size-1 fast path: unilateral deviations are pure stride walks, and
    // they dominate the sweep (most profiles are rejected here). The
    // enumeration order — player ascending, action ascending — matches the
    // general subset machinery exactly, so witnesses are unchanged.
    for p in 0..n {
        let stride = game.strides()[p];
        let base = flat - game.action_at(flat, p) * stride;
        let before_p = game.payoff_by_index(p, flat);
        for a in 0..game.num_actions(p) {
            let new_flat = base + a * stride;
            if new_flat != flat && game.payoff_by_index(p, new_flat) > before_p + EPSILON {
                return Some(CoalitionDeviation {
                    coalition: vec![p],
                    deviation: vec![a],
                    before: vec![before_p],
                    after: vec![game.payoff_by_index(p, new_flat)],
                });
            }
        }
    }
    let mut witness = None;
    // Stack-resident payoff snapshot of the coalition, reused across the
    // scan (see `with_scratch`: heap fallback only beyond 16 members).
    bne_games::profile::with_scratch::<f64, ()>(k.min(n), |before| {
        for size in 2..=k.min(n) {
            if resilience_size_scan(game, flat, size, variant, before, &mut witness) {
                break;
            }
        }
    });
    witness
}

/// Scans the coalitions of exactly `size` members for a profitable joint
/// deviation, materializing the first witness found. Returns `true` when
/// a witness was found (the sweep stopped early).
fn resilience_size_scan(
    game: &NormalFormGame,
    flat: usize,
    size: usize,
    variant: ResilienceVariant,
    before: &mut [f64],
    witness: &mut Option<CoalitionDeviation>,
) -> bool {
    let n = game.num_players();
    !try_for_each_subset_of_size(n, size, |coalition| {
        let before = &mut before[..size];
        for (slot, &p) in before.iter_mut().zip(coalition.iter()) {
            *slot = game.payoff_by_index(p, flat);
        }
        game.visit_coalition_deviations(flat, coalition, |dev, new_flat| {
            if new_flat == flat {
                return true; // the non-deviation
            }
            let success = match variant {
                ResilienceVariant::SomeMemberGains => coalition
                    .iter()
                    .zip(before.iter())
                    .any(|(&p, b)| game.payoff_by_index(p, new_flat) > *b + EPSILON),
                ResilienceVariant::AllMembersGain => coalition
                    .iter()
                    .zip(before.iter())
                    .all(|(&p, b)| game.payoff_by_index(p, new_flat) > *b + EPSILON),
            };
            if success {
                *witness = Some(CoalitionDeviation {
                    coalition: coalition.to_vec(),
                    deviation: dev.to_vec(),
                    before: before.to_vec(),
                    after: coalition
                        .iter()
                        .map(|&p| game.payoff_by_index(p, new_flat))
                        .collect(),
                });
                return false;
            }
            true
        })
    })
}

/// Whether `profile` is k-resilient under the given variant.
///
/// A 1-resilient profile (under either variant) is exactly a pure Nash
/// equilibrium.
pub fn is_k_resilient(
    game: &NormalFormGame,
    profile: &[ActionId],
    k: usize,
    variant: ResilienceVariant,
) -> bool {
    resilience_counterexample(game, profile, k, variant).is_none()
}

/// Index-based form of [`is_k_resilient`].
pub fn is_k_resilient_by_index(
    game: &NormalFormGame,
    flat: usize,
    k: usize,
    variant: ResilienceVariant,
) -> bool {
    resilience_counterexample_by_index(game, flat, k, variant).is_none()
}

/// Sweeps the whole profile space and collects every k-resilient profile,
/// in flat-index order. Runs on the [`DeviationOracle`] with the default
/// pruned strategy (best-response certificates plus pre-elimination for
/// `k ≥ 1`); the result is bit-identical to the exhaustive sweep.
pub fn find_k_resilient_profiles(
    game: &NormalFormGame,
    k: usize,
    variant: ResilienceVariant,
) -> Vec<ActionProfile> {
    DeviationOracle::new(game).k_resilient_profiles(k, variant)
}

/// The k-resilient profile with the lowest flat index, if any.
pub fn first_k_resilient_profile(
    game: &NormalFormGame,
    k: usize,
    variant: ResilienceVariant,
) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_k_resilient_profile(k, variant)
}

/// Parallel form of [`find_k_resilient_profiles`]: ranges of the flat
/// profile space fan out under the rule of `bne_games::parallel` and
/// their results concatenate in index order, so the output is
/// bit-identical to the sequential sweep. `workers` is `None` for the
/// rule, or an exact worker count (lets tests force real threads on any
/// machine).
pub fn find_k_resilient_profiles_with_workers(
    game: &NormalFormGame,
    k: usize,
    variant: ResilienceVariant,
    workers: impl Into<Option<usize>>,
) -> Vec<ActionProfile> {
    DeviationOracle::new(game).k_resilient_profiles_with_workers(k, variant, workers)
}

/// Parallel form of [`first_k_resilient_profile`] with deterministic
/// first-witness semantics: always the lowest flat index, independent of
/// thread timing. `workers` as in
/// [`find_k_resilient_profiles_with_workers`].
pub fn first_k_resilient_profile_with_workers(
    game: &NormalFormGame,
    k: usize,
    variant: ResilienceVariant,
    workers: impl Into<Option<usize>>,
) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_k_resilient_profile_with_workers(k, variant, workers)
}

/// The largest `k ≤ max_k` for which `profile` is k-resilient (0 means not
/// even 1-resilient, i.e. not a Nash equilibrium).
///
/// Runs in a **single pass** over coalition sizes: resilience is monotone
/// in `k`, so the answer is one below the first size with a profitable
/// deviation. The per-`k` re-scan this replaces re-examined every size
/// `≤ k` once per `k`.
pub fn max_resilience(
    game: &NormalFormGame,
    profile: &[ActionId],
    max_k: usize,
    variant: ResilienceVariant,
) -> usize {
    game.validate_profile(profile)
        .expect("profile must be valid for the game");
    max_resilience_by_index(game, game.profile_index(profile), max_k, variant)
}

/// Index-based form of [`max_resilience`]. Delegates to the oracle's
/// single-pass classifier; the exhaustive strategy skips table
/// construction, which a single-profile query cannot amortize.
pub fn max_resilience_by_index(
    game: &NormalFormGame,
    flat: usize,
    max_k: usize,
    variant: ResilienceVariant,
) -> usize {
    DeviationOracle::with_strategy(game, SearchStrategy::Exhaustive)
        .max_resilience(flat, max_k, variant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;

    #[test]
    fn one_resilience_equals_nash() {
        let pd = classic::prisoners_dilemma();
        for profile in pd.profiles() {
            assert_eq!(
                is_k_resilient(&pd, &profile, 1, ResilienceVariant::SomeMemberGains),
                pd.is_pure_nash(&profile),
                "profile {profile:?}"
            );
        }
    }

    #[test]
    fn coordination_all_zero_is_nash_but_not_2_resilient() {
        // The paper's Section 2 example: everyone playing 0 is a Nash
        // equilibrium, but any pair can deviate to 1 and jump from 1 to 2.
        let g = classic::coordination_game(5);
        let all_zero = vec![0; 5];
        assert!(is_k_resilient(
            &g,
            &all_zero,
            1,
            ResilienceVariant::SomeMemberGains
        ));
        let witness =
            resilience_counterexample(&g, &all_zero, 2, ResilienceVariant::SomeMemberGains)
                .expect("a pair deviation exists");
        assert_eq!(witness.coalition.len(), 2);
        assert!(witness.after.iter().all(|&u| u == 2.0));
        assert!(witness.before.iter().all(|&u| u == 1.0));
        assert!((witness.max_gain() - 1.0).abs() < 1e-12);
        assert_eq!(
            max_resilience(&g, &all_zero, 5, ResilienceVariant::SomeMemberGains),
            1
        );
    }

    #[test]
    fn coordination_not_2_resilient_even_under_weak_variant() {
        let g = classic::coordination_game(4);
        let all_zero = vec![0; 4];
        // both deviators strictly gain, so even the all-members-gain variant
        // rejects 2-resilience
        assert!(!is_k_resilient(
            &g,
            &all_zero,
            2,
            ResilienceVariant::AllMembersGain
        ));
    }

    #[test]
    fn bargaining_all_stay_is_resilient_for_every_k() {
        // The paper: everyone staying is k-resilient for all k (a deviating
        // coalition drops from 2 to 1), yet fragile in the immunity sense.
        let n = 6;
        let g = classic::bargaining_game(n);
        let all_stay = vec![0; n];
        for k in 1..=n {
            assert!(
                is_k_resilient(&g, &all_stay, k, ResilienceVariant::SomeMemberGains),
                "failed at k = {k}"
            );
        }
        assert_eq!(
            max_resilience(&g, &all_stay, n, ResilienceVariant::SomeMemberGains),
            n
        );
    }

    #[test]
    fn pd_defection_is_2_resilient_under_strong_variant_only_if_no_gain() {
        let pd = classic::prisoners_dilemma();
        // (D, D): the grand coalition deviating to (C, C) moves both from -3
        // to 3, so it is NOT 2-resilient.
        assert!(!is_k_resilient(
            &pd,
            &[1, 1],
            2,
            ResilienceVariant::SomeMemberGains
        ));
        // but it is 1-resilient (it is the Nash equilibrium)
        assert!(is_k_resilient(
            &pd,
            &[1, 1],
            1,
            ResilienceVariant::SomeMemberGains
        ));
    }

    #[test]
    fn weak_variant_is_weaker_than_strong() {
        // any profile rejected by the weak variant must be rejected by the
        // strong variant too
        let g = classic::coordination_game(4);
        for profile in g.profiles() {
            for k in 1..=3 {
                let strong = is_k_resilient(&g, &profile, k, ResilienceVariant::SomeMemberGains);
                let weak = is_k_resilient(&g, &profile, k, ResilienceVariant::AllMembersGain);
                if strong {
                    assert!(weak, "strong resilience must imply weak resilience");
                }
            }
        }
    }

    #[test]
    fn zero_resilience_is_trivially_true() {
        let pd = classic::prisoners_dilemma();
        assert!(is_k_resilient(
            &pd,
            &[0, 0],
            0,
            ResilienceVariant::SomeMemberGains
        ));
    }

    #[test]
    fn profile_space_search_finds_all_resilient_profiles() {
        let g = classic::coordination_game(4);
        let found = find_k_resilient_profiles(&g, 1, ResilienceVariant::SomeMemberGains);
        let expected: Vec<_> = g
            .profiles()
            .filter(|p| is_k_resilient(&g, p, 1, ResilienceVariant::SomeMemberGains))
            .collect();
        assert_eq!(found, expected);
        assert_eq!(
            first_k_resilient_profile(&g, 1, ResilienceVariant::SomeMemberGains),
            expected.first().cloned()
        );
        // no profile of matching pennies is 1-resilient (no pure Nash)
        let mp = classic::matching_pennies();
        assert!(first_k_resilient_profile(&mp, 1, ResilienceVariant::SomeMemberGains).is_none());
    }

    #[test]
    fn parallel_resilient_search_is_bit_identical() {
        for seed in 0..4 {
            let g = bne_games::random::random_game(seed, &[3, 3, 2, 2]);
            for k in 1..=3 {
                let seq = find_k_resilient_profiles(&g, k, ResilienceVariant::SomeMemberGains);
                let par = find_k_resilient_profiles_with_workers(
                    &g,
                    k,
                    ResilienceVariant::SomeMemberGains,
                    None,
                );
                assert_eq!(seq, par, "seed {seed} k {k}");
                // force real threads (public entry points may fall back to
                // one worker on small machines)
                for workers in [2, 4] {
                    assert_eq!(
                        seq,
                        find_k_resilient_profiles_with_workers(
                            &g,
                            k,
                            ResilienceVariant::SomeMemberGains,
                            workers
                        ),
                        "seed {seed} k {k} workers {workers}"
                    );
                    assert_eq!(
                        seq.first().cloned(),
                        first_k_resilient_profile_with_workers(
                            &g,
                            k,
                            ResilienceVariant::SomeMemberGains,
                            workers
                        ),
                        "seed {seed} k {k} workers {workers}"
                    );
                }
                assert_eq!(
                    first_k_resilient_profile(&g, k, ResilienceVariant::SomeMemberGains),
                    first_k_resilient_profile_with_workers(
                        &g,
                        k,
                        ResilienceVariant::SomeMemberGains,
                        None
                    ),
                    "seed {seed} k {k}"
                );
            }
        }
    }

    #[test]
    fn counterexample_reports_consistent_payoffs() {
        let g = classic::coordination_game(4);
        let w = resilience_counterexample(&g, &[0; 4], 3, ResilienceVariant::SomeMemberGains)
            .expect("witness exists");
        let mut deviated = vec![0; 4];
        for (&p, &a) in w.coalition.iter().zip(w.deviation.iter()) {
            deviated[p] = a;
        }
        for (i, &p) in w.coalition.iter().enumerate() {
            assert_eq!(w.after[i], g.payoff(p, &deviated));
            assert_eq!(w.before[i], g.payoff(p, &[0; 4]));
        }
    }
}
