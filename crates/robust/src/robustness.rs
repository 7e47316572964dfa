//! (k,t)-robust equilibrium: the combination of resilience and immunity.
//!
//! The paper: *"we may want to combine resilience and \[immunity\]; a strategy
//! is (k,t)-robust if it is both k-resilient and t-immune"*, and a Nash
//! equilibrium is exactly a (1,0)-robust equilibrium.
//!
//! Two checks are provided:
//!
//! * the **componentwise** check ([`is_robust`]): `k`-resilient **and**
//!   `t`-immune — the paper's informal definition;
//! * the **joint** check ([`RobustnessChecker`]), following the formal
//!   definition of Abraham, Dolev, Gonen and Halpern: for every disjoint
//!   pair of sets `C` (the rational coalition, `|C| ≤ k`) and `T` (the
//!   faulty players, `|T| ≤ t`) and every joint deviation `τ_T` of the
//!   faulty players,
//!   1. *(immunity under faults)* every player outside `C ∪ T` still gets at
//!      least her equilibrium utility when only `T` deviates, and
//!   2. *(resilience under faults)* for every joint deviation `τ_C` of the
//!      coalition, no member of `C` gets strictly more by playing `τ_C`
//!      than by sticking to the equilibrium strategy, *given* that `T`
//!      plays `τ_T`.
//!
//! With `T = ∅` the joint check reduces to k-resilience and with `C = ∅` to
//! t-immunity, so the joint notion implies the componentwise one, and
//! `(1,0)`-joint-robustness is exactly Nash equilibrium.
//!
//! Exhaustive enumeration is exponential in `k + t`; a sampled variant is
//! provided for larger games and benchmarked against the exhaustive one in
//! `bne-bench`.

use crate::immunity::{is_t_immune, is_t_immune_by_index};
use crate::resilience::{is_k_resilient, is_k_resilient_by_index, ResilienceVariant};
use bne_games::profile::{subsets_up_to_size, ActionProfile};
use bne_games::{ActionId, DeviationOracle, NormalFormGame, PlayerId, SearchStrategy, EPSILON};
use rand::{RngExt, SeedableRng};

/// How to search the space of coalitions and deviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Enumerate every coalition/faulty-set pair and every joint deviation.
    Exhaustive,
    /// Sample this many random (coalition, faulty set, deviation) triples.
    /// A sampled check can prove a profile is **not** robust (a witness is a
    /// witness), but "no witness found" is only evidence, not proof.
    Sampled {
        /// Number of random triples to try.
        samples: usize,
        /// RNG seed, so benchmark runs are reproducible.
        seed: u64,
    },
}

/// The outcome of a (k,t)-robustness check.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// The `k` that was checked.
    pub k: usize,
    /// The `t` that was checked.
    pub t: usize,
    /// Whether the profile passed the check.
    pub robust: bool,
    /// When the check failed, a description of the witness found.
    pub witness: Option<RobustnessWitness>,
    /// Number of (coalition, faulty set, deviation) combinations examined.
    pub combinations_checked: usize,
}

/// A witness that a profile is not (k,t)-robust under the joint definition.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessWitness {
    /// The rational coalition `C`.
    pub coalition: Vec<PlayerId>,
    /// The faulty set `T`.
    pub faulty: Vec<PlayerId>,
    /// The faulty players' deviation (actions in the order of `faulty`).
    pub faulty_deviation: Vec<ActionId>,
    /// The coalition's deviation (actions in the order of `coalition`;
    /// empty when the witness is an immunity violation).
    pub coalition_deviation: Vec<ActionId>,
    /// Why the witness invalidates robustness.
    pub reason: WitnessReason,
}

/// The way a witness breaks (k,t)-robustness.
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessReason {
    /// A coalition member strictly gained (relative to following the
    /// equilibrium strategy against the same faulty behavior).
    CoalitionMemberGains {
        /// The member who gains.
        player: PlayerId,
        /// Utility from following the equilibrium strategy.
        before: f64,
        /// Utility after the coalition deviation.
        after: f64,
    },
    /// A player outside `C ∪ T` was strictly hurt by the faulty players'
    /// deviation.
    BystanderHurt {
        /// The player who is hurt.
        player: PlayerId,
        /// Utility under the equilibrium profile.
        before: f64,
        /// Utility once the faulty players deviate.
        after: f64,
    },
}

/// Componentwise check: `profile` is `k`-resilient (strong variant) and
/// `t`-immune. Nash equilibrium is exactly `is_robust(game, profile, 1, 0)`.
pub fn is_robust(game: &NormalFormGame, profile: &[ActionId], k: usize, t: usize) -> bool {
    is_k_resilient(game, profile, k, ResilienceVariant::SomeMemberGains)
        && is_t_immune(game, profile, t)
}

/// Index-based form of [`is_robust`].
pub fn is_robust_by_index(game: &NormalFormGame, flat: usize, k: usize, t: usize) -> bool {
    is_k_resilient_by_index(game, flat, k, ResilienceVariant::SomeMemberGains)
        && is_t_immune_by_index(game, flat, t)
}

/// Sweeps the whole profile space and collects every (k,t)-robust profile
/// (componentwise definition), in flat-index order. Runs on the
/// [`DeviationOracle`] with the default pruned strategy (best-response
/// certificates plus pre-elimination for `k ≥ 1`); the result is
/// bit-identical to the exhaustive sweep.
pub fn find_robust_profiles(game: &NormalFormGame, k: usize, t: usize) -> Vec<ActionProfile> {
    DeviationOracle::new(game).robust_profiles(k, t)
}

/// [`find_robust_profiles`] with an explicit [`SearchStrategy`]
/// ([`SearchStrategy::Exhaustive`] is the unpruned escape hatch the
/// property tests and the BENCH_4 pruning leg compare against).
pub fn find_robust_profiles_with_strategy(
    game: &NormalFormGame,
    k: usize,
    t: usize,
    strategy: SearchStrategy,
) -> Vec<ActionProfile> {
    DeviationOracle::with_strategy(game, strategy).robust_profiles(k, t)
}

/// The (k,t)-robust profile with the lowest flat index, if any.
pub fn first_robust_profile(game: &NormalFormGame, k: usize, t: usize) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_robust_profile(k, t)
}

/// Parallel form of [`find_robust_profiles`] under the fan-out rule of
/// `bne_games::parallel`; the output is bit-identical to the sequential
/// sweep (index-order concatenation). `workers` is `None` for the rule,
/// or an exact worker count.
pub fn find_robust_profiles_with_workers(
    game: &NormalFormGame,
    k: usize,
    t: usize,
    workers: impl Into<Option<usize>>,
) -> Vec<ActionProfile> {
    DeviationOracle::new(game).robust_profiles_with_workers(k, t, workers)
}

/// Parallel form of [`first_robust_profile`] with deterministic
/// lowest-flat-index-wins semantics. `workers` as in
/// [`find_robust_profiles_with_workers`].
pub fn first_robust_profile_with_workers(
    game: &NormalFormGame,
    k: usize,
    t: usize,
    workers: impl Into<Option<usize>>,
) -> Option<ActionProfile> {
    DeviationOracle::new(game).first_robust_profile_with_workers(k, t, workers)
}

/// The pair `(max resilient k, max immune t)` for the profile (bounded by
/// `max_k` / `max_t`). Because resilience and immunity are each monotone in
/// their parameter, this pair describes the whole componentwise robustness
/// frontier. Each component is found in a single pass over coalition /
/// deviator-set sizes instead of one full re-scan per `k` (per `t`).
pub fn max_robustness(
    game: &NormalFormGame,
    profile: &[ActionId],
    max_k: usize,
    max_t: usize,
) -> (usize, usize) {
    let k =
        crate::resilience::max_resilience(game, profile, max_k, ResilienceVariant::SomeMemberGains);
    let t = crate::immunity::max_immunity(game, profile, max_t);
    (k, t)
}

/// Exhaustive or sampled checker for the joint (k,t)-robustness definition.
#[derive(Debug, Clone)]
pub struct RobustnessChecker {
    mode: SearchMode,
}

impl Default for RobustnessChecker {
    fn default() -> Self {
        RobustnessChecker {
            mode: SearchMode::Exhaustive,
        }
    }
}

impl RobustnessChecker {
    /// An exhaustive checker.
    pub fn exhaustive() -> Self {
        Self::default()
    }

    /// A sampled checker trying `samples` random coalition/deviation
    /// combinations with the given seed.
    pub fn sampled(samples: usize, seed: u64) -> Self {
        RobustnessChecker {
            mode: SearchMode::Sampled { samples, seed },
        }
    }

    /// The search mode of this checker.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// Runs the joint (k,t)-robustness check on a pure profile.
    ///
    /// # Panics
    ///
    /// Panics if `profile` is not a valid profile of `game`.
    pub fn check(
        &self,
        game: &NormalFormGame,
        profile: &[ActionId],
        k: usize,
        t: usize,
    ) -> RobustnessReport {
        game.validate_profile(profile)
            .expect("profile must be valid for the game");
        match self.mode {
            SearchMode::Exhaustive => self.check_exhaustive(game, profile, k, t),
            SearchMode::Sampled { samples, seed } => {
                self.check_sampled(game, profile, k, t, samples, seed)
            }
        }
    }

    /// Evaluates one (coalition, faulty set, faulty deviation) combination,
    /// given the flat index `flat` of the equilibrium profile and the flat
    /// index `faulty_flat` of the profile with only the faulty players
    /// deviating. Returns a witness if the immunity condition fails or some
    /// coalition deviation gains. Runs entirely on stride arithmetic;
    /// allocation happens only when a witness is materialized.
    fn evaluate_at(
        game: &NormalFormGame,
        flat: usize,
        faulty_flat: usize,
        coalition: &[PlayerId],
        faulty: &[PlayerId],
        faulty_deviation: &[ActionId],
        combinations: &mut usize,
    ) -> Option<RobustnessWitness> {
        // (1) immunity under faults: bystanders keep their equilibrium payoff
        for p in 0..game.num_players() {
            if coalition.contains(&p) || faulty.contains(&p) {
                continue;
            }
            let before = game.payoff_by_index(p, flat);
            let after = game.payoff_by_index(p, faulty_flat);
            *combinations += 1;
            if after < before - EPSILON {
                return Some(RobustnessWitness {
                    coalition: coalition.to_vec(),
                    faulty: faulty.to_vec(),
                    faulty_deviation: faulty_deviation.to_vec(),
                    coalition_deviation: Vec::new(),
                    reason: WitnessReason::BystanderHurt {
                        player: p,
                        before,
                        after,
                    },
                });
            }
        }

        // (2) resilience under faults: no coalition deviation lets a member
        // beat what she gets by sticking to the equilibrium strategy.
        if coalition.is_empty() {
            return None;
        }
        let mut witness = None;
        game.visit_coalition_deviations(faulty_flat, coalition, |dev, new_flat| {
            // Coalition and faulty set are disjoint, so on `faulty_flat`
            // the coalition still plays its equilibrium actions: the
            // non-deviation is exactly `new_flat == faulty_flat`.
            if new_flat == faulty_flat {
                return true;
            }
            *combinations += 1;
            for &p in coalition {
                let before = game.payoff_by_index(p, faulty_flat);
                let after = game.payoff_by_index(p, new_flat);
                if after > before + EPSILON {
                    witness = Some(RobustnessWitness {
                        coalition: coalition.to_vec(),
                        faulty: faulty.to_vec(),
                        faulty_deviation: faulty_deviation.to_vec(),
                        coalition_deviation: dev.to_vec(),
                        reason: WitnessReason::CoalitionMemberGains {
                            player: p,
                            before,
                            after,
                        },
                    });
                    return false;
                }
            }
            true
        });
        witness
    }

    fn check_exhaustive(
        &self,
        game: &NormalFormGame,
        profile: &[ActionId],
        k: usize,
        t: usize,
    ) -> RobustnessReport {
        let n = game.num_players();
        let flat = game.profile_index(profile);
        let mut combinations = 0usize;
        let mut coalitions = vec![vec![]];
        coalitions.extend(subsets_up_to_size(n, k.min(n)));
        let mut faulty_sets = vec![vec![]];
        faulty_sets.extend(subsets_up_to_size(n, t.min(n)));
        for coalition in &coalitions {
            for faulty in &faulty_sets {
                if faulty.iter().any(|p| coalition.contains(p)) {
                    continue;
                }
                if coalition.is_empty() && faulty.is_empty() {
                    continue;
                }
                // Enumerate joint faulty deviations by flat index (for the
                // empty faulty set this visits the single "nobody faulty"
                // case). Unlike the coalition case the identity is *not*
                // skipped: faulty players playing their equilibrium actions
                // is still a faulty behavior the coalition reacts to.
                let mut witness = None;
                game.visit_coalition_deviations(flat, faulty, |fd, faulty_flat| {
                    witness = Self::evaluate_at(
                        game,
                        flat,
                        faulty_flat,
                        coalition,
                        faulty,
                        fd,
                        &mut combinations,
                    );
                    witness.is_none()
                });
                if let Some(witness) = witness {
                    return RobustnessReport {
                        k,
                        t,
                        robust: false,
                        witness: Some(witness),
                        combinations_checked: combinations,
                    };
                }
            }
        }
        RobustnessReport {
            k,
            t,
            robust: true,
            witness: None,
            combinations_checked: combinations,
        }
    }

    fn check_sampled(
        &self,
        game: &NormalFormGame,
        profile: &[ActionId],
        k: usize,
        t: usize,
        samples: usize,
        seed: u64,
    ) -> RobustnessReport {
        let n = game.num_players();
        let flat = game.profile_index(profile);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut combinations = 0usize;
        for _ in 0..samples {
            let ksize = rng.random_range(0..=k.min(n));
            let tsize = rng.random_range(0..=t.min(n));
            if ksize + tsize == 0 || ksize + tsize > n {
                continue;
            }
            let mut players: Vec<PlayerId> = (0..n).collect();
            for i in 0..(ksize + tsize) {
                let j = rng.random_range(i..n);
                players.swap(i, j);
            }
            let mut coalition: Vec<PlayerId> = players[..ksize].to_vec();
            let mut faulty: Vec<PlayerId> = players[ksize..ksize + tsize].to_vec();
            coalition.sort_unstable();
            faulty.sort_unstable();
            let mut faulty_flat = flat;
            let faulty_deviation: Vec<ActionId> = faulty
                .iter()
                .map(|&p| {
                    let a = rng.random_range(0..game.num_actions(p));
                    faulty_flat = game.deviate_index(faulty_flat, p, a);
                    a
                })
                .collect();
            if let Some(witness) = Self::evaluate_at(
                game,
                flat,
                faulty_flat,
                &coalition,
                &faulty,
                &faulty_deviation,
                &mut combinations,
            ) {
                return RobustnessReport {
                    k,
                    t,
                    robust: false,
                    witness: Some(witness),
                    combinations_checked: combinations,
                };
            }
        }
        RobustnessReport {
            k,
            t,
            robust: true,
            witness: None,
            combinations_checked: combinations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;

    #[test]
    fn nash_equilibrium_is_exactly_1_0_robust() {
        let pd = classic::prisoners_dilemma();
        let checker = RobustnessChecker::exhaustive();
        for profile in pd.profiles() {
            assert_eq!(
                is_robust(&pd, &profile, 1, 0),
                pd.is_pure_nash(&profile),
                "componentwise, profile {profile:?}"
            );
            assert_eq!(
                checker.check(&pd, &profile, 1, 0).robust,
                pd.is_pure_nash(&profile),
                "joint, profile {profile:?}"
            );
        }
    }

    #[test]
    fn bargaining_resilient_but_not_robust() {
        let n = 5;
        let g = classic::bargaining_game(n);
        let all_stay = vec![0; n];
        assert!(is_robust(&g, &all_stay, n, 0));
        assert!(!is_robust(&g, &all_stay, 1, 1));
        let (k, t) = max_robustness(&g, &all_stay, n, n);
        assert_eq!(k, n);
        assert_eq!(t, 0);
        // joint checker agrees
        let checker = RobustnessChecker::exhaustive();
        assert!(checker.check(&g, &all_stay, n, 0).robust);
        assert!(!checker.check(&g, &all_stay, 1, 1).robust);
    }

    #[test]
    fn joint_checker_agrees_with_componentwise_on_paper_examples() {
        let coord = classic::coordination_game(4);
        let bargain = classic::bargaining_game(4);
        let checker = RobustnessChecker::exhaustive();
        for (game, profile) in [(&coord, vec![0; 4]), (&bargain, vec![0; 4])] {
            for k in 0..=2 {
                for t in 0..=2 {
                    if k == 0 && t == 0 {
                        continue;
                    }
                    let joint = checker.check(game, &profile, k, t).robust;
                    let comp = is_robust(game, &profile, k, t);
                    assert_eq!(joint, comp, "game {} k={k} t={t}", game.name());
                }
            }
        }
    }

    #[test]
    fn joint_witness_explains_failure() {
        let g = classic::coordination_game(4);
        let checker = RobustnessChecker::exhaustive();
        let report = checker.check(&g, &[0; 4], 2, 0);
        assert!(!report.robust);
        let w = report.witness.expect("witness exists");
        assert!(matches!(
            w.reason,
            WitnessReason::CoalitionMemberGains { .. }
        ));
        assert!(w.faulty.is_empty());
        assert_eq!(w.coalition.len(), 2);
    }

    #[test]
    fn bystander_hurt_witness_in_bargaining() {
        let g = classic::bargaining_game(4);
        let checker = RobustnessChecker::exhaustive();
        let report = checker.check(&g, &[0; 4], 0, 1);
        assert!(!report.robust);
        let w = report.witness.expect("witness exists");
        assert!(matches!(w.reason, WitnessReason::BystanderHurt { .. }));
        assert!(w.coalition.is_empty());
        assert_eq!(w.faulty.len(), 1);
    }

    #[test]
    fn sampled_checker_finds_easy_witnesses() {
        let g = classic::bargaining_game(6);
        let checker = RobustnessChecker::sampled(2_000, 42);
        let report = checker.check(&g, &[0; 6], 0, 1);
        assert!(
            !report.robust,
            "sampled search should find the 1-deviator witness"
        );
    }

    #[test]
    fn sampled_checker_reports_mode() {
        let checker = RobustnessChecker::sampled(10, 1);
        assert!(matches!(
            checker.mode(),
            SearchMode::Sampled { samples: 10, .. }
        ));
        assert!(matches!(
            RobustnessChecker::exhaustive().mode(),
            SearchMode::Exhaustive
        ));
    }

    #[test]
    fn constant_game_is_robust_for_all_k_t() {
        let g = bne_games::NormalFormBuilder::new("constant")
            .player("A", &["x", "y"])
            .player("B", &["x", "y"])
            .player("C", &["x", "y"])
            .default_payoff(1.0)
            .build()
            .unwrap();
        let checker = RobustnessChecker::exhaustive();
        let report = checker.check(&g, &[0, 0, 0], 3, 3);
        assert!(report.robust);
        assert!(report.combinations_checked > 0);
    }

    #[test]
    fn robust_profile_search_matches_filtering() {
        let g = classic::coordination_game(4);
        for (k, t) in [(1, 0), (2, 0), (1, 1)] {
            let found = find_robust_profiles(&g, k, t);
            let expected: Vec<_> = g.profiles().filter(|p| is_robust(&g, p, k, t)).collect();
            assert_eq!(found, expected, "k={k} t={t}");
            assert_eq!(
                first_robust_profile(&g, k, t),
                expected.first().cloned(),
                "k={k} t={t}"
            );
        }
    }

    #[test]
    fn parallel_robust_search_is_bit_identical() {
        for seed in 20..24 {
            let g = bne_games::random::random_game(seed, &[2, 2, 3, 3]);
            for (k, t) in [(1, 0), (2, 1), (1, 2)] {
                let seq = find_robust_profiles(&g, k, t);
                assert_eq!(
                    seq,
                    find_robust_profiles_with_workers(&g, k, t, None),
                    "seed {seed} k={k} t={t}"
                );
                assert_eq!(
                    first_robust_profile(&g, k, t),
                    first_robust_profile_with_workers(&g, k, t, None),
                    "seed {seed} k={k} t={t}"
                );
                // force real threads
                for workers in [2, 4] {
                    assert_eq!(
                        seq,
                        find_robust_profiles_with_workers(&g, k, t, workers),
                        "seed {seed} k={k} t={t} workers {workers}"
                    );
                    assert_eq!(
                        seq.first().cloned(),
                        first_robust_profile_with_workers(&g, k, t, workers),
                        "seed {seed} k={k} t={t} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_behavior_can_create_coalition_opportunities() {
        // In the coordination game with one faulty player already playing 1,
        // a single rational player can join them and both "1" players get 2:
        // all-zero is not (1,1)-robust jointly.
        let g = classic::coordination_game(5);
        let checker = RobustnessChecker::exhaustive();
        let report = checker.check(&g, &[0; 5], 1, 1);
        assert!(!report.robust);
        // componentwise misses this interaction when it only checks
        // resilience and immunity separately — here immunity already fails
        // too, so both reject, but the joint witness can involve both a
        // faulty player and a coalition member.
        assert!(report.witness.is_some());
    }
}
