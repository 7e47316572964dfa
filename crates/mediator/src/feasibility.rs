//! The Abraham–Dolev–Gonen–Halpern feasibility regimes.
//!
//! Section 2 of the paper summarizes nine results about when a (k,t)-robust
//! strategy with a mediator can be implemented by cheap talk among `n`
//! players. This module encodes that catalogue as an executable
//! classification: given `(n, k, t)` and the available [`Assumptions`], it
//! reports whether an exact implementation exists, whether an
//! ε-implementation exists, what running-time guarantee is available, and
//! which bullet of the paper justified the answer.
//!
//! The classification is the *statement* of the theorems, not a proof; the
//! executable evidence lives in `bne_net::cheap_talk` (constructive, for
//! the regimes where we implement the protocol) and in `bne-byzantine`
//! (the `t < n/3` boundary that drives the impossibility results).

use bne_games::{ActionId, Concept, DeviationOracle, NormalFormGame, Utility};

/// Extra assumptions a cheap-talk implementation may rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Assumptions {
    /// The other players' utilities are known to the protocol designer.
    pub known_utilities: bool,
    /// A `(k + t)`-punishment strategy exists (see
    /// `bne_robust::punishment`).
    pub punishment_strategy: bool,
    /// Broadcast channels are available.
    pub broadcast_channels: bool,
    /// Cryptography is available and players are polynomially bounded.
    pub cryptography: bool,
    /// A public-key infrastructure has been set up.
    pub pki: bool,
}

impl Assumptions {
    /// No extra assumptions at all (pure cheap talk over private channels).
    pub fn none() -> Self {
        Assumptions::default()
    }

    /// Every assumption the paper ever invokes.
    pub fn all() -> Self {
        Assumptions {
            known_utilities: true,
            punishment_strategy: true,
            broadcast_channels: true,
            cryptography: true,
            pki: true,
        }
    }

    /// Replaces the *claimed* `punishment_strategy` bit with a
    /// **verified** one: an oracle-backed search for an actual
    /// `(k + t)`-punishment strategy relative to `equilibrium` in the
    /// concrete `game` (the requirement of the paper's bullet 3 regime,
    /// `2k + 3t < n ≤ 3k + 3t`). Having the utilities in hand also means
    /// `known_utilities` holds.
    ///
    /// # Panics
    ///
    /// Panics if `equilibrium` is not a valid profile of `game`.
    pub fn verified_for_game(
        mut self,
        game: &NormalFormGame,
        equilibrium: &[ActionId],
        k: usize,
        t: usize,
    ) -> Self {
        game.validate_profile(equilibrium)
            .expect("equilibrium profile must be valid");
        let base: Vec<Utility> = (0..game.num_players())
            .map(|p| game.payoff(p, equilibrium))
            .collect();
        self.known_utilities = true;
        let punishment = Concept::Punishment {
            base: &base,
            p: k + t,
        };
        self.punishment_strategy = DeviationOracle::new(game)
            .first_profile(&punishment, None)
            .is_some();
        self
    }
}

/// Classifies `(k, t)` for the concrete `game` (with `n` its player
/// count), constructively verifying the punishment-strategy assumption
/// through the deviation oracle instead of taking it on faith: the
/// catalogue's bullet 3 only fires when a `(k + t)`-punishment strategy
/// relative to `equilibrium` actually exists in the game.
pub fn classify_regime_for_game(
    game: &NormalFormGame,
    equilibrium: &[ActionId],
    k: usize,
    t: usize,
    assumptions: Assumptions,
) -> RegimeResult {
    let verified = assumptions.verified_for_game(game, equilibrium, k, t);
    classify_regime(game.num_players(), k, t, verified)
}

/// The running-time guarantee attached to a feasible implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeBound {
    /// Bounded running time that does not depend on the utilities.
    BoundedUtilityIndependent,
    /// Finite *expected* running time that does not depend on the utilities.
    FiniteExpectedUtilityIndependent,
    /// Bounded *expected* running time that does not depend on the
    /// utilities.
    BoundedExpectedUtilityIndependent,
    /// The (expected) running time necessarily depends on the utility
    /// functions and on ε.
    DependsOnUtilities,
}

/// What kind of implementation is possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementability {
    /// An exact (k,t)-robust implementation exists.
    Exact(RuntimeBound),
    /// Only an ε-implementation exists (players get within ε of the
    /// mediator payoffs for every ε > 0).
    Epsilon(RuntimeBound),
    /// No implementation exists in general under the stated assumptions.
    Impossible,
}

/// The outcome of classifying one `(n, k, t, assumptions)` combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegimeResult {
    /// Number of players.
    pub n: usize,
    /// Coalition bound.
    pub k: usize,
    /// Fault bound.
    pub t: usize,
    /// The assumptions that were granted.
    pub assumptions: Assumptions,
    /// What can be achieved.
    pub implementability: Implementability,
    /// The bullet(s) of the paper's summary that justify the verdict,
    /// 1-indexed in the order they appear in Section 2.
    pub justification: Vec<usize>,
}

/// Classifies one parameter combination according to the nine bullets of
/// Section 2.
///
/// Bullets are consulted from the strongest threshold downwards; the first
/// positive result that applies wins, and the matching negative results are
/// recorded when nothing applies.
pub fn classify_regime(n: usize, k: usize, t: usize, assumptions: Assumptions) -> RegimeResult {
    let mut justification = Vec::new();
    let implementability;

    if n > 3 * k + 3 * t {
        // Bullet 1: no knowledge of utilities needed, bounded running time.
        justification.push(1);
        implementability = Implementability::Exact(RuntimeBound::BoundedUtilityIndependent);
    } else if n > 2 * k + 3 * t {
        // Bullets 2 & 3: below 3k+3t utilities must be known and a
        // punishment strategy is required; with them, finite expected
        // running time independent of utilities.
        if assumptions.known_utilities && assumptions.punishment_strategy {
            justification.push(3);
            implementability =
                Implementability::Exact(RuntimeBound::FiniteExpectedUtilityIndependent);
        } else {
            justification.push(2);
            implementability = Implementability::Impossible;
        }
    } else if n > 2 * k + 2 * t && assumptions.broadcast_channels {
        // Bullet 5: ε-implementation with broadcast channels, bounded
        // expected running time independent of utilities.
        justification.push(5);
        implementability =
            Implementability::Epsilon(RuntimeBound::BoundedExpectedUtilityIndependent);
    } else if n > k + 3 * t && assumptions.cryptography {
        // Bullet 7: cryptography and polynomially bounded players give an
        // ε-implementation; if n ≤ 2k + 2t the running time depends on the
        // utilities and ε (bullet 6).
        justification.push(7);
        let bound = if n > 2 * k + 2 * t {
            RuntimeBound::BoundedExpectedUtilityIndependent
        } else {
            justification.push(6);
            RuntimeBound::DependsOnUtilities
        };
        implementability = Implementability::Epsilon(bound);
    } else if n > k + t && assumptions.cryptography && assumptions.pki {
        // Bullet 9: with a PKI the k + t bound is enough; running time
        // depends on utilities below 2k + 2t (bullet 6).
        justification.push(9);
        let bound = if n > 2 * k + 2 * t {
            RuntimeBound::BoundedExpectedUtilityIndependent
        } else {
            justification.push(6);
            RuntimeBound::DependsOnUtilities
        };
        implementability = Implementability::Epsilon(bound);
    } else {
        // Negative bullets: 4 (n ≤ 2k + 3t), 6 (n ≤ 2k + 2t), 8 (n ≤ k + 3t).
        if n <= 2 * k + 3 * t {
            justification.push(4);
        }
        if n <= 2 * k + 2 * t {
            justification.push(6);
        }
        if n <= k + 3 * t {
            justification.push(8);
        }
        implementability = Implementability::Impossible;
    }

    RegimeResult {
        n,
        k,
        t,
        assumptions,
        implementability,
        justification,
    }
}

/// Generates the full regime table for `n ≤ max_n`, `k ≤ max_k`, `t ≤ max_t`
/// under the given assumptions — the data behind experiment E3.
pub fn regime_table(
    max_n: usize,
    max_k: usize,
    max_t: usize,
    assumptions: Assumptions,
) -> Vec<RegimeResult> {
    let mut rows = Vec::new();
    for n in 1..=max_n {
        for k in 0..=max_k {
            for t in 0..=max_t {
                if k + t == 0 {
                    continue;
                }
                rows.push(classify_regime(n, k, t, assumptions));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nash_case_always_exactly_implementable_with_enough_players() {
        // (k, t) = (1, 0) — ordinary Nash — needs only n > 3
        let r = classify_regime(4, 1, 0, Assumptions::none());
        assert_eq!(
            r.implementability,
            Implementability::Exact(RuntimeBound::BoundedUtilityIndependent)
        );
        assert_eq!(r.justification, vec![1]);
    }

    #[test]
    fn strong_regime_needs_no_assumptions() {
        // n = 13 > 3k + 3t = 12
        let r = classify_regime(13, 2, 2, Assumptions::none());
        assert!(matches!(r.implementability, Implementability::Exact(_)));
    }

    #[test]
    fn middle_regime_requires_punishment_and_known_utilities() {
        // 2k + 3t = 10 < n = 11 ≤ 3k + 3t = 12
        let without = classify_regime(11, 2, 2, Assumptions::none());
        assert_eq!(without.implementability, Implementability::Impossible);
        assert_eq!(without.justification, vec![2]);

        let with = classify_regime(
            11,
            2,
            2,
            Assumptions {
                known_utilities: true,
                punishment_strategy: true,
                ..Assumptions::none()
            },
        );
        assert_eq!(
            with.implementability,
            Implementability::Exact(RuntimeBound::FiniteExpectedUtilityIndependent)
        );
        assert_eq!(with.justification, vec![3]);
    }

    #[test]
    fn broadcast_gives_epsilon_above_2k_plus_2t() {
        // n = 9, k = 2, t = 2: 2k+3t = 10 ≥ n, but 2k+2t = 8 < n
        let without = classify_regime(9, 2, 2, Assumptions::none());
        assert_eq!(without.implementability, Implementability::Impossible);

        let with = classify_regime(
            9,
            2,
            2,
            Assumptions {
                broadcast_channels: true,
                ..Assumptions::none()
            },
        );
        assert_eq!(
            with.implementability,
            Implementability::Epsilon(RuntimeBound::BoundedExpectedUtilityIndependent)
        );
        assert_eq!(with.justification, vec![5]);
    }

    #[test]
    fn crypto_gives_epsilon_above_k_plus_3t() {
        // n = 8, k = 1, t = 2: 2k+2t = 6 < 8 — but no broadcast; with crypto
        // n > k + 3t = 7 holds.
        let r = classify_regime(
            8,
            1,
            2,
            Assumptions {
                cryptography: true,
                ..Assumptions::none()
            },
        );
        assert!(matches!(r.implementability, Implementability::Epsilon(_)));
        assert!(r.justification.contains(&7));
    }

    #[test]
    fn crypto_below_2k_plus_2t_costs_utility_dependence() {
        // n = 5, k = 2, t = 1: k + 3t = 5 not < n... choose n = 6, k = 2,
        // t = 1: k + 3t = 5 < 6, 2k + 2t = 6 ≥ 6 → utility-dependent runtime
        let r = classify_regime(
            6,
            2,
            1,
            Assumptions {
                cryptography: true,
                ..Assumptions::none()
            },
        );
        assert_eq!(
            r.implementability,
            Implementability::Epsilon(RuntimeBound::DependsOnUtilities)
        );
        assert!(r.justification.contains(&6));
    }

    #[test]
    fn pki_pushes_the_bound_down_to_k_plus_t() {
        // n = 4, k = 2, t = 1: k + 3t = 5 ≥ n, so crypto alone is not
        // enough; with a PKI, n > k + t = 3 suffices.
        let crypto_only = classify_regime(
            4,
            2,
            1,
            Assumptions {
                cryptography: true,
                ..Assumptions::none()
            },
        );
        assert_eq!(crypto_only.implementability, Implementability::Impossible);
        assert!(crypto_only.justification.contains(&8));

        let with_pki = classify_regime(
            4,
            2,
            1,
            Assumptions {
                cryptography: true,
                pki: true,
                ..Assumptions::none()
            },
        );
        assert!(matches!(
            with_pki.implementability,
            Implementability::Epsilon(_)
        ));
        assert!(with_pki.justification.contains(&9));
    }

    #[test]
    fn below_k_plus_t_nothing_helps() {
        // n = 3, k = 2, t = 1: n ≤ k + t = 3 — impossible even with all
        // assumptions.
        let r = classify_regime(3, 2, 1, Assumptions::all());
        assert_eq!(r.implementability, Implementability::Impossible);
    }

    #[test]
    fn punishment_assumption_is_verified_constructively() {
        use bne_games::classic;
        // Bargaining, n = 6, (k, t) = (1, 1): 2k + 3t = 5 < 6 ≤ 3k + 3t = 6
        // — the middle regime. "All leave" really is a 2-punishment
        // strategy relative to "all stay", so the verified classification
        // lands on bullet 3 (exact, finite expected running time).
        let bargaining = classic::bargaining_game(6);
        let r = classify_regime_for_game(&bargaining, &[0; 6], 1, 1, Assumptions::none());
        assert_eq!(
            r.implementability,
            Implementability::Exact(RuntimeBound::FiniteExpectedUtilityIndependent)
        );
        assert_eq!(r.justification, vec![3]);

        // A constant-payoff 6-player game in the same regime: nobody can
        // ever be pushed strictly below the equilibrium payoff, so no
        // punishment strategy exists at all — the verified classification
        // rejects a *claimed* punishment assumption instead of trusting
        // it.
        let mut builder = bne_games::NormalFormBuilder::new("constant");
        for p in 0..6 {
            builder = builder.player(format!("P{p}"), &["x", "y"]);
        }
        let constant = builder.default_payoff(1.0).build().unwrap();
        let claimed = Assumptions {
            known_utilities: true,
            punishment_strategy: true,
            ..Assumptions::none()
        };
        assert!(
            !claimed
                .verified_for_game(&constant, &[0; 6], 1, 1)
                .punishment_strategy
        );
        let r = classify_regime_for_game(&constant, &[0; 6], 1, 1, claimed);
        assert_eq!(r.implementability, Implementability::Impossible);
        assert_eq!(r.justification, vec![2]);
    }

    #[test]
    fn regime_table_is_monotone_in_n() {
        // if (n, k, t) is exactly implementable without assumptions, then so
        // is (n + 1, k, t)
        let assumptions = Assumptions::none();
        for k in 0..=3usize {
            for t in 0..=3usize {
                if k + t == 0 {
                    continue;
                }
                let mut was_exact = false;
                for n in 1..=20 {
                    let r = classify_regime(n, k, t, assumptions);
                    let exact = matches!(r.implementability, Implementability::Exact(_));
                    if was_exact {
                        assert!(exact, "monotonicity violated at n={n}, k={k}, t={t}");
                    }
                    was_exact = exact;
                }
            }
        }
    }

    #[test]
    fn table_has_expected_size_and_no_trivial_rows() {
        let rows = regime_table(10, 2, 2, Assumptions::none());
        // n from 1..=10, (k,t) in {0,1,2}^2 minus (0,0) → 10 * 8
        assert_eq!(rows.len(), 80);
        assert!(rows.iter().all(|r| r.k + r.t > 0));
    }
}
