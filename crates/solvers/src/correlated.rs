//! Correlated equilibrium.
//!
//! A mediator that privately recommends actions is the simplest example of
//! the "trusted third parties" of Section 2 of the paper, and correlated
//! equilibrium is the classical solution concept describing when following
//! such recommendations is rational. This module checks the correlated- and
//! coarse-correlated-equilibrium conditions for an explicit joint
//! distribution over action profiles, complementing the regret-matching
//! dynamic in [`crate::regret`] (whose empirical play converges to the
//! coarse correlated set).

use bne_games::profile::{profile_to_index, ActionProfile};
use bne_games::{NormalFormGame, EPSILON};

/// A joint distribution over pure action profiles of a game.
#[derive(Debug, Clone, PartialEq)]
pub struct JointDistribution {
    probs: Vec<(ActionProfile, f64)>,
}

impl JointDistribution {
    /// Creates a distribution from `(profile, probability)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a probability is negative, the probabilities do not sum to
    /// one (within `1e-6`), or a profile is invalid for the game.
    pub fn new(game: &NormalFormGame, probs: Vec<(ActionProfile, f64)>) -> Self {
        let mut total = 0.0;
        for (profile, p) in &probs {
            game.validate_profile(profile)
                .expect("profile must be valid for the game");
            assert!(*p >= -1e-12, "negative probability");
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}");
        JointDistribution { probs }
    }

    /// The distribution putting probability one on a single profile.
    pub fn point(game: &NormalFormGame, profile: &[usize]) -> Self {
        JointDistribution::new(game, vec![(profile.to_vec(), 1.0)])
    }

    /// The `(profile, probability)` pairs.
    pub fn entries(&self) -> &[(ActionProfile, f64)] {
        &self.probs
    }

    /// Expected payoff of `player` under the distribution.
    pub fn expected_payoff(&self, game: &NormalFormGame, player: usize) -> f64 {
        self.probs
            .iter()
            .map(|(profile, p)| p * game.payoff(player, profile))
            .sum()
    }

    /// Probability of a specific profile (0 if absent).
    pub fn prob(&self, game: &NormalFormGame, profile: &[usize]) -> f64 {
        let idx = profile_to_index(profile, game.action_counts());
        self.probs
            .iter()
            .filter(|(pr, _)| profile_to_index(pr, game.action_counts()) == idx)
            .map(|(_, p)| *p)
            .sum()
    }
}

/// Whether the distribution is an ε-correlated equilibrium: for every player
/// and every recommended action `a` with positive probability, obeying the
/// recommendation is (within ε) at least as good as any fixed deviation
/// `a'`, conditional on having been recommended `a`.
pub fn is_correlated_equilibrium(
    game: &NormalFormGame,
    dist: &JointDistribution,
    epsilon: f64,
) -> bool {
    for player in 0..game.num_players() {
        for recommended in 0..game.num_actions(player) {
            for alternative in 0..game.num_actions(player) {
                if recommended == alternative {
                    continue;
                }
                // sum over profiles where `player` is recommended `recommended`
                let mut obey = 0.0;
                let mut deviate = 0.0;
                for (profile, p) in dist.entries() {
                    if profile[player] != recommended {
                        continue;
                    }
                    obey += p * game.payoff(player, profile);
                    let mut alt = profile.clone();
                    alt[player] = alternative;
                    deviate += p * game.payoff(player, &alt);
                }
                if deviate > obey + epsilon + EPSILON {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether the distribution is an ε-coarse-correlated equilibrium: no player
/// can gain more than ε by committing to a fixed action *before* seeing her
/// recommendation. Every correlated equilibrium is coarse correlated.
pub fn is_coarse_correlated_equilibrium(
    game: &NormalFormGame,
    dist: &JointDistribution,
    epsilon: f64,
) -> bool {
    for player in 0..game.num_players() {
        let current = dist.expected_payoff(game, player);
        for alternative in 0..game.num_actions(player) {
            let deviated: f64 = dist
                .entries()
                .iter()
                .map(|(profile, p)| {
                    let mut alt = profile.clone();
                    alt[player] = alternative;
                    p * game.payoff(player, &alt)
                })
                .sum();
            if deviated > current + epsilon + EPSILON {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;
    use bne_games::NormalFormBuilder;

    /// The uniform distribution over `profiles`.
    fn uniform_over(game: &NormalFormGame, profiles: &[ActionProfile]) -> JointDistribution {
        let p = 1.0 / profiles.len() as f64;
        JointDistribution::new(game, profiles.iter().map(|pr| (pr.clone(), p)).collect())
    }

    /// The classic "traffic light" game of chicken: two pure equilibria, and
    /// a correlated equilibrium (the traffic light) that mixes them and
    /// beats the symmetric mixed equilibrium.
    fn chicken() -> bne_games::NormalFormGame {
        NormalFormBuilder::new("chicken")
            .player("Row", &["Stop", "Go"])
            .player("Column", &["Stop", "Go"])
            .payoff(&[0, 0], &[4.0, 4.0])
            .payoff(&[0, 1], &[1.0, 5.0])
            .payoff(&[1, 0], &[5.0, 1.0])
            .payoff(&[1, 1], &[0.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn nash_equilibria_are_correlated_equilibria() {
        let pd = classic::prisoners_dilemma();
        let dd = JointDistribution::point(&pd, &[1, 1]);
        assert!(is_correlated_equilibrium(&pd, &dd, 0.0));
        assert!(is_coarse_correlated_equilibrium(&pd, &dd, 0.0));
        // mutual cooperation is not
        let cc = JointDistribution::point(&pd, &[0, 0]);
        assert!(!is_correlated_equilibrium(&pd, &cc, 0.0));
    }

    #[test]
    fn traffic_light_is_a_correlated_equilibrium_of_chicken() {
        let game = chicken();
        let light = uniform_over(&game, &[vec![0, 1], vec![1, 0]]);
        assert!(is_correlated_equilibrium(&game, &light, 0.0));
        // the three-outcome distribution (both stop with prob 1/3 too) is
        // the famous CE with welfare above any Nash payoff pair's average
        let better = uniform_over(&game, &[vec![0, 0], vec![0, 1], vec![1, 0]]);
        assert!(is_correlated_equilibrium(&game, &better, 0.0));
        assert!(better.expected_payoff(&game, 0) > 3.0);
    }

    #[test]
    fn correlated_implies_coarse_correlated_but_not_conversely() {
        let game = chicken();
        let light = uniform_over(&game, &[vec![0, 1], vec![1, 0]]);
        assert!(is_coarse_correlated_equilibrium(&game, &light, 0.0));
        // In 2x2 games the CE and CCE constraint sets coincide, so chicken
        // cannot separate the two concepts; the four-cell uniform mixture is
        // in fact both (all conditional deviation gains are exactly zero).
        let mixed = uniform_over(&game, &[vec![0, 0], vec![1, 1], vec![0, 1], vec![1, 0]]);
        assert!(is_correlated_equilibrium(&game, &mixed, 0.0));
        assert!(is_coarse_correlated_equilibrium(&game, &mixed, 0.0));
        // The classical separation witness needs three actions: in
        // rock-paper-scissors the uniform distribution over the three ties
        // is coarse correlated (committing to any fixed action still earns
        // 0 against the uniform marginal) but not correlated (conditional
        // on a tie recommendation, playing the beating action gains 1).
        let rps = classic::roshambo();
        let ties = uniform_over(&rps, &[vec![0, 0], vec![1, 1], vec![2, 2]]);
        assert!(is_coarse_correlated_equilibrium(&rps, &ties, 0.0));
        assert!(!is_correlated_equilibrium(&rps, &ties, 0.0));
    }

    #[test]
    fn regret_matching_empirical_joint_is_an_approximate_cce() {
        use crate::regret::RegretMatching;
        use rand::SeedableRng;
        let game = chicken();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rm = RegretMatching::new(&game).run(&game, 20_000, &mut rng);
        let dist = JointDistribution::new(&game, rm.empirical_joint());
        assert!(is_coarse_correlated_equilibrium(&game, &dist, 0.05));
    }

    #[test]
    fn distribution_validation_and_queries() {
        let pd = classic::prisoners_dilemma();
        let d = uniform_over(&pd, &[vec![0, 0], vec![1, 1]]);
        assert!((d.prob(&pd, &[0, 0]) - 0.5).abs() < 1e-12);
        assert_eq!(d.prob(&pd, &[0, 1]), 0.0);
        assert!((d.expected_payoff(&pd, 0) - 0.0).abs() < 1e-12);
    }
}
