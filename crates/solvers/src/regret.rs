//! Regret matching (Hart & Mas-Colell).
//!
//! Every player keeps cumulative regrets for each action and plays actions
//! with probability proportional to positive regret. The empirical joint
//! distribution of play converges to the set of coarse correlated
//! equilibria; in two-player zero-sum games the marginals converge to Nash
//! equilibrium. This provides an alternative baseline dynamic to fictitious
//! play, and is also the standard tool for the "can we reach equilibrium by
//! simple adaptive procedures?" question the paper raises about large games.

use bne_games::profile::ActionProfile;
use bne_games::{ActionId, MixedProfile, MixedStrategy, NormalFormGame, PlayerId};
use rand::Rng;

/// State of the regret-matching dynamic.
#[derive(Debug, Clone)]
pub struct RegretMatching {
    regrets: Vec<Vec<f64>>,
    action_counts: Vec<Vec<f64>>,
    joint_counts: std::collections::HashMap<ActionProfile, f64>,
    iterations: usize,
}

impl RegretMatching {
    /// Initializes regret matching for the given game.
    pub fn new(game: &NormalFormGame) -> Self {
        RegretMatching {
            regrets: (0..game.num_players())
                .map(|p| vec![0.0; game.num_actions(p)])
                .collect(),
            action_counts: (0..game.num_players())
                .map(|p| vec![0.0; game.num_actions(p)])
                .collect(),
            joint_counts: std::collections::HashMap::new(),
            iterations: 0,
        }
    }

    /// Number of iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The current play distribution of `player`: proportional to positive
    /// regrets, uniform when no regret is positive.
    pub fn play_distribution(&self, player: PlayerId) -> MixedStrategy {
        let positive: Vec<f64> = self.regrets[player].iter().map(|r| r.max(0.0)).collect();
        let total: f64 = positive.iter().sum();
        if total <= 1e-12 {
            MixedStrategy::uniform(positive.len())
        } else {
            MixedStrategy::new(positive.iter().map(|r| r / total).collect())
                .expect("positive regrets normalize to a distribution")
        }
    }

    /// Empirical marginal strategy of `player` over all past play.
    pub fn empirical_strategy(&self, player: PlayerId) -> MixedStrategy {
        let total: f64 = self.action_counts[player].iter().sum();
        if total <= 0.0 {
            return MixedStrategy::uniform(self.action_counts[player].len());
        }
        MixedStrategy::new(
            self.action_counts[player]
                .iter()
                .map(|c| c / total)
                .collect(),
        )
        .expect("counts normalize to a distribution")
    }

    /// Empirical marginal profile over all past play.
    pub fn empirical_profile(&self, game: &NormalFormGame) -> MixedProfile {
        MixedProfile::new(
            game,
            (0..game.num_players())
                .map(|p| self.empirical_strategy(p))
                .collect(),
        )
        .expect("shapes match")
    }

    /// The empirical joint distribution over action profiles (the candidate
    /// coarse correlated equilibrium).
    pub fn empirical_joint(&self) -> Vec<(ActionProfile, f64)> {
        let total: f64 = self.joint_counts.values().sum();
        let mut v: Vec<_> = self
            .joint_counts
            .iter()
            .map(|(k, c)| (k.clone(), c / total))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Performs one iteration: sample actions from the play distributions,
    /// observe payoffs, update regrets.
    pub fn step<R: Rng + ?Sized>(&mut self, game: &NormalFormGame, rng: &mut R) {
        let played: Vec<ActionId> = (0..game.num_players())
            .map(|p| self.play_distribution(p).sample(rng))
            .collect();
        for (p, &a) in played.iter().enumerate() {
            self.action_counts[p][a] += 1.0;
        }
        *self.joint_counts.entry(played.clone()).or_insert(0.0) += 1.0;
        // regret update: what would I have gotten with each fixed action?
        for p in 0..game.num_players() {
            let actual = game.payoff(p, &played);
            let mut alt = played.clone();
            for a in 0..game.num_actions(p) {
                alt[p] = a;
                self.regrets[p][a] += game.payoff(p, &alt) - actual;
            }
        }
        self.iterations += 1;
    }

    /// Runs the dynamic for `iterations` steps.
    pub fn run<R: Rng + ?Sized>(
        mut self,
        game: &NormalFormGame,
        iterations: usize,
        rng: &mut R,
    ) -> Self {
        for _ in 0..iterations {
            self.step(game, rng);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlated::{is_coarse_correlated_equilibrium, JointDistribution};
    use bne_games::classic;
    use rand::SeedableRng;

    /// The largest positive regret per iteration across players; it
    /// vanishes as the empirical joint approaches a coarse correlated
    /// equilibrium.
    fn max_average_regret(rm: &RegretMatching) -> f64 {
        if rm.iterations == 0 {
            return 0.0;
        }
        rm.regrets
            .iter()
            .flatten()
            .map(|r| r.max(0.0) / rm.iterations as f64)
            .fold(0.0, f64::max)
    }

    /// Whether the empirical joint is an `epsilon`-coarse correlated
    /// equilibrium of `game`.
    fn joint_is_epsilon_cce(rm: &RegretMatching, game: &NormalFormGame, epsilon: f64) -> bool {
        let joint = JointDistribution::new(game, rm.empirical_joint());
        is_coarse_correlated_equilibrium(game, &joint, epsilon)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    #[test]
    fn regret_vanishes_in_matching_pennies() {
        let g = classic::matching_pennies();
        let rm = RegretMatching::new(&g).run(&g, 20_000, &mut rng());
        assert!(max_average_regret(&rm) < 0.05);
        let p = rm.empirical_strategy(0).prob(0);
        assert!((p - 0.5).abs() < 0.05, "empirical prob {p}");
    }

    #[test]
    fn pd_converges_to_defection() {
        let g = classic::prisoners_dilemma();
        let rm = RegretMatching::new(&g).run(&g, 5_000, &mut rng());
        assert!(rm.empirical_strategy(0).prob(1) > 0.95);
        assert!(joint_is_epsilon_cce(&rm, &g, 0.05));
    }

    #[test]
    fn roshambo_empirical_marginals_near_uniform() {
        let g = classic::roshambo();
        let rm = RegretMatching::new(&g).run(&g, 30_000, &mut rng());
        for a in 0..3 {
            let p = rm.empirical_strategy(0).prob(a);
            assert!((p - 1.0 / 3.0).abs() < 0.06, "prob {p}");
        }
        assert!(joint_is_epsilon_cce(&rm, &g, 0.05));
    }

    #[test]
    fn joint_distribution_sums_to_one() {
        let g = classic::battle_of_the_sexes();
        let rm = RegretMatching::new(&g).run(&g, 2_000, &mut rng());
        let total: f64 = rm.empirical_joint().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(rm.iterations(), 2_000);
    }

    #[test]
    fn play_distribution_uniform_initially() {
        let g = classic::roshambo();
        let rm = RegretMatching::new(&g);
        let d = rm.play_distribution(0);
        assert!((d.prob(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(max_average_regret(&rm), 0.0);
    }
}
