//! Fictitious play.
//!
//! Each player repeatedly best-responds to the empirical distribution of the
//! opponents' past play. For two-player zero-sum games the empirical
//! distributions converge to a Nash equilibrium (Robinson 1951); the paper's
//! roshambo example (Example 3.3) is exactly such a game, and fictitious
//! play recovers its uniform equilibrium.

use bne_games::{ActionId, MixedProfile, MixedStrategy, NormalFormGame, PlayerId};

/// Configuration and state for fictitious play on an n-player game.
#[derive(Debug, Clone)]
pub struct FictitiousPlay {
    /// Count of how many times each player has played each action.
    counts: Vec<Vec<f64>>,
    /// Current pure action of each player (last best response).
    current: Vec<ActionId>,
    iterations: usize,
}

/// Result of running fictitious play for a number of iterations.
#[derive(Debug, Clone)]
pub struct FictitiousPlayResult {
    /// The empirical mixed strategy profile.
    pub empirical: MixedProfile,
    /// Maximum gain any player could obtain by deviating from the empirical
    /// profile (the profile is an ε-equilibrium for this ε).
    pub epsilon: f64,
    /// Number of iterations performed.
    pub iterations: usize,
}

impl FictitiousPlay {
    /// Initializes fictitious play with every player starting at action 0.
    pub fn new(game: &NormalFormGame) -> Self {
        let counts = (0..game.num_players())
            .map(|p| vec![0.0; game.num_actions(p)])
            .collect();
        FictitiousPlay {
            counts,
            current: vec![0; game.num_players()],
            iterations: 0,
        }
    }

    /// The empirical mixed strategy of `player` so far (uniform if no play
    /// has been recorded yet).
    pub fn empirical_strategy(&self, player: PlayerId) -> MixedStrategy {
        let total: f64 = self.counts[player].iter().sum();
        if total <= 0.0 {
            return MixedStrategy::uniform(self.counts[player].len());
        }
        let probs: Vec<f64> = self.counts[player].iter().map(|c| c / total).collect();
        MixedStrategy::new(probs).expect("empirical counts form a distribution")
    }

    /// The empirical mixed profile so far.
    pub fn empirical_profile(&self, game: &NormalFormGame) -> MixedProfile {
        let strategies = (0..game.num_players())
            .map(|p| self.empirical_strategy(p))
            .collect();
        MixedProfile::new(game, strategies).expect("shapes match the game")
    }

    /// Performs one round: every player simultaneously best-responds to the
    /// opponents' empirical distributions, then the played actions are added
    /// to the counts.
    pub fn step(&mut self, game: &NormalFormGame) {
        let profile = self.empirical_profile(game);
        let mut next = Vec::with_capacity(game.num_players());
        for p in 0..game.num_players() {
            let (a, _) = profile.best_response_value(game, p);
            next.push(a);
        }
        for (p, &a) in next.iter().enumerate() {
            self.counts[p][a] += 1.0;
        }
        self.current = next;
        self.iterations += 1;
    }

    /// Runs `iterations` rounds and returns the empirical profile and its
    /// ε-equilibrium quality.
    pub fn run(mut self, game: &NormalFormGame, iterations: usize) -> FictitiousPlayResult {
        for _ in 0..iterations {
            self.step(game);
        }
        let empirical = self.empirical_profile(game);
        let epsilon = empirical.max_regret(game);
        FictitiousPlayResult {
            empirical,
            epsilon,
            iterations: self.iterations,
        }
    }
}

/// Convenience wrapper: run fictitious play from the all-zeros start for the
/// given number of iterations.
pub fn fictitious_play(game: &NormalFormGame, iterations: usize) -> FictitiousPlayResult {
    FictitiousPlay::new(game).run(game, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::classic;

    #[test]
    fn converges_to_uniform_in_roshambo() {
        let g = classic::roshambo();
        let result = fictitious_play(&g, 5_000);
        for p in 0..2 {
            for a in 0..3 {
                let prob = result.empirical.strategy(p).prob(a);
                assert!(
                    (prob - 1.0 / 3.0).abs() < 0.05,
                    "player {p} action {a} has empirical prob {prob}"
                );
            }
        }
        assert!(result.epsilon < 0.05, "epsilon = {}", result.epsilon);
    }

    #[test]
    fn converges_in_matching_pennies() {
        let g = classic::matching_pennies();
        let result = fictitious_play(&g, 5_000);
        assert!(result.epsilon < 0.05);
        let p = result.empirical.strategy(0).prob(0);
        assert!((p - 0.5).abs() < 0.05);
    }

    #[test]
    fn absorbs_into_pure_equilibrium_in_pd() {
        let g = classic::prisoners_dilemma();
        let result = fictitious_play(&g, 200);
        // defect is strictly dominant, so play locks onto it immediately
        assert!(result.empirical.strategy(0).prob(1) > 0.99);
        assert!(result.empirical.strategy(1).prob(1) > 0.99);
        assert!(result.epsilon < 1e-6);
    }

    #[test]
    fn iteration_count_reported() {
        let g = classic::matching_pennies();
        let result = fictitious_play(&g, 17);
        assert_eq!(result.iterations, 17);
    }

    #[test]
    fn empirical_strategy_uniform_before_play() {
        let g = classic::roshambo();
        let fp = FictitiousPlay::new(&g);
        let s = fp.empirical_strategy(0);
        assert!((s.prob(0) - 1.0 / 3.0).abs() < 1e-12);
    }
}
