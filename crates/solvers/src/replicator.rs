//! Discrete-time replicator dynamics for symmetric two-player games.
//!
//! The population state is a mixed strategy over the (shared) action set;
//! the share of an action grows in proportion to how much better than
//! average it performs against the current population. Rest points of the
//! dynamics that are stable correspond to symmetric Nash equilibria.

use bne_games::{MixedStrategy, NormalFormGame};

/// Replicator dynamics state for a symmetric two-player game.
#[derive(Debug, Clone)]
pub struct ReplicatorDynamics {
    state: Vec<f64>,
    step_count: usize,
}

impl ReplicatorDynamics {
    /// Starts the dynamics at the uniform population state.
    ///
    /// # Panics
    ///
    /// Panics if the game is not a two-player game in which both players
    /// have the same number of actions (the symmetric-game requirement).
    pub fn new(game: &NormalFormGame) -> Self {
        Self::with_state(
            game,
            vec![1.0 / game.num_actions(0) as f64; game.num_actions(0)],
        )
    }

    /// Starts the dynamics at a specific population state.
    ///
    /// # Panics
    ///
    /// Panics if the game is not symmetric two-player or the state's length
    /// does not match the action count.
    pub fn with_state(game: &NormalFormGame, state: Vec<f64>) -> Self {
        assert_eq!(game.num_players(), 2, "replicator dynamics needs 2 players");
        assert_eq!(
            game.num_actions(0),
            game.num_actions(1),
            "replicator dynamics needs a symmetric action set"
        );
        assert_eq!(state.len(), game.num_actions(0), "state length mismatch");
        ReplicatorDynamics {
            state,
            step_count: 0,
        }
    }

    /// Current population state.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.step_count
    }

    /// Fitness (expected payoff) of each pure action against the current
    /// population, and the population-average fitness.
    pub fn fitness(&self, game: &NormalFormGame) -> (Vec<f64>, f64) {
        let n = self.state.len();
        let mut fitness = vec![0.0; n];
        for (a, f) in fitness.iter_mut().enumerate() {
            for b in 0..n {
                *f += self.state[b] * game.payoff(0, &[a, b]);
            }
        }
        let avg: f64 = fitness
            .iter()
            .zip(self.state.iter())
            .map(|(f, x)| f * x)
            .sum();
        (fitness, avg)
    }

    /// Performs one discrete replicator step with the given step size
    /// (`dt` in `(0, 1]`; payoffs are shifted to be positive internally so
    /// shares stay non-negative).
    pub fn step(&mut self, game: &NormalFormGame, dt: f64) {
        let (fitness, avg) = self.fitness(game);
        // shift so that all fitness values are positive
        let min = fitness.iter().cloned().fold(f64::INFINITY, f64::min);
        let shift = if min < 1e-9 { -min + 1.0 } else { 0.0 };
        let avg_shifted = avg + shift;
        let mut next: Vec<f64> = self
            .state
            .iter()
            .zip(fitness.iter())
            .map(|(x, f)| {
                let growth = (f + shift) / avg_shifted;
                x * (1.0 - dt + dt * growth)
            })
            .collect();
        let total: f64 = next.iter().sum();
        for x in &mut next {
            *x /= total;
        }
        self.state = next;
        self.step_count += 1;
    }

    /// Runs the dynamics until the state changes by less than `tol` in L1
    /// norm between steps, or `max_steps` is reached. Returns the final
    /// state as a [`MixedStrategy`].
    pub fn run(
        mut self,
        game: &NormalFormGame,
        dt: f64,
        tol: f64,
        max_steps: usize,
    ) -> MixedStrategy {
        for _ in 0..max_steps {
            let prev = self.state.clone();
            self.step(game, dt);
            let delta: f64 = prev
                .iter()
                .zip(self.state.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            if delta < tol {
                break;
            }
        }
        MixedStrategy::new(self.state).expect("replicator state is a distribution")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::{classic, MixedProfile};

    #[test]
    fn pd_population_converges_to_all_defect() {
        let g = classic::prisoners_dilemma();
        let s = ReplicatorDynamics::new(&g).run(&g, 0.5, 1e-12, 10_000);
        assert!(s.prob(1) > 0.99, "defect share = {}", s.prob(1));
        // the rest point is a symmetric Nash equilibrium
        let profile = MixedProfile::new(&g, vec![s.clone(), s]).expect("symmetric profile");
        assert!(profile.is_epsilon_nash(&g, 1e-3));
    }

    #[test]
    fn roshambo_interior_uniform_is_a_rest_point() {
        let g = classic::roshambo();
        // start exactly at uniform: it is a rest point of the dynamics
        let mut rd = ReplicatorDynamics::new(&g);
        rd.step(&g, 0.5);
        for a in 0..3 {
            assert!((rd.state()[a] - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fitness_computation_matches_expected_payoffs() {
        let g = classic::prisoners_dilemma();
        let rd = ReplicatorDynamics::with_state(&g, vec![0.5, 0.5]);
        let (fitness, avg) = rd.fitness(&g);
        // cooperate vs 50/50: 0.5*3 + 0.5*(-5) = -1
        assert!((fitness[0] + 1.0).abs() < 1e-12);
        // defect vs 50/50: 0.5*5 + 0.5*(-3) = 1
        assert!((fitness[1] - 1.0).abs() < 1e-12);
        assert!(avg.abs() < 1e-12);
    }

    #[test]
    fn state_remains_a_distribution() {
        let g = classic::battle_of_the_sexes();
        let mut rd = ReplicatorDynamics::with_state(&g, vec![0.7, 0.3]);
        for _ in 0..100 {
            rd.step(&g, 0.3);
            let sum: f64 = rd.state().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(rd.state().iter().all(|x| *x >= -1e-12));
        }
        assert_eq!(rd.steps(), 100);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_action_sets_rejected() {
        let g = bne_games::NormalFormBuilder::new("asym")
            .player("A", &["x", "y"])
            .player("B", &["l", "m", "r"])
            .build()
            .unwrap();
        let _ = ReplicatorDynamics::new(&g);
    }
}
