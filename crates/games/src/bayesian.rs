//! Bayesian games: finite games of incomplete information with a common
//! prior over type profiles.
//!
//! This is the setting Halpern uses both for the mediator results
//! (Section 2, e.g. Byzantine agreement where the general's type is his
//! initial preference) and for machine games (Section 3, where a player's
//! type is the input to her Turing machine).

use crate::error::GameError;
use crate::profile::{profile_to_index, ProfileIter};
use crate::{ActionId, PlayerId, TypeId, Utility, EPSILON};
use rand::{Rng, RngExt};

/// A joint probability distribution over type profiles.
///
/// Stored densely: one probability per type profile, laid out in the same
/// odometer order as [`ProfileIter`]. Supports arbitrary correlation between
/// players' types (needed, e.g., to model "all non-general players have a
/// single dummy type").
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDistribution {
    type_counts: Vec<usize>,
    probs: Vec<f64>,
}

impl TypeDistribution {
    /// Creates a distribution from explicit probabilities over type
    /// profiles.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidDistribution`] if probabilities are
    /// negative or don't sum to 1, and [`GameError::DimensionMismatch`] if
    /// the vector length doesn't match the number of type profiles.
    pub fn new(type_counts: Vec<usize>, probs: Vec<f64>) -> Result<Self, GameError> {
        let expected: usize = if type_counts.is_empty() {
            0
        } else {
            type_counts.iter().product()
        };
        if probs.len() != expected {
            return Err(GameError::DimensionMismatch {
                expected,
                found: probs.len(),
            });
        }
        if probs.iter().any(|p| !p.is_finite() || *p < -1e-12) {
            return Err(GameError::InvalidDistribution {
                reason: "negative or non-finite probability".to_string(),
            });
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(GameError::InvalidDistribution {
                reason: format!("type probabilities sum to {sum}, expected 1"),
            });
        }
        Ok(TypeDistribution { type_counts, probs })
    }

    /// An independent product distribution: `marginals[p][t]` is the
    /// probability that player `p` has type `t`.
    ///
    /// # Errors
    ///
    /// Returns an error if any marginal is not a valid distribution.
    pub fn independent(marginals: &[Vec<f64>]) -> Result<Self, GameError> {
        let type_counts: Vec<usize> = marginals.iter().map(|m| m.len()).collect();
        for (p, m) in marginals.iter().enumerate() {
            if m.is_empty() {
                return Err(GameError::EmptyGame {
                    reason: format!("player {p} has an empty type marginal"),
                });
            }
            let sum: f64 = m.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || m.iter().any(|p| *p < -1e-12) {
                return Err(GameError::InvalidDistribution {
                    reason: format!("marginal of player {p} is not a distribution"),
                });
            }
        }
        let mut probs = Vec::with_capacity(type_counts.iter().product());
        for profile in ProfileIter::new(&type_counts) {
            let pr: f64 = profile
                .iter()
                .enumerate()
                .map(|(p, &t)| marginals[p][t])
                .product();
            probs.push(pr);
        }
        Ok(TypeDistribution { type_counts, probs })
    }

    /// A point-mass distribution on the single type profile where everyone
    /// has type 0 (useful for complete-information games embedded as
    /// Bayesian games).
    pub fn trivial(num_players: usize) -> Self {
        TypeDistribution {
            type_counts: vec![1; num_players],
            probs: vec![1.0],
        }
    }

    /// Per-player type counts.
    pub fn type_counts(&self) -> &[usize] {
        &self.type_counts
    }

    /// Probability of the given type profile.
    pub fn prob(&self, types: &[TypeId]) -> f64 {
        self.probs[profile_to_index(types, &self.type_counts)]
    }

    /// Iterator over all type profiles with positive probability, together
    /// with their probabilities.
    pub fn support(&self) -> Vec<(Vec<TypeId>, f64)> {
        ProfileIter::new(&self.type_counts)
            .filter_map(|t| {
                let p = self.prob(&t);
                if p > 0.0 {
                    Some((t, p))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Samples a type profile.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TypeId> {
        let x: f64 = rng.random::<f64>();
        let mut acc = 0.0;
        let mut last = vec![0; self.type_counts.len()];
        for t in ProfileIter::new(&self.type_counts) {
            acc += self.prob(&t);
            last = t;
            if x < acc {
                return last;
            }
        }
        last
    }

    /// Conditional probability of the full profile `types` given that player
    /// `player` has type `types[player]` (Bayesian updating for interim
    /// expected utility). Returns 0 if the conditioning event has
    /// probability 0.
    pub fn conditional_prob(&self, player: PlayerId, types: &[TypeId]) -> f64 {
        let marginal: f64 = ProfileIter::new(&self.type_counts)
            .filter(|t| t[player] == types[player])
            .map(|t| self.prob(&t))
            .sum();
        if marginal <= 0.0 {
            0.0
        } else {
            self.prob(types) / marginal
        }
    }
}

/// The boxed utility callback of a [`BayesianGame`].
type UtilityFn = Box<dyn Fn(PlayerId, &[TypeId], &[ActionId]) -> Utility + Send + Sync>;

/// A finite Bayesian game.
///
/// Each player has a finite type space and a finite action set; utilities
/// depend on the full type profile and action profile. Payoffs are provided
/// through a boxed function so that games with large implicit payoff
/// structure (e.g. Byzantine agreement with many players) don't need a dense
/// tensor.
pub struct BayesianGame {
    name: String,
    type_counts: Vec<usize>,
    action_counts: Vec<usize>,
    prior: TypeDistribution,
    utility: UtilityFn,
}

impl std::fmt::Debug for BayesianGame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BayesianGame")
            .field("name", &self.name)
            .field("type_counts", &self.type_counts)
            .field("action_counts", &self.action_counts)
            .finish_non_exhaustive()
    }
}

impl BayesianGame {
    /// Creates a Bayesian game.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes are inconsistent or empty.
    pub fn new(
        name: impl Into<String>,
        action_counts: Vec<usize>,
        prior: TypeDistribution,
        utility: impl Fn(PlayerId, &[TypeId], &[ActionId]) -> Utility + Send + Sync + 'static,
    ) -> Result<Self, GameError> {
        let type_counts = prior.type_counts().to_vec();
        if action_counts.is_empty() {
            return Err(GameError::EmptyGame {
                reason: "no players".to_string(),
            });
        }
        if action_counts.len() != type_counts.len() {
            return Err(GameError::DimensionMismatch {
                expected: type_counts.len(),
                found: action_counts.len(),
            });
        }
        if let Some(p) = action_counts.iter().position(|&a| a == 0) {
            return Err(GameError::EmptyGame {
                reason: format!("player {p} has no actions"),
            });
        }
        Ok(BayesianGame {
            name: name.into(),
            type_counts,
            action_counts,
            prior,
            utility: Box::new(utility),
        })
    }

    /// The game's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.action_counts.len()
    }

    /// Number of types of `player`.
    pub fn num_types(&self, player: PlayerId) -> usize {
        self.type_counts[player]
    }

    /// Number of actions of `player`.
    pub fn num_actions(&self, player: PlayerId) -> usize {
        self.action_counts[player]
    }

    /// Per-player action counts.
    pub fn action_counts(&self) -> &[usize] {
        &self.action_counts
    }

    /// Per-player type counts.
    pub fn type_counts(&self) -> &[usize] {
        &self.type_counts
    }

    /// The common prior over type profiles.
    pub fn prior(&self) -> &TypeDistribution {
        &self.prior
    }

    /// Utility of `player` when types are `types` and actions are `actions`.
    pub fn utility(&self, player: PlayerId, types: &[TypeId], actions: &[ActionId]) -> Utility {
        (self.utility)(player, types, actions)
    }

    /// Interim expected utility of `player` of following `own` when her type
    /// is `own_type` and the others follow `strategies` (whose entry for
    /// `player` is ignored).
    pub fn interim_utility(
        &self,
        player: PlayerId,
        own_type: TypeId,
        own: &BayesianStrategy,
        strategies: &[BayesianStrategy],
    ) -> Utility {
        let mut total = 0.0;
        for (types, _) in self.prior.support() {
            if types[player] != own_type {
                continue;
            }
            let cond = self.prior.conditional_prob(player, &types);
            if cond <= 0.0 {
                continue;
            }
            let actions: Vec<ActionId> = (0..self.num_players())
                .map(|p| {
                    if p == player {
                        own.action(types[p])
                    } else {
                        strategies[p].action(types[p])
                    }
                })
                .collect();
            total += cond * self.utility(player, &types, &actions);
        }
        total
    }

    /// Whether the pure strategy profile is a Bayes–Nash equilibrium: for
    /// every player and every type with positive probability, the prescribed
    /// action is a best response in interim expected utility.
    pub fn is_bayes_nash(&self, strategies: &[BayesianStrategy]) -> bool {
        for player in 0..self.num_players() {
            for ty in 0..self.num_types(player) {
                // skip types with zero marginal probability
                let marginal: f64 = self
                    .prior
                    .support()
                    .iter()
                    .filter(|(t, _)| t[player] == ty)
                    .map(|(_, p)| *p)
                    .sum();
                if marginal <= 0.0 {
                    continue;
                }
                let current = self.interim_utility(player, ty, &strategies[player], strategies);
                for a in 0..self.num_actions(player) {
                    let mut deviant = strategies[player].clone();
                    deviant.set_action(ty, a);
                    let u = self.interim_utility(player, ty, &deviant, strategies);
                    if u > current + EPSILON {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// A pure Bayesian strategy: a map from a player's type to an action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BayesianStrategy {
    actions: Vec<ActionId>,
}

impl BayesianStrategy {
    /// Creates a strategy from an explicit type → action table.
    pub fn new(actions: Vec<ActionId>) -> Self {
        BayesianStrategy { actions }
    }

    /// The strategy that plays `action` for every type (useful for players
    /// with a single dummy type).
    pub fn constant(action: ActionId, num_types: usize) -> Self {
        BayesianStrategy {
            actions: vec![action; num_types.max(1)],
        }
    }

    /// Action prescribed for `ty`.
    pub fn action(&self, ty: TypeId) -> ActionId {
        self.actions[ty.min(self.actions.len() - 1)]
    }

    /// Overrides the action for one type.
    pub fn set_action(&mut self, ty: TypeId, action: ActionId) {
        self.actions[ty] = action;
    }

    /// Number of types this strategy is defined over.
    pub fn num_types(&self) -> usize {
        self.actions.len()
    }

    /// Enumerates every pure Bayesian strategy for a player with
    /// `num_types` types and `num_actions` actions.
    pub fn enumerate_all(num_types: usize, num_actions: usize) -> Vec<BayesianStrategy> {
        ProfileIter::new(&vec![num_actions; num_types])
            .map(BayesianStrategy::new)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn coordination_bayesian() -> BayesianGame {
        // Two players; player 0 has two equally likely types; both want to
        // match player 0's type (actions 0/1), getting 1 on a match else 0.
        let prior = TypeDistribution::independent(&[vec![0.5, 0.5], vec![1.0]]).unwrap();
        BayesianGame::new("type matching", vec![2, 2], prior, |_p, types, actions| {
            if actions[0] == types[0] && actions[1] == types[0] {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn type_distribution_validation() {
        assert!(TypeDistribution::new(vec![2], vec![0.4, 0.7]).is_err());
        assert!(TypeDistribution::new(vec![2], vec![0.4]).is_err());
        assert!(TypeDistribution::new(vec![2], vec![0.4, 0.6]).is_ok());
        assert!(TypeDistribution::independent(&[vec![0.3, 0.8]]).is_err());
    }

    #[test]
    fn independent_distribution_multiplies() {
        let d = TypeDistribution::independent(&[vec![0.25, 0.75], vec![0.5, 0.5]]).unwrap();
        assert!((d.prob(&[0, 0]) - 0.125).abs() < 1e-12);
        assert!((d.prob(&[1, 1]) - 0.375).abs() < 1e-12);
        let total: f64 = d.support().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditional_probability() {
        // correlated: types equal with prob 1/2 each of (0,0),(1,1)
        let d = TypeDistribution::new(vec![2, 2], vec![0.5, 0.0, 0.0, 0.5]).unwrap();
        assert!((d.conditional_prob(0, &[0, 0]) - 1.0).abs() < 1e-12);
        assert_eq!(d.conditional_prob(0, &[0, 1]), 0.0);
    }

    #[test]
    fn sampling_matches_prior() {
        let d = TypeDistribution::independent(&[vec![0.2, 0.8]]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut rng)[0] == 1).count();
        assert!((ones as f64 / n as f64 - 0.8).abs() < 0.02);
    }

    #[test]
    fn truth_following_is_bayes_nash_in_matching_game() {
        let g = coordination_bayesian();
        // player 0 plays her type, player 1 can't see it; any constant for
        // player 1 gives her 1/2. Playing own type for p0 and constant 0 for
        // p1: p0's type-1 action matters — deviating to 0 when type is 1
        // yields same 0 utility (mismatch either way), so it's still an
        // equilibrium.
        let strategies = vec![
            BayesianStrategy::new(vec![0, 1]),
            BayesianStrategy::constant(0, 1),
        ];
        assert!(g.is_bayes_nash(&strategies));
    }

    #[test]
    fn non_equilibrium_detected() {
        let g = coordination_bayesian();
        // player 0 always plays the opposite of her type when it is 0 —
        // wait, to make a clear non-equilibrium: p0 plays constant 1, p1
        // plays constant 0: they never match when type is 0; p1 deviating to
        // 1 would gain when type is 1. Current utility for p1: only type 1
        // matches p0's action 1 but p1 plays 0 → utility 0. Deviating to 1
        // gives 0.5.
        let strategies = vec![
            BayesianStrategy::constant(1, 2),
            BayesianStrategy::constant(0, 1),
        ];
        assert!(!g.is_bayes_nash(&strategies));
    }

    #[test]
    fn enumerate_all_strategies() {
        let all = BayesianStrategy::enumerate_all(2, 3);
        assert_eq!(all.len(), 9);
        let all = BayesianStrategy::enumerate_all(3, 2);
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn bayesian_game_shape_validation() {
        let prior = TypeDistribution::trivial(2);
        assert!(BayesianGame::new("bad", vec![2], prior.clone(), |_, _, _| 0.0).is_err());
        assert!(BayesianGame::new("bad", vec![2, 0], prior, |_, _, _| 0.0).is_err());
    }
}
