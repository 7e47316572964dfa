//! Distribution equivalence: does a cheap-talk protocol *implement* the
//! mediator?
//!
//! Per the paper: "a cheap talk game implements a game with a mediator if it
//! induces the same distribution over actions in the underlying game, for
//! each type vector of the players." For the non-faulty players this module
//! compares the two induced distributions (exactly for deterministic
//! protocols, by Monte-Carlo estimation otherwise) and reports the total
//! variation distance.

use crate::cheap_talk::CheapTalkImplementation;
use crate::mediator_game::{Mediator, MediatorGame};
use bne_games::{ActionId, TypeId};
use std::collections::{BTreeMap, BTreeSet};

/// A distribution over the non-faulty players' action profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDistribution {
    /// Probability of each observed action vector (restricted to non-faulty
    /// players, in increasing player order).
    pub probs: BTreeMap<Vec<ActionId>, f64>,
}

impl ActionDistribution {
    /// The empty distribution.
    pub fn new() -> Self {
        ActionDistribution {
            probs: BTreeMap::new(),
        }
    }

    /// Adds an observation with the given weight.
    pub fn record(&mut self, actions: Vec<ActionId>, weight: f64) {
        *self.probs.entry(actions).or_insert(0.0) += weight;
    }

    /// Normalizes the distribution to sum to one (no-op for the empty
    /// distribution).
    pub fn normalize(&mut self) {
        let total: f64 = self.probs.values().sum();
        if total > 0.0 {
            for v in self.probs.values_mut() {
                *v /= total;
            }
        }
    }
}

impl Default for ActionDistribution {
    fn default() -> Self {
        Self::new()
    }
}

/// Total variation distance between two action distributions.
pub fn total_variation_distance(a: &ActionDistribution, b: &ActionDistribution) -> f64 {
    let keys: BTreeSet<&Vec<ActionId>> = a.probs.keys().chain(b.probs.keys()).collect();
    0.5 * keys
        .into_iter()
        .map(|k| {
            (a.probs.get(k).copied().unwrap_or(0.0) - b.probs.get(k).copied().unwrap_or(0.0)).abs()
        })
        .sum::<f64>()
}

/// Restricts a full action profile to the non-faulty players (in increasing
/// player order).
fn restrict(actions: &[ActionId], faulty: &BTreeSet<usize>) -> Vec<ActionId> {
    actions
        .iter()
        .enumerate()
        .filter(|(p, _)| !faulty.contains(p))
        .map(|(_, &a)| a)
        .collect()
}

/// The mediator game's distribution over non-faulty actions for one type
/// profile (deterministic mediators yield a point mass).
pub fn mediator_distribution<M: Mediator>(
    mediator_game: &MediatorGame<'_, M>,
    types: &[TypeId],
    faulty: &BTreeSet<usize>,
) -> ActionDistribution {
    let mut dist = ActionDistribution::new();
    let actions = mediator_game.honest_outcome(types);
    dist.record(restrict(&actions, faulty), 1.0);
    dist
}

/// The cheap-talk protocol's empirical distribution over non-faulty actions
/// for one type profile, estimated from `runs` executions with distinct
/// seeds.
pub fn cheap_talk_distribution(
    protocol: &dyn CheapTalkImplementation,
    types: &[TypeId],
    faulty: &BTreeSet<usize>,
    runs: usize,
) -> ActionDistribution {
    let mut dist = ActionDistribution::new();
    for seed in 0..runs as u64 {
        let outcome = protocol.execute(types, faulty, seed);
        dist.record(restrict(&outcome.actions, faulty), 1.0);
    }
    dist.normalize();
    dist
}

/// Checks the paper's implementation condition for every type profile in the
/// prior's support: the cheap-talk distribution over non-faulty actions must
/// be within `tolerance` (total variation) of the mediator's.
pub fn distributions_match<M: Mediator>(
    mediator_game: &MediatorGame<'_, M>,
    protocol: &dyn CheapTalkImplementation,
    faulty: &BTreeSet<usize>,
    runs: usize,
    tolerance: f64,
) -> bool {
    for (types, _) in mediator_game.game().prior().support() {
        let med = mediator_distribution(mediator_game, &types, faulty);
        let ct = cheap_talk_distribution(protocol, &types, faulty, runs);
        if total_variation_distance(&med, &ct) > tolerance {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_variation_basics() {
        let mut a = ActionDistribution::new();
        a.record(vec![0, 0], 1.0);
        let mut b = ActionDistribution::new();
        b.record(vec![0, 0], 0.5);
        b.record(vec![1, 1], 0.5);
        assert!((total_variation_distance(&a, &a)).abs() < 1e-12);
        assert!((total_variation_distance(&a, &b) - 0.5).abs() < 1e-12);
        assert!((total_variation_distance(&b, &a) - 0.5).abs() < 1e-12);
    }
}
