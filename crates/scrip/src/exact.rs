//! The exact Markov chain of a churn-free economy: the expectations that
//! [`Economy`](crate::Economy) runs sample, computed without sampling.
//!
//! Without churn an economy is a Markov chain on its holdings. Each round
//! the requester is uniform over all `n` agents, and the volunteer is
//! uniform over the agents eligible to serve it, the requester excluded:
//! a rational agent while its holdings lie below its threshold and a
//! hoarder always, both only for a requester who has scrip to pay, and an
//! altruist always, for free. No draw depends on which agent of a class
//! holds what, so the chain lumps to the deviator's holdings (slot
//! [`EconomyConfig::rational_base`], at its own threshold) and, for each
//! other class — the rational agents at the common threshold, the
//! hoarders and the altruists — the number of agents at each holding.
//!
//! [`per_round`] lists the reachable lumped states with their sparse
//! transitions, propagates the distribution from the initial state for
//! `config.rounds` rounds, and averages each round's expectations. The
//! state space grows exponentially with the population, so this is a
//! reference for small economies: 10 agents with 2 scrip each at
//! threshold 3 reach under a hundred states. It reads only the
//! configuration and shares no code with the engine it checks.

use crate::economy::EconomyConfig;
use std::collections::HashMap;

/// Exact per-round expectations of a churn-free economy over its horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactValues {
    /// Expected fraction of requests served, which
    /// [`EconomyOutcome::efficiency`](crate::EconomyOutcome::efficiency)
    /// samples.
    pub efficiency: f64,
    /// The deviator's expected utility per round, which
    /// [`Economy::average_utility`](crate::Economy::average_utility) of
    /// slot [`EconomyConfig::rational_base`] samples.
    pub deviator_utility: f64,
    /// Lumped states reachable from the initial state.
    pub states: usize,
}

/// The exact chain of `config` with the deviator at `deviator_threshold`,
/// every other rational agent at `config.threshold`.
///
/// # Panics
///
/// Panics if `config.churn > 0`, whose departures the chain does not
/// model, or if there is no rational slot for the deviator.
pub fn per_round(config: &EconomyConfig, deviator_threshold: u32) -> ExactValues {
    assert!(
        config.churn <= 0.0,
        "the exact chain models no churn, got {}",
        config.churn
    );
    assert!(
        config.rational > 0,
        "the exact chain needs a rational slot for the deviator"
    );
    // each class, the deviator first, as (agents, the holdings below which
    // it serves, whether it serves for free and so also a requester who
    // cannot pay); a state holds each class's count per holding, in this
    // order
    let classes = [
        (1, u64::from(deviator_threshold), false),
        (config.rational - 1, u64::from(config.threshold), false),
        (config.hoarders, u64::MAX, false),
        (config.altruists, u64::MAX, true),
    ];
    let n = config.total_agents();
    // no scrip enters or leaves, so nobody holds more than all of it
    let width = n * config.initial_scrip as usize + 1;
    let mut initial = vec![0u32; classes.len() * width];
    for (c, &(count, _, _)) in classes.iter().enumerate() {
        initial[c * width + config.initial_scrip as usize] = count as u32;
    }

    // breadth-first over the reachable states, numbered as they are found;
    // each state's row holds its round's chance of going unserved, the
    // deviator's expected utility and the successors
    let mut index = HashMap::from([(initial.clone(), 0)]);
    let mut keys = vec![initial];
    let mut rows: Vec<Row> = Vec::new();
    while rows.len() < keys.len() {
        let key = keys[rows.len()].clone();
        let (mut unserved, mut utility, mut successors) = (0.0, 0.0, Vec::new());
        let mut step = |next: Vec<u32>, p: f64| {
            let s = *index.entry(next).or_insert_with_key(|next| {
                keys.push(next.clone());
                keys.len() - 1
            });
            successors.push((s, p));
        };
        // (class, holdings, agents) of every populated bucket
        let buckets: Vec<(usize, usize, u32)> = (0..classes.len() * width)
            .filter(|&b| key[b] > 0)
            .map(|b| (b / width, b % width, key[b]))
            .collect();
        for &(ci, hi, mi) in &buckets {
            let chosen = f64::from(mi) / n as f64;
            let eligible = |&(cj, hj, mj): &(usize, usize, u32)| {
                let (_, limit, free) = classes[cj];
                if (free || hi > 0) && (hj as u64) < limit {
                    // the requester does not serve itself
                    mj - u32::from((cj, hj) == (ci, hi))
                } else {
                    0
                }
            };
            let pool: u32 = buckets.iter().map(eligible).sum();
            if pool == 0 {
                unserved += chosen;
                step(key.clone(), chosen);
                continue;
            }
            for bucket @ &(cj, hj, _) in &buckets {
                let p = chosen * f64::from(eligible(bucket)) / f64::from(pool);
                if p == 0.0 {
                    continue;
                }
                // class 0 is the deviator
                if ci == 0 {
                    utility += p * config.benefit;
                }
                if cj == 0 {
                    utility -= p * config.cost;
                }
                let mut next = key.clone();
                if !classes[cj].2 {
                    // the requester pays one scrip to the volunteer
                    next[ci * width + hi] -= 1;
                    next[ci * width + hi - 1] += 1;
                    next[cj * width + hj] -= 1;
                    next[cj * width + hj + 1] += 1;
                }
                step(next, p);
            }
        }
        rows.push(Row {
            unserved,
            utility,
            successors,
        });
    }

    let mut dist = vec![0.0; rows.len()];
    let mut after = vec![0.0; rows.len()];
    dist[0] = 1.0;
    let (mut unserved, mut utility) = (0.0, 0.0);
    for _ in 0..config.rounds {
        for (row, &p) in rows.iter().zip(&dist) {
            unserved += p * row.unserved;
            utility += p * row.utility;
            for &(s, q) in &row.successors {
                after[s] += p * q;
            }
        }
        std::mem::swap(&mut dist, &mut after);
        after.fill(0.0);
    }
    let rounds = config.rounds.max(1) as f64;
    ExactValues {
        efficiency: 1.0 - unserved / rounds,
        deviator_utility: utility / rounds,
        states: rows.len(),
    }
}

/// One state's round: the probability that it goes unserved, the
/// deviator's expected utility, and the successors with their
/// probabilities.
struct Row {
    unserved: f64,
    utility: f64,
    successors: Vec<(usize, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Economy, ThresholdAuditBackend};
    use bne_games::backend::{PayoffBackend, ProfileView};

    /// Two agents with 1 scrip each at threshold 2, over 4 rounds. Write
    /// a state as (deviator's holdings, the other's). From (1, 1) either
    /// requester pays the other: every request is served, and the chain
    /// moves to (0, 2) or (2, 0). From (0, 2) only the rich agent's
    /// request, half the rounds, is served, by the deviator, and the chain
    /// returns to (1, 1); (2, 0) mirrors it, and the two edges are equally
    /// likely. So P[(1, 1)] runs 1, 0, 1/2, 1/4 over the rounds, mean
    /// p = 7/16. A round at (1, 1) is served surely and an edge round half
    /// the time: efficiency (1 + p)/2 = 23/32. The deviator gains
    /// (1 − 0.2)/2 per round at (1, 1), −0.2/2 at (0, 2) and 1/2 at (2, 0),
    /// so 0.2 + 0.2p = 0.2875 per round.
    #[test]
    fn two_agents_follow_the_hand_worked_chain() {
        let config = EconomyConfig {
            initial_scrip: 1,
            ..EconomyConfig::homogeneous(2, 2, 4)
        };
        let exact = per_round(&config, 2);
        assert_eq!(exact.states, 3);
        assert!((exact.efficiency - 23.0 / 32.0).abs() < 1e-12, "{exact:?}");
        assert!((exact.deviator_utility - 0.2875).abs() < 1e-12, "{exact:?}");
    }

    #[test]
    #[should_panic(expected = "no churn")]
    fn churn_is_refused() {
        per_round(
            &EconomyConfig {
                churn: 0.01,
                ..EconomyConfig::homogeneous(4, 3, 10)
            },
            3,
        );
    }

    #[test]
    #[should_panic(expected = "rational slot")]
    fn an_economy_without_rational_agents_is_refused() {
        per_round(
            &EconomyConfig {
                altruists: 2,
                ..EconomyConfig::homogeneous(0, 3, 10)
            },
            3,
        );
    }

    /// Seeded runs per sampled mean.
    const K: usize = 4_000;
    /// The chance that one sampled mean misses its radius.
    const DELTA: f64 = 1e-6;

    /// The Hoeffding radius of a mean of `K` independent draws from a
    /// range of `width`: it misses the expectation with probability at
    /// most `DELTA`.
    fn radius(width: f64) -> f64 {
        width * ((2.0 / DELTA).ln() / (2.0 * K as f64)).sqrt()
    }

    /// For each deviator threshold, the mean efficiency and deviator
    /// utility of `K` seeded [`Economy`] runs, and the audit backend's
    /// `K`-trial payoff on other seeds, lie within the Hoeffding radius of
    /// the exact values. The thresholds include the common one, whose
    /// query the backend answers from its recorded base run.
    fn samples_match_the_chain(config: EconomyConfig, thresholds: &[u32]) {
        let deviator = config.rational_base();
        let mut engine = Economy::new(&config);
        let backend = ThresholdAuditBackend::new(config.clone(), thresholds.to_vec(), K, 1 << 32);
        let base = backend.base_profile();
        // the first query of the base profile records the base run
        let mut base_payoffs = vec![0.0; config.rational];
        backend.payoffs_into(&ProfileView::of_base(&base), &mut base_payoffs);
        let (lo, hi) = backend.payoff_bounds();
        for (action, &threshold) in thresholds.iter().enumerate() {
            let exact = per_round(&config, threshold);
            let (mut efficiency, mut utility) = (0.0, 0.0);
            for seed in 0..K as u64 {
                let outcome = engine.run_with_thresholds(&[(deviator, threshold)], seed);
                efficiency += outcome.efficiency;
                utility += engine.average_utility(deviator);
            }
            let audited = backend.payoff(0, &ProfileView::new(&base, &[(0, action)]));
            let k = K as f64;
            for (what, sampled, want, width) in [
                ("efficiency", efficiency / k, exact.efficiency, 1.0),
                ("utility", utility / k, exact.deviator_utility, hi - lo),
                ("audited utility", audited, exact.deviator_utility, hi - lo),
            ] {
                assert!(
                    (sampled - want).abs() <= radius(width),
                    "threshold {threshold}: {what} {sampled} against exact {want}"
                );
            }
        }
        assert!(backend.work().recalled > 0, "the base run answered nothing");
    }

    #[test]
    fn rational_agents_sample_their_exact_chain() {
        samples_match_the_chain(EconomyConfig::homogeneous(10, 3, 300), &[0, 1, 3, 6]);
    }

    #[test]
    fn an_economy_with_a_hoarder_samples_its_exact_chain() {
        let config = EconomyConfig {
            hoarders: 1,
            ..EconomyConfig::homogeneous(6, 3, 200)
        };
        samples_match_the_chain(config, &[0, 1, 3, 5]);
    }

    #[test]
    fn an_economy_with_an_altruist_samples_its_exact_chain() {
        let config = EconomyConfig {
            altruists: 1,
            ..EconomyConfig::homogeneous(6, 3, 200)
        };
        samples_match_the_chain(config, &[0, 1, 3, 5]);
    }
}
