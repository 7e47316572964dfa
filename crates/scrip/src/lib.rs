//! # bne-scrip
//!
//! A scrip-system economy simulator, reproducing the discussion in the
//! paper's conclusions (Kash, Friedman and Halpern, *Optimizing scrip
//! systems: efficiency, crashes, hoarders, and altruists*, EC 2007).
//!
//! Agents perform work for one another in exchange for scrip. Each round a
//! random agent needs a service worth `benefit`; one of the agents willing
//! to volunteer (chosen uniformly) performs it at cost `cost` and receives
//! one unit of scrip from the requester. Agents follow **threshold
//! strategies**: volunteer exactly when their scrip holdings are below their
//! threshold. Two kinds of "standardly irrational" agents from the paper are
//! modelled:
//!
//! * **hoarders** — volunteer no matter how much scrip they already have
//!   (they accumulate scrip and drain it from circulation);
//! * **altruists** — provide the service for free (the requester keeps her
//!   scrip), the analogue of posting music on Kazaa.
//!
//! The simulator measures *efficiency* — the fraction of requests that get
//! satisfied — and lets the experiments show how thresholds, hoarders and
//! altruists move it, plus a best-response check that a common threshold is
//! an (approximate) equilibrium.
//!
//! Two generations of simulator coexist:
//!
//! * [`simulate`] — the legacy O(n)-per-round reference loop, kept for the
//!   small-population experiments and as the behavioural baseline;
//! * [`economy`] — the scaled [`Economy`] engine: flat index-based agent
//!   state, O(1) rounds via incrementally maintained volunteer pools,
//!   arrival/departure churn, streaming aggregates, built for 10^6+
//!   agents. [`audit`] exposes it as a `bne-games` payoff backend so the
//!   sampled deviation oracle can audit its equilibrium claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod economy;
pub mod scenario;

pub use audit::{AuditWork, ThresholdAuditBackend};
pub use economy::{Economy, EconomyConfig, EconomyOutcome};
pub use scenario::{economy_grid, EconomyScenario, EconomyStats};

use rand::{rngs::StdRng, RngExt, SeedableRng};

/// How an agent behaves in the scrip economy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentKind {
    /// Rational threshold agent: volunteers only while her scrip holdings
    /// are strictly below the threshold.
    Threshold {
        /// The scrip level at which the agent stops volunteering.
        threshold: u64,
    },
    /// Volunteers regardless of holdings (accumulates scrip forever).
    Hoarder,
    /// Provides service for free: volunteers always and never takes payment.
    Altruist,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct ScripConfig {
    /// Behaviour of every agent.
    pub agents: Vec<AgentKind>,
    /// Initial scrip per agent.
    pub initial_scrip: u64,
    /// Utility gained by a requester whose request is served.
    pub benefit: f64,
    /// Utility lost by the volunteer who performs the work.
    pub cost: f64,
    /// Number of rounds to simulate.
    pub rounds: usize,
}

impl ScripConfig {
    /// A homogeneous population of `n` threshold agents.
    pub fn homogeneous(n: usize, threshold: u64, rounds: usize) -> Self {
        ScripConfig {
            agents: vec![AgentKind::Threshold { threshold }; n],
            initial_scrip: threshold / 2 + 1,
            benefit: 1.0,
            cost: 0.2,
            rounds,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScripOutcome {
    /// Fraction of requests that found a volunteer.
    pub efficiency: f64,
    /// Total utility accumulated by each agent.
    pub utilities: Vec<f64>,
    /// Final scrip holdings of each agent.
    pub holdings: Vec<u64>,
    /// Number of requests that went unserved.
    pub unserved: usize,
    /// Number of rounds simulated.
    pub rounds: usize,
}

impl ScripOutcome {
    /// Average utility of the agents for which `filter` returns true.
    pub fn average_utility<F: Fn(usize) -> bool>(&self, filter: F) -> f64 {
        let selected: Vec<f64> = self
            .utilities
            .iter()
            .enumerate()
            .filter(|(i, _)| filter(*i))
            .map(|(_, u)| *u)
            .collect();
        if selected.is_empty() {
            0.0
        } else {
            selected.iter().sum::<f64>() / selected.len() as f64
        }
    }
}

/// Runs the scrip economy simulation. The RNG stream is fully determined
/// by `seed`, so independently seeded calls are independent replicas (the
/// seed used to live inside [`ScripConfig`], which silently reused one
/// stream across runs of the same configuration).
///
/// # Panics
///
/// Panics if there are fewer than two agents.
pub fn simulate(config: &ScripConfig, seed: u64) -> ScripOutcome {
    let n = config.agents.len();
    assert!(n >= 2, "the scrip economy needs at least two agents");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut holdings = vec![config.initial_scrip; n];
    let mut utilities = vec![0.0; n];
    let mut unserved = 0usize;
    for _ in 0..config.rounds {
        let requester = rng.random_range(0..n);
        // a requester must have scrip to pay, unless an altruist serves her
        let volunteers: Vec<usize> = (0..n)
            .filter(|&i| i != requester)
            .filter(|&i| match config.agents[i] {
                AgentKind::Threshold { threshold } => {
                    holdings[i] < threshold && holdings[requester] > 0
                }
                AgentKind::Hoarder => holdings[requester] > 0,
                AgentKind::Altruist => true,
            })
            .collect();
        if volunteers.is_empty() {
            unserved += 1;
            continue;
        }
        let volunteer = volunteers[rng.random_range(0..volunteers.len())];
        utilities[requester] += config.benefit;
        utilities[volunteer] -= config.cost;
        match config.agents[volunteer] {
            AgentKind::Altruist => {}
            _ => {
                holdings[requester] -= 1;
                holdings[volunteer] += 1;
            }
        }
    }
    ScripOutcome {
        efficiency: 1.0 - unserved as f64 / config.rounds as f64,
        utilities,
        holdings,
        unserved,
        rounds: config.rounds,
    }
}

/// Estimates whether the common threshold `threshold` is a best response for
/// agent 0 when everyone else uses it: compares agent 0's utility at the
/// common threshold against the candidate deviations in `alternatives`,
/// averaging over `trials` runs seeded `seed, seed + 1, …` (the same seeds
/// for every candidate — common random numbers). Returns
/// `(best_threshold, utilities)` with one utility entry per candidate (the
/// common threshold is evaluated too).
pub fn threshold_best_response(
    n: usize,
    threshold: u64,
    alternatives: &[u64],
    rounds: usize,
    trials: usize,
    seed: u64,
) -> (u64, Vec<(u64, f64)>) {
    let mut results = Vec::new();
    let mut candidates = vec![threshold];
    candidates.extend_from_slice(alternatives);
    for &candidate in &candidates {
        let mut total = 0.0;
        for trial in 0..trials {
            let mut config = ScripConfig::homogeneous(n, threshold, rounds);
            config.agents[0] = AgentKind::Threshold {
                threshold: candidate,
            };
            total += simulate(&config, seed.wrapping_add(trial as u64)).utilities[0];
        }
        results.push((candidate, total / trials as f64));
    }
    let best = results
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("utilities are finite"))
        .expect("at least one candidate")
        .0;
    (best, results)
}

/// One row of the E11 sweep: efficiency as the population mix changes.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRow {
    /// Number of hoarders in the population.
    pub hoarders: usize,
    /// Number of altruists in the population.
    pub altruists: usize,
    /// Measured efficiency.
    pub efficiency: f64,
    /// Average utility of the rational threshold agents.
    pub rational_utility: f64,
}

/// Sweeps the number of hoarders and altruists in an otherwise homogeneous
/// threshold population (experiment E11).
pub fn mix_sweep(
    n: usize,
    threshold: u64,
    hoarder_counts: &[usize],
    altruist_counts: &[usize],
    rounds: usize,
    seed: u64,
) -> Vec<MixRow> {
    let mut rows = Vec::new();
    for &hoarders in hoarder_counts {
        for &altruists in altruist_counts {
            if hoarders + altruists >= n {
                continue;
            }
            let mut agents = vec![AgentKind::Threshold { threshold }; n];
            for a in agents.iter_mut().take(hoarders) {
                *a = AgentKind::Hoarder;
            }
            for a in agents.iter_mut().skip(hoarders).take(altruists) {
                *a = AgentKind::Altruist;
            }
            let config = ScripConfig {
                agents,
                initial_scrip: threshold / 2 + 1,
                benefit: 1.0,
                cost: 0.2,
                rounds,
            };
            let outcome = simulate(&config, seed);
            let rational_utility = outcome.average_utility(|i| i >= hoarders + altruists);
            rows.push(MixRow {
                hoarders,
                altruists,
                efficiency: outcome.efficiency,
                rational_utility,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_threshold_population_is_efficient() {
        let config = ScripConfig::homogeneous(50, 10, 20_000);
        let outcome = simulate(&config, 7);
        assert!(
            outcome.efficiency > 0.9,
            "efficiency {}",
            outcome.efficiency
        );
        // scrip is conserved (no altruists in the mix)
        let total: u64 = outcome.holdings.iter().sum();
        assert_eq!(total, 50 * config.initial_scrip);
    }

    #[test]
    fn zero_threshold_population_collapses() {
        // nobody ever volunteers: every request goes unserved
        let config = ScripConfig::homogeneous(20, 0, 2_000);
        let outcome = simulate(&config, 3);
        assert_eq!(outcome.efficiency, 0.0);
        assert_eq!(outcome.unserved, 2_000);
    }

    #[test]
    fn hoarders_drain_scrip_and_hurt_efficiency() {
        let rounds = 30_000;
        let baseline = simulate(&ScripConfig::homogeneous(40, 5, rounds), 11);
        let rows = mix_sweep(40, 5, &[0, 15], &[0], rounds, 11);
        let with_hoarders = rows.iter().find(|r| r.hoarders == 15).expect("row exists");
        // hoarders soak up scrip, so rational agents increasingly cannot pay
        assert!(
            with_hoarders.efficiency < baseline.efficiency,
            "hoarders {} vs baseline {}",
            with_hoarders.efficiency,
            baseline.efficiency
        );
    }

    #[test]
    fn altruists_prop_up_efficiency_even_when_scrip_runs_out() {
        // with a tiny threshold the pure-threshold economy is inefficient;
        // adding altruists (who serve for free) repairs it
        let rounds = 20_000;
        let rows = mix_sweep(30, 1, &[0], &[0, 10], rounds, 13);
        let without = rows.iter().find(|r| r.altruists == 0).unwrap();
        let with = rows.iter().find(|r| r.altruists == 10).unwrap();
        assert!(with.efficiency > without.efficiency);
    }

    #[test]
    fn moderate_threshold_beats_degenerate_ones_as_a_response() {
        // when everyone uses threshold 8, responding with threshold 0 (never
        // volunteer → never earn scrip → can rarely buy service) is worse
        let (_, results) = threshold_best_response(25, 8, &[0], 8_000, 3, 1_000);
        let common = results.iter().find(|(t, _)| *t == 8).unwrap().1;
        let zero = results.iter().find(|(t, _)| *t == 0).unwrap().1;
        assert!(common > zero, "common {common} vs zero {zero}");
    }

    #[test]
    fn average_utility_filter_works() {
        let outcome = ScripOutcome {
            efficiency: 1.0,
            utilities: vec![1.0, 3.0, 5.0],
            holdings: vec![0, 0, 0],
            unserved: 0,
            rounds: 1,
        };
        assert_eq!(outcome.average_utility(|i| i > 0), 4.0);
        assert_eq!(outcome.average_utility(|_| false), 0.0);
    }
}
