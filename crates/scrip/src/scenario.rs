//! The scrip economy as a [`bne_sim::Scenario`]: grid sweeps of seeded
//! replicas with streaming aggregation, replacing ad-hoc loops around
//! [`crate::simulate`]. The scaled engine gets its own scenario
//! ([`EconomyScenario`]) so million-agent sweeps run through the same
//! runner with bit-identical sequential/parallel aggregates.

use crate::economy::{Economy, EconomyConfig, EconomyOutcome};
use crate::{simulate, AgentKind, ScripConfig};
use bne_sim::{Histogram, Merge, Scenario, StreamingStats};

/// Streaming aggregate of scrip replicas (one grid cell).
#[derive(Debug, Clone, PartialEq)]
pub struct ScripStats {
    /// Fraction of requests served.
    pub efficiency: StreamingStats,
    /// Average utility of the rational threshold agents.
    pub rational_utility: StreamingStats,
    /// Requests that went unserved.
    pub unserved: StreamingStats,
    /// Distribution of per-replica efficiency over `[0, 1)` (20 buckets;
    /// an all-served replica lands in the overflow counter).
    pub efficiency_hist: Histogram,
}

impl ScripStats {
    /// Summarizes one replica.
    pub fn of_outcome(config: &ScripConfig, outcome: &crate::ScripOutcome) -> Self {
        let rational =
            outcome.average_utility(|i| matches!(config.agents[i], AgentKind::Threshold { .. }));
        let mut hist = Histogram::new(0.0, 1.0, 20);
        hist.record(outcome.efficiency);
        ScripStats {
            efficiency: StreamingStats::of(outcome.efficiency),
            rational_utility: StreamingStats::of(rational),
            unserved: StreamingStats::of(outcome.unserved as f64),
            efficiency_hist: hist,
        }
    }
}

impl Merge for ScripStats {
    fn merge(&mut self, other: &Self) {
        self.efficiency.merge(&other.efficiency);
        self.rational_utility.merge(&other.rational_utility);
        self.unserved.merge(&other.unserved);
        self.efficiency_hist.merge(&other.efficiency_hist);
    }
}

/// The scrip economy scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScripScenario;

impl Scenario for ScripScenario {
    type Config = ScripConfig;
    type Outcome = ScripStats;

    fn run(&self, config: &ScripConfig, seed: u64) -> ScripStats {
        ScripStats::of_outcome(config, &simulate(config, seed))
    }
}

/// Grid varying the money supply (initial scrip per agent) in an otherwise
/// homogeneous threshold economy — the paper's "how much money should the
/// system print" question.
pub fn money_supply_grid(
    n: usize,
    threshold: u64,
    supplies: &[u64],
    rounds: usize,
) -> Vec<ScripConfig> {
    supplies
        .iter()
        .map(|&initial_scrip| {
            let mut config = ScripConfig::homogeneous(n, threshold, rounds);
            config.initial_scrip = initial_scrip;
            config
        })
        .collect()
}

/// Grid varying the population size of a homogeneous threshold economy
/// (replica sweeps along this grid give the money-supply curve over `n`).
pub fn population_grid(ns: &[usize], threshold: u64, rounds: usize) -> Vec<ScripConfig> {
    ns.iter()
        .map(|&n| ScripConfig::homogeneous(n, threshold, rounds))
        .collect()
}

/// Streaming aggregate of scaled-economy replicas (one grid cell).
#[derive(Debug, Clone, PartialEq)]
pub struct EconomyStats {
    /// Fraction of requests served.
    pub efficiency: StreamingStats,
    /// Mean per-round utility of the rational agents.
    pub rational_utility: StreamingStats,
    /// Mean per-round utility of the hoarders.
    pub hoarder_utility: StreamingStats,
    /// Final scrip in circulation (churn moves it between replicas' ends).
    pub money_supply: StreamingStats,
    /// Churn departures per replica.
    pub departures: StreamingStats,
    /// Paid-pool size over rounds, pooled across replicas.
    pub pool_size: StreamingStats,
    /// Final holdings distribution pooled across replicas.
    pub holdings_hist: Histogram,
    /// Largest engine footprint seen across replicas, in bytes.
    pub resident_bytes: usize,
}

impl EconomyStats {
    /// Summarizes one replica.
    pub fn of_outcome(outcome: &EconomyOutcome) -> Self {
        EconomyStats {
            efficiency: StreamingStats::of(outcome.efficiency),
            rational_utility: StreamingStats::of(outcome.rational_utility),
            hoarder_utility: StreamingStats::of(outcome.hoarder_utility),
            money_supply: StreamingStats::of(outcome.money_supply as f64),
            departures: StreamingStats::of(outcome.departures as f64),
            pool_size: outcome.pool_size.clone(),
            holdings_hist: outcome.holdings_hist.clone(),
            resident_bytes: outcome.resident_bytes,
        }
    }
}

impl Merge for EconomyStats {
    fn merge(&mut self, other: &Self) {
        self.efficiency.merge(&other.efficiency);
        self.rational_utility.merge(&other.rational_utility);
        self.hoarder_utility.merge(&other.hoarder_utility);
        self.money_supply.merge(&other.money_supply);
        self.departures.merge(&other.departures);
        self.pool_size.merge(&other.pool_size);
        self.holdings_hist.merge(&other.holdings_hist);
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
    }
}

/// The scaled scrip economy as a long-lived service-style scenario: each
/// replica boots an engine, runs the configured horizon, and reports
/// streaming aggregates only.
#[derive(Debug, Clone, Copy, Default)]
pub struct EconomyScenario;

impl Scenario for EconomyScenario {
    type Config = EconomyConfig;
    type Outcome = EconomyStats;

    fn run(&self, config: &EconomyConfig, seed: u64) -> EconomyStats {
        EconomyStats::of_outcome(&Economy::new(config).run(seed))
    }
}

/// The e24 grid: money supply × churn rate × hoarder fraction over a
/// population of `n` agents at the common `threshold`. Hoarders replace
/// rational agents, keeping the population size fixed.
pub fn economy_grid(
    n: usize,
    threshold: u32,
    supplies: &[u32],
    churns: &[f64],
    hoarder_fracs: &[f64],
    rounds: u64,
) -> Vec<EconomyConfig> {
    let mut grid = Vec::new();
    for &initial_scrip in supplies {
        for &churn in churns {
            for &frac in hoarder_fracs {
                let hoarders = ((n as f64 * frac).round() as usize).min(n.saturating_sub(2));
                grid.push(EconomyConfig {
                    rational: n - hoarders,
                    hoarders,
                    altruists: 0,
                    threshold,
                    initial_scrip,
                    newcomer_scrip: initial_scrip,
                    benefit: 1.0,
                    cost: 0.2,
                    churn,
                    rounds,
                });
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_sim::{canonical_fold, derive_seed, SimRunner};

    #[test]
    fn scenario_replica_matches_direct_simulate() {
        let config = ScripConfig::homogeneous(20, 6, 2_000);
        let stats = ScripScenario.run(&config, 77);
        let outcome = simulate(&config, 77);
        assert_eq!(stats.efficiency.mean(), outcome.efficiency);
        assert_eq!(stats.unserved.mean(), outcome.unserved as f64);
        assert_eq!(stats.efficiency.count(), 1);
    }

    #[test]
    fn engine_aggregate_is_bit_identical_to_legacy_loop() {
        let grid = money_supply_grid(16, 6, &[1, 3, 6], 1_000);
        let runner = SimRunner::new(20, 5);
        let engine = runner.run_sequential(&ScripScenario, &grid);
        for (cell, config) in grid.iter().enumerate() {
            let legacy = canonical_fold((0..20).map(|r| {
                ScripStats::of_outcome(config, &simulate(config, derive_seed(5, cell as u64, r)))
            }))
            .expect("non-empty");
            assert_eq!(engine[cell].outcome, legacy);
        }
    }

    #[test]
    fn economy_scenario_replica_matches_direct_run() {
        let config = EconomyConfig::homogeneous(100, 6, 5_000);
        let stats = EconomyScenario.run(&config, 31);
        let direct = Economy::new(&config).run(31);
        assert_eq!(stats.efficiency.mean(), direct.efficiency);
        assert_eq!(stats.resident_bytes, direct.resident_bytes);
        assert_eq!(stats.holdings_hist, direct.holdings_hist);
    }

    #[test]
    fn economy_grid_covers_the_full_product() {
        let grid = economy_grid(100, 8, &[2, 5], &[0.0, 0.01], &[0.0, 0.1], 1_000);
        assert_eq!(grid.len(), 8);
        assert!(grid.iter().all(|c| c.total_agents() == 100));
        let hoarded = grid.iter().filter(|c| c.hoarders == 10).count();
        assert_eq!(hoarded, 4);
    }

    #[test]
    fn economy_sweep_is_bit_identical_seq_vs_par() {
        let grid = economy_grid(60, 6, &[3], &[0.0, 0.02], &[0.0, 0.1], 2_000);
        let runner = SimRunner::new(6, 41);
        let seq = runner.run_sequential(&EconomyScenario, &grid);
        for workers in [2, 3] {
            let par = runner.run_parallel_with(workers, &EconomyScenario, &grid);
            assert_eq!(seq, par, "workers {workers}");
        }
    }

    #[test]
    fn money_supply_moves_efficiency() {
        // Too little scrip starves the economy relative to a moderate
        // supply; far above the threshold everyone stops volunteering.
        let grid = money_supply_grid(30, 8, &[0, 5, 30], 8_000);
        let results = SimRunner::new(8, 11).run_sequential(&ScripScenario, &grid);
        let starved = results[0].outcome.efficiency.mean();
        let healthy = results[1].outcome.efficiency.mean();
        let flooded = results[2].outcome.efficiency.mean();
        assert!(healthy > starved, "healthy {healthy} vs starved {starved}");
        assert!(healthy > flooded, "healthy {healthy} vs flooded {flooded}");
    }
}
