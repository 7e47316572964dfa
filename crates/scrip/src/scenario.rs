//! The scrip economy as a [`bne_sim::Scenario`]: grid sweeps of seeded
//! [`Economy`] replicas with streaming aggregation, so million-agent
//! sweeps run through the same runner with bit-identical
//! sequential/parallel aggregates.

use crate::economy::{Economy, EconomyConfig, EconomyOutcome};
use bne_sim::{Histogram, Merge, Scenario, StreamingStats};

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
    use bne_sim::SimRunner;

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
        // four agents at threshold 3 over 100 rounds, exactly: without
        // scrip nobody can pay, a moderate supply trades, and at the
        // threshold everyone stops volunteering
        let grid = economy_grid(4, 3, &[0, 1, 2, 3], &[0.0], &[0.0], 100);
        let efficiency: Vec<f64> = grid
            .iter()
            .map(|config| crate::exact::per_round(config, 3).efficiency)
            .collect();
        assert_eq!(efficiency[0], 0.0);
        assert!(efficiency[1] > 0.0, "{efficiency:?}");
        assert!(efficiency[2] > efficiency[1], "{efficiency:?}");
        assert_eq!(efficiency[3], 0.0);
    }
}
