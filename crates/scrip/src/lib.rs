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
//! an (approximate) equilibrium:
//!
//! * [`economy`] — the [`Economy`] engine: flat index-based agent state,
//!   O(1) rounds via incrementally maintained volunteer pools,
//!   arrival/departure churn, streaming aggregates, built for 10^6+
//!   agents;
//! * [`scenario`] — [`EconomyScenario`], the engine's seeded replica
//!   sweeps through the `bne-sim` runner;
//! * [`audit`] — the engine as a `bne-games` payoff backend, so the
//!   sampled deviation oracle can audit its equilibrium claims;
//! * [`exact`] — the exact Markov chain of a small churn-free economy,
//!   the reference the engine's sampled means are checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod economy;
pub mod exact;
pub mod scenario;

pub use audit::{AuditWork, ThresholdAuditBackend};
pub use economy::{Economy, EconomyConfig, EconomyOutcome};
pub use scenario::{economy_grid, EconomyScenario, EconomyStats};

/// The crate's qualitative claims: the engine on a healthy economy, and
/// the rest exactly, on the chains of small economies.
#[cfg(test)]
mod tests {
    use super::*;

    /// The exact efficiency of `config` with every rational agent at the
    /// common threshold.
    fn efficiency(config: &EconomyConfig) -> f64 {
        exact::per_round(config, config.threshold).efficiency
    }

    #[test]
    fn homogeneous_threshold_population_is_efficient() {
        let config = EconomyConfig::homogeneous(50, 10, 20_000);
        let outcome = Economy::new(&config).run(7);
        assert!(
            outcome.efficiency > 0.9,
            "efficiency {}",
            outcome.efficiency
        );
        // scrip is conserved without churn
        assert_eq!(outcome.money_supply, 50 * u64::from(config.initial_scrip));
    }

    #[test]
    fn zero_threshold_population_collapses() {
        // nobody ever volunteers: every request goes unserved
        let exact = exact::per_round(&EconomyConfig::homogeneous(20, 0, 2_000), 0);
        assert_eq!(exact.efficiency, 0.0);
        assert_eq!(exact.deviator_utility, 0.0);
        assert_eq!(exact.states, 1);
    }

    #[test]
    fn hoarders_drain_scrip_and_hurt_efficiency() {
        // six agents with 2 scrip each at threshold 3, over 300 rounds:
        // each hoarder that replaces a rational agent soaks up scrip that
        // the rational agents then cannot pay with
        let with = |hoarders| EconomyConfig {
            hoarders,
            ..EconomyConfig::homogeneous(6 - hoarders, 3, 300)
        };
        let (none, one, two) = (
            efficiency(&with(0)),
            efficiency(&with(1)),
            efficiency(&with(2)),
        );
        assert!(none > one && one > two, "{none} > {one} > {two}");
    }

    #[test]
    fn altruists_prop_up_efficiency_even_when_scrip_runs_out() {
        // at threshold 1 everyone starts with 1 scrip, at the threshold, so
        // no rational agent ever volunteers; an altruist serves the others
        // for free, so only its own requests go unserved
        let without = EconomyConfig::homogeneous(4, 1, 100);
        assert_eq!(efficiency(&without), 0.0);
        let with = EconomyConfig {
            altruists: 1,
            ..EconomyConfig::homogeneous(3, 1, 100)
        };
        assert!((efficiency(&with) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moderate_threshold_beats_degenerate_ones_as_a_response() {
        // when nine others use threshold 3, responding with threshold 0
        // (never volunteer, so never earn scrip and spend only the 2 it
        // starts with) is worse than the common threshold
        let config = EconomyConfig::homogeneous(10, 3, 300);
        let never = exact::per_round(&config, 0).deviator_utility;
        let common = exact::per_round(&config, 3).deviator_utility;
        assert!(
            never < 0.007 && common > 0.07,
            "never {never} vs common {common}"
        );
    }
}
