//! The scaled scrip economy: an index-based engine whose hot loop is O(1)
//! per round and allocation-free in steady state, built for 10^6+ agents.
//!
//! The legacy [`crate::simulate`] scans the whole population every round to
//! collect volunteers — O(n) work and a fresh `Vec` per round, fine for
//! thousands of agents and hopeless for millions. The [`Economy`] engine
//! keeps the *willing-to-volunteer* sets incrementally instead:
//!
//! * agent state lives in flat arrays (`u32` holdings and thresholds, `u8`
//!   class tags, `f64` utilities) — about 30 bytes per agent, so a million
//!   agents fit in ~30 MB;
//! * the **paid pool** holds every agent who would volunteer *for payment*
//!   (rational agents strictly below their threshold, hoarders always),
//!   maintained by O(1) swap-remove with a position index; altruists form
//!   a static second pool since they serve regardless of payment;
//! * a round is: draw requester, draw volunteer uniformly from the union
//!   of the eligible pools (rejecting the requester, who appears at most
//!   once), transfer one scrip, update pool membership — all O(1);
//! * **churn** models arrivals/departures: each round, with the configured
//!   probability, one uniformly chosen agent leaves (taking its scrip out
//!   of circulation) and a newcomer takes over the slot with fresh scrip,
//!   keeping the slot's class and strategy. With churn disabled the RNG
//!   stream is untouched, so zero-churn configs reproduce byte-for-byte;
//! * results are **streaming aggregates only** (per-class mean utilities,
//!   holdings histogram, pool-size stats) — the engine never materializes
//!   per-agent output vectors, and [`Economy::resident_bytes`] exposes the
//!   capacity high-water mark so tests can assert the steady state
//!   allocates nothing.
//!
//! Per-slot utilities remain readable *on the engine* after a run (see
//! [`Economy::average_utility`]); the sampled-audit backend in
//! [`crate::audit`] uses them as payoffs without ever copying them out.

use bne_sim::{Histogram, StreamingStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Class tag: rational threshold agent.
const RATIONAL: u8 = 0;
/// Class tag: hoarder (volunteers for payment no matter its holdings).
const HOARDER: u8 = 1;
/// Class tag: altruist (serves for free, never takes payment).
const ALTRUIST: u8 = 2;

/// Sentinel for "not in the paid pool".
const NOT_POOLED: u32 = u32::MAX;

/// Configuration of a scaled scrip economy.
///
/// Slots are laid out hoarders first, then altruists, then rational
/// agents — the same convention as [`crate::mix_sweep`] — so the rational
/// block is contiguous and the audit backend can address it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct EconomyConfig {
    /// Number of rational threshold agents.
    pub rational: usize,
    /// Number of hoarders (Byzantine scrip accumulators).
    pub hoarders: usize,
    /// Number of altruists.
    pub altruists: usize,
    /// Common threshold of the rational agents (audits override per slot).
    pub threshold: u32,
    /// Initial scrip per agent — the money supply knob.
    pub initial_scrip: u32,
    /// Scrip a newcomer brings when churn replaces a departing agent.
    pub newcomer_scrip: u32,
    /// Utility a requester gains when served.
    pub benefit: f64,
    /// Utility a volunteer loses performing the work.
    pub cost: f64,
    /// Per-round probability that one agent departs and is replaced.
    pub churn: f64,
    /// Rounds to simulate.
    pub rounds: u64,
}

impl EconomyConfig {
    /// A homogeneous population of `n` rational agents at `threshold`,
    /// with the legacy simulator's benefit/cost and money supply.
    pub fn homogeneous(n: usize, threshold: u32, rounds: u64) -> Self {
        EconomyConfig {
            rational: n,
            hoarders: 0,
            altruists: 0,
            threshold,
            initial_scrip: threshold / 2 + 1,
            newcomer_scrip: threshold / 2 + 1,
            benefit: 1.0,
            cost: 0.2,
            churn: 0.0,
            rounds,
        }
    }

    /// Total number of agent slots.
    pub fn total_agents(&self) -> usize {
        self.rational + self.hoarders + self.altruists
    }

    /// First slot of the contiguous rational block.
    pub fn rational_base(&self) -> usize {
        self.hoarders + self.altruists
    }
}

/// Aggregates of one economy run. Everything here is O(1) in the number
/// of agents — per-agent data stays inside the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EconomyOutcome {
    /// Fraction of requests served.
    pub efficiency: f64,
    /// Requests that found no volunteer.
    pub unserved: u64,
    /// Rounds simulated.
    pub rounds: u64,
    /// Departures processed by churn.
    pub departures: u64,
    /// Mean per-round utility of the rational agents.
    pub rational_utility: f64,
    /// Mean per-round utility of the hoarders.
    pub hoarder_utility: f64,
    /// Mean per-round utility of the altruists.
    pub altruist_utility: f64,
    /// Scrip in circulation after the final round (churn moves this).
    pub money_supply: u64,
    /// Per-round size of the paid volunteer pool.
    pub pool_size: StreamingStats,
    /// Final holdings distribution (overflow bucket catches hoarders).
    pub holdings_hist: Histogram,
    /// Capacity high-water mark of the engine's allocations, in bytes.
    pub resident_bytes: usize,
}

/// The counters of one run that only the aggregate outcome reads.
pub(crate) struct RunTally {
    unserved: u64,
    departures: u64,
    money: u64,
    pool_size: StreamingStats,
}

/// The scaled scrip economy engine. Construct once, [`Economy::run`] as
/// many times as needed — every run re-seeds and re-initializes in place,
/// so repeated runs never allocate.
#[derive(Debug, Clone)]
pub struct Economy {
    config: EconomyConfig,
    holdings: Vec<u32>,
    thresholds: Vec<u32>,
    class: Vec<u8>,
    utility: Vec<f64>,
    /// Agents who would volunteer for payment right now.
    paid_pool: Vec<u32>,
    /// `paid_pos[slot]` is the slot's index in `paid_pool`, or [`NOT_POOLED`].
    paid_pos: Vec<u32>,
    /// Altruist slots (static: churn keeps each slot's class).
    altruist_pool: Vec<u32>,
    rounds_run: u64,
}

impl Economy {
    /// Allocates an engine for `config`. All allocation happens here; the
    /// round loop and later runs reuse these buffers.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two agents or more than `u32::MAX - 1` slots.
    pub fn new(config: &EconomyConfig) -> Self {
        let n = config.total_agents();
        assert!(n >= 2, "the scrip economy needs at least two agents");
        assert!(n < u32::MAX as usize, "slot indices are u32");
        let mut economy = Economy {
            config: config.clone(),
            holdings: vec![0; n],
            thresholds: vec![0; n],
            class: vec![0; n],
            utility: vec![0.0; n],
            paid_pool: Vec::with_capacity(n),
            paid_pos: vec![NOT_POOLED; n],
            altruist_pool: Vec::with_capacity(config.altruists),
            rounds_run: 0,
        };
        for slot in 0..n {
            economy.class[slot] = if slot < config.hoarders {
                HOARDER
            } else if slot < config.rational_base() {
                ALTRUIST
            } else {
                RATIONAL
            };
        }
        economy.reset();
        economy
    }

    /// Re-initializes holdings, utilities and pools in place (no
    /// allocation). Thresholds return to the config's common threshold.
    pub fn reset(&mut self) {
        let n = self.holdings.len();
        self.holdings.fill(self.config.initial_scrip);
        self.thresholds.fill(self.config.threshold);
        self.utility.fill(0.0);
        self.paid_pool.clear();
        self.altruist_pool.clear();
        self.paid_pos.fill(NOT_POOLED);
        self.rounds_run = 0;
        for slot in 0..n {
            match self.class[slot] {
                ALTRUIST => self.altruist_pool.push(slot as u32),
                _ => self.sync_membership(slot),
            }
        }
    }

    /// Overrides one slot's threshold (audits deviate rational slots this
    /// way before running). Pool membership is kept consistent.
    pub fn set_threshold(&mut self, slot: usize, threshold: u32) {
        self.thresholds[slot] = threshold;
        if self.class[slot] == RATIONAL {
            self.sync_membership(slot);
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EconomyConfig {
        &self.config
    }

    /// Per-round average utility of `slot` over the last run. Churn keeps
    /// utilities attached to the *slot* (the strategy seat), so this is
    /// the long-run per-round value of playing the slot's strategy.
    pub fn average_utility(&self, slot: usize) -> f64 {
        if self.rounds_run == 0 {
            0.0
        } else {
            self.utility[slot] / self.rounds_run as f64
        }
    }

    /// Sum of the capacities of every buffer the engine owns, in bytes —
    /// the arena high-water mark. Steady-state rounds must not move it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.holdings.capacity() * size_of::<u32>()
            + self.thresholds.capacity() * size_of::<u32>()
            + self.class.capacity() * size_of::<u8>()
            + self.utility.capacity() * size_of::<f64>()
            + self.paid_pool.capacity() * size_of::<u32>()
            + self.paid_pos.capacity() * size_of::<u32>()
            + self.altruist_pool.capacity() * size_of::<u32>()
    }

    /// Inserts or removes `slot` from the paid pool to match its state.
    fn sync_membership(&mut self, slot: usize) {
        let eligible = match self.class[slot] {
            HOARDER => true,
            RATIONAL => self.holdings[slot] < self.thresholds[slot],
            _ => false,
        };
        let pos = self.paid_pos[slot];
        if eligible && pos == NOT_POOLED {
            self.paid_pos[slot] = self.paid_pool.len() as u32;
            self.paid_pool.push(slot as u32);
        } else if !eligible && pos != NOT_POOLED {
            let last = *self.paid_pool.last().expect("pool has the member");
            self.paid_pool.swap_remove(pos as usize);
            if last as usize != slot {
                self.paid_pos[last as usize] = pos;
            }
            self.paid_pos[slot] = NOT_POOLED;
        }
    }

    /// Runs `config.rounds` rounds from a fresh initial state seeded by
    /// `seed`, returning aggregates. Per-slot utilities stay readable via
    /// [`Economy::average_utility`] until the next run.
    pub fn run(&mut self, seed: u64) -> EconomyOutcome {
        self.run_with_thresholds(&[], seed)
    }

    /// Like [`Economy::run`], but with per-slot threshold overrides
    /// applied after the reset — the audit backend's deviation hook.
    pub fn run_with_thresholds(&mut self, overrides: &[(usize, u32)], seed: u64) -> EconomyOutcome {
        let tally = self.simulate(overrides, seed);
        self.summarize(tally)
    }

    /// The one round loop: resets, applies the per-slot threshold
    /// overrides and simulates `config.rounds` rounds seeded by `seed`,
    /// leaving per-slot utilities readable via
    /// [`Economy::average_utility`]. Allocation-free. Audit queries call
    /// this directly, since they read slot utilities and never the
    /// aggregate outcome.
    pub(crate) fn simulate(&mut self, overrides: &[(usize, u32)], seed: u64) -> RunTally {
        self.reset();
        for &(slot, threshold) in overrides {
            self.set_threshold(slot, threshold);
        }
        let n = self.holdings.len();
        let config = self.config.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unserved = 0u64;
        let mut departures = 0u64;
        let mut money: u64 = self.holdings.iter().map(|&h| h as u64).sum();
        let mut pool_size = StreamingStats::new();
        for _ in 0..config.rounds {
            pool_size.push(self.paid_pool.len() as f64);
            let requester = rng.random_range(0..n);
            let can_pay = self.holdings[requester] > 0;
            let paid_len = if can_pay { self.paid_pool.len() } else { 0 };
            let total = paid_len + self.altruist_pool.len();
            let requester_in_union = (can_pay && self.paid_pos[requester] != NOT_POOLED)
                || self.class[requester] == ALTRUIST;
            if total == 0 || (total == 1 && requester_in_union) {
                unserved += 1;
            } else {
                let volunteer = loop {
                    let idx = rng.random_range(0..total);
                    let v = if idx < paid_len {
                        self.paid_pool[idx] as usize
                    } else {
                        self.altruist_pool[idx - paid_len] as usize
                    };
                    if v != requester {
                        break v;
                    }
                };
                self.utility[requester] += config.benefit;
                self.utility[volunteer] -= config.cost;
                if self.class[volunteer] != ALTRUIST {
                    // the requester pays one scrip for the service
                    self.holdings[requester] -= 1;
                    self.holdings[volunteer] += 1;
                    if self.class[requester] == RATIONAL {
                        self.sync_membership(requester);
                    }
                    if self.class[volunteer] == RATIONAL {
                        self.sync_membership(volunteer);
                    }
                }
            }
            // churn draws nothing when disabled, so zero-churn streams
            // match configs that never had the feature
            if config.churn > 0.0 && rng.random_bool(config.churn) {
                let slot = rng.random_range(0..n);
                money -= self.holdings[slot] as u64;
                money += config.newcomer_scrip as u64;
                self.holdings[slot] = config.newcomer_scrip;
                departures += 1;
                if self.class[slot] == RATIONAL {
                    self.sync_membership(slot);
                }
            }
        }
        self.rounds_run = config.rounds;
        RunTally {
            unserved,
            departures,
            money,
            pool_size,
        }
    }

    /// Folds a run's counters and the per-slot state into the aggregate
    /// outcome.
    fn summarize(&self, tally: RunTally) -> EconomyOutcome {
        let RunTally {
            unserved,
            departures,
            money,
            pool_size,
        } = tally;
        let config = &self.config;
        let rounds = config.rounds.max(1) as f64;
        let mut class_total = [0.0f64; 3];
        let hist_hi = f64::from(config.threshold.max(config.initial_scrip) * 2 + 2);
        let mut hist = Histogram::new(0.0, hist_hi, 20);
        for slot in 0..self.holdings.len() {
            class_total[self.class[slot] as usize] += self.utility[slot];
            hist.record(f64::from(self.holdings[slot]));
        }
        let mean = |total: f64, count: usize| {
            if count == 0 {
                0.0
            } else {
                total / count as f64 / rounds
            }
        };
        EconomyOutcome {
            efficiency: 1.0 - unserved as f64 / rounds,
            unserved,
            rounds: config.rounds,
            departures,
            rational_utility: mean(class_total[RATIONAL as usize], config.rational),
            hoarder_utility: mean(class_total[HOARDER as usize], config.hoarders),
            altruist_utility: mean(class_total[ALTRUIST as usize], config.altruists),
            money_supply: money,
            pool_size,
            holdings_hist: hist,
            resident_bytes: self.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, ScripConfig};

    #[test]
    fn engine_matches_legacy_qualitatively() {
        // same economy parameters, same qualitative regime: a healthy
        // homogeneous threshold economy serves nearly every request
        let legacy = simulate(&ScripConfig::homogeneous(200, 10, 50_000), 7);
        let mut engine = Economy::new(&EconomyConfig::homogeneous(200, 10, 50_000));
        let outcome = engine.run(7);
        assert!(legacy.efficiency > 0.9);
        assert!(outcome.efficiency > 0.9, "engine {}", outcome.efficiency);
        assert!((outcome.efficiency - legacy.efficiency).abs() < 0.05);
    }

    #[test]
    fn scrip_is_conserved_without_churn() {
        let config = EconomyConfig {
            hoarders: 10,
            altruists: 5,
            ..EconomyConfig::homogeneous(100, 8, 20_000)
        };
        let mut engine = Economy::new(&config);
        let outcome = engine.run(3);
        let expected = config.total_agents() as u64 * config.initial_scrip as u64;
        assert_eq!(outcome.money_supply, expected);
        assert_eq!(outcome.departures, 0);
        // the histogram saw every agent
        assert_eq!(outcome.holdings_hist.total(), config.total_agents() as u64);
    }

    #[test]
    fn churn_moves_the_money_supply_and_counts_departures() {
        let config = EconomyConfig {
            churn: 0.05,
            newcomer_scrip: 1,
            ..EconomyConfig::homogeneous(100, 8, 20_000)
        };
        let mut engine = Economy::new(&config);
        let outcome = engine.run(11);
        assert!(outcome.departures > 0);
        // newcomers bring less than the initial supply, so money drains
        let initial = config.total_agents() as u64 * config.initial_scrip as u64;
        assert!(outcome.money_supply < initial);
    }

    #[test]
    fn zero_churn_stream_matches_runs_without_the_feature() {
        // churn == 0.0 must not consume RNG draws: the outcome equals a
        // config that differs only in churn-related knobs
        let a = Economy::new(&EconomyConfig::homogeneous(60, 6, 5_000)).run(21);
        let b = Economy::new(&EconomyConfig {
            newcomer_scrip: 999,
            ..EconomyConfig::homogeneous(60, 6, 5_000)
        })
        .run(21);
        assert_eq!(a, b);
    }

    #[test]
    fn runs_are_deterministic_and_reusable() {
        let config = EconomyConfig {
            hoarders: 7,
            churn: 0.01,
            ..EconomyConfig::homogeneous(80, 5, 10_000)
        };
        let mut engine = Economy::new(&config);
        let first = engine.run(5);
        let again = engine.run(5);
        assert_eq!(first, again);
        let other = engine.run(6);
        assert_ne!(first, other);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let config = EconomyConfig {
            hoarders: 20,
            altruists: 10,
            churn: 0.02,
            ..EconomyConfig::homogeneous(500, 8, 30_000)
        };
        let mut engine = Economy::new(&config);
        let before = engine.resident_bytes();
        let outcome = engine.run(9);
        assert_eq!(
            engine.resident_bytes(),
            before,
            "the round loop must reuse construction-time buffers"
        );
        assert_eq!(outcome.resident_bytes, before);
        engine.run(10);
        assert_eq!(engine.resident_bytes(), before);
    }

    #[test]
    fn zero_threshold_economy_collapses() {
        let mut engine = Economy::new(&EconomyConfig::homogeneous(50, 0, 2_000));
        let outcome = engine.run(3);
        assert_eq!(outcome.efficiency, 0.0);
        assert_eq!(outcome.unserved, 2_000);
    }

    #[test]
    fn altruists_serve_even_a_broke_economy() {
        let config = EconomyConfig {
            altruists: 10,
            initial_scrip: 0,
            newcomer_scrip: 0,
            ..EconomyConfig::homogeneous(40, 0, 5_000)
        };
        let mut engine = Economy::new(&config);
        let outcome = engine.run(13);
        // altruists serve everyone for free; nobody ever pays
        assert!(outcome.efficiency > 0.99, "got {}", outcome.efficiency);
        assert_eq!(outcome.money_supply, 0);
        assert!(outcome.altruist_utility < 0.0);
    }

    #[test]
    fn set_threshold_deviates_one_slot() {
        let config = EconomyConfig::homogeneous(50, 8, 20_000);
        let mut engine = Economy::new(&config);
        let base = engine.run(17);
        // a zero-threshold deviator never volunteers, never earns scrip,
        // and ends up served less often than conformers
        let deviant = config.rational_base(); // first rational slot
        let outcome = engine.run_with_thresholds(&[(deviant, 0)], 17);
        assert!(outcome.efficiency <= base.efficiency + 0.05);
        let dev_utility = engine.average_utility(deviant);
        let conformer = engine.average_utility(deviant + 1);
        assert!(
            conformer > dev_utility,
            "conformer {conformer} vs deviant {dev_utility}"
        );
    }

    #[test]
    fn hoarders_accumulate_scrip() {
        let config = EconomyConfig {
            hoarders: 5,
            ..EconomyConfig::homogeneous(60, 6, 40_000)
        };
        let mut engine = Economy::new(&config);
        engine.run(23);
        // hoarder slots are 0..5; they volunteer forever and never spend
        // their way back down, so they hold more than rational agents
        let hoard: u32 = (0..5).map(|s| engine.holdings[s]).sum();
        let rational: u32 = (5..10).map(|s| engine.holdings[s]).sum();
        assert!(hoard > rational, "hoard {hoard} vs rational {rational}");
    }
}
