//! The scaled scrip economy: an index-based engine whose hot loop is O(1)
//! per round and allocation-free in steady state, built for 10^6+ agents.
//!
//! Collecting the volunteers by scanning the whole population every round
//! is O(n) work and a fresh `Vec` per round, fine for thousands of agents
//! and hopeless for millions. The [`Economy`] engine keeps the
//! *willing-to-volunteer* sets incrementally instead:
//!
//! * each agent is one 12-byte record (`u32` holdings, threshold and
//!   paid-pool position), so a round finds everything it needs about an
//!   agent in one place; utilities keep their own `f64` array, and the
//!   paid pool is a `u32` array — 12 + 8 + 4 = 24 bytes per agent, so a
//!   million agents fit in 24 MB. No class tag is stored:
//!   [`EconomyConfig`] lays the slots out as hoarders, then altruists,
//!   then rational agents;
//! * the **paid pool** holds every agent who would volunteer *for payment*
//!   (rational agents strictly below their threshold, hoarders always),
//!   maintained by O(1) swap-remove with the record's position index;
//!   altruists serve regardless of payment, so their slot range is a
//!   static second pool;
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
//! Its queries run the same round loop but keep no pool-size statistics,
//! which only an aggregate outcome reads; its one base run also records
//! the holdings each rational slot takes, which decide whether a
//! threshold deviation can change the run at all.

use bne_sim::{Histogram, StreamingStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::ops::Range;

/// Sentinel for "not in the paid pool".
const NOT_POOLED: u32 = u32::MAX;

/// Configuration of a scaled scrip economy.
///
/// Slots are laid out hoarders first, then altruists, then rational
/// agents, so the rational block is contiguous and the audit backend can
/// address it directly.
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
    /// each starting with `threshold / 2 + 1` scrip, with benefit 1 and
    /// cost 0.2.
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

    /// The slots of the altruists, between the hoarders and the rational
    /// block.
    fn altruist_slots(&self) -> Range<usize> {
        self.hoarders..self.rational_base()
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
struct RunTally {
    unserved: u64,
    departures: u64,
    money: u64,
}

/// What a run records as it goes. An aggregate outcome folds the paid
/// pool's size at the start of every round into [`StreamingStats`]; the
/// audit backend's base run records the holdings of every rational slot
/// after each change; an audit query records nothing (`()`). Both hooks
/// default to doing nothing, so a log compiles to what it reads.
pub(crate) trait RunLog {
    /// The paid pool's size at the start of a round.
    #[inline(always)]
    fn round(&mut self, _paid_pool_len: usize) {}

    /// The holdings of the rational `slot` right after they changed: it
    /// paid, earned, or churn replaced its agent.
    #[inline(always)]
    fn holdings(&mut self, _slot: usize, _holdings: u32) {}
}

impl RunLog for () {}

impl RunLog for StreamingStats {
    #[inline(always)]
    fn round(&mut self, paid_pool_len: usize) {
        self.push(paid_pool_len as f64);
    }
}

/// One agent slot: everything a round reads or writes about the agent but
/// its utility, in 12 bytes.
#[derive(Debug, Clone, Copy)]
struct Agent {
    holdings: u32,
    threshold: u32,
    /// The slot's index in the paid pool, or [`NOT_POOLED`].
    pool_pos: u32,
}

/// The scaled scrip economy engine. Construct once, [`Economy::run`] as
/// many times as needed — every run re-seeds and re-initializes in place,
/// so repeated runs never allocate.
#[derive(Debug, Clone)]
pub struct Economy {
    config: EconomyConfig,
    agents: Vec<Agent>,
    utility: Vec<f64>,
    /// Agents who would volunteer for payment right now.
    paid_pool: Vec<u32>,
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
        let blank = Agent {
            holdings: 0,
            threshold: 0,
            pool_pos: NOT_POOLED,
        };
        let mut economy = Economy {
            config: config.clone(),
            agents: vec![blank; n],
            utility: vec![0.0; n],
            paid_pool: Vec::with_capacity(n),
            rounds_run: 0,
        };
        economy.reset();
        economy
    }

    /// Re-initializes holdings, utilities and pools in place (no
    /// allocation). Thresholds return to the config's common threshold.
    pub fn reset(&mut self) {
        let config = &self.config;
        let (n, hoarders) = (self.agents.len(), config.hoarders);
        let agent = |pool_pos: u32| Agent {
            holdings: config.initial_scrip,
            threshold: config.threshold,
            pool_pos,
        };
        // the paid pool is the hoarders, then every rational agent if the
        // initial scrip is below the threshold, all in slot order
        let rational_pooled = config.initial_scrip < config.threshold;
        self.paid_pool.clear();
        self.paid_pool.extend(0..hoarders as u32);
        if rational_pooled {
            self.paid_pool
                .extend(config.rational_base() as u32..n as u32);
        }
        let (hoarder_agents, rest) = self.agents.split_at_mut(hoarders);
        let (altruist_agents, rational_agents) = rest.split_at_mut(config.altruists);
        for (pos, slot) in (0..).zip(hoarder_agents) {
            *slot = agent(pos);
        }
        altruist_agents.fill(agent(NOT_POOLED));
        if rational_pooled {
            for (pos, slot) in (hoarders as u32..).zip(rational_agents) {
                *slot = agent(pos);
            }
        } else {
            rational_agents.fill(agent(NOT_POOLED));
        }
        self.utility.fill(0.0);
        self.rounds_run = 0;
    }

    /// Overrides one slot's threshold (audits deviate rational slots this
    /// way before running). Pool membership is kept consistent.
    pub fn set_threshold(&mut self, slot: usize, threshold: u32) {
        self.agents[slot].threshold = threshold;
        if slot >= self.config.rational_base() {
            sync_membership(&mut self.agents, &mut self.paid_pool, slot);
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
        self.agents.capacity() * size_of::<Agent>()
            + self.utility.capacity() * size_of::<f64>()
            + self.paid_pool.capacity() * size_of::<u32>()
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
        let (tally, pool_size) = self.play(overrides, seed, StreamingStats::new());
        self.summarize(tally, pool_size)
    }

    /// An audit query: the rounds of [`Economy::run_with_thresholds`]
    /// without its pool statistics or outcome, recorded in `log`, which
    /// it returns. Per-slot utilities stay readable via
    /// [`Economy::average_utility`] until the next run.
    // Kept out of line, so each log's round loop inlines here, at its one
    // call site, and the unread tally compiles away.
    #[inline(never)]
    pub(crate) fn simulate<L: RunLog>(
        &mut self,
        overrides: &[(usize, u32)],
        seed: u64,
        log: L,
    ) -> L {
        self.play(overrides, seed, log).1
    }

    /// The one round loop: resets, applies the per-slot threshold
    /// overrides and simulates `config.rounds` rounds seeded by `seed`,
    /// recording in `log` as it goes. Allocation-free.
    fn play<L: RunLog>(
        &mut self,
        overrides: &[(usize, u32)],
        seed: u64,
        mut log: L,
    ) -> (RunTally, L) {
        self.reset();
        for &(slot, threshold) in overrides {
            self.set_threshold(slot, threshold);
        }
        let config = &self.config;
        let n = self.agents.len();
        let altruists = config.altruist_slots();
        let rational_base = config.rational_base();
        let agents = &mut self.agents[..];
        let utility = &mut self.utility[..];
        let paid_pool = &mut self.paid_pool;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unserved = 0u64;
        let mut departures = 0u64;
        // a reset hands every slot the initial scrip; overrides move
        // thresholds only
        let mut money = n as u64 * u64::from(config.initial_scrip);
        for _ in 0..config.rounds {
            log.round(paid_pool.len());
            let requester = rng.random_range(0..n);
            let payer = agents[requester];
            let can_pay = payer.holdings > 0;
            let paid_len = if can_pay { paid_pool.len() } else { 0 };
            let total = paid_len + altruists.len();
            let requester_in_union =
                (can_pay && payer.pool_pos != NOT_POOLED) || altruists.contains(&requester);
            if total == 0 || (total == 1 && requester_in_union) {
                unserved += 1;
            } else {
                let (volunteer, paid) = loop {
                    let idx = rng.random_range(0..total);
                    let (v, paid) = if idx < paid_len {
                        (paid_pool[idx] as usize, true)
                    } else {
                        (altruists.start + (idx - paid_len), false)
                    };
                    if v != requester {
                        break (v, paid);
                    }
                };
                utility[requester] += config.benefit;
                utility[volunteer] -= config.cost;
                if paid {
                    // the requester pays one scrip for the service
                    agents[requester].holdings -= 1;
                    agents[volunteer].holdings += 1;
                    if requester >= rational_base {
                        sync_membership(agents, paid_pool, requester);
                        log.holdings(requester, agents[requester].holdings);
                    }
                    if volunteer >= rational_base {
                        sync_membership(agents, paid_pool, volunteer);
                        log.holdings(volunteer, agents[volunteer].holdings);
                    }
                }
            }
            // churn draws nothing when disabled, so zero-churn streams
            // match configs that never had the feature
            if config.churn > 0.0 && rng.random_bool(config.churn) {
                let slot = rng.random_range(0..n);
                money -= u64::from(agents[slot].holdings);
                money += u64::from(config.newcomer_scrip);
                agents[slot].holdings = config.newcomer_scrip;
                departures += 1;
                if slot >= rational_base {
                    sync_membership(agents, paid_pool, slot);
                    log.holdings(slot, config.newcomer_scrip);
                }
            }
        }
        self.rounds_run = config.rounds;
        let tally = RunTally {
            unserved,
            departures,
            money,
        };
        (tally, log)
    }

    /// Folds a run's counters, its pool statistics and the per-slot state
    /// into the aggregate outcome.
    fn summarize(&self, tally: RunTally, pool_size: StreamingStats) -> EconomyOutcome {
        let config = &self.config;
        let rounds = config.rounds.max(1) as f64;
        // in u64: doubled in u32, a supply or threshold of 2^31 overflows
        let hist_hi = u64::from(config.threshold.max(config.initial_scrip)) * 2 + 2;
        let mut hist = Histogram::new(0.0, hist_hi as f64, 20);
        for agent in &self.agents {
            hist.record(f64::from(agent.holdings));
        }
        let mean = |slots: Range<usize>| {
            if slots.is_empty() {
                0.0
            } else {
                let count = slots.len() as f64;
                let total = self.utility[slots].iter().fold(0.0, |t, u| t + u);
                total / count / rounds
            }
        };
        EconomyOutcome {
            efficiency: 1.0 - tally.unserved as f64 / rounds,
            unserved: tally.unserved,
            rounds: config.rounds,
            departures: tally.departures,
            rational_utility: mean(config.rational_base()..self.agents.len()),
            hoarder_utility: mean(0..config.hoarders),
            altruist_utility: mean(config.altruist_slots()),
            money_supply: tally.money,
            pool_size,
            holdings_hist: hist,
            resident_bytes: self.resident_bytes(),
        }
    }
}

/// Inserts or removes the rational `slot` from the paid pool to match its
/// holdings and threshold. Hoarders stay pooled and altruists unpooled, so
/// only rational slots ever come here.
#[inline(always)]
fn sync_membership(agents: &mut [Agent], paid_pool: &mut Vec<u32>, slot: usize) {
    let Agent {
        holdings,
        threshold,
        pool_pos,
    } = agents[slot];
    let eligible = holdings < threshold;
    if eligible && pool_pos == NOT_POOLED {
        agents[slot].pool_pos = paid_pool.len() as u32;
        paid_pool.push(slot as u32);
    } else if !eligible && pool_pos != NOT_POOLED {
        let last = *paid_pool.last().expect("pool has the member");
        paid_pool.swap_remove(pool_pos as usize);
        if last as usize != slot {
            agents[last as usize].pool_pos = pool_pos;
        }
        agents[slot].pool_pos = NOT_POOLED;
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceEconomy;
    use super::*;
    use crate::audit::ThresholdAuditBackend;
    use bne_games::backend::{PayoffBackend, ProfileView};
    use proptest::prelude::*;

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
        let hoard: u32 = (0..5).map(|s| engine.agents[s].holdings).sum();
        let rational: u32 = (5..10).map(|s| engine.agents[s].holdings).sum();
        assert!(hoard > rational, "hoard {hoard} vs rational {rational}");
    }

    #[test]
    fn holdings_histogram_bound_survives_a_huge_supply() {
        // the bound doubles max(threshold, supply): 2^32 + 2 needs 33 bits
        let config = EconomyConfig {
            initial_scrip: 1 << 31,
            newcomer_scrip: 1 << 31,
            ..EconomyConfig::homogeneous(10, 8, 100)
        };
        let outcome = Economy::new(&config).run(1);
        let hist = &outcome.holdings_hist;
        assert_eq!(hist.bucket_bounds(19).1, ((1u64 << 32) + 2) as f64);
        assert_eq!(
            hist.overflow(),
            0,
            "every agent holds 2^31, inside the range"
        );
        assert_eq!(hist.total(), 10);
        assert_eq!(outcome.money_supply, 10 << 31);
    }

    /// `outcome` without its footprint, the one field the record layout
    /// changes on purpose.
    fn without_footprint(outcome: EconomyOutcome) -> EconomyOutcome {
        EconomyOutcome {
            resident_bytes: 0,
            ..outcome
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The record engine reproduces the four-array reference bit for
        /// bit: every outcome field but the footprint, every slot's
        /// utility and final holdings, and both audit query paths.
        #[test]
        fn records_reproduce_the_four_array_engine(
            hoarders in 0usize..=3,
            altruists in 0usize..=3,
            rational in 2usize..=24,
            threshold in 0u32..=6,
            supply in 0u8..3,
            newcomer_scrip in 0u32..=8,
            churn in 0usize..3,
            rounds in 0u64..=2_000,
            // slot (mod the population) × 9 + threshold
            codes in prop::collection::vec(0usize..64 * 9, 0..6),
            repeat_first in 0u8..2,
            // player (mod the rational block) × 4 + action
            deviations in prop::collection::vec(0usize..24 * 4, 0..5),
            shifted in prop::collection::vec(0usize..24 * 4, 0..3),
            trials in 1usize..=3,
            seed in 0u64..1_000,
        ) {
            let config = EconomyConfig {
                hoarders,
                altruists,
                // below, at or above the threshold (at or above for 0)
                initial_scrip: [threshold / 2, threshold, threshold + 1 + threshold / 2]
                    [supply as usize],
                newcomer_scrip,
                churn: [0.0, 0.01, 0.25][churn],
                ..EconomyConfig::homogeneous(rational, threshold, rounds)
            };
            let n = config.total_agents();
            let mut overrides: Vec<(usize, u32)> =
                codes.iter().map(|&c| ((c / 9) % n, (c % 9) as u32)).collect();
            if repeat_first == 1 {
                if let Some(&(slot, t)) = overrides.first() {
                    overrides.push((slot, (t + 3) % 9));
                }
            }

            let mut engine = Economy::new(&config);
            let mut reference = ReferenceEconomy::new(&config);
            // one engine pair across runs, so a reset must undo the last run
            let runs = [(&[][..], seed), (&overrides[..], seed + 1), (&[][..], seed + 1)];
            for (listed, run_seed) in runs {
                let got = engine.run_with_thresholds(listed, run_seed);
                let want = reference.run_with_thresholds(listed, run_seed);
                prop_assert_eq!(without_footprint(got), want, "{:?} {:?}", config, listed);
                for slot in 0..n {
                    prop_assert_eq!(
                        engine.average_utility(slot).to_bits(),
                        reference.average_utility(slot).to_bits(),
                        "slot {}", slot
                    );
                    prop_assert_eq!(engine.agents[slot].holdings, reference.holdings(slot));
                }
            }

            let candidates = vec![0, threshold / 2, threshold, threshold * 2];
            let backend =
                ThresholdAuditBackend::new(config.clone(), candidates.clone(), trials, seed);
            let mut base = backend.base_profile();
            for &code in &shifted {
                base[(code / 4) % rational] = code % 4;
            }
            let deviations: Vec<(usize, usize)> =
                deviations.iter().map(|&c| ((c / 4) % rational, c % 4)).collect();
            let view = ProfileView::new(&base, &deviations);
            // the reference reads each player's action through the view,
            // where the first listed override wins
            let rational_base = config.rational_base();
            let deviated: Vec<(usize, u32)> = (0..rational)
                .map(|p| (rational_base + p, candidates[view.action(p)]))
                .filter(|&(_, t)| t != threshold)
                .collect();
            let mut want = vec![0.0; rational];
            for trial in 0..trials {
                reference.run_with_thresholds(&deviated, seed.wrapping_add(trial as u64));
                for (p, u) in want.iter_mut().enumerate() {
                    *u += reference.average_utility(rational_base + p);
                }
            }
            for u in &mut want {
                *u /= trials as f64;
            }
            let mut got = vec![0.0; rational];
            backend.payoffs_into(&view, &mut got);
            let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", config, deviations);
            for p in [0, rational / 2, rational - 1] {
                let payoff = backend.payoff(p, &view);
                prop_assert_eq!(payoff.to_bits(), want[p].to_bits(), "player {}", p);
            }
        }
    }
}

/// The engine before agent records, kept as the reference model of the
/// proptest above: four per-slot arrays with a class tag, a reset that
/// syncs the paid pool one slot at a time, an altruist pool array, and
/// pool statistics on every run. Only the holdings-histogram bound is
/// computed in u64, the fix this copy shares with the engine.
#[cfg(test)]
mod reference {
    use super::{EconomyConfig, EconomyOutcome, NOT_POOLED};
    use bne_sim::{Histogram, StreamingStats};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    const RATIONAL: u8 = 0;
    const HOARDER: u8 = 1;
    const ALTRUIST: u8 = 2;

    pub(super) struct ReferenceEconomy {
        config: EconomyConfig,
        holdings: Vec<u32>,
        thresholds: Vec<u32>,
        class: Vec<u8>,
        utility: Vec<f64>,
        paid_pool: Vec<u32>,
        paid_pos: Vec<u32>,
        altruist_pool: Vec<u32>,
        rounds_run: u64,
    }

    impl ReferenceEconomy {
        pub(super) fn new(config: &EconomyConfig) -> Self {
            let n = config.total_agents();
            let mut economy = ReferenceEconomy {
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

        fn reset(&mut self) {
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

        fn set_threshold(&mut self, slot: usize, threshold: u32) {
            self.thresholds[slot] = threshold;
            if self.class[slot] == RATIONAL {
                self.sync_membership(slot);
            }
        }

        pub(super) fn average_utility(&self, slot: usize) -> f64 {
            if self.rounds_run == 0 {
                0.0
            } else {
                self.utility[slot] / self.rounds_run as f64
            }
        }

        pub(super) fn holdings(&self, slot: usize) -> u32 {
            self.holdings[slot]
        }

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

        /// The old `simulate` and `summarize` in one, with a zero
        /// footprint.
        pub(super) fn run_with_thresholds(
            &mut self,
            overrides: &[(usize, u32)],
            seed: u64,
        ) -> EconomyOutcome {
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

            let rounds = config.rounds.max(1) as f64;
            let mut class_total = [0.0f64; 3];
            let hist_hi = (u64::from(config.threshold.max(config.initial_scrip)) * 2 + 2) as f64;
            let mut hist = Histogram::new(0.0, hist_hi, 20);
            for slot in 0..n {
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
                resident_bytes: 0,
            }
        }
    }
}
