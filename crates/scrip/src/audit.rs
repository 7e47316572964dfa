//! The scrip economy as a [`PayoffBackend`]: threshold strategies as
//! actions, per-round average utility as payoff, so the sampled oracle
//! can audit "the common threshold is an ε-equilibrium" at any scale.
//!
//! The induced game has one player per **rational** slot of the economy
//! (hoarders and altruists are environment, not players — they are the
//! paper's "standardly irrational" agents), and one action per candidate
//! threshold. A payoff query runs the full economy with the queried
//! threshold assignment and reads the player's per-round average utility,
//! averaged over a fixed set of seeded trials — **common random numbers**,
//! so two queries that differ only in the deviation see identical request
//! arrivals and the gain estimate is low-variance. Queries are therefore
//! deterministic, as the [`PayoffBackend`] contract requires.
//!
//! Per-round utilities are bounded a priori: each round a slot gains
//! `benefit` (served), loses `cost` (volunteered) or neither, so its
//! average lies between the least and the greatest of `benefit`, `-cost`
//! and 0. That range gives the sampled oracle's Hoeffding bound without
//! scanning anything.
//!
//! Cost model: a query that runs the economy costs `trials` full economy
//! runs, so audits batch with [`PayoffBackend::payoffs_into`] (one set of
//! runs yields *every* player's base payoff; the
//! [`SampledOracle`](bne_games::sampled::SampledOracle) does this for the
//! base profile automatically). Many queries run nothing, because a slot
//! reads its threshold only after its holdings change, and at long
//! horizons over large populations an agent trades a handful of times.
//! The first query of the all-common profile records that run once per
//! backend: every player's payoff, and the holdings each rational slot
//! took (see [`ThresholdAuditBackend`]). A later query whose every
//! overridden slot holds the same side of its override as of the common
//! threshold throughout that run *is* that run, bit for bit, and returns
//! the recorded payoffs. So an audit costs one set of runs per deviation
//! that bites, not one per sampled deviation. Beyond its runs, a query
//! makes one cheap pass over the base profile for entries off the common
//! threshold (none in [`ThresholdAuditBackend::base_profile`]); the engine
//! overrides are those entries and the view's override list,
//! [`PayoffBackend::payoff`] reads one slot, and no aggregate outcome is
//! summarized. Engines are pooled: a query takes an idle engine
//! (building one only when every engine is busy) and returns it, so the
//! backend keeps one engine per query that ever ran concurrently — one
//! per worker of the sampled oracle's fan-out, 2 × 24 MB at 10^6 agents
//! on two workers — until it is dropped.

use crate::economy::{Economy, EconomyConfig, RunLog};
use bne_games::backend::{PayoffBackend, ProfileView};
use bne_games::{ActionId, PlayerId, Utility};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The threshold-strategy audit game over a scrip economy.
///
/// # The base run
///
/// Cut the holdings axis at the `k` distinct candidate thresholds, in
/// ascending order `cuts[0] < cuts[1] < …`; band `b` is the holdings
/// `cuts[b]..cuts[b + 1]`. A rational slot volunteers for payment while
/// its holdings lie below its threshold, and it reads its threshold once
/// after the reset and again after every change to its holdings. So a slot moved from the common threshold `c` to `τ`
/// decides exactly as before at every holdings value outside
/// `min(τ, c)..max(τ, c)`, which is a union of whole bands. If no trial
/// of the all-common run ever put the slot's holdings in those bands,
/// then round by round every pool membership, draw and transfer of the
/// deviated run is the base run's, and so is every utility, to the bit.
/// With several slots overridden, every one of them must pass.
///
/// The first query of the all-common profile (no engine overrides; the
/// sampled oracle's batched base read) runs every trial once and keeps
/// every player's payoff, averaged in trial order as a query averages
/// them, and one bit per band per rational slot, set when the slot's
/// holdings entered the band in some trial: the initial scrip and every
/// later value. Later queries that pass the band test return the
/// recorded payoffs; every other query runs. The record is simulated at
/// most once per backend and read-only afterwards, so concurrent queries
/// share it. It takes one `f64` per player and `⌈(k − 1)/8⌉` bytes per
/// rational slot (one byte for up to nine candidates): about 9 MB at
/// 10^6 agents, beside the pooled engines' 24 MB each.
pub struct ThresholdAuditBackend {
    config: EconomyConfig,
    candidates: Vec<u32>,
    /// The distinct candidate thresholds, ascending: the cuts between the
    /// bands of the holdings axis.
    cuts: Vec<u32>,
    trials: usize,
    sim_seed: u64,
    /// Idle engines. The lock is held only to pop or push one, never
    /// across a run, so a panicking query cannot poison it.
    engines: Mutex<Vec<Economy>>,
    /// The all-common run, recorded by the first query of it.
    base_run: OnceLock<BaseRun>,
    queries: AtomicU64,
    recalled: AtomicU64,
    economy_runs: AtomicU64,
}

/// The work a [`ThresholdAuditBackend`] has done since it was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditWork {
    /// Payoff queries answered, single and batched.
    pub queries: u64,
    /// Of those, the queries answered from the recorded base run without
    /// simulating.
    pub recalled: u64,
    /// Economy runs simulated: `trials` for each query that ran,
    /// including the one that recorded the base run.
    pub economy_runs: u64,
}

/// The all-common run: every player's payoff, and the bands of the
/// holdings axis that each rational slot entered in any trial.
struct BaseRun {
    payoffs: Vec<Utility>,
    /// [`ThresholdAuditBackend::band_bytes`] bytes per rational slot; bit
    /// `b` is set when the slot's holdings entered band `b`.
    bands: Vec<u8>,
}

/// Marks, for each rational slot, the band its holdings enter.
struct BandLog<'a> {
    cuts: &'a [u32],
    rational_base: usize,
    band_bytes: usize,
    bands: &'a mut [u8],
}

impl BandLog<'_> {
    fn mark(&mut self, player: PlayerId, holdings: u32) {
        // below the lowest cut or at or above the highest, every
        // candidate decides alike, so those holdings need no bit
        let above = self.cuts.partition_point(|&t| t <= holdings);
        if (1..self.cuts.len()).contains(&above) {
            let band = above - 1;
            self.bands[player * self.band_bytes + band / 8] |= 1 << (band % 8);
        }
    }
}

impl RunLog for BandLog<'_> {
    fn holdings(&mut self, slot: usize, holdings: u32) {
        self.mark(slot - self.rational_base, holdings);
    }
}

impl ThresholdAuditBackend {
    /// Builds the audit game: `candidates` is the action set (candidate
    /// thresholds, must contain the config's common threshold so the
    /// base profile exists), `trials` runs are averaged per query with
    /// seeds `sim_seed, sim_seed + 1, …` shared across queries.
    ///
    /// # Panics
    ///
    /// Panics if there are no rational agents, no candidates, zero
    /// trials, or the common threshold is not a candidate.
    pub fn new(config: EconomyConfig, candidates: Vec<u32>, trials: usize, sim_seed: u64) -> Self {
        assert!(config.rational > 0, "the audit game needs rational players");
        assert!(
            !candidates.is_empty(),
            "need at least one candidate threshold"
        );
        assert!(trials > 0, "need at least one trial per query");
        assert!(
            candidates.contains(&config.threshold),
            "the common threshold {} must be a candidate",
            config.threshold
        );
        let mut cuts = candidates.clone();
        cuts.sort_unstable();
        cuts.dedup();
        ThresholdAuditBackend {
            config,
            candidates,
            cuts,
            trials,
            sim_seed,
            engines: Mutex::new(Vec::new()),
            base_run: OnceLock::new(),
            queries: AtomicU64::new(0),
            recalled: AtomicU64::new(0),
            economy_runs: AtomicU64::new(0),
        }
    }

    /// The base profile: every rational player at the common threshold.
    pub fn base_profile(&self) -> Vec<ActionId> {
        vec![self.common_action(); self.config.rational]
    }

    /// The candidate threshold set (the action labels).
    pub fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// The audited economy configuration.
    pub fn config(&self) -> &EconomyConfig {
        &self.config
    }

    /// The queries answered and economy runs made so far. The counters
    /// affect no result.
    pub fn work(&self) -> AuditWork {
        AuditWork {
            queries: self.queries.load(Relaxed),
            recalled: self.recalled.load(Relaxed),
            economy_runs: self.economy_runs.load(Relaxed),
        }
    }

    /// The engine overrides of `view`: every player whose threshold
    /// differs from the common one, ascending by player. An override
    /// replaces its player's base entry, and a player listed twice takes
    /// the first listed action (the [`ProfileView::action`] rule). The
    /// order matters: it decides the players' positions in the engine's
    /// paid pool.
    fn overrides(&self, view: &ProfileView<'_>) -> Vec<(usize, u32)> {
        let common = self.common_action();
        let mut listed = view.overrides().to_vec();
        // base entries off the common action (none in `base_profile`) go
        // after the overrides, so a stable sort keeps them behind any
        // override of the same player
        listed.extend(
            view.base()
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != common)
                .map(|(p, &a)| (p, a)),
        );
        listed.sort_by_key(|&(p, _)| p);
        listed.dedup_by_key(|&mut (p, _)| p);
        let base = self.config.rational_base();
        listed
            .into_iter()
            .map(|(p, a)| (base + p, self.candidates[a]))
            .filter(|&(_, t)| t != self.config.threshold)
            .collect()
    }

    /// The action index of the common threshold.
    fn common_action(&self) -> ActionId {
        self.candidates
            .iter()
            .position(|&t| t == self.config.threshold)
            .expect("checked at construction")
    }

    /// Bytes per rational slot in a band record: a bit for each of the
    /// `cuts.len() - 1` bands between two cuts.
    fn band_bytes(&self) -> usize {
        (self.cuts.len() - 1).div_ceil(8)
    }

    /// The recorded base run, when the runs of `overrides` are the base
    /// run. A query of the base records it if no query has.
    fn recall(&self, overrides: &[(usize, u32)]) -> Option<&BaseRun> {
        let mut recorded = false;
        let run = if overrides.is_empty() {
            self.base_run.get_or_init(|| {
                recorded = true;
                self.record_base_run()
            })
        } else {
            let run = self.base_run.get()?;
            let cut = |t: u32| {
                self.cuts
                    .binary_search(&t)
                    .expect("every threshold is a candidate")
            };
            let common = cut(self.config.threshold);
            let width = self.band_bytes();
            let unchanged = |&(slot, threshold): &(usize, u32)| {
                let player = slot - self.config.rational_base();
                let bands = &run.bands[player * width..][..width];
                // the bands where the override and the common threshold
                // decide differently
                let moved = cut(threshold);
                (moved.min(common)..moved.max(common)).all(|b| bands[b / 8] & (1 << (b % 8)) == 0)
            };
            if !overrides.iter().all(unchanged) {
                return None;
            }
            run
        };
        if !recorded {
            self.recalled.fetch_add(1, Relaxed);
        }
        Some(run)
    }

    /// Runs every trial of the all-common profile, recording the band
    /// each rational slot's holdings enter.
    fn record_base_run(&self) -> BaseRun {
        let players = self.config.rational;
        let mut payoffs = vec![0.0; players];
        let mut bands = vec![0; players * self.band_bytes()];
        let mut log = BandLog {
            cuts: &self.cuts,
            rational_base: self.config.rational_base(),
            band_bytes: self.band_bytes(),
            bands: &mut bands,
        };
        // a reset hands every slot the initial scrip
        for player in 0..players {
            log.mark(player, self.config.initial_scrip);
        }
        self.read_payoffs(&[], log, &mut payoffs);
        BaseRun { payoffs, bands }
    }

    /// Every player's payoff under `overrides`, averaged over the trials
    /// in trial order, with each run recorded in `log`.
    fn read_payoffs(&self, overrides: &[(usize, u32)], log: impl RunLog, out: &mut [Utility]) {
        let base = self.config.rational_base();
        out.fill(0.0);
        self.run(overrides, log, |economy| {
            for (p, u) in out.iter_mut().enumerate() {
                *u += economy.average_utility(base + p);
            }
        });
        for u in out.iter_mut() {
            *u /= self.trials as f64;
        }
    }

    /// Runs every trial of `overrides` on a pooled engine, recording each
    /// run in `log` and handing the engine to `read` after it — the
    /// shared core of every query that runs.
    fn run<L: RunLog>(
        &self,
        overrides: &[(usize, u32)],
        mut log: L,
        mut read: impl FnMut(&Economy),
    ) {
        let idle = self.pool().pop();
        let mut economy = idle.unwrap_or_else(|| Economy::new(&self.config));
        for trial in 0..self.trials {
            log = economy.simulate(overrides, self.sim_seed.wrapping_add(trial as u64), log);
            read(&economy);
        }
        self.economy_runs.fetch_add(self.trials as u64, Relaxed);
        self.pool().push(economy);
    }

    /// Runs every trial of `view`, whatever the record says.
    #[cfg(test)]
    fn run_view(&self, view: &ProfileView<'_>, read: impl FnMut(&Economy)) {
        self.run(&self.overrides(view), (), read);
    }

    fn pool(&self) -> MutexGuard<'_, Vec<Economy>> {
        self.engines
            .lock()
            .expect("the engine pool is never locked across a run")
    }
}

impl fmt::Debug for ThresholdAuditBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThresholdAuditBackend")
            .field("config", &self.config)
            .field("candidates", &self.candidates)
            .field("trials", &self.trials)
            .field("sim_seed", &self.sim_seed)
            .finish_non_exhaustive()
    }
}

impl PayoffBackend for ThresholdAuditBackend {
    fn num_players(&self) -> usize {
        self.config.rational
    }

    fn num_actions(&self, _player: PlayerId) -> usize {
        self.candidates.len()
    }

    fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
        self.queries.fetch_add(1, Relaxed);
        let overrides = self.overrides(view);
        if let Some(run) = self.recall(&overrides) {
            return run.payoffs[player];
        }
        let slot = self.config.rational_base() + player;
        let mut total = 0.0;
        self.run(&overrides, (), |economy| {
            total += economy.average_utility(slot)
        });
        total / self.trials as f64
    }

    fn payoffs_into(&self, view: &ProfileView<'_>, out: &mut [Utility]) {
        self.queries.fetch_add(1, Relaxed);
        let overrides = self.overrides(view);
        match self.recall(&overrides) {
            Some(run) => out.copy_from_slice(&run.payoffs),
            None => self.read_payoffs(&overrides, (), out),
        }
    }

    fn payoff_bounds(&self) -> (Utility, Utility) {
        // each round a slot is served, volunteers, or neither
        let (served, worked) = (self.config.benefit, -self.config.cost);
        (served.min(worked).min(0.0), served.max(worked).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_games::sampled::{AuditSpec, SampledOracle};

    fn small_config() -> EconomyConfig {
        EconomyConfig::homogeneous(30, 8, 6_000)
    }

    #[test]
    fn base_profile_points_at_the_common_threshold() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 4, 8, 16], 2, 90);
        assert_eq!(backend.base_profile(), vec![2; 30]);
        assert_eq!(backend.num_players(), 30);
        assert_eq!(backend.num_actions(0), 4);
        assert_eq!(backend.payoff_bounds(), (-0.2, 1.0));
    }

    #[test]
    fn queries_are_deterministic_and_batched_reads_match() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 8], 2, 90);
        let base = backend.base_profile();
        let view = ProfileView::of_base(&base);
        let mut batch = vec![0.0; 30];
        backend.payoffs_into(&view, &mut batch);
        for p in [0usize, 7, 29] {
            assert_eq!(backend.payoff(p, &view), batch[p], "player {p}");
        }
        // deterministic: a second read is bit-identical
        let mut again = vec![0.0; 30];
        backend.payoffs_into(&view, &mut again);
        assert_eq!(batch, again);
    }

    #[test]
    fn never_volunteering_is_a_bad_deviation() {
        // threshold 0 ⇒ never volunteer ⇒ never earn scrip ⇒ rarely
        // served: the deviation payoff drops below the common payoff
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 8], 3, 90);
        let base = backend.base_profile();
        let deviation = [(4usize, 0usize)];
        let view = ProfileView::new(&base, &deviation);
        let conform = backend.payoff(4, &ProfileView::of_base(&base));
        let deviate = backend.payoff(4, &view);
        assert!(deviate < conform, "deviate {deviate} vs conform {conform}");
    }

    /// Every player's payoff at `overrides` on `backend`.
    fn payoffs(
        backend: &ThresholdAuditBackend,
        base: &[ActionId],
        overrides: &[(PlayerId, ActionId)],
    ) -> Vec<Utility> {
        let mut out = vec![0.0; backend.num_players()];
        backend.payoffs_into(&ProfileView::new(base, overrides), &mut out);
        out
    }

    #[test]
    fn pooled_engines_answer_like_fresh_backends() {
        let make = || ThresholdAuditBackend::new(small_config(), vec![0, 4, 8, 16], 2, 90);
        let backend = make();
        let base = backend.base_profile();
        let a = [(3usize, 0usize), (11, 3)];
        let b = [(5usize, 1usize)];
        // A, B, A and then the base on one backend, each against a fresh one
        for overrides in [&a[..], &b[..], &a[..], &[]] {
            assert_eq!(
                payoffs(&backend, &base, overrides),
                payoffs(&make(), &base, overrides),
                "{overrides:?}"
            );
            let view = ProfileView::new(&base, overrides);
            assert_eq!(backend.payoff(11, &view), make().payoff(11, &view));
        }
        assert_eq!(
            backend.pool().len(),
            1,
            "sequential queries share one engine"
        );
    }

    #[test]
    fn concurrent_queries_match_sequential_ones() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 4, 8, 16], 1, 90);
        let base = backend.base_profile();
        let views = [[(3usize, 0usize)], [(11, 3)]];
        let sequential: Vec<Utility> = views
            .iter()
            .map(|o| backend.payoff(o[0].0, &ProfileView::new(&base, o)))
            .collect();
        // both queries hold their engine at the barrier, so they overlap
        let barrier = std::sync::Barrier::new(2);
        let concurrent: Vec<Utility> = std::thread::scope(|scope| {
            let handles: Vec<_> = views
                .iter()
                .map(|o| {
                    let (backend, base, barrier) = (&backend, &base, &barrier);
                    scope.spawn(move || {
                        let slot = backend.config().rational_base() + o[0].0;
                        let mut utility = 0.0;
                        backend.run_view(&ProfileView::new(base, o), |economy| {
                            barrier.wait();
                            utility = economy.average_utility(slot);
                        });
                        utility
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(concurrent, sequential);
        assert_eq!(backend.pool().len(), 2, "one engine per concurrent query");
    }

    #[test]
    fn the_first_listed_override_wins() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 4, 8, 16], 1, 90);
        let base = backend.base_profile();
        let repeated = [(7usize, 0usize), (3, 3), (7, 1)];
        let canonical = [(3usize, 3usize), (7, 0)];
        let slot = backend.config().rational_base();
        assert_eq!(
            backend.overrides(&ProfileView::new(&base, &repeated)),
            vec![(slot + 3, 16), (slot + 7, 0)]
        );
        assert_eq!(
            payoffs(&backend, &base, &repeated),
            payoffs(&backend, &base, &canonical)
        );
        // a base entry off the common threshold counts unless overridden
        let mut shifted = base.clone();
        shifted[7] = 1;
        shifted[9] = 3;
        assert_eq!(
            payoffs(&backend, &shifted, &repeated),
            payoffs(&backend, &base, &[(3, 3), (7, 0), (9, 3)])
        );
    }

    #[test]
    fn payoff_bounds_cover_every_per_round_utility() {
        // a served slot can lose and a volunteer gain: the range must
        // still hold 0, `benefit` and `-cost`
        let config = EconomyConfig {
            benefit: -0.5,
            ..small_config()
        };
        let backend = ThresholdAuditBackend::new(config, vec![0, 8], 1, 90);
        assert_eq!(backend.payoff_bounds(), (-0.5, 0.0));
        let spec = AuditSpec::unilateral(0.5, 0.05, 16, 7);
        let audit = SampledOracle::new(&backend).audit(&backend.base_profile(), &spec);
        assert!(audit.certificates[0].hoeffding_radius > 0.0);
    }

    #[test]
    fn the_base_run_is_simulated_once_and_answers_what_it_can() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 4, 8, 16], 2, 90);
        let base = backend.base_profile();
        let view = ProfileView::of_base(&base);
        assert_eq!(backend.payoff(3, &view), payoffs(&backend, &base, &[])[3]);
        // the first base query ran both trials; the second read the record
        let work = backend.work();
        assert_eq!((work.queries, work.recalled, work.economy_runs), (2, 1, 2));
        // never volunteering at threshold 0 bites for a slot that starts
        // below the common threshold
        let shirk = [(5usize, 0usize)];
        let deviated = ProfileView::new(&base, &shirk);
        let mut want = 0.0;
        backend.run_view(&deviated, |economy| {
            want += economy.average_utility(backend.config().rational_base() + 5)
        });
        assert_eq!(backend.payoff(5, &deviated), want / 2.0);
        let work = backend.work();
        assert_eq!((work.queries, work.recalled, work.economy_runs), (3, 1, 6));
    }

    /// A query answered from the base run returns the bits that running
    /// it returns, over 400 random small economies: up to two hoarders
    /// and altruists, churn 0, 0.01 or 0.2, one to three trials, one or
    /// two deviators, and sometimes a base entry off the common
    /// threshold.
    #[test]
    fn recalled_queries_match_their_runs() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(27);
        let (mut recalled, mut ran) = (0, 0);
        for case in 0..400 {
            let threshold = rng.random_range(1..=6u32);
            let rational = rng.random_range(2..=30usize);
            let config = EconomyConfig {
                hoarders: rng.random_range(0..=2),
                altruists: rng.random_range(0..=2),
                initial_scrip: rng.random_range(0..=8),
                newcomer_scrip: rng.random_range(0..=8),
                churn: [0.0, 0.01, 0.2][rng.random_range(0..3usize)],
                ..EconomyConfig::homogeneous(rational, threshold, rng.random_range(0..=400))
            };
            let mut candidates = vec![threshold];
            for _ in 0..rng.random_range(1..=4) {
                candidates.push(rng.random_range(0..=12));
            }
            let trials = rng.random_range(1..=3usize);
            let seed = rng.random_range(0..1_000);
            let backend = ThresholdAuditBackend::new(config, candidates, trials, seed);
            let actions = backend.num_actions(0);
            let slots = backend.config().rational_base()..backend.config().total_agents();
            let base = backend.base_profile();
            payoffs(&backend, &base, &[]);
            for _ in 0..20 {
                let mut shifted = base.clone();
                if rng.random_bool(0.2) {
                    shifted[rng.random_range(0..rational)] = rng.random_range(0..actions);
                }
                let mut deviation: Vec<(PlayerId, ActionId)> = Vec::new();
                while deviation.len() < rng.random_range(1..=2) {
                    let p = rng.random_range(0..rational);
                    if deviation.iter().all(|&(q, _)| q != p) {
                        deviation.push((p, rng.random_range(0..actions)));
                    }
                }
                let view = ProfileView::new(&shifted, &deviation);
                let mut want = vec![0.0; rational];
                backend.run_view(&view, |economy| {
                    for (u, slot) in want.iter_mut().zip(slots.clone()) {
                        *u += economy.average_utility(slot);
                    }
                });
                for u in &mut want {
                    *u /= trials as f64;
                }
                let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
                let got = payoffs(&backend, &shifted, &deviation);
                assert_eq!(bits(&got), bits(&want), "case {case}: {deviation:?}");
                for &(p, _) in &deviation {
                    let payoff = backend.payoff(p, &view);
                    assert_eq!(payoff.to_bits(), want[p].to_bits(), "case {case}: {p}");
                }
            }
            let work = backend.work();
            recalled += work.recalled;
            ran += work.queries - work.recalled;
        }
        assert!(
            recalled > 1_000 && ran > 1_000,
            "{recalled} recalled, {ran} ran"
        );
    }

    #[test]
    fn sampled_oracle_audits_the_economy_end_to_end() {
        let backend = ThresholdAuditBackend::new(small_config(), vec![0, 8], 2, 90);
        let oracle = SampledOracle::new(&backend);
        let base = backend.base_profile();
        // with a generous epsilon the common threshold passes a small
        // unilateral audit; the certificate carries real bounds
        let spec = AuditSpec::unilateral(0.5, 0.05, 16, 7);
        let audit = oracle.audit(&base, &spec);
        assert!(audit.accepted, "audit {:?}", audit.certificates[0]);
        let cert = &audit.certificates[0];
        assert_eq!(cert.samples, 16);
        assert!(cert.miss_mass > 0.0 && cert.miss_mass <= 1.0);
        assert!(cert.hoeffding_radius > 0.0);
    }
}
