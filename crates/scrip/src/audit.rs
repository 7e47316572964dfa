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
//! Per-round utilities are bounded a priori — a slot can at best be served
//! every round (`benefit`) and at worst volunteer every round (`-cost`) —
//! which gives the sampled oracle's Hoeffding bound a tight payoff range
//! without scanning anything.
//!
//! Cost model: one payoff query is `trials` full economy runs, so audits
//! should batch with [`PayoffBackend::payoffs_into`] (one set of runs
//! yields *every* player's base payoff; the
//! [`SampledOracle`](bne_games::sampled::SampledOracle) does this for the
//! base profile automatically). Beyond its runs, a query makes one cheap
//! pass over the base profile for entries off the common threshold (none
//! in [`ThresholdAuditBackend::base_profile`]); the engine overrides are
//! those entries and the view's override list,
//! [`PayoffBackend::payoff`] reads one slot, and no aggregate outcome is
//! summarized. Engines are pooled: a query takes an idle engine
//! (building one only when every engine is busy) and returns it, so the
//! backend keeps one engine per query that ever ran concurrently — one
//! per worker of the sampled oracle's fan-out, 2 × 24 MB at 10^6 agents
//! on two workers — until it is dropped.

use crate::economy::{Economy, EconomyConfig};
use bne_games::backend::{PayoffBackend, ProfileView};
use bne_games::{ActionId, PlayerId, Utility};
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// The threshold-strategy audit game over a scrip economy.
pub struct ThresholdAuditBackend {
    config: EconomyConfig,
    candidates: Vec<u32>,
    trials: usize,
    sim_seed: u64,
    /// Idle engines. The lock is held only to pop or push one, never
    /// across a run, so a panicking query cannot poison it.
    engines: Mutex<Vec<Economy>>,
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
        ThresholdAuditBackend {
            config,
            candidates,
            trials,
            sim_seed,
            engines: Mutex::new(Vec::new()),
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

    /// Runs every trial of `view` on a pooled engine, handing the engine
    /// to `read` after each run — the shared core of both query paths.
    fn run_view(&self, view: &ProfileView<'_>, mut read: impl FnMut(&Economy)) {
        let overrides = self.overrides(view);
        let idle = self.pool().pop();
        let mut economy = idle.unwrap_or_else(|| Economy::new(&self.config));
        for trial in 0..self.trials {
            economy.simulate(&overrides, self.sim_seed.wrapping_add(trial as u64));
            read(&economy);
        }
        self.pool().push(economy);
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
        let slot = self.config.rational_base() + player;
        let mut total = 0.0;
        self.run_view(view, |economy| total += economy.average_utility(slot));
        total / self.trials as f64
    }

    fn payoffs_into(&self, view: &ProfileView<'_>, out: &mut [Utility]) {
        let base = self.config.rational_base();
        out.fill(0.0);
        self.run_view(view, |economy| {
            for (p, u) in out.iter_mut().enumerate() {
                *u += economy.average_utility(base + p);
            }
        });
        for u in out.iter_mut() {
            *u /= self.trials as f64;
        }
    }

    fn payoff_bounds(&self) -> (Utility, Utility) {
        // a slot can at best be served every round, at worst work for
        // free every round
        (-self.config.cost, self.config.benefit)
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
