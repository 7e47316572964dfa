//! Property tests pinning the sampled deviation oracle to the exhaustive
//! one on small dense games, where ground truth is enumerable:
//!
//! * **no false rejections** — any profile the exhaustive
//!   [`DeviationOracle`] certifies as `k`-resilient (no coalition of size
//!   ≤ k has a profitable deviation, some-member-gains) is never rejected
//!   by a sampled audit at ε = 0, for any seed or sample count: sampling
//!   can only *find* deviations, and there are none to find;
//! * **rejections are sound** — a sampled counterexample is a concrete
//!   coalition + joint action whose gain re-derives exactly from direct
//!   payoff queries, exceeds ε, and therefore witnesses the exhaustive
//!   oracle's own rejection at that coalition size;
//! * **backend independence** — auditing a utility-locality
//!   [`LocalBackend`] and auditing its own densification produce
//!   bit-identical certificates (same samples, same gains, same bounds);
//! * **seq == par** — `audit` and every forced worker count reproduce the
//!   one-worker audit bit-for-bit, on dense games and on a scrip economy
//!   whose queries `audit` may fan out, and every worker count issues the
//!   same payoff queries;
//! * **recalled == run** — a scrip economy audit whose backend answers
//!   queries from its recorded base run where it can equals one whose
//!   every query runs the economy.

use bne_core::games::backend::{DenseBackend, LocalBackend, PayoffBackend};
use bne_core::games::sampled::{AuditSpec, SampledOracle};
use bne_core::games::{DeviationOracle, ResilienceVariant};
use bne_integration_tests::game_from_payoff_seed;
use proptest::prelude::*;

fn spec(epsilon: f64, samples: usize, max_coalition: usize, seed: u64) -> AuditSpec {
    AuditSpec {
        epsilon,
        delta: 1e-6,
        samples,
        max_coalition,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exhaustively certified profiles survive every sampled audit at
    /// zero tolerance.
    #[test]
    fn exhaustive_accepts_are_never_sampled_rejects(
        num_players in 2usize..5,
        payoffs in prop::collection::vec(-5i8..=5, 8..64),
        audit_seed in 0u64..1_000,
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        let backend = DenseBackend::new(&game);
        let sampled = SampledOracle::new(&backend);
        let exhaustive = DeviationOracle::new(&game);
        for flat in 0..game.num_profiles() {
            let base = game.profile_at(flat);
            for k in 1..=num_players {
                if exhaustive.is_k_resilient(flat, k, ResilienceVariant::SomeMemberGains) {
                    let audit = sampled.audit(&base, &spec(0.0, 96, k, audit_seed));
                    prop_assert!(
                        audit.accepted,
                        "flat {} certified {}-resilient but sampled-rejected: {:?}",
                        flat, k, audit.counterexample()
                    );
                }
            }
        }
    }

    /// Sampled rejections carry sound, re-derivable counterexamples that
    /// the exhaustive oracle corroborates.
    #[test]
    fn sampled_rejections_are_exhaustively_corroborated(
        num_players in 2usize..5,
        payoffs in prop::collection::vec(-5i8..=5, 8..64),
        audit_seed in 0u64..1_000,
    ) {
        let game = game_from_payoff_seed(num_players, &payoffs);
        let backend = DenseBackend::new(&game);
        let sampled = SampledOracle::new(&backend);
        let exhaustive = DeviationOracle::new(&game);
        for flat in 0..game.num_profiles() {
            let base = game.profile_at(flat);
            let audit = sampled.audit(&base, &spec(0.0, 64, num_players, audit_seed));
            for cert in &audit.certificates {
                let Some(cx) = &cert.counterexample else { continue };
                // the witness re-derives exactly from direct payoffs
                let mut deviated = base.clone();
                for (p, a) in cx.players.iter().zip(cx.actions.iter()) {
                    deviated[*p] = *a;
                }
                let gain = cx
                    .players
                    .iter()
                    .map(|&p| game.payoff(p, &deviated) - game.payoff(p, &base))
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(gain, cx.gain);
                prop_assert!(gain > 0.0);
                // ...and witnesses the exhaustive verdict at that size
                prop_assert!(
                    !exhaustive.is_k_resilient(
                        flat,
                        cert.size,
                        ResilienceVariant::SomeMemberGains
                    ),
                    "sampled found a size-{} deviation the exhaustive oracle denies",
                    cert.size
                );
            }
        }
    }

    /// A sampled ε-certificate never claims less than the truth: every
    /// sampled gain really is ≤ ε when the audit accepts, so an accepted
    /// audit at tolerance ε can never coexist with max_gain > ε.
    #[test]
    fn accepted_audits_bound_their_own_samples(
        num_players in 2usize..4,
        payoffs in prop::collection::vec(-5i8..=5, 8..32),
        eps_tenths in 0u32..60,
    ) {
        let epsilon = f64::from(eps_tenths) / 10.0;
        let game = game_from_payoff_seed(num_players, &payoffs);
        let backend = DenseBackend::new(&game);
        let sampled = SampledOracle::new(&backend);
        let base = vec![0usize; num_players];
        let audit = sampled.audit(&base, &spec(epsilon, 48, num_players, 5));
        for cert in &audit.certificates {
            if cert.accepted {
                prop_assert!(cert.max_gain <= epsilon + 1e-9);
            } else {
                prop_assert!(cert.max_gain > epsilon);
            }
        }
    }
}

/// A ring economy audited through its sparse representation and through
/// its densification yields bit-identical certificates.
#[test]
fn local_and_dense_audits_are_bit_identical() {
    let local = LocalBackend::ring(6, 3, 1, |_, acts| {
        -acts.iter().map(|&a| a as f64).sum::<f64>()
    });
    let dense_game = local.to_dense();
    let dense = DenseBackend::new(&dense_game);
    assert_eq!(local.payoff_bounds(), dense.payoff_bounds());
    let base = vec![1usize; 6];
    for seed in [1u64, 9, 77] {
        let s = spec(0.0, 200, 2, seed);
        let via_local = SampledOracle::new(&local).audit(&base, &s);
        let via_dense = SampledOracle::new(&dense).audit(&base, &s);
        assert_eq!(via_local, via_dense, "seed {seed}");
    }
    // ...and the all-zeros profile (everyone at their optimum) accepts
    let zeros = vec![0usize; 6];
    assert!(
        SampledOracle::new(&local)
            .audit(&zeros, &spec(0.0, 200, 3, 3))
            .accepted
    );
}

mod parallel {
    use super::*;
    use bne_core::games::backend::ProfileView;
    use bne_core::games::sampled::SampledAudit;
    use bne_core::games::{ActionId, PlayerId, Utility};
    use bne_core::scrip::{Economy, EconomyConfig, ThresholdAuditBackend};
    use std::sync::Mutex;

    /// Audits `base` on one worker, then checks that `audit` and forced
    /// worker counts reproduce it bit for bit.
    fn assert_worker_independent<B: PayoffBackend + Sync>(
        backend: &B,
        base: &[ActionId],
        s: &AuditSpec,
    ) -> SampledAudit {
        let oracle = SampledOracle::new(backend);
        let reference = oracle.audit_with_workers(base, s, 1);
        assert_eq!(reference, oracle.audit(base, s), "audit");
        for workers in [2usize, 3, 5] {
            let par = oracle.audit_with_workers(base, s, workers);
            assert_eq!(reference, par, "workers {workers}");
        }
        reference
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Neither `audit` nor a forced worker count ever changes a
        /// sampled audit.
        #[test]
        fn sampled_audit_seq_equals_par(
            num_players in 2usize..5,
            payoffs in prop::collection::vec(-5i8..=5, 8..48),
            audit_seed in 0u64..500,
        ) {
            let game = game_from_payoff_seed(num_players, &payoffs);
            let backend = DenseBackend::new(&game);
            let base = vec![0usize; num_players];
            assert_worker_independent(&backend, &base, &spec(0.0, 300, num_players, audit_seed));
        }
    }

    /// The costly case: a scrip economy audited over coalitions of up to
    /// three players, with several moved samples per block and a partial
    /// last block. Its queries are whole economy runs, which `audit` may
    /// fan out.
    #[test]
    fn economy_audit_is_worker_independent() {
        let config = EconomyConfig::homogeneous(300, 10, 2_000);
        let backend = ThresholdAuditBackend::new(config, vec![0, 5, 10, 20], 1, 17);
        let base = backend.base_profile();
        let audit = assert_worker_independent(&backend, &base, &spec(0.0, 150, 3, 23));
        assert_eq!(audit.certificates.len(), 3);
        assert!(audit.certificates.iter().all(|c| c.samples == 150));
    }

    /// The threshold audit game of [`ThresholdAuditBackend`] answered by
    /// running the economy for every query, averaged over the trials in
    /// trial order.
    struct RunsEveryQuery {
        config: EconomyConfig,
        candidates: Vec<u32>,
        trials: usize,
        sim_seed: u64,
        engine: Mutex<Economy>,
    }

    impl PayoffBackend for RunsEveryQuery {
        fn num_players(&self) -> usize {
            self.config.rational
        }

        fn num_actions(&self, _player: PlayerId) -> usize {
            self.candidates.len()
        }

        fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
            let base = self.config.rational_base();
            let overrides: Vec<(usize, u32)> = (0..self.config.rational)
                .map(|p| (base + p, self.candidates[view.action(p)]))
                .filter(|&(_, t)| t != self.config.threshold)
                .collect();
            let mut engine = self.engine.lock().unwrap();
            let mut total = 0.0;
            for trial in 0..self.trials {
                engine.run_with_thresholds(&overrides, self.sim_seed + trial as u64);
                total += engine.average_utility(base + player);
            }
            total / self.trials as f64
        }

        fn payoff_bounds(&self) -> (Utility, Utility) {
            (-self.config.cost, self.config.benefit)
        }
    }

    /// The backend's answers from its base run change no audit: hoarders,
    /// altruists, churn 0 and 0.01, two trials, coalitions of up to three,
    /// on one and two workers, at a horizon where each agent trades a
    /// handful of times. The money supply starts below, inside and above
    /// the candidates around the common threshold, so raising and
    /// lowering thresholds both bite sometimes.
    #[test]
    fn economy_audit_recalls_what_running_every_query_measures() {
        let candidates = vec![0, 3, 6, 12];
        for (hoarders, altruists, churn, scrip) in
            [(3, 0, 0.0, 1), (0, 2, 0.01, 7), (2, 2, 0.01, 4)]
        {
            let config = EconomyConfig {
                hoarders,
                altruists,
                churn,
                initial_scrip: scrip,
                newcomer_scrip: scrip,
                ..EconomyConfig::homogeneous(60, 6, 300)
            };
            let reference = RunsEveryQuery {
                engine: Mutex::new(Economy::new(&config)),
                config: config.clone(),
                candidates: candidates.clone(),
                trials: 2,
                sim_seed: 5,
            };
            let base = vec![2; 60];
            let s = spec(0.0, 96, 3, 29);
            let want = SampledOracle::new(&reference).audit_with_workers(&base, &s, 1);
            for workers in [1usize, 2] {
                let backend = ThresholdAuditBackend::new(config.clone(), candidates.clone(), 2, 5);
                let got = SampledOracle::new(&backend).audit_with_workers(&base, &s, workers);
                assert_eq!(got, want, "{config:?} on {workers} workers");
                let work = backend.work();
                let ran = work.queries - work.recalled;
                assert!(work.recalled > 0 && ran > 1, "{work:?}");
                assert_eq!(work.economy_runs, 2 * ran);
            }
        }
    }

    /// A sampled deviation as a view's override list.
    type Deviation = Vec<(PlayerId, ActionId)>;

    /// A backend that logs every query it answers.
    struct Counting<'g> {
        inner: DenseBackend<'g>,
        batched: Mutex<usize>,
        /// `(player, view overrides)` of every single-payoff query.
        single: Mutex<Vec<(PlayerId, Deviation)>>,
    }

    impl PayoffBackend for Counting<'_> {
        fn num_players(&self) -> usize {
            self.inner.num_players()
        }

        fn num_actions(&self, player: PlayerId) -> usize {
            self.inner.num_actions(player)
        }

        fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
            let overrides = view.overrides().to_vec();
            self.single.lock().unwrap().push((player, overrides));
            self.inner.payoff(player, view)
        }

        fn payoff_bounds(&self) -> (Utility, Utility) {
            self.inner.payoff_bounds()
        }

        fn payoffs_into(&self, view: &ProfileView<'_>, out: &mut [Utility]) {
            *self.batched.lock().unwrap() += 1;
            self.inner.payoffs_into(view, out);
        }
    }

    /// Every worker count issues the same queries: one batched base read
    /// per audit, and one single read per coalition member of each
    /// sample that moves.
    #[test]
    fn worker_counts_issue_identical_queries() {
        let game = game_from_payoff_seed(4, &[3, -1, 4, 1, -5, 9, 2, -6]);
        let base = vec![0usize; 4];
        let s = spec(0.0, 150, 3, 41);
        let mut logs = Vec::new();
        for workers in [1usize, 2, 3, 5] {
            let backend = Counting {
                inner: DenseBackend::new(&game),
                batched: Mutex::new(0),
                single: Mutex::new(Vec::new()),
            };
            SampledOracle::new(&backend).audit_with_workers(&base, &s, workers);
            assert_eq!(*backend.batched.lock().unwrap(), 1, "workers {workers}");
            let mut log = backend.single.into_inner().unwrap();
            for (player, overrides) in &log {
                assert!(overrides.iter().any(|&(p, _)| p == *player));
                assert!(overrides.iter().any(|&(p, a)| base[p] != a));
            }
            log.sort();
            logs.push(log);
        }
        // each coalition member is queried as often as the sample occurs
        let first = &logs[0];
        for deviation in first.iter().map(|(_, d)| d) {
            let calls = |player| {
                first
                    .iter()
                    .filter(|(p, d)| *p == player && d == deviation)
                    .count()
            };
            let members: Vec<usize> = deviation.iter().map(|&(p, _)| calls(p)).collect();
            assert!(members.iter().all(|&c| c == members[0]), "{deviation:?}");
        }
        assert!(first.len() > 150, "several coalition sizes were queried");
        for (log, workers) in logs.iter().zip([1, 2, 3, 5]) {
            assert_eq!(log, first, "workers {workers}");
        }
    }
}
