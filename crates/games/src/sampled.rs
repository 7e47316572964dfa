//! The sampled deviation oracle: ε-equilibrium audits with (ε, δ)
//! confidence bounds over any [`PayoffBackend`].
//!
//! The exhaustive [`crate::DeviationOracle`] *proves* "no profitable
//! coalition deviation" by enumerating the deviation space — sound, but
//! exponential in coalition size and impossible once the game has more
//! than a handful of players. The [`SampledOracle`] trades proof for a
//! quantified audit: it draws seeded uniform samples from the deviation
//! space and issues a certificate of the form
//!
//! > *no sampled deviation of coalition size `s` gains more than ε*,
//!
//! mirroring the exhaustive oracle's accept/reject structure (one
//! certificate per coalition size, a concrete counterexample on reject)
//! and attaching two concentration bounds in the accept case:
//!
//! * **miss mass** — if at least a `ρ` fraction of the deviation space
//!   gained more than ε, then `m` independent uniform samples would all
//!   miss with probability at most `(1 − ρ)^m ≤ e^{−ρm}`. Solving
//!   `e^{−ρm} = δ` gives `ρ = ln(1/δ)/m`: with confidence `1 − δ`, fewer
//!   than that fraction of deviations are ε-profitable;
//! * **Hoeffding radius** — sampled gains are i.i.d. and bounded by the
//!   backend's payoff range `R = hi − lo` (a gain lies in `[−R, R]`), so
//!   the sampled mean gain is within `2R·sqrt(ln(2/δ)/(2m))` of the true
//!   mean gain of a uniformly random deviation, with probability `1 − δ`
//!   (Hoeffding's inequality; the standard toolkit in Aspnes' *Notes on
//!   Theory of Distributed Systems*).
//!
//! A sampled accept is therefore **not** a Nash certificate — a needle
//! deviation can hide in unsampled mass — but a sampled *reject* is sound:
//! the counterexample is a real deviation whose gain was measured by real
//! payoff queries, and re-checking it exhaustively must reproduce the
//! gain. The property tests pin both directions against the exhaustive
//! oracle on small dense games.
//!
//! # Determinism
//!
//! Samples are drawn in fixed blocks of [`SAMPLE_BLOCK`]; block `b` of
//! coalition size `s` seeds its own RNG via [`derive_seed`] (the same
//! SplitMix64 discipline as `bne_sim::derive_seed`). Each coalition size
//! is audited in three steps:
//!
//! 1. **draw** — every block's deviations, in sample order, noting the
//!    samples that move at least one player (the others gain exactly 0
//!    and cost no query);
//! 2. **evaluate** — the moved samples' gains: every payoff query of the
//!    audit but the one batched base-profile read. With the `parallel`
//!    feature each moved sample is a unit of `crate::parallel::fan_out`,
//!    so an economy audit, whose queries take milliseconds, recruits
//!    every core and a small dense game's stays inline;
//! 3. **fold** — the gains in sample order, block by block, into the
//!    certificate; the witness is the lowest-index sample over ε.
//!
//! Neither the draws nor the fold depend on the worker count, so the
//! certificates are **bit-identical** — same gains, same counterexample,
//! same confidence numbers — for any worker count.

use crate::backend::{PayoffBackend, ProfileView};
use crate::{ActionId, PlayerId, Utility, EPSILON};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Number of samples drawn per seeded block — the unit of seeding and of
/// the fold. Fixed so the block structure (and therefore every merge)
/// depends only on the sample count, never the worker count; the unit of
/// parallel work is the moved sample.
pub const SAMPLE_BLOCK: usize = 64;

/// Derives the RNG seed of sample block `block` at coalition size `size`.
/// Same bijective SplitMix64-style mix as `bne_sim::derive_seed`, so audit
/// streams never collide across blocks or sizes.
pub fn derive_seed(base_seed: u64, size: u64, block: u64) -> u64 {
    fn finalize(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let x = base_seed
        .wrapping_add(size.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(block.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    finalize(finalize(x) ^ 0x9E37_79B9_7F4A_7C15)
}

/// Parameters of one sampled audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditSpec {
    /// Gain tolerance: a sampled deviation is a counterexample when some
    /// coalition member gains more than `epsilon` (plus the workspace
    /// [`EPSILON`] comparison slack, so `epsilon = 0.0` matches the
    /// exhaustive oracle's notion of "profitable" exactly).
    pub epsilon: f64,
    /// Confidence parameter of the concentration bounds (both the miss
    /// mass and the Hoeffding radius hold with probability `1 − delta`).
    pub delta: f64,
    /// Samples drawn per audited coalition size.
    pub samples: usize,
    /// Audit coalition sizes `1..=max_coalition` (clamped to the number
    /// of players).
    pub max_coalition: usize,
    /// Base seed of the audit's sample streams.
    pub seed: u64,
}

impl AuditSpec {
    /// A unilateral-only audit (`max_coalition = 1`) with the given
    /// tolerance, confidence and sample count.
    pub fn unilateral(epsilon: f64, delta: f64, samples: usize, seed: u64) -> Self {
        AuditSpec {
            epsilon,
            delta,
            samples,
            max_coalition: 1,
            seed,
        }
    }
}

/// A concrete sampled deviation: the coalition (increasing player order)
/// and the joint action it moves to, with the best member gain measured
/// by payoff queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledDeviation {
    /// Deviating players, in increasing order.
    pub players: Vec<PlayerId>,
    /// `actions[i]` is the action `players[i]` deviates to.
    pub actions: Vec<ActionId>,
    /// The largest gain any coalition member realizes (deviation payoff
    /// minus base payoff; the paper's some-member-gains notion).
    pub gain: f64,
    /// Index of the sample (within its coalition size's stream) that
    /// produced this deviation — ties the witness to the seed discipline.
    pub sample_index: usize,
}

/// The per-coalition-size certificate of a sampled audit — the sampled
/// analogue of one row of the exhaustive oracle's certificate table.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCertificate {
    /// Coalition size this certificate covers.
    pub size: usize,
    /// Samples drawn.
    pub samples: usize,
    /// Gain tolerance audited against.
    pub epsilon: f64,
    /// Confidence parameter of the bounds below.
    pub delta: f64,
    /// `true` iff no sampled deviation gained more than `epsilon`.
    pub accepted: bool,
    /// Largest sampled gain.
    pub max_gain: f64,
    /// Mean sampled gain (the average over uniform deviations).
    pub mean_gain: f64,
    /// The first sampled counterexample (lowest sample index), if any.
    pub counterexample: Option<SampledDeviation>,
    /// Accept-side bound: with confidence `1 − delta`, at most this
    /// fraction of the deviation space gains more than `epsilon`
    /// (`ln(1/delta) / samples`).
    pub miss_mass: f64,
    /// Hoeffding half-width of the mean-gain estimate at confidence
    /// `1 − delta` (`2R·sqrt(ln(2/delta)/(2·samples))` for payoff range
    /// `R`).
    pub hoeffding_radius: f64,
}

/// The full audit result: one certificate per coalition size, plus the
/// overall verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledAudit {
    /// Certificates for sizes `1..=max_coalition`, ascending.
    pub certificates: Vec<SampledCertificate>,
    /// `true` iff every certificate accepted.
    pub accepted: bool,
}

impl SampledAudit {
    /// The first rejecting certificate's counterexample, if any.
    pub fn counterexample(&self) -> Option<&SampledDeviation> {
        self.certificates
            .iter()
            .find_map(|c| c.counterexample.as_ref())
    }
}

/// Running count, mean and maximum of the gains of one block of samples
/// (the unit the fold merges in block order).
#[derive(Debug, Clone, Copy)]
struct BlockAudit {
    count: u64,
    mean: f64,
    max_gain: f64,
}

impl BlockAudit {
    fn empty() -> Self {
        BlockAudit {
            count: 0,
            mean: 0.0,
            max_gain: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, gain: f64) {
        self.count += 1;
        self.mean += (gain - self.mean) / self.count as f64;
        self.max_gain = self.max_gain.max(gain);
    }

    /// Merges `other` (a later block) into `self`.
    fn absorb(&mut self, other: &BlockAudit) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        self.mean += (other.mean - self.mean) * (n2 / (n1 + n2));
        self.max_gain = self.max_gain.max(other.max_gain);
        self.count += other.count;
    }
}

/// The deviations drawn for one coalition size, with the base profile
/// and base payoffs their gains are measured against.
struct Draws<'a> {
    base: &'a [ActionId],
    base_payoffs: &'a [Utility],
    size: usize,
    /// Sample `s` moves the players of `deviations[s * size..][..size]`
    /// (ascending) to the paired actions.
    deviations: Vec<(PlayerId, ActionId)>,
    /// The samples that move at least one player, ascending: the only
    /// ones that cost payoff queries.
    moved: Vec<usize>,
}

impl Draws<'_> {
    /// The deviation of sample `s`: its coalition with the actions they
    /// move to.
    fn sample(&self, s: usize) -> &[(PlayerId, ActionId)] {
        &self.deviations[s * self.size..][..self.size]
    }

    /// The largest gain of any coalition member of sample `s`: one payoff
    /// query per member.
    fn gain<B: PayoffBackend>(&self, backend: &B, s: usize) -> f64 {
        let deviation = self.sample(s);
        let view = ProfileView::new(self.base, deviation);
        deviation
            .iter()
            .map(|&(p, _)| backend.payoff(p, &view) - self.base_payoffs[p])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The sampled deviation oracle over a payoff backend.
///
/// # Examples
///
/// On a small dense game the sampled audit agrees with the exhaustive
/// oracle: the prisoner's dilemma's (Defect, Defect) has no profitable
/// deviation, so every sampled certificate accepts at `ε = 0`.
///
/// ```
/// use bne_games::backend::DenseBackend;
/// use bne_games::classic::prisoners_dilemma;
/// use bne_games::sampled::{AuditSpec, SampledOracle};
///
/// let game = prisoners_dilemma();
/// let backend = DenseBackend::new(&game);
/// let oracle = SampledOracle::new(&backend);
/// let audit = oracle.audit(&[1, 1], &AuditSpec::unilateral(0.0, 1e-6, 128, 42));
/// assert!(audit.accepted);
/// // (Cooperate, Cooperate) is refuted by a sampled unilateral deviation
/// let audit = oracle.audit(&[0, 0], &AuditSpec::unilateral(0.0, 1e-6, 128, 42));
/// assert!(!audit.accepted);
/// assert!(audit.counterexample().unwrap().gain > 0.0);
/// ```
#[derive(Debug)]
pub struct SampledOracle<'b, B: PayoffBackend> {
    backend: &'b B,
}

impl<'b, B: PayoffBackend> SampledOracle<'b, B> {
    /// Creates a sampled oracle over `backend`.
    pub fn new(backend: &'b B) -> Self {
        SampledOracle { backend }
    }

    /// The audited backend.
    pub fn backend(&self) -> &'b B {
        self.backend
    }

    /// Draws the `spec.samples` deviations of coalition size `size`,
    /// each block from its own seeded stream.
    fn draw<'a>(
        &self,
        base: &'a [ActionId],
        base_payoffs: &'a [Utility],
        size: usize,
        spec: &AuditSpec,
    ) -> Draws<'a> {
        let n = self.backend.num_players();
        let mut deviations = Vec::with_capacity(spec.samples * size);
        let mut moved = Vec::with_capacity(spec.samples);
        let mut players: Vec<PlayerId> = Vec::with_capacity(size);
        for (block, start) in (0..spec.samples).step_by(SAMPLE_BLOCK).enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, size as u64, block as u64));
            for s in start..spec.samples.min(start + SAMPLE_BLOCK) {
                // draw `size` distinct players, ascending
                players.clear();
                while players.len() < size {
                    let p = rng.random_range(0..n);
                    if !players.contains(&p) {
                        players.push(p);
                    }
                }
                players.sort_unstable();
                // draw the joint deviation (any action, including staying)
                let mut moves = false;
                for &p in &players {
                    let a = rng.random_range(0..self.backend.num_actions(p));
                    moves |= base[p] != a;
                    deviations.push((p, a));
                }
                if moves {
                    moved.push(s);
                }
            }
        }
        Draws {
            base,
            base_payoffs,
            size,
            deviations,
            moved,
        }
    }

    /// Folds the moved samples' gains (`moved_gains`, in sample order;
    /// every other sample gains 0) block by block into the certificate
    /// for `draws`' coalition size.
    fn certify(
        &self,
        spec: &AuditSpec,
        draws: &Draws<'_>,
        moved_gains: &[f64],
    ) -> SampledCertificate {
        let mut gains = vec![0.0; spec.samples];
        for (&s, &gain) in draws.moved.iter().zip(moved_gains) {
            gains[s] = gain;
        }
        let mut acc = BlockAudit::empty();
        for block in gains.chunks(SAMPLE_BLOCK) {
            let mut part = BlockAudit::empty();
            for &gain in block {
                part.push(gain);
            }
            acc.absorb(&part);
        }
        let counterexample = gains
            .iter()
            .position(|&gain| gain > spec.epsilon + EPSILON)
            .map(|s| {
                let deviation = draws.sample(s);
                SampledDeviation {
                    players: deviation.iter().map(|&(p, _)| p).collect(),
                    actions: deviation.iter().map(|&(_, a)| a).collect(),
                    gain: gains[s],
                    sample_index: s,
                }
            });
        let (lo, hi) = self.backend.payoff_bounds();
        let range = (hi - lo).max(0.0);
        let m = spec.samples as f64;
        // keeps ln(1/δ) finite for a subnormal δ
        let delta = spec.delta.max(1e-300);
        SampledCertificate {
            size: draws.size,
            samples: spec.samples,
            epsilon: spec.epsilon,
            delta: spec.delta,
            accepted: counterexample.is_none(),
            max_gain: acc.max_gain,
            mean_gain: acc.mean,
            counterexample,
            miss_mass: ((1.0 / delta).ln() / m).min(1.0),
            hoeffding_radius: 2.0 * range * ((2.0 / delta).ln() / (2.0 * m)).sqrt(),
        }
    }

    /// The audit shared by [`SampledOracle::audit`] and
    /// [`SampledOracle::audit_with_workers`]: for each coalition size,
    /// draw the samples, let `evaluate` compute the moved samples' gains
    /// in sample order, and fold them into the certificate.
    fn audit_by<E>(&self, base: &[ActionId], spec: &AuditSpec, evaluate: E) -> SampledAudit
    where
        E: Fn(&Draws<'_>) -> Vec<f64>,
    {
        let base_payoffs = self.validate(base, spec);
        let max_size = spec.max_coalition.min(self.backend.num_players());
        let certificates = (1..=max_size)
            .map(|size| {
                let draws = self.draw(base, &base_payoffs, size, spec);
                self.certify(spec, &draws, &evaluate(&draws))
            })
            .collect();
        Self::seal(certificates)
    }

    /// Audits the profile `base`: for each coalition size
    /// `1..=spec.max_coalition` (clamped to the player count), samples
    /// `spec.samples` joint deviations and certifies "no sampled
    /// deviation gains more than ε" with the spec's confidence bounds.
    ///
    /// With the `parallel` feature the moved samples' payoff queries fan
    /// out under the workspace's rule: the first moved sample runs
    /// inline and is timed, and helpers join only when the remaining
    /// samples are estimated to outweigh their spawn. The result is the
    /// same either way.
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length or an out-of-range action,
    /// `spec.samples == 0`, `spec.max_coalition == 0`, `spec.epsilon` is
    /// NaN, or `spec.delta` lies outside `(0, 1]`.
    #[cfg(feature = "parallel")]
    pub fn audit(&self, base: &[ActionId], spec: &AuditSpec) -> SampledAudit
    where
        B: Sync,
    {
        self.audit_with_workers(base, spec, None)
    }

    /// Audits the profile `base`: for each coalition size
    /// `1..=spec.max_coalition` (clamped to the player count), samples
    /// `spec.samples` joint deviations and certifies "no sampled
    /// deviation gains more than ε" with the spec's confidence bounds.
    /// (Sequential build: every query runs inline and the backend needs
    /// no `Sync`.)
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length or an out-of-range action,
    /// `spec.samples == 0`, `spec.max_coalition == 0`, `spec.epsilon` is
    /// NaN, or `spec.delta` lies outside `(0, 1]`.
    #[cfg(not(feature = "parallel"))]
    pub fn audit(&self, base: &[ActionId], spec: &AuditSpec) -> SampledAudit {
        self.audit_by(base, spec, |draws| {
            let gain = |&s: &usize| draws.gain(self.backend, s);
            draws.moved.iter().map(gain).collect()
        })
    }

    /// [`SampledOracle::audit`] on exactly `workers` threads, the calling
    /// thread among them, whatever the queries cost (`None`: the fan-out
    /// rule decides). The moved samples are claimed one at a time and
    /// their gains folded in sample order, so the result is bit-identical
    /// to the sequential audit.
    ///
    /// # Panics
    ///
    /// As [`SampledOracle::audit`].
    #[cfg(feature = "parallel")]
    pub fn audit_with_workers(
        &self,
        base: &[ActionId],
        spec: &AuditSpec,
        workers: impl Into<Option<usize>>,
    ) -> SampledAudit
    where
        B: Sync,
    {
        let workers = workers.into();
        self.audit_by(base, spec, |draws| {
            let mut gains = Vec::with_capacity(draws.moved.len());
            let run = |samples: std::ops::Range<usize>, emit: &mut dyn FnMut(f64)| {
                let gain = |&s: &usize| emit(draws.gain(self.backend, s));
                draws.moved[samples].iter().for_each(gain);
                true
            };
            crate::parallel::fan_out(draws.moved.len(), workers, run, |gain| gains.push(gain));
            gains
        })
    }

    /// Validates the audit inputs and returns the cached base payoffs —
    /// one batched read shared by every size and sample (for simulation
    /// backends this is a single run).
    fn validate(&self, base: &[ActionId], spec: &AuditSpec) -> Vec<Utility> {
        let n = self.backend.num_players();
        assert_eq!(base.len(), n, "base profile must assign every player");
        assert!(spec.samples > 0, "audits need at least one sample");
        assert!(
            spec.max_coalition > 0,
            "audit at least unilateral deviations"
        );
        assert!(!spec.epsilon.is_nan(), "the gain tolerance must not be NaN");
        assert!(
            spec.delta > 0.0 && spec.delta <= 1.0,
            "the confidence parameter must lie in (0, 1], got {}",
            spec.delta
        );
        for (p, &a) in base.iter().enumerate() {
            assert!(
                a < self.backend.num_actions(p),
                "base action {a} out of range for player {p}"
            );
        }
        let mut base_payoffs = vec![0.0; n];
        self.backend
            .payoffs_into(&ProfileView::of_base(base), &mut base_payoffs);
        base_payoffs
    }

    fn seal(certificates: Vec<SampledCertificate>) -> SampledAudit {
        let accepted = certificates.iter().all(|c| c.accepted);
        SampledAudit {
            certificates,
            accepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::classic;
    use crate::random::random_game;
    use crate::DeviationOracle;

    fn spec(epsilon: f64, samples: usize, max_coalition: usize, seed: u64) -> AuditSpec {
        AuditSpec {
            epsilon,
            delta: 1e-6,
            samples,
            max_coalition,
            seed,
        }
    }

    #[test]
    fn derive_seed_streams_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for size in 0..8u64 {
            for block in 0..512u64 {
                assert!(seen.insert(derive_seed(97, size, block)));
            }
        }
    }

    #[test]
    fn nash_profiles_are_never_rejected_at_zero_tolerance() {
        for seed in [3u64, 4, 5] {
            let g = random_game(seed, &[3, 3, 2]);
            let backend = DenseBackend::new(&g);
            let sampled = SampledOracle::new(&backend);
            let exhaustive = DeviationOracle::new(&g);
            for flat in 0..g.num_profiles() {
                if exhaustive.is_nash(flat) {
                    let base = g.profile_at(flat);
                    let audit = sampled.audit(&base, &spec(0.0, 256, 1, seed * 1000));
                    assert!(audit.accepted, "seed {seed} flat {flat} wrongly rejected");
                }
            }
        }
    }

    #[test]
    fn rejections_carry_verified_counterexamples() {
        let g = classic::prisoners_dilemma();
        let backend = DenseBackend::new(&g);
        let oracle = SampledOracle::new(&backend);
        let audit = oracle.audit(&[0, 0], &spec(0.0, 128, 2, 7));
        assert!(!audit.accepted);
        let cx = audit.counterexample().expect("CC must be refuted");
        // re-verify the witness against the dense game directly
        let mut profile = vec![0usize, 0];
        for (p, a) in cx.players.iter().zip(cx.actions.iter()) {
            profile[*p] = *a;
        }
        let gain = cx
            .players
            .iter()
            .map(|&p| g.payoff(p, &profile) - g.payoff(p, &[0, 0]))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(gain, cx.gain);
        assert!(gain > 0.0);
    }

    #[test]
    fn epsilon_tolerance_accepts_small_gains() {
        // gains in the PD are bounded by 5; a huge epsilon accepts all
        let g = classic::prisoners_dilemma();
        let backend = DenseBackend::new(&g);
        let oracle = SampledOracle::new(&backend);
        let audit = oracle.audit(&[0, 0], &spec(10.0, 64, 2, 11));
        assert!(audit.accepted);
        assert!(audit.certificates.iter().all(|c| c.max_gain <= 10.0));
        // confidence numbers are monotone in the sample count
        let few = oracle.audit(&[0, 0], &spec(10.0, 64, 1, 11));
        let many = oracle.audit(&[0, 0], &spec(10.0, 512, 1, 11));
        assert!(many.certificates[0].miss_mass < few.certificates[0].miss_mass);
        assert!(many.certificates[0].hoeffding_radius < few.certificates[0].hoeffding_radius);
    }

    #[test]
    fn audits_are_deterministic_in_the_seed() {
        let g = random_game(21, &[3, 2, 3]);
        let backend = DenseBackend::new(&g);
        let oracle = SampledOracle::new(&backend);
        let base = vec![0usize; 3];
        let a = oracle.audit(&base, &spec(0.0, 200, 3, 5));
        let b = oracle.audit(&base, &spec(0.0, 200, 3, 5));
        assert_eq!(a, b);
        let c = oracle.audit(&base, &spec(0.0, 200, 3, 6));
        // a different seed samples different deviations (stats differ)
        assert!(a != c || a.accepted == c.accepted);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_epsilon_is_rejected() {
        let g = classic::prisoners_dilemma();
        let backend = DenseBackend::new(&g);
        SampledOracle::new(&backend).audit(&[1, 1], &spec(f64::NAN, 64, 1, 1));
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1]")]
    fn delta_outside_the_unit_interval_is_rejected() {
        let g = classic::prisoners_dilemma();
        let backend = DenseBackend::new(&g);
        let spec = AuditSpec {
            delta: 0.0,
            ..spec(0.0, 64, 1, 1)
        };
        SampledOracle::new(&backend).audit(&[1, 1], &spec);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_audit_is_bit_identical() {
        let g = random_game(33, &[4, 3, 3]);
        let backend = DenseBackend::new(&g);
        let oracle = SampledOracle::new(&backend);
        let base = vec![1usize, 0, 2];
        let sequential = oracle.audit(&base, &spec(0.0, 500, 2, 9));
        for workers in [2, 3, 5] {
            assert_eq!(
                sequential,
                oracle.audit_with_workers(&base, &spec(0.0, 500, 2, 9), workers),
                "workers {workers}"
            );
        }
    }
}
