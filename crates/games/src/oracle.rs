//! The deviation oracle: one pruned search core for every
//! "no profitable coalition deviation" predicate in the workspace.
//!
//! The paper's central objects — pure Nash equilibrium, k-resilience,
//! t-immunity, (k,t)-robustness and punishment strategies — are all
//! predicates over coalition deviations from a profile. Before this module
//! each consumer (`bne-solvers`, the four `bne-robust` analyses,
//! `bne-mediator`) re-implemented the check as a brute-force sweep. The
//! [`DeviationOracle`] owns that hot path once:
//!
//! * **best-response payoff tables** — `best(p, flat)` is the highest
//!   payoff player `p` can reach from the profile at `flat` by a
//!   unilateral move (staying included), precomputed lazily in one pass
//!   over the payoff tensor. The table is a *sound accept/reject
//!   certificate*: a profile where every player already best-responds has
//!   no profitable size-1 deviation, and a single unilateral gain refutes
//!   k-resilience for **all** `k ≥ 1` at once;
//! * **iterated pre-elimination** — actions that are never an ε-best
//!   response against any surviving opponent context cannot appear in a
//!   Nash profile (and therefore in any k-resilient profile with
//!   `k ≥ 1`); eliminating them iteratively shrinks the searched space,
//!   with a remapping back to the original game's flat indices. This
//!   subsumes iterated strict dominance (a strictly dominated action is
//!   never a best response);
//! * **incremental flat-index evaluation** — the pruned sub-box is walked
//!   with stride-delta updates on the *original* flat index, so no
//!   profile is ever re-encoded;
//! * **memoized payoff snapshots** — a profile's payoff vector is read
//!   once and shared across every coalition and coalition size examined
//!   for it.
//!
//! Finding the profiles with a property is one of two sweeps,
//! [`DeviationOracle::profiles`] and [`DeviationOracle::first_profile`],
//! each taking the property as a [`Concept`]. Pruning never changes
//! results: a sweep walks the pruned sub-box only for a concept that
//! implies "no unilateral gain" (Nash, and k-resilience or
//! (k,t)-robustness with `k ≥ 1`), every such profile survives
//! elimination, and the surviving sub-box is enumerated in ascending
//! original flat order — so pruned sweeps return **bit-identical**
//! profile lists (same profiles, same order) as the exhaustive ones.
//! [`SearchStrategy::Exhaustive`] keeps the unpruned path available as
//! the property-test equality gate.
//!
//! # Examples
//!
//! The oracle answers per-profile predicates by flat index (profile
//! `(a_0, …)` lives at `Σ a_p · stride_p`; see
//! [`NormalFormGame::strides`]). In the prisoner's dilemma, (Defect,
//! Defect) — flat index 3 — is the unique Nash equilibrium, but any
//! 2-coalition gains by jointly switching to Cooperate, so it is not
//! 2-resilient:
//!
//! ```
//! use bne_games::classic::prisoners_dilemma;
//! use bne_games::{Concept, DeviationOracle, ResilienceVariant};
//!
//! let game = prisoners_dilemma();
//! let oracle = DeviationOracle::new(&game);
//!
//! let dd = 3; // flat index of (Defect, Defect)
//! assert!(oracle.is_nash(dd));
//! assert!(!oracle.is_k_resilient(dd, 2, ResilienceVariant::SomeMemberGains));
//! assert_eq!(oracle.max_resilience(dd, 2, ResilienceVariant::SomeMemberGains), 1);
//!
//! // no other profile is Nash: one oracle, many queries, one table build
//! // (`None` lets the fan-out rule pick the worker count)
//! assert_eq!(oracle.profiles(&Concept::Nash, None), vec![vec![1, 1]]);
//! let two_resilient = Concept::Resilient { k: 2, variant: ResilienceVariant::SomeMemberGains };
//! assert_eq!(oracle.first_profile(&two_resilient, None), None);
//! ```

use crate::normal_form::NormalFormGame;
use crate::profile::{try_for_each_subset_of_size, with_scratch, ActionProfile};
use crate::{ActionId, PlayerId, Utility, EPSILON};
use std::ops::Range;
use std::sync::OnceLock;

/// Which search core a [`DeviationOracle`] sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Best-response certificates plus iterated pre-elimination of
    /// never-best-response actions, applied wherever they are sound. The
    /// default, and bit-identical to [`SearchStrategy::Exhaustive`].
    #[default]
    Pruned,
    /// The unpruned flat-index sweep of the pre-oracle implementations:
    /// every profile visited, every size-1 deviation re-scanned. Retained
    /// as the escape hatch the property tests compare against.
    Exhaustive,
}

/// Which players must benefit for a coalition deviation to count as a
/// successful objection against k-resilience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResilienceVariant {
    /// The deviation succeeds if **some** member of the coalition strictly
    /// gains (and, implicitly, the others in the coalition follow along).
    /// This is the strong notion used by Abraham et al. and the paper.
    #[default]
    SomeMemberGains,
    /// The deviation succeeds only if **every** member of the coalition
    /// strictly gains. This is the weaker, coalition-proof-style notion.
    AllMembersGain,
}

/// A solution concept that [`DeviationOracle::profiles`] and
/// [`DeviationOracle::first_profile`] sweep the profile space for. Each
/// is a predicate over coalition deviations from one profile, decided by
/// the oracle's per-profile method of the same notion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Concept<'a> {
    /// Pure Nash equilibrium, i.e. (1,0)-robustness
    /// ([`DeviationOracle::is_nash`]).
    Nash,
    /// k-resilience ([`DeviationOracle::is_k_resilient`]).
    Resilient {
        /// Largest deviating coalition.
        k: usize,
        /// Which coalition members must gain.
        variant: ResilienceVariant,
    },
    /// t-immunity ([`DeviationOracle::is_t_immune`]).
    Immune {
        /// Largest deviator set.
        t: usize,
    },
    /// Componentwise (k,t)-robustness ([`DeviationOracle::is_robust`]).
    Robust {
        /// Largest deviating coalition.
        k: usize,
        /// Largest deviator set.
        t: usize,
    },
    /// A `p`-punishment strategy relative to the payoffs in `base`
    /// ([`DeviationOracle::is_punishment`]).
    Punishment {
        /// The payoffs every player must end strictly below.
        base: &'a [Utility],
        /// Largest deviator set.
        p: usize,
    },
}

impl Concept<'_> {
    /// Whether every profile with this concept is a Nash equilibrium, the
    /// condition under which a sweep may walk the pruned sub-box.
    /// Immunity and punishment admit no elimination argument (immune
    /// profiles need not be equilibria, punishment profiles are
    /// deliberately bad), and 0-resilience accepts every profile.
    fn implies_nash(&self) -> bool {
        match *self {
            Concept::Nash => true,
            Concept::Resilient { k, .. } | Concept::Robust { k, .. } => k >= 1,
            Concept::Immune { .. } | Concept::Punishment { .. } => false,
        }
    }
}

/// A sub-box of the profile space that a sweep walks: per-player kept
/// actions (original indices, increasing). The full box keeps every
/// action; the pruned box keeps the survivors of iterated elimination.
#[derive(Debug, Clone)]
struct SubBox {
    /// Kept actions per player, in increasing original order.
    actions: Vec<Vec<ActionId>>,
    /// Number of profiles in the sub-box.
    count: usize,
}

impl SubBox {
    fn new(actions: Vec<Vec<ActionId>>) -> Self {
        let count = actions.iter().map(Vec::len).product();
        SubBox { actions, count }
    }
}

/// The shared deviation-checking core. Borrows the game; every payoff
/// access is flat-index stride arithmetic on the original tensors.
#[derive(Debug)]
pub struct DeviationOracle<'g> {
    game: &'g NormalFormGame,
    strategy: SearchStrategy,
    /// `best[p][flat]`: lazily built best-response payoff tables.
    best: OnceLock<Vec<Vec<Utility>>>,
    /// The full box, built on first use.
    full: OnceLock<SubBox>,
    /// Lazily computed pre-elimination result.
    pruned: OnceLock<SubBox>,
}

impl<'g> DeviationOracle<'g> {
    /// Creates an oracle with the default [`SearchStrategy::Pruned`].
    pub fn new(game: &'g NormalFormGame) -> Self {
        Self::with_strategy(game, SearchStrategy::Pruned)
    }

    /// Creates an oracle with an explicit strategy
    /// ([`SearchStrategy::Exhaustive`] is the property-test gate).
    pub fn with_strategy(game: &'g NormalFormGame, strategy: SearchStrategy) -> Self {
        DeviationOracle {
            game,
            strategy,
            best: OnceLock::new(),
            full: OnceLock::new(),
            pruned: OnceLock::new(),
        }
    }

    /// The underlying game.
    pub fn game(&self) -> &'g NormalFormGame {
        self.game
    }

    /// The strategy this oracle sweeps with.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    // -----------------------------------------------------------------
    // Best-response payoff tables (the accept/reject certificates)
    // -----------------------------------------------------------------

    /// The per-player best-response payoff tables, built on first use in
    /// one pass per player over the payoff tensor (entries are constant
    /// along the player's own stride, so each context is maximized once
    /// and the result written along the stride). The context walk is
    /// pure stride arithmetic — no division or re-encoding per entry.
    fn best_tables(&self) -> &Vec<Vec<Utility>> {
        self.best.get_or_init(|| {
            let n = self.game.num_players();
            let total = self.game.num_profiles();
            let mut tables = vec![vec![0.0; total]; n];
            for (p, table) in tables.iter_mut().enumerate() {
                let stride = self.game.strides()[p];
                let radix = self.game.num_actions(p);
                let payoffs = self.game.payoff_table(p);
                let block = stride * radix;
                let mut block_start = 0;
                while block_start < total {
                    for base in block_start..block_start + stride {
                        let mut m = Utility::NEG_INFINITY;
                        for a in 0..radix {
                            m = m.max(payoffs[base + a * stride]);
                        }
                        for a in 0..radix {
                            table[base + a * stride] = m;
                        }
                    }
                    block_start += block;
                }
            }
            tables
        })
    }

    /// Whether some player can strictly gain by a unilateral deviation
    /// from the profile at `flat`. `true` is a *reject certificate* for
    /// k-resilience at every `k ≥ 1` (and for Nash); `false` is an
    /// *accept certificate* for every size-1 coalition at once.
    pub fn has_unilateral_gain(&self, flat: usize) -> bool {
        let tables = self.best_tables();
        (0..self.game.num_players())
            .any(|p| tables[p][flat] > self.game.payoff_by_index(p, flat) + EPSILON)
    }

    /// Whether the profile at `flat` is a pure Nash equilibrium. With the
    /// tables built this is `n` lookups instead of a deviation scan.
    pub fn is_nash(&self, flat: usize) -> bool {
        match self.strategy {
            SearchStrategy::Pruned => !self.has_unilateral_gain(flat),
            SearchStrategy::Exhaustive => self.game.is_pure_nash_by_index(flat),
        }
    }

    // -----------------------------------------------------------------
    // Iterated pre-elimination
    // -----------------------------------------------------------------

    /// Visits the sub-box spanned by `surviving` with player `pin`'s
    /// digit held at its first surviving action, yielding the original
    /// flat index of every opponent context. Pure stride-delta updates —
    /// no division or re-encoding per context.
    fn visit_pinned_subbox(
        &self,
        surviving: &[Vec<ActionId>],
        pin: PlayerId,
        mut f: impl FnMut(usize),
    ) {
        let n = surviving.len();
        let strides = self.game.strides();
        with_scratch::<usize, ()>(n, |digits| {
            let mut flat: usize = surviving
                .iter()
                .enumerate()
                .map(|(p, s)| s[0] * strides[p])
                .sum();
            loop {
                f(flat);
                // advance the odometer over every player except `pin`
                let mut i = n;
                loop {
                    if i == 0 {
                        return;
                    }
                    i -= 1;
                    if i == pin {
                        continue;
                    }
                    let s = &surviving[i];
                    digits[i] += 1;
                    if digits[i] < s.len() {
                        flat += (s[digits[i]] - s[digits[i] - 1]) * strides[i];
                        break;
                    }
                    flat -= (s[s.len() - 1] - s[0]) * strides[i];
                    digits[i] = 0;
                }
            }
        });
    }

    /// The full box: every action of every player.
    fn full_space(&self) -> &SubBox {
        self.full.get_or_init(|| {
            let actions = (0..self.game.num_players())
                .map(|p| (0..self.game.num_actions(p)).collect())
                .collect();
            SubBox::new(actions)
        })
    }

    /// The pre-elimination result: iterated removal of actions that are
    /// never an ε-best response against any surviving opponent context,
    /// with survivors expressed as original action indices. Sound for
    /// Nash-implying predicates because an equilibrium action is a best
    /// response against equilibrium opponent actions, which themselves
    /// survive every round (induction). Runs entirely on masks over the
    /// original payoff tensors — no restricted game is ever materialized,
    /// and every round reads its per-context maxima straight off the
    /// certificate tables (sound in later rounds too: the argmax action
    /// of a surviving context is ε-best there, so it can never have been
    /// eliminated — the full-game max *is* the surviving max).
    fn pruned_space(&self) -> &SubBox {
        self.pruned.get_or_init(|| {
            let game = self.game;
            let strides = game.strides();
            let tables = self.best_tables();
            let mut surviving = self.full_space().actions.clone();
            loop {
                let mut changed = false;
                for p in 0..surviving.len() {
                    if surviving[p].len() == 1 {
                        continue;
                    }
                    let payoffs = game.payoff_table(p);
                    let stride = strides[p];
                    let mut used = vec![false; surviving[p].len()];
                    let survivors_p = surviving[p].clone();
                    self.visit_pinned_subbox(&surviving, p, |flat| {
                        let base = flat - survivors_p[0] * stride;
                        let m = tables[p][flat];
                        for (slot, &a) in used.iter_mut().zip(survivors_p.iter()) {
                            if payoffs[base + a * stride] >= m - EPSILON {
                                *slot = true;
                            }
                        }
                    });
                    if used.iter().any(|u| !u) {
                        changed = true;
                        surviving[p] = survivors_p
                            .iter()
                            .zip(used.iter())
                            .filter_map(|(&a, &u)| u.then_some(a))
                            .collect();
                    }
                }
                if !changed {
                    break;
                }
            }
            SubBox::new(surviving)
        })
    }

    /// Number of profiles in the pruned sub-box (equals
    /// `game.num_profiles()` when nothing could be eliminated).
    pub fn pruned_profile_count(&self) -> usize {
        self.pruned_space().count
    }

    /// The box a sweep walks: the pruned sub-box when every profile it
    /// can accept is a Nash equilibrium and the strategy prunes, the full
    /// box otherwise.
    fn space(&self, implies_nash: bool) -> &SubBox {
        if implies_nash && self.strategy == SearchStrategy::Pruned {
            self.pruned_space()
        } else {
            self.full_space()
        }
    }

    /// Decodes sub-box index `idx` into the sub-box `digits` (mixed
    /// radix, last player fastest, as in `index_to_profile`) and returns
    /// the original flat index of that profile — ascending in `idx`,
    /// because kept-action lists are increasing. Allocates nothing.
    fn decode(&self, space: &SubBox, mut idx: usize, digits: &mut [usize]) -> usize {
        let strides = self.game.strides();
        let mut flat = 0;
        for p in (0..digits.len()).rev() {
            let kept = &space.actions[p];
            digits[p] = idx % kept.len();
            idx /= kept.len();
            flat += kept[digits[p]] * strides[p];
        }
        flat
    }

    /// Whether `space` keeps every action, so that its index is the
    /// original flat index.
    fn is_full(&self, space: &SubBox) -> bool {
        space.count == self.game.num_profiles()
    }

    /// Original flat index of the `idx`-th profile of `space`.
    fn flat_at(&self, space: &SubBox, idx: usize) -> usize {
        if self.is_full(space) {
            return idx;
        }
        with_scratch(self.game.num_players(), |digits| {
            self.decode(space, idx, digits)
        })
    }

    /// Visits the contiguous sub-box index `range` of `space` as
    /// `f(original_flat)`, maintaining the original flat index with
    /// stride-delta updates (one decode of `range.start`, no per-step
    /// re-encoding, no allocation).
    fn visit_range(&self, space: &SubBox, range: Range<usize>, mut f: impl FnMut(usize)) {
        if self.is_full(space) {
            return range.for_each(f);
        }
        if range.start >= range.end {
            return;
        }
        let strides = self.game.strides();
        with_scratch(self.game.num_players(), |digits| {
            let mut flat = self.decode(space, range.start, digits);
            for _ in range {
                f(flat);
                // advance the sub-box odometer, updating the original flat
                // index in place
                let mut i = digits.len();
                loop {
                    if i == 0 {
                        return; // wrapped: range end was the last profile
                    }
                    i -= 1;
                    let s = &space.actions[i];
                    digits[i] += 1;
                    if digits[i] < s.len() {
                        flat += (s[digits[i]] - s[digits[i] - 1]) * strides[i];
                        break;
                    }
                    flat -= (s[s.len() - 1] - s[0]) * strides[i];
                    digits[i] = 0;
                }
            }
        })
    }

    // -----------------------------------------------------------------
    // Predicates (all by original flat index)
    // -----------------------------------------------------------------

    /// Size-1 resilience check without the tables: the legacy early-exit
    /// stride walk (the [`SearchStrategy::Exhaustive`] path).
    fn scan_unilateral_gain(&self, flat: usize) -> bool {
        let n = self.game.num_players();
        for p in 0..n {
            let stride = self.game.strides()[p];
            let base = flat - self.game.action_at(flat, p) * stride;
            let current = self.game.payoff_by_index(p, flat);
            for a in 0..self.game.num_actions(p) {
                if self.game.payoff_by_index(p, base + a * stride) > current + EPSILON {
                    return true;
                }
            }
        }
        false
    }

    /// Whether some player can strictly gain by a unilateral deviation,
    /// via the strategy-appropriate path (table certificate when pruned,
    /// early-exit scan when exhaustive).
    fn unilateral_gain(&self, flat: usize) -> bool {
        match self.strategy {
            SearchStrategy::Pruned => self.has_unilateral_gain(flat),
            SearchStrategy::Exhaustive => self.scan_unilateral_gain(flat),
        }
    }

    /// Whether a coalition of exactly `size ≥ 2` players has a profitable
    /// joint deviation from `flat`, reading equilibrium payoffs from the
    /// memoized `snapshot`.
    fn coalition_gain_at_size(
        &self,
        flat: usize,
        size: usize,
        variant: ResilienceVariant,
        snapshot: &[Utility],
    ) -> bool {
        let game = self.game;
        !try_for_each_subset_of_size(game.num_players(), size, |coalition| {
            game.visit_coalition_deviations(flat, coalition, |_, new_flat| {
                if new_flat == flat {
                    return true; // the non-deviation
                }
                let success = match variant {
                    ResilienceVariant::SomeMemberGains => coalition
                        .iter()
                        .any(|&p| game.payoff_by_index(p, new_flat) > snapshot[p] + EPSILON),
                    ResilienceVariant::AllMembersGain => coalition
                        .iter()
                        .all(|&p| game.payoff_by_index(p, new_flat) > snapshot[p] + EPSILON),
                };
                !success
            })
        })
    }

    /// Whether a deviator set of exactly `size ≥ 2` players can hurt some
    /// bystander at `flat`, reading baselines from the memoized
    /// `snapshot`.
    fn immunity_violation_at_size(&self, flat: usize, size: usize, snapshot: &[Utility]) -> bool {
        let game = self.game;
        let n = game.num_players();
        !try_for_each_subset_of_size(n, size, |deviators| {
            game.visit_coalition_deviations(flat, deviators, |_, new_flat| {
                if new_flat == flat {
                    return true;
                }
                for (victim, &before) in snapshot.iter().enumerate() {
                    if deviators.contains(&victim) {
                        continue;
                    }
                    if game.payoff_by_index(victim, new_flat) < before - EPSILON {
                        return false;
                    }
                }
                true
            })
        })
    }

    /// Size-1 immunity check: can one deviator hurt some bystander?
    fn unilateral_immunity_violation(&self, flat: usize, snapshot: &[Utility]) -> bool {
        let game = self.game;
        let n = game.num_players();
        for p in 0..n {
            let stride = game.strides()[p];
            let base = flat - game.action_at(flat, p) * stride;
            for a in 0..game.num_actions(p) {
                let new_flat = base + a * stride;
                if new_flat == flat {
                    continue;
                }
                for (victim, &before) in snapshot.iter().enumerate() {
                    if victim != p && game.payoff_by_index(victim, new_flat) < before - EPSILON {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Fills `snapshot` with the payoff vector of the profile at `flat`
    /// (the memoized read shared by every coalition examined for it).
    fn snapshot_into(&self, flat: usize, snapshot: &mut [Utility]) {
        for (p, slot) in snapshot.iter_mut().enumerate() {
            *slot = self.game.payoff_by_index(p, flat);
        }
    }

    /// Whether the profile at `flat` is k-resilient under `variant`.
    /// Agrees exactly with `bne_robust::resilience::is_k_resilient`.
    pub fn is_k_resilient(&self, flat: usize, k: usize, variant: ResilienceVariant) -> bool {
        if k == 0 {
            return true;
        }
        if self.unilateral_gain(flat) {
            return false; // refutes every k >= 1 at once
        }
        let n = self.game.num_players();
        if k == 1 || n < 2 {
            return true;
        }
        with_scratch::<Utility, bool>(n, |snapshot| {
            self.snapshot_into(flat, snapshot);
            (2..=k.min(n)).all(|size| !self.coalition_gain_at_size(flat, size, variant, snapshot))
        })
    }

    /// Whether the profile at `flat` is t-immune. Elimination is *not*
    /// sound for immunity (immune profiles need not be equilibria), so
    /// immunity sweeps always cover the full space; the oracle still
    /// supplies the memoized snapshot and incremental deviation walks.
    pub fn is_t_immune(&self, flat: usize, t: usize) -> bool {
        if t == 0 {
            return true;
        }
        let n = self.game.num_players();
        with_scratch::<Utility, bool>(n, |snapshot| {
            self.snapshot_into(flat, snapshot);
            if self.unilateral_immunity_violation(flat, snapshot) {
                return false;
            }
            (2..=t.min(n)).all(|size| !self.immunity_violation_at_size(flat, size, snapshot))
        })
    }

    /// Componentwise (k,t)-robustness: k-resilient (strong variant) and
    /// t-immune.
    pub fn is_robust(&self, flat: usize, k: usize, t: usize) -> bool {
        self.is_k_resilient(flat, k, ResilienceVariant::SomeMemberGains)
            && self.is_t_immune(flat, t)
    }

    /// Whether the profile at `flat` is a `p`-punishment strategy
    /// relative to the equilibrium payoffs in `base`: for every deviator
    /// set of size ≤ `p` and every joint deviation, **every** player ends
    /// strictly below `base`.
    pub fn is_punishment(&self, flat: usize, base: &[Utility], p: usize) -> bool {
        let game = self.game;
        let n = game.num_players();
        // D = ∅: the punishment profile itself must sit strictly below.
        if (0..n).any(|player| game.payoff_by_index(player, flat) >= base[player] - EPSILON) {
            return false;
        }
        if p == 0 {
            return true;
        }
        if let SearchStrategy::Pruned = self.strategy {
            // Reject certificate for size ≥ 1: a lone deviator reaches
            // their best-response payoff, which must stay below base.
            let tables = self.best_tables();
            if (0..n).any(|player| tables[player][flat] >= base[player] - EPSILON) {
                return false;
            }
        }
        let everyone_below = |at: usize| {
            (0..n).all(|player| game.payoff_by_index(player, at) < base[player] - EPSILON)
        };
        for size in 1..=p.min(n) {
            let complete = try_for_each_subset_of_size(n, size, |deviators| {
                game.visit_coalition_deviations(flat, deviators, |_, at| everyone_below(at))
            });
            if !complete {
                return false;
            }
        }
        true
    }

    // -----------------------------------------------------------------
    // Single-pass maximal classification
    // -----------------------------------------------------------------

    /// The largest `k ≤ max_k` for which the profile at `flat` is
    /// k-resilient, found in **one** pass over coalition sizes instead of
    /// re-running the full check once per `k` (resilience is monotone in
    /// `k`, so the answer is "one below the first failing size").
    pub fn max_resilience(&self, flat: usize, max_k: usize, variant: ResilienceVariant) -> usize {
        let n = self.game.num_players();
        let cap = max_k.min(n);
        if cap == 0 {
            return 0;
        }
        if self.unilateral_gain(flat) {
            return 0;
        }
        with_scratch::<Utility, usize>(n, |snapshot| {
            self.snapshot_into(flat, snapshot);
            for size in 2..=cap {
                if self.coalition_gain_at_size(flat, size, variant, snapshot) {
                    return size - 1;
                }
            }
            cap
        })
    }

    /// The largest `t ≤ max_t` for which the profile at `flat` is
    /// t-immune, in one pass over deviator-set sizes.
    pub fn max_immunity(&self, flat: usize, max_t: usize) -> usize {
        let n = self.game.num_players();
        let cap = max_t.min(n);
        if cap == 0 {
            return 0;
        }
        with_scratch::<Utility, usize>(n, |snapshot| {
            self.snapshot_into(flat, snapshot);
            if self.unilateral_immunity_violation(flat, snapshot) {
                return 0;
            }
            for size in 2..=cap {
                if self.immunity_violation_at_size(flat, size, snapshot) {
                    return size - 1;
                }
            }
            cap
        })
    }

    /// The pair `(max resilient k, max immune t)`, each single-pass.
    pub fn max_robustness(&self, flat: usize, max_k: usize, max_t: usize) -> (usize, usize) {
        (
            self.max_resilience(flat, max_k, ResilienceVariant::SomeMemberGains),
            self.max_immunity(flat, max_t),
        )
    }

    /// Answers a whole family of componentwise robustness queries in
    /// **one** scan: `result[i]` is exactly the [`Self::profiles`] sweep
    /// for [`Concept::Robust`] at `cells[i]`, but every profile is
    /// classified once (its maximal `k` and `t`, each single-pass) and
    /// matched against all cells, instead of re-sweeping the space and
    /// re-running the coalition searches once per `(k, t)` pair. When
    /// every cell has `k ≥ 1` the scan also runs over the pruned
    /// sub-box, and profiles with a unilateral gain skip the immunity
    /// scan entirely (no cell can match them).
    pub fn robust_frontier(&self, cells: &[(usize, usize)]) -> Vec<Vec<ActionProfile>> {
        if cells.is_empty() {
            return Vec::new();
        }
        let n = self.game.num_players();
        // is_k_resilient caps coalition sizes at n, so queries beyond n
        // coincide with k = n (same for t)
        let cells: Vec<(usize, usize)> = cells.iter().map(|&(k, t)| (k.min(n), t.min(n))).collect();
        let max_k = cells.iter().map(|&(k, _)| k).max().unwrap_or(0);
        let max_t = cells.iter().map(|&(_, t)| t).max().unwrap_or(0);
        let all_need_resilience = cells
            .iter()
            .all(|&(k, t)| Concept::Robust { k, t }.implies_nash());
        let mut out = vec![Vec::new(); cells.len()];
        let space = self.space(all_need_resilience);
        self.visit_range(space, 0..space.count, |flat| {
            let mk = self.max_resilience(flat, max_k, ResilienceVariant::SomeMemberGains);
            let mt = if mk == 0 && all_need_resilience {
                0 // unmatched everywhere: skip the immunity scan
            } else {
                self.max_immunity(flat, max_t)
            };
            for (slot, &(k, t)) in out.iter_mut().zip(cells.iter()) {
                if mk >= k && mt >= t {
                    slot.push(self.game.profile_at(flat));
                }
            }
        });
        out
    }

    // -----------------------------------------------------------------
    // Sweeps
    // -----------------------------------------------------------------

    /// Whether the profile at `flat` has `concept`.
    fn holds(&self, concept: &Concept, flat: usize) -> bool {
        match *concept {
            Concept::Nash => self.is_nash(flat),
            Concept::Resilient { k, variant } => self.is_k_resilient(flat, k, variant),
            Concept::Immune { t } => self.is_t_immune(flat, t),
            Concept::Robust { k, t } => self.is_robust(flat, k, t),
            Concept::Punishment { base, p } => self.is_punishment(flat, base, p),
        }
    }

    /// Every profile with `concept`, in flat order. Contiguous index
    /// ranges of the swept box run under the fan-out rule of
    /// [`crate::parallel`] and concatenate in index order, so the result
    /// is the same for any worker count. `workers` is `None` for the
    /// rule, or an exact worker count.
    pub fn profiles(&self, concept: &Concept, workers: Option<usize>) -> Vec<ActionProfile> {
        let space = self.space(concept.implies_nash());
        crate::parallel::collect_ranges(space.count, workers, |range| {
            let mut hits = Vec::new();
            self.visit_range(space, range, |flat| {
                if self.holds(concept, flat) {
                    hits.push(self.game.profile_at(flat));
                }
            });
            hits
        })
    }

    /// The profile with `concept` that has the lowest flat index, if any,
    /// whatever the thread timing. `workers` as in [`Self::profiles`].
    pub fn first_profile(
        &self,
        concept: &Concept,
        workers: Option<usize>,
    ) -> Option<ActionProfile> {
        let space = self.space(concept.implies_nash());
        // the lowest sub-box index is the lowest original flat index (the
        // map between them is strictly increasing)
        crate::parallel::find_first(space.count, workers, |idx| {
            self.holds(concept, self.flat_at(space, idx))
        })
        .map(|idx| self.game.profile_at(self.flat_at(space, idx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use crate::random::random_game;

    fn oracle_pair(game: &NormalFormGame) -> (DeviationOracle<'_>, DeviationOracle<'_>) {
        (
            DeviationOracle::new(game),
            DeviationOracle::with_strategy(game, SearchStrategy::Exhaustive),
        )
    }

    #[test]
    fn best_tables_match_direct_maximization() {
        let g = random_game(91, &[3, 2, 4]);
        let oracle = DeviationOracle::new(&g);
        for flat in 0..g.num_profiles() {
            for p in 0..g.num_players() {
                let (_, best) = g.best_unilateral_deviation_by_index(p, flat);
                assert_eq!(oracle.best_tables()[p][flat], best);
            }
            assert_eq!(oracle.is_nash(flat), g.is_pure_nash_by_index(flat));
        }
    }

    #[test]
    fn elimination_keeps_all_equilibrium_actions() {
        let pd = classic::prisoners_dilemma();
        let oracle = DeviationOracle::new(&pd);
        // cooperate is never a best response: only defect survives
        assert_eq!(oracle.pruned_space().actions, vec![vec![1], vec![1]]);
        assert_eq!(oracle.pruned_profile_count(), 1);
        assert_eq!(oracle.profiles(&Concept::Nash, None), vec![vec![1, 1]]);

        // matching pennies: nothing is eliminable
        let mp = classic::matching_pennies();
        let oracle = DeviationOracle::new(&mp);
        assert_eq!(oracle.pruned_profile_count(), mp.num_profiles());
        assert!(oracle.profiles(&Concept::Nash, None).is_empty());
    }

    #[test]
    fn pruned_visitor_walks_surviving_profiles_in_flat_order() {
        let g = random_game(17, &[3, 3, 2]);
        let oracle = DeviationOracle::new(&g);
        let space = oracle.pruned_space();
        let mut visited = Vec::new();
        oracle.visit_range(space, 0..space.count, |flat| visited.push(flat));
        let expected: Vec<usize> = (0..g.num_profiles())
            .filter(|&flat| {
                (0..g.num_players()).all(|p| space.actions[p].contains(&g.action_at(flat, p)))
            })
            .collect();
        assert_eq!(visited, expected);
        // chunked visits agree with the whole walk
        let mut chunked = Vec::new();
        for start in (0..space.count).step_by(3) {
            let end = (start + 3).min(space.count);
            oracle.visit_range(space, start..end, |flat| chunked.push(flat));
        }
        assert_eq!(chunked, visited);
        for (idx, &flat) in visited.iter().enumerate() {
            assert_eq!(oracle.flat_at(space, idx), flat);
        }
        // the full box walks every profile, and its index is the flat one
        let full = oracle.full_space();
        let mut all = Vec::new();
        oracle.visit_range(full, 0..full.count, |flat| all.push(flat));
        assert!(all.iter().copied().eq(0..g.num_profiles()));
        assert_eq!(oracle.flat_at(full, 7), 7);
    }

    #[test]
    fn pruned_and_exhaustive_sweeps_are_bit_identical() {
        for seed in [5u64, 6, 7] {
            let g = random_game(seed, &[3, 3, 2, 2]);
            let (pruned, exhaustive) = oracle_pair(&g);
            let mut concepts = vec![
                Concept::Nash,
                Concept::Immune { t: 1 },
                Concept::Immune { t: 2 },
            ];
            for k in 0..=3 {
                for variant in [
                    ResilienceVariant::SomeMemberGains,
                    ResilienceVariant::AllMembersGain,
                ] {
                    concepts.push(Concept::Resilient { k, variant });
                }
            }
            for (k, t) in [(0, 1), (1, 1), (2, 1), (1, 2)] {
                concepts.push(Concept::Robust { k, t });
            }
            for concept in &concepts {
                assert_eq!(
                    pruned.profiles(concept, None),
                    exhaustive.profiles(concept, None),
                    "seed {seed} {concept:?}"
                );
                assert_eq!(
                    pruned.first_profile(concept, None),
                    exhaustive.first_profile(concept, None),
                    "seed {seed} {concept:?}"
                );
            }
        }
    }

    #[test]
    fn robust_frontier_matches_per_cell_sweeps() {
        for seed in [31u64, 32] {
            let g = random_game(seed, &[3, 3, 2, 2]);
            let cells = [(1, 0), (2, 0), (1, 1), (2, 1), (0, 1), (9, 9)];
            for strategy in [SearchStrategy::Pruned, SearchStrategy::Exhaustive] {
                let oracle = DeviationOracle::with_strategy(&g, strategy);
                let frontier = oracle.robust_frontier(&cells);
                assert_eq!(frontier.len(), cells.len());
                for (i, &(k, t)) in cells.iter().enumerate() {
                    assert_eq!(
                        frontier[i],
                        oracle.profiles(&Concept::Robust { k, t }, None),
                        "seed {seed} cell ({k},{t})"
                    );
                }
            }
        }
        assert!(DeviationOracle::new(&random_game(1, &[2, 2]))
            .robust_frontier(&[])
            .is_empty());
    }

    #[test]
    fn punishment_predicate_matches_across_strategies() {
        let g = classic::bargaining_game(4);
        let base: Vec<f64> = (0..4).map(|p| g.payoff(p, &[0; 4])).collect();
        let (pruned, exhaustive) = oracle_pair(&g);
        for p in 0..=4 {
            let concept = Concept::Punishment { base: &base, p };
            assert_eq!(
                pruned.profiles(&concept, None),
                exhaustive.profiles(&concept, None),
                "p = {p}"
            );
        }
        // all-leave is a 3-punishment but not a 4-punishment strategy
        let all_leave_flat = g.profile_index(&[1; 4]);
        assert!(pruned.is_punishment(all_leave_flat, &base, 3));
        assert!(!pruned.is_punishment(all_leave_flat, &base, 4));
    }

    #[test]
    fn max_classification_is_single_pass_consistent() {
        for seed in [11u64, 12] {
            let g = random_game(seed, &[2, 3, 2]);
            let oracle = DeviationOracle::new(&g);
            let n = g.num_players();
            for flat in 0..g.num_profiles() {
                // reference: the per-k loop the single pass replaces
                let mut expect_k = 0;
                for k in 1..=n {
                    if oracle.is_k_resilient(flat, k, ResilienceVariant::SomeMemberGains) {
                        expect_k = k;
                    } else {
                        break;
                    }
                }
                let mut expect_t = 0;
                for t in 1..=n {
                    if oracle.is_t_immune(flat, t) {
                        expect_t = t;
                    } else {
                        break;
                    }
                }
                assert_eq!(
                    oracle.max_robustness(flat, n, n),
                    (expect_k, expect_t),
                    "seed {seed} flat {flat}"
                );
            }
        }
    }
}
