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
//! Pruning never changes results: elimination is only applied to
//! predicates that imply "no unilateral gain" (Nash and k-resilience with
//! `k ≥ 1`), every such profile survives elimination, and the surviving
//! sub-box is enumerated in ascending original flat order — so pruned
//! sweeps return **bit-identical** profile lists (same profiles, same
//! order) as the exhaustive ones. [`SearchStrategy::Exhaustive`] keeps
//! the unpruned path available as the property-test equality gate.
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
//! use bne_games::{DeviationOracle, ResilienceVariant};
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
//! assert!((0..4).filter(|&flat| oracle.is_nash(flat)).eq([dd]));
//! ```

use crate::normal_form::NormalFormGame;
use crate::profile::{index_to_profile, try_for_each_subset_of_size, with_scratch, ActionProfile};
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

/// The pruned sub-box: per-player surviving actions (original indices,
/// increasing) and the cached mixed-radix layout over them.
#[derive(Debug, Clone)]
struct PrunedSpace {
    /// Surviving actions per player, in increasing original order.
    surviving: Vec<Vec<ActionId>>,
    /// Radices of the pruned sub-box (`surviving[p].len()`).
    radices: Vec<usize>,
    /// Number of profiles in the pruned sub-box.
    count: usize,
    /// Rounds of elimination performed.
    rounds: usize,
}

/// The shared deviation-checking core. Borrows the game; every payoff
/// access is flat-index stride arithmetic on the original tensors.
#[derive(Debug)]
pub struct DeviationOracle<'g> {
    game: &'g NormalFormGame,
    strategy: SearchStrategy,
    /// `best[p][flat]`: lazily built best-response payoff tables.
    best: OnceLock<Vec<Vec<Utility>>>,
    /// Lazily computed pre-elimination result.
    pruned: OnceLock<PrunedSpace>,
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

    /// The best payoff `player` can reach from the profile at `flat` by a
    /// unilateral move (including not moving) — a table lookup.
    pub fn best_unilateral_payoff(&self, player: PlayerId, flat: usize) -> Utility {
        self.best_tables()[player][flat]
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
    fn pruned_space(&self) -> &PrunedSpace {
        self.pruned.get_or_init(|| {
            let game = self.game;
            let n = game.num_players();
            let strides = game.strides();
            let tables = self.best_tables();
            let mut surviving: Vec<Vec<ActionId>> =
                (0..n).map(|p| (0..game.num_actions(p)).collect()).collect();
            let mut rounds = 0;
            loop {
                let mut changed = false;
                for p in 0..n {
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
                rounds += 1;
            }
            let radices: Vec<usize> = surviving.iter().map(|s| s.len()).collect();
            let count = radices.iter().product();
            PrunedSpace {
                surviving,
                radices,
                count,
                rounds,
            }
        })
    }

    /// The surviving actions per player (original indices, increasing)
    /// after iterated never-best-response elimination.
    pub fn surviving_actions(&self) -> Vec<Vec<ActionId>> {
        self.pruned_space().surviving.clone()
    }

    /// Number of profiles in the pruned sub-box (equals
    /// `game.num_profiles()` when nothing could be eliminated).
    pub fn pruned_profile_count(&self) -> usize {
        self.pruned_space().count
    }

    /// Rounds of iterated elimination performed.
    pub fn elimination_rounds(&self) -> usize {
        self.pruned_space().rounds
    }

    /// Original flat index of the `idx`-th profile of the pruned sub-box
    /// (ascending in `idx` because survivor lists are increasing).
    fn pruned_to_flat(&self, idx: usize) -> usize {
        let space = self.pruned_space();
        let digits = index_to_profile(idx, &space.radices);
        digits
            .iter()
            .enumerate()
            .map(|(p, &d)| space.surviving[p][d] * self.game.strides()[p])
            .sum()
    }

    /// Visits the pruned sub-box over the contiguous pruned-index `range`
    /// as `f(original_flat)`, maintaining the original flat index with
    /// stride-delta updates (no per-step re-encoding). Returns `true`
    /// when the whole range was visited.
    fn visit_pruned_range<F: FnMut(usize) -> bool>(&self, range: Range<usize>, mut f: F) -> bool {
        if range.start >= range.end {
            return true;
        }
        let space = self.pruned_space();
        let strides = self.game.strides();
        let mut digits = index_to_profile(range.start, &space.radices);
        let mut flat = self.pruned_to_flat(range.start);
        for _ in range {
            if !f(flat) {
                return false;
            }
            // advance the pruned odometer, updating the original flat
            // index in place
            let mut i = digits.len();
            loop {
                if i == 0 {
                    return true; // wrapped: range end was the last profile
                }
                i -= 1;
                let s = &space.surviving[i];
                digits[i] += 1;
                if digits[i] < s.len() {
                    flat += (s[digits[i]] - s[digits[i] - 1]) * strides[i];
                    break;
                }
                flat -= (s[s.len() - 1] - s[0]) * strides[i];
                digits[i] = 0;
            }
        }
        true
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
    /// **one** scan: `result[i]` is exactly
    /// `robust_profiles(cells[i].0, cells[i].1)`, but every profile is
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
        let all_need_resilience = cells.iter().all(|&(k, _)| k >= 1);
        let mut out = vec![Vec::new(); cells.len()];
        let mut classify = |flat: usize| {
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
        };
        if self.prunes(all_need_resilience) {
            self.visit_pruned_range(0..self.pruned_profile_count(), |flat| {
                classify(flat);
                true
            });
        } else {
            self.game.visit_profiles(|_, flat| classify(flat));
        }
        out
    }

    // -----------------------------------------------------------------
    // Sweeps
    // -----------------------------------------------------------------

    /// Whether the pruned sub-box may replace the full space for this
    /// sweep: only for predicates that imply "no unilateral gain".
    fn prunes(&self, nash_implying: bool) -> bool {
        nash_implying && self.strategy == SearchStrategy::Pruned
    }

    /// Core collection sweep: all profiles satisfying `pred`, in original
    /// flat order. `nash_implying` marks predicates for which every
    /// satisfying profile is a Nash equilibrium, enabling elimination.
    fn collect<F: Fn(usize) -> bool>(&self, nash_implying: bool, pred: F) -> Vec<ActionProfile> {
        let mut out = Vec::new();
        if self.prunes(nash_implying) {
            self.visit_pruned_range(0..self.pruned_profile_count(), |flat| {
                if pred(flat) {
                    out.push(self.game.profile_at(flat));
                }
                true
            });
        } else {
            self.game.visit_profiles(|profile, flat| {
                if pred(flat) {
                    out.push(profile.to_vec());
                }
            });
        }
        out
    }

    /// Core first-witness sweep: the satisfying profile with the lowest
    /// original flat index, if any.
    fn first<F: Fn(usize) -> bool>(&self, nash_implying: bool, pred: F) -> Option<ActionProfile> {
        let mut found = None;
        if self.prunes(nash_implying) {
            self.visit_pruned_range(0..self.pruned_profile_count(), |flat| {
                if pred(flat) {
                    found = Some(self.game.profile_at(flat));
                    return false;
                }
                true
            });
        } else {
            self.game.visit_profiles_while(|profile, flat| {
                if pred(flat) {
                    found = Some(profile.to_vec());
                    return false;
                }
                true
            });
        }
        found
    }

    /// Parallel collection sweep with index-order concatenation —
    /// bit-identical to [`Self::collect`] for any worker count. `workers`
    /// as in [`crate::parallel::fan_out`]: `None` applies the fan-out
    /// rule, a count forces exactly that many workers.
    #[cfg(feature = "parallel")]
    fn collect_with_workers<F: Fn(usize) -> bool + Sync>(
        &self,
        nash_implying: bool,
        workers: impl Into<Option<usize>>,
        pred: F,
    ) -> Vec<ActionProfile> {
        let workers = workers.into();
        if self.prunes(nash_implying) {
            crate::parallel::collect_ranges(self.pruned_profile_count(), workers, |range| {
                let mut hits = Vec::new();
                self.visit_pruned_range(range, |flat| {
                    if pred(flat) {
                        hits.push(self.game.profile_at(flat));
                    }
                    true
                });
                hits
            })
        } else {
            crate::search::find_profiles_parallel(self.game, workers, pred)
        }
    }

    /// Parallel first-witness sweep with deterministic
    /// lowest-flat-index-wins semantics.
    #[cfg(feature = "parallel")]
    fn first_with_workers<F: Fn(usize) -> bool + Sync>(
        &self,
        nash_implying: bool,
        workers: impl Into<Option<usize>>,
        pred: F,
    ) -> Option<ActionProfile> {
        let workers = workers.into();
        if self.prunes(nash_implying) {
            // lowest pruned index == lowest original flat index (the
            // pruned→flat map is strictly increasing)
            crate::parallel::find_first(self.pruned_profile_count(), workers, |idx| {
                pred(self.pruned_to_flat(idx))
            })
            .map(|idx| self.game.profile_at(self.pruned_to_flat(idx)))
        } else {
            crate::search::first_profile_parallel(self.game, workers, pred)
        }
    }

    /// Every pure Nash equilibrium, in flat order.
    pub fn nash_profiles(&self) -> Vec<ActionProfile> {
        self.collect(true, |flat| self.is_nash(flat))
    }

    /// The pure Nash equilibrium with the lowest flat index, if any.
    pub fn first_nash(&self) -> Option<ActionProfile> {
        self.first(true, |flat| self.is_nash(flat))
    }

    /// Parallel form of [`Self::nash_profiles`]; bit-identical output.
    /// `workers` is an exact worker count, or `None` for the fan-out
    /// rule of [`crate::parallel`]; likewise for every `*_with_workers`
    /// sweep below.
    #[cfg(feature = "parallel")]
    pub fn nash_profiles_with_workers(
        &self,
        workers: impl Into<Option<usize>>,
    ) -> Vec<ActionProfile> {
        self.collect_with_workers(true, workers, |flat| self.is_nash(flat))
    }

    /// Parallel form of [`Self::first_nash`].
    #[cfg(feature = "parallel")]
    pub fn first_nash_with_workers(
        &self,
        workers: impl Into<Option<usize>>,
    ) -> Option<ActionProfile> {
        self.first_with_workers(true, workers, |flat| self.is_nash(flat))
    }

    /// Every k-resilient profile, in flat order. Pruned for `k ≥ 1`
    /// (k-resilience implies Nash); `k = 0` trivially accepts everything
    /// and sweeps the full space.
    pub fn k_resilient_profiles(&self, k: usize, variant: ResilienceVariant) -> Vec<ActionProfile> {
        self.collect(k >= 1, |flat| self.is_k_resilient(flat, k, variant))
    }

    /// The k-resilient profile with the lowest flat index, if any.
    pub fn first_k_resilient_profile(
        &self,
        k: usize,
        variant: ResilienceVariant,
    ) -> Option<ActionProfile> {
        self.first(k >= 1, |flat| self.is_k_resilient(flat, k, variant))
    }

    /// Parallel form of [`Self::k_resilient_profiles`].
    #[cfg(feature = "parallel")]
    pub fn k_resilient_profiles_with_workers(
        &self,
        k: usize,
        variant: ResilienceVariant,
        workers: impl Into<Option<usize>>,
    ) -> Vec<ActionProfile> {
        self.collect_with_workers(k >= 1, workers, |flat| {
            self.is_k_resilient(flat, k, variant)
        })
    }

    /// Parallel form of [`Self::first_k_resilient_profile`].
    #[cfg(feature = "parallel")]
    pub fn first_k_resilient_profile_with_workers(
        &self,
        k: usize,
        variant: ResilienceVariant,
        workers: impl Into<Option<usize>>,
    ) -> Option<ActionProfile> {
        self.first_with_workers(k >= 1, workers, |flat| {
            self.is_k_resilient(flat, k, variant)
        })
    }

    /// Every t-immune profile, in flat order (always the full space —
    /// elimination is unsound for immunity).
    pub fn t_immune_profiles(&self, t: usize) -> Vec<ActionProfile> {
        self.collect(false, |flat| self.is_t_immune(flat, t))
    }

    /// The t-immune profile with the lowest flat index, if any.
    pub fn first_t_immune_profile(&self, t: usize) -> Option<ActionProfile> {
        self.first(false, |flat| self.is_t_immune(flat, t))
    }

    /// Parallel form of [`Self::t_immune_profiles`].
    #[cfg(feature = "parallel")]
    pub fn t_immune_profiles_with_workers(
        &self,
        t: usize,
        workers: impl Into<Option<usize>>,
    ) -> Vec<ActionProfile> {
        self.collect_with_workers(false, workers, |flat| self.is_t_immune(flat, t))
    }

    /// Parallel form of [`Self::first_t_immune_profile`].
    #[cfg(feature = "parallel")]
    pub fn first_t_immune_profile_with_workers(
        &self,
        t: usize,
        workers: impl Into<Option<usize>>,
    ) -> Option<ActionProfile> {
        self.first_with_workers(false, workers, |flat| self.is_t_immune(flat, t))
    }

    /// Every (k,t)-robust profile (componentwise), in flat order. Pruned
    /// for `k ≥ 1`.
    pub fn robust_profiles(&self, k: usize, t: usize) -> Vec<ActionProfile> {
        self.collect(k >= 1, |flat| self.is_robust(flat, k, t))
    }

    /// The (k,t)-robust profile with the lowest flat index, if any.
    pub fn first_robust_profile(&self, k: usize, t: usize) -> Option<ActionProfile> {
        self.first(k >= 1, |flat| self.is_robust(flat, k, t))
    }

    /// Parallel form of [`Self::robust_profiles`].
    #[cfg(feature = "parallel")]
    pub fn robust_profiles_with_workers(
        &self,
        k: usize,
        t: usize,
        workers: impl Into<Option<usize>>,
    ) -> Vec<ActionProfile> {
        self.collect_with_workers(k >= 1, workers, |flat| self.is_robust(flat, k, t))
    }

    /// Parallel form of [`Self::first_robust_profile`].
    #[cfg(feature = "parallel")]
    pub fn first_robust_profile_with_workers(
        &self,
        k: usize,
        t: usize,
        workers: impl Into<Option<usize>>,
    ) -> Option<ActionProfile> {
        self.first_with_workers(k >= 1, workers, |flat| self.is_robust(flat, k, t))
    }

    /// Every `p`-punishment strategy relative to the payoffs in `base`,
    /// in flat order (always the full space — punishment profiles are
    /// deliberately bad and survive no elimination argument).
    pub fn punishment_profiles(&self, base: &[Utility], p: usize) -> Vec<ActionProfile> {
        self.collect(false, |flat| self.is_punishment(flat, base, p))
    }

    /// The `p`-punishment strategy with the lowest flat index, if any.
    pub fn first_punishment_profile(&self, base: &[Utility], p: usize) -> Option<ActionProfile> {
        self.first(false, |flat| self.is_punishment(flat, base, p))
    }

    /// Parallel form of [`Self::punishment_profiles`].
    #[cfg(feature = "parallel")]
    pub fn punishment_profiles_with_workers(
        &self,
        base: &[Utility],
        p: usize,
        workers: impl Into<Option<usize>>,
    ) -> Vec<ActionProfile> {
        self.collect_with_workers(false, workers, |flat| self.is_punishment(flat, base, p))
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
                assert_eq!(oracle.best_unilateral_payoff(p, flat), best);
            }
            assert_eq!(oracle.is_nash(flat), g.is_pure_nash_by_index(flat));
        }
    }

    #[test]
    fn elimination_keeps_all_equilibrium_actions() {
        let pd = classic::prisoners_dilemma();
        let oracle = DeviationOracle::new(&pd);
        // cooperate is never a best response: only defect survives
        assert_eq!(oracle.surviving_actions(), vec![vec![1], vec![1]]);
        assert_eq!(oracle.pruned_profile_count(), 1);
        assert!(oracle.elimination_rounds() >= 1);
        assert_eq!(oracle.nash_profiles(), vec![vec![1, 1]]);

        // matching pennies: nothing is eliminable
        let mp = classic::matching_pennies();
        let oracle = DeviationOracle::new(&mp);
        assert_eq!(oracle.pruned_profile_count(), mp.num_profiles());
        assert!(oracle.nash_profiles().is_empty());
    }

    #[test]
    fn pruned_visitor_walks_surviving_profiles_in_flat_order() {
        let g = random_game(17, &[3, 3, 2]);
        let oracle = DeviationOracle::new(&g);
        let surviving = oracle.surviving_actions();
        let mut visited = Vec::new();
        oracle.visit_pruned_range(0..oracle.pruned_profile_count(), |flat| {
            visited.push(flat);
            true
        });
        let expected: Vec<usize> = (0..g.num_profiles())
            .filter(|&flat| {
                (0..g.num_players()).all(|p| surviving[p].contains(&g.action_at(flat, p)))
            })
            .collect();
        assert_eq!(visited, expected);
        // chunked visits agree with the whole walk
        let total = oracle.pruned_profile_count();
        let mut chunked = Vec::new();
        for start in (0..total).step_by(3) {
            oracle.visit_pruned_range(start..(start + 3).min(total), |flat| {
                chunked.push(flat);
                true
            });
        }
        assert_eq!(chunked, visited);
        for (idx, &flat) in visited.iter().enumerate() {
            assert_eq!(oracle.pruned_to_flat(idx), flat);
        }
    }

    #[test]
    fn pruned_and_exhaustive_sweeps_are_bit_identical() {
        for seed in [5u64, 6, 7] {
            let g = random_game(seed, &[3, 3, 2, 2]);
            let (pruned, exhaustive) = oracle_pair(&g);
            assert_eq!(pruned.nash_profiles(), exhaustive.nash_profiles());
            assert_eq!(pruned.first_nash(), exhaustive.first_nash());
            for k in 0..=3 {
                for variant in [
                    ResilienceVariant::SomeMemberGains,
                    ResilienceVariant::AllMembersGain,
                ] {
                    assert_eq!(
                        pruned.k_resilient_profiles(k, variant),
                        exhaustive.k_resilient_profiles(k, variant),
                        "seed {seed} k {k}"
                    );
                }
            }
            for (k, t) in [(0, 1), (1, 1), (2, 1), (1, 2)] {
                assert_eq!(
                    pruned.robust_profiles(k, t),
                    exhaustive.robust_profiles(k, t),
                    "seed {seed} k {k} t {t}"
                );
                assert_eq!(
                    pruned.first_robust_profile(k, t),
                    exhaustive.first_robust_profile(k, t)
                );
            }
            for t in 1..=2 {
                assert_eq!(pruned.t_immune_profiles(t), exhaustive.t_immune_profiles(t));
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
                        oracle.robust_profiles(k, t),
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
            assert_eq!(
                pruned.punishment_profiles(&base, p),
                exhaustive.punishment_profiles(&base, p),
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

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_oracle_sweeps_are_bit_identical() {
        let g = random_game(23, &[3, 2, 3, 2]);
        let oracle = DeviationOracle::new(&g);
        for workers in [2, 4] {
            assert_eq!(
                oracle.nash_profiles(),
                oracle.nash_profiles_with_workers(workers)
            );
            assert_eq!(oracle.first_nash(), oracle.first_nash_with_workers(workers));
            assert_eq!(
                oracle.robust_profiles(2, 1),
                oracle.robust_profiles_with_workers(2, 1, workers)
            );
            assert_eq!(
                oracle.first_robust_profile(1, 1),
                oracle.first_robust_profile_with_workers(1, 1, workers)
            );
            assert_eq!(
                oracle.t_immune_profiles(2),
                oracle.t_immune_profiles_with_workers(2, workers)
            );
        }
    }
}
