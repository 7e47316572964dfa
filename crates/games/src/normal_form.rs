//! Normal-form (strategic-form) games with finitely many players and actions.
//!
//! Payoffs are stored densely: for each player a `Vec<f64>` indexed by the
//! flat profile index (see [`crate::profile::profile_to_index`]). This keeps
//! lookups allocation-free, which matters for the exhaustive coalition
//! searches in `bne-robust`.

use crate::error::GameError;
use crate::profile::{
    index_to_profile, profile_to_index, strides_for, visit_mixed_radix_range,
    visit_mixed_radix_while, ActionProfile, ProfileIter,
};
use crate::{ActionId, PlayerId, Utility, EPSILON};

/// A finite normal-form game.
///
/// # Examples
///
/// Building prisoner's dilemma and checking its payoffs:
///
/// ```
/// use bne_games::NormalFormGame;
///
/// let pd = bne_games::classic::prisoners_dilemma();
/// assert_eq!(pd.num_players(), 2);
/// // (Defect, Defect) gives both players -3 in the paper's table.
/// assert_eq!(pd.payoff(0, &[1, 1]), -3.0);
/// assert_eq!(pd.payoff(1, &[1, 1]), -3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NormalFormGame {
    name: String,
    /// Action labels per player; `actions[p].len()` is that player's action count.
    actions: Vec<Vec<String>>,
    /// Player labels.
    players: Vec<String>,
    /// Payoff tensors: `payoffs[p][flat_profile_index]`.
    payoffs: Vec<Vec<Utility>>,
    /// Cached radices (`actions[p].len()`).
    radices: Vec<usize>,
    /// Cached per-player strides of the odometer layout
    /// (`strides[p] = radices[p + 1] * ... * radices[n - 1]`), so flat
    /// indices can be manipulated without re-encoding profiles.
    strides: Vec<usize>,
}

impl NormalFormGame {
    /// Creates a game from explicit action labels and payoff tensors.
    ///
    /// `payoffs[p]` must have one entry per pure action profile, laid out in
    /// odometer order (player 0 slowest).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::EmptyGame`] if there are no players or a player
    /// has no actions, and [`GameError::DimensionMismatch`] if a payoff
    /// tensor has the wrong length.
    pub fn new(
        name: impl Into<String>,
        actions: Vec<Vec<String>>,
        payoffs: Vec<Vec<Utility>>,
    ) -> Result<Self, GameError> {
        if actions.is_empty() {
            return Err(GameError::EmptyGame {
                reason: "game has no players".to_string(),
            });
        }
        if let Some(p) = actions.iter().position(|a| a.is_empty()) {
            return Err(GameError::EmptyGame {
                reason: format!("player {p} has no actions"),
            });
        }
        if payoffs.len() != actions.len() {
            return Err(GameError::DimensionMismatch {
                expected: actions.len(),
                found: payoffs.len(),
            });
        }
        let radices: Vec<usize> = actions.iter().map(|a| a.len()).collect();
        let expected: usize = radices.iter().product();
        for table in &payoffs {
            if table.len() != expected {
                return Err(GameError::DimensionMismatch {
                    expected,
                    found: table.len(),
                });
            }
        }
        let players = (0..actions.len()).map(|i| format!("P{i}")).collect();
        let strides = strides_for(&radices);
        Ok(NormalFormGame {
            name: name.into(),
            actions,
            players,
            payoffs,
            radices,
            strides,
        })
    }

    /// Renames the players (cosmetic; used by the classic game zoo).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] if the number of names does
    /// not equal the number of players.
    pub fn with_player_names<S: Into<String>>(mut self, names: Vec<S>) -> Result<Self, GameError> {
        if names.len() != self.num_players() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_players(),
                found: names.len(),
            });
        }
        self.players = names.into_iter().map(Into::into).collect();
        Ok(self)
    }

    /// The game's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.actions.len()
    }

    /// Number of actions available to `player`.
    ///
    /// # Panics
    ///
    /// Panics if `player` is out of range.
    pub fn num_actions(&self, player: PlayerId) -> usize {
        self.radices[player]
    }

    /// Per-player action counts (the payoff tensor radices).
    pub fn action_counts(&self) -> &[usize] {
        &self.radices
    }

    /// Per-player strides of the dense payoff layout: a profile's flat
    /// index is `Σ profile[p] * strides()[p]` (player 0 slowest).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Label of `player`'s action `action`.
    pub fn action_label(&self, player: PlayerId, action: ActionId) -> &str {
        &self.actions[player][action]
    }

    /// Payoff to `player` under the pure `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile has the wrong length or contains an
    /// out-of-range action.
    pub fn payoff(&self, player: PlayerId, profile: &[ActionId]) -> Utility {
        self.payoffs[player][profile_to_index(profile, &self.radices)]
    }

    /// Payoff to `player` at a flat profile index — the allocation-free hot
    /// path used by every exhaustive search.
    ///
    /// # Panics
    ///
    /// Panics if `player` or `flat` is out of range.
    #[inline]
    pub fn payoff_by_index(&self, player: PlayerId, flat: usize) -> Utility {
        self.payoffs[player][flat]
    }

    /// The full payoff tensor of `player`, indexed by flat profile index.
    /// Handy for solvers that scan one player's payoffs linearly.
    pub fn payoff_table(&self, player: PlayerId) -> &[Utility] {
        &self.payoffs[player]
    }

    /// Payoffs to every player under `profile`.
    pub fn payoff_vector(&self, profile: &[ActionId]) -> Vec<Utility> {
        let idx = profile_to_index(profile, &self.radices);
        self.payoffs.iter().map(|t| t[idx]).collect()
    }

    /// The action `player` takes in the profile with flat index `flat`,
    /// recovered in O(1) from the stride layout.
    #[inline]
    pub fn action_at(&self, flat: usize, player: PlayerId) -> ActionId {
        (flat / self.strides[player]) % self.radices[player]
    }

    /// Flat index of the profile obtained from the profile at `flat` by
    /// switching `player` to `new_action`: O(1) stride arithmetic, no
    /// cloning or re-encoding.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `new_action` is in range; an out-of-range action
    /// silently corrupts the index in release builds, so callers validate.
    #[inline]
    pub fn deviate_index(&self, flat: usize, player: PlayerId, new_action: ActionId) -> usize {
        debug_assert!(new_action < self.radices[player]);
        let stride = self.strides[player];
        flat - self.action_at(flat, player) * stride + new_action * stride
    }

    /// Validates a player index.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::PlayerOutOfRange`] when out of range.
    pub fn validate_player(&self, player: PlayerId) -> Result<(), GameError> {
        if player >= self.num_players() {
            return Err(GameError::PlayerOutOfRange {
                player,
                num_players: self.num_players(),
            });
        }
        Ok(())
    }

    /// Validates a pure profile.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] for a wrong-length profile
    /// and [`GameError::ActionOutOfRange`] for an invalid action.
    pub fn validate_profile(&self, profile: &[ActionId]) -> Result<(), GameError> {
        if profile.len() != self.num_players() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_players(),
                found: profile.len(),
            });
        }
        for (p, &a) in profile.iter().enumerate() {
            if a >= self.radices[p] {
                return Err(GameError::ActionOutOfRange {
                    player: p,
                    action: a,
                    num_actions: self.radices[p],
                });
            }
        }
        Ok(())
    }

    /// Iterator over all pure action profiles.
    pub fn profiles(&self) -> ProfileIter {
        ProfileIter::new(&self.radices)
    }

    /// Number of pure action profiles.
    pub fn num_profiles(&self) -> usize {
        ProfileIter::count_profiles(&self.radices)
    }

    /// Calls `f(profile, flat)` for every pure profile, in odometer order,
    /// reusing a single buffer: no allocation per step.
    pub fn visit_profiles<F: FnMut(&[ActionId], usize)>(&self, mut f: F) {
        visit_mixed_radix_while(&self.radices, |p, flat| {
            f(p, flat);
            true
        });
    }

    /// Early-exit variant of [`Self::visit_profiles`]: stops when `f`
    /// returns `false`. Returns `true` when the sweep completed.
    pub fn visit_profiles_while<F: FnMut(&[ActionId], usize) -> bool>(&self, f: F) -> bool {
        visit_mixed_radix_while(&self.radices, f)
    }

    /// Visits the contiguous flat-index `range` of the profile space (the
    /// range primitive of the parallel sweeps). Stops early when
    /// `f` returns `false`; returns `true` when the chunk completed.
    pub fn visit_profiles_in<F: FnMut(&[ActionId], usize) -> bool>(
        &self,
        range: std::ops::Range<usize>,
        f: F,
    ) -> bool {
        visit_mixed_radix_range(&self.radices, range, f)
    }

    /// Visits the deviation neighborhood of the profile at `flat` for one
    /// `coalition` (player indices, increasing): every joint action of the
    /// coalition members, in odometer order over the coalition's action
    /// sets, as `f(deviation, new_flat)` where `deviation[i]` is the action
    /// of `coalition[i]` and `new_flat` is computed incrementally in O(1)
    /// per step. The identity assignment is visited too (it satisfies
    /// `new_flat == flat` — callers that need proper deviations skip it).
    /// Stops early when `f` returns `false`; returns `true` when the whole
    /// neighborhood was visited.
    ///
    /// This replaces the clone-profile-and-re-encode pattern the robustness
    /// searches used: the payoff tensor is addressed directly at `new_flat`.
    ///
    /// # Panics
    ///
    /// Panics if a coalition member is out of range.
    pub fn visit_coalition_deviations<F: FnMut(&[ActionId], usize) -> bool>(
        &self,
        flat: usize,
        coalition: &[PlayerId],
        mut f: F,
    ) -> bool {
        // This visitor runs once per coalition in the robustness searches,
        // so the odometer lives on the stack (see `with_scratch`).
        crate::profile::with_scratch::<usize, bool>(coalition.len(), |deviation| {
            // Start from the coalition playing all-zeros.
            let mut current = flat;
            for &p in coalition {
                current -= self.action_at(flat, p) * self.strides[p];
            }
            loop {
                if !f(deviation, current) {
                    return false;
                }
                // Advance the coalition odometer, updating `current` in
                // place.
                let mut i = coalition.len();
                loop {
                    if i == 0 {
                        return true;
                    }
                    i -= 1;
                    let p = coalition[i];
                    deviation[i] += 1;
                    if deviation[i] < self.radices[p] {
                        current += self.strides[p];
                        break;
                    }
                    current -= (self.radices[p] - 1) * self.strides[p];
                    deviation[i] = 0;
                }
            }
        })
    }

    /// The best payoff `player` can obtain by unilaterally deviating from
    /// `profile` (including not deviating), together with one action
    /// achieving it.
    pub fn best_unilateral_deviation(
        &self,
        player: PlayerId,
        profile: &[ActionId],
    ) -> (ActionId, Utility) {
        self.best_unilateral_deviation_by_index(player, profile_to_index(profile, &self.radices))
    }

    /// Index-based form of [`Self::best_unilateral_deviation`]: walks the
    /// player's stride through the payoff tensor, allocation-free.
    pub fn best_unilateral_deviation_by_index(
        &self,
        player: PlayerId,
        flat: usize,
    ) -> (ActionId, Utility) {
        let stride = self.strides[player];
        let base = flat - self.action_at(flat, player) * stride;
        let table = &self.payoffs[player];
        let mut best_action = 0;
        let mut best = Utility::NEG_INFINITY;
        for a in 0..self.radices[player] {
            let u = table[base + a * stride];
            if u > best {
                best = u;
                best_action = a;
            }
        }
        (best_action, best)
    }

    /// All pure best responses of `player` against the other players'
    /// actions in `profile` (the entry for `player` itself is ignored).
    pub fn pure_best_responses(&self, player: PlayerId, profile: &[ActionId]) -> Vec<ActionId> {
        self.pure_best_responses_by_index(player, profile_to_index(profile, &self.radices))
    }

    /// Index-based form of [`Self::pure_best_responses`] (the entry of
    /// `player` within `flat` is ignored). Allocates only the result.
    pub fn pure_best_responses_by_index(&self, player: PlayerId, flat: usize) -> Vec<ActionId> {
        let stride = self.strides[player];
        let base = flat - self.action_at(flat, player) * stride;
        let table = &self.payoffs[player];
        let mut best = Utility::NEG_INFINITY;
        let mut responses = Vec::new();
        for a in 0..self.radices[player] {
            let u = table[base + a * stride];
            if u > best + EPSILON {
                best = u;
                responses.clear();
                responses.push(a);
            } else if (u - best).abs() <= EPSILON {
                responses.push(a);
            }
        }
        responses
    }

    /// Whether `profile` is a pure Nash equilibrium: no player can gain more
    /// than [`EPSILON`] by a unilateral deviation.
    pub fn is_pure_nash(&self, profile: &[ActionId]) -> bool {
        self.is_pure_nash_by_index(profile_to_index(profile, &self.radices))
    }

    /// Index-based form of [`Self::is_pure_nash`]: zero allocation, pure
    /// stride arithmetic.
    pub fn is_pure_nash_by_index(&self, flat: usize) -> bool {
        (0..self.num_players()).all(|p| {
            let current = self.payoffs[p][flat];
            let (_, best) = self.best_unilateral_deviation_by_index(p, flat);
            best <= current + EPSILON
        })
    }

    /// Whether `profile` is Pareto optimal among pure profiles: there is no
    /// other pure profile that makes every player at least as well off and
    /// some player strictly better off.
    pub fn is_pareto_optimal(&self, profile: &[ActionId]) -> bool {
        let base_flat = profile_to_index(profile, &self.radices);
        let n = self.num_players();
        for other in 0..self.num_profiles() {
            if other == base_flat {
                continue;
            }
            let none_worse =
                (0..n).all(|p| self.payoffs[p][other] >= self.payoffs[p][base_flat] - EPSILON);
            let some_better =
                (0..n).any(|p| self.payoffs[p][other] > self.payoffs[p][base_flat] + EPSILON);
            if none_worse && some_better {
                return false;
            }
        }
        true
    }

    /// Whether action `a` strictly dominates action `b` for `player` (yields
    /// a strictly higher payoff against every opponent profile).
    pub fn strictly_dominates(&self, player: PlayerId, a: ActionId, b: ActionId) -> bool {
        self.dominates_inner(player, a, b, true)
    }

    /// Whether action `a` weakly dominates action `b` for `player` (never
    /// worse, and strictly better against at least one opponent profile).
    pub fn weakly_dominates(&self, player: PlayerId, a: ActionId, b: ActionId) -> bool {
        self.dominates_inner(player, a, b, false)
    }

    fn dominates_inner(&self, player: PlayerId, a: ActionId, b: ActionId, strict: bool) -> bool {
        if a == b {
            return false;
        }
        let stride = self.strides[player];
        let table = &self.payoffs[player];
        let mut some_strict = false;
        // Walk only the profiles where `player` plays 0 (each opponents'
        // context exactly once), then address actions a and b by stride.
        let complete = self.visit_profiles_while(|_, flat| {
            if self.action_at(flat, player) != 0 {
                return true;
            }
            let ua = table[flat + a * stride];
            let ub = table[flat + b * stride];
            if strict {
                ua > ub + EPSILON
            } else {
                if ua < ub - EPSILON {
                    return false;
                }
                if ua > ub + EPSILON {
                    some_strict = true;
                }
                true
            }
        });
        complete && (strict || some_strict)
    }

    /// Returns the zero-sum "column" payoffs check: true when, for every
    /// profile, the payoffs of all players sum to (approximately) zero.
    pub fn is_zero_sum(&self) -> bool {
        (0..self.num_profiles()).all(|flat| {
            let s: f64 = self.payoffs.iter().map(|t| t[flat]).sum();
            s.abs() <= 1e-6
        })
    }

    /// Returns a new game that is the restriction of this game to the given
    /// action subsets (used by iterated elimination of dominated strategies).
    ///
    /// `keep[p]` lists the actions of player `p` to keep, in increasing
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an error if any kept action is out of range or any player
    /// would be left with no actions.
    pub fn restrict(&self, keep: &[Vec<ActionId>]) -> Result<NormalFormGame, GameError> {
        if keep.len() != self.num_players() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_players(),
                found: keep.len(),
            });
        }
        for (p, ks) in keep.iter().enumerate() {
            if ks.is_empty() {
                return Err(GameError::EmptyGame {
                    reason: format!("restriction leaves player {p} with no actions"),
                });
            }
            for &a in ks {
                if a >= self.radices[p] {
                    return Err(GameError::ActionOutOfRange {
                        player: p,
                        action: a,
                        num_actions: self.radices[p],
                    });
                }
            }
        }
        let actions: Vec<Vec<String>> = keep
            .iter()
            .enumerate()
            .map(|(p, ks)| ks.iter().map(|&a| self.actions[p][a].clone()).collect())
            .collect();
        let new_radices: Vec<usize> = keep.iter().map(|k| k.len()).collect();
        let mut payoffs: Vec<Vec<Utility>> =
            vec![Vec::with_capacity(new_radices.iter().product()); self.num_players()];
        for new_profile in ProfileIter::new(&new_radices) {
            let old_profile: Vec<ActionId> = new_profile
                .iter()
                .enumerate()
                .map(|(p, &a)| keep[p][a])
                .collect();
            for (p, table) in payoffs.iter_mut().enumerate() {
                table.push(self.payoff(p, &old_profile));
            }
        }
        NormalFormGame::new(format!("{} (restricted)", self.name), actions, payoffs)
    }

    /// Flat index of a profile (exposed for solvers that want to cache
    /// per-profile data).
    pub fn profile_index(&self, profile: &[ActionId]) -> usize {
        profile_to_index(profile, &self.radices)
    }

    /// Profile corresponding to a flat index.
    pub fn profile_at(&self, index: usize) -> ActionProfile {
        index_to_profile(index, &self.radices)
    }
}

/// Incremental builder for [`NormalFormGame`].
///
/// # Examples
///
/// ```
/// use bne_games::NormalFormBuilder;
///
/// let game = NormalFormBuilder::new("matching pennies")
///     .player("Even", &["Heads", "Tails"])
///     .player("Odd", &["Heads", "Tails"])
///     .payoff(&[0, 0], &[1.0, -1.0])
///     .payoff(&[0, 1], &[-1.0, 1.0])
///     .payoff(&[1, 0], &[-1.0, 1.0])
///     .payoff(&[1, 1], &[1.0, -1.0])
///     .build()
///     .unwrap();
/// assert!(game.is_zero_sum());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NormalFormBuilder {
    name: String,
    players: Vec<String>,
    actions: Vec<Vec<String>>,
    entries: Vec<(ActionProfile, Vec<Utility>)>,
    default_payoff: Utility,
}

impl NormalFormBuilder {
    /// Starts a builder for a game with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NormalFormBuilder {
            name: name.into(),
            players: Vec::new(),
            actions: Vec::new(),
            entries: Vec::new(),
            default_payoff: 0.0,
        }
    }

    /// Adds a player with the given label and action labels.
    pub fn player(mut self, label: impl Into<String>, actions: &[&str]) -> Self {
        self.players.push(label.into());
        self.actions
            .push(actions.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Sets the payoff vector for one pure profile. Later calls override
    /// earlier ones for the same profile.
    pub fn payoff(mut self, profile: &[ActionId], payoffs: &[Utility]) -> Self {
        self.entries.push((profile.to_vec(), payoffs.to_vec()));
        self
    }

    /// Sets the payoff assigned to profiles not mentioned via
    /// [`Self::payoff`] (defaults to `0.0` for all players).
    pub fn default_payoff(mut self, value: Utility) -> Self {
        self.default_payoff = value;
        self
    }

    /// Builds the game.
    ///
    /// # Errors
    ///
    /// Returns an error if the structure is empty, a payoff entry refers to
    /// an invalid profile, or a payoff vector has the wrong length.
    pub fn build(self) -> Result<NormalFormGame, GameError> {
        if self.actions.is_empty() {
            return Err(GameError::EmptyGame {
                reason: "builder has no players".to_string(),
            });
        }
        let radices: Vec<usize> = self.actions.iter().map(|a| a.len()).collect();
        if let Some(p) = radices.iter().position(|&r| r == 0) {
            return Err(GameError::EmptyGame {
                reason: format!("player {p} has no actions"),
            });
        }
        let n = self.actions.len();
        let total: usize = radices.iter().product();
        let mut payoffs = vec![vec![self.default_payoff; total]; n];
        for (profile, vec) in &self.entries {
            if profile.len() != n {
                return Err(GameError::DimensionMismatch {
                    expected: n,
                    found: profile.len(),
                });
            }
            for (p, &a) in profile.iter().enumerate() {
                if a >= radices[p] {
                    return Err(GameError::ActionOutOfRange {
                        player: p,
                        action: a,
                        num_actions: radices[p],
                    });
                }
            }
            if vec.len() != n {
                return Err(GameError::DimensionMismatch {
                    expected: n,
                    found: vec.len(),
                });
            }
            let idx = profile_to_index(profile, &radices);
            for (p, &u) in vec.iter().enumerate() {
                payoffs[p][idx] = u;
            }
        }
        let game = NormalFormGame::new(self.name, self.actions, payoffs)?;
        game.with_player_names(self.players)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;

    #[test]
    fn builder_and_payoff_lookup() {
        let g = NormalFormBuilder::new("test")
            .player("A", &["x", "y"])
            .player("B", &["l", "m", "r"])
            .payoff(&[0, 2], &[5.0, -1.0])
            .default_payoff(1.0)
            .build()
            .unwrap();
        assert_eq!(g.num_players(), 2);
        assert_eq!(g.num_actions(1), 3);
        assert_eq!(g.payoff(0, &[0, 2]), 5.0);
        assert_eq!(g.payoff(1, &[0, 2]), -1.0);
        assert_eq!(g.payoff(0, &[1, 1]), 1.0);
        assert_eq!(g.action_label(1, 2), "r");
    }

    #[test]
    fn builder_rejects_bad_profiles() {
        let res = NormalFormBuilder::new("bad")
            .player("A", &["x"])
            .payoff(&[3], &[1.0])
            .build();
        assert!(matches!(res, Err(GameError::ActionOutOfRange { .. })));

        let res = NormalFormBuilder::new("bad2")
            .player("A", &["x"])
            .payoff(&[0, 0], &[1.0])
            .build();
        assert!(matches!(res, Err(GameError::DimensionMismatch { .. })));
    }

    #[test]
    fn new_rejects_wrong_tensor_length() {
        let res = NormalFormGame::new(
            "bad",
            vec![vec!["a".into(), "b".into()]],
            vec![vec![1.0, 2.0, 3.0]],
        );
        assert!(matches!(res, Err(GameError::DimensionMismatch { .. })));
    }

    #[test]
    fn pd_nash_and_dominance() {
        let pd = classic::prisoners_dilemma();
        // Defect strictly dominates cooperate for both players.
        assert!(pd.strictly_dominates(0, 1, 0));
        assert!(pd.strictly_dominates(1, 1, 0));
        assert!(!pd.strictly_dominates(0, 0, 1));
        // (D, D) is the unique pure Nash equilibrium.
        assert!(pd.is_pure_nash(&[1, 1]));
        assert!(!pd.is_pure_nash(&[0, 0]));
        assert!(!pd.is_pure_nash(&[0, 1]));
        // (C, C) Pareto-dominates (D, D).
        assert!(pd.is_pareto_optimal(&[0, 0]));
        assert!(!pd.is_pareto_optimal(&[1, 1]));
    }

    #[test]
    fn best_responses_in_matching_pennies() {
        let g = classic::matching_pennies();
        assert_eq!(g.pure_best_responses(0, &[0, 0]), vec![0]);
        assert_eq!(g.pure_best_responses(1, &[0, 0]), vec![1]);
        assert!(g.is_zero_sum());
    }

    #[test]
    fn restriction_removes_dominated_action() {
        let pd = classic::prisoners_dilemma();
        let restricted = pd.restrict(&[vec![1], vec![1]]).unwrap();
        assert_eq!(restricted.num_profiles(), 1);
        assert_eq!(restricted.payoff(0, &[0, 0]), -3.0);
        // leaving a player with nothing is an error
        assert!(pd.restrict(&[vec![], vec![0]]).is_err());
    }

    #[test]
    fn weak_dominance_detected() {
        // action 0 weakly dominates action 1 for player 0:
        // equal against opponent 0, strictly better against opponent 1.
        let g = NormalFormBuilder::new("weak")
            .player("A", &["top", "bottom"])
            .player("B", &["left", "right"])
            .payoff(&[0, 0], &[1.0, 0.0])
            .payoff(&[1, 0], &[1.0, 0.0])
            .payoff(&[0, 1], &[2.0, 0.0])
            .payoff(&[1, 1], &[0.0, 0.0])
            .build()
            .unwrap();
        assert!(g.weakly_dominates(0, 0, 1));
        assert!(!g.strictly_dominates(0, 0, 1));
        assert!(!g.weakly_dominates(0, 1, 0));
    }

    #[test]
    fn social_welfare_and_profile_index_roundtrip() {
        let pd = classic::prisoners_dilemma();
        let welfare: f64 = (0..2).map(|p| pd.payoff(p, &[0, 0])).sum();
        assert_eq!(welfare, 6.0);
        for p in pd.profiles() {
            assert_eq!(pd.profile_at(pd.profile_index(&p)), p);
        }
    }

    #[test]
    fn index_accessors_agree_with_profile_accessors() {
        let g = crate::random::random_game(11, &[2, 3, 4]);
        for (flat, profile) in g.profiles().enumerate() {
            assert_eq!(g.profile_index(&profile), flat);
            for p in 0..g.num_players() {
                assert_eq!(g.action_at(flat, p), profile[p]);
                assert_eq!(g.payoff_by_index(p, flat), g.payoff(p, &profile));
                assert_eq!(g.payoff_table(p)[flat], g.payoff(p, &profile));
                assert_eq!(g.is_pure_nash_by_index(flat), g.is_pure_nash(&profile),);
                for a in 0..g.num_actions(p) {
                    let mut cloned = profile.clone();
                    cloned[p] = a;
                    assert_eq!(g.deviate_index(flat, p, a), g.profile_index(&cloned));
                }
            }
        }
    }

    #[test]
    fn visit_profiles_matches_iterator() {
        let g = crate::random::random_game(3, &[3, 2, 2]);
        let mut visited = Vec::new();
        g.visit_profiles(|p, flat| visited.push((p.to_vec(), flat)));
        let expected: Vec<_> = g.profiles().enumerate().map(|(i, p)| (p, i)).collect();
        assert_eq!(visited, expected);

        let mut halves = Vec::new();
        let mid = g.num_profiles() / 2;
        g.visit_profiles_in(0..mid, |p, flat| {
            halves.push((p.to_vec(), flat));
            true
        });
        g.visit_profiles_in(mid..g.num_profiles(), |p, flat| {
            halves.push((p.to_vec(), flat));
            true
        });
        assert_eq!(halves, expected);
    }

    #[test]
    fn coalition_deviation_visitor_matches_clone_and_reencode() {
        let g = crate::random::random_game(5, &[2, 3, 2, 2]);
        let base = vec![1, 2, 0, 1];
        let flat = g.profile_index(&base);
        for coalition in [vec![0], vec![1, 3], vec![0, 1, 2], vec![0, 1, 2, 3]] {
            let mut visited = Vec::new();
            g.visit_coalition_deviations(flat, &coalition, |dev, new_flat| {
                visited.push((dev.to_vec(), new_flat));
                true
            });
            // reference: enumerate the coalition's joint actions the old way
            let radices: Vec<usize> = coalition.iter().map(|&p| g.num_actions(p)).collect();
            let expected: Vec<_> = ProfileIter::new(&radices)
                .map(|dev| {
                    let mut cloned = base.clone();
                    for (&p, &a) in coalition.iter().zip(dev.iter()) {
                        cloned[p] = a;
                    }
                    (dev, g.profile_index(&cloned))
                })
                .collect();
            assert_eq!(visited, expected);
            // the identity assignment maps back to the base flat index
            assert!(visited.iter().any(|(_, f)| *f == flat));
        }
    }

    #[test]
    fn coalition_deviation_visitor_early_exit() {
        let g = crate::random::random_game(5, &[2, 2]);
        let mut count = 0;
        let complete = g.visit_coalition_deviations(0, &[0, 1], |_, _| {
            count += 1;
            count < 2
        });
        assert!(!complete);
        assert_eq!(count, 2);
    }

    #[test]
    fn best_response_index_forms_agree() {
        let g = crate::random::random_game(17, &[3, 3, 2]);
        for (flat, profile) in g.profiles().enumerate() {
            for p in 0..g.num_players() {
                assert_eq!(
                    g.best_unilateral_deviation_by_index(p, flat),
                    g.best_unilateral_deviation(p, &profile)
                );
                assert_eq!(
                    g.pure_best_responses_by_index(p, flat),
                    g.pure_best_responses(p, &profile)
                );
            }
        }
    }
}
