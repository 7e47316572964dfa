//! Payoff backends: the query surface the sampled deviation oracle runs
//! against, decoupled from the dense payoff tensor.
//!
//! The exhaustive [`crate::DeviationOracle`] is married to
//! [`NormalFormGame`]'s dense representation — memory `O(n · ∏ actions)` —
//! which caps it at toy profile spaces. The paper's heavy-traffic story
//! (scrip economies, p2p networks) needs games with *millions* of players,
//! where even writing down one payoff tensor is impossible. The
//! [`PayoffBackend`] trait abstracts the only operation the sampled audits
//! need: "what does player `p` earn at this profile?" — asked through a
//! [`ProfileView`], a base profile plus a sparse list of deviations, so a
//! query never materializes a mutated copy of a million-entry profile.
//!
//! Two backends live here:
//!
//! * [`DenseBackend`] — wraps a [`NormalFormGame`]; every query is the
//!   usual stride arithmetic. This is the bridge that lets the sampled
//!   oracle be property-tested against the exhaustive one on small games.
//! * [`LocalBackend`] — a *utility-locality* (graphical-game)
//!   representation: each player's payoff depends only on a bounded
//!   neighborhood of players, stored as one small table per player.
//!   Memory is `O(players · a^d)` for neighborhoods of size `d` — linear
//!   in players — instead of `O(players · a^players)` dense, and a payoff
//!   query touches `d` profile entries, never a dense structure.
//!
//! Simulation-driven backends (the million-agent scrip economy in
//! `bne-scrip`) implement [`PayoffBackend`] outside this crate.

use crate::normal_form::NormalFormGame;
use crate::{ActionId, PlayerId, Utility};
use std::sync::OnceLock;

/// A profile expressed as a shared base assignment plus a sparse list of
/// overrides — the natural shape of a deviation query. Reading an action
/// is `O(overrides)` (the override list is a handful of deviators), and no
/// mutated copy of the base is ever materialized, which is what makes
/// deviation queries on million-player games cheap.
#[derive(Debug, Clone, Copy)]
pub struct ProfileView<'a> {
    base: &'a [ActionId],
    overrides: &'a [(PlayerId, ActionId)],
}

impl<'a> ProfileView<'a> {
    /// A view of `base` with `overrides` applied. Overrides replace the
    /// base entry for their player; players listed twice take the first
    /// listed value (the audits never emit duplicates).
    pub fn new(base: &'a [ActionId], overrides: &'a [(PlayerId, ActionId)]) -> Self {
        ProfileView { base, overrides }
    }

    /// The base profile without overrides.
    pub fn of_base(base: &'a [ActionId]) -> Self {
        ProfileView {
            base,
            overrides: &[],
        }
    }

    /// Number of players in the profile.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the profile is empty (zero players).
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// The action player `p` takes under this view.
    pub fn action(&self, p: PlayerId) -> ActionId {
        for &(q, a) in self.overrides {
            if q == p {
                return a;
            }
        }
        self.base[p]
    }

    /// The sparse override list.
    pub fn overrides(&self) -> &'a [(PlayerId, ActionId)] {
        self.overrides
    }

    /// The underlying base profile.
    pub fn base(&self) -> &'a [ActionId] {
        self.base
    }
}

/// A source of payoff queries for the sampled deviation audits.
///
/// Implementations must be deterministic: the same view must always
/// return the same utility (stochastic backends fix their seeds at
/// construction — common random numbers across queries), which is what
/// makes sampled certificates reproducible and the sequential/parallel
/// audits bit-identical.
pub trait PayoffBackend {
    /// Number of players.
    fn num_players(&self) -> usize;

    /// Number of actions available to `player`.
    fn num_actions(&self, player: PlayerId) -> usize;

    /// Player `player`'s payoff at the profile described by `view`.
    fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility;

    /// A priori payoff bounds `(lo, hi)`: every payoff of every player
    /// lies in `[lo, hi]`. Used for the Hoeffding confidence radius of
    /// sampled certificates; the tighter the bound, the stronger the
    /// certificate.
    fn payoff_bounds(&self) -> (Utility, Utility);

    /// Fills `out[p]` with every player's payoff at `view`. Backends
    /// whose evaluation naturally produces all payoffs at once (one
    /// simulation run of an economy) override this to avoid `n` separate
    /// evaluations.
    fn payoffs_into(&self, view: &ProfileView<'_>, out: &mut [Utility]) {
        for (p, slot) in out.iter_mut().enumerate() {
            *slot = self.payoff(p, view);
        }
    }

    /// The players whose actions player `player`'s payoff can depend on,
    /// if the backend knows a bounded neighborhood; `None` means "possibly
    /// everyone". Purely advisory (diagnostics and tests).
    fn neighborhood(&self, player: PlayerId) -> Option<&[PlayerId]> {
        let _ = player;
        None
    }
}

/// The dense tensor as a [`PayoffBackend`]: stride arithmetic over the
/// wrapped [`NormalFormGame`]. Payoff bounds are scanned lazily (once)
/// over the tensors.
#[derive(Debug)]
pub struct DenseBackend<'g> {
    game: &'g NormalFormGame,
    bounds: OnceLock<(Utility, Utility)>,
}

impl<'g> DenseBackend<'g> {
    /// Wraps a dense game.
    pub fn new(game: &'g NormalFormGame) -> Self {
        DenseBackend {
            game,
            bounds: OnceLock::new(),
        }
    }

    /// The wrapped game.
    pub fn game(&self) -> &'g NormalFormGame {
        self.game
    }

    fn flat_of(&self, view: &ProfileView<'_>) -> usize {
        let strides = self.game.strides();
        let mut flat = 0;
        for (p, &stride) in strides.iter().enumerate() {
            flat += view.action(p) * stride;
        }
        flat
    }
}

impl PayoffBackend for DenseBackend<'_> {
    fn num_players(&self) -> usize {
        self.game.num_players()
    }

    fn num_actions(&self, player: PlayerId) -> usize {
        self.game.num_actions(player)
    }

    fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
        self.game.payoff_by_index(player, self.flat_of(view))
    }

    fn payoff_bounds(&self) -> (Utility, Utility) {
        *self.bounds.get_or_init(|| {
            let mut lo = Utility::INFINITY;
            let mut hi = Utility::NEG_INFINITY;
            for p in 0..self.game.num_players() {
                for &u in self.game.payoff_table(p) {
                    lo = lo.min(u);
                    hi = hi.max(u);
                }
            }
            if lo > hi {
                (0.0, 0.0)
            } else {
                (lo, hi)
            }
        })
    }
}

/// One player of a [`LocalBackend`]: a neighborhood and a payoff table
/// over the neighborhood's joint action sub-box.
#[derive(Debug, Clone)]
struct LocalPlayer {
    /// The players this player's payoff reads (always includes the player
    /// itself), in increasing order.
    neighbors: Vec<PlayerId>,
    /// Mixed-radix strides over `neighbors` (matching their order).
    strides: Vec<usize>,
    /// Payoff over the neighborhood sub-box, indexed by
    /// `Σ action(neighbors[i]) · strides[i]`.
    table: Vec<Utility>,
}

/// A utility-locality (graphical) game: each player's payoff depends only
/// on a bounded neighborhood of the profile. Memory is the sum of the
/// per-player neighborhood tables — `O(players · a^d)` for degree-`d`
/// neighborhoods — so million-player games with small neighborhoods fit
/// comfortably where the dense tensor (`O(players · a^players)` entries)
/// could not even be allocated. A payoff query reads `d` profile entries
/// and one table cell; no dense structure exists to touch.
#[derive(Debug, Clone)]
pub struct LocalBackend {
    action_counts: Vec<usize>,
    players: Vec<LocalPlayer>,
    bounds: (Utility, Utility),
}

impl LocalBackend {
    /// Builds a utility-locality game from per-player neighborhoods and a
    /// payoff function over the neighborhood's joint actions:
    /// `payoff(p, local_actions)` receives the actions of `p`'s
    /// neighborhood in the order given by `neighborhoods[p]` (each
    /// neighborhood must contain `p` itself; entries are deduplicated and
    /// sorted). The function is tabulated once per player.
    ///
    /// # Panics
    ///
    /// Panics if `action_counts` is empty or contains a zero, if
    /// `neighborhoods` has a different length, if a neighborhood names an
    /// out-of-range player, or if a neighborhood omits its own player.
    pub fn from_fn<F>(action_counts: &[usize], neighborhoods: &[Vec<PlayerId>], payoff: F) -> Self
    where
        F: Fn(PlayerId, &[ActionId]) -> Utility,
    {
        let n = action_counts.len();
        assert!(n > 0, "utility-locality games need at least one player");
        assert!(
            action_counts.iter().all(|&a| a > 0),
            "every player needs at least one action"
        );
        assert_eq!(
            neighborhoods.len(),
            n,
            "one neighborhood per player required"
        );
        let mut lo = Utility::INFINITY;
        let mut hi = Utility::NEG_INFINITY;
        let mut players = Vec::with_capacity(n);
        for (p, raw) in neighborhoods.iter().enumerate() {
            let mut neighbors = raw.clone();
            neighbors.sort_unstable();
            neighbors.dedup();
            assert!(
                neighbors.iter().all(|&q| q < n),
                "neighborhood of player {p} names an out-of-range player"
            );
            assert!(
                neighbors.contains(&p),
                "neighborhood of player {p} must contain the player itself"
            );
            // local mixed-radix layout over the neighborhood
            let mut strides = vec![0usize; neighbors.len()];
            let mut acc = 1usize;
            for (i, &q) in neighbors.iter().enumerate().rev() {
                strides[i] = acc;
                acc *= action_counts[q];
            }
            let mut table = Vec::with_capacity(acc);
            let mut local = vec![0usize; neighbors.len()];
            loop {
                let u = payoff(p, &local);
                lo = lo.min(u);
                hi = hi.max(u);
                table.push(u);
                // odometer over the neighborhood sub-box
                let mut i = local.len();
                loop {
                    if i == 0 {
                        break;
                    }
                    i -= 1;
                    local[i] += 1;
                    if local[i] < action_counts[neighbors[i]] {
                        break;
                    }
                    local[i] = 0;
                }
                if local.iter().all(|&a| a == 0) {
                    break;
                }
            }
            debug_assert_eq!(table.len(), acc);
            players.push(LocalPlayer {
                neighbors,
                strides,
                table,
            });
        }
        LocalBackend {
            action_counts: action_counts.to_vec(),
            players,
            bounds: (lo.min(hi), hi.max(lo)),
        }
    }

    /// A ring-lattice utility-locality game: player `p`'s neighborhood is
    /// `p − radius ..= p + radius` (mod `n`, clamped to distinct players),
    /// every player has `actions` actions, and payoffs come from `payoff`
    /// as in [`LocalBackend::from_fn`]. The standard large-but-sparse
    /// shape used by the benches and tests.
    pub fn ring<F>(n: usize, actions: usize, radius: usize, payoff: F) -> Self
    where
        F: Fn(PlayerId, &[ActionId]) -> Utility,
    {
        let neighborhoods: Vec<Vec<PlayerId>> = (0..n)
            .map(|p| {
                let mut nb: Vec<PlayerId> =
                    (0..=2 * radius).map(|i| (p + n + i - radius) % n).collect();
                nb.sort_unstable();
                nb.dedup();
                nb
            })
            .collect();
        Self::from_fn(&vec![actions; n], &neighborhoods, payoff)
    }

    /// Materializes the equivalent dense [`NormalFormGame`]. Only
    /// feasible for small games; the property tests use it to check local
    /// and dense queries agree.
    ///
    /// # Panics
    ///
    /// Panics if the dense profile space exceeds `2^24` profiles.
    pub fn to_dense(&self) -> NormalFormGame {
        let total: usize = self.action_counts.iter().product();
        assert!(
            total <= 1 << 24,
            "refusing to densify a game with {total} profiles"
        );
        let actions: Vec<Vec<String>> = self
            .action_counts
            .iter()
            .map(|&r| (0..r).map(|a| format!("a{a}")).collect())
            .collect();
        let n = self.action_counts.len();
        let mut payoffs = vec![vec![0.0; total]; n];
        let mut profile = vec![0usize; n];
        for flat in 0..total {
            let view = ProfileView::of_base(&profile);
            for (p, table) in payoffs.iter_mut().enumerate() {
                table[flat] = self.payoff(p, &view);
            }
            // advance the odometer (least-significant = last player,
            // matching the dense stride layout)
            let mut i = n;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                profile[i] += 1;
                if profile[i] < self.action_counts[i] {
                    break;
                }
                profile[i] = 0;
            }
        }
        NormalFormGame::new("densified local game".to_string(), actions, payoffs)
            .expect("locality tables produce well-formed tensors")
    }
}

impl PayoffBackend for LocalBackend {
    fn num_players(&self) -> usize {
        self.action_counts.len()
    }

    fn num_actions(&self, player: PlayerId) -> usize {
        self.action_counts[player]
    }

    fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
        let lp = &self.players[player];
        let mut idx = 0usize;
        for (&q, &stride) in lp.neighbors.iter().zip(lp.strides.iter()) {
            idx += view.action(q) * stride;
        }
        lp.table[idx]
    }

    fn payoff_bounds(&self) -> (Utility, Utility) {
        self.bounds
    }

    fn neighborhood(&self, player: PlayerId) -> Option<&[PlayerId]> {
        Some(&self.players[player].neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_game;

    /// Total payoff-table entries across all players: the locality
    /// tables' memory, against `players · ∏ actions` for a dense tensor.
    fn table_entries(local: &LocalBackend) -> usize {
        local.players.iter().map(|p| p.table.len()).sum()
    }

    #[test]
    fn profile_view_applies_overrides() {
        let base = [0usize, 1, 2];
        let overrides = [(1usize, 4usize)];
        let view = ProfileView::new(&base, &overrides);
        assert_eq!(view.len(), 3);
        assert_eq!(view.action(0), 0);
        assert_eq!(view.action(1), 4);
        assert_eq!(view.action(2), 2);
        let plain = ProfileView::of_base(&base);
        assert_eq!(plain.action(1), 1);
    }

    #[test]
    fn dense_backend_matches_direct_payoffs() {
        let g = random_game(41, &[3, 2, 4]);
        let backend = DenseBackend::new(&g);
        assert_eq!(backend.num_players(), 3);
        assert_eq!(backend.num_actions(2), 4);
        let base = [2usize, 0, 3];
        let view = ProfileView::of_base(&base);
        for p in 0..3 {
            assert_eq!(backend.payoff(p, &view), g.payoff(p, &base));
        }
        // overrides match a mutated profile
        let overrides = [(0usize, 1usize), (2usize, 0usize)];
        let dev_view = ProfileView::new(&base, &overrides);
        let mutated = [1usize, 0, 0];
        for p in 0..3 {
            assert_eq!(backend.payoff(p, &dev_view), g.payoff(p, &mutated));
        }
        let (lo, hi) = backend.payoff_bounds();
        assert!(lo <= hi);
        assert!((-5.0..=5.0).contains(&lo) && (-5.0..=5.0).contains(&hi));
        let mut out = vec![0.0; 3];
        backend.payoffs_into(&view, &mut out);
        for (p, &u) in out.iter().enumerate() {
            assert_eq!(u, g.payoff(p, &base));
        }
    }

    #[test]
    fn local_ring_matches_its_densification() {
        // coordination on a ring: payoff = -(sum of local action gaps)
        let local = LocalBackend::ring(5, 3, 1, |_, acts| {
            -(acts.iter().map(|&a| a as f64).sum::<f64>())
        });
        assert_eq!(local.num_players(), 5);
        assert_eq!(table_entries(&local), 5 * 27);
        let dense_game = local.to_dense();
        let dense = DenseBackend::new(&dense_game);
        let mut profile = vec![0usize; 5];
        for flat in 0..dense_game.num_profiles() {
            profile.copy_from_slice(&dense_game.profile_at(flat));
            let view = ProfileView::of_base(&profile);
            for p in 0..5 {
                assert_eq!(
                    local.payoff(p, &view),
                    dense.payoff(p, &view),
                    "flat {flat} player {p}"
                );
            }
        }
        assert_eq!(local.neighborhood(0), Some(&[0usize, 1, 4][..]));
        let (lo, hi) = local.payoff_bounds();
        assert_eq!(hi, 0.0);
        assert_eq!(lo, -6.0);
    }

    #[test]
    fn local_memory_is_linear_in_players() {
        // 200 players of 3 actions each: the dense tensor would need
        // 200 * 3^200 entries; the locality tables need 200 * 27.
        let local = LocalBackend::ring(200, 3, 1, |p, acts| {
            (p % 7) as f64 - acts.iter().sum::<usize>() as f64
        });
        assert_eq!(table_entries(&local), 200 * 27);
        let base = vec![1usize; 200];
        let view = ProfileView::of_base(&base);
        let overrides = [(100usize, 2usize)];
        let dev = ProfileView::new(&base, &overrides);
        // the deviation only moves payoffs inside the neighborhood
        for p in 0..200 {
            let moved = local.payoff(p, &dev) != local.payoff(p, &view);
            let in_nbhd = local.neighborhood(p).unwrap().contains(&100);
            assert!(!moved || in_nbhd, "player {p} moved without locality");
        }
    }

    #[test]
    #[should_panic(expected = "must contain the player itself")]
    fn neighborhood_must_include_self() {
        let _ = LocalBackend::from_fn(&[2, 2], &[vec![0], vec![0]], |_, _| 0.0);
    }
}
