//! Mediator games: the extension `Γ_d` of a Bayesian game with a trusted
//! third party.
//!
//! In the mediator extension, each player reports a type to the mediator
//! (possibly lying), the mediator computes recommended actions, and each
//! player then chooses an action (possibly ignoring the recommendation). The
//! *honest* strategy — report truthfully, follow the recommendation — is the
//! strategy whose robustness the cheap-talk protocols must reproduce.

use bne_games::{ActionId, BayesianGame, NormalFormGame, PlayerId, TypeId, Utility, EPSILON};
use std::sync::OnceLock;

/// One member's behavior inside a deviating coalition: either stay honest
/// (report truthfully, follow the recommendation) or play a *uniform*
/// deviation — report a fixed type regardless of the true one, optionally
/// overriding the recommended action.
///
/// For players with a single type the uniform deviation `(type 0, no
/// override)` *is* honesty, so the explicit honest choice is only added
/// for multi-type players (keeping the enumerated space minimal). Letting
/// coalition members keep their honest strategy matches the Abraham et
/// al. definition, where a coalition member's strategy set includes the
/// equilibrium strategy — a member may "ride along" on the others'
/// deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviationChoice {
    /// Report truthfully and follow the recommendation.
    Honest,
    /// Report `report` regardless of the true type; follow the
    /// recommendation unless `act` overrides it.
    Uniform {
        /// The type reported to the mediator.
        report: TypeId,
        /// The action played instead of the recommendation, if any.
        act: Option<ActionId>,
    },
}

/// A mediator: a trusted party mapping reported types to recommended
/// actions. Deterministic mediators cover all the games in the paper's
/// examples (the Byzantine-agreement mediator simply relays the general's
/// preference).
pub trait Mediator {
    /// Computes a recommendation for every player from the reported types.
    fn recommend(&self, reported_types: &[TypeId]) -> Vec<ActionId>;
}

/// The mediator that recommends the action equal to the first player's
/// reported type — exactly the paper's Byzantine-agreement mediator (the
/// general is player 0 and the actions are indexed like the types:
/// 0 = retreat, 1 = attack).
#[derive(Debug, Clone, Copy, Default)]
pub struct TruthfulMediator;

impl Mediator for TruthfulMediator {
    fn recommend(&self, reported_types: &[TypeId]) -> Vec<ActionId> {
        let order = reported_types.first().copied().unwrap_or(0);
        vec![order; reported_types.len()]
    }
}

/// Per-player tables of ex-ante expected utilities under *unilateral*
/// deviations from the honest profile — the mediator layer's instance of
/// the deviation-oracle certificates: `tables[p][o][q]` is player `q`'s
/// expected utility when only player `p` deviates with their `o`-th
/// option, and `baseline[q]` is `q`'s honest expected utility. Built once
/// per [`MediatorGame`] and shared by every robustness check.
struct UnilateralTables {
    baseline: Vec<Utility>,
    tables: Vec<Vec<Vec<Utility>>>,
}

/// A Bayesian game together with a mediator.
pub struct MediatorGame<'a, M: Mediator> {
    game: &'a BayesianGame,
    mediator: M,
    unilateral: OnceLock<UnilateralTables>,
}

impl<'a, M: Mediator> MediatorGame<'a, M> {
    /// Wraps a Bayesian game with a mediator.
    pub fn new(game: &'a BayesianGame, mediator: M) -> Self {
        MediatorGame {
            game,
            mediator,
            unilateral: OnceLock::new(),
        }
    }

    /// The underlying Bayesian game.
    pub fn game(&self) -> &BayesianGame {
        self.game
    }

    /// The action profile induced when every player reports truthfully and
    /// follows the recommendation, for the given true type profile.
    pub fn honest_outcome(&self, types: &[TypeId]) -> Vec<ActionId> {
        self.mediator.recommend(types)
    }

    /// Ex-ante expected utility of `player` when everyone is honest.
    pub fn honest_expected_utility(&self, player: PlayerId) -> Utility {
        let mut total = 0.0;
        for (types, pr) in self.game.prior().support() {
            let actions = self.honest_outcome(&types);
            total += pr * self.game.utility(player, &types, &actions);
        }
        total
    }

    /// The deviation choices available to one player: the explicit honest
    /// choice (only when the player has more than one type — with a single
    /// type the first uniform option *is* honesty), then every uniform
    /// (report, optional override) combination in report-then-action
    /// order.
    pub fn member_choices(&self, player: PlayerId) -> Vec<DeviationChoice> {
        let mut out = Vec::new();
        if self.game.num_types(player) > 1 {
            out.push(DeviationChoice::Honest);
        }
        for report in 0..self.game.num_types(player) {
            out.push(DeviationChoice::Uniform { report, act: None });
            for a in 0..self.game.num_actions(player) {
                out.push(DeviationChoice::Uniform {
                    report,
                    act: Some(a),
                });
            }
        }
        out
    }

    /// The action profile induced for one true type profile when the
    /// players in `members` behave per `choices` (parallel slices) and
    /// everyone else is honest.
    fn outcome_with_choices(
        &self,
        types: &[TypeId],
        members: &[PlayerId],
        choices: &[DeviationChoice],
    ) -> Vec<ActionId> {
        let mut reported = types.to_vec();
        for (&m, choice) in members.iter().zip(choices.iter()) {
            if let DeviationChoice::Uniform { report, .. } = choice {
                reported[m] = *report;
            }
        }
        let mut actions = self.mediator.recommend(&reported);
        for (&m, choice) in members.iter().zip(choices.iter()) {
            if let DeviationChoice::Uniform { act: Some(a), .. } = choice {
                actions[m] = *a;
            }
        }
        actions
    }

    /// Ex-ante expected utility of **every** player when `members` behave
    /// per `choices` and everyone else is honest: the induced action
    /// profile is computed once per type profile in the prior's support
    /// and shared across all recipients.
    fn expected_utilities_under(
        &self,
        members: &[PlayerId],
        choices: &[DeviationChoice],
    ) -> Vec<Utility> {
        let mut totals = vec![0.0; self.game.num_players()];
        for (types, pr) in self.game.prior().support() {
            let actions = self.outcome_with_choices(&types, members, choices);
            for (q, slot) in totals.iter_mut().enumerate() {
                *slot += pr * self.game.utility(q, &types, &actions);
            }
        }
        totals
    }

    /// The unilateral-deviation certificate tables, built on first use:
    /// one ex-ante utility vector per (player, deviation choice) pair.
    fn unilateral_tables(&self) -> &UnilateralTables {
        self.unilateral.get_or_init(|| {
            let n = self.game.num_players();
            let baseline: Vec<Utility> = (0..n).map(|p| self.honest_expected_utility(p)).collect();
            let tables = (0..n)
                .map(|p| {
                    self.member_choices(p)
                        .into_iter()
                        .map(|choice| self.expected_utilities_under(&[p], &[choice]))
                        .collect()
                })
                .collect();
            UnilateralTables { baseline, tables }
        })
    }

    /// Checks that "report truthfully and follow the recommendation" is
    /// k-resilient in the mediator game: no coalition of at most `k` players
    /// can misreport and/or disobey in a way that strictly improves some
    /// member's ex-ante expected utility.
    ///
    /// Runs on the deviation-oracle pattern: all size-1 coalitions are
    /// decided at once from the precomputed [unilateral
    /// tables](Self::member_choices) — a single unilateral gain refutes
    /// every `k ≥ 1` — and only sizes ≥ 2 fall through to the lazy
    /// exponential sweep. Equivalently, this is `is_k_resilient` of the
    /// all-honest profile in [`Self::induced_deviation_game`].
    pub fn honest_is_k_resilient(&self, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let tables = self.unilateral_tables();
        for (p, rows) in tables.tables.iter().enumerate() {
            for row in rows {
                if row[p] > tables.baseline[p] + EPSILON {
                    return false; // refutes every k >= 1 at once
                }
            }
        }
        let n = self.game.num_players();
        if k == 1 {
            return true;
        }
        for size in 2..=k.min(n) {
            let complete = bne_games::profile::try_for_each_subset_of_size(n, size, |coalition| {
                !self.coalition_can_gain(coalition)
            });
            if !complete {
                return false;
            }
        }
        true
    }

    /// Checks t-immunity of the honest strategy: no matter how players in a
    /// set of size ≤ `t` misreport and disobey, the honest players' ex-ante
    /// expected utilities do not drop. Size-1 deviator sets are decided
    /// from the unilateral tables; larger sets use the lazy sweep with the
    /// memoized baseline.
    pub fn honest_is_t_immune(&self, t: usize) -> bool {
        if t == 0 {
            return true;
        }
        let tables = self.unilateral_tables();
        for (p, rows) in tables.tables.iter().enumerate() {
            for row in rows {
                for (victim, &base_u) in tables.baseline.iter().enumerate() {
                    if victim != p && row[victim] < base_u - EPSILON {
                        return false;
                    }
                }
            }
        }
        let n = self.game.num_players();
        if t == 1 {
            return true;
        }
        for size in 2..=t.min(n) {
            let complete = bne_games::profile::try_for_each_subset_of_size(n, size, |faulty| {
                self.visit_deviation_space(faulty, |choices| {
                    let utilities = self.expected_utilities_under(faulty, choices);
                    for (victim, &base_u) in tables.baseline.iter().enumerate() {
                        if faulty.contains(&victim) {
                            continue;
                        }
                        if utilities[victim] < base_u - EPSILON {
                            return false;
                        }
                    }
                    true
                })
            });
            if !complete {
                return false;
            }
        }
        true
    }

    /// Whether the honest strategy is (k,t)-robust (componentwise).
    pub fn honest_is_robust(&self, k: usize, t: usize) -> bool {
        self.honest_is_k_resilient(k) && self.honest_is_t_immune(t)
    }

    fn coalition_can_gain(&self, coalition: &[PlayerId]) -> bool {
        let baseline = &self.unilateral_tables().baseline;
        !self.visit_deviation_space(coalition, |choices| {
            let utilities = self.expected_utilities_under(coalition, choices);
            !coalition
                .iter()
                .any(|&member| utilities[member] > baseline[member] + EPSILON)
        })
    }

    /// Visits the joint deviations of a coalition lazily: every combination
    /// of a [`DeviationChoice`] per member, as `f(choices)`, reusing one
    /// buffer across the whole sweep (the deviation space is exponential in
    /// the coalition size, so it is never materialized). Stops early when
    /// `f` returns `false`; returns `true` when the sweep completed.
    fn visit_deviation_space<F>(&self, coalition: &[PlayerId], mut f: F) -> bool
    where
        F: FnMut(&[DeviationChoice]) -> bool,
    {
        let options: Vec<Vec<DeviationChoice>> =
            coalition.iter().map(|&p| self.member_choices(p)).collect();
        let radices: Vec<usize> = options.iter().map(|o| o.len()).collect();
        let mut choices = vec![DeviationChoice::Honest; coalition.len()];
        bne_games::profile::visit_mixed_radix_while(&radices, |choice, _| {
            for (i, &c) in choice.iter().enumerate() {
                choices[i] = options[i][c];
            }
            f(&choices)
        })
    }

    /// Materializes the mediator game's *induced deviation game*: a
    /// normal-form game in which each player's actions are their
    /// [`Self::member_choices`] (action 0 is honest) and payoffs are
    /// ex-ante expected utilities under the joint behavior. The honest
    /// strategy profile is flat index 0, so
    /// [`bne_games::DeviationOracle`] predicates at flat 0 reproduce
    /// [`Self::honest_is_k_resilient`] / [`Self::honest_is_t_immune`]
    /// exactly — the equality gate tying the mediator layer to the shared
    /// search core.
    ///
    /// The joint space is exponential in the number of players; use for
    /// the paper's small examples (the lazy checks above scale to larger
    /// `n` as long as `k` and `t` stay small).
    pub fn induced_deviation_game(&self) -> NormalFormGame {
        let n = self.game.num_players();
        let players: Vec<PlayerId> = (0..n).collect();
        let options: Vec<Vec<DeviationChoice>> =
            players.iter().map(|&p| self.member_choices(p)).collect();
        let labels: Vec<Vec<String>> = options
            .iter()
            .map(|opts| {
                opts.iter()
                    .map(|c| match c {
                        DeviationChoice::Honest => "honest".to_string(),
                        DeviationChoice::Uniform { report, act: None } => {
                            format!("report{report}")
                        }
                        DeviationChoice::Uniform {
                            report,
                            act: Some(a),
                        } => format!("report{report}/play{a}"),
                    })
                    .collect()
            })
            .collect();
        let radices: Vec<usize> = options.iter().map(|o| o.len()).collect();
        let total: usize = radices.iter().product();
        let mut payoffs = vec![Vec::with_capacity(total); n];
        let mut choices = vec![DeviationChoice::Honest; n];
        bne_games::profile::visit_mixed_radix(&radices, |digits, _| {
            for (i, &d) in digits.iter().enumerate() {
                choices[i] = options[i][d];
            }
            let utilities = self.expected_utilities_under(&players, &choices);
            for (table, u) in payoffs.iter_mut().zip(utilities) {
                table.push(u);
            }
        });
        NormalFormGame::new(
            format!("{} (induced deviation game)", self.game.name()),
            labels,
            payoffs,
        )
        .expect("induced tensors are well formed by construction")
    }

    /// Materialized form of [`Self::visit_deviation_space`], kept for
    /// the unit tests; prefer the visitor in search loops.
    #[cfg(test)]
    fn deviation_space(&self, coalition: &[PlayerId]) -> Vec<Vec<DeviationChoice>> {
        let mut out = Vec::new();
        self.visit_deviation_space(coalition, |choices| {
            out.push(choices.to_vec());
            true
        });
        out
    }
}

/// The Byzantine-agreement Bayesian game from Section 2 of the paper.
///
/// Player 0 is the general, whose type (0 = prefer retreat, 1 = prefer
/// attack) is drawn from the given prior probability of preferring attack;
/// the other `n − 1` players are soldiers with a single dummy type. Every
/// player chooses Attack (1) or Retreat (0). Non-faulty players get:
///
/// * 1 if all (modelled) players choose the same action **and**, when the
///   general is non-faulty, that action matches the general's preference;
/// * 0 otherwise.
///
/// This captures the two conditions of Byzantine agreement as utilities:
/// agreement pays, and validity pays when the general is honest.
pub struct ByzantineAgreementGame;

impl ByzantineAgreementGame {
    /// Builds the game for `n ≥ 2` players with the given probability that
    /// the general prefers to attack.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the probability is outside `[0, 1]`.
    pub fn build(n: usize, attack_probability: f64) -> BayesianGame {
        assert!(n >= 2, "need a general and at least one soldier");
        assert!((0.0..=1.0).contains(&attack_probability));
        let mut marginals = vec![vec![1.0 - attack_probability, attack_probability]];
        marginals.extend(std::iter::repeat_n(vec![1.0], n - 1));
        let prior = bne_games::bayesian::TypeDistribution::independent(&marginals)
            .expect("valid marginals by construction");
        BayesianGame::new(
            format!("Byzantine agreement game (n = {n})"),
            vec![2; n],
            prior,
            |_player, types, actions| {
                let preference = types[0];
                let all_same = actions.iter().all(|&a| a == actions[0]);
                if all_same && actions[0] == preference {
                    1.0
                } else {
                    0.0
                }
            },
        )
        .expect("valid game by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthful_mediator_relays_the_generals_preference() {
        let m = TruthfulMediator;
        assert_eq!(m.recommend(&[1, 0, 0]), vec![1, 1, 1]);
        assert_eq!(m.recommend(&[0, 0, 0, 0]), vec![0, 0, 0, 0]);
    }

    #[test]
    fn honest_play_achieves_full_coordination_value() {
        let game = ByzantineAgreementGame::build(4, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        for p in 0..4 {
            assert!((mg.honest_expected_utility(p) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn honest_strategy_is_resilient_in_the_ba_game() {
        let game = ByzantineAgreementGame::build(4, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        // nobody can gain by misreporting or disobeying: utility is already 1
        assert!(mg.honest_is_k_resilient(1));
        assert!(mg.honest_is_k_resilient(2));
    }

    #[test]
    fn honest_strategy_is_not_immune_in_the_ba_game() {
        // a single faulty soldier who disobeys destroys coordination and
        // hurts everyone else: the mediator alone does not give immunity in
        // this payoff model (that is exactly why the utilities in the
        // robust-mediator literature only reward the coordination of
        // *non-faulty* players — see `honest_is_immune_when_faults_excused`).
        let game = ByzantineAgreementGame::build(3, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        assert!(!mg.honest_is_t_immune(1));
    }

    #[test]
    fn deviation_space_size_is_types_times_actions_plus_one() {
        let game = ByzantineAgreementGame::build(3, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        // general: honest + 2 types × (1 + 2 actions) = 7 options (the
        // explicit honest choice exists because she has two types)
        assert_eq!(mg.deviation_space(&[0]).len(), 7);
        assert_eq!(mg.member_choices(0)[0], DeviationChoice::Honest);
        // soldier: 1 type × 3 = 3 options; option 0 is already honest
        assert_eq!(mg.deviation_space(&[1]).len(), 3);
        assert_eq!(
            mg.member_choices(1)[0],
            DeviationChoice::Uniform {
                report: 0,
                act: None
            }
        );
        // pair: 7 × 3
        assert_eq!(mg.deviation_space(&[0, 1]).len(), 21);
    }

    #[test]
    fn induced_deviation_game_matches_the_lazy_checks_through_the_oracle() {
        use bne_games::{DeviationOracle, ResilienceVariant, SearchStrategy};
        for n in [3usize, 4] {
            let game = ByzantineAgreementGame::build(n, 0.5);
            let mg = MediatorGame::new(&game, TruthfulMediator);
            let induced = mg.induced_deviation_game();
            // flat 0 is the all-honest profile
            assert_eq!(induced.num_players(), n);
            for q in 0..n {
                assert!(
                    (induced.payoff_by_index(q, 0) - mg.honest_expected_utility(q)).abs() < 1e-12
                );
            }
            for strategy in [SearchStrategy::Pruned, SearchStrategy::Exhaustive] {
                let oracle = DeviationOracle::with_strategy(&induced, strategy);
                for k in 0..=2usize {
                    assert_eq!(
                        oracle.is_k_resilient(0, k, ResilienceVariant::SomeMemberGains),
                        mg.honest_is_k_resilient(k),
                        "n {n} k {k}"
                    );
                }
                for t in 0..=2usize {
                    assert_eq!(
                        oracle.is_t_immune(0, t),
                        mg.honest_is_t_immune(t),
                        "n {n} t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn general_misreporting_changes_the_outcome_but_not_her_utility() {
        let game = ByzantineAgreementGame::build(3, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        // general lies about her type: everyone coordinates on the wrong
        // action, and the general herself loses (validity is part of her
        // utility), confirming truthful reporting is a best response.
        let honest = mg.honest_outcome(&[1, 0, 0]);
        assert_eq!(honest, vec![1, 1, 1]);
        // reporting type 0, the general is recommended what a true type 0 is
        let lied = mg.honest_outcome(&[0, 0, 0]);
        assert_eq!(lied, vec![0, 0, 0]);
        assert_eq!(game.utility(0, &[1, 0, 0], &lied), 0.0);
    }
}
