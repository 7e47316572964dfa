//! Finite extensive-form games with chance moves and information sets.
//!
//! These are the objects augmented by the awareness machinery of Section 4
//! of the paper: an augmented game is an extensive game plus an awareness
//! level (a set of histories) at every node where a player moves.
//!
//! The representation is a straightforward game tree: every node is a
//! decision node (a player moves), a chance node (nature moves with known
//! probabilities), or a terminal node (payoffs). Decision nodes may be
//! grouped into information sets; all nodes of an information set must
//! belong to the same player and offer the same actions.

use crate::error::GameError;
use crate::profile::ProfileIter;
use crate::{ActionId, PlayerId, Utility};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a node in the game tree.
pub type NodeId = usize;

/// Identifier of an information set. Information sets are global: two nodes
/// with the same `InfoSetId` are indistinguishable to the player who moves
/// there.
pub type InfoSetId = usize;

/// A node in an extensive-form game tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A node where a player chooses among labelled actions.
    Decision {
        /// The player who moves here.
        player: PlayerId,
        /// The information set this node belongs to.
        info_set: InfoSetId,
        /// Labelled outgoing edges: `(action label, child node)`.
        actions: Vec<(String, NodeId)>,
    },
    /// A node where nature moves.
    Chance {
        /// Labelled outgoing edges with probabilities:
        /// `(label, probability, child node)`.
        outcomes: Vec<(String, f64, NodeId)>,
    },
    /// A leaf with a payoff for every player.
    Terminal {
        /// Payoff vector, one entry per player.
        payoffs: Vec<Utility>,
    },
}

/// A terminal outcome of a play-through: the history of labels followed and
/// the resulting payoffs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Sequence of action / chance labels from the root to the leaf.
    pub history: Vec<String>,
    /// Probability of reaching this leaf (product of chance probabilities).
    pub probability: f64,
    /// Payoff vector at the leaf.
    pub payoffs: Vec<Utility>,
}

/// A pure behavior strategy profile: for every information set, the index of
/// the action taken there by the owning player.
///
/// Only information sets belonging to a player need entries for that
/// player's decisions; a single map suffices because information set ids are
/// globally unique.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PureBehaviorStrategy {
    choices: BTreeMap<InfoSetId, ActionId>,
}

impl PureBehaviorStrategy {
    /// Creates an empty strategy (no choices made yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the action taken at `info_set`.
    pub fn set(&mut self, info_set: InfoSetId, action: ActionId) {
        self.choices.insert(info_set, action);
    }

    /// Returns the action chosen at `info_set`, if any.
    pub fn get(&self, info_set: InfoSetId) -> Option<ActionId> {
        self.choices.get(&info_set).copied()
    }

    /// All `(information set, action)` pairs in this strategy.
    pub fn choices(&self) -> impl Iterator<Item = (InfoSetId, ActionId)> + '_ {
        self.choices.iter().map(|(&i, &a)| (i, a))
    }

    /// Merges another strategy into this one (other's choices win on
    /// conflict). Useful for combining per-player strategies into a profile.
    pub fn merged_with(&self, other: &PureBehaviorStrategy) -> PureBehaviorStrategy {
        let mut out = self.clone();
        for (i, a) in other.choices() {
            out.set(i, a);
        }
        out
    }
}

/// A finite extensive-form game.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensiveGame {
    name: String,
    num_players: usize,
    nodes: Vec<Node>,
    root: NodeId,
}

impl ExtensiveGame {
    /// Creates a game from a node arena and a root node.
    ///
    /// # Errors
    ///
    /// Returns an error if the root is invalid, a child reference is out of
    /// range, a terminal payoff vector has the wrong length, chance
    /// probabilities don't sum to 1, a decision node references an
    /// out-of-range player, or two nodes in the same information set
    /// disagree on player or action count.
    pub fn new(
        name: impl Into<String>,
        num_players: usize,
        nodes: Vec<Node>,
        root: NodeId,
    ) -> Result<Self, GameError> {
        if num_players == 0 {
            return Err(GameError::EmptyGame {
                reason: "extensive game needs at least one player".to_string(),
            });
        }
        if nodes.is_empty() {
            return Err(GameError::EmptyGame {
                reason: "extensive game has no nodes".to_string(),
            });
        }
        if root >= nodes.len() {
            return Err(GameError::InvalidNode { node: root });
        }
        let mut info_sig: BTreeMap<InfoSetId, (PlayerId, usize)> = BTreeMap::new();
        for node in &nodes {
            match node {
                Node::Decision {
                    player,
                    info_set,
                    actions,
                } => {
                    if *player >= num_players {
                        return Err(GameError::PlayerOutOfRange {
                            player: *player,
                            num_players,
                        });
                    }
                    if actions.is_empty() {
                        return Err(GameError::EmptyGame {
                            reason: "decision node with no actions".to_string(),
                        });
                    }
                    for (_, child) in actions {
                        if *child >= nodes.len() {
                            return Err(GameError::InvalidNode { node: *child });
                        }
                    }
                    match info_sig.get(info_set) {
                        None => {
                            info_sig.insert(*info_set, (*player, actions.len()));
                        }
                        Some((p, n)) => {
                            if *p != *player || *n != actions.len() {
                                return Err(GameError::UnsupportedStructure {
                                    reason: format!(
                                        "information set {info_set} mixes players or \
                                         action counts"
                                    ),
                                });
                            }
                        }
                    }
                }
                Node::Chance { outcomes } => {
                    if outcomes.is_empty() {
                        return Err(GameError::EmptyGame {
                            reason: "chance node with no outcomes".to_string(),
                        });
                    }
                    let sum: f64 = outcomes.iter().map(|(_, p, _)| *p).sum();
                    if (sum - 1.0).abs() > 1e-6 || outcomes.iter().any(|(_, p, _)| *p < -1e-12) {
                        return Err(GameError::InvalidDistribution {
                            reason: format!("chance probabilities sum to {sum}"),
                        });
                    }
                    for (_, _, child) in outcomes {
                        if *child >= nodes.len() {
                            return Err(GameError::InvalidNode { node: *child });
                        }
                    }
                }
                Node::Terminal { payoffs } => {
                    if payoffs.len() != num_players {
                        return Err(GameError::DimensionMismatch {
                            expected: num_players,
                            found: payoffs.len(),
                        });
                    }
                }
            }
        }
        Ok(ExtensiveGame {
            name: name.into(),
            num_players,
            nodes,
            root,
        })
    }

    /// The game's descriptive name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of players.
    pub fn num_players(&self) -> usize {
        self.num_players
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All information sets of `player`, with the action count of each.
    pub fn info_sets_of(&self, player: PlayerId) -> Vec<(InfoSetId, usize)> {
        let mut out: BTreeMap<InfoSetId, usize> = BTreeMap::new();
        for node in &self.nodes {
            if let Node::Decision {
                player: p,
                info_set,
                actions,
            } = node
            {
                if *p == player {
                    out.insert(*info_set, actions.len());
                }
            }
        }
        out.into_iter().collect()
    }

    /// All information sets in the game with `(owner, action count)`.
    pub fn all_info_sets(&self) -> Vec<(InfoSetId, PlayerId, usize)> {
        let mut out: BTreeMap<InfoSetId, (PlayerId, usize)> = BTreeMap::new();
        for node in &self.nodes {
            if let Node::Decision {
                player,
                info_set,
                actions,
            } = node
            {
                out.insert(*info_set, (*player, actions.len()));
            }
        }
        out.into_iter().map(|(i, (p, n))| (i, p, n)).collect()
    }

    /// Whether the game has perfect information (every information set
    /// contains exactly one node).
    pub fn is_perfect_information(&self) -> bool {
        let mut seen: BTreeSet<InfoSetId> = BTreeSet::new();
        for node in &self.nodes {
            if let Node::Decision { info_set, .. } = node {
                if !seen.insert(*info_set) {
                    return false;
                }
            }
        }
        true
    }

    /// All terminal histories (sequences of labels root → leaf).
    pub fn terminal_histories(&self) -> Vec<Vec<String>> {
        self.outcomes_under(&PureBehaviorStrategy::new(), true)
            .into_iter()
            .map(|o| o.history)
            .collect()
    }

    /// Plays the game under the given (merged) pure behavior strategy
    /// profile and returns the distribution over terminal outcomes induced
    /// by chance moves.
    ///
    /// If a decision node's information set has no entry in `profile`, the
    /// first action is taken (this should not happen for complete profiles;
    /// it makes partial exploratory profiles usable in tests).
    pub fn outcomes(&self, profile: &PureBehaviorStrategy) -> Vec<Outcome> {
        self.outcomes_under(profile, false)
    }

    fn outcomes_under(&self, profile: &PureBehaviorStrategy, explore_all: bool) -> Vec<Outcome> {
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, Vec<String>, f64)> = vec![(self.root, Vec::new(), 1.0)];
        while let Some((id, history, prob)) = stack.pop() {
            match self.node(id) {
                Node::Terminal { payoffs } => out.push(Outcome {
                    history,
                    probability: prob,
                    payoffs: payoffs.clone(),
                }),
                Node::Chance { outcomes } => {
                    for (label, p, child) in outcomes {
                        if *p <= 0.0 && !explore_all {
                            continue;
                        }
                        let mut h = history.clone();
                        h.push(label.clone());
                        stack.push((*child, h, prob * p));
                    }
                }
                Node::Decision {
                    info_set, actions, ..
                } => {
                    if explore_all {
                        for (label, child) in actions {
                            let mut h = history.clone();
                            h.push(label.clone());
                            stack.push((*child, h, prob));
                        }
                    } else {
                        let a = profile.get(*info_set).unwrap_or(0).min(actions.len() - 1);
                        let (label, child) = &actions[a];
                        let mut h = history;
                        h.push(label.clone());
                        stack.push((*child, h, prob));
                    }
                }
            }
        }
        out
    }

    /// Expected payoffs of all players under a pure behavior strategy
    /// profile (expectation over chance moves).
    pub fn expected_payoffs(&self, profile: &PureBehaviorStrategy) -> Vec<Utility> {
        let mut totals = vec![0.0; self.num_players];
        for outcome in self.outcomes(profile) {
            for (p, u) in outcome.payoffs.iter().enumerate() {
                totals[p] += outcome.probability * u;
            }
        }
        totals
    }

    /// Backward induction (subgame-perfect equilibrium) for perfect
    /// information games. Ties are broken in favor of the lowest action
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::UnsupportedStructure`] if the game does not have
    /// perfect information.
    pub fn backward_induction(&self) -> Result<(PureBehaviorStrategy, Vec<Utility>), GameError> {
        if !self.is_perfect_information() {
            return Err(GameError::UnsupportedStructure {
                reason: "backward induction requires perfect information".to_string(),
            });
        }
        let mut strategy = PureBehaviorStrategy::new();
        let values = self.bi_node(self.root, &mut strategy);
        Ok((strategy, values))
    }

    fn bi_node(&self, id: NodeId, strategy: &mut PureBehaviorStrategy) -> Vec<Utility> {
        match self.node(id).clone() {
            Node::Terminal { payoffs } => payoffs,
            Node::Chance { outcomes } => {
                let mut totals = vec![0.0; self.num_players];
                for (_, p, child) in outcomes {
                    let vals = self.bi_node(child, strategy);
                    for (i, v) in vals.iter().enumerate() {
                        totals[i] += p * v;
                    }
                }
                totals
            }
            Node::Decision {
                player,
                info_set,
                actions,
            } => {
                let mut best: Option<(ActionId, Vec<Utility>)> = None;
                for (a, (_, child)) in actions.iter().enumerate() {
                    let vals = self.bi_node(*child, strategy);
                    let better = match &best {
                        None => true,
                        Some((_, bvals)) => vals[player] > bvals[player] + 1e-12,
                    };
                    if better {
                        best = Some((a, vals));
                    }
                }
                let (a, vals) = best.expect("decision node has at least one action");
                strategy.set(info_set, a);
                vals
            }
        }
    }

    /// Enumerates all pure strategies of `player` (one action per
    /// information set of that player).
    pub fn pure_strategies_of(&self, player: PlayerId) -> Vec<PureBehaviorStrategy> {
        let sets = self.info_sets_of(player);
        if sets.is_empty() {
            return vec![PureBehaviorStrategy::new()];
        }
        let radices: Vec<usize> = sets.iter().map(|(_, n)| *n).collect();
        ProfileIter::new(&radices)
            .map(|choice| {
                let mut s = PureBehaviorStrategy::new();
                for ((set, _), a) in sets.iter().zip(choice.iter()) {
                    s.set(*set, *a);
                }
                s
            })
            .collect()
    }

    /// Whether a merged pure behavior profile is a Nash equilibrium of the
    /// extensive game: no player can increase her expected payoff by
    /// switching to any of her pure strategies while the others keep theirs.
    pub fn is_nash(&self, profile: &PureBehaviorStrategy) -> bool {
        let base = self.expected_payoffs(profile);
        for (player, &base_u) in base.iter().enumerate() {
            for alt in self.pure_strategies_of(player) {
                // overlay alt's choices for this player's info sets only
                let mut deviated = profile.clone();
                for (set, a) in alt.choices() {
                    deviated.set(set, a);
                }
                let u = self.expected_payoffs(&deviated)[player];
                if u > base_u + 1e-9 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;

    #[test]
    fn figure1_game_structure() {
        let g = classic::figure1_game();
        assert_eq!(g.num_players(), 2);
        assert!(g.is_perfect_information());
        // histories: downA; acrossA,downB; acrossA,acrossB
        assert_eq!(g.terminal_histories().len(), 3);
    }

    #[test]
    fn figure1_nash_equilibrium_across_down() {
        let g = classic::figure1_game();
        // A plays across (action 1), B plays down (action 0): payoffs (1, 2)
        // per the classic construction; this is the equilibrium the paper
        // highlights.
        let mut profile = PureBehaviorStrategy::new();
        profile.set(0, 1); // A: across
        profile.set(1, 0); // B: down
        assert!(g.is_nash(&profile));
        let payoffs = g.expected_payoffs(&profile);
        assert!(payoffs[0] > 0.0 && payoffs[1] > 0.0);
    }

    #[test]
    fn backward_induction_on_figure1() {
        let g = classic::figure1_game();
        let (strategy, values) = g.backward_induction().unwrap();
        // B prefers downB (2 > 1), so A prefers acrossA (1 ... depends on
        // payoffs); at minimum the strategy must specify both info sets.
        assert!(strategy.get(0).is_some());
        assert!(strategy.get(1).is_some());
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn chance_nodes_average_payoffs() {
        // Nature chooses L (0.25) or R (0.75); then terminal payoffs 4 / 0
        // for player 0. Expected value 1.0.
        let nodes = vec![
            Node::Chance {
                outcomes: vec![("L".into(), 0.25, 1), ("R".into(), 0.75, 2)],
            },
            Node::Terminal { payoffs: vec![4.0] },
            Node::Terminal { payoffs: vec![0.0] },
        ];
        let g = ExtensiveGame::new("chance", 1, nodes, 0).unwrap();
        let v = g.expected_payoffs(&PureBehaviorStrategy::new());
        assert!((v[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_structures() {
        // bad chance probabilities
        let nodes = vec![
            Node::Chance {
                outcomes: vec![("L".into(), 0.6, 1), ("R".into(), 0.6, 1)],
            },
            Node::Terminal { payoffs: vec![0.0] },
        ];
        assert!(ExtensiveGame::new("bad", 1, nodes, 0).is_err());

        // dangling child
        let nodes = vec![Node::Decision {
            player: 0,
            info_set: 0,
            actions: vec![("a".into(), 5)],
        }];
        assert!(ExtensiveGame::new("bad", 1, nodes, 0).is_err());

        // wrong payoff length
        let nodes = vec![Node::Terminal {
            payoffs: vec![1.0, 2.0],
        }];
        assert!(ExtensiveGame::new("bad", 1, nodes, 0).is_err());

        // inconsistent information set
        let nodes = vec![
            Node::Decision {
                player: 0,
                info_set: 0,
                actions: vec![("a".into(), 2), ("b".into(), 2)],
            },
            Node::Decision {
                player: 1,
                info_set: 0,
                actions: vec![("a".into(), 2), ("b".into(), 2)],
            },
            Node::Terminal {
                payoffs: vec![0.0, 0.0],
            },
        ];
        assert!(ExtensiveGame::new("bad", 2, nodes, 0).is_err());
    }

    #[test]
    fn pure_strategy_enumeration_counts() {
        let g = classic::figure1_game();
        assert_eq!(g.pure_strategies_of(0).len(), 2);
        assert_eq!(g.pure_strategies_of(1).len(), 2);
    }

    #[test]
    fn imperfect_information_detected() {
        // one player, two decision nodes sharing an information set
        let nodes = vec![
            Node::Chance {
                outcomes: vec![("x".into(), 0.5, 1), ("y".into(), 0.5, 2)],
            },
            Node::Decision {
                player: 0,
                info_set: 7,
                actions: vec![("l".into(), 3), ("r".into(), 4)],
            },
            Node::Decision {
                player: 0,
                info_set: 7,
                actions: vec![("l".into(), 3), ("r".into(), 4)],
            },
            Node::Terminal { payoffs: vec![1.0] },
            Node::Terminal { payoffs: vec![0.0] },
        ];
        let g = ExtensiveGame::new("imperfect", 1, nodes, 0).unwrap();
        assert!(!g.is_perfect_information());
        assert!(g.backward_induction().is_err());
        assert_eq!(g.pure_strategies_of(0).len(), 2);
    }
}
