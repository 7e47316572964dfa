//! Augmented games and games with awareness.
//!
//! An *augmented game* is an extensive game in which every node where a
//! player moves carries that player's awareness level — the set of histories
//! (move sequences) she is aware of at that point. A *game with awareness*
//! based on an underlying game `Γ` is a tuple `Γ* = (G, Γ_m, F)`: a
//! collection `G` of augmented games, a distinguished modeler's game `Γ_m`,
//! and a mapping `F` that assigns to every decision node `h` of every game
//! in `G` the augmented game the moving player *believes* is being played
//! and the information set of that game she considers possible.

use bne_games::extensive::{ExtensiveGame, InfoSetId, Node, NodeId};
use bne_games::PlayerId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Index of an augmented game within a [`GameWithAwareness`] collection.
pub type GameIndex = usize;

/// Errors raised while assembling or validating a game with awareness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AwarenessError {
    /// The collection of augmented games is empty.
    NoGames,
    /// The modeler's game index is out of range.
    BadModelerIndex {
        /// The offending index.
        index: GameIndex,
    },
    /// A decision node has no entry in the `F` mapping.
    MissingBelief {
        /// Game containing the node.
        game: GameIndex,
        /// The node without a belief.
        node: NodeId,
    },
    /// An `F` entry points at a game index outside the collection.
    BadBeliefGame {
        /// The offending target index.
        target: GameIndex,
    },
    /// An `F` entry points at an information set that does not exist in the
    /// target game, belongs to a different player, or offers a different
    /// number of actions than the node it is attached to.
    InconsistentBelief {
        /// Game containing the node.
        game: GameIndex,
        /// The node whose belief is inconsistent.
        node: NodeId,
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for AwarenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AwarenessError::NoGames => write!(f, "a game with awareness needs at least one game"),
            AwarenessError::BadModelerIndex { index } => {
                write!(f, "modeler's game index {index} is out of range")
            }
            AwarenessError::MissingBelief { game, node } => {
                write!(f, "decision node {node} of game {game} has no belief entry")
            }
            AwarenessError::BadBeliefGame { target } => {
                write!(f, "belief target game {target} is out of range")
            }
            AwarenessError::InconsistentBelief { game, node, reason } => {
                write!(
                    f,
                    "belief of node {node} in game {game} is inconsistent: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for AwarenessError {}

/// An augmented game: an extensive game plus, for every decision node, the
/// awareness level of the player moving there (the set of histories she is
/// aware of, encoded as dot-joined move-label sequences).
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentedGame {
    name: String,
    game: ExtensiveGame,
    awareness: BTreeMap<NodeId, BTreeSet<String>>,
}

impl AugmentedGame {
    /// Wraps an extensive game with explicit awareness levels. Nodes without
    /// an entry default to "aware of every terminal history of this game",
    /// which is the right default for the modeler's game and for fully
    /// subjective games (where the game tree already *is* everything the
    /// player can conceive of).
    pub fn new(name: impl Into<String>, game: ExtensiveGame) -> Self {
        let mut awareness = BTreeMap::new();
        let all: BTreeSet<String> = game
            .terminal_histories()
            .into_iter()
            .map(|h| h.join("."))
            .collect();
        for node in 0..game.num_nodes() {
            if matches!(game.node(node), Node::Decision { .. }) {
                awareness.insert(node, all.clone());
            }
        }
        AugmentedGame {
            name: name.into(),
            game,
            awareness,
        }
    }

    /// Overrides the awareness level at one node.
    pub fn with_awareness(mut self, node: NodeId, histories: &[&str]) -> Self {
        self.awareness
            .insert(node, histories.iter().map(|s| s.to_string()).collect());
        self
    }

    /// The augmented game's name (e.g. "Γ_A").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying extensive game.
    pub fn game(&self) -> &ExtensiveGame {
        &self.game
    }

    /// The awareness level at a node (empty set if the node is not a
    /// decision node).
    pub fn awareness_at(&self, node: NodeId) -> BTreeSet<String> {
        self.awareness.get(&node).cloned().unwrap_or_default()
    }
}

/// The belief attached to a decision node by the `F` mapping: the game the
/// mover believes is being played and the information set of that game she
/// considers possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeliefTarget {
    /// Index (into the collection) of the believed game.
    pub game: GameIndex,
    /// Information set of the believed game the player considers possible.
    pub info_set: InfoSetId,
}

/// A game with awareness `Γ* = (G, Γ_m, F)`.
#[derive(Debug, Clone, PartialEq)]
pub struct GameWithAwareness {
    games: Vec<AugmentedGame>,
    modeler: GameIndex,
    beliefs: BTreeMap<(GameIndex, NodeId), BeliefTarget>,
}

impl GameWithAwareness {
    /// Assembles and validates a game with awareness.
    ///
    /// # Errors
    ///
    /// Returns an [`AwarenessError`] if the structure is inconsistent: every
    /// decision node of every game must have a belief, the belief must point
    /// into the collection, and the believed information set must belong to
    /// the same player and offer the same number of actions as the node it
    /// explains (otherwise the player's local strategy could not be carried
    /// back to the node).
    pub fn new(
        games: Vec<AugmentedGame>,
        modeler: GameIndex,
        beliefs: BTreeMap<(GameIndex, NodeId), BeliefTarget>,
    ) -> Result<Self, AwarenessError> {
        if games.is_empty() {
            return Err(AwarenessError::NoGames);
        }
        if modeler >= games.len() {
            return Err(AwarenessError::BadModelerIndex { index: modeler });
        }
        let this = GameWithAwareness {
            games,
            modeler,
            beliefs,
        };
        this.validate()?;
        Ok(this)
    }

    fn validate(&self) -> Result<(), AwarenessError> {
        for (gi, augmented) in self.games.iter().enumerate() {
            let game = augmented.game();
            for node_id in 0..game.num_nodes() {
                let Node::Decision {
                    player, actions, ..
                } = game.node(node_id)
                else {
                    continue;
                };
                let Some(belief) = self.beliefs.get(&(gi, node_id)) else {
                    return Err(AwarenessError::MissingBelief {
                        game: gi,
                        node: node_id,
                    });
                };
                let Some(target_game) = self.games.get(belief.game) else {
                    return Err(AwarenessError::BadBeliefGame {
                        target: belief.game,
                    });
                };
                let target_sets = target_game.game().all_info_sets();
                let Some((_, owner, action_count)) = target_sets
                    .iter()
                    .find(|(set, _, _)| *set == belief.info_set)
                    .copied()
                else {
                    return Err(AwarenessError::InconsistentBelief {
                        game: gi,
                        node: node_id,
                        reason: format!(
                            "information set {} does not exist in game {}",
                            belief.info_set, belief.game
                        ),
                    });
                };
                if owner != *player {
                    return Err(AwarenessError::InconsistentBelief {
                        game: gi,
                        node: node_id,
                        reason: format!(
                            "information set {} belongs to player {owner}, node is player {player}",
                            belief.info_set
                        ),
                    });
                }
                if action_count != actions.len() {
                    return Err(AwarenessError::InconsistentBelief {
                        game: gi,
                        node: node_id,
                        reason: format!(
                            "information set {} offers {action_count} actions, node offers {}",
                            belief.info_set,
                            actions.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The augmented games in the collection.
    pub fn games(&self) -> &[AugmentedGame] {
        &self.games
    }

    /// The modeler's game index.
    pub fn modeler(&self) -> GameIndex {
        self.modeler
    }

    /// The modeler's augmented game.
    pub fn modeler_game(&self) -> &AugmentedGame {
        &self.games[self.modeler]
    }

    /// The belief attached to a decision node.
    pub fn belief(&self, game: GameIndex, node: NodeId) -> Option<BeliefTarget> {
        self.beliefs.get(&(game, node)).copied()
    }

    /// Every `(player, believed game)` pair that occurs somewhere in the
    /// structure — the domain of a generalized strategy profile.
    pub fn strategy_domain(&self) -> Vec<(PlayerId, GameIndex)> {
        let mut out = BTreeSet::new();
        for (&(gi, node), belief) in &self.beliefs {
            if let Node::Decision { player, .. } = self.games[gi].game().node(node) {
                out.insert((*player, belief.game));
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_representation;
    use bne_games::classic;

    #[test]
    fn augmented_game_defaults_to_full_awareness() {
        let aug = AugmentedGame::new("Γ_m", classic::figure1_game());
        // node 0 is A's decision node; she is aware of all three terminal
        // histories by default
        assert_eq!(aug.awareness_at(0).len(), 3);
        assert!(aug.awareness_at(0).contains("downA"));
        // terminal nodes carry no awareness level
        assert!(aug.awareness_at(1).is_empty());
    }

    #[test]
    fn awareness_override_restricts_histories() {
        let aug = AugmentedGame::new("Γ_B", classic::figure1_game_unaware())
            .with_awareness(0, &["downA", "acrossA.acrossB"]);
        assert_eq!(aug.awareness_at(0).len(), 2);
        assert!(!aug.awareness_at(0).contains("acrossA.downB"));
    }

    #[test]
    fn validation_catches_missing_and_inconsistent_beliefs() {
        let aug = AugmentedGame::new("Γ_m", classic::figure1_game());
        // missing belief for node 2 (B's decision node)
        let mut beliefs = BTreeMap::new();
        beliefs.insert(
            (0, 0),
            BeliefTarget {
                game: 0,
                info_set: 0,
            },
        );
        let err = GameWithAwareness::new(vec![aug.clone()], 0, beliefs.clone()).unwrap_err();
        assert!(matches!(err, AwarenessError::MissingBelief { node: 2, .. }));

        // belief pointing at the wrong player's information set
        beliefs.insert(
            (0, 2),
            BeliefTarget {
                game: 0,
                info_set: 0,
            },
        );
        let err = GameWithAwareness::new(vec![aug.clone()], 0, beliefs.clone()).unwrap_err();
        assert!(matches!(err, AwarenessError::InconsistentBelief { .. }));

        // belief pointing outside the collection
        beliefs.insert(
            (0, 2),
            BeliefTarget {
                game: 5,
                info_set: 1,
            },
        );
        let err = GameWithAwareness::new(vec![aug], 0, beliefs).unwrap_err();
        assert!(matches!(err, AwarenessError::BadBeliefGame { target: 5 }));
    }

    #[test]
    fn modeler_index_is_validated() {
        let aug = AugmentedGame::new("Γ_m", classic::figure1_game());
        let err = GameWithAwareness::new(vec![aug], 3, BTreeMap::new()).unwrap_err();
        assert!(matches!(err, AwarenessError::BadModelerIndex { index: 3 }));
        let err = GameWithAwareness::new(vec![], 0, BTreeMap::new()).unwrap_err();
        assert!(matches!(err, AwarenessError::NoGames));
    }

    #[test]
    fn strategy_domain_of_canonical_representation_is_one_pair_per_player() {
        let gwa = canonical_representation(classic::figure1_game());
        let domain = gwa.strategy_domain();
        assert_eq!(domain, vec![(0, 0), (1, 0)]);
    }
}
