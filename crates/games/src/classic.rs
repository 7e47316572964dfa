//! The zoo of concrete games that appear in the paper (plus a few standard
//! companions used in tests and benchmarks).
//!
//! * [`prisoners_dilemma`] — the payoff table of Section 3;
//! * [`roshambo`] — rock-paper-scissors of Example 3.3;
//! * [`coordination_game`] — the n-player 0/1 game of Section 2 showing a
//!   Nash equilibrium that is not 2-resilient;
//! * [`bargaining_game`] — the n-player stay/leave game of Section 2 showing
//!   an equilibrium that is k-resilient for every k but not 1-immune;
//! * [`attack_retreat_game`] — the normal-form skeleton of Byzantine
//!   agreement used to motivate mediators;
//! * [`figure1_game`] — the extensive-form game of Figure 1 used to motivate
//!   awareness.

use crate::extensive::{ExtensiveGame, Node};
use crate::normal_form::{NormalFormBuilder, NormalFormGame};
use crate::profile::ProfileIter;

/// The prisoner's dilemma exactly as tabulated in Section 3 of the paper.
///
/// Action 0 is Cooperate, action 1 is Defect.
///
/// ```text
///          C           D
///  C    (3, 3)     (-5, 5)
///  D    (5, -5)    (-3, -3)
/// ```
pub fn prisoners_dilemma() -> NormalFormGame {
    NormalFormBuilder::new("prisoner's dilemma")
        .player("Row", &["Cooperate", "Defect"])
        .player("Column", &["Cooperate", "Defect"])
        .payoff(&[0, 0], &[3.0, 3.0])
        .payoff(&[0, 1], &[-5.0, 5.0])
        .payoff(&[1, 0], &[5.0, -5.0])
        .payoff(&[1, 1], &[-3.0, -3.0])
        .build()
        .expect("static game construction cannot fail")
}

/// A conventional prisoner's dilemma with non-negative payoffs
/// (T=5, R=3, P=1, S=0), used by the Axelrod tournament experiments where
/// cumulative scores are conventionally non-negative.
pub fn prisoners_dilemma_axelrod() -> NormalFormGame {
    NormalFormBuilder::new("prisoner's dilemma (Axelrod payoffs)")
        .player("Row", &["Cooperate", "Defect"])
        .player("Column", &["Cooperate", "Defect"])
        .payoff(&[0, 0], &[3.0, 3.0])
        .payoff(&[0, 1], &[0.0, 5.0])
        .payoff(&[1, 0], &[5.0, 0.0])
        .payoff(&[1, 1], &[1.0, 1.0])
        .build()
        .expect("static game construction cannot fail")
}

/// Rock–paper–scissors (roshambo) as in Example 3.3: actions 0, 1, 2 and
/// player 1 wins when `i = j ⊕ 1` (addition mod 3). Zero-sum.
pub fn roshambo() -> NormalFormGame {
    let mut b = NormalFormBuilder::new("roshambo")
        .player("P1", &["Rock", "Paper", "Scissors"])
        .player("P2", &["Rock", "Paper", "Scissors"]);
    for i in 0..3usize {
        for j in 0..3usize {
            let u1 = if i == (j + 1) % 3 {
                1.0
            } else if j == (i + 1) % 3 {
                -1.0
            } else {
                0.0
            };
            b = b.payoff(&[i, j], &[u1, -u1]);
        }
    }
    b.build().expect("static game construction cannot fail")
}

/// Matching pennies: the even player wins when the coins match.
pub fn matching_pennies() -> NormalFormGame {
    NormalFormBuilder::new("matching pennies")
        .player("Even", &["Heads", "Tails"])
        .player("Odd", &["Heads", "Tails"])
        .payoff(&[0, 0], &[1.0, -1.0])
        .payoff(&[0, 1], &[-1.0, 1.0])
        .payoff(&[1, 0], &[-1.0, 1.0])
        .payoff(&[1, 1], &[1.0, -1.0])
        .build()
        .expect("static game construction cannot fail")
}

/// Battle of the sexes: two pure equilibria with asymmetric payoffs, used to
/// illustrate the "which equilibrium will be played?" critique in the
/// introduction.
pub fn battle_of_the_sexes() -> NormalFormGame {
    NormalFormBuilder::new("battle of the sexes")
        .player("P1", &["Ballet", "Football"])
        .player("P2", &["Ballet", "Football"])
        .payoff(&[0, 0], &[2.0, 1.0])
        .payoff(&[1, 1], &[1.0, 2.0])
        .payoff(&[0, 1], &[0.0, 0.0])
        .payoff(&[1, 0], &[0.0, 0.0])
        .build()
        .expect("static game construction cannot fail")
}

/// The n-player 0/1 coordination example from Section 2 of the paper.
///
/// Every player plays 0 or 1.
///
/// * If everyone plays 0, everyone gets 1.
/// * If exactly two players play 1 (and the rest 0), those two get 2 and
///   everyone else gets 0.
/// * Otherwise everyone gets 0.
///
/// "All play 0" is a Nash equilibrium, but any *pair* of players can deviate
/// together and both do better — it is not 2-resilient.
pub fn coordination_game(n: usize) -> NormalFormGame {
    assert!(n > 1, "the coordination example needs more than one player");
    let actions = vec![vec!["0".to_string(), "1".to_string()]; n];
    let radices = vec![2usize; n];
    let mut payoffs = vec![Vec::with_capacity(1 << n); n];
    for profile in ProfileIter::new(&radices) {
        let ones: Vec<usize> = profile
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == 1)
            .map(|(p, _)| p)
            .collect();
        for (p, table) in payoffs.iter_mut().enumerate() {
            let u = if ones.is_empty() {
                1.0
            } else if ones.len() == 2 {
                if ones.contains(&p) {
                    2.0
                } else {
                    0.0
                }
            } else {
                0.0
            };
            table.push(u);
        }
    }
    NormalFormGame::new(format!("0/1 coordination (n = {n})"), actions, payoffs)
        .expect("static game construction cannot fail")
}

/// The n-player bargaining example from Section 2 of the paper.
///
/// Every player decides to Stay (action 0) at the bargaining table or Leave
/// (action 1).
///
/// * If everyone stays, everyone gets 2.
/// * If anyone leaves, the leavers get 1 and the stayers get 0.
///
/// "Everyone stays" is k-resilient for every k (deviating coalitions go from
/// 2 down to 1) and Pareto optimal, yet it is not 1-immune: a single
/// deviator drops every non-deviator from 2 to 0.
pub fn bargaining_game(n: usize) -> NormalFormGame {
    assert!(n > 1, "the bargaining example needs more than one player");
    let actions = vec![vec!["Stay".to_string(), "Leave".to_string()]; n];
    let radices = vec![2usize; n];
    let mut payoffs = vec![Vec::with_capacity(1 << n); n];
    for profile in ProfileIter::new(&radices) {
        let any_left = profile.contains(&1);
        for (p, table) in payoffs.iter_mut().enumerate() {
            let u = if !any_left {
                2.0
            } else if profile[p] == 1 {
                1.0
            } else {
                0.0
            };
            table.push(u);
        }
    }
    NormalFormGame::new(format!("bargaining (n = {n})"), actions, payoffs)
        .expect("static game construction cannot fail")
}

/// A normal-form skeleton of the Byzantine-agreement "attack/retreat" game.
///
/// Every player chooses Attack (0) or Retreat (1). Nonfaulty players want to
/// coordinate: if all `n` players choose the same action everyone gets 1,
/// otherwise everyone gets 0. (The full Bayesian game with the general's
/// preference as a type lives in `bne-mediator`.)
pub fn attack_retreat_game(n: usize) -> NormalFormGame {
    assert!(n > 1, "attack/retreat needs more than one player");
    let actions = vec![vec!["Attack".to_string(), "Retreat".to_string()]; n];
    let radices = vec![2usize; n];
    let mut payoffs = vec![Vec::with_capacity(1 << n); n];
    for profile in ProfileIter::new(&radices) {
        let all_same = profile.iter().all(|&a| a == profile[0]);
        for table in payoffs.iter_mut() {
            table.push(if all_same { 1.0 } else { 0.0 });
        }
    }
    NormalFormGame::new(format!("attack/retreat (n = {n})"), actions, payoffs)
        .expect("static game construction cannot fail")
}

/// The extensive-form game of Figure 1 in the paper (payoffs follow the
/// Halpern–Rêgo example the figure is taken from).
///
/// * Player A moves first: `downA` ends the game with payoffs (1, 1);
///   `acrossA` passes the move to B.
/// * Player B then chooses `downB`, giving (2, 3), or `acrossB`, giving
///   (0, 2).
///
/// The Nash equilibrium highlighted in the paper is (acrossA, downB). If A
/// is unaware that B can play `downB`, A expects `acrossB` after `acrossA`
/// (payoff 0 for A) and therefore plays `downA`.
///
/// Information set 0 belongs to A, information set 1 to B. Action index 0 is
/// "down", action index 1 is "across" for both players.
pub fn figure1_game() -> ExtensiveGame {
    let nodes = vec![
        // 0: A moves
        Node::Decision {
            player: 0,
            info_set: 0,
            actions: vec![("downA".to_string(), 1), ("acrossA".to_string(), 2)],
        },
        // 1: A went down
        Node::Terminal {
            payoffs: vec![1.0, 1.0],
        },
        // 2: B moves
        Node::Decision {
            player: 1,
            info_set: 1,
            actions: vec![("downB".to_string(), 3), ("acrossB".to_string(), 4)],
        },
        // 3: B went down
        Node::Terminal {
            payoffs: vec![2.0, 3.0],
        },
        // 4: B went across
        Node::Terminal {
            payoffs: vec![0.0, 2.0],
        },
    ];
    ExtensiveGame::new("Figure 1 game", 2, nodes, 0).expect("static game construction cannot fail")
}

/// The Figure 1 game as seen by a player who is **unaware** of B's `downB`
/// move (the game ΓB of Figure 3): B's only move after `acrossA` is
/// `acrossB`.
pub fn figure1_game_unaware() -> ExtensiveGame {
    let nodes = vec![
        Node::Decision {
            player: 0,
            info_set: 0,
            actions: vec![("downA".to_string(), 1), ("acrossA".to_string(), 2)],
        },
        Node::Terminal {
            payoffs: vec![1.0, 1.0],
        },
        Node::Decision {
            player: 1,
            info_set: 1,
            actions: vec![("acrossB".to_string(), 3)],
        },
        Node::Terminal {
            payoffs: vec![0.0, 2.0],
        },
    ];
    ExtensiveGame::new("Figure 1 game (unaware of downB)", 2, nodes, 0)
        .expect("static game construction cannot fail")
}

/// A two-player, three-action zero-sum game with a known mixed equilibrium,
/// used as solver test material (it is roshambo with asymmetric stakes).
pub fn weighted_roshambo() -> NormalFormGame {
    let mut b = NormalFormBuilder::new("weighted roshambo")
        .player("P1", &["Rock", "Paper", "Scissors"])
        .player("P2", &["Rock", "Paper", "Scissors"]);
    // winning with rock pays 2, otherwise 1
    for i in 0..3usize {
        for j in 0..3usize {
            let u1 = if i == (j + 1) % 3 {
                if i == 0 {
                    2.0
                } else {
                    1.0
                }
            } else if j == (i + 1) % 3 {
                if j == 0 {
                    -2.0
                } else {
                    -1.0
                }
            } else {
                0.0
            };
            b = b.payoff(&[i, j], &[u1, -u1]);
        }
    }
    b.build().expect("static game construction cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pd_matches_paper_table() {
        let pd = prisoners_dilemma();
        assert_eq!(pd.payoff_vector(&[0, 0]), vec![3.0, 3.0]);
        assert_eq!(pd.payoff_vector(&[0, 1]), vec![-5.0, 5.0]);
        assert_eq!(pd.payoff_vector(&[1, 0]), vec![5.0, -5.0]);
        assert_eq!(pd.payoff_vector(&[1, 1]), vec![-3.0, -3.0]);
    }

    #[test]
    fn roshambo_is_zero_sum_with_cyclic_wins() {
        let g = roshambo();
        assert!(g.is_zero_sum());
        // paper convention: player 1 wins when i = j ⊕ 1
        assert_eq!(g.payoff(0, &[1, 0]), 1.0); // paper beats rock
        assert_eq!(g.payoff(0, &[2, 1]), 1.0); // scissors beats paper
        assert_eq!(g.payoff(0, &[0, 2]), 1.0); // rock beats scissors
        assert_eq!(g.payoff(0, &[0, 0]), 0.0);
        // no pure equilibrium
        assert!(g.profiles().all(|p| !g.is_pure_nash(&p)));
    }

    #[test]
    fn coordination_all_zero_is_nash_with_pair_deviation_gain() {
        let g = coordination_game(5);
        let all_zero = vec![0; 5];
        assert!(g.is_pure_nash(&all_zero));
        assert_eq!(g.payoff(0, &all_zero), 1.0);
        // if players 0 and 1 both deviate to 1 they get 2
        let mut dev = all_zero.clone();
        dev[0] = 1;
        dev[1] = 1;
        assert_eq!(g.payoff(0, &dev), 2.0);
        assert_eq!(g.payoff(1, &dev), 2.0);
        assert_eq!(g.payoff(2, &dev), 0.0);
    }

    #[test]
    fn coordination_single_deviation_does_not_pay() {
        let g = coordination_game(4);
        let mut one_dev = vec![0; 4];
        one_dev[2] = 1;
        assert_eq!(g.payoff(2, &one_dev), 0.0);
    }

    #[test]
    fn bargaining_everyone_staying_is_nash_and_pareto() {
        let g = bargaining_game(6);
        let all_stay = vec![0; 6];
        assert!(g.is_pure_nash(&all_stay));
        assert!(g.is_pareto_optimal(&all_stay));
        assert_eq!(g.payoff(0, &all_stay), 2.0);
        // a single leaver gets 1 and hurts everyone else
        let mut one_leaves = all_stay.clone();
        one_leaves[3] = 1;
        assert_eq!(g.payoff(3, &one_leaves), 1.0);
        assert_eq!(g.payoff(0, &one_leaves), 0.0);
    }

    #[test]
    fn attack_retreat_coordinated_profiles_are_equilibria() {
        let g = attack_retreat_game(4);
        assert!(g.is_pure_nash(&[0; 4]));
        assert!(g.is_pure_nash(&[1; 4]));
        // one lone dissenter can switch and restore unanimity, so a
        // 3-vs-1 split is not an equilibrium
        assert!(!g.is_pure_nash(&[0, 0, 0, 1]));
    }

    #[test]
    fn figure1_unaware_variant_has_single_b_move() {
        let g = figure1_game_unaware();
        let sets = g.info_sets_of(1);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].1, 1);
        // backward induction now sends A down
        let (strategy, values) = g.backward_induction().unwrap();
        assert_eq!(strategy.get(0), Some(0));
        assert_eq!(values, vec![1.0, 1.0]);
    }

    #[test]
    fn battle_of_sexes_has_two_pure_equilibria() {
        let g = battle_of_the_sexes();
        let eq: Vec<_> = g.profiles().filter(|p| g.is_pure_nash(p)).collect();
        assert_eq!(eq.len(), 2);
    }

    #[test]
    fn weighted_roshambo_zero_sum() {
        assert!(weighted_roshambo().is_zero_sum());
    }

    #[test]
    fn axelrod_pd_defect_dominates() {
        let g = prisoners_dilemma_axelrod();
        assert!(g.strictly_dominates(0, 1, 0));
        assert!(g.is_pure_nash(&[1, 1]));
    }
}
