//! Example 3.2: finitely repeated prisoner's dilemma with costly memory.
//!
//! Classically the only Nash equilibrium of FRPD is to always defect
//! (backward induction). The paper's computational account: charge even a
//! modest amount for memory and discount rewards by `δ ∈ (0.5, 1)`; then for
//! a sufficiently long game the pair (tit-for-tat, tit-for-tat) is a Nash
//! equilibrium, because the best response — play tit-for-tat but defect in
//! the last round — requires keeping track of the round number, and the
//! discounted extra $2 from the final-round defection is not worth the
//! memory cost.
//!
//! This module analyses that trade-off exactly: the candidate deviations are
//! "defect in the last `d` rounds" strategies whose extra memory is the
//! counter needed to know when the end is near.

use bne_games::classic;
use bne_games::repeated::{RepeatedGame, TitForTat, TitForTatDefectLast};
use bne_games::Utility;

/// The memory-cost model for FRPD machine strategies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCostModel {
    /// Cost per unit of memory used by the strategy over the whole game.
    pub cost_per_cell: f64,
    /// Memory cells used by plain tit-for-tat (it only stores the
    /// opponent's last move).
    pub tft_cells: u64,
    /// Additional cells needed to maintain a round counter (the paper's
    /// "keep track of the round number").
    pub counter_cells: u64,
}

impl Default for MemoryCostModel {
    fn default() -> Self {
        MemoryCostModel {
            cost_per_cell: 0.1,
            tft_cells: 1,
            counter_cells: 1,
        }
    }
}

/// The result of analysing one `(rounds, discount, cost)` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FrpdAnalysis {
    /// Number of rounds `N`.
    pub rounds: usize,
    /// Discount factor `δ`.
    pub discount: f64,
    /// Discounted value of mutual tit-for-tat (per player), before memory
    /// costs.
    pub tft_value: Utility,
    /// The best deviation value found (defect in the last `d` rounds for the
    /// best `d ≥ 1`), before memory costs.
    pub best_deviation_value: Utility,
    /// Memory cost paid by tit-for-tat.
    pub tft_cost: f64,
    /// Memory cost paid by the deviating strategy (needs the round counter).
    pub deviation_cost: f64,
    /// Whether (tit-for-tat, tit-for-tat) is a computational Nash
    /// equilibrium under this cost model: no deviation nets more after
    /// paying for its memory.
    pub tft_is_equilibrium: bool,
}

/// Analyses whether mutual tit-for-tat is a computational Nash equilibrium
/// of `N`-round FRPD with discount `δ` under the given memory-cost model.
///
/// The deviations considered are the "tit-for-tat but defect in the last `d`
/// rounds" family for `d = 1..=N` — the best responses to tit-for-tat in the
/// classical analysis (they all require the round counter).
///
/// # Panics
///
/// Panics if `rounds == 0` or `discount` is outside `(0, 1]`.
pub fn analyze_tit_for_tat(rounds: usize, discount: f64, cost: MemoryCostModel) -> FrpdAnalysis {
    let game = RepeatedGame::new(classic::prisoners_dilemma(), rounds, discount)
        .expect("valid FRPD parameters");
    let mut tft_a = TitForTat;
    let mut tft_b = TitForTat;
    let tft_value = game.play(&mut tft_a, &mut tft_b).payoffs[1];

    let mut best_deviation_value = f64::NEG_INFINITY;
    for defect_last in 1..=rounds {
        let mut honest = TitForTat;
        let mut deviant = TitForTatDefectLast {
            total_rounds: rounds,
            defect_last,
        };
        let value = game.play(&mut honest, &mut deviant).payoffs[1];
        if value > best_deviation_value {
            best_deviation_value = value;
        }
    }

    let tft_cost = cost.cost_per_cell * cost.tft_cells as f64;
    let deviation_cost = cost.cost_per_cell * (cost.tft_cells + cost.counter_cells) as f64;
    let tft_net = tft_value - tft_cost;
    let deviation_net = best_deviation_value - deviation_cost;
    FrpdAnalysis {
        rounds,
        discount,
        tft_value,
        best_deviation_value,
        tft_cost,
        deviation_cost,
        tft_is_equilibrium: deviation_net <= tft_net + 1e-12,
    }
}

/// The smallest number of rounds `N ≤ max_rounds` for which mutual
/// tit-for-tat becomes a computational Nash equilibrium, or `None` if it
/// never does within the bound. The paper's claim is that for any positive
/// memory cost and `δ ∈ (0.5, 1)` such an `N` exists.
pub fn equilibrium_threshold(
    discount: f64,
    cost: MemoryCostModel,
    max_rounds: usize,
) -> Option<usize> {
    (1..=max_rounds).find(|&n| analyze_tit_for_tat(n, discount, cost).tft_is_equilibrium)
}

/// Verifies the classical backward-induction benchmark: with free
/// computation and no discounting, always-defect is the unique subgame
/// outcome and tit-for-tat is *not* an equilibrium (the deviation of
/// defecting in the last round strictly gains).
pub fn classical_tft_is_not_equilibrium(rounds: usize) -> bool {
    let analysis = analyze_tit_for_tat(
        rounds,
        1.0,
        MemoryCostModel {
            cost_per_cell: 0.0,
            ..MemoryCostModel::default()
        },
    );
    !analysis.tft_is_equilibrium
}

/// One row of the E7 sweep: the equilibrium threshold as a function of the
/// discount factor and the memory cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRow {
    /// Discount factor δ.
    pub discount: f64,
    /// Memory cost per cell.
    pub memory_cost: f64,
    /// Smallest N at which tit-for-tat becomes an equilibrium (None = not
    /// within the sweep bound).
    pub threshold: Option<usize>,
}

/// Sweeps discount factors and memory costs, reporting the tit-for-tat
/// equilibrium threshold for each combination (experiment E7).
pub fn threshold_sweep(
    discounts: &[f64],
    memory_costs: &[f64],
    max_rounds: usize,
) -> Vec<ThresholdRow> {
    let mut rows = Vec::new();
    for &discount in discounts {
        for &memory_cost in memory_costs {
            let cost = MemoryCostModel {
                cost_per_cell: memory_cost,
                ..MemoryCostModel::default()
            };
            rows.push(ThresholdRow {
                discount,
                memory_cost,
                threshold: equilibrium_threshold(discount, cost, max_rounds),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_memory_costs_tft_is_not_an_equilibrium() {
        // the classical result: defecting at the end strictly gains
        assert!(classical_tft_is_not_equilibrium(10));
        assert!(classical_tft_is_not_equilibrium(50));
    }

    #[test]
    fn with_memory_costs_and_discounting_tft_becomes_an_equilibrium() {
        // δ = 0.9, memory cost 0.1 per cell: the discounted last-round gain
        // δ^N · 2 shrinks below 0.1 once N is large enough.
        let cost = MemoryCostModel::default();
        let threshold = equilibrium_threshold(0.9, cost, 200).expect("threshold exists");
        assert!(threshold > 1);
        // before the threshold it is not an equilibrium, after it is
        let before = analyze_tit_for_tat(threshold - 1, 0.9, cost);
        assert!(!before.tft_is_equilibrium);
        let after = analyze_tit_for_tat(threshold + 5, 0.9, cost);
        assert!(after.tft_is_equilibrium);
    }

    #[test]
    fn threshold_matches_hand_computation() {
        // The best deviation defects only in the last round, gaining
        // (5 − 3)·δ^N = 2·δ^N (paper's "extra gain of $2"), and costs one
        // extra memory cell. So the threshold is the smallest N with
        // 2·δ^N ≤ cost.
        let cost = MemoryCostModel {
            cost_per_cell: 0.1,
            tft_cells: 1,
            counter_cells: 1,
        };
        let delta: f64 = 0.9;
        let threshold = equilibrium_threshold(delta, cost, 300).unwrap();
        let predicted = (0.1f64 / 2.0).ln() / delta.ln();
        assert_eq!(threshold, predicted.ceil() as usize);
    }

    #[test]
    fn higher_memory_cost_lowers_the_threshold() {
        let cheap = MemoryCostModel {
            cost_per_cell: 0.01,
            ..MemoryCostModel::default()
        };
        let expensive = MemoryCostModel {
            cost_per_cell: 1.0,
            ..MemoryCostModel::default()
        };
        let t_cheap = equilibrium_threshold(0.8, cheap, 500).unwrap();
        let t_expensive = equilibrium_threshold(0.8, expensive, 500).unwrap();
        assert!(t_expensive < t_cheap);
    }

    #[test]
    fn tft_value_exceeds_all_defect_value() {
        // the whole point of the example: the "irrational" cooperators do
        // much better than the classical equilibrium players
        let a = analyze_tit_for_tat(20, 0.9, MemoryCostModel::default());
        let all_defect = RepeatedGame::new(classic::prisoners_dilemma(), 20, 0.9)
            .expect("valid FRPD parameters")
            .constant_profile_value(&[1, 1], 0);
        assert!(a.tft_value > all_defect);
    }

    #[test]
    fn sweep_produces_one_row_per_combination() {
        let rows = threshold_sweep(&[0.8, 0.9], &[0.05, 0.1, 0.5], 200);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.threshold.is_some()));
    }
}
