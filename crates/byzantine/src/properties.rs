//! Agreement and validity checking for Byzantine agreement executions, plus
//! the sweep helper used by experiment E4 (the t < n/3 boundary table).

use crate::om::{OmConfig, TraitorStrategy};
use crate::om_process::run_om_process;
use crate::Value;
use std::collections::BTreeSet;

/// The classical correctness conditions of Byzantine agreement, evaluated on
/// the decisions of the honest processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreementReport {
    /// All honest processes decided.
    pub all_decided: bool,
    /// All honest decisions are equal (IC1).
    pub agreement: bool,
    /// If the source/general is honest, every honest decision equals its
    /// preference (IC2). Vacuously true when the general is faulty.
    pub validity: bool,
}

impl AgreementReport {
    /// Whether the execution satisfies all conditions.
    pub fn correct(&self) -> bool {
        self.all_decided && self.agreement && self.validity
    }
}

/// Checks agreement over a slice of optional decisions, where `honest[i]`
/// says whether process `i` is honest. Faulty processes' entries are
/// ignored.
pub fn check_agreement(decisions: &[Option<Value>], honest: &[bool]) -> bool {
    let honest_values: Vec<Value> = decisions
        .iter()
        .zip(honest.iter())
        .filter(|(_, &h)| h)
        .filter_map(|(d, _)| *d)
        .collect();
    honest_values.windows(2).all(|w| w[0] == w[1])
}

/// Checks validity: every honest decision equals `expected` (use only when
/// the source is honest).
pub fn check_validity(decisions: &[Option<Value>], honest: &[bool], expected: Value) -> bool {
    decisions
        .iter()
        .zip(honest.iter())
        .filter(|(_, &h)| h)
        .all(|(d, _)| *d == Some(expected))
}

/// Builds the full [`AgreementReport`] from decisions and the honesty mask.
pub fn report(
    decisions: &[Option<Value>],
    honest: &[bool],
    general_honest: bool,
    general_preference: Value,
) -> AgreementReport {
    let all_decided = decisions
        .iter()
        .zip(honest.iter())
        .filter(|(_, &h)| h)
        .all(|(d, _)| d.is_some());
    let agreement = check_agreement(decisions, honest);
    let validity = if general_honest {
        check_validity(decisions, honest, general_preference)
    } else {
        true
    };
    AgreementReport {
        all_decided,
        agreement,
        validity,
    }
}

/// The correctness conditions of **reliable broadcast** (Bracha), evaluated
/// on the honest processes' delivered values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbReport {
    /// Validity: the honest broadcaster's value was delivered by every
    /// honest process (vacuously true when the broadcaster is faulty).
    pub validity: bool,
    /// Agreement: no two honest processes delivered different values.
    pub agreement: bool,
    /// Totality: if any honest process delivered, every honest process
    /// delivered.
    pub totality: bool,
}

impl RbReport {
    /// Whether all three conditions hold.
    pub fn correct(&self) -> bool {
        self.validity && self.agreement && self.totality
    }
}

/// Builds the [`RbReport`] of one reliable-broadcast execution.
/// `delivered[i]` is process `i`'s delivered value (if any), `honest[i]`
/// its honesty; `broadcaster_value` is `Some(v)` when the broadcaster is
/// honest and broadcast `v`.
pub fn rb_report(
    delivered: &[Option<Value>],
    honest: &[bool],
    broadcaster_value: Option<Value>,
) -> RbReport {
    let honest_deliveries: Vec<Option<Value>> = delivered
        .iter()
        .zip(honest.iter())
        .filter(|(_, &h)| h)
        .map(|(d, _)| *d)
        .collect();
    let validity = match broadcaster_value {
        Some(v) => honest_deliveries.iter().all(|d| *d == Some(v)),
        None => true,
    };
    let agreement = check_agreement(delivered, honest);
    let any = honest_deliveries.iter().any(|d| d.is_some());
    let totality = !any || honest_deliveries.iter().all(|d| d.is_some());
    RbReport {
        validity,
        agreement,
        totality,
    }
}

/// One row of the E4 sweep: for a given `(n, t)`, whether OM(t) with the
/// worst adversary we implement preserved agreement and validity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundarySweepRow {
    /// Number of processes.
    pub n: usize,
    /// Number of traitors.
    pub t: usize,
    /// Whether `n > 3t` (the theoretical feasibility condition).
    pub theoretically_possible: bool,
    /// Whether agreement held in the simulated execution.
    pub agreement: bool,
    /// Whether validity held (general honest case).
    pub validity: bool,
    /// Messages used by OM(t).
    pub messages: usize,
}

/// Runs the OM(t) boundary sweep used by experiment E4: for each `(n, t)`,
/// places the traitors adversarially (commander first when `commander_faulty`
/// is set) and uses the parity-splitting lie.
pub fn om_boundary_sweep(
    max_n: usize,
    max_t: usize,
    commander_faulty: bool,
) -> Vec<BoundarySweepRow> {
    let mut rows = Vec::new();
    for n in 2..=max_n {
        for t in 0..=max_t.min(n - 1) {
            let traitors: BTreeSet<usize> = if commander_faulty {
                (0..t).collect()
            } else {
                (1..=t).collect()
            };
            // the loyal lieutenants are judged; the commander is not
            let honest: Vec<bool> = (0..n).map(|i| i != 0 && !traitors.contains(&i)).collect();
            let general_honest = !traitors.contains(&0);
            let config = OmConfig {
                n,
                m: t,
                commander_value: 1,
                traitors,
                strategy: TraitorStrategy::SplitByParity,
                default_value: 0,
            };
            let (decisions, stats) = run_om_process(&config);
            let verdict = report(&decisions, &honest, general_honest, 1);
            rows.push(BoundarySweepRow {
                n,
                t,
                theoretically_possible: n > 3 * t,
                agreement: verdict.agreement,
                validity: verdict.validity,
                messages: stats.messages_sent,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_and_validity_helpers() {
        let decisions = vec![Some(1), Some(1), None, Some(1)];
        let honest = vec![true, true, false, true];
        assert!(check_agreement(&decisions, &honest));
        assert!(check_validity(&decisions, &honest, 1));
        assert!(!check_validity(&decisions, &honest, 0));

        let decisions = vec![Some(1), Some(0), Some(1)];
        let honest = vec![true, true, true];
        assert!(!check_agreement(&decisions, &honest));
    }

    #[test]
    fn faulty_entries_are_ignored() {
        let decisions = vec![Some(1), Some(0)];
        let honest = vec![true, false];
        assert!(check_agreement(&decisions, &honest));
        let r = report(&decisions, &honest, true, 1);
        assert!(r.correct());
    }

    #[test]
    fn report_flags_missing_decisions() {
        let decisions = vec![Some(1), None];
        let honest = vec![true, true];
        let r = report(&decisions, &honest, true, 1);
        assert!(!r.all_decided);
        assert!(!r.correct());
    }

    #[test]
    fn rb_report_covers_the_three_conditions() {
        let honest = vec![true, true, true, false];
        // all honest delivered the broadcast value: fully correct
        let r = rb_report(&[Some(1), Some(1), Some(1), None], &honest, Some(1));
        assert!(r.correct());
        // one honest delivery missing: totality (and validity) broken
        let r = rb_report(&[Some(1), None, Some(1), None], &honest, Some(1));
        assert!(!r.totality);
        assert!(!r.validity);
        assert!(r.agreement, "agreement only constrains actual deliveries");
        // split deliveries: agreement broken, totality fine
        let r = rb_report(&[Some(1), Some(0), Some(1), None], &honest, None);
        assert!(!r.agreement);
        assert!(r.totality);
        assert!(r.validity, "vacuous under a faulty broadcaster");
        // nobody delivered anything: totality vacuous, validity not
        let r = rb_report(&[None, None, None, None], &honest, Some(1));
        assert!(r.totality);
        assert!(!r.validity);
    }

    #[test]
    fn boundary_sweep_matches_theory_when_feasible() {
        // whenever n > 3t the simulated OM(t) run must be correct
        for row in om_boundary_sweep(8, 2, false) {
            if row.theoretically_possible {
                assert!(
                    row.agreement && row.validity,
                    "n = {}, t = {} should succeed",
                    row.n,
                    row.t
                );
            }
        }
    }

    #[test]
    fn boundary_sweep_rows_are_pinned() {
        // (n, t, agreement, validity, messages) of every row e4 draws
        // from; t = 0 rows are pinned too, though e4 does not print them
        let expected = [
            (2, 0, true, true, 1),
            (2, 1, true, true, 1),
            (3, 0, true, true, 2),
            (3, 1, true, false, 4),
            (3, 2, true, true, 4),
            (4, 0, true, true, 3),
            (4, 1, true, true, 9),
            (4, 2, true, true, 15),
            (5, 0, true, true, 4),
            (5, 1, true, true, 16),
            (5, 2, false, false, 40),
            (6, 0, true, true, 5),
            (6, 1, true, true, 25),
            (6, 2, false, false, 85),
            (7, 0, true, true, 6),
            (7, 1, true, true, 36),
            (7, 2, true, true, 156),
            (8, 0, true, true, 7),
            (8, 1, true, true, 49),
            (8, 2, true, true, 259),
            (9, 0, true, true, 8),
            (9, 1, true, true, 64),
            (9, 2, true, true, 400),
            (10, 0, true, true, 9),
            (10, 1, true, true, 81),
            (10, 2, true, true, 585),
        ];
        let rows: Vec<_> = om_boundary_sweep(10, 2, false)
            .into_iter()
            .map(|r| (r.n, r.t, r.agreement, r.validity, r.messages))
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn boundary_sweep_shows_failures_below_the_bound() {
        // the classic n = 3, t = 1 case with an honest commander and one
        // traitorous lieutenant must violate validity
        let rows = om_boundary_sweep(4, 1, false);
        let bad = rows
            .iter()
            .find(|r| r.n == 3 && r.t == 1)
            .expect("row exists");
        assert!(!bad.theoretically_possible);
        assert!(
            !(bad.agreement && bad.validity),
            "correctness should fail when n ≤ 3t"
        );
    }
}
