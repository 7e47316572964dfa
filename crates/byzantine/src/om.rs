//! The Oral Messages problem OM(m) of Lamport, Shostak and Pease: its
//! configuration, the traitors' lies and the majority rule.
//!
//! This is the protocol behind the `t < n/3` feasibility boundary that the
//! paper's mediator-implementation theorems inherit. OM(m) solves the
//! Byzantine generals problem — one commander (the paper's "general",
//! process 0) sends an order to `n − 1` lieutenants, up to `t` of all
//! participants may be traitors — whenever `n > 3t` and `m ≥ t`:
//!
//! * **IC1 (agreement)**: all loyal lieutenants obey the same order;
//! * **IC2 (validity)**: if the commander is loyal, every loyal lieutenant
//!   obeys the commander's order.
//!
//! The protocol itself runs as message-passing processes in
//! [`crate::om_process`] (the exponential-information-gathering
//! formulation), its one implementation. Traitors lie per a
//! [`TraitorStrategy`].

use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// How traitors lie when they relay values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraitorStrategy {
    /// Send the negation of the value they should have sent.
    Flip,
    /// Send `0` to even-numbered recipients and `1` to odd-numbered ones
    /// (maximally splits the loyal lieutenants).
    SplitByParity,
    /// Send a fixed value to everyone.
    Fixed(Value),
    /// Stay silent; recipients fall back to the default value.
    Silent,
}

/// Configuration of one OM(m) execution.
#[derive(Debug, Clone)]
pub struct OmConfig {
    /// Total number of participants (commander + lieutenants).
    pub n: usize,
    /// Relay depth `m` (set it to the number of traitors to get the
    /// classical guarantee).
    pub m: usize,
    /// The commander's order.
    pub commander_value: Value,
    /// Identities of the traitors (may include the commander, process 0).
    pub traitors: BTreeSet<usize>,
    /// How traitors lie.
    pub strategy: TraitorStrategy,
    /// The value loyal lieutenants fall back to when they receive nothing.
    pub default_value: Value,
}

/// Majority of a list of binary-ish values; ties and empty input go to the
/// default. The EIG processes of [`crate::om_process`] resolve their
/// information trees with it.
pub(crate) fn majority(values: &[Value], default: Value) -> Value {
    let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut best: Option<(Value, usize)> = None;
    let mut tie = false;
    for (&v, &c) in &counts {
        match best {
            None => best = Some((v, c)),
            Some((_, bc)) if c > bc => {
                best = Some((v, c));
                tie = false;
            }
            Some((_, bc)) if c == bc => tie = true,
            _ => {}
        }
    }
    match best {
        Some((v, _)) if !tie => v,
        _ => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::om_process::run_om_process;

    fn config(n: usize, m: usize, traitors: &[usize], strategy: TraitorStrategy) -> OmConfig {
        OmConfig {
            n,
            m,
            commander_value: 1,
            traitors: traitors.iter().copied().collect(),
            strategy,
            default_value: 0,
        }
    }

    #[test]
    fn insufficient_recursion_depth_can_break_agreement() {
        // n = 7 > 3t with t = 2, but m = 1 < t voids the guarantee: a
        // parity-splitting commander and lieutenant 2 split the loyal
        // lieutenants, and m = t restores agreement
        let agree = |m| {
            let cfg = config(7, m, &[0, 2], TraitorStrategy::SplitByParity);
            let (decisions, _) = run_om_process(&cfg);
            let values: Vec<Value> = [1, 3, 4, 5, 6]
                .map(|i| decisions[i].expect("loyal lieutenants decide"))
                .to_vec();
            values.windows(2).all(|w| w[0] == w[1])
        };
        assert!(!agree(1));
        assert!(agree(2));
    }

    #[test]
    fn message_count_grows_with_recursion_depth() {
        let messages = |n, m| {
            let (_, stats) = run_om_process(&config(n, m, &[], TraitorStrategy::Flip));
            stats.messages_sent
        };
        assert!(messages(7, 2) > messages(7, 1));
        // OM(0) is the commander's round alone: n − 1 messages
        assert_eq!(messages(5, 0), 4);
    }

    #[test]
    fn majority_helper_breaks_ties_with_default() {
        assert_eq!(majority(&[0, 1], 7), 7);
        assert_eq!(majority(&[1, 1, 0], 7), 1);
        assert_eq!(majority(&[], 7), 7);
    }
}
