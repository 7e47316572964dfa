//! Canonical word encodings for state keys.
//!
//! The explorer keys each visited state by interned parts, and every
//! part is an **exact** word sequence: two states share a key iff their
//! canonical encodings are equal word-for-word. Hashes only index the
//! interner; a hash hit is confirmed by comparing every word, because a
//! collision taken on trust would silently merge two distinct states,
//! prune a reachable successor, and turn a "proven" verdict into
//! wishful thinking.
//!
//! Process state is encoded by [`bne_net::AsyncProcess::state_words`];
//! this module supplies the matching encoding for the *pending messages*
//! still in flight, which are just as much a part of the state as any
//! tally (two runs with identical process states but different queues
//! have different futures).

use bne_byzantine::ben_or::BenOrMsg;
use bne_byzantine::bracha::BrachaMsg;
use bne_byzantine::paxos::PaxosMsg;

/// A message with an exact, canonical `u64`-word encoding.
///
/// Requirements: equal messages produce equal word sequences, distinct
/// messages produce distinct ones (the encodings below prefix a variant
/// tag and lay fields out positionally, so both hold by construction).
pub trait McWords {
    /// Appends this message's canonical words to `out`.
    fn words(&self, out: &mut Vec<u64>);
}

impl McWords for BrachaMsg {
    fn words(&self, out: &mut Vec<u64>) {
        match self {
            BrachaMsg::Init(v) => out.extend([0, *v]),
            BrachaMsg::Echo(v) => out.extend([1, *v]),
            BrachaMsg::Ready(v) => out.extend([2, *v]),
        }
    }
}

impl McWords for BenOrMsg {
    fn words(&self, out: &mut Vec<u64>) {
        match self {
            BenOrMsg::Report { round, value } => out.extend([0, u64::from(*round), *value]),
            BenOrMsg::Proposal { round, value } => out.extend([
                1,
                u64::from(*round),
                u64::from(value.is_some()),
                value.unwrap_or(0),
            ]),
            BenOrMsg::Decided { value } => out.extend([2, *value]),
        }
    }
}

impl McWords for PaxosMsg {
    fn words(&self, out: &mut Vec<u64>) {
        match self {
            PaxosMsg::P1a { ballot } => out.extend([0, *ballot]),
            PaxosMsg::P1b {
                ballot,
                acc_ballot,
                acc_value,
            } => out.extend([
                1,
                *ballot,
                *acc_ballot,
                u64::from(acc_value.is_some()),
                acc_value.unwrap_or(0),
            ]),
            PaxosMsg::P2a { ballot, value } => out.extend([2, *ballot, *value]),
            PaxosMsg::P2b { ballot, value } => out.extend([3, *ballot, *value]),
            PaxosMsg::Decided { ballot, value } => out.extend([4, *ballot, *value]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<M: McWords>(m: &M) -> Vec<u64> {
        let mut out = Vec::new();
        m.words(&mut out);
        out
    }

    #[test]
    fn distinct_messages_encode_distinctly() {
        let msgs = [
            BrachaMsg::Init(0),
            BrachaMsg::Init(1),
            BrachaMsg::Echo(0),
            BrachaMsg::Echo(1),
            BrachaMsg::Ready(0),
            BrachaMsg::Ready(1),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for (j, b) in msgs.iter().enumerate() {
                assert_eq!(enc(a) == enc(b), i == j, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn option_fields_cannot_alias() {
        // None and Some(0) must not encode identically.
        let none = BenOrMsg::Proposal {
            round: 1,
            value: None,
        };
        let zero = BenOrMsg::Proposal {
            round: 1,
            value: Some(0),
        };
        assert_ne!(enc(&none), enc(&zero));
    }
}
