//! Dolev–Strong authenticated broadcast.
//!
//! With a public-key infrastructure (the assumption behind the paper's
//! strongest positive result, `n > k + t`), a designated sender can
//! broadcast a value such that all honest processes agree on it even when
//! any number `t < n` of processes — possibly including the sender — are
//! Byzantine. The protocol runs for `t + 1` rounds; a value is *extracted*
//! by an honest process in round `r` only if it arrives carrying `r` valid
//! signatures from distinct processes starting with the sender's.

use crate::network::{ProcId, Process};
use crate::pki::{KeyPair, PublicKeyInfrastructure, Signature};
use crate::Value;
use std::collections::BTreeSet;

/// A message of the Dolev–Strong protocol: a value and its signature chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedMessage {
    /// The broadcast value.
    pub value: Value,
    /// Signature chain: `(signer, signature)` pairs, the first of which must
    /// be the designated sender's.
    pub chain: Vec<(ProcId, Signature)>,
}

/// An honest Dolev–Strong participant.
pub struct DolevStrongProcess {
    id: ProcId,
    n: usize,
    t: usize,
    sender: ProcId,
    /// The sender's input (ignored by non-senders).
    input: Value,
    pki: PublicKeyInfrastructure,
    key: KeyPair,
    extracted: BTreeSet<Value>,
    decided: Option<Value>,
    default_value: Value,
}

impl DolevStrongProcess {
    /// Creates an honest participant.
    ///
    /// `sender` is the designated broadcaster; `input` is only used when
    /// this process *is* the sender.
    pub fn new(
        sender: ProcId,
        input: Value,
        t: usize,
        pki: PublicKeyInfrastructure,
        key: KeyPair,
        default_value: Value,
    ) -> Self {
        DolevStrongProcess {
            id: 0,
            n: 0,
            t,
            sender,
            input,
            pki,
            key,
            extracted: BTreeSet::new(),
            decided: None,
            default_value,
        }
    }

    /// Number of network rounds needed: the sender's initial round, `t`
    /// relay rounds, and a final decision round.
    pub fn rounds_needed(t: usize) -> usize {
        t + 2
    }

    /// Validates a signature chain for `value` carrying signatures from
    /// `expected_len` distinct signers, the first being the sender.
    fn chain_is_valid(&self, msg: &SignedMessage, expected_len: usize) -> bool {
        if msg.chain.len() < expected_len {
            return false;
        }
        if msg.chain.first().map(|(s, _)| *s) != Some(self.sender) {
            return false;
        }
        let mut seen = BTreeSet::new();
        for (signer, sig) in &msg.chain {
            if !seen.insert(*signer) {
                return false;
            }
            if !self.pki.verify(*signer, &[msg.value], sig) {
                return false;
            }
        }
        true
    }
}

impl Process for DolevStrongProcess {
    type Msg = SignedMessage;

    fn init(&mut self, id: ProcId, n: usize) {
        self.id = id;
        self.n = n;
    }

    fn round(
        &mut self,
        round: usize,
        inbox: &[(ProcId, SignedMessage)],
    ) -> Vec<(ProcId, SignedMessage)> {
        if self.decided.is_some() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if round == 0 {
            if self.id == self.sender {
                let sig = self.key.sign(&[self.input]);
                let msg = SignedMessage {
                    value: self.input,
                    chain: vec![(self.id, sig)],
                };
                self.extracted.insert(self.input);
                for d in 0..self.n {
                    if d != self.id {
                        out.push((d, msg.clone()));
                    }
                }
            }
            return out;
        }
        // rounds 1..=t+1: process messages that carry `round` signatures
        for (_, msg) in inbox {
            if self.extracted.contains(&msg.value) {
                continue;
            }
            if !self.chain_is_valid(msg, round) {
                continue;
            }
            self.extracted.insert(msg.value);
            if round <= self.t {
                // append own signature and relay
                let mut chain = msg.chain.clone();
                chain.push((self.id, self.key.sign(&[msg.value])));
                let relay = SignedMessage {
                    value: msg.value,
                    chain,
                };
                for d in 0..self.n {
                    if d != self.id {
                        out.push((d, relay.clone()));
                    }
                }
            }
        }
        if round == self.t + 1 {
            // decision: a single extracted value is adopted; zero or more
            // than one falls back to the default.
            self.decided = Some(if self.extracted.len() == 1 {
                *self.extracted.iter().next().expect("non-empty")
            } else {
                self.default_value
            });
        }
        out
    }

    fn decision(&self) -> Option<u64> {
        self.decided
    }
}

/// A Byzantine sender that equivocates: signs and sends value 0 to the first
/// half of the processes and value 1 to the rest, then stays silent.
pub struct EquivocatingSender {
    id: ProcId,
    n: usize,
    key: KeyPair,
}

impl EquivocatingSender {
    /// Creates the equivocating sender with its (legitimate) signing key.
    pub fn new(key: KeyPair) -> Self {
        EquivocatingSender { id: 0, n: 0, key }
    }
}

impl Process for EquivocatingSender {
    type Msg = SignedMessage;

    fn init(&mut self, id: ProcId, n: usize) {
        self.id = id;
        self.n = n;
    }

    fn round(
        &mut self,
        round: usize,
        _inbox: &[(ProcId, SignedMessage)],
    ) -> Vec<(ProcId, SignedMessage)> {
        if round > 0 {
            return Vec::new();
        }
        (0..self.n)
            .filter(|&d| d != self.id)
            .map(|d| {
                let value = if d < self.n / 2 { 0 } else { 1 };
                let sig = self.key.sign(&[value]);
                (
                    d,
                    SignedMessage {
                        value,
                        chain: vec![(self.id, sig)],
                    },
                )
            })
            .collect()
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Runs Dolev–Strong broadcast for the rounds a fault budget of `t`
    /// needs, returning the decision vector and network statistics.
    fn run_dolev_strong(
        processes: Vec<Box<dyn Process<Msg = SignedMessage>>>,
        t: usize,
    ) -> (Vec<Option<Value>>, crate::network::RoundStats) {
        let mut net = crate::network::SyncNetwork::new(processes);
        net.run(DolevStrongProcess::rounds_needed(t));
        (net.decisions(), net.stats())
    }

    fn setup(n: usize) -> (PublicKeyInfrastructure, Vec<KeyPair>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        PublicKeyInfrastructure::setup(n, &mut rng)
    }

    fn honest(
        sender: ProcId,
        input: Value,
        t: usize,
        pki: &PublicKeyInfrastructure,
        key: KeyPair,
    ) -> Box<dyn Process<Msg = SignedMessage>> {
        Box::new(DolevStrongProcess::new(
            sender,
            input,
            t,
            pki.clone(),
            key,
            0,
        ))
    }

    #[test]
    fn honest_sender_delivers_value_to_everyone() {
        let n = 5;
        let t = 2;
        let (pki, keys) = setup(n);
        let procs: Vec<_> = (0..n).map(|i| honest(0, 1, t, &pki, keys[i])).collect();
        let (decisions, stats) = run_dolev_strong(procs, t);
        assert!(decisions.iter().all(|d| *d == Some(1)));
        assert!(stats.messages_sent >= n - 1);
    }

    #[test]
    fn equivocating_sender_detected_and_default_adopted() {
        let n = 6;
        let t = 2;
        let (pki, keys) = setup(n);
        let mut procs: Vec<Box<dyn Process<Msg = SignedMessage>>> =
            vec![Box::new(EquivocatingSender::new(keys[0]))];
        for &key in &keys[1..] {
            procs.push(honest(0, 7, t, &pki, key));
        }
        let (decisions, _) = run_dolev_strong(procs, t);
        let honest_decisions: Vec<_> = decisions[1..].iter().map(|d| d.unwrap()).collect();
        // all honest processes agree...
        assert!(honest_decisions.windows(2).all(|w| w[0] == w[1]));
        // ...on the default, because two signed values circulate
        assert!(honest_decisions.iter().all(|&v| v == 0));
    }

    #[test]
    fn tolerates_a_silent_relay() {
        // the sender is honest; one relay does nothing (it simply never
        // relays). Honest processes still all decide the sender's value.
        struct SilentRelay;
        impl Process for SilentRelay {
            type Msg = SignedMessage;
            fn init(&mut self, _id: ProcId, _n: usize) {}
            fn round(
                &mut self,
                _round: usize,
                _inbox: &[(ProcId, SignedMessage)],
            ) -> Vec<(ProcId, SignedMessage)> {
                Vec::new()
            }
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let n = 5;
        let t = 1;
        let (pki, keys) = setup(n);
        let mut procs: Vec<Box<dyn Process<Msg = SignedMessage>>> = Vec::new();
        for &key in &keys[..n - 1] {
            procs.push(honest(0, 3, t, &pki, key));
        }
        procs.push(Box::new(SilentRelay));
        let (decisions, _) = run_dolev_strong(procs, t);
        assert!(decisions[..n - 1].iter().all(|d| *d == Some(3)));
    }

    #[test]
    fn forged_chains_are_ignored() {
        // a malicious relay injects a value with a chain not rooted at the
        // sender; honest processes ignore it and stick with the real value.
        struct Forger {
            key: KeyPair,
            n: usize,
        }
        impl Process for Forger {
            type Msg = SignedMessage;
            fn init(&mut self, _id: ProcId, n: usize) {
                self.n = n;
            }
            fn round(
                &mut self,
                round: usize,
                _inbox: &[(ProcId, SignedMessage)],
            ) -> Vec<(ProcId, SignedMessage)> {
                if round != 1 {
                    return Vec::new();
                }
                let sig = self.key.sign(&[9]);
                (0..self.n)
                    .map(|d| {
                        (
                            d,
                            SignedMessage {
                                value: 9,
                                chain: vec![(self.key.owner, sig)],
                            },
                        )
                    })
                    .collect()
            }
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let n = 5;
        let t = 1;
        let (pki, keys) = setup(n);
        let mut procs: Vec<Box<dyn Process<Msg = SignedMessage>>> = Vec::new();
        for &key in &keys[..n - 1] {
            procs.push(honest(0, 4, t, &pki, key));
        }
        procs.push(Box::new(Forger {
            key: keys[n - 1],
            n,
        }));
        let (decisions, _) = run_dolev_strong(procs, t);
        assert!(decisions[..n - 1].iter().all(|d| *d == Some(4)));
    }

    #[test]
    fn rounds_needed_formula() {
        assert_eq!(DolevStrongProcess::rounds_needed(0), 2);
        assert_eq!(DolevStrongProcess::rounds_needed(3), 5);
    }
}
