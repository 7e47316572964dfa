//! Cheap-talk implementations of the paper's Byzantine-agreement
//! mediator.
//!
//! The mediator to implement is [`bne_mediator::TruthfulMediator`]: relay
//! the general's preference to everyone. Two protocols replace it with
//! talk among the players, matching two regimes of the paper's summary:
//!
//! * [`OralMessagesCheapTalk`] — the general's preference is disseminated
//!   by the oral-messages protocol OM(k + t) ([`bne_byzantine::om`]),
//!   correct whenever `n > 3(k + t)`: the paper's first bullet, which
//!   needs no cryptography, no punishment and no knowledge of utilities;
//! * [`SignedBroadcastCheapTalk`] — the general signs its preference and
//!   the players run Dolev–Strong authenticated broadcast over the
//!   simulated PKI, correct for any number of faulty relays
//!   (`n > k + t`): the paper's last bullet, at the price of the
//!   ε/computational caveats discussed there.
//!
//! Both run their talk phase through [`crate::runtime::EventNet`] under a
//! [`NetProfile`]. The default, [`NetProfile::lockstep`], is bit-identical
//! to the synchronous `SyncNetwork` the paper assumes, and there both
//! induce the mediator's action distribution exactly (asserted by the
//! `distributions_match` tests). Under lossy or adversarially scheduled
//! profiles the implementation condition visibly erodes — the gap between
//! the paper's synchronous assumption and asynchronous practice, made
//! measurable.

use crate::adapter::run_round_protocol;
use crate::scenario::NetProfile;
use bne_byzantine::broadcast::{DolevStrongProcess, EquivocatingSender, SignedMessage};
use bne_byzantine::network::{ProcId, Process};
use bne_byzantine::om::{OmConfig, TraitorStrategy};
use bne_byzantine::om_process::{om_process_set, OmProcess};
use bne_byzantine::pki::PublicKeyInfrastructure;
use bne_games::TypeId;
use bne_mediator::{CheapTalkImplementation, CheapTalkOutcome};
use bne_sim::derive_seed;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Stream tag separating the network seed from the protocol-input seed.
const STREAM_NET_SEED: u64 = 13;

/// A faulty relay that never sends anything, for any message type.
struct SilentRelay<M>(PhantomData<M>);

impl<M: Clone> Process for SilentRelay<M> {
    type Msg = M;
    fn init(&mut self, _id: ProcId, _n: usize) {}
    fn round(&mut self, _round: usize, _inbox: &[(ProcId, M)]) -> Vec<(ProcId, M)> {
        Vec::new()
    }
    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Runs one talk phase of `rounds` rounds under `net` and turns its
/// decisions into actions: the general acts on its own preference, honest
/// players on their decisions, and faulty players take the
/// mediator-defying marker action (the implementation requirement does
/// not constrain them).
fn talk<M: Clone + 'static>(
    processes: Vec<Box<dyn Process<Msg = M>>>,
    rounds: usize,
    net: &NetProfile,
    types: &[TypeId],
    faulty: &BTreeSet<usize>,
    seed: u64,
) -> CheapTalkOutcome {
    let cfg = net.config(derive_seed(seed, STREAM_NET_SEED, 0), faulty);
    let outcome = run_round_protocol(processes, rounds, cfg);
    let mut actions = vec![0usize; outcome.decisions.len()];
    actions[0] = types[0];
    for (action, decision) in actions.iter_mut().zip(&outcome.decisions) {
        if let Some(v) = decision {
            *action = *v as usize;
        }
    }
    for &f in faulty {
        actions[f] = 1 - types[0].min(1);
    }
    CheapTalkOutcome {
        actions,
        messages: outcome.stats.messages_sent,
        rounds,
    }
}

/// Cheap talk via the oral-messages protocol OM(k + t).
#[derive(Debug, Clone)]
pub struct OralMessagesCheapTalk {
    /// Number of players.
    pub n: usize,
    /// Coalition bound the implementation is asked to support.
    pub k: usize,
    /// Fault bound the implementation is asked to support.
    pub t: usize,
    /// How the faulty players lie during dissemination.
    pub traitor_strategy: TraitorStrategy,
    /// Network conditions the talk phase runs under.
    pub net: NetProfile,
}

impl OralMessagesCheapTalk {
    /// Creates the protocol on a lockstep network with the
    /// parity-splitting adversary (the worst of the canned lies).
    pub fn new(n: usize, k: usize, t: usize) -> Self {
        OralMessagesCheapTalk {
            n,
            k,
            t,
            traitor_strategy: TraitorStrategy::SplitByParity,
            net: NetProfile::lockstep(),
        }
    }
}

impl CheapTalkImplementation for OralMessagesCheapTalk {
    fn execute(&self, types: &[TypeId], faulty: &BTreeSet<usize>, seed: u64) -> CheapTalkOutcome {
        let m = self.k + self.t;
        let config = OmConfig {
            n: self.n,
            m,
            commander_value: types[0] as u64,
            traitors: faulty.clone(),
            strategy: self.traitor_strategy,
            default_value: 0,
        };
        let processes = om_process_set(&config);
        let rounds = OmProcess::rounds_needed(m);
        talk(processes, rounds, &self.net, types, faulty, seed)
    }

    fn name(&self) -> String {
        format!("OM({}) cheap talk", self.k + self.t)
    }

    fn claimed_regime(&self) -> (usize, usize, usize) {
        (self.n, self.k, self.t)
    }
}

/// Cheap talk via Dolev–Strong signed broadcast over the simulated PKI.
#[derive(Debug, Clone)]
pub struct SignedBroadcastCheapTalk {
    /// Number of players.
    pub n: usize,
    /// Coalition bound.
    pub k: usize,
    /// Fault bound.
    pub t: usize,
    /// Whether a faulty general equivocates (sends conflicting signed
    /// values) instead of staying silent.
    pub general_equivocates: bool,
    /// Network conditions the talk phase runs under.
    pub net: NetProfile,
}

impl SignedBroadcastCheapTalk {
    /// Creates the protocol on a lockstep network.
    pub fn new(n: usize, k: usize, t: usize) -> Self {
        SignedBroadcastCheapTalk {
            n,
            k,
            t,
            general_equivocates: true,
            net: NetProfile::lockstep(),
        }
    }
}

impl CheapTalkImplementation for SignedBroadcastCheapTalk {
    fn execute(&self, types: &[TypeId], faulty: &BTreeSet<usize>, seed: u64) -> CheapTalkOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let fault_budget = self.k + self.t;
        let (pki, keys) = PublicKeyInfrastructure::setup(self.n, &mut rng);
        let input = types[0] as u64;
        let processes = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| -> Box<dyn Process<Msg = SignedMessage>> {
                if i == 0 && faulty.contains(&0) && self.general_equivocates {
                    Box::new(EquivocatingSender::new(key))
                } else if faulty.contains(&i) {
                    // faulty relays cannot forge other players' signatures,
                    // so silence is their strongest option against
                    // Dolev–Strong besides equivocation by the sender
                    Box::new(SilentRelay(PhantomData))
                } else {
                    Box::new(DolevStrongProcess::new(
                        0,
                        input,
                        fault_budget,
                        pki.clone(),
                        key,
                        0,
                    ))
                }
            })
            .collect();
        let rounds = DolevStrongProcess::rounds_needed(fault_budget);
        talk(processes, rounds, &self.net, types, faulty, seed)
    }

    fn name(&self) -> String {
        format!("Dolev–Strong cheap talk (t + k = {})", self.k + self.t)
    }

    fn claimed_regime(&self) -> (usize, usize, usize) {
        (self.n, self.k, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinkFaults;
    use bne_mediator::{
        distributions_match, ByzantineAgreementGame, MediatorGame, TruthfulMediator,
    };

    fn faulty(ids: &[usize]) -> BTreeSet<usize> {
        ids.iter().copied().collect()
    }

    /// Whether `protocol` implements the truthful mediator of the
    /// `n`-player Byzantine agreement game against the faulty set `ids`.
    fn implements(n: usize, protocol: &dyn CheapTalkImplementation, ids: &[usize]) -> bool {
        let game = ByzantineAgreementGame::build(n, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        distributions_match(&mg, protocol, &faulty(ids), 5, 1e-9)
    }

    #[test]
    fn async_om_cheap_talk_implements_the_mediator_on_a_lockstep_net() {
        // n = 7 > 3(k + t) = 6 with k = t = 1 — the paper's first bullet,
        // running through the event queue
        let ct = OralMessagesCheapTalk::new(7, 1, 1);
        for ids in [[4, 6], [5, 6]] {
            assert!(implements(7, &ct, &ids), "faulty {ids:?}");
        }
    }

    #[test]
    fn async_om_matches_actions_shape_of_the_sync_port() {
        // one talk phase in full, with the action vector the synchronous
        // port gave: every honest player follows the general, and OM(2)
        // runs its four network rounds on the full EIG schedule
        let ct = OralMessagesCheapTalk::new(7, 1, 1);
        let out = ct.execute(&[1, 0, 0, 0, 0, 0, 0], &faulty(&[4, 6]), 3);
        assert_eq!(out.actions, [1, 1, 1, 1, 0, 1, 0]);
        assert_eq!(out.rounds, OmProcess::rounds_needed(2));
        assert_eq!(out.messages, 6 + 6 * 5 + 6 * 5 * 4);
        // the honest players follow the general's preference, either one
        for pref in [0, 1] {
            let out = ct.execute(&[pref, 0, 0, 0, 0, 0, 0], &faulty(&[4, 6]), 0);
            for p in [0, 1, 2, 3, 5] {
                assert_eq!(out.actions[p], pref, "player {p} pref {pref}");
            }
            assert!(out.messages > 0);
        }
    }

    #[test]
    fn om_cheap_talk_keeps_agreement_with_faulty_general() {
        let ct = OralMessagesCheapTalk::new(7, 1, 1);
        let out = ct.execute(&[1, 0, 0, 0, 0, 0, 0], &faulty(&[0, 3]), 0);
        // honest players (1, 2, 4, 5, 6) must all take the same action
        let honest: Vec<usize> = [1, 2, 4, 5, 6].map(|p| out.actions[p]).to_vec();
        assert!(honest.windows(2).all(|w| w[0] == w[1]), "{honest:?}");
    }

    #[test]
    fn om_cheap_talk_fails_below_the_threshold() {
        // n = 3 with k + t = 1 violates n > 3(k + t): a flipping relay
        // pulls the lone honest soldier off the general's order
        let flip = OralMessagesCheapTalk {
            traitor_strategy: TraitorStrategy::Flip,
            ..OralMessagesCheapTalk::new(3, 0, 1)
        };
        assert_ne!(flip.execute(&[1, 0, 0], &faulty(&[2]), 0).actions[1], 1);
        // n = 4 with k + t = 2 violates it too: with the faulty players
        // actively lying, the honest players' action distribution
        // differs from the mediator's
        let om = OralMessagesCheapTalk::new(4, 1, 1);
        assert!(!implements(4, &om, &[2, 3]));
    }

    #[test]
    fn async_signed_broadcast_implements_the_mediator_beyond_n_over_3() {
        // n = 5 with k + t = 3 faulty soldiers — hopeless for OM, fine for
        // the PKI-based protocol (the paper's last bullet)
        let ct = SignedBroadcastCheapTalk::new(5, 1, 2);
        assert!(implements(5, &ct, &[2, 3, 4]));
        let om = OralMessagesCheapTalk::new(5, 1, 2);
        assert!(!implements(5, &om, &[2, 3, 4]));
        // in one talk phase the lone honest soldier follows the general
        let out = ct.execute(&[1, 0, 0, 0, 0], &faulty(&[2, 3, 4]), 7);
        assert_eq!(out.actions[0], 1);
        assert_eq!(out.actions[1], 1, "the lone honest soldier follows");
    }

    #[test]
    fn signed_broadcast_equivocating_general_still_gives_agreement() {
        let ct = SignedBroadcastCheapTalk::new(6, 1, 1);
        let out = ct.execute(&[1, 0, 0, 0, 0, 0], &faulty(&[0]), 11);
        let honest = &out.actions[1..];
        assert!(honest.windows(2).all(|w| w[0] == w[1]), "{honest:?}");
    }

    #[test]
    fn no_faults_every_protocol_implements() {
        let game = ByzantineAgreementGame::build(4, 0.3);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        for protocol in [
            Box::new(OralMessagesCheapTalk::new(4, 0, 1)) as Box<dyn CheapTalkImplementation>,
            Box::new(SignedBroadcastCheapTalk::new(4, 0, 1)),
        ] {
            assert!(
                distributions_match(&mg, protocol.as_ref(), &BTreeSet::new(), 3, 1e-9),
                "{}",
                protocol.name()
            );
        }
    }

    #[test]
    fn message_loss_breaks_the_implementation_condition() {
        // the same OM regime that is exact on a reliable network stops
        // implementing the mediator once 40% of messages are lost
        let game = ByzantineAgreementGame::build(7, 0.5);
        let mg = MediatorGame::new(&game, TruthfulMediator);
        let lossy = OralMessagesCheapTalk {
            net: NetProfile {
                faults: LinkFaults::lossy(0.4).into(),
                ..NetProfile::lockstep()
            },
            ..OralMessagesCheapTalk::new(7, 1, 1)
        };
        assert!(!distributions_match(
            &mg,
            &lossy,
            &faulty(&[4, 6]),
            16,
            1e-9
        ));
    }

    #[test]
    fn protocol_names_and_regimes() {
        let om = OralMessagesCheapTalk::new(10, 2, 1);
        assert_eq!(om.name(), "OM(3) cheap talk");
        assert_eq!(om.claimed_regime(), (10, 2, 1));
        let ds = SignedBroadcastCheapTalk::new(5, 1, 2);
        assert_eq!(ds.name(), "Dolev–Strong cheap talk (t + k = 3)");
        assert_eq!(ds.claimed_regime(), (5, 1, 2));
    }
}
