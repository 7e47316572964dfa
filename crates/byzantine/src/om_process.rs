//! The Oral Messages algorithm OM(m) as message-passing processes (the
//! exponential-information-gathering formulation) — the one
//! implementation of the protocol whose problem, parameters and
//! guarantee [`crate::om`] states.
//!
//! In round 0 the commander (process 0) sends its order to every
//! lieutenant; in round `r ≤ m` every lieutenant relays each value it
//! learned along a path of `r` distinct relays to everyone not yet on
//! that path. After `m + 1` relay levels each lieutenant holds an
//! information tree whose recursive majority (ties and missing values
//! fall to the default) is its decision — correct whenever `n > 3t` and
//! `m ≥ t`. Traitors lie per a [`TraitorStrategy`], or collude through
//! one [`OmCollusion`] ledger.
//!
//! The processes are [`Process`] implementations exchanging [`OmMsg`]s,
//! so OM runs on the lockstep [`SyncNetwork`] ([`run_om_process`]) *and*
//! (through `bne-net`'s round adapter) on the asynchronous discrete-event
//! runtime, where message loss and adversarial timing degrade it
//! measurably. Message counts are the sends that actually happen: a
//! `Silent` traitor sends nothing, so its relays are not counted.

use crate::network::{ProcId, Process, RoundStats, SyncNetwork};
use crate::om::{majority, OmConfig, TraitorStrategy};
use crate::Value;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// One oral message: the claimed value and the relay path it travelled
/// (starting at the commander, ending at the sender).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmMsg {
    /// Relay path: `path[0]` is the commander, `path.last()` the sender.
    pub path: Vec<ProcId>,
    /// The relayed value.
    pub value: Value,
}

/// Shared EIG bookkeeping of honest and traitorous participants.
#[derive(Debug, Clone)]
struct EigState {
    id: ProcId,
    n: usize,
    m: usize,
    default: Value,
    vals: BTreeMap<Vec<ProcId>, Value>,
}

impl EigState {
    fn new(m: usize, default: Value) -> Self {
        EigState {
            id: 0,
            n: 0,
            m,
            default,
            vals: BTreeMap::new(),
        }
    }

    /// Validates an incoming message for round `round` and stores it
    /// (first write wins). Returns the accepted path, if any.
    fn absorb(&mut self, src: ProcId, msg: &OmMsg, round: usize) -> Option<Vec<ProcId>> {
        let path = &msg.path;
        if path.len() != round || round == 0 || round > self.m + 1 {
            return None;
        }
        if path[0] != 0 || path.last() != Some(&src) || path.contains(&self.id) {
            return None;
        }
        // all relays distinct and real
        for (i, p) in path.iter().enumerate() {
            if *p >= self.n || path[..i].contains(p) {
                return None;
            }
        }
        if self.vals.contains_key(path) {
            return None; // duplicates (only traitors produce them) ignored
        }
        self.vals.insert(path.clone(), msg.value);
        Some(path.clone())
    }

    /// Recipients of the relay of `path`: everyone not already on it and
    /// not this process.
    fn relay_targets(&self, path: &[ProcId]) -> Vec<ProcId> {
        (0..self.n)
            .filter(|q| *q != self.id && !path.contains(q))
            .collect()
    }

    /// The recursive EIG majority: leaves report their stored value; an
    /// internal node takes the majority over its own directly-received
    /// value plus the resolved relays of every other participant (as in
    /// Lamport–Shostak–Pease's recursion, the process's own receipt votes
    /// alongside the relays). Ties and missing values fall to the
    /// default.
    fn resolve(&self, path: &mut Vec<ProcId>) -> Value {
        if path.len() == self.m + 1 {
            return self.vals.get(path).copied().unwrap_or(self.default);
        }
        let mut votes = vec![self.vals.get(path).copied().unwrap_or(self.default)];
        for q in 0..self.n {
            if q != self.id && !path.contains(&q) {
                path.push(q);
                votes.push(self.resolve(path));
                path.pop();
            }
        }
        majority(&votes, self.default)
    }
}

/// An honest OM(m) participant. Process 0 is the commander by protocol
/// convention; every other process is a lieutenant.
#[derive(Debug, Clone)]
pub struct OmProcess {
    state: EigState,
    /// The commander's order (ignored by lieutenants).
    input: Value,
    decided: Option<Value>,
}

impl OmProcess {
    /// Creates an honest participant. `input` is only used when this
    /// process ends up as the commander (id 0).
    pub fn new(input: Value, m: usize, default: Value) -> Self {
        OmProcess {
            state: EigState::new(m, default),
            input,
            decided: None,
        }
    }

    /// Network rounds needed for relay depth `m`: the commander's
    /// round, `m` relay rounds, and the final absorb-and-decide round.
    pub fn rounds_needed(m: usize) -> usize {
        m + 2
    }
}

impl Process for OmProcess {
    type Msg = OmMsg;

    fn init(&mut self, id: ProcId, n: usize) {
        self.state.id = id;
        self.state.n = n;
    }

    fn round(&mut self, round: usize, inbox: &[(ProcId, OmMsg)]) -> Vec<(ProcId, OmMsg)> {
        let mut out = Vec::new();
        if round == 0 {
            if self.state.id == 0 {
                // the commander sends its order and obeys it itself
                for dst in 1..self.state.n {
                    out.push((
                        dst,
                        OmMsg {
                            path: vec![0],
                            value: self.input,
                        },
                    ));
                }
                self.decided = Some(self.input);
            }
            return out;
        }
        for (src, msg) in inbox {
            let Some(path) = self.state.absorb(*src, msg, round) else {
                continue;
            };
            if round <= self.state.m {
                let mut relayed = path.clone();
                relayed.push(self.state.id);
                for dst in self.state.relay_targets(&path) {
                    out.push((
                        dst,
                        OmMsg {
                            path: relayed.clone(),
                            value: msg.value,
                        },
                    ));
                }
            }
        }
        if round == self.state.m + 1 && self.state.id != 0 {
            self.decided = Some(self.state.resolve(&mut vec![0]));
        }
        out
    }

    fn decision(&self) -> Option<u64> {
        self.decided
    }
}

/// A traitorous OM(m) participant lying per a [`TraitorStrategy`]. It
/// follows the protocol's message schedule but replaces every value it
/// sends (as commander or relay) with the strategy's lie; it never
/// decides.
#[derive(Debug, Clone)]
pub struct OmTraitorProcess {
    state: EigState,
    /// The order this process would have sent if honest (commander only).
    input: Value,
    strategy: TraitorStrategy,
}

impl OmTraitorProcess {
    /// Creates a traitor. `input` matters only when it is the commander.
    pub fn new(input: Value, m: usize, default: Value, strategy: TraitorStrategy) -> Self {
        OmTraitorProcess {
            state: EigState::new(m, default),
            input,
            strategy,
        }
    }

    fn lie(&self, honest_value: Value, dst: ProcId) -> Option<Value> {
        match self.strategy {
            TraitorStrategy::Flip => Some(if honest_value == 0 { 1 } else { 0 }),
            TraitorStrategy::SplitByParity => Some((dst % 2) as Value),
            TraitorStrategy::Fixed(v) => Some(v),
            TraitorStrategy::Silent => None,
        }
    }
}

impl Process for OmTraitorProcess {
    type Msg = OmMsg;

    fn init(&mut self, id: ProcId, n: usize) {
        self.state.id = id;
        self.state.n = n;
    }

    fn round(&mut self, round: usize, inbox: &[(ProcId, OmMsg)]) -> Vec<(ProcId, OmMsg)> {
        let mut out = Vec::new();
        if round == 0 {
            if self.state.id == 0 {
                for dst in 1..self.state.n {
                    if let Some(v) = self.lie(self.input, dst) {
                        out.push((
                            dst,
                            OmMsg {
                                path: vec![0],
                                value: v,
                            },
                        ));
                    }
                }
            }
            return out;
        }
        for (src, msg) in inbox {
            let Some(path) = self.state.absorb(*src, msg, round) else {
                continue;
            };
            if round <= self.state.m {
                let mut relayed = path.clone();
                relayed.push(self.state.id);
                for dst in self.state.relay_targets(&path) {
                    if let Some(v) = self.lie(msg.value, dst) {
                        out.push((
                            dst,
                            OmMsg {
                                path: relayed.clone(),
                                value: v,
                            },
                        ));
                    }
                }
            }
        }
        out
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Shared adversary state for **colluding** OM traitors: a ledger mapping
/// each honest lieutenant to the camp (0 or 1) every traitor consistently
/// tells it, assigned lazily in a seeded random order while keeping the
/// two camps balanced over the honest lieutenants actually targeted.
///
/// The stateless [`TraitorStrategy`]s lie per message with no memory: the
/// parity split, for example, partitions *all* process ids, so the honest
/// lieutenants may land lopsidedly in one camp, and `Flip` tells everyone
/// the same story. A colluding coalition instead agrees on one balanced
/// partition of the honest lieutenants and has **every traitor tell every
/// camp member the same value at every relay level** — consistent lies are
/// strictly harder for the recursive EIG majority to outvote, which is
/// what pushes sub-bound failure rates toward the adversarial optimum
/// (the e17 colluding arm measures the gap).
#[derive(Debug)]
pub struct OmCollusion {
    /// The coalition — fellow traitors never occupy a camp slot, so the
    /// balance is genuinely over the honest lieutenants.
    traitors: BTreeSet<usize>,
    camps: std::cell::RefCell<BTreeMap<ProcId, Value>>,
    rng: std::cell::RefCell<rand::rngs::StdRng>,
}

impl OmCollusion {
    /// A fresh ledger for the given coalition; seed it per replica (via
    /// `bne_sim::derive_seed`) so the camp assignment varies across
    /// replicas.
    pub fn new(seed: u64, traitors: BTreeSet<usize>) -> Rc<Self> {
        Rc::new(OmCollusion {
            traitors,
            camps: std::cell::RefCell::new(BTreeMap::new()),
            rng: std::cell::RefCell::new(rand::rngs::StdRng::seed_from_u64(seed)),
        })
    }

    /// The coordinated lie for destination `dst`: every traitor always
    /// tells `dst` the same value. New **honest** destinations join
    /// whichever camp is smaller (ties broken by a seeded coin), keeping
    /// the split of targeted honest lieutenants balanced; messages to
    /// fellow traitors carry a fixed filler value and never occupy a camp
    /// slot (the coalition does not need to lie to itself, and letting it
    /// eat camp capacity would unbalance the real split).
    pub fn lie_for(&self, dst: ProcId) -> Value {
        if self.traitors.contains(&dst) {
            return 0;
        }
        let mut camps = self.camps.borrow_mut();
        if let Some(&v) = camps.get(&dst) {
            return v;
        }
        let zeros = camps.values().filter(|&&v| v == 0).count();
        let ones = camps.len() - zeros;
        let v = match zeros.cmp(&ones) {
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Equal => self.rng.borrow_mut().random_range(0..2u64),
        };
        camps.insert(dst, v);
        v
    }
}

/// A traitorous OM(m) participant drawing its lies from a shared
/// [`OmCollusion`] ledger, so the whole coalition tells each honest
/// lieutenant one consistent story. Follows the honest message schedule
/// (same paths, same recipients) and never decides.
#[derive(Debug)]
pub struct OmColludingTraitorProcess {
    state: EigState,
    collusion: Rc<OmCollusion>,
}

impl OmColludingTraitorProcess {
    /// Creates a colluding traitor sharing the given ledger.
    pub fn new(m: usize, default: Value, collusion: Rc<OmCollusion>) -> Self {
        OmColludingTraitorProcess {
            state: EigState::new(m, default),
            collusion,
        }
    }
}

impl Process for OmColludingTraitorProcess {
    type Msg = OmMsg;

    fn init(&mut self, id: ProcId, n: usize) {
        self.state.id = id;
        self.state.n = n;
    }

    fn round(&mut self, round: usize, inbox: &[(ProcId, OmMsg)]) -> Vec<(ProcId, OmMsg)> {
        let mut out = Vec::new();
        if round == 0 {
            if self.state.id == 0 {
                for dst in 1..self.state.n {
                    out.push((
                        dst,
                        OmMsg {
                            path: vec![0],
                            value: self.collusion.lie_for(dst),
                        },
                    ));
                }
            }
            return out;
        }
        for (src, msg) in inbox {
            let Some(path) = self.state.absorb(*src, msg, round) else {
                continue;
            };
            if round <= self.state.m {
                let mut relayed = path.clone();
                relayed.push(self.state.id);
                for dst in self.state.relay_targets(&path) {
                    out.push((
                        dst,
                        OmMsg {
                            path: relayed.clone(),
                            value: self.collusion.lie_for(dst),
                        },
                    ));
                }
            }
        }
        out
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Builds the full process set (honest and traitorous) for `config`,
/// ready to run on any network runtime.
pub fn om_process_set(config: &OmConfig) -> Vec<Box<dyn Process<Msg = OmMsg>>> {
    (0..config.n)
        .map(|id| {
            if config.traitors.contains(&id) {
                Box::new(OmTraitorProcess::new(
                    config.commander_value,
                    config.m,
                    config.default_value,
                    config.strategy,
                )) as Box<dyn Process<Msg = OmMsg>>
            } else {
                Box::new(OmProcess::new(
                    config.commander_value,
                    config.m,
                    config.default_value,
                )) as Box<dyn Process<Msg = OmMsg>>
            }
        })
        .collect()
}

/// Builds the process set for `config` with **colluding** traitors: all
/// traitors share one [`OmCollusion`] ledger seeded with `collusion_seed`
/// (the [`OmConfig::strategy`] field is ignored — the ledger *is* the
/// strategy). Honest processes are identical to [`om_process_set`]'s.
pub fn om_colluding_process_set(
    config: &OmConfig,
    collusion_seed: u64,
) -> Vec<Box<dyn Process<Msg = OmMsg>>> {
    let collusion = OmCollusion::new(collusion_seed, config.traitors.clone());
    (0..config.n)
        .map(|id| {
            if config.traitors.contains(&id) {
                Box::new(OmColludingTraitorProcess::new(
                    config.m,
                    config.default_value,
                    Rc::clone(&collusion),
                )) as Box<dyn Process<Msg = OmMsg>>
            } else {
                Box::new(OmProcess::new(
                    config.commander_value,
                    config.m,
                    config.default_value,
                )) as Box<dyn Process<Msg = OmMsg>>
            }
        })
        .collect()
}

/// Runs the EIG process formulation on the lockstep [`SyncNetwork`],
/// returning the decision vector and network statistics.
pub fn run_om_process(config: &OmConfig) -> (Vec<Option<Value>>, RoundStats) {
    let mut net = SyncNetwork::new(om_process_set(config));
    net.run(OmProcess::rounds_needed(config.m));
    (net.decisions(), net.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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

    fn honest_decisions(decisions: &[Option<Value>], traitors: &BTreeSet<usize>) -> Vec<Value> {
        decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| !traitors.contains(i) && *i != 0)
            .map(|(i, d)| d.unwrap_or_else(|| panic!("lieutenant {i} must decide")))
            .collect()
    }

    #[test]
    fn no_traitors_everyone_obeys() {
        let cfg = config(4, 1, &[], TraitorStrategy::Flip);
        let (decisions, stats) = run_om_process(&cfg);
        assert!(decisions.iter().all(|d| *d == Some(1)));
        // round 1: 3 commander msgs; round 2: each lieutenant relays to
        // the other two
        assert_eq!(stats.messages_sent, 3 + 3 * 2);
    }

    #[test]
    fn one_traitor_lieutenant_with_four_generals() {
        for strategy in [
            TraitorStrategy::Flip,
            TraitorStrategy::SplitByParity,
            TraitorStrategy::Fixed(0),
            TraitorStrategy::Silent,
        ] {
            let cfg = config(4, 1, &[3], strategy);
            let (decisions, _) = run_om_process(&cfg);
            let values = honest_decisions(&decisions, &cfg.traitors);
            assert_eq!(values.len(), 2);
            assert!(
                values.iter().all(|&v| v == 1),
                "validity violated for {strategy:?}: {values:?}"
            );
        }
    }

    #[test]
    fn traitorous_commander_still_yields_agreement() {
        for strategy in [
            TraitorStrategy::Flip,
            TraitorStrategy::SplitByParity,
            TraitorStrategy::Fixed(1),
            TraitorStrategy::Silent,
        ] {
            let cfg = config(4, 1, &[0], strategy);
            let (decisions, _) = run_om_process(&cfg);
            let values = honest_decisions(&decisions, &cfg.traitors);
            assert_eq!(values.len(), 3);
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "agreement violated for {strategy:?}: {values:?}"
            );
        }
    }

    #[test]
    fn seven_processes_tolerate_two_traitors() {
        for strategy in [TraitorStrategy::Flip, TraitorStrategy::SplitByParity] {
            let cfg = config(7, 2, &[2, 5], strategy);
            let (decisions, _) = run_om_process(&cfg);
            let values = honest_decisions(&decisions, &cfg.traitors);
            assert_eq!(values.len(), 4);
            assert!(values.windows(2).all(|w| w[0] == w[1]), "agreement");
            assert!(values.iter().all(|&v| v == 1), "validity ({strategy:?})");
        }
        // a traitorous commander plus one traitorous lieutenant
        let cfg = config(7, 2, &[0, 3], TraitorStrategy::SplitByParity);
        let (decisions, _) = run_om_process(&cfg);
        let values = honest_decisions(&decisions, &cfg.traitors);
        assert_eq!(values.len(), 5);
        assert!(values.windows(2).all(|w| w[0] == w[1]), "agreement");
    }

    #[test]
    fn three_processes_cannot_tolerate_one_traitor() {
        // n = 3, t = 1 violates n > 3t: the flipping traitor breaks
        // validity for the lone honest lieutenant.
        let cfg = config(3, 1, &[2], TraitorStrategy::Flip);
        let (decisions, _) = run_om_process(&cfg);
        assert_ne!(decisions[1], Some(1), "validity must fail when n ≤ 3t");
    }

    #[test]
    fn rounds_needed_formula() {
        assert_eq!(OmProcess::rounds_needed(0), 2);
        assert_eq!(OmProcess::rounds_needed(2), 4);
    }

    #[test]
    fn message_counts_match_the_eig_schedule() {
        // n = 7, m = 2, honest: round 1 = 6, round 2 = 6·5, round 3 = 6·5·4
        let cfg = config(7, 2, &[], TraitorStrategy::Flip);
        let (_, stats) = run_om_process(&cfg);
        assert_eq!(stats.messages_sent, 6 + 30 + 120);
    }

    #[test]
    fn colluding_traitors_tell_each_destination_one_story() {
        let ledger = OmCollusion::new(7, [3usize].into_iter().collect());
        let first: Vec<Value> = (1..6).map(|d| ledger.lie_for(d)).collect();
        let again: Vec<Value> = (1..6).map(|d| ledger.lie_for(d)).collect();
        assert_eq!(first, again, "the ledger never changes its story");
        // camps stay balanced over the targeted HONEST destinations
        // ({1, 2, 4, 5}; the fellow traitor 3 occupies no camp slot)
        let honest_values: Vec<Value> = [1usize, 2, 4, 5].map(|d| ledger.lie_for(d)).to_vec();
        let zeros = honest_values.iter().filter(|&&v| v == 0).count();
        assert_eq!(zeros, 2, "honest split must be exactly 2/2");
    }

    #[test]
    fn colluding_camps_ignore_fellow_traitors_in_every_interleaving() {
        // whatever order destinations are first targeted in — including
        // traitors interleaved between honest lieutenants — the honest
        // camps end up exactly balanced
        for seed in 0..8u64 {
            let traitors: BTreeSet<usize> = [2usize, 5].into_iter().collect();
            let ledger = OmCollusion::new(seed, traitors.clone());
            for dst in [5usize, 1, 2, 3, 4, 6] {
                let _ = ledger.lie_for(dst);
            }
            let honest: Vec<Value> = [1usize, 3, 4, 6]
                .iter()
                .map(|&d| ledger.lie_for(d))
                .collect();
            let zeros = honest.iter().filter(|&&v| v == 0).count();
            assert_eq!(zeros, 2, "seed {seed}: honest split {zeros}/4");
        }
    }

    #[test]
    fn colluding_traitors_respect_the_bound_and_break_below_it() {
        // within n > 3t the protocol shrugs collusion off like any lie
        let cfg = config(7, 2, &[2, 5], TraitorStrategy::Flip);
        let mut net = SyncNetwork::new(om_colluding_process_set(&cfg, 42));
        net.run(OmProcess::rounds_needed(cfg.m));
        let values = honest_decisions(&net.decisions(), &cfg.traitors);
        assert!(values.iter().all(|&v| v == 1), "validity within the bound");
        // below the bound (n = 6 ≤ 3t with t = 2) the balanced consistent
        // split must break agreement for some collusion seed
        let cfg = config(6, 2, &[2, 5], TraitorStrategy::Flip);
        let broke = (0..16u64).any(|seed| {
            let mut net = SyncNetwork::new(om_colluding_process_set(&cfg, seed));
            net.run(OmProcess::rounds_needed(cfg.m));
            let values = honest_decisions(&net.decisions(), &cfg.traitors);
            !values.windows(2).all(|w| w[0] == w[1]) || values.iter().any(|&v| v != 1)
        });
        assert!(broke, "sub-bound collusion should break correctness");
    }

    #[test]
    fn forged_paths_are_rejected() {
        // a message whose path does not end at its sender must be ignored
        let mut p = OmProcess::new(0, 1, 0);
        p.init(1, 4);
        let bogus = OmMsg {
            path: vec![0, 3],
            value: 1,
        };
        // claimed sender 2, path ends at 3
        let out = p.round(2, &[(2, bogus)]);
        assert!(out.is_empty());
        assert_eq!(p.state.vals.len(), 0);
    }
}
