//! Single-decree Paxos, as a runtime-agnostic state machine.
//!
//! The first *ballot-based* protocol in the workspace: agreement comes
//! from **quorum intersection** (any two majorities share a process)
//! rather than from round counting, following the classical synod
//! protocol (and the Fast Paxos TLA+ presentation of its message flow).
//! Every process plays all three roles:
//!
//! * **proposer** — owns the ballot numbers `b` with `(b − 1) mod n ==
//!   id`, so no two processes ever run the same ballot. A proposer
//!   starts ballot `b` by multicasting `P1a(b)`;
//! * **acceptor** — on `P1a(b)` with `b` above every ballot it has
//!   promised, it promises `b` and answers `P1b(b, acc_ballot,
//!   acc_value)` carrying the highest-ballot value it has ever accepted.
//!   On `P2a(b, v)` with `b` at or above its promise it accepts,
//!   recording `(b, v)` and multicasting `P2b(b, v)`;
//! * **learner** — a majority of `P2b(b, v)` means `v` is *chosen*: it
//!   decides `v` and multicasts `Decided` so stragglers learn cheaply.
//!
//! The safety core is the proposer's **forced value** rule: having
//! gathered `P1b`s from a majority, it must propose the accepted value
//! of the highest `acc_ballot` among them (its own input only if none).
//! Any chosen value was accepted by a majority, every later phase-1
//! quorum intersects that majority, so every later ballot re-proposes
//! the chosen value — *no two decided values, ever*, under any message
//! loss, reordering, or crash/recovery pattern. Liveness needs a stable
//! proposer: the `bne-net` shell provides leader failover by escalating
//! to a fresh own ballot on timeout ([`EventMachine::timeout`]).
//!
//! Crash-recovery: an acceptor's promise and accepted pair are exactly
//! the state that must survive a crash ([`EventMachine::durable_words`] /
//! [`EventMachine::restore_durable`]); tallies, the proposer phase and
//! even the learned decision are volatile and are rebuilt by re-running
//! a ballot after recovery — acceptors answer phase messages forever,
//! decided or not, precisely so recovered processes can re-learn.

use crate::event::{voter_mask, EventMachine};
use crate::network::ProcId;
use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One single-decree Paxos message. Ballot numbers start at 1; ballot 0
/// encodes "none" in `P1b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaxosMsg {
    /// Phase-1a: the proposer owning `ballot` asks for promises.
    P1a {
        /// The ballot being opened.
        ballot: u64,
    },
    /// Phase-1b: an acceptor's promise for `ballot`, reporting the
    /// highest ballot it has accepted in (`0` = never) and that value.
    P1b {
        /// The promised ballot.
        ballot: u64,
        /// Highest ballot this acceptor has accepted in (0 = none).
        acc_ballot: u64,
        /// The value accepted at `acc_ballot`, if any.
        acc_value: Option<Value>,
    },
    /// Phase-2a: the proposer of `ballot` asks acceptors to accept
    /// `value`.
    P2a {
        /// The ballot.
        ballot: u64,
        /// The (possibly forced) value.
        value: Value,
    },
    /// Phase-2b: an acceptor accepted `value` at `ballot`.
    P2b {
        /// The ballot.
        ballot: u64,
        /// The accepted value.
        value: Value,
    },
    /// A learner observed a chosen value (lets stragglers and recovered
    /// processes decide without running a ballot of their own).
    Decided {
        /// The ballot whose phase-2 quorum chose the value.
        ballot: u64,
        /// The chosen value.
        value: Value,
    },
}

/// The proposer's progress through its current ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProposerPhase {
    /// Not currently leading a ballot.
    Idle,
    /// Collecting `P1b` promises.
    Phase1,
    /// Collecting `P2b` accepts (value already sent in `P2a`).
    Phase2,
}

/// The state of one Paxos participant (proposer + acceptor + learner).
#[derive(Debug, Clone)]
pub struct PaxosState {
    id: ProcId,
    n: usize,
    input: Value,
    // --- acceptor state: the durable fraction ---
    /// Highest ballot promised (0 = none).
    promised: u64,
    /// Highest ballot accepted in (0 = none).
    acc_ballot: u64,
    /// Value accepted at `acc_ballot`.
    acc_value: Option<Value>,
    // --- proposer state: volatile ---
    my_ballot: u64,
    phase: ProposerPhase,
    /// `P1b` votes for `my_ballot`: src → (acc_ballot, acc_value).
    promises: BTreeMap<ProcId, (u64, Option<Value>)>,
    // --- learner state: volatile ---
    /// `P2b` votes per ballot: ballot → (value, voters).
    accepts: BTreeMap<u64, (Value, BTreeSet<ProcId>)>,
    decided: Option<Value>,
    decided_ballot: Option<u64>,
}

impl PaxosState {
    /// A majority quorum: any two intersect.
    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// The smallest ballot strictly above `above` that this process
    /// owns (`(b − 1) mod n == id`).
    fn next_own_ballot(&self, above: u64) -> u64 {
        let base = self.id as u64 + 1;
        if above < base {
            base
        } else {
            base + ((above - base) / self.n as u64 + 1) * self.n as u64
        }
    }

    /// Opens the next own ballot above `max(promised, my_ballot)`.
    fn open_ballot(&mut self, out: &mut Vec<PaxosMsg>) {
        self.my_ballot = self.next_own_ballot(self.promised.max(self.my_ballot));
        self.phase = ProposerPhase::Phase1;
        self.promises.clear();
        out.push(PaxosMsg::P1a {
            ballot: self.my_ballot,
        });
    }
}

impl EventMachine for PaxosState {
    type Msg = PaxosMsg;
    /// The value to propose when free to choose.
    type Spec = Value;

    /// The opening move: process 0 (owner of ballot 1) starts the first
    /// ballot; everyone else waits for traffic or a timeout.
    fn start(id: ProcId, n: usize, input: &Value, out: &mut Vec<PaxosMsg>) -> Self {
        let mut state = PaxosState {
            id,
            n,
            input: *input,
            promised: 0,
            acc_ballot: 0,
            acc_value: None,
            my_ballot: 0,
            phase: ProposerPhase::Idle,
            promises: BTreeMap::new(),
            accepts: BTreeMap::new(),
            decided: None,
            decided_ballot: None,
        };
        if id == 0 {
            state.open_ballot(out);
        }
        state
    }

    /// Leader failover: abandon any ballot in flight and open a fresh
    /// own ballot above everything seen. The `bne-net` shell calls this
    /// from its retry timer; an undecided process whose proposer went
    /// quiet thereby becomes the proposer itself.
    fn timeout(&mut self, out: &mut Vec<PaxosMsg>) {
        if self.decided.is_none() {
            self.open_ballot(out);
        }
    }

    fn handle_into(&mut self, src: ProcId, msg: &PaxosMsg, out: &mut Vec<PaxosMsg>) {
        match *msg {
            PaxosMsg::P1a { ballot } => {
                // acceptor: promise strictly increasing ballots, reveal
                // the highest accepted pair (the forced-value input)
                if ballot > self.promised {
                    self.promised = ballot;
                    out.push(PaxosMsg::P1b {
                        ballot,
                        acc_ballot: self.acc_ballot,
                        acc_value: self.acc_value,
                    });
                }
            }
            PaxosMsg::P1b {
                ballot,
                acc_ballot,
                acc_value,
            } => {
                // proposer: collect promises for the ballot in flight
                if ballot == self.my_ballot && self.phase == ProposerPhase::Phase1 {
                    self.promises.entry(src).or_insert((acc_ballot, acc_value));
                    if self.promises.len() >= self.majority() {
                        // the forced value: highest acc_ballot in the
                        // quorum wins; free choice only if none accepted
                        let forced = self
                            .promises
                            .values()
                            .filter(|(b, _)| *b > 0)
                            .max_by_key(|(b, _)| *b)
                            .and_then(|(_, v)| *v);
                        let value = forced.unwrap_or(self.input);
                        self.phase = ProposerPhase::Phase2;
                        out.push(PaxosMsg::P2a {
                            ballot: self.my_ballot,
                            value,
                        });
                    }
                }
            }
            PaxosMsg::P2a { ballot, value } => {
                // acceptor: accept unless promised away to a higher ballot
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.acc_ballot = ballot;
                    self.acc_value = Some(value);
                    out.push(PaxosMsg::P2b { ballot, value });
                }
            }
            PaxosMsg::P2b { ballot, value } => {
                // learner: a majority of accepts at one ballot = chosen
                let (_, voters) = self
                    .accepts
                    .entry(ballot)
                    .or_insert_with(|| (value, BTreeSet::new()));
                voters.insert(src);
                if self.accepts[&ballot].1.len() >= self.majority() && self.decided.is_none() {
                    self.decided = Some(value);
                    self.decided_ballot = Some(ballot);
                    out.push(PaxosMsg::Decided { ballot, value });
                }
            }
            PaxosMsg::Decided { ballot, value } => {
                if self.decided.is_none() {
                    self.decided = Some(value);
                    self.decided_ballot = Some(ballot);
                    out.push(PaxosMsg::Decided { ballot, value });
                }
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// The deciding ballot.
    fn decision_round(&self) -> Option<u64> {
        self.decided_ballot
    }

    /// The acceptor state that must survive a crash, encoded as words:
    /// `[promised, acc_ballot, has_acc_value, acc_value]`.
    fn durable_words(&self) -> Option<Vec<u64>> {
        Some(vec![
            self.promised,
            self.acc_ballot,
            u64::from(self.acc_value.is_some()),
            self.acc_value.unwrap_or(0),
        ])
    }

    /// Restores [`EventMachine::durable_words`] after a crash, wiping
    /// every volatile field: in-flight ballots, tallies and even the
    /// learned decision are lost and must be re-learned through a fresh
    /// ballot.
    fn restore_durable(&mut self, words: &[u64]) {
        self.promised = words.first().copied().unwrap_or(0);
        self.acc_ballot = words.get(1).copied().unwrap_or(0);
        self.acc_value = if words.get(2).copied().unwrap_or(0) == 1 {
            Some(words.get(3).copied().unwrap_or(0))
        } else {
            None
        };
        self.my_ballot = 0;
        self.phase = ProposerPhase::Idle;
        self.promises.clear();
        self.accepts.clear();
        self.decided = None;
        self.decided_ballot = None;
    }

    /// Appends a canonical encoding of the *behaviorally live* local
    /// state (volatile proposer/learner fractions included, unlike
    /// [`EventMachine::durable_words`]) — the model checker's
    /// state-fingerprint contribution. Paxos has no internal randomness,
    /// so unlike Ben-Or this is always available. Voter sets are encoded
    /// as bitmasks (`n ≤ 64`).
    ///
    /// Dead state is canonicalized away so the checker merges states
    /// that cannot behave differently: `decided_ballot` is never read
    /// after the decision broadcast, the phase-1 `promises` tally is
    /// cleared unread by the next `PaxosState::open_ballot` unless the
    /// proposer is actually in phase 1, and the learner's `accepts`
    /// tallies are only ever consulted by the decision rule, which is a
    /// no-op once `decided` is set. (A crash wipes every volatile field
    /// either way, so recovery cannot tell canonicalized states apart.)
    fn state_words(&self, out: &mut Vec<u64>) -> bool {
        // in release a wider shift would wrap and alias voter p with p - 64
        assert!(self.n <= 64, "voter bitmask encoding needs n <= 64");
        out.push(self.promised);
        out.push(self.acc_ballot);
        out.push(u64::from(self.acc_value.is_some()));
        out.push(self.acc_value.unwrap_or(0));
        out.push(self.my_ballot);
        out.push(match self.phase {
            ProposerPhase::Idle => 0,
            ProposerPhase::Phase1 => 1,
            ProposerPhase::Phase2 => 2,
        });
        out.push(u64::from(self.decided.is_some()));
        out.push(self.decided.unwrap_or(0));
        if self.phase == ProposerPhase::Phase1 {
            out.push(self.promises.len() as u64);
            for (&src, &(acc_ballot, acc_value)) in &self.promises {
                out.push(src as u64);
                out.push(acc_ballot);
                out.push(u64::from(acc_value.is_some()));
                out.push(acc_value.unwrap_or(0));
            }
        } else {
            out.push(0);
        }
        if self.decided.is_none() {
            out.push(self.accepts.len() as u64);
            for (&ballot, (value, voters)) in &self.accepts {
                out.push(ballot);
                out.push(*value);
                out.push(voter_mask(voters));
            }
        } else {
            out.push(0);
        }
        true
    }

    /// Whether handling `msg` from `src` is a behavioral no-op that will
    /// stay one for the rest of this incarnation: no response, no state
    /// change visible in [`EventMachine::state_words`]. Every condition is
    /// monotone while the process stays up — `promised`, `my_ballot` and
    /// the tallies only grow, a ballot's phase-1 window never reopens
    /// (reopening means a *higher* ballot), and a decision is final.
    /// A crash-*recovery* resets the volatile fields, reviving e.g. the
    /// learner's appetite for `Decided`, so callers draining absorbed
    /// messages must not do so past a possible recovery (the model
    /// checker runs crash-stop faults only).
    fn absorbs(&self, src: ProcId, msg: &PaxosMsg) -> bool {
        match *msg {
            // promises are strictly increasing
            PaxosMsg::P1a { ballot } => ballot <= self.promised,
            // a P1b matters only to the proposer still in phase 1 of
            // exactly that ballot, and only once per acceptor
            PaxosMsg::P1b { ballot, .. } => {
                ballot < self.my_ballot
                    || (ballot == self.my_ballot
                        && (self.phase != ProposerPhase::Phase1
                            || self.promises.contains_key(&src)))
            }
            // an old-ballot P2a is refused without a response; at the
            // promised ballot it (re-)accepts and re-sends P2b, so it is
            // never a no-op
            PaxosMsg::P2a { ballot, .. } => ballot < self.promised,
            // the decision rule is one-shot, and voter sets dedupe
            PaxosMsg::P2b { ballot, .. } => {
                self.decided.is_some()
                    || self
                        .accepts
                        .get(&ballot)
                        .is_some_and(|(_, voters)| voters.contains(&src))
            }
            PaxosMsg::Decided { .. } => self.decided.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Drive;
    use std::collections::VecDeque;

    /// Participant `id` of `n` proposing `input`, started (process 0 has
    /// opened ballot 1).
    fn state(id: ProcId, n: usize, input: Value) -> PaxosState {
        PaxosState::started(id, n, &input).0
    }

    /// Drives a full network of `PaxosState`s by a FIFO queue until
    /// quiescence (every returned message multicast to all `n`).
    fn run_lockstep(inputs: &[Value]) -> Vec<PaxosState> {
        let n = inputs.len();
        let mut queue: VecDeque<(ProcId, ProcId, PaxosMsg)> = VecDeque::new();
        let mut procs: Vec<PaxosState> = inputs
            .iter()
            .enumerate()
            .map(|(src, v)| {
                let (state, opening) = PaxosState::started(src, n, v);
                for m in opening {
                    for dst in 0..n {
                        queue.push_back((src, dst, m));
                    }
                }
                state
            })
            .collect();
        while let Some((src, dst, msg)) = queue.pop_front() {
            for m in procs[dst].handle(src, &msg) {
                for d in 0..n {
                    queue.push_back((dst, d, m));
                }
            }
        }
        procs
    }

    #[test]
    fn clean_run_chooses_the_initial_proposers_input() {
        for n in [3usize, 4, 5, 7] {
            let inputs: Vec<Value> = (0..n as u64).map(|i| i + 10).collect();
            let procs = run_lockstep(&inputs);
            for p in &procs {
                assert_eq!(p.decision(), Some(10), "n={n}: proposer 0's input wins");
                assert_eq!(p.decision_round(), Some(1));
            }
        }
    }

    #[test]
    fn ballot_ownership_partitions_the_ballot_space() {
        let n = 5;
        for id in 0..n {
            let s = state(id, n, 0);
            let mut b = 0;
            for _ in 0..4 {
                b = s.next_own_ballot(b);
                assert_eq!((b as usize - 1) % n, id, "ballot {b} owned by {id}");
            }
        }
        // distinct processes never share a ballot
        let a = state(1, 5, 0).next_own_ballot(7);
        let b = state(2, 5, 0).next_own_ballot(7);
        assert_ne!(a, b);
    }

    #[test]
    fn forced_value_rule_reproposes_the_accepted_value() {
        // acceptor 2 already accepted (ballot 1, value 9); proposer 1
        // opens ballot 2 and must propose 9, not its own input 5
        let n = 3;
        let mut p1 = state(1, n, 5);
        let out = p1.on_timeout();
        assert_eq!(out, vec![PaxosMsg::P1a { ballot: 2 }]);
        // promises: from 0 (nothing accepted) and from 2 (accepted 9@1)
        let _ = p1.handle(1, &PaxosMsg::P1a { ballot: 2 }); // own loopback
        let own = p1.handle(
            1,
            &PaxosMsg::P1b {
                ballot: 2,
                acc_ballot: 0,
                acc_value: None,
            },
        );
        assert!(own.is_empty(), "one promise is not a majority");
        let out = p1.handle(
            2,
            &PaxosMsg::P1b {
                ballot: 2,
                acc_ballot: 1,
                acc_value: Some(9),
            },
        );
        assert_eq!(
            out,
            vec![PaxosMsg::P2a {
                ballot: 2,
                value: 9
            }]
        );
    }

    #[test]
    fn acceptors_refuse_ballots_below_their_promise() {
        let mut a = state(2, 3, 0);
        assert!(!a.handle(0, &PaxosMsg::P1a { ballot: 4 }).is_empty());
        assert_eq!(a.promised, 4);
        // stale ballot: no promise, no accept
        assert!(a.handle(1, &PaxosMsg::P1a { ballot: 2 }).is_empty());
        assert!(a
            .handle(
                1,
                &PaxosMsg::P2a {
                    ballot: 2,
                    value: 7
                }
            )
            .is_empty());
        // the promised ballot itself is accepted
        assert!(!a
            .handle(
                0,
                &PaxosMsg::P2a {
                    ballot: 4,
                    value: 7
                }
            )
            .is_empty());
    }

    #[test]
    fn competing_proposers_agree_on_one_value() {
        // both 0 and 1 propose concurrently (timeout-style), messages
        // interleaved FIFO: safety must hold regardless of who wins
        let n = 5;
        let mut queue: VecDeque<(ProcId, ProcId, PaxosMsg)> = VecDeque::new();
        let (first, opening) = PaxosState::started(0, n, &0);
        let mut procs = vec![first];
        procs.extend((1..n).map(|i| state(i, n, i as u64)));
        // process 0 opens ballot 1 at start, process 1 ballot 2 on timeout
        for (src, msgs) in [(0, opening), (1, procs[1].on_timeout())] {
            for m in msgs {
                for dst in 0..n {
                    queue.push_back((src, dst, m));
                }
            }
        }
        while let Some((src, dst, msg)) = queue.pop_front() {
            for m in procs[dst].handle(src, &msg) {
                for d in 0..n {
                    queue.push_back((dst, d, m));
                }
            }
        }
        let decided: Vec<Value> = procs.iter().filter_map(|p| p.decision()).collect();
        assert!(!decided.is_empty(), "someone decides");
        assert!(
            decided.iter().all(|&v| v == decided[0]),
            "single decided value: {decided:?}"
        );
    }

    #[test]
    fn durable_round_trip_preserves_the_acceptor_and_wipes_the_rest() {
        let mut s = state(1, 3, 5);
        let _ = s.handle(0, &PaxosMsg::P1a { ballot: 1 });
        let _ = s.handle(
            0,
            &PaxosMsg::P2a {
                ballot: 1,
                value: 8,
            },
        );
        let _ = s.on_timeout(); // volatile proposer state in flight
        let words = s.durable_words().expect("Paxos has durable state");
        let mut r = state(1, 3, 5);
        r.restore_durable(&words);
        assert_eq!(r.promised, s.promised);
        assert_eq!(r.acc_ballot, 1);
        assert_eq!(r.acc_value, Some(8));
        assert_eq!(r.phase, ProposerPhase::Idle);
        assert_eq!(r.decision(), None);
        // the restored acceptor still forces the accepted value
        let out = r.handle(2, &PaxosMsg::P1a { ballot: 3 });
        assert_eq!(
            out,
            vec![PaxosMsg::P1b {
                ballot: 3,
                acc_ballot: 1,
                acc_value: Some(8)
            }]
        );
    }

    #[test]
    fn recovered_process_relearns_the_chosen_value_via_a_fresh_ballot() {
        // run to a decision, crash-and-restore process 2 (losing its
        // decision), then let it run a recovery ballot: quorum
        // intersection forces the already-chosen value
        let mut procs = run_lockstep(&[40, 41, 42]);
        let chosen = procs[0].decision().expect("decided");
        let words = procs[2].durable_words().expect("Paxos has durable state");
        procs[2].restore_durable(&words);
        assert_eq!(procs[2].decision(), None, "decision was volatile");
        let mut queue: VecDeque<(ProcId, ProcId, PaxosMsg)> = VecDeque::new();
        for m in procs[2].on_timeout() {
            for dst in 0..3 {
                queue.push_back((2, dst, m));
            }
        }
        while let Some((src, dst, msg)) = queue.pop_front() {
            for m in procs[dst].handle(src, &msg) {
                for d in 0..3 {
                    queue.push_back((dst, d, m));
                }
            }
        }
        assert_eq!(procs[2].decision(), Some(chosen), "safety across recovery");
    }

    #[test]
    #[should_panic(expected = "voter bitmask encoding needs n <= 64")]
    fn state_words_refuse_voters_past_the_bitmask() {
        // voter 64's bit would wrap onto voter 0's in a release build
        state(0, 65, 1).state_words(&mut Vec::new());
    }
}
