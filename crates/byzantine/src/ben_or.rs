//! Ben-Or's randomized binary consensus, as a runtime-agnostic state
//! machine with a seeded per-process coin.
//!
//! The second event-driven protocol of the workspace (after
//! [`crate::bracha`]): each process moves through *its own* rounds at
//! whatever pace the message schedule allows — there is no global clock,
//! and the number of rounds until decision is a **random variable** whose
//! distribution depends on the inputs, the coin seeds and, crucially, the
//! scheduler. That makes it exactly the workload the `bne-net` adversarial
//! schedulers were built to stress (the Herman-protocol-style
//! expected-convergence analysis).
//!
//! The protocol (Ben-Or 1983, in the presentation of Aspnes' *Notes on
//! Theory of Distributed Systems*): in round `r` with preference `x`,
//!
//! 1. multicast `Report(r, x)`; collect `n − t` round-`r` reports. If more
//!    than `(n + t) / 2` report the same `v`, multicast `Proposal(r, v)`,
//!    else `Proposal(r, ⊥)`;
//! 2. collect `n − t` round-`r` proposals. If `2t + 1` propose the same
//!    `v`: **decide** `v`. Else if `t + 1` propose `v`: adopt `x = v`.
//!    Else: set `x` to a fresh coin flip. Advance to round `r + 1`.
//!
//! A process that decides multicasts `Decided(v)` and halts; peers count a
//! `Decided(v)` as a permanent `Report(r, v)` **and** `Proposal(r, v)` in
//! every later round, which is what lets stragglers reach their quorums
//! after the fast processes have gone quiet (termination detection without
//! a global observer). With these thresholds the classical guarantees hold
//! for `n > 5t` under Byzantine faults (`n > 2t` for crash faults);
//! termination is with probability 1, so [`BenOrState`] carries a
//! `max_rounds` cap after which it halts undecided rather than spin
//! forever in a simulation.

use crate::event::EventMachine;
use crate::network::ProcId;
use crate::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One Ben-Or message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenOrMsg {
    /// Phase-1 vote: "my round-`round` preference is `value`".
    Report {
        /// The sender's current round (1-based).
        round: u32,
        /// The sender's preference.
        value: Value,
    },
    /// Phase-2 vote: "round `round` reports showed a supermajority for
    /// `value`" (`None` encodes the ⊥ proposal).
    Proposal {
        /// The sender's current round (1-based).
        round: u32,
        /// The proposed value, or `None` for ⊥.
        value: Option<Value>,
    },
    /// Broadcast once on deciding; counts as this sender's report and
    /// proposal in every later round.
    Decided {
        /// The decided value.
        value: Value,
    },
}

/// Which phase of its current round a process is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for `n − t` round-`r` reports.
    Reporting,
    /// Waiting for `n − t` round-`r` proposals.
    Proposing,
}

/// One sender's votes in one round (first write wins).
#[derive(Debug, Clone, Copy, Default)]
struct Votes {
    report: Option<Value>,
    proposal: Option<Option<Value>>,
}

/// Running counts over a set of votes: how many senders voted, and how
/// many of them for 0 and for 1. A ⊥ proposal, or a vote for any other
/// value, counts as a voter only.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    voters: usize,
    support: [usize; 2],
}

impl Tally {
    fn add(&mut self, vote: Option<Value>) {
        self.voters += 1;
        if let Some(v @ 0..=1) = vote {
            self.support[v as usize] += 1;
        }
    }

    fn remove(&mut self, vote: Option<Value>) {
        self.voters -= 1;
        if let Some(v @ 0..=1) = vote {
            self.support[v as usize] -= 1;
        }
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            voters: self.voters + other.voters,
            support: [
                self.support[0] + other.support[0],
                self.support[1] + other.support[1],
            ],
        }
    }
}

/// One round's running tallies over the senders not known to have
/// decided.
#[derive(Debug, Clone, Copy, Default)]
struct RoundTally {
    reports: Tally,
    proposals: Tally,
}

/// What configures a Ben-Or participant beyond its id and `n`.
#[derive(Debug, Clone)]
pub struct BenOrSpec {
    /// The fault budget shaping the quorum thresholds (at most `n`).
    pub t: usize,
    /// The initial preference (0 or 1).
    pub pref: Value,
    /// The round cap after which the process halts undecided.
    pub max_rounds: u32,
    /// The private coin's seed (derive it per process via
    /// `bne_sim::derive_seed` so no two processes share a coin stream).
    pub coin_seed: u64,
    /// When set, coin flips are drawn from this scripted
    /// [`crate::choice::ChoiceTap`] (domain 2 per flip) instead of the
    /// seeded coin. Clones of the state share the tap — which is what the
    /// model checker wants: the tap's contents are search state, saved
    /// and restored alongside the runtime snapshot.
    pub coin_tap: Option<crate::choice::SharedTap>,
}

/// The state of one Ben-Or participant: the votes of the current and
/// later rounds in flat rows indexed by sender (first write wins, so
/// Byzantine duplicates cannot stuff a quorum) with a running tally per
/// row, the halted peers' decided values, and the process's private
/// seeded coin.
///
/// A vote no tally can read is never stored: one for a past round, a
/// current-round report once the phase has moved on, or any vote from a
/// peer whose `Decided` has arrived (its decided value stands in for it
/// in every round, and its stored votes go when the `Decided` arrives).
#[derive(Debug, Clone)]
pub struct BenOrState {
    n: usize,
    t: usize,
    pref: Value,
    round: u32,
    phase: Phase,
    max_rounds: u32,
    /// Row `r` (entries `r * n..(r + 1) * n`, one per sender) holds the
    /// votes of round `round + r`. The front row is dropped as the round
    /// advances and its capacity reused for later rounds; a clone copies
    /// only the live rows.
    votes: Vec<Votes>,
    /// The running tally of each row of `votes`.
    tallies: Vec<RoundTally>,
    /// Each sender's decided value, once its `Decided` has arrived.
    decided_peers: Vec<Option<Value>>,
    /// The decided peers, which count in every round's report and
    /// proposal tallies.
    decided_tally: Tally,
    decided: Option<Value>,
    decided_round: Option<u32>,
    halted: bool,
    coin: StdRng,
    /// When set, coin flips come from the scripted tap instead of the
    /// seeded RNG — the model checker's hook for enumerating *all* coin
    /// outcomes (Ben-Or's safety must hold for every one of them).
    coin_tap: Option<crate::choice::SharedTap>,
}

impl BenOrState {
    /// `src`'s votes in `round` and that round's tally, adding empty rows
    /// up to the round's.
    fn slot(&mut self, src: ProcId, round: u32) -> (&mut Votes, &mut RoundTally) {
        let row = (round - self.round) as usize;
        if row >= self.tallies.len() {
            self.tallies.resize(row + 1, RoundTally::default());
            self.votes.resize((row + 1) * self.n, Votes::default());
        }
        (&mut self.votes[row * self.n + src], &mut self.tallies[row])
    }

    /// Tries to finish the current phase (possibly several in a row — a
    /// burst of buffered future-round votes can unlock more than one).
    fn advance(&mut self, out: &mut Vec<BenOrMsg>) {
        while !self.halted {
            let row = self.tallies.first().copied().unwrap_or_default();
            match self.phase {
                Phase::Reporting => {
                    let tally = row.reports.plus(self.decided_tally);
                    if tally.voters < self.n - self.t {
                        return;
                    }
                    // supermajority: two report quorums intersect in an
                    // honest process, so at most one value can cross it
                    let quorum = (self.n + self.t) / 2 + 1;
                    let proposal = (0..2).find(|&v| tally.support[v as usize] >= quorum);
                    self.phase = Phase::Proposing;
                    out.push(BenOrMsg::Proposal {
                        round: self.round,
                        value: proposal,
                    });
                }
                Phase::Proposing => {
                    let tally = row.proposals.plus(self.decided_tally);
                    if tally.voters < self.n - self.t {
                        return;
                    }
                    // the best-supported value (ties broken toward 0 for
                    // determinism; honest processes can never produce two
                    // conflicting proposals, so a tie means Byzantine
                    // noise on both sides)
                    let [zeros, ones] = tally.support;
                    let (v, c) = if ones > zeros { (1, ones) } else { (0, zeros) };
                    if c > 2 * self.t {
                        // c ≥ 2t + 1: a majority of the proposers are honest
                        self.decided = Some(v);
                        self.decided_round = Some(self.round);
                        self.halt();
                        out.push(BenOrMsg::Decided { value: v });
                        return;
                    }
                    self.pref = if c > self.t {
                        // c ≥ t + 1: at least one honest proposer
                        v
                    } else {
                        match &self.coin_tap {
                            Some(tap) => tap.borrow_mut().draw(2),
                            None => self.coin.random_range(0..2u64),
                        }
                    };
                    self.round += 1;
                    if !self.tallies.is_empty() {
                        self.tallies.remove(0);
                        self.votes.drain(..self.n);
                    }
                    if self.round > self.max_rounds {
                        // give up undecided: bounds the simulation
                        self.halt();
                        return;
                    }
                    self.phase = Phase::Reporting;
                    out.push(BenOrMsg::Report {
                        round: self.round,
                        value: self.pref,
                    });
                }
            }
        }
    }

    /// Stops participating; no vote is read again, so the rows go.
    fn halt(&mut self) {
        self.halted = true;
        self.votes.clear();
        self.tallies.clear();
    }

    /// The round and sender of the vote at index `at` of `votes`.
    fn round_and_sender(&self, at: usize) -> (u64, u64) {
        (
            u64::from(self.round) + (at / self.n) as u64,
            (at % self.n) as u64,
        )
    }

    /// The row of a vote from `src` for `round`, or `None` when the vote
    /// can never be read: the process has halted, `src` has decided or
    /// is no process, or the round is past or beyond the cap.
    fn live_row(&self, src: ProcId, round: u32) -> Option<usize> {
        let live = !self.halted
            && src < self.n
            && self.decided_peers[src].is_none()
            && (self.round..=self.max_rounds).contains(&round);
        live.then(|| (round - self.round) as usize)
    }
}

impl EventMachine for BenOrState {
    type Msg = BenOrMsg;
    type Spec = BenOrSpec;

    /// The opening move: multicast this process's round-1 report.
    ///
    /// # Panics
    ///
    /// Panics if `t > n` (the `n − t` quorum would underflow) or if the
    /// preference is neither 0 nor 1 (Ben-Or is binary consensus).
    fn start(_id: ProcId, n: usize, spec: &BenOrSpec, out: &mut Vec<BenOrMsg>) -> Self {
        let BenOrSpec { t, pref, .. } = *spec;
        assert!(t <= n, "Ben-Or fault budget t = {t} exceeds n = {n}");
        assert!(pref <= 1, "Ben-Or is binary: preference {pref}");
        out.push(BenOrMsg::Report {
            round: 1,
            value: pref,
        });
        BenOrState {
            n,
            t,
            pref,
            round: 1,
            phase: Phase::Reporting,
            max_rounds: spec.max_rounds,
            votes: Vec::new(),
            tallies: Vec::new(),
            decided_peers: vec![None; n],
            decided_tally: Tally::default(),
            decided: None,
            decided_round: None,
            halted: false,
            coin: StdRng::seed_from_u64(spec.coin_seed),
            coin_tap: spec.coin_tap.clone(),
        }
    }

    /// Handles one incoming message and advances through as many
    /// phases/rounds as the accumulated votes allow, appending every
    /// message to multicast to all `n` processes (first write per
    /// `(round, sender)` wins; a process's own multicasts loop back
    /// through the network like anyone else's). A delivery costs O(1) (a
    /// `Decided` one pass over the live rows) and allocates nothing once
    /// the rows of the rounds in flight exist.
    ///
    /// Two inputs are ignored outright, as no tally could ever read them:
    /// any message from `src >= n`, and a vote for a round above
    /// `max_rounds` (the process halts before it gets there). Neither
    /// reaches a handler in this workspace: `EventNet` delivers only from
    /// its own processes, honest processes halt at the round cap, and the
    /// noise adversary only echoes rounds it has seen. A vote for a value
    /// other than 0 or 1, which only a Byzantine sender can cast, counts
    /// toward the `n − t` quorums but for neither value; that changes no
    /// outcome unless more than `t` senders cast the same such value.
    fn handle_into(&mut self, src: ProcId, msg: &BenOrMsg, out: &mut Vec<BenOrMsg>) {
        if !self.absorbs(src, msg) {
            match *msg {
                BenOrMsg::Report { round, value } => {
                    let (cast, tally) = self.slot(src, round);
                    cast.report = Some(value);
                    tally.reports.add(Some(value));
                }
                BenOrMsg::Proposal { round, value } => {
                    let (cast, tally) = self.slot(src, round);
                    cast.proposal = Some(value);
                    tally.proposals.add(value);
                }
                BenOrMsg::Decided { value } => {
                    self.decided_peers[src] = Some(value);
                    self.decided_tally.add(Some(value));
                    // from now on its decided value stands in for its
                    // vote in every round
                    for (row, tally) in self.votes.chunks_mut(self.n).zip(&mut self.tallies) {
                        let cast = std::mem::take(&mut row[src]);
                        if let Some(v) = cast.report {
                            tally.reports.remove(Some(v));
                        }
                        if let Some(v) = cast.proposal {
                            tally.proposals.remove(v);
                        }
                    }
                }
            }
        }
        self.advance(out);
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn decision_round(&self) -> Option<u64> {
        self.decided_round.map(u64::from)
    }

    /// Appends a canonical encoding of the *behaviorally live* local
    /// state to `out` and returns `true`, or returns `false` when the
    /// coin is the seeded RNG (whose internal state has no canonical word
    /// encoding — state-space deduplication would be unsound).
    /// Exhaustive checking therefore requires
    /// [`BenOrSpec::coin_tap`]. The tap's own contents are
    /// deliberately *not* encoded: every consumed choice's effect is
    /// already visible in the protocol state, and the checker forks over
    /// future draws on demand.
    ///
    /// *Dead* state is canonicalized away, so two states that differ only
    /// in facts that can never again influence behavior share an
    /// encoding: a halted process keeps only its decision (its tallies
    /// are never re-read and it never speaks again), and votes that no
    /// future [`EventMachine::handle_into`] call can read — past rounds, the
    /// current round's reports once the phase has moved on, and votes
    /// from peers in `decided_peers` (the tallies skip them in favor of
    /// the permanent decided vote) — are not encoded. The taxonomy
    /// matches [`EventMachine::absorbs`] exactly: a message is absorbed
    /// precisely when handling it could only create or refresh a dead
    /// vote.
    fn state_words(&self, out: &mut Vec<u64>) -> bool {
        if self.coin_tap.is_none() {
            return false;
        }
        if self.halted {
            // tag 2 cannot collide with a live encoding, whose first
            // word is a binary preference
            out.extend([
                2,
                u64::from(self.decided.is_some()),
                self.decided.unwrap_or(0),
            ]);
            return true;
        }
        out.extend([
            self.pref,
            u64::from(self.round),
            match self.phase {
                Phase::Reporting => 0,
                Phase::Proposing => 1,
            },
        ]);
        // each tally is a vote count followed by its (round, sender, vote)
        // entries; the count is written once the entries are. The
        // current round's row keeps its reports after the phase moves
        // on, but they are dead then.
        let skip = match self.phase {
            Phase::Reporting => 0,
            Phase::Proposing => self.n,
        };
        let count_at = out.len();
        out.push(0);
        for (at, cast) in self.votes.iter().enumerate().skip(skip) {
            if let Some(v) = cast.report {
                let (round, src) = self.round_and_sender(at);
                out.extend([round, src, v]);
            }
        }
        out[count_at] = ((out.len() - count_at - 1) / 3) as u64;
        let count_at = out.len();
        out.push(0);
        for (at, cast) in self.votes.iter().enumerate() {
            if let Some(v) = cast.proposal {
                let (round, src) = self.round_and_sender(at);
                out.extend([round, src, u64::from(v.is_some()), v.unwrap_or(0)]);
            }
        }
        out[count_at] = ((out.len() - count_at - 1) / 4) as u64;
        out.push(self.decided_tally.voters as u64);
        for (src, v) in self.decided_peers.iter().enumerate() {
            if let Some(v) = *v {
                out.extend([src as u64, v]);
            }
        }
        true
    }

    /// Whether handling `msg` from `src` is a *permanent* behavioral
    /// no-op: it cannot trigger sends, cannot change the decision, and
    /// leaves the canonical [`EventMachine::state_words`] unchanged — now
    /// and after any further messages. True when halted, when `src`
    /// already has a vote in the relevant row (first write wins), when
    /// `src` is a known decided peer (the tallies use its permanent
    /// decided vote instead), when the vote's round can no longer be
    /// read (past rounds; current-round reports once the phase has moved
    /// to proposing), and for the two inputs
    /// [`EventMachine::handle_into`] ignores. All those conditions are
    /// monotone, which is what makes the no-op permanent; `handle_into`
    /// stores exactly the messages this does not absorb.
    fn absorbs(&self, src: ProcId, msg: &BenOrMsg) -> bool {
        let cast = |row: usize| {
            self.votes
                .get(row * self.n + src)
                .copied()
                .unwrap_or_default()
        };
        match *msg {
            BenOrMsg::Report { round, .. } => self
                .live_row(src, round)
                .filter(|&row| row > 0 || self.phase == Phase::Reporting)
                .is_none_or(|row| cast(row).report.is_some()),
            BenOrMsg::Proposal { round, .. } => self
                .live_row(src, round)
                .is_none_or(|row| cast(row).proposal.is_some()),
            BenOrMsg::Decided { .. } => {
                self.halted || src >= self.n || self.decided_peers[src].is_some()
            }
        }
    }

    /// Whether the process has stopped participating — decided, or gave
    /// up at `max_rounds` — and so permanently stopped speaking: every
    /// later incoming message is a behavioral no-op (see
    /// [`EventMachine::absorbs`]).
    fn halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choice::{shared_tap, ChoiceTap, SharedTap};
    use crate::event::Drive;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// Participant `id` of `n` with an untapped coin.
    fn state(
        id: ProcId,
        n: usize,
        t: usize,
        pref: Value,
        max_rounds: u32,
        seed: u64,
    ) -> BenOrState {
        let spec = BenOrSpec {
            t,
            pref,
            max_rounds,
            coin_seed: seed,
            coin_tap: None,
        };
        BenOrState::started(id, n, &spec).0
    }

    /// Drives a full network of `BenOrState`s by a FIFO queue until
    /// quiescence (every returned message multicast to all).
    fn run_lockstep(prefs: &[Value], t: usize, max_rounds: u32) -> Vec<BenOrState> {
        let n = prefs.len();
        let mut queue: std::collections::VecDeque<(ProcId, ProcId, BenOrMsg)> =
            std::collections::VecDeque::new();
        let mut procs: Vec<BenOrState> = prefs
            .iter()
            .enumerate()
            .map(|(src, &pref)| {
                let spec = BenOrSpec {
                    t,
                    pref,
                    max_rounds,
                    coin_seed: 0xC0 + src as u64,
                    coin_tap: None,
                };
                let (state, opening) = BenOrState::started(src, n, &spec);
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
    fn unanimous_inputs_decide_in_round_one() {
        let procs = run_lockstep(&[1, 1, 1, 1, 1], 1, 50);
        for p in &procs {
            assert_eq!(p.decision(), Some(1));
            assert_eq!(p.decision_round(), Some(1));
        }
    }

    #[test]
    fn mixed_inputs_decide_and_agree() {
        let procs = run_lockstep(&[0, 1, 0, 1, 0, 1, 0], 1, 200);
        let first = procs[0].decision().expect("must decide");
        for p in &procs {
            assert_eq!(p.decision(), Some(first), "agreement");
        }
    }

    #[test]
    fn validity_unanimous_zero() {
        let procs = run_lockstep(&[0, 0, 0, 0], 1, 50);
        assert!(procs.iter().all(|p| p.decision() == Some(0)));
    }

    #[test]
    fn max_rounds_halts_undecided_rather_than_spinning() {
        // t = n: quorums are unreachable, so every process coins forever
        // until the cap trips
        let mut p = state(0, 3, 3, 1, 5, 9);
        // n - t = 0 voters needed: advances through phases on no votes
        p.advance(&mut Vec::new());
        assert!(p.halted());
        assert_eq!(p.decision(), None);
    }

    #[test]
    fn duplicate_votes_from_one_sender_count_once() {
        let mut p = state(0, 4, 1, 1, 10, 7);
        for _ in 0..5 {
            let _ = p.handle(2, &BenOrMsg::Report { round: 1, value: 1 });
        }
        // only 1 distinct voter < n - t = 3: still reporting
        assert_eq!(p.phase, Phase::Reporting);
    }

    #[test]
    fn decided_peers_unblock_stragglers_in_later_rounds() {
        // three peers decided 1 and halted; the straggler's round-1 tally
        // counts them, crosses its quorums and decides without any live
        // round-1 traffic
        let mut p = state(3, 4, 1, 0, 10, 11);
        let mut out = Vec::new();
        for src in 0..3 {
            out.extend(p.handle(src, &BenOrMsg::Decided { value: 1 }));
        }
        assert_eq!(p.decision(), Some(1));
        assert!(out
            .iter()
            .any(|m| matches!(m, BenOrMsg::Decided { value: 1 })));
    }

    #[test]
    fn coin_streams_differ_across_seeds() {
        let mut a = state(0, 3, 1, 0, 10, 1);
        let mut b = state(0, 3, 1, 0, 10, 2);
        let flips = |s: &mut BenOrState| -> Vec<u64> {
            (0..32).map(|_| s.coin.random_range(0..2u64)).collect()
        };
        assert_ne!(flips(&mut a), flips(&mut b));
    }

    /// The `BTreeMap` tallies the flat rows replaced, kept as the model
    /// they are checked against: every vote is stored, keyed by round and
    /// sender, and each phase check recounts its tally.
    struct Reference {
        n: usize,
        t: usize,
        pref: Value,
        round: u32,
        phase: Phase,
        max_rounds: u32,
        reports: BTreeMap<u32, BTreeMap<ProcId, Value>>,
        proposals: BTreeMap<u32, BTreeMap<ProcId, Option<Value>>>,
        decided_peers: BTreeMap<ProcId, Value>,
        decided: Option<Value>,
        decided_round: Option<u32>,
        halted: bool,
        coin: SharedTap,
    }

    impl Reference {
        fn new(n: usize, t: usize, pref: Value, max_rounds: u32, coin: SharedTap) -> Self {
            Reference {
                n,
                t,
                pref,
                round: 1,
                phase: Phase::Reporting,
                max_rounds,
                reports: BTreeMap::new(),
                proposals: BTreeMap::new(),
                decided_peers: BTreeMap::new(),
                decided: None,
                decided_round: None,
                halted: false,
                coin,
            }
        }

        fn handle(&mut self, src: ProcId, msg: &BenOrMsg) -> Vec<BenOrMsg> {
            match *msg {
                BenOrMsg::Report { round, value } => {
                    let votes = self.reports.entry(round).or_default();
                    votes.entry(src).or_insert(value);
                }
                BenOrMsg::Proposal { round, value } => {
                    let votes = self.proposals.entry(round).or_default();
                    votes.entry(src).or_insert(value);
                }
                BenOrMsg::Decided { value } => {
                    self.decided_peers.entry(src).or_insert(value);
                }
            }
            let mut out = Vec::new();
            while !self.halted {
                if self.phase == Phase::Reporting {
                    let Some(tally) = self.tally(&self.reports, Some) else {
                        break;
                    };
                    let quorum = (self.n + self.t) / 2 + 1;
                    let proposal = tally.iter().find(|&(_, &c)| c >= quorum).map(|(&v, _)| v);
                    self.phase = Phase::Proposing;
                    out.push(BenOrMsg::Proposal {
                        round: self.round,
                        value: proposal,
                    });
                    continue;
                }
                let Some(tally) = self.tally(&self.proposals, |v| v) else {
                    break;
                };
                let best = tally
                    .iter()
                    .max_by_key(|&(&v, &c)| (c, std::cmp::Reverse(v)))
                    .map(|(&v, &c)| (v, c));
                match best {
                    Some((v, c)) if c > 2 * self.t => {
                        self.decided = Some(v);
                        self.decided_round = Some(self.round);
                        self.halted = true;
                        out.push(BenOrMsg::Decided { value: v });
                        break;
                    }
                    Some((v, c)) if c > self.t => self.pref = v,
                    _ => self.pref = self.coin.borrow_mut().draw(2),
                }
                self.round += 1;
                if self.round > self.max_rounds {
                    self.halted = true;
                    break;
                }
                self.phase = Phase::Reporting;
                out.push(BenOrMsg::Report {
                    round: self.round,
                    value: self.pref,
                });
            }
            out
        }

        /// The current round's tally of `votes` (value → voters, decided
        /// peers counted for their decided value), once `n − t` distinct
        /// voters have been heard.
        fn tally<T: Copy>(
            &self,
            votes: &BTreeMap<u32, BTreeMap<ProcId, T>>,
            value: impl Fn(T) -> Option<Value>,
        ) -> Option<BTreeMap<Value, usize>> {
            let live = votes.get(&self.round).into_iter().flatten();
            let cast: Vec<Option<Value>> = live
                .filter(|(src, _)| !self.decided_peers.contains_key(src))
                .map(|(_, &v)| value(v))
                .chain(self.decided_peers.values().map(|&v| Some(v)))
                .collect();
            let mut tally = BTreeMap::new();
            for &v in cast.iter().flatten() {
                *tally.entry(v).or_default() += 1;
            }
            (cast.len() >= self.n - self.t).then_some(tally)
        }

        fn state_words(&self) -> Vec<u64> {
            if self.halted {
                return vec![
                    2,
                    u64::from(self.decided.is_some()),
                    self.decided.unwrap_or(0),
                ];
            }
            let proposing = self.phase == Phase::Proposing;
            let mut out = vec![self.pref, u64::from(self.round), u64::from(proposing)];
            let live = |src: &ProcId| !self.decided_peers.contains_key(src);
            let mut rows = Vec::new();
            for (&round, votes) in &self.reports {
                if round > self.round || (round == self.round && !proposing) {
                    for (&src, &v) in votes.iter().filter(|(src, _)| live(src)) {
                        rows.extend([u64::from(round), src as u64, v]);
                    }
                }
            }
            out.push(rows.len() as u64 / 3);
            out.append(&mut rows);
            for (&round, votes) in self.proposals.range(self.round..) {
                for (&src, &v) in votes.iter().filter(|(src, _)| live(src)) {
                    rows.extend([
                        u64::from(round),
                        src as u64,
                        u64::from(v.is_some()),
                        v.unwrap_or(0),
                    ]);
                }
            }
            out.push(rows.len() as u64 / 4);
            out.append(&mut rows);
            out.push(self.decided_peers.len() as u64);
            for (&src, &v) in &self.decided_peers {
                out.extend([src as u64, v]);
            }
            out
        }

        fn absorbs(&self, src: ProcId, msg: &BenOrMsg) -> bool {
            self.halted
                || self.decided_peers.contains_key(&src)
                || match *msg {
                    BenOrMsg::Report { round, .. } => {
                        round < self.round
                            || (round == self.round && self.phase == Phase::Proposing)
                            || self
                                .reports
                                .get(&round)
                                .is_some_and(|v| v.contains_key(&src))
                    }
                    BenOrMsg::Proposal { round, .. } => {
                        round < self.round
                            || self
                                .proposals
                                .get(&round)
                                .is_some_and(|v| v.contains_key(&src))
                    }
                    BenOrMsg::Decided { .. } => false,
                }
        }
    }

    /// Process 0 of 4 (`t` = 1, preference 1) with a tapped coin.
    fn tapped(max_rounds: u32) -> BenOrState {
        let spec = BenOrSpec {
            t: 1,
            pref: 1,
            max_rounds,
            coin_seed: 7,
            coin_tap: Some(shared_tap()),
        };
        BenOrState::started(0, 4, &spec).0
    }

    fn words(p: &BenOrState) -> Vec<u64> {
        let mut out = Vec::new();
        assert!(p.state_words(&mut out), "the coin is tapped");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random vote sequences (n in 3..=11, rounds up to the cap,
        /// values 0, 1 and ⊥, plus `Decided`) through the flat rows and
        /// the reference model in lockstep: the same sends, decision,
        /// coin draws and canonical encoding after every message, and the
        /// same verdict on whether the next message is absorbed. When
        /// `t > 0` the last sender may also vote 2, a value the flat rows
        /// count as a voter only: within the fault budget that changes
        /// nothing.
        #[test]
        fn flat_rows_match_the_btreemap_reference(
            n in 3usize..=11,
            t_draw in 0usize..=5,
            max_rounds in 1u32..=5,
            pref in 0u64..=1,
            coins in prop::collection::vec(0u64..=1, 0..24),
            ops in prop::collection::vec(0u64..=u64::MAX, 1..400),
        ) {
            let t = t_draw % (n / 2 + 1);
            let taps = [0, 1].map(|_| Rc::new(RefCell::new(ChoiceTap::scripted(coins.clone()))));
            let spec = BenOrSpec { t, pref, max_rounds, coin_seed: 0, coin_tap: Some(Rc::clone(&taps[0])) };
            let (mut flat, opening) = BenOrState::started(0, n, &spec);
            let mut model = Reference::new(n, t, pref, max_rounds, Rc::clone(&taps[1]));
            prop_assert_eq!(opening, vec![BenOrMsg::Report { round: 1, value: pref }]);
            for w in ops {
                let src = (w % n as u64) as ProcId;
                // half the votes target the model's current round, so
                // quorums form and the phases move
                let round = if (w >> 8) & 1 == 0 {
                    model.round.min(max_rounds)
                } else {
                    1 + ((w >> 16) % u64::from(max_rounds)) as u32
                };
                let domain = if t > 0 && src == n - 1 { 3 } else { 2 };
                let value = (w >> 32) % (domain + 1);
                let msg = match (w >> 40) % 16 {
                    0 => BenOrMsg::Decided { value: value % domain },
                    1..=8 => BenOrMsg::Report { round, value: value % domain },
                    _ => BenOrMsg::Proposal { round, value: (value < domain).then_some(value) },
                };
                prop_assert_eq!(flat.absorbs(src, &msg), model.absorbs(src, &msg), "{:?}", msg);
                prop_assert_eq!(flat.handle(src, &msg), model.handle(src, &msg), "{:?}", msg);
                prop_assert_eq!(
                    (flat.decision(), flat.decision_round(), flat.halted()),
                    (model.decided, model.decided_round.map(u64::from), model.halted)
                );
                prop_assert_eq!(words(&flat), model.state_words());
                prop_assert_eq!(taps[0].borrow().pos(), taps[1].borrow().pos());
            }
        }
    }

    #[test]
    fn votes_from_outside_the_process_set_are_ignored() {
        // the BTreeMap tallies counted a sender >= n as one more voter
        let mut p = tapped(10);
        for src in 0..2 {
            let _ = p.handle(src, &BenOrMsg::Report { round: 1, value: 1 });
        }
        let before = words(&p);
        for src in [4, 9] {
            for msg in [
                BenOrMsg::Report { round: 1, value: 1 },
                BenOrMsg::Proposal {
                    round: 1,
                    value: Some(1),
                },
                BenOrMsg::Decided { value: 1 },
            ] {
                assert!(p.absorbs(src, &msg));
                assert!(p.handle(src, &msg).is_empty());
            }
        }
        assert_eq!(p.phase, Phase::Reporting, "2 voters < n - t = 3");
        assert_eq!(words(&p), before);
    }

    #[test]
    fn votes_beyond_the_round_cap_are_ignored() {
        // the BTreeMap tallies stored these and encoded them in the state
        let mut p = tapped(3);
        let before = words(&p);
        for src in 0..4 {
            for msg in [
                BenOrMsg::Report { round: 4, value: 1 },
                BenOrMsg::Proposal {
                    round: 4,
                    value: Some(1),
                },
            ] {
                assert!(p.absorbs(src, &msg));
                assert!(p.handle(src, &msg).is_empty());
            }
        }
        assert_eq!(words(&p), before);
    }

    #[test]
    #[should_panic(expected = "t = 4 exceeds n = 3")]
    fn a_fault_budget_above_n_is_rejected() {
        let _ = state(0, 3, 4, 1, 5, 9);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn a_non_binary_preference_is_rejected() {
        let _ = state(0, 3, 1, 2, 5, 9);
    }
}
