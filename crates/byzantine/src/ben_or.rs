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

use crate::network::ProcId;
use crate::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

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

/// The state of one Ben-Or participant: per-round vote tallies (keyed by
/// sender, so Byzantine duplicates cannot stuff a quorum), the halted
/// peers' decided values, and the process's private seeded coin.
#[derive(Debug, Clone)]
pub struct BenOrState {
    id: ProcId,
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
    coin: StdRng,
    /// When set, coin flips come from the scripted tap instead of the
    /// seeded RNG — the model checker's hook for enumerating *all* coin
    /// outcomes (Ben-Or's safety must hold for every one of them).
    coin_tap: Option<crate::choice::SharedTap>,
}

impl BenOrState {
    /// A fresh participant with initial preference `pref` and a private
    /// coin seeded with `coin_seed` (derive it per process via
    /// `bne_sim::derive_seed` so no two processes share a coin stream).
    pub fn new(
        id: ProcId,
        n: usize,
        t: usize,
        pref: Value,
        max_rounds: u32,
        coin_seed: u64,
    ) -> Self {
        BenOrState {
            id,
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
            coin: StdRng::seed_from_u64(coin_seed),
            coin_tap: None,
        }
    }

    /// Reroutes coin flips through a scripted [`crate::choice::ChoiceTap`]
    /// (domain 2 per flip). Clones of this state share the tap — which is
    /// what the model checker wants: the tap's contents are search state,
    /// saved and restored alongside the runtime snapshot.
    pub fn with_coin_tap(mut self, tap: crate::choice::SharedTap) -> Self {
        self.coin_tap = Some(tap);
        self
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<Value> {
        self.decided
    }

    /// The round in which the decision was reached, if any.
    pub fn decided_round(&self) -> Option<u32> {
        self.decided_round
    }

    /// Whether the process has stopped participating (decided, or gave up
    /// at `max_rounds`).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The opening move: multicast this process's round-1 report.
    pub fn start(&mut self) -> Vec<BenOrMsg> {
        vec![BenOrMsg::Report {
            round: 1,
            value: self.pref,
        }]
    }

    /// Handles one incoming message and advances through as many
    /// phases/rounds as the accumulated votes allow, returning every
    /// message to multicast to all `n` processes (first write per
    /// `(round, sender)` wins; a process's own multicasts loop back
    /// through the network like anyone else's).
    pub fn handle(&mut self, src: ProcId, msg: &BenOrMsg) -> Vec<BenOrMsg> {
        match *msg {
            BenOrMsg::Report { round, value } => {
                self.reports
                    .entry(round)
                    .or_default()
                    .entry(src)
                    .or_insert(value);
            }
            BenOrMsg::Proposal { round, value } => {
                self.proposals
                    .entry(round)
                    .or_default()
                    .entry(src)
                    .or_insert(value);
            }
            BenOrMsg::Decided { value } => {
                self.decided_peers.entry(src).or_insert(value);
            }
        }
        self.advance()
    }

    /// Tries to finish the current phase (possibly several in a row — a
    /// burst of buffered future-round votes can unlock more than one).
    fn advance(&mut self) -> Vec<BenOrMsg> {
        let mut out = Vec::new();
        loop {
            if self.halted {
                return out;
            }
            match self.phase {
                Phase::Reporting => {
                    let Some(tally) = self.report_tally() else {
                        return out;
                    };
                    // supermajority: two report quorums intersect in an
                    // honest process, so at most one value can cross it
                    let quorum = (self.n + self.t) / 2 + 1;
                    let proposal = tally.iter().find(|&(_, &c)| c >= quorum).map(|(&v, _)| v);
                    self.phase = Phase::Proposing;
                    out.push(BenOrMsg::Proposal {
                        round: self.round,
                        value: proposal,
                    });
                }
                Phase::Proposing => {
                    let Some(tally) = self.proposal_tally() else {
                        return out;
                    };
                    // the best-supported non-⊥ value (ties broken toward
                    // the smaller value for determinism; honest processes
                    // can never produce two conflicting proposals, so a
                    // tie means Byzantine noise on both sides)
                    let best = tally
                        .iter()
                        .max_by_key(|&(&v, &c)| (c, std::cmp::Reverse(v)))
                        .map(|(&v, &c)| (v, c));
                    match best {
                        // c ≥ 2t + 1: a majority of the proposers are honest
                        Some((v, c)) if c > 2 * self.t => {
                            self.decided = Some(v);
                            self.decided_round = Some(self.round);
                            self.halted = true;
                            out.push(BenOrMsg::Decided { value: v });
                            return out;
                        }
                        // c ≥ t + 1: at least one honest proposer
                        Some((v, c)) if c > self.t => self.pref = v,
                        _ => {
                            self.pref = match &self.coin_tap {
                                Some(tap) => tap.borrow_mut().draw(2),
                                None => self.coin.random_range(0..2u64),
                            }
                        }
                    }
                    self.round += 1;
                    if self.round > self.max_rounds {
                        // give up undecided: bounds the simulation
                        self.halted = true;
                        return out;
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

    /// Appends a canonical encoding of the *behaviorally live* local
    /// state to `out` and returns `true`, or returns `false` when the
    /// coin is the seeded RNG (whose internal state has no canonical word
    /// encoding — state-space deduplication would be unsound).
    /// Exhaustive checking therefore requires
    /// [`BenOrState::with_coin_tap`]. The tap's own contents are
    /// deliberately *not* encoded: every consumed choice's effect is
    /// already visible in the protocol state, and the checker forks over
    /// future draws on demand.
    ///
    /// *Dead* state is canonicalized away, so two states that differ only
    /// in facts that can never again influence behavior share an
    /// encoding: a halted process keeps only its decision (its tallies
    /// are never re-read and it never speaks again), and tally rows that
    /// no future [`BenOrState::handle`] call can reach — past rounds, the
    /// current round's reports once the phase has moved on, and rows from
    /// peers in `decided_peers` (the tallies skip them in favor of the
    /// permanent decided vote) — are dropped. The taxonomy matches
    /// [`BenOrState::absorbs`] exactly: a message is absorbed precisely
    /// when handling it could only create or refresh a dead row.
    pub fn state_words(&self, out: &mut Vec<u64>) -> bool {
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
        // each tally is a row count followed by its live rows; the count
        // is written once the rows are
        let count_at = out.len();
        out.push(0);
        for (&round, votes) in &self.reports {
            for (&src, &v) in votes {
                if (round > self.round || (round == self.round && self.phase == Phase::Reporting))
                    && !self.decided_peers.contains_key(&src)
                {
                    out.extend([u64::from(round), src as u64, v]);
                }
            }
        }
        out[count_at] = ((out.len() - count_at - 1) / 3) as u64;
        let count_at = out.len();
        out.push(0);
        for (&round, votes) in &self.proposals {
            for (&src, &v) in votes {
                if round >= self.round && !self.decided_peers.contains_key(&src) {
                    out.extend([
                        u64::from(round),
                        src as u64,
                        u64::from(v.is_some()),
                        v.unwrap_or(0),
                    ]);
                }
            }
        }
        out[count_at] = ((out.len() - count_at - 1) / 4) as u64;
        out.push(self.decided_peers.len() as u64);
        for (&src, &v) in &self.decided_peers {
            out.extend([src as u64, v]);
        }
        true
    }

    /// Whether this process has permanently stopped speaking: decided or
    /// given up at the round cap. Every later incoming message is a
    /// behavioral no-op (see [`BenOrState::absorbs`]).
    pub fn is_quiescent(&self) -> bool {
        self.halted
    }

    /// Whether handling `msg` from `src` is a *permanent* behavioral
    /// no-op: it cannot trigger sends, cannot change the decision, and
    /// leaves the canonical [`BenOrState::state_words`] unchanged — now
    /// and after any further messages. True when halted, when `src`
    /// already has a row in the relevant tally (first write wins), when
    /// `src` is a known decided peer (the tallies use its permanent
    /// decided vote instead), and when the vote's round can no longer be
    /// read (past rounds; current-round reports once the phase has moved
    /// to proposing). All those conditions are monotone, which is what
    /// makes the no-op permanent.
    pub fn absorbs(&self, src: ProcId, msg: &BenOrMsg) -> bool {
        if self.halted {
            return true;
        }
        if self.decided_peers.contains_key(&src) {
            return true;
        }
        match *msg {
            BenOrMsg::Report { round, .. } => {
                round < self.round
                    || (round == self.round && self.phase == Phase::Proposing)
                    || self
                        .reports
                        .get(&round)
                        .is_some_and(|votes| votes.contains_key(&src))
            }
            BenOrMsg::Proposal { round, .. } => {
                round < self.round
                    || self
                        .proposals
                        .get(&round)
                        .is_some_and(|votes| votes.contains_key(&src))
            }
            BenOrMsg::Decided { .. } => false,
        }
    }

    /// The round-`r` report tally (value → votes), with halted peers
    /// counted as permanent reporters of their decided value. `None`
    /// until `n − t` distinct voters have been heard.
    fn report_tally(&self) -> Option<BTreeMap<Value, usize>> {
        let empty = BTreeMap::new();
        let live = self.reports.get(&self.round).unwrap_or(&empty);
        let mut tally: BTreeMap<Value, usize> = BTreeMap::new();
        let mut voters = 0usize;
        for (&src, &v) in live {
            if !self.decided_peers.contains_key(&src) {
                *tally.entry(v).or_default() += 1;
                voters += 1;
            }
        }
        for &v in self.decided_peers.values() {
            *tally.entry(v).or_default() += 1;
            voters += 1;
        }
        (voters >= self.n - self.t).then_some(tally)
    }

    /// The round-`r` proposal tally over non-⊥ values, with halted peers
    /// counted as permanent proposers of their decided value. `None`
    /// until `n − t` distinct voters have been heard.
    fn proposal_tally(&self) -> Option<BTreeMap<Value, usize>> {
        let empty = BTreeMap::new();
        let live = self.proposals.get(&self.round).unwrap_or(&empty);
        let mut tally: BTreeMap<Value, usize> = BTreeMap::new();
        let mut voters = 0usize;
        for (&src, &v) in live {
            if !self.decided_peers.contains_key(&src) {
                if let Some(v) = v {
                    *tally.entry(v).or_default() += 1;
                }
                voters += 1;
            }
        }
        for &v in self.decided_peers.values() {
            *tally.entry(v).or_default() += 1;
            voters += 1;
        }
        (voters >= self.n - self.t).then_some(tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a full network of `BenOrState`s by a FIFO queue until
    /// quiescence (every returned message multicast to all).
    fn run_lockstep(prefs: &[Value], t: usize, max_rounds: u32) -> Vec<BenOrState> {
        let n = prefs.len();
        let mut procs: Vec<BenOrState> = prefs
            .iter()
            .enumerate()
            .map(|(i, &p)| BenOrState::new(i, n, t, p, max_rounds, 0xC0 + i as u64))
            .collect();
        let mut queue: std::collections::VecDeque<(ProcId, ProcId, BenOrMsg)> =
            std::collections::VecDeque::new();
        for (src, proc) in procs.iter_mut().enumerate() {
            for m in proc.start() {
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
        procs
    }

    #[test]
    fn unanimous_inputs_decide_in_round_one() {
        let procs = run_lockstep(&[1, 1, 1, 1, 1], 1, 50);
        for p in &procs {
            assert_eq!(p.decided(), Some(1));
            assert_eq!(p.decided_round(), Some(1));
        }
    }

    #[test]
    fn mixed_inputs_decide_and_agree() {
        let procs = run_lockstep(&[0, 1, 0, 1, 0, 1, 0], 1, 200);
        let first = procs[0].decided().expect("must decide");
        for p in &procs {
            assert_eq!(p.decided(), Some(first), "agreement");
        }
    }

    #[test]
    fn validity_unanimous_zero() {
        let procs = run_lockstep(&[0, 0, 0, 0], 1, 50);
        assert!(procs.iter().all(|p| p.decided() == Some(0)));
    }

    #[test]
    fn max_rounds_halts_undecided_rather_than_spinning() {
        // t = n: quorums are unreachable, so every process coins forever
        // until the cap trips
        let mut p = BenOrState::new(0, 3, 3, 1, 5, 9);
        let _ = p.start();
        // n - t = 0 voters needed: advances through phases on no votes
        let _ = p.advance();
        assert!(p.halted());
        assert_eq!(p.decided(), None);
    }

    #[test]
    fn duplicate_votes_from_one_sender_count_once() {
        let mut p = BenOrState::new(0, 4, 1, 1, 10, 7);
        let _ = p.start();
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
        let mut p = BenOrState::new(3, 4, 1, 0, 10, 11);
        let _ = p.start();
        let mut out = Vec::new();
        for src in 0..3 {
            out.extend(p.handle(src, &BenOrMsg::Decided { value: 1 }));
        }
        assert_eq!(p.decided(), Some(1));
        assert!(out
            .iter()
            .any(|m| matches!(m, BenOrMsg::Decided { value: 1 })));
    }

    #[test]
    fn coin_streams_differ_across_seeds() {
        let mut a = BenOrState::new(0, 3, 1, 0, 10, 1);
        let mut b = BenOrState::new(0, 3, 1, 0, 10, 2);
        let flips = |s: &mut BenOrState| -> Vec<u64> {
            (0..32).map(|_| s.coin.random_range(0..2u64)).collect()
        };
        assert_ne!(flips(&mut a), flips(&mut b));
    }
}
