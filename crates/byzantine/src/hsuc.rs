//! HSUC-style leader-driven consensus (rotating coordinator), as a
//! runtime-agnostic state machine.
//!
//! Where [`crate::paxos`] lets *any* process open a ballot, this module
//! follows the leader-driven shape of the HSUC consensus module: rounds
//! `r = 1, 2, …` each have a **predetermined leader** `(r − 1) mod n`,
//! and only the leader of a round may propose in it. A round runs:
//!
//! 1. every process entering round `r` multicasts `Estimate(r, est,
//!    est_round)` — its current estimate and the round that estimate
//!    was last locked in (`0` = still the initial input);
//! 2. the leader of `r` collects estimates from a **majority**, adopts
//!    the estimate with the highest `est_round` (its own input only if
//!    nothing was ever locked), and multicasts `Propose(r, v)`;
//! 3. a process receiving the leader's proposal locks it — `est = v`,
//!    `est_round = r` — and multicasts `Ack(r)`;
//! 4. the leader counts a majority of acks, decides `v`, and
//!    multicasts `Decide(v, r)`.
//!
//! Safety is the same quorum-intersection induction as Paxos: a decided
//! value was locked by a majority at round `r`, every later leader reads
//! a majority that intersects it, and the highest-`est_round` rule makes
//! the locked value win — so no later round can propose anything else.
//! Liveness comes from the rotating leader: an undecided process times
//! out ([`EventMachine::timeout`]), advances one round, and round entry
//! is *contagious* (any message from a higher round pulls a process
//! forward), so eventually a live leader gets a live majority. The
//! protocol tolerates `f < n/2` crash faults — strictly better than the
//! `t < n/3` Byzantine protocols in this crate, because crashed
//! processes never lie.
//!
//! Crash-recovery: the locked pair `(est, est_round)` and the current
//! round are the durable fraction ([`EventMachine::durable_words`]); the
//! per-round tallies and the decision are volatile. A recovered process
//! re-learns the decision because decided processes answer higher-round
//! `Estimate`s with a `Decide` rebroadcast (once per round, so traffic
//! stays bounded).

use crate::event::{voter_mask, EventMachine};
use crate::network::ProcId;
use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One message of the leader-driven protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsucMsg {
    /// A process entered `round` and reports its locked estimate.
    Estimate {
        /// The round being entered.
        round: u64,
        /// The sender's current estimate.
        est: Value,
        /// The round that estimate was locked in (0 = initial input).
        est_round: u64,
    },
    /// The leader of `round` proposes `value`.
    Propose {
        /// The round.
        round: u64,
        /// The proposed value (forced by the highest-`est_round` rule).
        value: Value,
    },
    /// The sender locked the leader's proposal for `round`.
    Ack {
        /// The round being acknowledged.
        round: u64,
    },
    /// A decision: `value` was acked by a majority at `round`.
    Decide {
        /// The deciding round.
        round: u64,
        /// The decided value.
        value: Value,
    },
}

/// The state of one participant in the leader-driven protocol.
#[derive(Debug, Clone)]
pub struct HsucState {
    id: ProcId,
    n: usize,
    // --- durable fraction ---
    /// Current estimate (starts as the input).
    est: Value,
    /// Round the estimate was locked in (0 = never locked).
    est_round: u64,
    /// Current round (0 = not started).
    round: u64,
    // --- volatile leader bookkeeping ---
    /// Estimates gathered per led round: round → src → (est_round, est).
    estimates: BTreeMap<u64, BTreeMap<ProcId, (u64, Value)>>,
    /// The value this process proposed per led round.
    proposals: BTreeMap<u64, Value>,
    /// Ack voters per led round.
    acks: BTreeMap<u64, BTreeSet<ProcId>>,
    // --- volatile learner state ---
    decided: Option<Value>,
    decided_round: Option<u64>,
    /// Rounds for which a decided process already rebroadcast `Decide`.
    rebroadcasts: BTreeSet<u64>,
}

impl HsucState {
    /// The leader of round `r`: the coordinator rotates through all
    /// processes so every process eventually leads.
    pub fn leader_of(&self, r: u64) -> ProcId {
        ((r - 1) % self.n as u64) as usize
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Enters round `r` (if ahead of the current one) and announces the
    /// locked estimate to its leader. Round entry is contagious: higher
    /// round numbers observed in any message funnel through here.
    fn advance_to(&mut self, r: u64, out: &mut Vec<HsucMsg>) {
        if r > self.round {
            self.round = r;
            out.push(HsucMsg::Estimate {
                round: r,
                est: self.est,
                est_round: self.est_round,
            });
        }
    }
}

impl EventMachine for HsucState {
    type Msg = HsucMsg;
    /// The initial estimate.
    type Spec = Value;

    /// Everyone enters round 1 at start by multicasting its estimate
    /// (process 0 leads round 1 and will gather them).
    fn start(id: ProcId, n: usize, input: &Value, out: &mut Vec<HsucMsg>) -> Self {
        let mut state = HsucState {
            id,
            n,
            est: *input,
            est_round: 0,
            round: 0,
            estimates: BTreeMap::new(),
            proposals: BTreeMap::new(),
            acks: BTreeMap::new(),
            decided: None,
            decided_round: None,
            rebroadcasts: BTreeSet::new(),
        };
        state.advance_to(1, out);
        state
    }

    /// Leader failover: an undecided process gives up on the current
    /// round and enters the next one, whose (rotated) leader takes over.
    /// The `bne-net` shell calls this from its retry timer.
    fn timeout(&mut self, out: &mut Vec<HsucMsg>) {
        if self.decided.is_none() {
            let next = self.round + 1;
            self.advance_to(next, out);
        }
    }

    fn handle_into(&mut self, src: ProcId, msg: &HsucMsg, out: &mut Vec<HsucMsg>) {
        match *msg {
            HsucMsg::Estimate {
                round,
                est,
                est_round,
            } => {
                if let Some(value) = self.decided {
                    // help recovered/straggling processes: answer each
                    // round's estimates with the decision, once per round
                    self.round = self.round.max(round);
                    if self.rebroadcasts.insert(round) {
                        out.push(HsucMsg::Decide {
                            round: self.decided_round.unwrap_or(round),
                            value,
                        });
                    }
                    return;
                }
                self.advance_to(round, out);
                if self.leader_of(round) == self.id && round == self.round {
                    let majority = self.majority();
                    let tally = self.estimates.entry(round).or_default();
                    tally.entry(src).or_insert((est_round, est));
                    if tally.len() >= majority && !self.proposals.contains_key(&round) {
                        // the forced value: highest est_round in the
                        // majority wins (ties broken by smallest value
                        // for determinism; est_round 0 means free input)
                        let (_, value) = *tally
                            .values()
                            .max_by_key(|(er, v)| (*er, std::cmp::Reverse(*v)))
                            .expect("non-empty tally");
                        self.proposals.insert(round, value);
                        out.push(HsucMsg::Propose { round, value });
                    }
                }
            }
            HsucMsg::Propose { round, value } => {
                if src == self.leader_of(round) && round >= self.round {
                    self.advance_to(round, out);
                    // lock the proposal: this is what quorum
                    // intersection reads in later rounds
                    self.est = value;
                    self.est_round = round;
                    out.push(HsucMsg::Ack { round });
                }
            }
            HsucMsg::Ack { round } => {
                if self.leader_of(round) == self.id {
                    if let Some(&value) = self.proposals.get(&round) {
                        let voters = self.acks.entry(round).or_default();
                        voters.insert(src);
                        if voters.len() >= self.majority() && self.decided.is_none() {
                            self.decided = Some(value);
                            self.decided_round = Some(round);
                            out.push(HsucMsg::Decide { round, value });
                        }
                    }
                }
            }
            HsucMsg::Decide { round, value } => {
                if self.decided.is_none() {
                    self.decided = Some(value);
                    self.decided_round = Some(round);
                    out.push(HsucMsg::Decide { round, value });
                }
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    /// The round whose ack quorum produced the decision.
    fn decision_round(&self) -> Option<u64> {
        self.decided_round
    }

    /// The state that must survive a crash, encoded as words:
    /// `[est, est_round, round]` — the locked pair plus the round
    /// counter (so a recovered process never re-enters an old round).
    fn durable_words(&self) -> Option<Vec<u64>> {
        Some(vec![self.est, self.est_round, self.round])
    }

    /// Restores [`EventMachine::durable_words`] after a crash, wiping the
    /// volatile fields: tallies, proposals and the learned decision are
    /// lost; the decision is re-learned from decided peers' `Decide`
    /// rebroadcasts after the next timeout-driven round entry.
    fn restore_durable(&mut self, words: &[u64]) {
        self.est = words.first().copied().unwrap_or(0);
        self.est_round = words.get(1).copied().unwrap_or(0);
        self.round = words.get(2).copied().unwrap_or(0);
        self.estimates.clear();
        self.proposals.clear();
        self.acks.clear();
        self.decided = None;
        self.decided_round = None;
        self.rebroadcasts.clear();
    }

    /// Appends a canonical encoding of every field but the id and `n`:
    /// the model checker's state-fingerprint contribution, always
    /// available (HSUC has no randomness). Nothing is canonicalized
    /// away; each map or set is written as its length followed by its
    /// entries in key order, and ack voter sets as bitmasks (`n ≤ 64`).
    fn state_words(&self, out: &mut Vec<u64>) -> bool {
        // in release a wider shift would wrap and alias voter p with p - 64
        assert!(self.n <= 64, "voter bitmask encoding needs n <= 64");
        let option = |v: Option<u64>| [u64::from(v.is_some()), v.unwrap_or(0)];
        out.extend([self.est, self.est_round, self.round]);
        out.extend(option(self.decided));
        out.extend(option(self.decided_round));
        out.push(self.estimates.len() as u64);
        for (&round, tally) in &self.estimates {
            out.extend([round, tally.len() as u64]);
            for (&src, &(est_round, est)) in tally {
                out.extend([src as u64, est_round, est]);
            }
        }
        out.push(self.proposals.len() as u64);
        out.extend(self.proposals.iter().flat_map(|(&r, &v)| [r, v]));
        out.push(self.acks.len() as u64);
        out.extend(
            self.acks
                .iter()
                .flat_map(|(&r, voters)| [r, voter_mask(voters)]),
        );
        out.push(self.rebroadcasts.len() as u64);
        out.extend(&self.rebroadcasts);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Drive;
    use std::collections::VecDeque;

    fn drain(procs: &mut [HsucState], queue: &mut VecDeque<(ProcId, ProcId, HsucMsg)>) {
        let n = procs.len();
        while let Some((src, dst, msg)) = queue.pop_front() {
            for m in procs[dst].handle(src, &msg) {
                for d in 0..n {
                    queue.push_back((dst, d, m));
                }
            }
        }
    }

    /// Starts every process on `inputs`, queueing its opening multicasts.
    fn start_all(
        inputs: &[Value],
        queue: &mut VecDeque<(ProcId, ProcId, HsucMsg)>,
    ) -> Vec<HsucState> {
        let n = inputs.len();
        inputs
            .iter()
            .enumerate()
            .map(|(src, v)| {
                let (state, opening) = HsucState::started(src, n, v);
                for m in opening {
                    for dst in 0..n {
                        queue.push_back((src, dst, m));
                    }
                }
                state
            })
            .collect()
    }

    fn run_lockstep(inputs: &[Value]) -> Vec<HsucState> {
        let mut queue: VecDeque<(ProcId, ProcId, HsucMsg)> = VecDeque::new();
        let mut procs = start_all(inputs, &mut queue);
        drain(&mut procs, &mut queue);
        procs
    }

    #[test]
    fn clean_run_decides_round_one_on_the_leaders_input() {
        for n in [3usize, 4, 5, 7] {
            let inputs: Vec<Value> = (0..n as u64).map(|i| i + 20).collect();
            let procs = run_lockstep(&inputs);
            for p in &procs {
                assert_eq!(p.decision(), Some(20), "n={n}: leader 0's input wins");
                assert_eq!(p.decision_round(), Some(1));
            }
        }
    }

    #[test]
    fn leadership_rotates_through_all_processes() {
        let (s, _) = HsucState::started(0, 4, &0);
        let leaders: Vec<ProcId> = (1..=8).map(|r| s.leader_of(r)).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn locked_estimate_wins_in_later_rounds() {
        // process 1 locked value 9 at round 1; when process 2 leads
        // round 3 it must propose 9, not its own input 5
        let n = 3;
        let (mut leader, _) = HsucState::started(2, n, &5);
        // an unlocked estimate pulls the leader into round 3 (it leads:
        // leader_of(3) = 2) and opens its tally with one vote
        let out = leader.handle(
            0,
            &HsucMsg::Estimate {
                round: 3,
                est: 7,
                est_round: 0,
            },
        );
        assert!(out
            .iter()
            .any(|m| matches!(m, HsucMsg::Estimate { round: 3, .. })));
        // the locked estimate completes the majority (2 of 3) and must
        // win the highest-est_round rule despite value 9 > value 7
        let out = leader.handle(
            1,
            &HsucMsg::Estimate {
                round: 3,
                est: 9,
                est_round: 1,
            },
        );
        assert!(
            out.contains(&HsucMsg::Propose { round: 3, value: 9 }),
            "locked value forced: {out:?}"
        );
    }

    #[test]
    fn proposals_from_non_leaders_are_ignored() {
        let (mut p, _) = HsucState::started(0, 3, &4);
        // round 2's leader is process 1; an imposter proposal from 2
        let out = p.handle(2, &HsucMsg::Propose { round: 2, value: 8 });
        assert!(out.is_empty(), "imposter ignored: {out:?}");
        let out = p.handle(1, &HsucMsg::Propose { round: 2, value: 8 });
        assert!(out.contains(&HsucMsg::Ack { round: 2 }));
        assert_eq!(p.est_round, 2);
    }

    #[test]
    fn timeout_rotates_to_a_live_leader_and_still_decides() {
        // leader 0 is absent (never starts): the others time out into
        // round 2, whose leader is process 1
        let n = 3;
        let mut queue: VecDeque<(ProcId, ProcId, HsucMsg)> = VecDeque::new();
        let mut procs: Vec<HsucState> = (0..n)
            .map(|src| {
                let (state, opening) = HsucState::started(src, n, &(30 + src as u64));
                if src > 0 {
                    for m in opening {
                        for dst in 1..n {
                            queue.push_back((src, dst, m));
                        }
                    }
                }
                state
            })
            .collect();
        drain3_live(&mut procs, &mut queue);
        assert_eq!(procs[1].decision(), None, "round 1 leader is dead");
        for (src, p) in procs.iter_mut().enumerate().skip(1) {
            for m in p.on_timeout() {
                for dst in 1..n {
                    queue.push_back((src, dst, m));
                }
            }
        }
        drain3_live(&mut procs, &mut queue);
        for p in &procs[1..] {
            assert!(p.decision().is_some(), "round 2 decides without leader 0");
        }
        assert_eq!(procs[1].decision(), procs[2].decision());
        assert_eq!(procs[1].decision_round(), Some(2));
    }

    /// Drains delivering only among processes 1..n (0 is crashed).
    fn drain3_live(procs: &mut [HsucState], queue: &mut VecDeque<(ProcId, ProcId, HsucMsg)>) {
        let n = procs.len();
        while let Some((src, dst, msg)) = queue.pop_front() {
            for m in procs[dst].handle(src, &msg) {
                for d in 1..n {
                    queue.push_back((dst, d, m));
                }
            }
        }
    }

    #[test]
    fn durable_round_trip_keeps_the_lock_and_wipes_the_decision() {
        let mut procs = run_lockstep(&[50, 51, 52]);
        let chosen = procs[1].decision().expect("decided");
        let words = procs[1].durable_words().expect("HSUC has durable state");
        procs[1].restore_durable(&words);
        assert_eq!(procs[1].decision(), None);
        assert_eq!(procs[1].est, chosen, "lock survives the crash");
        assert!(procs[1].est_round >= 1);
        // recovery: time out into a fresh round; decided peers answer
        // the new round's estimate with a Decide rebroadcast
        let n = 3;
        let mut queue: VecDeque<(ProcId, ProcId, HsucMsg)> = VecDeque::new();
        for m in procs[1].on_timeout() {
            for dst in 0..n {
                queue.push_back((1, dst, m));
            }
        }
        drain(&mut procs, &mut queue);
        assert_eq!(procs[1].decision(), Some(chosen), "re-learned decision");
    }

    #[test]
    fn competing_round_entries_agree_on_one_value() {
        // everyone times out at staggered moments, interleaved FIFO
        let n = 5;
        let mut queue: VecDeque<(ProcId, ProcId, HsucMsg)> = VecDeque::new();
        let mut procs = start_all(&[0, 1, 2, 3, 4], &mut queue);
        // inject extra timeouts before draining: rounds 2 and 3 compete
        for src in [1usize, 2] {
            for m in procs[src].on_timeout() {
                for dst in 0..n {
                    queue.push_back((src, dst, m));
                }
            }
        }
        drain(&mut procs, &mut queue);
        let decided: Vec<Value> = procs.iter().filter_map(|p| p.decision()).collect();
        assert!(!decided.is_empty());
        assert!(
            decided.iter().all(|&v| v == decided[0]),
            "single decided value: {decided:?}"
        );
    }
}
