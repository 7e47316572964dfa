//! Bracha's reliable broadcast: the echo/ready quorum protocol, as a
//! runtime-agnostic state machine.
//!
//! This is the first *event-driven* protocol in the workspace: unlike OM,
//! phase king and Dolev–Strong it has no notion of a global round — every
//! transition is triggered by a message arrival, so it runs directly on
//! the `bne-net` event runtime with no round adapter, and its running time
//! is a property of the schedule, not of a fixed round count.
//!
//! The protocol (Aspnes, *Notes on Theory of Distributed Systems*,
//! ch. "Byzantine broadcast"; originally Bracha 1987), correct for
//! `n > 3t`:
//!
//! 1. the designated broadcaster multicasts `Init(v)`;
//! 2. on the broadcaster's `Init(v)`, a process multicasts `Echo(v)`
//!    (once);
//! 3. on more than `(n + t) / 2` `Echo(v)` — a quorum two of which must
//!    intersect in an honest process — or on `t + 1` `Ready(v)` (at least
//!    one honest witness), a process multicasts `Ready(v)` (once);
//! 4. on `2t + 1` `Ready(v)` (a majority of them honest), it **delivers**
//!    `v`.
//!
//! The guarantees checked by [`crate::properties::rb_report`]:
//! **validity** (an honest broadcaster's value is delivered), **agreement**
//! (no two honest processes deliver different values) and **totality** (if
//! any honest process delivers, every honest process delivers — the ready
//! amplification in step 3 is what buys this).
//!
//! [`BrachaState`] is pure state: feed it messages, multicast whatever it
//! appends to the output buffer. `bne_net::protocols::BrachaProcess`
//! runs it through the generic [`EventMachine`] shell; the unit tests
//! here drive the machine by hand.

use crate::event::{voter_mask, EventMachine};
use crate::network::ProcId;
use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One reliable-broadcast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BrachaMsg {
    /// The broadcaster's initial value.
    Init(Value),
    /// "I have seen the broadcaster claim `v`."
    Echo(Value),
    /// "I am ready to deliver `v`."
    Ready(Value),
}

/// What configures a Bracha participant beyond its id and `n`.
#[derive(Debug, Clone, Copy)]
pub struct BrachaSpec {
    /// The fault budget shaping the quorum sizes; the classical
    /// guarantee needs `n > 3t`.
    pub t: usize,
    /// The designated broadcaster.
    pub broadcaster: ProcId,
    /// The value the broadcaster multicasts (unused by everyone else).
    pub input: Value,
    /// Overrides of the ready-amplification and delivery quorums — the
    /// *mutation hook* for model-checker self-tests. The real protocol
    /// (`None`) uses `(t + 1, 2t + 1)`; a checker that cannot find a
    /// violation after planting, say, `(t, 2t + 1)` here is not
    /// exhausting the schedule space.
    pub thresholds: Option<(usize, usize)>,
}

/// The quorum-tracking state of one Bracha participant.
///
/// Every transition that can make progress appends the messages this
/// process must now multicast to **all** `n` processes (itself included —
/// a process's own echo and ready count toward its quorums, delivered
/// through the same channel as everyone else's).
#[derive(Debug, Clone)]
pub struct BrachaState {
    n: usize,
    t: usize,
    broadcaster: ProcId,
    echoed: bool,
    readied: bool,
    echoes: BTreeMap<Value, BTreeSet<ProcId>>,
    readies: BTreeMap<Value, BTreeSet<ProcId>>,
    delivered: Option<Value>,
    /// Ready votes required to join the ready wave (amplification).
    /// `t + 1` in the real protocol; overridable via
    /// [`BrachaSpec::thresholds`] so the model checker can verify that
    /// planted off-by-one quorum bugs are actually caught.
    amp_quorum: usize,
    /// Ready votes required to deliver. `2t + 1` in the real protocol.
    deliver_quorum: usize,
}

impl BrachaState {
    /// Echo quorum: more than `(n + t) / 2` echoes, so any two echo
    /// quorums intersect in an honest process.
    fn echo_quorum(&self) -> usize {
        (self.n + self.t) / 2 + 1
    }
}

impl EventMachine for BrachaState {
    type Msg = BrachaMsg;
    type Spec = BrachaSpec;

    /// The broadcaster's opening move: multicast `Init(input)` to
    /// everyone (non-broadcasters start silent).
    fn start(id: ProcId, n: usize, spec: &BrachaSpec, out: &mut Vec<BrachaMsg>) -> Self {
        if id == spec.broadcaster {
            out.push(BrachaMsg::Init(spec.input));
        }
        let t = spec.t;
        let (amp_quorum, deliver_quorum) = spec.thresholds.unwrap_or((t + 1, 2 * t + 1));
        BrachaState {
            n,
            t,
            broadcaster: spec.broadcaster,
            echoed: false,
            readied: false,
            echoes: BTreeMap::new(),
            readies: BTreeMap::new(),
            delivered: None,
            amp_quorum,
            deliver_quorum,
        }
    }

    /// Duplicate votes from the same sender are ignored (first write
    /// wins), so Byzantine senders cannot stuff a quorum.
    fn handle_into(&mut self, src: ProcId, msg: &BrachaMsg, out: &mut Vec<BrachaMsg>) {
        match *msg {
            BrachaMsg::Init(v) => {
                // only the designated broadcaster's first Init triggers an
                // echo; equivocating Inits after the first are ignored
                if src == self.broadcaster && !self.echoed {
                    self.echoed = true;
                    out.push(BrachaMsg::Echo(v));
                }
            }
            BrachaMsg::Echo(v) => {
                let votes = self.echoes.entry(v).or_default();
                votes.insert(src);
                if votes.len() >= self.echo_quorum() && !self.readied {
                    self.readied = true;
                    out.push(BrachaMsg::Ready(v));
                }
            }
            BrachaMsg::Ready(v) => {
                let votes = self.readies.entry(v).or_default();
                votes.insert(src);
                let count = votes.len();
                // amplification: t + 1 readies contain an honest witness,
                // so it is safe (and necessary for totality) to join in
                if count >= self.amp_quorum && !self.readied {
                    self.readied = true;
                    out.push(BrachaMsg::Ready(v));
                }
                // 2t + 1 readies: a majority of them are honest
                if count >= self.deliver_quorum && self.delivered.is_none() {
                    self.delivered = Some(v);
                }
            }
        }
    }

    /// The delivered value, if the `2t + 1` ready quorum has been reached.
    fn decision(&self) -> Option<Value> {
        self.delivered
    }

    /// The state that must survive a crash, encoded as words:
    /// `[echoed, readied, has_delivered, delivered]`. The quorum tallies
    /// are deliberately volatile — they are rebuilt from peers'
    /// retransmissions after recovery — but the *sent* flags must
    /// persist so a recovered process never equivocates by echoing or
    /// readying a second time for a different value.
    fn durable_words(&self) -> Option<Vec<u64>> {
        Some(vec![
            u64::from(self.echoed),
            u64::from(self.readied),
            u64::from(self.delivered.is_some()),
            self.delivered.unwrap_or(0),
        ])
    }

    /// Appends a canonical encoding of the local state (volatile tallies
    /// included, unlike [`EventMachine::durable_words`]) — the model
    /// checker's state-fingerprint contribution. The encoding is
    /// *behavioral*: state that can no longer influence any future
    /// transition is canonicalized away, so states differing only in
    /// dead bookkeeping collapse. Echo tallies feed exactly the
    /// echo-quorum → ready rule, dead once `readied`; ready tallies feed
    /// amplification (dead once `readied`) and delivery (dead once
    /// `delivered`). Voter sets are encoded as bitmasks, so this
    /// supports `n ≤ 64`.
    fn state_words(&self, out: &mut Vec<u64>) -> bool {
        // in release a wider shift would wrap and alias voter p with p - 64
        assert!(self.n <= 64, "voter bitmask encoding needs n <= 64");
        out.push(u64::from(self.echoed));
        out.push(u64::from(self.readied));
        out.push(u64::from(self.delivered.is_some()));
        out.push(self.delivered.unwrap_or(0));
        let echoes_live = !self.readied;
        let readies_live = !(self.readied && self.delivered.is_some());
        for (live, tally) in [(echoes_live, &self.echoes), (readies_live, &self.readies)] {
            if !live {
                out.push(0);
                continue;
            }
            out.push(tally.len() as u64);
            for (v, votes) in tally {
                out.push(*v);
                out.push(voter_mask(votes));
            }
        }
        true
    }

    /// Whether delivering `msg` from `src` to this participant — now or
    /// after any further events — is a behavioral no-op: no sends, no
    /// delivery, no change to [`EventMachine::state_words`]. The one-shot
    /// flags (`echoed`, `readied`, `delivered`) are monotone and the
    /// tallies are first-write-wins sets, so every clause here is stable
    /// once true. The model checker uses this to dispatch inert
    /// stragglers (duplicate votes, echoes to a process already past the
    /// echo rule, anything late) as forced moves instead of exploring
    /// their interleavings.
    fn absorbs(&self, src: ProcId, msg: &BrachaMsg) -> bool {
        match *msg {
            // only the broadcaster's first Init triggers anything
            BrachaMsg::Init(_) => src != self.broadcaster || self.echoed,
            // echo tallies only feed the (dead once readied) ready rule;
            // a duplicate echo is a no-op set insert
            BrachaMsg::Echo(v) => {
                self.readied
                    || self
                        .echoes
                        .get(&v)
                        .is_some_and(|votes| votes.contains(&src))
            }
            // ready tallies feed amplification (dead once readied) and
            // delivery (dead once delivered); duplicates are no-ops
            BrachaMsg::Ready(v) => {
                (self.readied && self.delivered.is_some())
                    || self
                        .readies
                        .get(&v)
                        .is_some_and(|votes| votes.contains(&src))
            }
        }
    }

    /// Whether this participant can never act again: it has echoed,
    /// joined the ready wave and delivered, so a delivery can only record
    /// further votes (commutative set inserts) — every send and the
    /// delivery are behind one-shot flags that are all already set. The
    /// model checker relies on this to linearize late-arriving traffic to
    /// finished processes.
    fn is_quiescent(&self) -> bool {
        self.echoed && self.readied && self.delivered.is_some()
    }

    /// Restores [`EventMachine::durable_words`] after a crash, wiping the
    /// volatile echo/ready tallies. An undelivered recovered process
    /// re-accumulates quorums from retransmitted traffic (e.g. under
    /// `bne_net::RetryAdapter`); without retransmission it simply stays
    /// undelivered — Bracha has no leader to pull it forward.
    fn restore_durable(&mut self, words: &[u64]) {
        self.echoed = words.first().copied().unwrap_or(0) == 1;
        self.readied = words.get(1).copied().unwrap_or(0) == 1;
        self.delivered = if words.get(2).copied().unwrap_or(0) == 1 {
            Some(words.get(3).copied().unwrap_or(0))
        } else {
            None
        };
        self.echoes.clear();
        self.readies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Drive;

    fn spec(t: usize, input: Value) -> BrachaSpec {
        BrachaSpec {
            t,
            broadcaster: 0,
            input,
            thresholds: None,
        }
    }

    /// Participant `id` of `n` with fault budget `t`, whose broadcaster
    /// is `broadcaster`.
    fn state(id: ProcId, n: usize, t: usize, broadcaster: ProcId) -> BrachaState {
        let spec = BrachaSpec {
            broadcaster,
            ..spec(t, 1)
        };
        BrachaState::started(id, n, &spec).0
    }

    /// Drives a full network of `BrachaState`s to quiescence by hand:
    /// a FIFO queue of (src, dst, msg) with every returned message
    /// multicast to all processes.
    fn run_lockstep(n: usize, t: usize, value: Value) -> Vec<Option<Value>> {
        let mut opening = Vec::new();
        let mut procs: Vec<BrachaState> = (0..n)
            .map(|i| BrachaState::start(i, n, &spec(t, value), &mut opening))
            .collect();
        let mut queue: Vec<(ProcId, ProcId, BrachaMsg)> = Vec::new();
        // only the broadcaster, process 0, opens
        for m in opening {
            for dst in 0..n {
                queue.push((0, dst, m));
            }
        }
        while let Some((src, dst, msg)) = queue.pop() {
            for m in procs[dst].handle(src, &msg) {
                for d in 0..n {
                    queue.push((dst, d, m));
                }
            }
        }
        procs.iter().map(|p| p.decision()).collect()
    }

    #[test]
    fn all_honest_deliver_the_broadcast_value() {
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let delivered = run_lockstep(n, t, 1);
            assert!(
                delivered.iter().all(|d| *d == Some(1)),
                "(n={n}, t={t}): {delivered:?}"
            );
        }
    }

    #[test]
    fn quorum_sizes_match_the_protocol() {
        let s = state(0, 7, 2, 0);
        assert_eq!(s.echo_quorum(), 5); // > (7 + 2) / 2
    }

    #[test]
    fn non_broadcasters_start_silent() {
        let (_, opening) = BrachaState::started(3, 7, &spec(2, 1));
        assert!(opening.is_empty());
    }

    #[test]
    fn equivocating_second_init_is_ignored() {
        let mut s = state(1, 4, 1, 0);
        assert_eq!(s.handle(0, &BrachaMsg::Init(1)), vec![BrachaMsg::Echo(1)]);
        assert!(s.handle(0, &BrachaMsg::Init(0)).is_empty());
    }

    #[test]
    fn init_from_non_broadcaster_is_ignored() {
        let mut s = state(1, 4, 1, 0);
        assert!(s.handle(2, &BrachaMsg::Init(1)).is_empty());
        assert!(!s.echoed);
    }

    #[test]
    fn duplicate_votes_from_one_sender_do_not_stuff_quorums() {
        let mut s = state(0, 4, 1, 1);
        // 2t + 1 = 3 readies needed; one sender repeating does not count
        for _ in 0..5 {
            s.handle(2, &BrachaMsg::Ready(1));
        }
        assert_eq!(s.decision(), None);
        s.handle(3, &BrachaMsg::Ready(1));
        s.handle(1, &BrachaMsg::Ready(1));
        assert_eq!(s.decision(), Some(1));
    }

    #[test]
    fn ready_amplification_fires_at_t_plus_one() {
        let mut s = state(0, 7, 2, 1);
        assert!(s.handle(2, &BrachaMsg::Ready(1)).is_empty());
        assert!(s.handle(3, &BrachaMsg::Ready(1)).is_empty());
        // third ready = t + 1: join the ready wave without any echo quorum
        assert_eq!(s.handle(4, &BrachaMsg::Ready(1)), vec![BrachaMsg::Ready(1)]);
        // ...but only once
        assert!(s.handle(5, &BrachaMsg::Ready(1)).is_empty());
    }

    #[test]
    fn durable_round_trip_keeps_sent_flags_and_replay_reconverges() {
        // a process that echoed and readied, then crashed: the flags
        // survive (no equivocation on replay) but tallies are rebuilt
        let mut s = state(0, 4, 1, 1);
        let _ = s.handle(1, &BrachaMsg::Init(1));
        for src in 1..4 {
            s.handle(src, &BrachaMsg::Echo(1));
        }
        assert!(s.echoed && s.readied);
        let words = s.durable_words().expect("Bracha has durable state");
        let mut r = state(0, 4, 1, 1);
        r.restore_durable(&words);
        assert!(r.echoed && r.readied, "sent flags survive");
        assert_eq!(r.decision(), None);
        assert!(r.echoes.is_empty() && r.readies.is_empty());
        // replayed Init produces no second echo (no equivocation)...
        assert!(r.handle(1, &BrachaMsg::Init(1)).is_empty());
        // ...and replayed readies rebuild the quorum to the same value
        for src in 1..4 {
            r.handle(src, &BrachaMsg::Ready(1));
        }
        assert_eq!(r.decision(), Some(1));
    }

    #[test]
    fn delivery_needs_two_t_plus_one_readies() {
        let mut s = state(0, 7, 2, 1);
        for src in 2..6 {
            s.handle(src, &BrachaMsg::Ready(1));
        }
        assert_eq!(s.decision(), None, "4 readies < 2t + 1 = 5");
        s.handle(6, &BrachaMsg::Ready(1));
        assert_eq!(s.decision(), Some(1));
    }

    #[test]
    #[should_panic(expected = "voter bitmask encoding needs n <= 64")]
    fn state_words_refuse_voters_past_the_bitmask() {
        // voter 64's bit would wrap onto voter 0's in a release build
        let mut s = state(0, 65, 1, 0);
        s.handle(64, &BrachaMsg::Echo(1));
        s.state_words(&mut Vec::new());
    }
}
