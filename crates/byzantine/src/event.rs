//! The event-driven state-machine interface: one description of a
//! protocol participant that reacts to arrivals, and optionally to a
//! retry timer, with no global round. [`crate::bracha`],
//! [`crate::ben_or`], [`crate::paxos`] and [`crate::hsuc`] implement it;
//! `bne_net::protocols` runs every implementor through one shell.

use crate::network::ProcId;
use crate::Value;
use std::collections::BTreeSet;

/// A runtime-agnostic, event-driven protocol participant. Every
/// transition appends the messages to multicast to **all** `n` processes
/// (itself included) to `out`, so a caller can reuse one buffer.
pub trait EventMachine: Clone + 'static {
    /// The messages the participants exchange.
    type Msg: Clone + 'static;

    /// Everything that configures a participant apart from its id and
    /// `n`.
    type Spec: Clone + 'static;

    /// Builds participant `id` of `n` from `spec` and appends its opening
    /// multicasts.
    fn start(id: ProcId, n: usize, spec: &Self::Spec, out: &mut Vec<Self::Msg>) -> Self;

    /// Handles one message from `src`, appending the responses.
    fn handle_into(&mut self, src: ProcId, msg: &Self::Msg, out: &mut Vec<Self::Msg>);

    /// Reacts to the shell's retry timer, appending the responses. Only
    /// a shell built with a retry timer calls it; the default does
    /// nothing.
    fn timeout(&mut self, out: &mut Vec<Self::Msg>) {
        let _ = out;
    }

    /// The decided (for reliable broadcast: delivered) value, if any.
    fn decision(&self) -> Option<Value>;

    /// The round or ballot that produced the decision, if the protocol
    /// numbers them and has decided. Defaults to `None`.
    fn decision_round(&self) -> Option<u64> {
        None
    }

    /// The state that survives a crash, as words, or `None` (the
    /// default) when the whole in-memory state survives.
    fn durable_words(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restores [`EventMachine::durable_words`] after a crash, wiping
    /// every volatile field. The default does nothing.
    fn restore_durable(&mut self, words: &[u64]) {
        let _ = words;
    }

    /// Appends a canonical encoding of the local state and returns
    /// `true`, or returns `false` when there is none. States with equal
    /// words must behave identically on every future event: the encoding
    /// is a congruence, so from equal words the same input gives equal
    /// words after it, the same messages and the same choice draws. The
    /// model checker skips steps on that promise, and its debug builds
    /// check each skip.
    fn state_words(&self, out: &mut Vec<u64>) -> bool;

    /// Whether handling `msg` from `src`, now or after any further
    /// events, is a permanent behavioral no-op: no sends, no decision
    /// change, no [`EventMachine::state_words`] change. Defaults to
    /// `false`.
    fn absorbs(&self, src: ProcId, msg: &Self::Msg) -> bool {
        let _ = (src, msg);
        false
    }

    /// Whether the participant can never act again: on any input it
    /// sends nothing and changes neither its decision nor its
    /// [`EventMachine::state_words`], and its remaining updates commute.
    /// Defaults to [`EventMachine::halted`].
    fn is_quiescent(&self) -> bool {
        self.halted()
    }

    /// Whether the participant has stopped reading messages, so a caller
    /// may skip [`EventMachine::handle_into`]. Defaults to `false`.
    fn halted(&self) -> bool {
        false
    }
}

/// A voter set as a bitmask, one bit per process id (`n ≤ 64`; callers
/// assert the bound before encoding).
pub(crate) fn voter_mask(voters: &BTreeSet<ProcId>) -> u64 {
    voters.iter().fold(0, |mask, &p| mask | 1 << p)
}

/// Allocating forms of the transitions, for driving machines by hand in
/// unit tests.
#[cfg(test)]
pub(crate) trait Drive: EventMachine {
    /// [`EventMachine::start`], returning the opening multicasts too.
    fn started(id: ProcId, n: usize, spec: &Self::Spec) -> (Self, Vec<Self::Msg>) {
        let mut out = Vec::new();
        (Self::start(id, n, spec, &mut out), out)
    }

    /// [`EventMachine::handle_into`] into a fresh buffer.
    fn handle(&mut self, src: ProcId, msg: &Self::Msg) -> Vec<Self::Msg> {
        let mut out = Vec::new();
        self.handle_into(src, msg, &mut out);
        out
    }

    /// [`EventMachine::timeout`] into a fresh buffer.
    fn on_timeout(&mut self) -> Vec<Self::Msg> {
        let mut out = Vec::new();
        self.timeout(&mut out);
        out
    }
}

#[cfg(test)]
impl<S: EventMachine> Drive for S {}
