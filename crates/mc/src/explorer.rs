//! The depth-first schedule-space explorer.
//!
//! # Search model
//!
//! A state is the whole runtime: process states, the pending-event
//! multiset, crash flags and the remaining crash budget. Transitions
//! are:
//!
//! * dispatching one pending event ([`bne_net::EventNet::step_undoable`]),
//!   possibly refined by **tap choices** — if the handler drew from the
//!   shared [`ChoiceTap`] past the end
//!   of its script (a coin flip, a Byzantine lie), the transition is
//!   re-run once per candidate value of the first uncovered draw until
//!   every draw is covered ("fork on demand");
//! * crashing one live process
//!   ([`bne_net::EventNet::inject_crash_undoable`]), while the crash
//!   budget lasts.
//!
//! The search runs on one net and backtracks by **undo**: each step
//! returns a [`bne_net::Undo`] record of what it changed (the target's
//! pre-step process, the dispatched event, the events it created and
//! the net's counters), and each DFS frame undoes its own transition on
//! the way back. A transition therefore costs one fork of the one
//! process it runs, not a copy of the whole net.
//!
//! The explorer requires a deterministic substrate so that a re-run
//! transition repeats itself exactly: [`LatencyModel::Constant`] latency,
//! the [`SchedulerPolicy::Fifo`] scheduler and no link faults (none of
//! which draw from an RNG). The [`crate::scenario`] constructors build
//! exactly such configurations.
//!
//! # Exact deduplication
//!
//! Visited states are keyed by **interned parts**: one id per process
//! for its [`bne_net::AsyncProcess::state_words`], the crash flags, the
//! remaining crash budget, and the sorted ids of the pending events,
//! each encoded as its tag, endpoints and [`crate::words::McWords`]
//! message words. Each id space and the visited set itself is an
//! instance of one exact interner: a flat word arena with a hashed index
//! that compares every word on a hash hit, so equal keys mean equal
//! states and a collision costs a probe, never a soundness hole. The
//! key is built incrementally: a transition re-encodes only the process
//! it ran and encodes only the events it created. Virtual times,
//! tiebreaks and sequence numbers are deliberately **excluded**: they
//! affect when the runtime says things happen, not what can happen next,
//! and folding them in would shatter the state space into
//! timestamp-distinct copies.
//! For the same reason two pending events with identical canonical
//! content are *interchangeable*, and the explorer dispatches only one
//! representative per content class.
//!
//! # Partial-order reduction
//!
//! Two pending events targeting *different* processes commute: each
//! mutates only its target's state and appends its own sends, so
//! executing them in either order reaches the same state. The explorer
//! exploits that with two complementary, independently sound devices
//! (both off when [`ExploreConfig::por`] is false):
//!
//! **Sleep sets** (Godefroid), keyed on the `(time, tie, seq)`
//! exploration order. After a transition `t` is explored at a state, the
//! subtrees of `t`'s later siblings carry `t` in their *sleep set*: as
//! long as every transition taken since stays independent of `t`
//! (different target), re-exploring `t` would commute back into `t`'s
//! own subtree, so it is skipped. A transition that *conflicts* with a
//! slept `t` (same target process — this includes a newly created
//! delivery racing `t` for its receiver, the order that breaks quorum
//! protocols) removes `t` from the sleep set, and a transition that
//! *creates* a fresh event with `t`'s exact content does too (the copy
//! is a new transition, not the explored one). Sleep sets prune
//! redundant interleavings but still visit **every reachable state**
//! along some representative ordering, so checking properties at every
//! visited state remains a proof. They interact with deduplication
//! through subset caching: each visited state remembers the sleep sets it
//! was expanded under, and a revisit is pruned only when some remembered
//! sleep set is a subset of the current one (the earlier expansion
//! explored a superset of what this visit would).
//!
//! **Inert-event draining.** A delivery can be *permanently inert*
//! three ways: its target is crashed (the runtime absorbs it), its
//! target reports itself forever quiet
//! ([`bne_net::AsyncProcess::quiescent`] — e.g. a Bracha participant
//! after `echoed && readied && delivered`, whose remaining vote-set
//! inserts commute), or the target declares that specific message a
//! permanent behavioral no-op ([`bne_net::AsyncProcess::absorbs`] —
//! duplicate votes, messages whose rule sits behind an already-set
//! one-shot flag). An inert delivery commutes with *every* other
//! transition, present or future, and is invisible to the properties,
//! so the singleton containing the oldest such delivery is a persistent
//! set: the explorer dispatches it alone instead of interleaving it
//! against live traffic. This is what actually shrinks
//! the visited-state count (sleep sets alone reduce transitions, not
//! states): straggler traffic to finished processes is linearized. The
//! claim a `quiescent` override makes is a soundness obligation; the
//! POR-vs-full property tests in `tests/` compare verdicts and terminal
//! decision vectors against the unreduced search to guard it. Draining
//! is suppressed for processes the crash adversary could still kill
//! (a crash does not commute with deliveries to its victim) and for
//! crashed processes with a pending recovery.
//!
//! **Confluent models.** A scenario may additionally vouch (via
//! [`ExploreConfig::confluent`]) that *any* two deliveries to the same
//! process commute — true for single-valued set-semantics protocols
//! like honest Bracha. Combined with cross-process commutation that
//! makes the oldest pending delivery a singleton persistent set
//! everywhere, collapsing the proof to one representative execution;
//! see the flag's documentation for the soundness argument and its
//! limits.
//!
//! The one liveness-of-the-search caveat is the classical *ignoring
//! problem*: a reduction may starve a class forever around a state-graph
//! cycle. These protocol graphs are acyclic (every transition consumes
//! an event and quorum state only grows), but the explorer does not take
//! that on faith — it tracks the DFS stack, counts any back edge, and
//! degrades the verdict to [`Verdict::Truncated`] if a cycle shows up
//! under POR.
//!
//! [`LatencyModel::Constant`]: bne_net::LatencyModel::Constant
//! [`SchedulerPolicy::Fifo`]: bne_net::SchedulerPolicy::Fifo

use crate::intern::Interner;
use crate::property::{Property, StateView, Violation};
use crate::trace::CounterexampleTrace;
use crate::words::McWords;
use bne_byzantine::choice::{ChoiceTap, SharedTap};
use bne_byzantine::{ProcId, Value};
use bne_net::{EnabledEvent, EnabledKind, EventNet, Undo};
use std::collections::BTreeSet;

/// One choice along an execution path — the replayable unit of a
/// counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Dispatch the pending event with this sequence number. The kind is
    /// recorded redundantly so traces are human-readable and replay can
    /// cross-check it.
    Event {
        /// The chosen event's unique sequence number.
        seq: u64,
        /// What the event was (delivery, timer, …).
        kind: EnabledKind,
    },
    /// Crash this process, crash-stop style.
    Crash {
        /// The process to kill.
        proc: ProcId,
    },
}

/// Tag distinguishing injected-crash transitions (`[CRASH_TAG, proc]`)
/// from event encodings (whose first word is a small kind tag).
const CRASH_TAG: u64 = u64::MAX;

/// Exploration limits and options.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Enable partial-order reduction (sleep sets + quiescence
    /// draining — see the module docs).
    pub por: bool,
    /// Model-level guarantee that **any two deliveries to the same
    /// process commute**: dispatching them in either order yields the
    /// same process state and the same sends. True for single-valued
    /// set-semantics protocols — honest Bracha is the stock example:
    /// with no Byzantine participant only the broadcaster's value ever
    /// circulates, and every handler rule is a monotone threshold test
    /// over the *set* of receipts, so receipt order is immaterial. Under
    /// this guarantee (plus the always-true cross-process commutation)
    /// the oldest pending delivery is a singleton persistent set and the
    /// explorer drains it as the sole successor, collapsing the
    /// interleaving space to one representative execution; agreement and
    /// validity are stable properties, so any violation reachable by
    /// some order is still reached. The flag is the *scenario's* claim
    /// about its protocol, not something the explorer can check — assert
    /// it only when the argument above applies (never with a liar or
    /// mixed inputs), and keep it covered by POR-vs-full comparison
    /// tests. Draining still defers to pending faults, crash-adversary
    /// targets and pending timers for the same process, which the
    /// guarantee says nothing about.
    pub confluent: bool,
    /// How many crash-stop faults the schedule adversary may inject.
    pub crash_budget: usize,
    /// Which processes the crash adversary may kill (ignored when the
    /// budget is zero).
    pub crashable: Vec<ProcId>,
    /// Abort ([`Verdict::Truncated`]) after visiting this many states.
    pub max_states: u64,
    /// Abort ([`Verdict::Truncated`]) beyond this search depth.
    pub max_depth: usize,
    /// Scenario name recorded into counterexample traces (must name a
    /// [`crate::scenario`] registry entry for replay to work).
    pub scenario: String,
    /// Scenario parameters recorded into counterexample traces.
    pub params: Vec<(String, u64)>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            por: true,
            confluent: false,
            crash_budget: 0,
            crashable: Vec::new(),
            max_states: 4_000_000,
            max_depth: 4_096,
            scenario: String::new(),
            params: Vec::new(),
        }
    }
}

/// The explorer's final answer.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every reachable state satisfies every property: for this model,
    /// the properties are **proved**, not sampled.
    Proven,
    /// A reachable state violates a property; the trace replays the
    /// violation deterministically on a production net.
    Violated(Box<CounterexampleTrace>),
    /// Exploration was cut short (state/depth limit, or a cycle under
    /// POR) — no claim either way beyond the states actually visited.
    Truncated(String),
}

/// Everything the search measured.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The verdict (see [`Verdict`]).
    pub verdict: Verdict,
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed (including tap-refinement re-runs).
    pub transitions: u64,
    /// Terminal (fully drained) states reached.
    pub terminals: u64,
    /// Deepest point of the search.
    pub max_depth_seen: usize,
    /// Back edges observed on the DFS stack (always 0 for these
    /// protocols; nonzero degrades the verdict under POR).
    pub cycles: u64,
    /// The distinct per-process decision vectors over all terminal
    /// states — the observable outcomes of the model, used by the POR
    /// soundness property tests.
    pub decision_vectors: BTreeSet<Vec<Option<Value>>>,
}

enum Stop {
    Violation(Box<CounterexampleTrace>),
    Limit(String),
}

/// A pending event with its transition id: the interned content words
/// (tag, endpoints, message words) that identify it across paths.
#[derive(Clone, Copy)]
struct Pending {
    ev: EnabledEvent,
    id: u32,
}

/// What the visited set remembers about one state.
#[derive(Default)]
struct Visit {
    /// The sleep sets the state has been expanded under, kept as a
    /// minimal antichain (see the module docs on subset caching).
    /// Without POR every entry is `[{}]` and this degenerates to a plain
    /// visited set.
    sleeps: Vec<Vec<u32>>,
    /// Whether the state is on the DFS stack, so a pruned revisit is a
    /// back edge.
    on_stack: bool,
}

/// The exhaustive DFS explorer. Build with [`Explorer::new`], consume
/// with [`Explorer::run`].
pub struct Explorer<M: Clone + McWords> {
    net: EventNet<M>,
    tap: SharedTap,
    properties: Vec<Box<dyn Property>>,
    cfg: ExploreConfig,
    /// Process state words, interned; `proc_ids[p]` names process `p`'s
    /// current words.
    proc_words: Interner<u64>,
    proc_ids: Vec<u32>,
    /// Transition content words (pending events and crash choices),
    /// interned; `targets[id]` is the process transition `id` acts on,
    /// which makes the dependence relation a table lookup.
    transition_words: Interner<u64>,
    targets: Vec<ProcId>,
    /// Visited state keys, interned; `visits[id]` belongs to state `id`.
    state_keys: Interner<u32>,
    visits: Vec<Visit>,
    /// The crash flags (one bit per process) of the state the search
    /// entered last; see [`Explorer::expand`] for why they are kept.
    entered_crashed: Vec<u32>,
    /// Scratch buffers for a state key and a transition's words.
    key: Vec<u32>,
    words: Vec<u64>,
    path: Vec<Choice>,
    crash_budget: usize,
    states: u64,
    transitions: u64,
    terminals: u64,
    max_depth_seen: usize,
    cycles: u64,
    decision_vectors: BTreeSet<Vec<Option<Value>>>,
}

impl<M: Clone + McWords> Explorer<M> {
    /// Wraps a freshly built network (its `on_start`s have run, nothing
    /// else) for exploration. `tap` must be the same shared tap the
    /// processes draw from; pass a fresh one for fully deterministic
    /// protocols.
    ///
    /// # Panics
    ///
    /// If the network does not support exploration: a process without
    /// [`bne_net::AsyncProcess::fork`]/`state_words`, a streaming
    /// observer attached, or a start-up that already drew uncovered
    /// choices (protocol nondeterminism must be event-driven so the
    /// search can fork on it).
    pub fn new(
        net: EventNet<M>,
        tap: SharedTap,
        properties: Vec<Box<dyn Property>>,
        cfg: ExploreConfig,
    ) -> Self {
        assert!(
            net.can_undo(),
            "every process must implement fork() to be explorable, with no observer attached"
        );
        assert!(
            tap.borrow().demands().is_empty(),
            "tap demands during on_start: draw choices on events, not at startup"
        );
        let crash_budget = cfg.crash_budget;
        let mut ex = Explorer {
            net,
            tap,
            properties,
            cfg,
            proc_words: Interner::new(),
            proc_ids: Vec::new(),
            transition_words: Interner::new(),
            targets: Vec::new(),
            state_keys: Interner::new(),
            visits: Vec::new(),
            entered_crashed: Vec::new(),
            key: Vec::new(),
            words: Vec::new(),
            path: Vec::new(),
            crash_budget,
            states: 0,
            transitions: 0,
            terminals: 0,
            max_depth_seen: 0,
            cycles: 0,
            decision_vectors: BTreeSet::new(),
        };
        // fail fast (with a clear message) if any process lacks a
        // canonical encoding, rather than deep inside the search
        ex.proc_ids = (0..ex.net.num_processes())
            .map(|p| ex.encode_process(p))
            .collect();
        ex
    }

    /// Runs the search to completion and reports.
    pub fn run(mut self) -> ExploreReport {
        let root = self.root_pending();
        let verdict = match self.dfs(0, Vec::new(), root) {
            Ok(()) => {
                if self.cycles > 0 && self.cfg.por {
                    // a cycle means the reduction could in principle
                    // starve a transition around it (the ignoring
                    // problem); refuse to claim a proof
                    Verdict::Truncated(format!(
                        "{} cycle(s) under partial-order reduction",
                        self.cycles
                    ))
                } else {
                    Verdict::Proven
                }
            }
            Err(Stop::Violation(trace)) => Verdict::Violated(trace),
            Err(Stop::Limit(why)) => Verdict::Truncated(why),
        };
        ExploreReport {
            verdict,
            states: self.states,
            transitions: self.transitions,
            terminals: self.terminals,
            max_depth_seen: self.max_depth_seen,
            cycles: self.cycles,
            decision_vectors: self.decision_vectors,
        }
    }

    /// The interned id of process `p`'s current state words.
    fn encode_process(&mut self, p: ProcId) -> u32 {
        let words = self
            .net
            .process_state_words(p)
            .expect("explorable processes have canonical state_words");
        self.proc_words.intern(&words).0
    }

    /// The transition id of the words in `self.words`, acting on
    /// `target`.
    fn intern_transition(&mut self, target: ProcId) -> u32 {
        let (id, fresh) = self.transition_words.intern(&self.words);
        if fresh {
            self.targets.push(target);
        }
        id
    }

    /// The transition id of one pending event: its canonical content.
    fn event_id(&mut self, ev: &EnabledEvent) -> u32 {
        self.words.clear();
        match ev.kind {
            EnabledKind::Deliver { src, dst } => {
                self.words.extend([0, src as u64, dst as u64]);
                self.net
                    .event_msg(ev)
                    .expect("deliver events carry a message")
                    .words(&mut self.words);
            }
            EnabledKind::Timer { proc, timer } => self.words.extend([1, proc as u64, timer]),
            EnabledKind::Crash { proc } => self.words.extend([2, proc as u64]),
            EnabledKind::Recover { proc } => self.words.extend([3, proc as u64]),
        }
        self.intern_transition(ev.kind.target())
    }

    /// The transition id of an injected-crash choice.
    fn crash_id(&mut self, proc: ProcId) -> u32 {
        self.words.clear();
        self.words.extend([CRASH_TAG, proc as u64]);
        self.intern_transition(proc)
    }

    /// The members of `sleep` independent of transition `id` — the whole
    /// dependence relation: transitions are independent iff their
    /// targets differ.
    fn independent_of(&self, sleep: &[u32], id: u32) -> Vec<u32> {
        let target = self.targets[id as usize];
        sleep
            .iter()
            .copied()
            .filter(|&z| self.targets[z as usize] != target)
            .collect()
    }

    /// The root state's pending events.
    fn root_pending(&mut self) -> Vec<Pending> {
        self.net
            .enabled_events()
            .into_iter()
            .map(|ev| Pending {
                ev,
                id: self.event_id(&ev),
            })
            .collect()
    }

    /// The pending events after the dispatch of `dispatched` created
    /// `created`, kept in `(time, tie, seq)` order.
    fn successor(
        &mut self,
        pending: &[Pending],
        dispatched: u64,
        created: &[EnabledEvent],
    ) -> Vec<Pending> {
        let mut next: Vec<Pending> = Vec::with_capacity(pending.len() + created.len());
        next.extend(pending.iter().filter(|p| p.ev.seq != dispatched));
        for ev in created {
            let id = self.event_id(ev);
            let at = next.partition_point(|p| p.ev < *ev);
            next.insert(at, Pending { ev: *ev, id });
        }
        next
    }

    /// Re-encodes the process a step ran (the only one whose words it
    /// can change) and returns its previous id for [`Explorer::retreat`].
    fn advance(&mut self, undo: &Undo<M>) -> u32 {
        let p = undo.target();
        let old = self.proc_ids[p];
        if undo.reached_process() {
            self.proc_ids[p] = self.encode_process(p);
        }
        old
    }

    /// Takes back a step [`Explorer::advance`] moved the key past.
    fn retreat(&mut self, undo: Undo<M>, old: u32) {
        self.proc_ids[undo.target()] = old;
        self.net.undo(undo);
    }

    /// Records the current crash flags into `entered_crashed`.
    fn note_crash_flags(&mut self) {
        let n = self.net.num_processes();
        self.entered_crashed.clear();
        self.entered_crashed.resize(n.div_ceil(32), 0);
        for p in (0..n).filter(|&p| self.net.is_crashed(p)) {
            self.entered_crashed[p / 32] |= 1 << (p % 32);
        }
    }

    /// Builds into `key` the exact key of the current state, from its
    /// interned parts: process ids, crash flags, crash budget and the
    /// sorted pending ids. Expects `entered_crashed` to hold this state's
    /// crash flags.
    fn build_key(&mut self, pending: &[Pending]) {
        self.key.clear();
        self.key.extend_from_slice(&self.proc_ids);
        self.key.extend_from_slice(&self.entered_crashed);
        self.key
            .push(u32::try_from(self.crash_budget).expect("crash budget fits a word"));
        let start = self.key.len();
        self.key.extend(pending.iter().map(|p| p.id));
        self.key[start..].sort_unstable();
    }

    fn check_properties(&self) -> Option<Violation> {
        let decisions = self.net.decisions();
        let crashed: Vec<bool> = (0..self.net.num_processes())
            .map(|p| self.net.is_crashed(p))
            .collect();
        let view = StateView {
            decisions: &decisions,
            crashed: &crashed,
        };
        for p in &self.properties {
            if let Some(detail) = p.check(&view) {
                return Some(Violation {
                    property: p.name().to_string(),
                    detail,
                });
            }
        }
        None
    }

    fn make_trace(&self, violation: Violation) -> Box<CounterexampleTrace> {
        Box::new(CounterexampleTrace {
            scenario: self.cfg.scenario.clone(),
            params: self.cfg.params.clone(),
            script: self.tap.borrow().script().to_vec(),
            choices: self.path.clone(),
            property: violation.property,
            detail: violation.detail,
        })
    }

    /// The oldest pending delivery whose dispatch commutes with every
    /// other transition, present or future: its target is crashed (the
    /// runtime absorbs it) or self-declared quiescent. `None` if no such
    /// delivery exists or draining is unsafe here (crash adversary still
    /// aiming at the target, or a recovery pending for it).
    fn pick_drain(&self, pending: &[Pending]) -> Option<Pending> {
        // `pending` is in (time, tie, seq) order, so the first match is
        // the oldest
        pending.iter().copied().find(|p| {
            let ev = &p.ev;
            let target = match ev.kind {
                EnabledKind::Deliver { dst, .. } => dst,
                // timers to crashed processes are absorbed, and a
                // live process can declare a timer a permanent no-op
                // (an exhausted retry budget); a *live* quiescent
                // process makes no timer claim, so nothing else drains
                EnabledKind::Timer { proc, .. } => {
                    return !pending_fault(pending, proc)
                        && (self.net.is_crashed(proc) || self.net.event_absorbed(ev));
                }
                _ => return false,
            };
            if self.net.is_crashed(target) {
                // absorbed on dispatch; sound unless a recovery could
                // race it back to life
                !pending_fault(pending, target)
            } else if pending_fault(pending, target) {
                // a scheduled crash/recovery for the target races
                // anything addressed to it
                false
            } else if self.net.event_absorbed(ev) {
                // a permanent behavioral no-op commutes with every
                // transition — even an injected crash of its target,
                // since crash-stop absorption is a no-op too
                true
            } else if self.crash_budget > 0 && self.cfg.crashable.contains(&target) {
                // an injected crash of the target does not commute
                // with a live delivery to it
                false
            } else if self.cfg.confluent {
                // the scenario vouches that same-target deliveries
                // commute; cross-target ones always do, and timers
                // (which the guarantee says nothing about) must not
                // race this target
                !pending_timer(pending, target)
            } else {
                self.net.process_quiescent(target)
            }
        })
    }

    fn dfs(&mut self, depth: usize, sleep: Vec<u32>, pending: Vec<Pending>) -> Result<(), Stop> {
        self.note_crash_flags();
        self.build_key(&pending);
        let (state, fresh) = self.state_keys.intern(&self.key);
        let state = state as usize;
        if fresh {
            self.visits.push(Visit::default());
            self.states += 1;
            self.max_depth_seen = self.max_depth_seen.max(depth);
            if self.states > self.cfg.max_states {
                return Err(Stop::Limit(format!(
                    "state limit {} exceeded",
                    self.cfg.max_states
                )));
            }
            if depth > self.cfg.max_depth {
                return Err(Stop::Limit(format!(
                    "depth limit {} exceeded",
                    self.cfg.max_depth
                )));
            }
            if let Some(violation) = self.check_properties() {
                return Err(Stop::Violation(self.make_trace(violation)));
            }
        } else {
            let visit = &self.visits[state];
            if visit.sleeps.iter().any(|z| is_subset(z, &sleep)) {
                // an earlier expansion under a smaller (or equal) sleep
                // set explored a superset of what this visit would
                if visit.on_stack {
                    self.cycles += 1;
                }
                return Ok(());
            }
        }

        if pending.is_empty() {
            // fully drained: a terminal state. Spending leftover crash
            // budget here cannot change anything observable, so the
            // search does not. Nothing can be missed from a terminal, so
            // it is cached under the empty sleep set (prunes every
            // revisit).
            self.terminals += 1;
            self.decision_vectors.insert(self.net.decisions());
            self.visits[state].sleeps = vec![Vec::new()];
            return Ok(());
        }

        // record this expansion for the subset cache, keeping the entry
        // a minimal antichain
        let explored = &mut self.visits[state].sleeps;
        explored.retain(|z| !is_subset(&sleep, z));
        explored.push(sleep.clone());

        let tap_save = self.tap.borrow().save();
        if self.cfg.por {
            if let Some(drain) = self.pick_drain(&pending) {
                if sleep.binary_search(&drain.id).is_ok() {
                    // the lone successor is covered where this very
                    // transition was explored (everything since has been
                    // independent of it)
                    return Ok(());
                }
                // singleton persistent set: the drain commutes with all
                // other transitions, so the sleep set survives (minus
                // anything sharing its target)
                let child_sleep = self.independent_of(&sleep, drain.id);
                self.visits[state].on_stack = true;
                let r = self.explore_event(&tap_save, &pending, drain, depth, &child_sleep);
                self.visits[state].on_stack = false;
                return r;
            }
        }

        self.visits[state].on_stack = true;
        let result = self.expand(&tap_save, &pending, depth, sleep);
        self.visits[state].on_stack = false;
        result
    }

    /// Expands every choice at one state: each pending event (one
    /// representative per content class, with tap refinement) and each
    /// permitted crash, threading the sleep set through in `(time, tie,
    /// seq)` order.
    fn expand(
        &mut self,
        tap_save: &ChoiceTap,
        pending: &[Pending],
        depth: usize,
        sleep: Vec<u32>,
    ) -> Result<(), Stop> {
        // one representative per transition id: identical pending events
        // are interchangeable
        let mut reps: Vec<Pending> = Vec::new();
        for p in pending {
            if !reps.iter().any(|r| r.id == p.id) {
                reps.push(*p);
            }
        }
        let mut cur_sleep = sleep;
        for rep in reps {
            if cur_sleep.binary_search(&rep.id).is_ok() {
                continue; // covered by the sibling that explored it
            }
            let child_sleep = self.independent_of(&cur_sleep, rep.id);
            self.explore_event(tap_save, pending, rep, depth, &child_sleep)?;
            if self.cfg.por {
                insert_sorted(&mut cur_sleep, rep.id);
            }
        }
        if self.crash_budget > 0 {
            // Which processes may still crash is read off the state the
            // search entered last — once event children ran above, a
            // state below them — not off this state. That is how the
            // published counts (BENCH_10, e25, the benchmark pins) were
            // measured, and it skips some crash placements: filtering on
            // this state's own flags explores 250,921 states of Paxos n=3
            // f=1 where the pins say 247,332 (the verdict stays Proven).
            let crashable: Vec<ProcId> = self
                .cfg
                .crashable
                .iter()
                .copied()
                .filter(|&p| self.entered_crashed[p / 32] & (1 << (p % 32)) == 0)
                .collect();
            for proc in crashable {
                let id = self.crash_id(proc);
                if cur_sleep.binary_search(&id).is_ok() {
                    continue;
                }
                let child_sleep = self.independent_of(&cur_sleep, id);
                self.tap.borrow_mut().restore(tap_save);
                let undo = self.net.inject_crash_undoable(proc);
                self.crash_budget -= 1;
                self.transitions += 1;
                self.path.push(Choice::Crash { proc });
                let old = self.advance(&undo);
                let r = self.dfs(depth + 1, child_sleep, pending.to_vec());
                self.retreat(undo, old);
                self.path.pop();
                self.crash_budget += 1;
                r?;
                if self.cfg.por {
                    insert_sorted(&mut cur_sleep, id);
                }
            }
        }
        Ok(())
    }

    /// Dispatches `ev` from the current state, forking on every
    /// uncovered tap draw until the transition is fully scripted, and
    /// recurses into each resulting state with `sleep` (minus any slept
    /// id the dispatch re-created — a fresh copy is a new transition).
    fn explore_event(
        &mut self,
        tap_save: &ChoiceTap,
        pending: &[Pending],
        ev: Pending,
        depth: usize,
        sleep: &[u32],
    ) -> Result<(), Stop> {
        // stack of script extensions still to try; empty extension first
        let mut extensions: Vec<Vec<u64>> = vec![Vec::new()];
        while let Some(ext) = extensions.pop() {
            {
                let mut tap = self.tap.borrow_mut();
                tap.restore(tap_save);
                for &v in &ext {
                    tap.push_choice(v);
                }
            }
            // an undo that left the chosen event missing would send the
            // search into the wrong state: stop, in release builds too
            let undo = self
                .net
                .step_undoable(&ev.ev)
                .expect("backtracking must re-enable the event");
            self.transitions += 1;
            let first_demand = self.tap.borrow().demands().first().copied();
            if let Some(domain) = first_demand {
                // the handler drew past the script: fork this transition
                // on every candidate value of the first uncovered draw
                // ((rev) keeps exploration in value order, matching
                // scripted-replay intuition)
                self.net.undo(undo);
                for v in (0..domain).rev() {
                    let mut e = ext.clone();
                    e.push(v);
                    extensions.push(e);
                }
                continue;
            }
            let created = undo.created();
            let child_pending = self.successor(pending, ev.ev.seq, created);
            let mut child_sleep = sleep.to_vec();
            if let Some(first) = created.first() {
                // the created events are the pending ones newer than
                // every pre-dispatch event; a slept id among them was
                // re-created and wakes up
                child_sleep.retain(|&z| {
                    !child_pending
                        .iter()
                        .any(|p| p.ev.seq >= first.seq && p.id == z)
                });
            }
            let old = self.advance(&undo);
            self.path.push(Choice::Event {
                seq: ev.ev.seq,
                kind: ev.ev.kind,
            });
            let r = self.dfs(depth + 1, child_sleep, child_pending);
            self.path.pop();
            self.retreat(undo, old);
            r?;
        }
        Ok(())
    }
}

/// Whether sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.any(|y| y == x))
}

/// Inserts `id` into the sorted set `set`.
fn insert_sorted(set: &mut Vec<u32>, id: u32) {
    if let Err(at) = set.binary_search(&id) {
        set.insert(at, id);
    }
}

fn pending_timer(pending: &[Pending], target: ProcId) -> bool {
    pending
        .iter()
        .any(|p| matches!(p.ev.kind, EnabledKind::Timer { proc, .. } if proc == target))
}

fn pending_fault(pending: &[Pending], target: ProcId) -> bool {
    pending.iter().any(|p| {
        matches!(p.ev.kind,
            EnabledKind::Recover { proc } | EnabledKind::Crash { proc } if proc == target)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ben_or_net, bracha_net, paxos_net, BenOrParams, BrachaParams, PaxosParams,
    };
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    impl<M: Clone + McWords> Explorer<M> {
        /// The current state's key encoded from scratch: every process
        /// and every pending event re-read off the net.
        fn scratch_key(&mut self) -> Vec<u32> {
            let n = self.net.num_processes();
            let mut key: Vec<u32> = (0..n).map(|p| self.encode_process(p)).collect();
            let mut crashed = vec![0u32; n.div_ceil(32)];
            for p in (0..n).filter(|&p| self.net.is_crashed(p)) {
                crashed[p / 32] |= 1 << (p % 32);
            }
            key.extend(crashed);
            key.push(self.crash_budget as u32);
            let mut ids: Vec<u32> = self
                .net
                .enabled_events()
                .iter()
                .map(|ev| self.event_id(ev))
                .collect();
            ids.sort_unstable();
            key.extend(ids);
            key
        }

        /// The incremental key of the state `pending` describes, checked
        /// against the from-scratch one.
        fn checked_key(&mut self, pending: &[Pending]) -> Vec<u32> {
            let events: Vec<EnabledEvent> = pending.iter().map(|p| p.ev).collect();
            assert_eq!(events, self.net.enabled_events(), "pending list drifted");
            self.note_crash_flags();
            self.build_key(pending);
            let incremental = self.key.clone();
            assert_eq!(incremental, self.scratch_key());
            incremental
        }
    }

    /// One step of a walk, as it must be taken back.
    struct Step<M: Clone> {
        undo: Undo<M>,
        old: u32,
        pending: Vec<Pending>,
        crash: bool,
    }

    /// What the walks exercised, summed over all of them.
    #[derive(Default)]
    struct Coverage {
        steps: usize,
        crashes: usize,
        draws: usize,
    }

    /// Walks `steps` random transitions through the explorer's own
    /// step/advance/retreat code (tap draws resolved at random, crashes
    /// injected with probability 1/8 while the budget lasts), checking
    /// the incremental key against a from-scratch one at every state,
    /// forward and again on the way back.
    fn walk<M: Clone + McWords>(mut ex: Explorer<M>, seed: u64, steps: usize, cov: &mut Coverage) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pending = ex.root_pending();
        let mut keys = vec![ex.checked_key(&pending)];
        let mut trail: Vec<Step<M>> = Vec::new();
        for _ in 0..steps {
            let crashable: Vec<ProcId> = ex
                .cfg
                .crashable
                .iter()
                .copied()
                .filter(|&p| !ex.net.is_crashed(p))
                .collect();
            let crash = ex.crash_budget > 0
                && !crashable.is_empty()
                && (pending.is_empty() || rng.random_range(0..8) == 0);
            let step = if crash {
                let proc = crashable[rng.random_range(0..crashable.len())];
                let undo = ex.net.inject_crash_undoable(proc);
                ex.crash_budget -= 1;
                cov.crashes += 1;
                let old = ex.advance(&undo);
                Step {
                    undo,
                    old,
                    pending: pending.clone(),
                    crash,
                }
            } else if pending.is_empty() {
                break;
            } else {
                let ev = pending[rng.random_range(0..pending.len())];
                let save = ex.tap.borrow().save();
                let mut script = Vec::new();
                let undo = loop {
                    {
                        let mut tap = ex.tap.borrow_mut();
                        tap.restore(&save);
                        for &v in &script {
                            tap.push_choice(v);
                        }
                    }
                    let undo = ex.net.step_undoable(&ev.ev).expect("pending");
                    let demand = ex.tap.borrow().demands().first().copied();
                    match demand {
                        None => break undo,
                        Some(domain) => {
                            ex.net.undo(undo);
                            script.push(rng.random_range(0..domain));
                            cov.draws += 1;
                        }
                    }
                };
                let next = ex.successor(&pending, ev.ev.seq, undo.created());
                let old = ex.advance(&undo);
                Step {
                    undo,
                    old,
                    pending: std::mem::replace(&mut pending, next),
                    crash,
                }
            };
            cov.steps += 1;
            trail.push(step);
            keys.push(ex.checked_key(&pending));
        }
        while let Some(step) = trail.pop() {
            ex.retreat(step.undo, step.old);
            if step.crash {
                ex.crash_budget += 1;
            }
            pending = step.pending;
            keys.pop();
            assert_eq!(&ex.checked_key(&pending), keys.last().unwrap());
        }
    }

    #[test]
    fn incremental_keys_match_keys_from_scratch() {
        let paxos = PaxosParams::new(vec![0, 1, 1], 8, 1).with_crash_budget(1);
        let liar = BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3);
        let ben_or = BenOrParams::new(1, vec![0, 1, 1], 2);
        let mut cov = Coverage::default();
        for seed in 0..64 {
            let (net, tap) = paxos_net(&paxos);
            let ex = Explorer::new(net, tap, paxos.properties(), paxos.explore_config());
            walk(ex, seed, 40, &mut cov);
            let (net, tap) = bracha_net(&liar);
            walk(
                Explorer::new(net, tap, liar.properties(), liar.explore_config()),
                seed,
                40,
                &mut cov,
            );
            let (net, tap) = ben_or_net(&ben_or);
            let ex = Explorer::new(net, tap, ben_or.properties(), ben_or.explore_config());
            walk(ex, seed, 40, &mut cov);
        }
        assert!(cov.steps > 5_000);
        assert!(cov.crashes > 0, "no crash was injected");
        assert!(cov.draws > 0, "no coin or lie was drawn");
    }
}
