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
//! process it runs, not a copy of the whole net. The bookkeeping around
//! it allocates nothing in steady state: each frame's pending list and
//! sleep sets come off free lists and go back on the way out, the
//! visited states' sleep sets share one flat arena, and process words
//! are encoded into one reused buffer.
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
//! for its [`bne_net::AsyncProcess::state_words_into`], the crash flags, the
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
//! # Transition memo
//!
//! Most transitions of a large search lead to a state it has already
//! covered, and dispatching one just to learn that costs a fork, a
//! handler, an encode and an undo. A step's effect on the key depends
//! only on its target's words, the event and whether the target is
//! crashed, so the explorer memoises **local steps** under those ids:
//! `[target's words id, transition id, kind]`, with the outcome being the
//! target's words id after the step and the ids of the events it created.
//! Before dispatching, it looks the step up. On a hit it builds the
//! child's exact key without touching the net (as the real path does:
//! the process ids with the target's replaced, the crash flags plus the
//! victim of a crash, the budget less one for a crash, and the parent's
//! sorted pending ids less the dispatched one, with the created ones
//! merged in) and probes the visited set for it without inserting. If
//! the child is visited and a remembered sleep set covers the child's
//! (the transition's sleep set less any id the step re-creates), the
//! transition counts in [`ExploreReport::transitions`] and
//! [`ExploreReport::skipped`] and is not dispatched. Otherwise it is
//! dispatched as usual, but the key moves on from the memo's outcome:
//! the target is not re-encoded, the created events are not interned,
//! and the child enters with the key already built, interning it where
//! the probe ended rather than probing again.
//!
//! * **Memoised:** each dispatched delivery or timer that drew nothing
//!   from the choice tap, and each injected crash (its own kind, so a
//!   crash key never meets an event key).
//! * **Never memoised:** steps that drew from the tap (Ben-Or coins,
//!   the Bracha liar's lies), and every step on a net whose fault plan
//!   names process faults, where an `AfterEvents` trigger can fire inside
//!   a step. Planned crash and recovery events exist only on such nets.
//! * **Soundness** rests on [`bne_net::AsyncProcess::state_words`] being
//!   a congruence: from equal words the same event gives equal words,
//!   the same created events and the same tap use. Debug builds dispatch
//!   every skipped step anyway, compare it with the memo and undo it,
//!   re-encode every dispatched step, and rebuild every predicted key;
//!   release builds trust the memo unchecked.
//! * **The stale crash flags.** The crash loop in `Explorer::expand`
//!   reads the flags of the state entered last (see the comment there).
//!   A skip leaves them as the skipped child's entry would have: this
//!   state's flags, plus the victim of a crash. The fix that makes the
//!   loop read the expanded state's own flags deletes this emulation too.
//! * **Recovery injection**, if the crash adversary gains it, makes a
//!   step's outcome depend on the durable copy a crash saved, which no
//!   key holds today: it must add the durable words to the state key,
//!   and so to the memo key.
//!
//! [`LatencyModel::Constant`]: bne_net::LatencyModel::Constant
//! [`SchedulerPolicy::Fifo`]: bne_net::SchedulerPolicy::Fifo

use crate::intern::{self, Interner, Probe};
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
    /// Transitions taken, dispatched or skipped (including
    /// tap-refinement re-runs).
    pub transitions: u64,
    /// Transitions counted in `transitions` that were never dispatched:
    /// the transition memo predicted that each leads to a visited state
    /// whose remembered sleep set covers the child's (see the module
    /// docs). The dispatched transitions number `transitions - skipped`.
    pub skipped: u64,
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
struct Visit {
    /// The head of the state's list in the [`SleepCache`].
    sleeps: u32,
    /// Whether the state is on the DFS stack, so a pruned revisit is a
    /// back edge.
    on_stack: bool,
}

/// Ends a list in the [`SleepCache`]; also "none yet" in id caches.
const NIL: u32 = u32::MAX;

/// [`Explorer::pick_drain`]'s marks: a planned crash or recovery of the
/// process is pending, or one of its timers is.
const FAULT: u8 = 1;
const TIMER: u8 = 2;

/// The local steps the search has dispatched, each keyed by ids the
/// explorer already holds: `[target's words id, transition id, kind]`,
/// where the kind is 0 for an event to a live target, 1 for one to a
/// crashed target and 2 for an injected crash. Its outcome is the
/// target's words id after the step, then the ids of the events the step
/// created, in creation order. See the module docs on the transition
/// memo.
struct StepMemo {
    keys: Interner<u32>,
    /// `outcomes[id]` is the outcome of step `id`: the words id, then the
    /// created ids.
    outcomes: Vec<Vec<u32>>,
}

impl StepMemo {
    fn new() -> Self {
        StepMemo {
            keys: Interner::new(),
            outcomes: Vec::new(),
        }
    }

    /// The outcome `id`: the target's words id after the step, and the
    /// created ids.
    fn outcome(&self, id: u32) -> (u32, &[u32]) {
        let run = &self.outcomes[id as usize];
        (run[0], &run[1..])
    }

    /// Records the outcome of the step `key` names, unless one is already
    /// recorded; in debug builds a recorded one must equal it.
    fn record(&mut self, key: &[u32; 3], words: u32, created: &[u32]) {
        let (id, fresh) = self.keys.intern(key);
        if fresh {
            self.outcomes.push([&[words], created].concat());
        } else {
            debug_assert_eq!(
                self.outcome(id),
                (words, created),
                "state_words is not a congruence: a step from equal words changed them differently"
            );
        }
    }
}

/// A step's memo key, and the outcome the memo knows for it.
#[derive(Clone, Copy)]
struct Recall {
    key: [u32; 3],
    known: Option<u32>,
}

/// The sleep sets every visited state has been expanded under, in one
/// flat word arena: each remembered set is a run of `words`, and each
/// state chains its sets through `nodes`. A state's sets form a minimal
/// antichain (see the module docs on subset caching). Without POR every
/// set is empty and this degenerates to a plain visited set.
#[derive(Default)]
struct SleepCache {
    words: Vec<u32>,
    nodes: Vec<SleepNode>,
}

/// One remembered sleep set, `words[start..start + len]`, and the next
/// set of the same state.
#[derive(Clone, Copy)]
struct SleepNode {
    start: u32,
    len: u32,
    next: u32,
}

impl SleepCache {
    fn set(&self, node: SleepNode) -> &[u32] {
        &self.words[node.start as usize..][..node.len as usize]
    }

    /// Whether some set in the list at `head` is a subset of `sleep`: an
    /// earlier expansion under it explored a superset of what an
    /// expansion under `sleep` would.
    fn covers(&self, head: u32, sleep: &[u32]) -> bool {
        let mut at = head;
        while at != NIL {
            let node = self.nodes[at as usize];
            if is_subset(self.set(node), sleep) {
                return true;
            }
            at = node.next;
        }
        false
    }

    /// Adds `sleep` to the list at `head`, first unlinking every set it
    /// is a subset of, which keeps the list a minimal antichain. The
    /// unlinked words stay in the arena unused.
    fn remember(&mut self, head: &mut u32, sleep: &[u32]) {
        let mut prev = NIL;
        let mut at = *head;
        while at != NIL {
            let node = self.nodes[at as usize];
            if is_subset(sleep, self.set(node)) {
                match prev {
                    NIL => *head = node.next,
                    _ => self.nodes[prev as usize].next = node.next,
                }
            } else {
                prev = at;
            }
            at = node.next;
        }
        let start = u32::try_from(self.words.len()).expect("sleep-set arena fits u32 offsets");
        self.words.extend_from_slice(sleep);
        self.nodes.push(SleepNode {
            start,
            len: sleep.len() as u32,
            next: *head,
        });
        *head = u32::try_from(self.nodes.len() - 1).expect("sleep-set nodes fit u32 ids");
    }
}

/// Takes a cleared buffer off a free list, or a new one if it is empty.
fn take<T>(free: &mut Vec<Vec<T>>) -> Vec<T> {
    free.pop().unwrap_or_default()
}

/// Clears `buf` and puts it on a free list for [`take`] to reuse.
fn give<T>(free: &mut Vec<Vec<T>>, mut buf: Vec<T>) {
    buf.clear();
    free.push(buf);
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
    sleeps: SleepCache,
    /// The crash flags (one bit per process) of the state the search
    /// entered last; see [`Explorer::expand`] for why they are kept.
    entered_crashed: Vec<u32>,
    /// The hash of `key` and where its visited-set probe ended, when
    /// [`Explorer::skip_covered`] built and looked it up but did not
    /// skip: then `key` and `entered_crashed` already hold those of the
    /// child the search enters next, which interns the key at that probe.
    primed: Option<(u64, Probe)>,
    /// The transition memo.
    memo: StepMemo,
    /// `crash_ids[p]`: the transition id of crashing `p`, or [`NIL`]
    /// before the first.
    crash_ids: Vec<u32>,
    /// The ids of the events the step [`Explorer::advance`] last moved
    /// past created, in creation order.
    created_ids: Vec<u32>,
    /// Per-process [`FAULT`] and [`TIMER`] bits of the pending events,
    /// rebuilt by each [`Explorer::pick_drain`].
    marks: Vec<u8>,
    /// Scratch buffers for a state key, the words of a process or a
    /// transition, and the property checks' view of a state.
    key: Vec<u32>,
    words: Vec<u64>,
    decisions: Vec<Option<Value>>,
    crashed: Vec<bool>,
    /// Free lists of cleared buffers for the DFS frames' pending lists
    /// and `u32` sets (sleep sets and crash-flag snapshots): each frame
    /// takes what it needs and gives it back on the way out, so in
    /// steady state the search reuses their capacity instead of
    /// allocating.
    free_pending: Vec<Vec<Pending>>,
    free_sets: Vec<Vec<u32>>,
    path: Vec<Choice>,
    crash_budget: usize,
    states: u64,
    transitions: u64,
    skipped: u64,
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
        let n = net.num_processes();
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
            sleeps: SleepCache::default(),
            entered_crashed: Vec::new(),
            primed: None,
            memo: StepMemo::new(),
            crash_ids: vec![NIL; n],
            created_ids: Vec::new(),
            marks: Vec::new(),
            key: Vec::new(),
            words: Vec::new(),
            decisions: Vec::new(),
            crashed: Vec::new(),
            free_pending: Vec::new(),
            free_sets: Vec::new(),
            path: Vec::new(),
            crash_budget,
            states: 0,
            transitions: 0,
            skipped: 0,
            terminals: 0,
            max_depth_seen: 0,
            cycles: 0,
            decision_vectors: BTreeSet::new(),
        };
        // fail fast (with a clear message) if any process lacks a
        // canonical encoding, rather than deep inside the search
        ex.proc_ids = (0..n).map(|p| ex.encode_process(p)).collect();
        ex
    }

    /// Runs the search to completion and reports.
    pub fn run(mut self) -> ExploreReport {
        let root = self.root_pending();
        let mut ids: Vec<u32> = root.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        let verdict = match self.dfs(0, Vec::new(), root, ids) {
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
            skipped: self.skipped,
            terminals: self.terminals,
            max_depth_seen: self.max_depth_seen,
            cycles: self.cycles,
            decision_vectors: self.decision_vectors,
        }
    }

    /// The interned id of process `p`'s current state words.
    fn encode_process(&mut self, p: ProcId) -> u32 {
        self.words.clear();
        assert!(
            self.net.process_state_words_into(p, &mut self.words),
            "explorable processes have canonical state_words"
        );
        self.proc_words.intern(&self.words).0
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

    /// The transition id of an injected-crash choice, interned on first
    /// use.
    fn crash_id(&mut self, proc: ProcId) -> u32 {
        if self.crash_ids[proc] == NIL {
            self.words.clear();
            self.words.extend([CRASH_TAG, proc as u64]);
            self.crash_ids[proc] = self.intern_transition(proc);
        }
        self.crash_ids[proc]
    }

    /// The members of `sleep` independent of transition `id` — the whole
    /// dependence relation: transitions are independent iff their
    /// targets differ — in a buffer off the free list.
    fn independent_of(&mut self, sleep: &[u32], id: u32) -> Vec<u32> {
        let target = self.targets[id as usize];
        let mut out = take(&mut self.free_sets);
        out.extend(
            sleep
                .iter()
                .copied()
                .filter(|&z| self.targets[z as usize] != target),
        );
        out
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
    /// `created`, whose ids [`Explorer::advance`] put in `created_ids`,
    /// kept in `(time, tie, seq)` order, in a buffer off the free list.
    fn successor(
        &mut self,
        pending: &[Pending],
        dispatched: u64,
        created: &[EnabledEvent],
    ) -> Vec<Pending> {
        let mut next = take(&mut self.free_pending);
        next.extend(pending.iter().filter(|p| p.ev.seq != dispatched));
        for (ev, &id) in created.iter().zip(&self.created_ids) {
            let at = next.partition_point(|p| p.ev < *ev);
            next.insert(at, Pending { ev: *ev, id });
        }
        next
    }

    /// Moves the key past the step `undo` records, which changed only its
    /// target's words, and returns the target's previous words id for
    /// [`Explorer::retreat`]. The ids of the events the step created go
    /// to `created_ids`. Both come off the memo when it knows the step;
    /// otherwise the target is re-encoded, the created events are
    /// interned, and the outcome is recorded under the step's memo key
    /// unless the step drew from the tap. Debug builds take the second way
    /// for every step, so recording a known step checks it against the
    /// memo.
    fn advance(&mut self, undo: &Undo<M>, memo: Option<Recall>, tap_save: &ChoiceTap) -> u32 {
        let p = undo.target();
        let known = memo.and_then(|m| m.known);
        self.created_ids.clear();
        let words = match known {
            Some(known) if !cfg!(debug_assertions) => {
                let (words, created) = self.memo.outcome(known);
                self.created_ids.extend_from_slice(created);
                words
            }
            _ => {
                for ev in undo.created() {
                    let id = self.event_id(ev);
                    self.created_ids.push(id);
                }
                let words = match undo.reached_process() {
                    true => self.encode_process(p),
                    false => self.proc_ids[p],
                };
                if self.tap.borrow().pos() == tap_save.pos() {
                    if let Some(memo) = memo {
                        self.memo.record(&memo.key, words, &self.created_ids);
                    }
                } else {
                    // a step that drew from the tap is never memoised
                    assert!(known.is_none(), "a memoised step drew from the tap");
                }
                words
            }
        };
        std::mem::replace(&mut self.proc_ids[p], words)
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

    /// The memo key of the step of transition `id` on `target` from the
    /// current state (`crash`: an injected crash, else an event) and the
    /// outcome the memo knows for it; `None` under a fault plan with
    /// process faults, whose steps are never memoised.
    fn recall(&self, target: ProcId, id: u32, crash: bool) -> Option<Recall> {
        let kind = if crash {
            2
        } else {
            u32::from(self.net.is_crashed(target))
        };
        let key = [self.proc_ids[target], id, kind];
        (!self.net.plans_process_faults()).then(|| Recall {
            key,
            known: self.memo.keys.find(&key),
        })
    }

    /// Skips the step `memo` names — dispatching `ev`, or crashing
    /// `target` if `ev` is `None` — when the memo knows its outcome and
    /// the child it predicts is a visited state with a remembered sleep
    /// set covering the child's (`sleep` minus the ids the step
    /// re-creates). The child's key is built from the current state's
    /// sorted pending `ids` by merging, and looked up once: when it is not
    /// skipped, the child's [`Explorer::enter`] interns it where that
    /// probe ended. The skipped transition still counts, and leaves
    /// `entered_crashed` as the child's [`Explorer::enter`] would have.
    /// Returns whether it skipped.
    fn skip_covered(
        &mut self,
        memo: Recall,
        target: ProcId,
        ev: Option<&EnabledEvent>,
        tap_save: &ChoiceTap,
        ids: &[u32],
        sleep: &[u32],
    ) -> bool {
        let Some(known) = memo.known else {
            return false;
        };
        // the child's crash flags, which stay in `entered_crashed` on a
        // skip: the crash loop in `expand` reads them. This emulation goes
        // with the fix that makes that loop read the expanded state's own
        // flags.
        self.note_crash_flags();
        let crash = ev.is_none();
        if crash {
            self.entered_crashed[target / 32] |= 1 << (target % 32);
        }
        // an event's memo key names its transition id
        let dispatched = ev.map(|_| memo.key[1]);
        let (words, created) = self.memo.outcome(known);
        let old = std::mem::replace(&mut self.proc_ids[target], words);
        key_prefix(
            &mut self.key,
            &self.proc_ids,
            &self.entered_crashed,
            self.crash_budget - usize::from(crash),
        );
        push_child_ids(&mut self.key, ids, dispatched, created);
        self.proc_ids[target] = old;
        let hash = intern::hash(&self.key);
        let probe = self.state_keys.probe_hashed(&self.key, hash);
        self.primed = Some((hash, probe));
        let Probe::Found(state) = probe else {
            return false;
        };
        let visit = &self.visits[state as usize];
        let mut child_sleep = take(&mut self.free_sets);
        child_sleep.extend(sleep.iter().filter(|z| !created.contains(z)));
        let covered = self.sleeps.covers(visit.sleeps, &child_sleep);
        give(&mut self.free_sets, child_sleep);
        if !covered {
            return false;
        }
        if visit.on_stack {
            self.cycles += 1;
        }
        self.primed = None;
        self.transitions += 1;
        self.skipped += 1;
        if cfg!(debug_assertions) {
            // dispatch the step anyway: advancing past it checks it
            // against the memo (same words, created ids and no tap draw),
            // which checks that `state_words` is a congruence
            self.tap.borrow_mut().restore(tap_save);
            let undo = match ev {
                Some(ev) => self
                    .net
                    .step_undoable(ev)
                    .expect("a skipped event is pending"),
                None => self.net.inject_crash_undoable(target),
            };
            let old = self.advance(&undo, Some(memo), tap_save);
            self.retreat(undo, old);
        }
        true
    }

    fn check_properties(&mut self) -> Option<Violation> {
        self.net.decisions_into(&mut self.decisions);
        self.crashed.clear();
        self.crashed
            .extend((0..self.net.num_processes()).map(|p| self.net.is_crashed(p)));
        let view = StateView {
            decisions: &self.decisions,
            crashed: &self.crashed,
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
    fn pick_drain(&mut self, pending: &[Pending]) -> Option<Pending> {
        self.marks.clear();
        self.marks.resize(self.net.num_processes(), 0);
        for p in pending {
            match p.ev.kind {
                EnabledKind::Crash { proc } | EnabledKind::Recover { proc } => {
                    self.marks[proc] |= FAULT;
                }
                EnabledKind::Timer { proc, .. } => self.marks[proc] |= TIMER,
                EnabledKind::Deliver { .. } => {}
            }
        }
        let pending_fault = |proc: ProcId| self.marks[proc] & FAULT != 0;
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
                    return !pending_fault(proc)
                        && (self.net.is_crashed(proc) || self.net.event_absorbed(ev));
                }
                _ => return false,
            };
            if self.net.is_crashed(target) {
                // absorbed on dispatch; sound unless a recovery could
                // race it back to life
                !pending_fault(target)
            } else if pending_fault(target) {
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
                self.marks[target] & TIMER == 0
            } else {
                self.net.process_quiescent(target)
            }
        })
    }

    /// Visits the state the net is in, whose pending events are
    /// `pending` with their ids sorted in `ids`, under sleep set `sleep`;
    /// the three buffers go back to the free lists afterwards.
    fn dfs(
        &mut self,
        depth: usize,
        mut sleep: Vec<u32>,
        pending: Vec<Pending>,
        ids: Vec<u32>,
    ) -> Result<(), Stop> {
        let result = self.enter(depth, &mut sleep, &pending, &ids);
        give(&mut self.free_sets, sleep);
        give(&mut self.free_pending, pending);
        give(&mut self.free_sets, ids);
        result
    }

    /// [`Explorer::dfs`]'s body: dedup, property checks and expansion.
    /// `sleep` ends up as the running sleep set of the expansion.
    fn enter(
        &mut self,
        depth: usize,
        sleep: &mut Vec<u32>,
        pending: &[Pending],
        ids: &[u32],
    ) -> Result<(), Stop> {
        let (state, fresh) = match self.primed.take() {
            // `skip_covered` left this state's key and crash flags, and
            // looked the key up
            Some((hash, probe)) if !cfg!(debug_assertions) => {
                self.state_keys.intern_probed(&self.key, hash, probe)
            }
            primed => {
                let predicted = primed.map(|_| self.key.clone());
                self.note_crash_flags();
                key_prefix(
                    &mut self.key,
                    &self.proc_ids,
                    &self.entered_crashed,
                    self.crash_budget,
                );
                self.key.extend_from_slice(ids);
                if cfg!(debug_assertions) {
                    // the merged ids are the pending ids, sorted
                    let mut sorted: Vec<u32> = pending.iter().map(|p| p.id).collect();
                    sorted.sort_unstable();
                    assert_eq!(sorted, ids, "the merged pending ids drifted");
                }
                assert!(
                    predicted.is_none_or(|key| key == self.key),
                    "the memo mispredicted a key"
                );
                let hash = intern::hash(&self.key);
                match primed {
                    Some((_, probe)) => self.state_keys.intern_probed(&self.key, hash, probe),
                    None => self.state_keys.intern_hashed(&self.key, hash),
                }
            }
        };
        let state = state as usize;
        if fresh {
            self.visits.push(Visit {
                sleeps: NIL,
                on_stack: false,
            });
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
            if self.sleeps.covers(visit.sleeps, sleep) {
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
            self.sleeps.remember(&mut self.visits[state].sleeps, &[]);
            return Ok(());
        }

        // record this expansion for the subset cache
        self.sleeps.remember(&mut self.visits[state].sleeps, sleep);

        let tap_save = self.tap.borrow().save();
        if self.cfg.por {
            if let Some(drain) = self.pick_drain(pending) {
                if sleep.binary_search(&drain.id).is_ok() {
                    // the lone successor is covered where this very
                    // transition was explored (everything since has been
                    // independent of it)
                    return Ok(());
                }
                // singleton persistent set: the drain commutes with all
                // other transitions, so the sleep set survives (minus
                // anything sharing its target)
                let child_sleep = self.independent_of(sleep, drain.id);
                self.visits[state].on_stack = true;
                let r = self.explore_event(&tap_save, pending, ids, drain, depth, &child_sleep);
                self.visits[state].on_stack = false;
                give(&mut self.free_sets, child_sleep);
                return r;
            }
        }

        self.visits[state].on_stack = true;
        let result = self.expand(&tap_save, pending, ids, depth, sleep);
        self.visits[state].on_stack = false;
        result
    }

    /// Expands every choice at one state: each pending event (one
    /// representative per content class, with tap refinement) and each
    /// permitted crash, threading the sleep set `cur_sleep` through in
    /// `(time, tie, seq)` order.
    fn expand(
        &mut self,
        tap_save: &ChoiceTap,
        pending: &[Pending],
        ids: &[u32],
        depth: usize,
        cur_sleep: &mut Vec<u32>,
    ) -> Result<(), Stop> {
        for (i, &rep) in pending.iter().enumerate() {
            // one representative per transition id, the first in
            // `pending`: identical pending events are interchangeable
            if pending[..i].iter().any(|p| p.id == rep.id) {
                continue;
            }
            if cur_sleep.binary_search(&rep.id).is_ok() {
                continue; // covered by the sibling that explored it
            }
            let child_sleep = self.independent_of(cur_sleep, rep.id);
            let r = self.explore_event(tap_save, pending, ids, rep, depth, &child_sleep);
            give(&mut self.free_sets, child_sleep);
            r?;
            if self.cfg.por {
                insert_sorted(cur_sleep, rep.id);
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
            // The flags are copied, since each crash child re-enters.
            let mut flags = take(&mut self.free_sets);
            flags.extend_from_slice(&self.entered_crashed);
            for i in 0..self.cfg.crashable.len() {
                let proc = self.cfg.crashable[i];
                if flags[proc / 32] & (1 << (proc % 32)) != 0 {
                    continue;
                }
                let id = self.crash_id(proc);
                if cur_sleep.binary_search(&id).is_ok() {
                    continue;
                }
                let child_sleep = self.independent_of(cur_sleep, id);
                let memo = self.recall(proc, id, true);
                if memo
                    .is_some_and(|m| self.skip_covered(m, proc, None, tap_save, ids, &child_sleep))
                {
                    give(&mut self.free_sets, child_sleep);
                } else {
                    let mut child_pending = take(&mut self.free_pending);
                    child_pending.extend_from_slice(pending);
                    self.tap.borrow_mut().restore(tap_save);
                    let undo = self.net.inject_crash_undoable(proc);
                    self.crash_budget -= 1;
                    self.transitions += 1;
                    self.path.push(Choice::Crash { proc });
                    let old = self.advance(&undo, memo, tap_save);
                    let mut child_ids = take(&mut self.free_sets);
                    push_child_ids(&mut child_ids, ids, None, &self.created_ids);
                    let r = self.dfs(depth + 1, child_sleep, child_pending, child_ids);
                    self.retreat(undo, old);
                    self.path.pop();
                    self.crash_budget += 1;
                    r?;
                }
                if self.cfg.por {
                    insert_sorted(cur_sleep, id);
                }
            }
            give(&mut self.free_sets, flags);
        }
        Ok(())
    }

    /// Dispatches `ev` from the current state, forking on every
    /// uncovered tap draw until the transition is fully scripted, and
    /// recurses into each resulting state with `sleep` (minus any slept
    /// id the dispatch re-created — a fresh copy is a new transition).
    /// A memoised dispatch into a covered state is skipped instead.
    fn explore_event(
        &mut self,
        tap_save: &ChoiceTap,
        pending: &[Pending],
        ids: &[u32],
        ev: Pending,
        depth: usize,
        sleep: &[u32],
    ) -> Result<(), Stop> {
        let target = ev.ev.kind.target();
        let memo = self.recall(target, ev.id, false);
        if memo.is_some_and(|m| self.skip_covered(m, target, Some(&ev.ev), tap_save, ids, sleep)) {
            return Ok(());
        }
        // stack of script extensions still to try, which allocates only
        // once a handler draws past its script; empty extension first
        let mut extensions: Vec<Vec<u64>> = Vec::new();
        let mut empty = Some(Vec::new());
        while let Some(ext) = empty.take().or_else(|| extensions.pop()) {
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
                assert!(
                    memo.is_none_or(|m| m.known.is_none()),
                    "a memoised step drew from the tap"
                );
                self.net.undo(undo);
                for v in (0..domain).rev() {
                    let mut e = ext.clone();
                    e.push(v);
                    extensions.push(e);
                }
                continue;
            }
            let old = self.advance(&undo, memo, tap_save);
            let child_pending = self.successor(pending, ev.ev.seq, undo.created());
            let mut child_ids = take(&mut self.free_sets);
            push_child_ids(&mut child_ids, ids, Some(ev.id), &self.created_ids);
            // a slept id the dispatch re-created wakes up
            let mut child_sleep = take(&mut self.free_sets);
            child_sleep.extend(sleep.iter().filter(|z| !self.created_ids.contains(z)));
            self.path.push(Choice::Event {
                seq: ev.ev.seq,
                kind: ev.ev.kind,
            });
            let r = self.dfs(depth + 1, child_sleep, child_pending, child_ids);
            self.path.pop();
            self.retreat(undo, old);
            r?;
        }
        Ok(())
    }
}

/// Builds into `key` the part of a state's exact key before its sorted
/// pending ids: the interned process ids, crash flags and crash budget.
fn key_prefix(key: &mut Vec<u32>, procs: &[u32], crashed: &[u32], crash_budget: usize) {
    key.clear();
    key.extend_from_slice(procs);
    key.extend_from_slice(crashed);
    key.push(u32::try_from(crash_budget).expect("crash budget fits a word"));
}

/// Appends to `out` the sorted pending ids of a child state: its parent's
/// sorted `ids` less one occurrence of the `dispatched` id (none for an
/// injected crash), with the `created` ids merged in. A step changes a
/// few ids, so this costs less than sorting them all again.
fn push_child_ids(out: &mut Vec<u32>, ids: &[u32], dispatched: Option<u32>, created: &[u32]) {
    let start = out.len();
    out.extend_from_slice(ids);
    if let Some(id) = dispatched {
        let at = out[start..]
            .binary_search(&id)
            .expect("the dispatched event is pending");
        out.remove(start + at);
    }
    for &id in created {
        let at = out[start..].partition_point(|&x| x <= id);
        out.insert(start + at, id);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        ben_or_net, bracha_net, mc_config, paxos_net, BenOrParams, BrachaParams, PaxosParams,
    };
    use bne_byzantine::choice::shared_tap;
    use bne_byzantine::paxos::PaxosMsg;
    use bne_net::{AsyncProcess, FaultPlan, NetConfig, PaxosProcess};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A state's exact key from its interned parts, the pending ids
    /// sorted anew.
    fn build_key(
        key: &mut Vec<u32>,
        procs: &[u32],
        crashed: &[u32],
        crash_budget: usize,
        pending: impl Iterator<Item = u32>,
    ) {
        key_prefix(key, procs, crashed, crash_budget);
        let start = key.len();
        key.extend(pending);
        key[start..].sort_unstable();
    }

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
            build_key(
                &mut self.key,
                &self.proc_ids,
                &self.entered_crashed,
                self.crash_budget,
                pending.iter().map(|p| p.id),
            );
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
                let save = ex.tap.borrow().save();
                let undo = ex.net.inject_crash_undoable(proc);
                ex.crash_budget -= 1;
                cov.crashes += 1;
                let old = ex.advance(&undo, None, &save);
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
                let old = ex.advance(&undo, None, &save);
                let next = ex.successor(&pending, ev.ev.seq, undo.created());
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

    /// The structure the flat sleep cache replaced: one `Vec` per
    /// remembered set.
    #[derive(Default)]
    struct ReferenceSleeps(Vec<Vec<u32>>);

    impl ReferenceSleeps {
        fn covers(&self, sleep: &[u32]) -> bool {
            self.0.iter().any(|z| is_subset(z, sleep))
        }

        fn remember(&mut self, sleep: &[u32]) {
            self.0.retain(|z| !is_subset(sleep, z));
            self.0.push(sleep.to_vec());
        }
    }

    /// The sets in the cache's list at `head`, sorted.
    fn listed(cache: &SleepCache, head: u32) -> Vec<Vec<u32>> {
        let mut sets = Vec::new();
        let mut at = head;
        while at != NIL {
            let node = cache.nodes[at as usize];
            sets.push(cache.set(node).to_vec());
            at = node.next;
        }
        sets.sort();
        sets
    }

    /// A sorted set over a small universe, so that subsets are common.
    fn random_set(rng: &mut StdRng) -> Vec<u32> {
        let universe = rng.random_range(3..10u32);
        let keep = rng.random_range(1..4u32);
        (0..universe)
            .filter(|_| rng.random_range(0..4u32) < keep)
            .collect()
    }

    #[test]
    fn the_flat_sleep_cache_answers_like_the_vec_antichain_it_replaced() {
        const STATES: usize = 8;
        let mut rng = StdRng::seed_from_u64(16);
        let mut cache = SleepCache::default();
        let mut heads = [NIL; STATES];
        let mut reference: Vec<ReferenceSleeps> =
            (0..STATES).map(|_| ReferenceSleeps::default()).collect();
        let (mut covered, mut dropped) = (0, 0);
        for _ in 0..20_000 {
            // the states share one arena, remembered in interleaved order
            // as a search would; now and then a slot moves on to a fresh
            // state, before the empty set covers everything in it
            let s = rng.random_range(0..STATES);
            if rng.random_range(0..8) == 0 {
                heads[s] = NIL;
                reference[s] = ReferenceSleeps::default();
            }
            let sleep = random_set(&mut rng);
            let hit = reference[s].covers(&sleep);
            assert_eq!(cache.covers(heads[s], &sleep), hit, "{sleep:?}");
            covered += usize::from(hit);
            let before = reference[s].0.len();
            cache.remember(&mut heads[s], &sleep);
            reference[s].remember(&sleep);
            dropped += usize::from(reference[s].0.len() <= before);
            for _ in 0..4 {
                let probe = random_set(&mut rng);
                assert_eq!(
                    cache.covers(heads[s], &probe),
                    reference[s].covers(&probe),
                    "{probe:?}"
                );
            }
            let mut want = reference[s].0.clone();
            want.sort();
            assert_eq!(listed(&cache, heads[s]), want);
        }
        // both answers, and superset drops, occur often
        assert!(covered > 2_000 && covered < 18_000, "covered {covered}");
        assert!(dropped > 1_000, "supersets dropped {dropped} times");
        // a terminal remembers the empty set, which covers everything
        cache.remember(&mut heads[0], &[]);
        assert_eq!(listed(&cache, heads[0]), vec![Vec::<u32>::new()]);
        assert!(cache.covers(heads[0], &[]));
    }

    #[test]
    fn steps_under_a_plan_of_process_faults_are_never_memoised() {
        let params = PaxosParams::new(vec![0, 1], 8, 0);
        let explore = |faults| {
            let procs = params
                .inputs
                .iter()
                .map(|&input| -> Box<dyn AsyncProcess<Msg = PaxosMsg>> {
                    Box::new(PaxosProcess::new(input, 8, 0))
                })
                .collect();
            let net = EventNet::new(
                procs,
                NetConfig {
                    faults,
                    ..mc_config()
                },
            );
            Explorer::new(
                net,
                shared_tap(),
                params.properties(),
                params.explore_config(),
            )
            .run()
        };
        let plain = explore(FaultPlan::none());
        assert!(plain.skipped > 0, "the memo skipped nothing");
        // an `AfterEvents` crash or a planned recovery can fire inside a
        // step, so under such a plan every transition is dispatched
        let planned = explore(FaultPlan::none().crash_at(1, 2).recover_at(5));
        assert!(planned.transitions > plain.transitions / 2);
        assert_eq!(planned.skipped, 0);
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
