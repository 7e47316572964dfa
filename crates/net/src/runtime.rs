//! The discrete-event engine: a seeded event queue keyed by
//! `(virtual time, tiebreak, sequence number)` driving message-passing
//! [`AsyncProcess`]es.
//!
//! Everything is deterministic given the [`NetConfig`]: the queue ordering
//! is a total order (the sequence number is unique), latency/drop sampling
//! happens in event-processing order from a single seeded stream, and the
//! scheduler's randomness lives in its own stream derived via
//! [`bne_sim::derive_seed`]. Two runs with the same `(config, processes)`
//! therefore produce the same event trace, decisions and statistics — the
//! determinism property tests assert exactly this.
//!
//! # The event core
//!
//! Queued events live in an **arena** (a slab indexed by `u32` handles
//! with a free list), so the queue itself only ever moves small `Copy`
//! keys around. Two queue implementations realize the same total order
//! (selected by [`NetConfig::queue`], see [`QueueImpl`]):
//!
//! * a **bucketed timing wheel**: a fixed ring of per-tick buckets over
//!   a fixed near-future horizon, with a binary-heap overflow for
//!   far-future events (retry backoff can exceed the horizon). Buckets
//!   stay append-sorted on the FIFO fast path and lazily sort their
//!   undrained tail when an out-of-order tiebreak lands, so a whole tick
//!   drains in one pass;
//! * the original **global binary heap** — the reference implementation
//!   and escape hatch, differentially tested against the wheel.
//!
//! # The crash-recovery fault model
//!
//! Beyond link faults, a [`crate::FaultPlan`] can crash and recover
//! *processes*: a crashed process receives nothing (deliveries and timers
//! addressed to it are counted as [`NetStats::crashed_drops`]) and sends
//! nothing, until a planned recovery restores its durable state (see
//! [`DurableState`]) and hands control back via
//! [`AsyncProcess::on_recover`]. The plan is enforced entirely by the
//! runtime, so any protocol can be crashed without per-protocol wrappers,
//! and the crash/recover events participate in the same `(time, tie, seq)`
//! total order — wheel and heap executions stay bit-identical.
//!
//! # Examples
//!
//! An [`AsyncProcess`] sees only message arrivals and its own timers —
//! no rounds. A two-process ping/pong, run to quiescence under the
//! lockstep configuration (note that the timer and crash-lifecycle hooks
//! all have default no-op implementations):
//!
//! ```
//! use bne_net::{AsyncProcess, EventNet, NetConfig, NetCtx};
//!
//! struct Ping {
//!     last: Option<u64>,
//! }
//!
//! impl AsyncProcess for Ping {
//!     type Msg = u64;
//!     fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
//!         if ctx.id() == 0 {
//!             ctx.send(1, 7); // the opening ping
//!         }
//!     }
//!     fn on_message(&mut self, src: usize, msg: u64, ctx: &mut NetCtx<u64>) {
//!         self.last = Some(msg);
//!         if ctx.id() == 1 {
//!             ctx.send(src, msg + 1); // pong once
//!         }
//!     }
//!     fn decision(&self) -> Option<u64> {
//!         self.last
//!     }
//! }
//!
//! let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> =
//!     (0..2).map(|_| Box::new(Ping { last: None }) as _).collect();
//! let mut net = EventNet::new(procs, NetConfig::lockstep(0));
//! assert!(net.run(100), "the event queue drains");
//! assert_eq!(net.decisions(), vec![Some(8), Some(7)]);
//! assert_eq!(net.stats().messages_delivered, 2);
//! ```

use crate::model::{CrashTrigger, NetConfig, QueueImpl, SchedulerPolicy};
use crate::obs::Observer;
use bne_byzantine::ProcId;
use bne_sim::derive_seed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Stream tag for the latency/drop RNG (see [`bne_sim::derive_seed`]).
const STREAM_LINK: u64 = 1;
/// Stream tag for the scheduler RNG.
const STREAM_SCHEDULER: u64 = 2;

/// What a processed event was; part of [`TraceEvent`].
///
/// # Field encoding
///
/// A [`TraceEvent`] packs every kind into the same two `u64` fields, so
/// `src`/`dst` are **overloaded** per kind:
///
/// | kind                  | `src`            | `dst`        |
/// |-----------------------|------------------|--------------|
/// | `Send`/`Deliver`/`Drop` | sending process | receiving process |
/// | `Timer`               | timer owner      | timer id     |
/// | `Crash`/`Recover`     | process          | always 0     |
/// | `CrashDrop`           | as the absorbed `Deliver` *or* `Timer` entry |
///
/// Consumers should not re-derive this table: [`TraceEvent::fields`]
/// decodes an entry into a [`TraceFields`] view. Note that `CrashDrop`
/// is genuinely ambiguous — the trace does not retain whether the
/// absorbed event was a delivery or a timer, so its decoded view keeps
/// the raw pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A process sent a message (`src → dst`).
    Send,
    /// A message was delivered (`src → dst`).
    Deliver,
    /// A message was dropped by loss or partition (`src → dst`).
    Drop,
    /// A timer fired (`src` = process, `dst` = timer id).
    Timer,
    /// A planned process crash fired (`src` = process, `dst` = 0).
    Crash,
    /// A planned process recovery fired (`src` = process, `dst` = 0).
    Recover,
    /// A delivery or timer addressed to a crashed process was absorbed
    /// (`src`/`dst` as the corresponding [`TraceKind::Deliver`] or
    /// [`TraceKind::Timer`] entry would have carried).
    CrashDrop,
}

/// One entry of the deterministic event trace (recorded only when
/// [`NetConfig::record_trace`] is set). See [`TraceKind`] for how the
/// `src`/`dst` fields are overloaded per kind, and [`TraceEvent::fields`]
/// for the decoded view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: u64,
    /// Event class.
    pub kind: TraceKind,
    /// Sender / timer owner (see [`TraceKind`]).
    pub src: u64,
    /// Recipient / timer id (see [`TraceKind`]).
    pub dst: u64,
}

/// The decoded `src`/`dst` fields of one [`TraceEvent`] — the accessor
/// exporters use instead of re-deriving the per-kind encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFields {
    /// A message event (`Send`, `Deliver`, `Drop`): sender and receiver.
    Message {
        /// Sending process.
        src: u64,
        /// Receiving process.
        dst: u64,
    },
    /// A `Timer` event: the owning process and the timer id it armed.
    Timer {
        /// Timer owner.
        proc: u64,
        /// Timer id (as passed to [`NetCtx::set_timer`]).
        timer: u64,
    },
    /// A `Crash` or `Recover` lifecycle event.
    Lifecycle {
        /// The crashing / recovering process.
        proc: u64,
    },
    /// A `CrashDrop`: the raw fields of the absorbed event. The trace
    /// does not retain whether a delivery (`src → dst`) or a timer
    /// (`proc`, `timer id`) was absorbed, so the pair stays undecoded.
    Absorbed {
        /// `src` of the absorbed entry (sender, or timer owner).
        src: u64,
        /// `dst` of the absorbed entry (receiver, or timer id).
        dst: u64,
    },
}

impl TraceEvent {
    /// Decodes the overloaded `src`/`dst` fields per [`TraceKind`].
    pub fn fields(&self) -> TraceFields {
        match self.kind {
            TraceKind::Send | TraceKind::Deliver | TraceKind::Drop => TraceFields::Message {
                src: self.src,
                dst: self.dst,
            },
            TraceKind::Timer => TraceFields::Timer {
                proc: self.src,
                timer: self.dst,
            },
            TraceKind::Crash | TraceKind::Recover => TraceFields::Lifecycle { proc: self.src },
            TraceKind::CrashDrop => TraceFields::Absorbed {
                src: self.src,
                dst: self.dst,
            },
        }
    }
}

/// Aggregate statistics of one execution.
///
/// Besides the message counts, this carries the **work counters** the
/// `BENCH_6` methodology reports: events processed, the peak number of
/// simultaneously queued events, and the arena high-water mark (event
/// slots ever allocated — the allocation footprint of the run). All of
/// them are part of the deterministic execution, so they are bit-identical
/// across queue implementations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages handed to the network with a valid destination (counted at
    /// send time, like [`bne_byzantine::RoundStats::messages_sent`]).
    pub messages_sent: usize,
    /// Messages actually delivered to their recipient.
    pub messages_delivered: usize,
    /// Messages lost to iid drops or partitions.
    pub messages_dropped: usize,
    /// Deliveries and timers absorbed because their target process was
    /// crashed when they fired (work the crash model discarded — without
    /// this the atlas columns would undercount what the network actually
    /// did).
    pub crashed_drops: usize,
    /// Total events processed (deliveries + timers, plus any planned
    /// crash/recovery events from the fault plan).
    pub events_processed: usize,
    /// Timers actually fired (delivered to a live process). A subset of
    /// [`NetStats::events_processed`]; absorbed timers count as
    /// [`NetStats::crashed_drops`] instead. Separating them makes
    /// retry/timeout pressure visible without recording a trace.
    pub timers_fired: usize,
    /// Virtual time of the last processed event.
    pub virtual_time: u64,
    /// Peak number of simultaneously queued events.
    pub peak_queue_len: usize,
    /// Event-arena slots ever allocated (the in-flight high-water mark:
    /// slots are recycled through a free list, so this is the peak number
    /// of concurrently live events, not a per-event allocation count).
    pub arena_high_water: usize,
    /// Per-process recovery counts (in process-id order): how many times
    /// each process came back from a planned crash.
    pub recoveries: Vec<u64>,
}

/// A queued message payload: unicast sends own their message outright
/// (no extra allocation over the pre-`Rc` queue), multicasts share one
/// `Rc`-backed allocation across every recipient. The payload is only
/// materialized into an owned `M` at delivery time — the last live
/// reference is moved out instead of cloned, and messages dropped by
/// loss or partitions never pay for a clone at all. This is what cuts
/// the per-recipient clone cost of big multicast payloads (e.g. the
/// Dolev–Strong signature chains) on large `n`.
pub(crate) enum Payload<M> {
    /// A unicast message, owned by its single queue entry.
    Owned(M),
    /// A multicast message, shared across recipients.
    Shared(Rc<M>),
}

impl<M: Clone> Clone for Payload<M> {
    fn clone(&self) -> Self {
        match self {
            // a clone (an undo record's copy of a dispatched event) shares
            // the multicast allocation — payloads are immutable once queued
            Payload::Owned(msg) => Payload::Owned(msg.clone()),
            Payload::Shared(rc) => Payload::Shared(Rc::clone(rc)),
        }
    }
}

impl<M: Clone> Payload<M> {
    /// Materializes an owned message for delivery, cloning only when
    /// other recipients still hold the shared payload.
    pub(crate) fn into_msg(self) -> M {
        match self {
            Payload::Owned(msg) => msg,
            Payload::Shared(rc) => Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()),
        }
    }

    /// Borrows the queued message without materializing it — the model
    /// checker's read-only view for state fingerprinting.
    pub(crate) fn as_msg(&self) -> &M {
        match self {
            Payload::Owned(msg) => msg,
            Payload::Shared(rc) => rc,
        }
    }
}

/// The action buffer handed to every [`AsyncProcess`] callback.
///
/// Sends and timers requested here are applied by the runtime after the
/// callback returns, in request order — which keeps the sampling order of
/// the latency/drop RNG well-defined. The runtime recycles one scratch
/// buffer across events, so steady-state event processing allocates
/// nothing here.
pub struct NetCtx<M> {
    id: ProcId,
    n: usize,
    now: u64,
    sends: Vec<(ProcId, Payload<M>)>,
    timers: Vec<(u64, u64)>,
}

/// The drained action buffers of one [`NetCtx`], handed out by
/// [`NetCtx::drain_actions`]: timers and sends as separate draining
/// iterators (in request order, capacity retained by the context). This
/// is the one sanctioned way for adapters in this crate to consume an
/// inner context's buffered actions — previously `retry.rs` reached into
/// the fields directly.
pub(crate) struct NetActions<'a, M> {
    /// Buffered `(delay, timer-id)` requests, in request order.
    pub(crate) timers: std::vec::Drain<'a, (u64, u64)>,
    /// Buffered `(destination, payload)` sends, in request order.
    pub(crate) sends: std::vec::Drain<'a, (ProcId, Payload<M>)>,
}

impl<M> NetCtx<M> {
    pub(crate) fn new(id: ProcId, n: usize, now: u64) -> Self {
        NetCtx {
            id,
            n,
            now,
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-targets a recycled context: clears the buffers (keeping their
    /// capacity) and points it at a new `(id, now)`.
    pub(crate) fn reset(&mut self, id: ProcId, n: usize, now: u64) {
        self.id = id;
        self.n = n;
        self.now = now;
        self.sends.clear();
        self.timers.clear();
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Number of processes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sends `msg` to `dst`. Messages to nonexistent processes are
    /// silently discarded (matching [`bne_byzantine::SyncNetwork`]).
    pub fn send(&mut self, dst: ProcId, msg: M) {
        self.sends.push((dst, Payload::Owned(msg)));
    }

    /// Sends an already-shared payload to `dst` without cloning it —
    /// the internal hook the retry adapter uses to retransmit one tracked
    /// allocation to many recipients across many attempts.
    pub(crate) fn send_shared(&mut self, dst: ProcId, msg: Rc<M>) {
        self.sends.push((dst, Payload::Shared(msg)));
    }

    /// Sends one `msg` to every destination in `dsts`, storing the
    /// payload **once** in the event queue (`Rc`-backed) instead of
    /// cloning it per recipient. Delivery order, fault sampling and
    /// statistics are identical to calling [`Self::send`] once per
    /// destination with a clone — only the allocation profile changes
    /// (see the `multicast_matches_per_recipient_sends` test).
    pub fn multicast<I: IntoIterator<Item = ProcId>>(&mut self, dsts: I, msg: M) {
        let shared = Rc::new(msg);
        for dst in dsts {
            self.sends.push((dst, Payload::Shared(Rc::clone(&shared))));
        }
    }

    /// Arms a timer that fires `delay` ticks from now, delivered back via
    /// [`AsyncProcess::on_timer`] with the given id.
    pub fn set_timer(&mut self, delay: u64, timer: u64) {
        self.timers.push((delay, timer));
    }

    /// Drains the buffered actions (timers and sends, each in request
    /// order) while retaining buffer capacity for the next callback.
    pub(crate) fn drain_actions(&mut self) -> NetActions<'_, M> {
        NetActions {
            timers: self.timers.drain(..),
            sends: self.sends.drain(..),
        }
    }
}

/// The state a process carries across a planned crash: an opaque list of
/// words, snapshotted by [`AsyncProcess::save_durable`] when the crash
/// fires and handed back to [`AsyncProcess::restore_durable`] at recovery.
///
/// Protocols encode whatever their stable storage would hold (a Paxos
/// acceptor's promise and accepted ballot/value, a broadcast's delivered
/// flag); everything *not* encoded is, by convention, volatile and should
/// be wiped in `restore_durable`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableState {
    words: Vec<u64>,
}

impl DurableState {
    /// An empty snapshot.
    pub fn new() -> Self {
        DurableState::default()
    }

    /// Appends one word to the snapshot.
    pub fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Reads the `idx`-th word, if present.
    pub fn get(&self, idx: usize) -> Option<u64> {
        self.words.get(idx).copied()
    }

    /// The whole snapshot as a word slice.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of words in the snapshot.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl From<Vec<u64>> for DurableState {
    fn from(words: Vec<u64>) -> Self {
        DurableState { words }
    }
}

/// An event-driven protocol participant.
///
/// Unlike the round-based [`bne_byzantine::Process`], an `AsyncProcess`
/// never sees global rounds — only message arrivals and its own timers.
/// Round-based processes run unchanged through
/// [`crate::adapter::RoundAdapter`].
///
/// # The crash-recovery lifecycle
///
/// When a [`crate::FaultPlan`] crashes this process, the runtime calls
/// [`AsyncProcess::on_crash`], snapshots [`AsyncProcess::save_durable`],
/// and stops delivering events (they are absorbed and counted as
/// [`NetStats::crashed_drops`]). At the planned recovery time it calls
/// [`AsyncProcess::restore_durable`] with the snapshot (if one was saved)
/// and then [`AsyncProcess::on_recover`], from which the process may send
/// and re-arm timers — pending timers armed before the crash were
/// absorbed, so a timer-driven protocol must re-arm here to stay live.
///
/// The defaults give *suspend/resume* semantics: `save_durable` returns
/// `None`, so in-memory state silently survives and a crash window is
/// pure event omission. Protocols modeling real stable storage return a
/// snapshot of their durable fraction and wipe everything volatile in
/// `restore_durable`.
pub trait AsyncProcess {
    /// The message type exchanged by this protocol.
    type Msg: Clone;

    /// Called once at virtual time 0, before any event.
    fn on_start(&mut self, ctx: &mut NetCtx<Self::Msg>);

    /// Called when a message from `src` is delivered.
    fn on_message(&mut self, src: ProcId, msg: Self::Msg, ctx: &mut NetCtx<Self::Msg>);

    /// Called when a timer armed via [`NetCtx::set_timer`] fires.
    /// Defaults to doing nothing.
    fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<Self::Msg>) {
        let _ = (timer, ctx);
    }

    /// Called when a planned crash fires, immediately before the durable
    /// snapshot is taken. Defaults to doing nothing.
    fn on_crash(&mut self) {}

    /// Called when a planned recovery fires, immediately after
    /// [`AsyncProcess::restore_durable`]. Defaults to doing nothing.
    fn on_recover(&mut self, ctx: &mut NetCtx<Self::Msg>) {
        let _ = ctx;
    }

    /// Snapshots the state that survives a crash. Defaults to `None`,
    /// meaning the whole in-memory state survives (suspend/resume).
    fn save_durable(&self) -> Option<DurableState> {
        None
    }

    /// Restores a snapshot taken by [`AsyncProcess::save_durable`];
    /// implementations should reset everything volatile here. Only called
    /// when the crash-time snapshot was `Some`. Defaults to doing nothing.
    fn restore_durable(&mut self, state: &DurableState) {
        let _ = state;
    }

    /// The process's decision, if it has decided.
    fn decision(&self) -> Option<u64>;

    /// Clones this process, full volatile state included — the hook
    /// behind [`EventNet::step_undoable`]. Unlike
    /// [`AsyncProcess::save_durable`] (which deliberately drops volatile
    /// state to model stable storage), a fork must preserve *everything*:
    /// the model checker puts it back mid-protocol and expects identical
    /// future behavior. Defaults to `None`, meaning the process does not
    /// support checkpointing and its network cannot be explored.
    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = Self::Msg>>> {
        None
    }

    /// A canonical encoding of the full local state, used by the model
    /// checker to deduplicate visited states. Two processes with equal
    /// `state_words` must behave identically on every future event.
    /// Defaults to `None` (no canonical encoding — exhaustive exploration
    /// with deduplication is unavailable for this process).
    ///
    /// The encoding must read only this process's own fields, never
    /// `Rc`-shared state such as a choice tap or a probe: the checker
    /// re-encodes only the process a step ran, so words that another
    /// process's step could change would go stale in its state keys.
    fn state_words(&self) -> Option<Vec<u64>> {
        None
    }

    /// Whether this process has gone permanently quiet: it will never
    /// again send, arm a timer or change its decision, **on any future
    /// input**, and handling any two future messages in either order
    /// leaves it in the same state (its remaining updates commute — e.g.
    /// set-insert vote bookkeeping). The model checker uses this to
    /// linearize deliveries to quiescent processes instead of exploring
    /// their interleavings, so a wrong `true` here is a soundness bug
    /// (the POR-vs-full property tests in `tests/` guard the overrides).
    /// Defaults to `false` — no claim, no reduction.
    fn quiescent(&self) -> bool {
        false
    }

    /// Whether delivering `msg` from `src` to this process — now or
    /// after any sequence of further events — is a permanent behavioral
    /// no-op: no sends, no timers, no decision change, no
    /// [`AsyncProcess::state_words`] change. A duplicate vote or a
    /// message whose rule is behind an already-set one-shot flag
    /// qualifies; anything whose effect could be *revived* (e.g. a vote
    /// tally wiped by crash-recovery) does not, unless the fault model
    /// is crash-stop. The model checker dispatches absorbed deliveries
    /// as forced moves instead of exploring their interleavings; like
    /// [`AsyncProcess::quiescent`], a wrong `true` is a soundness bug
    /// guarded by the POR-vs-full property tests. Defaults to `false`.
    fn absorbs(&self, src: ProcId, msg: &Self::Msg) -> bool {
        let _ = (src, msg);
        false
    }

    /// Whether firing `timer` on this process — now or after any
    /// sequence of further events — is a permanent behavioral no-op: no
    /// sends, no re-arm, no decision change, no
    /// [`AsyncProcess::state_words`] change. A retry timer whose budget
    /// is exhausted (and which therefore will not be re-armed) qualifies;
    /// the same crash-stop caveat and property-test guard as
    /// [`AsyncProcess::absorbs`] apply. Defaults to `false`.
    fn timer_absorbed(&self, timer: u64) -> bool {
        let _ = timer;
        false
    }
}

/// A process that does nothing at all: no sends, no timers, no decision.
///
/// Useful as a placeholder participant (e.g. to pad a process vector to a
/// fixed `n`). For modeling a *crashed* participant, prefer
/// [`crate::FaultPlan::crash_at_start`], which works on any process and
/// is visible in the statistics.
pub struct IdleProcess<M: Clone> {
    _marker: std::marker::PhantomData<M>,
}

impl<M: Clone> IdleProcess<M> {
    /// Creates an inert process.
    pub fn new() -> Self {
        IdleProcess {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: Clone> Default for IdleProcess<M> {
    fn default() -> Self {
        IdleProcess::new()
    }
}

impl<M: Clone + 'static> AsyncProcess for IdleProcess<M> {
    type Msg = M;
    fn on_start(&mut self, _ctx: &mut NetCtx<M>) {}
    fn on_message(&mut self, _src: ProcId, _msg: M, _ctx: &mut NetCtx<M>) {}
    fn decision(&self) -> Option<u64> {
        None
    }
    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = M>>> {
        Some(Box::new(IdleProcess::new()))
    }
    fn state_words(&self) -> Option<Vec<u64>> {
        Some(Vec::new())
    }
    fn quiescent(&self) -> bool {
        true // does nothing, by construction
    }
}

#[derive(Clone)]
enum EventKind<M> {
    Deliver {
        src: ProcId,
        dst: ProcId,
        msg: Payload<M>,
        /// Virtual time the message was sent — carried so the delivery
        /// can be annotated with its queue latency (`deliver − send`).
        sent_at: u64,
        /// The sender's Lamport clock at send time (see
        /// [`EventNet::lamport_clocks`]).
        clk: u64,
    },
    Timer {
        proc: ProcId,
        timer: u64,
        /// Virtual time the timer was armed, so a firing can be
        /// annotated with its wait (`fire − arm`).
        armed_at: u64,
    },
    /// A planned crash from the fault plan (index into
    /// [`crate::FaultPlan::process`]).
    Crash { fault: usize },
    /// A planned recovery of a crashed process.
    Recover { proc: ProcId },
}

// ---------------------------------------------------------------------------
// The arena: payloads live in a slab, the queue moves 24-byte keys
// ---------------------------------------------------------------------------

/// Slab storage for in-flight events. Queue entries reference slots by
/// `u32` handle; freed slots are recycled through a free list, so a
/// steady-state run stops allocating once it reaches its peak in-flight
/// event count (the high-water mark reported in [`NetStats`]).
struct Arena<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> Arena<M> {
    fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, ev: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena capacity");
                self.slots.push(Some(ev));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> EventKind<M> {
        let ev = self.slots[slot as usize].take().expect("live arena slot");
        self.free.push(slot);
        ev
    }

    /// Slots ever allocated == peak number of concurrently live events.
    fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Borrows a live slot without freeing it — the model checker's
    /// read-only view of a queued event.
    fn peek(&self, slot: u32) -> &EventKind<M> {
        self.slots[slot as usize].as_ref().expect("live arena slot")
    }

    /// Takes back one [`Arena::alloc`] made when the arena held
    /// `high_water` slots: the slot returns to the free list, or is
    /// dropped if the allocation grew the slab. Undoing a step's
    /// allocations newest first restores the free list exactly.
    fn unalloc(&mut self, slot: u32, high_water: usize) {
        self.slots[slot as usize] = None;
        if slot as usize >= high_water {
            assert_eq!(slot as usize + 1, self.slots.len(), "unalloc newest first");
            self.slots.pop();
        } else {
            self.free.push(slot);
        }
    }

    /// Reverses the [`Arena::take`] of `slot`, which must be the most
    /// recent free-list entry.
    fn untake(&mut self, slot: u32, ev: EventKind<M>) {
        assert_eq!(self.free.pop(), Some(slot), "untake the latest take");
        self.slots[slot as usize] = Some(ev);
    }
}

// ---------------------------------------------------------------------------
// The timing wheel
// ---------------------------------------------------------------------------

/// Wheel horizon in ticks (must be a power of two). 64 covers every
/// latency model and scheduler delay in the workspace (the widest
/// near-future spread is heavy-tail latency at `base × 2^max_doublings`
/// plus scheduler jitter, ≈ 55 ticks); only far-future retry-backoff
/// timers overflow, and those are rare enough that the overflow heap is
/// cheap. Kept deliberately small because the ring is initialized per
/// `EventNet` — replica ensembles build millions of nets, so ring setup
/// cost is part of the hot path (64 × 32-byte buckets = one 2 KiB
/// write).
const WHEEL_SLOTS: usize = 64;
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Within-tick ordering key of one queued event. `seq` is unique, so the
/// derived lexicographic order on `(tie, seq)` is total and `slot` is
/// never compared.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TickKey {
    tie: u64,
    seq: u64,
    slot: u32,
}

/// One per-tick bucket. Keys are appended; as long as appends arrive in
/// nondecreasing `(tie, seq)` order (the FIFO / monotone-sequence fast
/// path) the bucket needs no sorting at all, and a drain is a linear
/// scan. An out-of-order append (random tiebreaks, rushed deliveries into
/// a partially drained tick) marks the bucket dirty; the *undrained tail*
/// is then sorted lazily at the next pop — exactly reproducing the
/// global heap's "minimum of the remaining events" semantics.
#[derive(Default)]
struct Bucket {
    items: Vec<TickKey>,
    /// Drain cursor: `items[..next]` have been popped. `u32` keeps the
    /// bucket at 32 bytes — the ring is initialized per `EventNet`, so
    /// its footprint is construction cost.
    next: u32,
    /// Whether `items[next..]` needs sorting before the next pop.
    dirty: bool,
}

impl Bucket {
    fn push(&mut self, key: TickKey) {
        if !self.dirty {
            if let Some(last) = self.items.last() {
                if *last > key {
                    self.dirty = true;
                }
            }
        }
        self.items.push(key);
    }

    /// Pops the smallest remaining key. Caller guarantees non-emptiness.
    fn pop(&mut self) -> TickKey {
        let next = self.next as usize;
        if self.dirty {
            self.items[next..].sort_unstable();
            self.dirty = false;
        }
        let key = self.items[next];
        self.next += 1;
        if self.next as usize == self.items.len() {
            // fully drained: recycle the allocation for the next rotation
            self.items.clear();
            self.next = 0;
        }
        key
    }

    fn is_empty(&self) -> bool {
        self.next as usize == self.items.len()
    }
}

/// The bucketed timing wheel: per-tick buckets over
/// `[base, base + WHEEL_SLOTS)` plus an overflow heap for events beyond
/// the horizon. An occupancy bitmap makes "find the next non-empty tick"
/// a handful of word scans instead of a ring walk.
struct TimingWheel {
    buckets: Vec<Bucket>,
    occupied: [u64; WHEEL_WORDS],
    /// Earliest time the wheel can hold; advances monotonically with
    /// every pop. The wheel covers `[base, base + WHEEL_SLOTS)`.
    base: u64,
    /// Events currently in buckets (excluding overflow).
    len: usize,
    /// Far-future events, keyed by the full `(time, tie, seq)` order.
    overflow: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
}

impl TimingWheel {
    fn new() -> Self {
        TimingWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Bucket::default()).collect(),
            occupied: [0; WHEEL_WORDS],
            base: 0,
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.len + self.overflow.len()
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    fn push(&mut self, time: u64, tie: u64, seq: u64, slot: u32) {
        debug_assert!(time >= self.base, "events are never scheduled in the past");
        if time - self.base < WHEEL_SLOTS as u64 {
            let idx = (time & WHEEL_MASK) as usize;
            self.buckets[idx].push(TickKey { tie, seq, slot });
            self.set_bit(idx);
            self.len += 1;
        } else {
            self.overflow.push(Reverse((time, tie, seq, slot)));
        }
    }

    /// Moves every overflow event that now fits the horizon into its
    /// bucket. Called whenever `base` advances.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((time, tie, seq, slot))) = self.overflow.peek() {
            if time - self.base >= WHEEL_SLOTS as u64 {
                break;
            }
            self.overflow.pop();
            let idx = (time & WHEEL_MASK) as usize;
            self.buckets[idx].push(TickKey { tie, seq, slot });
            self.set_bit(idx);
            self.len += 1;
        }
    }

    /// Ring-scans the occupancy bitmap for the first occupied bucket at
    /// ring offset ≥ 0 from `start`, returning the offset. Caller
    /// guarantees `self.len > 0`.
    fn next_occupied_offset(&self, start: usize) -> usize {
        let word = start / 64;
        let bit = start % 64;
        let masked = self.occupied[word] & (!0u64 << bit);
        if masked != 0 {
            return word * 64 + masked.trailing_zeros() as usize - start;
        }
        for i in 1..=WHEEL_WORDS {
            let mut w = word + i;
            if w >= WHEEL_WORDS {
                w -= WHEEL_WORDS;
            }
            let bits = self.occupied[w];
            if bits != 0 {
                let pos = w * 64 + bits.trailing_zeros() as usize;
                return (pos + WHEEL_SLOTS - start) % WHEEL_SLOTS;
            }
        }
        unreachable!("next_occupied_offset called on an empty wheel")
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.len == 0 {
            // nothing inside the horizon: jump straight to the overflow
            let &Reverse((time, ..)) = self.overflow.peek()?;
            self.base = time;
            self.migrate_overflow();
            debug_assert!(self.len > 0);
        }
        let start = (self.base & WHEEL_MASK) as usize;
        let offset = self.next_occupied_offset(start);
        let time = self.base + offset as u64;
        let idx = (start + offset) % WHEEL_SLOTS;
        let key = self.buckets[idx].pop();
        self.len -= 1;
        if self.buckets[idx].is_empty() {
            self.clear_bit(idx);
        }
        if time > self.base {
            // the horizon slid forward: admit newly-eligible overflow
            self.base = time;
            self.migrate_overflow();
        }
        Some((time, key.slot))
    }

    /// Every queued `(time, tie, seq, slot)` key, unsorted. Buckets only
    /// hold times in `[base, base + WHEEL_SLOTS)`, so the ring offset
    /// reconstructs each key's absolute time.
    fn keys(&self, out: &mut Vec<(u64, u64, u64, u32)>) {
        for offset in 0..WHEEL_SLOTS as u64 {
            let time = self.base + offset;
            let bucket = &self.buckets[(time & WHEEL_MASK) as usize];
            for key in &bucket.items[bucket.next as usize..] {
                out.push((time, key.tie, key.seq, key.slot));
            }
        }
        for &Reverse(key) in &self.overflow {
            out.push(key);
        }
    }

    /// The bucket holding events at `time`, or `None` when `time` lies
    /// beyond the horizon (the overflow heap holds it).
    fn bucket_of(&self, time: u64) -> Option<usize> {
        (time >= self.base && time - self.base < WHEEL_SLOTS as u64)
            .then_some((time & WHEEL_MASK) as usize)
    }

    /// Removes one specific queued key (the model checker's out-of-order
    /// dispatch). Returns the key's offset in its bucket's undrained tail
    /// (0 in the overflow heap) for [`TimingWheel::reinsert`], or `None`
    /// if the key was not queued.
    fn remove(&mut self, time: u64, tie: u64, seq: u64, slot: u32) -> Option<usize> {
        let Some(idx) = self.bucket_of(time) else {
            let before = self.overflow.len();
            self.overflow
                .retain(|&Reverse(key)| key != (time, tie, seq, slot));
            return (before != self.overflow.len()).then_some(0);
        };
        let bucket = &mut self.buckets[idx];
        let next = bucket.next as usize;
        let pos = bucket.items[next..]
            .iter()
            .position(|k| k.tie == tie && k.seq == seq && k.slot == slot)?;
        // removal preserves the relative order of the undrained tail,
        // so the bucket's dirty flag stays valid as-is
        bucket.items.remove(next + pos);
        self.len -= 1;
        if bucket.is_empty() {
            bucket.items.clear();
            bucket.next = 0;
            bucket.dirty = false;
            self.clear_bit(idx);
        }
        Some(pos)
    }

    /// The indices of the occupied buckets, read off a copy of the
    /// occupancy bitmap (so the caller may mutate the buckets).
    fn occupied_indices(&self) -> impl Iterator<Item = usize> {
        let bitmap = self.occupied;
        (0..WHEEL_WORDS).flat_map(move |word| {
            let mut bits = bitmap[word];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    word * 64 + bit
                })
            })
        })
    }

    /// Puts a key [`TimingWheel::remove`] took out back where it was.
    fn reinsert(&mut self, time: u64, tie: u64, seq: u64, slot: u32, pos: usize) {
        let Some(idx) = self.bucket_of(time) else {
            self.overflow.push(Reverse((time, tie, seq, slot)));
            return;
        };
        let bucket = &mut self.buckets[idx];
        let at = bucket.next as usize + pos;
        bucket.items.insert(at, TickKey { tie, seq, slot });
        self.len += 1;
        self.set_bit(idx);
    }

    /// Every queued key with `seq >= from`. The undoable steps remove
    /// keys but never pop, so the keys pushed since the sequence counter
    /// stood at `from` sit at the end of their buckets.
    fn keys_since(&self, from: u64, out: &mut Vec<(u64, u64, u64, u32)>) {
        let start = self.base & WHEEL_MASK;
        for idx in self.occupied_indices() {
            let time = self.base + ((idx as u64).wrapping_sub(start) & WHEEL_MASK);
            let bucket = &self.buckets[idx];
            let tail = &bucket.items[bucket.next as usize..];
            for key in tail.iter().rev().take_while(|k| k.seq >= from) {
                out.push((time, key.tie, key.seq, key.slot));
            }
        }
        out.extend(
            self.overflow
                .iter()
                .map(|&Reverse(key)| key)
                .filter(|key| key.2 >= from),
        );
    }

    /// Drops every queued key with `seq >= from` (see
    /// [`TimingWheel::keys_since`]).
    fn drop_since(&mut self, from: u64) {
        for idx in self.occupied_indices() {
            let bucket = &mut self.buckets[idx];
            let tail = &bucket.items[bucket.next as usize..];
            let dropped = tail.iter().rev().take_while(|k| k.seq >= from).count();
            if dropped == 0 {
                continue;
            }
            bucket.items.truncate(bucket.items.len() - dropped);
            self.len -= dropped;
            if bucket.is_empty() {
                bucket.items.clear();
                bucket.next = 0;
                bucket.dirty = false;
                self.clear_bit(idx);
            } else if bucket.dirty {
                // the dropped keys may have been what made it dirty
                bucket.dirty = !bucket.items[bucket.next as usize..].is_sorted();
            }
        }
        self.overflow.retain(|&Reverse(key)| key.2 < from);
    }
}

/// The two interchangeable queue implementations behind [`EventNet`].
/// Both realize the `(time, tie, seq)` total order exactly; see
/// [`QueueImpl`].
enum EventQueue {
    Wheel(TimingWheel),
    Heap(BinaryHeap<Reverse<(u64, u64, u64, u32)>>),
}

impl EventQueue {
    fn new(impl_choice: QueueImpl) -> Self {
        match impl_choice {
            QueueImpl::Wheel => EventQueue::Wheel(TimingWheel::new()),
            QueueImpl::Heap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    fn push(&mut self, time: u64, tie: u64, seq: u64, slot: u32) {
        match self {
            EventQueue::Wheel(wheel) => wheel.push(time, tie, seq, slot),
            EventQueue::Heap(heap) => heap.push(Reverse((time, tie, seq, slot))),
        }
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        match self {
            EventQueue::Wheel(wheel) => wheel.pop(),
            EventQueue::Heap(heap) => heap.pop().map(|Reverse((time, _, _, slot))| (time, slot)),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(wheel) => wheel.len(),
            EventQueue::Heap(heap) => heap.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every queued key, sorted by the `(time, tie, seq)` total order.
    fn keys(&self) -> Vec<(u64, u64, u64, u32)> {
        let mut out = Vec::with_capacity(self.len());
        match self {
            EventQueue::Wheel(wheel) => wheel.keys(&mut out),
            EventQueue::Heap(heap) => out.extend(heap.iter().map(|&Reverse(key)| key)),
        }
        out.sort_unstable();
        out
    }

    /// Removes one specific queued key; returns where it was (for
    /// [`EventQueue::reinsert`]), or `None` if it was not queued.
    fn remove(&mut self, time: u64, tie: u64, seq: u64, slot: u32) -> Option<usize> {
        match self {
            EventQueue::Wheel(wheel) => wheel.remove(time, tie, seq, slot),
            EventQueue::Heap(heap) => {
                let before = heap.len();
                heap.retain(|&Reverse(key)| key != (time, tie, seq, slot));
                (before != heap.len()).then_some(0)
            }
        }
    }

    /// Puts a removed key back where [`EventQueue::remove`] found it.
    fn reinsert(&mut self, time: u64, tie: u64, seq: u64, slot: u32, pos: usize) {
        match self {
            EventQueue::Wheel(wheel) => wheel.reinsert(time, tie, seq, slot, pos),
            EventQueue::Heap(heap) => heap.push(Reverse((time, tie, seq, slot))),
        }
    }

    /// Every queued key with `seq >= from`, in sequence order.
    fn keys_since(&self, from: u64) -> Vec<(u64, u64, u64, u32)> {
        let mut out = Vec::new();
        match self {
            EventQueue::Wheel(wheel) => wheel.keys_since(from, &mut out),
            EventQueue::Heap(heap) => out.extend(
                heap.iter()
                    .map(|&Reverse(key)| key)
                    .filter(|key| key.2 >= from),
            ),
        }
        out.sort_unstable_by_key(|key| key.2);
        out
    }

    /// Drops every queued key with `seq >= from`.
    fn drop_since(&mut self, from: u64) {
        match self {
            EventQueue::Wheel(wheel) => wheel.drop_since(from),
            EventQueue::Heap(heap) => heap.retain(|&Reverse(key)| key.2 < from),
        }
    }
}

/// The decoded class of one pending queue event, as seen by
/// [`EventNet::enabled_events`]. Payloads stay in the arena; the model
/// checker reads them through [`EventNet::event_msg`] when it needs the
/// message for state fingerprinting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnabledKind {
    /// A pending message delivery `src → dst`.
    Deliver {
        /// Sending process.
        src: ProcId,
        /// Receiving process.
        dst: ProcId,
    },
    /// A pending timer firing.
    Timer {
        /// Timer owner.
        proc: ProcId,
        /// Timer id (as passed to [`NetCtx::set_timer`]).
        timer: u64,
    },
    /// A planned crash from the fault plan.
    Crash {
        /// The process the fault targets.
        proc: ProcId,
    },
    /// A planned recovery of a crashed process.
    Recover {
        /// The recovering process.
        proc: ProcId,
    },
}

impl EnabledKind {
    /// The process whose state this event can affect — the dependency
    /// class the partial-order reduction groups by.
    pub fn target(&self) -> ProcId {
        match *self {
            EnabledKind::Deliver { dst, .. } => dst,
            EnabledKind::Timer { proc, .. }
            | EnabledKind::Crash { proc }
            | EnabledKind::Recover { proc } => proc,
        }
    }
}

/// One pending event of the queue, decoded for the model checker's
/// choice enumeration: the `(time, tie, seq)` total-order key (`seq` is
/// unique per event) plus the decoded [`EnabledKind`]. Obtained from
/// [`EventNet::enabled_events`] and consumed by
/// [`EventNet::step_chosen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnabledEvent {
    /// Scheduled virtual time.
    pub time: u64,
    /// Scheduler tiebreak.
    pub tie: u64,
    /// Unique sequence number (the event's identity).
    pub seq: u64,
    /// Arena slot (private: only meaningful to the owning net).
    slot: u32,
    /// Decoded event class.
    pub kind: EnabledKind,
}

/// Where trace events go: nowhere (the benchmark/ensemble fast path pays
/// a single branch per record call and no memory traffic), an in-memory
/// log (the replay/property-test path), or a streaming [`Observer`]
/// (the observability path — hooks fire in event order with causal and
/// latency enrichment, see [`crate::obs`]).
enum TraceSink {
    Off,
    Record(Vec<TraceEvent>),
    Stream(Box<dyn Observer>),
}

/// The deterministic discrete-event network runtime.
pub struct EventNet<M: Clone> {
    procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
    queue: EventQueue,
    arena: Arena<M>,
    cfg: NetConfig,
    link_rng: StdRng,
    sched_rng: StdRng,
    now: u64,
    next_seq: u64,
    stats: NetStats,
    /// Incremental mirror of `queue.len()` (pushes minus pops), so peak
    /// tracking never traverses the queue.
    queue_len: usize,
    trace: TraceSink,
    decision_times: Vec<Option<u64>>,
    /// Recycled action buffer: one live callback at a time, so a single
    /// scratch context serves every event.
    scratch: Option<NetCtx<M>>,
    /// Which processes are currently crashed (events addressed to them
    /// are absorbed).
    crashed: Vec<bool>,
    /// Events (deliveries + timers) each process has handled; drives
    /// [`CrashTrigger::AfterEvents`]. Absorbed events do not count.
    handled: Vec<u64>,
    /// Durable snapshots taken at crash time, consumed at recovery.
    saved: Vec<Option<DurableState>>,
    /// Whether each process's [`AsyncProcess::on_start`] has run. A
    /// process crashed *at start* boots via `on_start` at recovery
    /// instead of `on_recover` — it never initialized.
    started: Vec<bool>,
    /// Which plan faults have already fired (each fires at most once).
    fault_fired: Vec<bool>,
    /// Per-process Lamport clocks, maintained unconditionally (sends,
    /// deliveries, timer firings and crash/recover transitions tick
    /// them) so the causal annotations handed to an [`Observer`] are
    /// identical whether or not one is attached.
    lamport: Vec<u64>,
}

impl<M: Clone> EventNet<M> {
    /// Builds the network and runs every process's
    /// [`AsyncProcess::on_start`] (in process-id order, at time 0).
    pub fn new(procs: Vec<Box<dyn AsyncProcess<Msg = M>>>, cfg: NetConfig) -> Self {
        let sink = if cfg.record_trace {
            TraceSink::Record(Vec::new())
        } else {
            TraceSink::Off
        };
        Self::with_sink(procs, cfg, sink)
    }

    /// Builds the network with a streaming [`Observer`] attached.
    ///
    /// The observer sees every event the trace would record — including
    /// the time-0 crashes and `on_start` sends that fire during
    /// construction — enriched with causal and latency metadata. It
    /// replaces the trace sink, so [`EventNet::trace`] stays empty and
    /// [`NetConfig::record_trace`] is ignored. Attaching an observer
    /// cannot perturb the execution: decisions, decision times and
    /// statistics are bit-identical to a [`NetConfig::record_trace`]`
    /// = false` run (property-tested in `tests/tests/net_obs.rs`).
    ///
    /// To read results out after the run, attach an
    /// `Rc<RefCell<impl Observer>>` and keep a clone of the handle (the
    /// blanket [`Observer`] impl forwards through it).
    pub fn with_observer(
        procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
        cfg: NetConfig,
        observer: Box<dyn Observer>,
    ) -> Self {
        Self::with_sink(procs, cfg, TraceSink::Stream(observer))
    }

    fn with_sink(
        procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
        cfg: NetConfig,
        trace: TraceSink,
    ) -> Self {
        assert!(cfg.round_ticks >= 1, "round_ticks must be at least 1");
        let sched_seed = match cfg.scheduler {
            SchedulerPolicy::RandomInterleave { seed, .. } => seed,
            _ => 0,
        };
        let n = procs.len();
        let fault_count = cfg.faults.process.len();
        let mut net = EventNet {
            queue: EventQueue::new(cfg.queue),
            arena: Arena::new(),
            link_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_LINK, 0)),
            sched_rng: StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_SCHEDULER, sched_seed)),
            trace,
            cfg,
            now: 0,
            next_seq: 0,
            stats: NetStats {
                recoveries: vec![0; n],
                ..NetStats::default()
            },
            queue_len: 0,
            procs: Vec::new(),
            decision_times: vec![None; n],
            scratch: None,
            crashed: vec![false; n],
            handled: vec![0; n],
            saved: (0..n).map(|_| None).collect(),
            started: vec![false; n],
            fault_fired: vec![false; fault_count],
            lamport: vec![0; n],
        };
        // install the processes before starting them, so destination
        // validity checks in `route` see the real process count; one
        // context serves every start callback (and seeds the scratch
        // buffer the event loop recycles)
        net.procs = procs;
        // enact the fault plan: time-0 crashes fire before any `on_start`
        // (crash-at-start), and later timed crashes are queued ahead of
        // every send, so at equal (time, tie) a planned crash beats a
        // delivery
        let plan = net.cfg.faults.process.clone();
        for (i, fault) in plan.iter().enumerate() {
            assert!(
                fault.proc < n,
                "fault plan names process {} but the network has {n}",
                fault.proc
            );
            match fault.trigger {
                CrashTrigger::AtTime(0) => {
                    net.fault_fired[i] = true;
                    net.crash_proc(fault.proc, fault.recover_at);
                }
                CrashTrigger::AtTime(t) => net.push_event(t, 0, EventKind::Crash { fault: i }),
                CrashTrigger::AfterEvents(_) => {} // checked after each dispatch
            }
        }
        let mut ctx = NetCtx::new(0, n, 0);
        for id in 0..n {
            if net.crashed[id] {
                continue; // crashed at start: boots at recovery, if any
            }
            net.started[id] = true;
            ctx.reset(id, n, 0);
            net.procs[id].on_start(&mut ctx);
            net.note_decision(id);
            net.apply(id, &mut ctx);
        }
        net.scratch = Some(ctx);
        net
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.procs.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        let mut stats = self.stats.clone();
        // both are implied by hot-path state — the arena never shrinks,
        // so its slot count IS the running high-water mark, and `now` is
        // the time of the last processed event — so neither is stored
        // per event
        stats.arena_high_water = self.arena.high_water();
        stats.virtual_time = self.now;
        stats
    }

    /// The recorded event trace (empty unless
    /// [`NetConfig::record_trace`] was set; a streaming observer
    /// replaces the in-memory log, so it is empty then too).
    pub fn trace(&self) -> &[TraceEvent] {
        match &self.trace {
            TraceSink::Off | TraceSink::Stream(_) => &[],
            TraceSink::Record(trace) => trace,
        }
    }

    /// The per-process Lamport clocks (in process-id order).
    ///
    /// Maintained unconditionally by the runtime: a send ticks the
    /// sender, a delivery sets the receiver to
    /// `max(local, sender-at-send) + 1`, and timer firings, crashes and
    /// recoveries tick the owning process. Absorbed events
    /// ([`NetStats::crashed_drops`]) tick nothing — the process saw
    /// nothing.
    pub fn lamport_clocks(&self) -> &[u64] {
        &self.lamport
    }

    /// The decisions of every process (in process-id order).
    pub fn decisions(&self) -> Vec<Option<u64>> {
        self.procs.iter().map(|p| p.decision()).collect()
    }

    /// The virtual time at which each process's [`AsyncProcess::decision`]
    /// first became `Some` (in process-id order; `None` for processes that
    /// never decided). This is the per-process *decision latency* the
    /// event-driven experiments report — for round-based protocols the
    /// round count is fixed, but for Bracha/Ben-Or it is the measured
    /// random variable.
    pub fn decision_times(&self) -> &[Option<u64>] {
        &self.decision_times
    }

    /// Records the decision time of `proc` if its decision just appeared.
    fn note_decision(&mut self, proc: ProcId) {
        if self.decision_times[proc].is_none() {
            if let Some(value) = self.procs[proc].decision() {
                self.decision_times[proc] = Some(self.now);
                if let TraceSink::Stream(obs) = &mut self.trace {
                    obs.on_decide(self.now, proc as u64, value);
                }
            }
        }
    }

    /// Whether `proc` is currently crashed under the fault plan.
    pub fn is_crashed(&self, proc: ProcId) -> bool {
        self.crashed[proc]
    }

    /// The canonical state encoding of one process
    /// ([`AsyncProcess::state_words`]) — the per-process component of
    /// the model checker's exact state fingerprint. `None` if the
    /// process has no canonical encoding.
    pub fn process_state_words(&self, proc: ProcId) -> Option<Vec<u64>> {
        self.procs[proc].state_words()
    }

    /// Whether `proc` claims permanent quiescence
    /// ([`AsyncProcess::quiescent`]) — the model checker's
    /// delivery-linearization hook.
    pub fn process_quiescent(&self, proc: ProcId) -> bool {
        self.procs[proc].quiescent()
    }

    /// Fires one planned crash. A fault firing while its target is
    /// already crashed is consumed without effect (in particular its
    /// recovery is *not* scheduled — the earlier crash owns the process
    /// until its own recovery, if any).
    fn crash_proc(&mut self, proc: ProcId, recover_at: Option<u64>) {
        if self.crashed[proc] {
            return;
        }
        self.procs[proc].on_crash();
        self.saved[proc] = self.procs[proc].save_durable();
        self.crashed[proc] = true;
        self.lamport[proc] += 1;
        let clk = self.lamport[proc];
        self.record(TraceKind::Crash, proc as u64, 0, 0, clk);
        if let Some(t) = recover_at {
            // a recovery time already in the past fires immediately
            self.push_event(t.max(self.now), 0, EventKind::Recover { proc });
        }
    }

    /// Bumps `proc`'s handled-event counter and fires any
    /// [`CrashTrigger::AfterEvents`] fault it has now reached.
    fn after_dispatch(&mut self, proc: ProcId) {
        if self.fault_fired.is_empty() {
            return; // no process faults: zero bookkeeping on the hot path
        }
        self.handled[proc] += 1;
        for i in 0..self.cfg.faults.process.len() {
            if self.fault_fired[i] {
                continue;
            }
            let fault = self.cfg.faults.process[i];
            if fault.proc == proc {
                if let CrashTrigger::AfterEvents(k) = fault.trigger {
                    if self.handled[proc] >= k {
                        self.fault_fired[i] = true;
                        self.crash_proc(proc, fault.recover_at);
                    }
                }
            }
        }
    }

    /// Routes one trace record to the active sink. `cause` and `clock`
    /// are the streaming enrichment (send/arm time and the acting
    /// process's Lamport clock); the in-memory log keeps the legacy
    /// 4-field [`TraceEvent`] and the disabled path is still a single
    /// branch on the `Off` discriminant.
    #[inline]
    fn record(&mut self, kind: TraceKind, src: u64, dst: u64, cause: u64, clock: u64) {
        let time = self.now;
        match &mut self.trace {
            TraceSink::Off => {}
            TraceSink::Record(trace) => trace.push(TraceEvent {
                time,
                kind,
                src,
                dst,
            }),
            TraceSink::Stream(obs) => match kind {
                TraceKind::Send => obs.on_send(time, src, dst, clock),
                TraceKind::Deliver => obs.on_deliver(time, src, dst, cause, clock),
                TraceKind::Drop => obs.on_drop(time, src, dst),
                TraceKind::Timer => obs.on_timer(time, src, dst, cause, clock),
                TraceKind::Crash => obs.on_crash(time, src, clock),
                TraceKind::Recover => obs.on_recover(time, src, clock),
                TraceKind::CrashDrop => obs.on_crash_drop(time, src, dst),
            },
        }
    }

    fn push_event(&mut self, time: u64, tie: u64, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.arena.alloc(kind);
        self.queue.push(time, tie, seq, slot);
        // incremental queue length (== self.queue.len()), so the peak
        // tracking costs two register ops instead of a queue traversal;
        // the arena high-water mark is monotone and is read off the
        // arena lazily in `stats()`
        self.queue_len += 1;
        if self.queue_len > self.stats.peak_queue_len {
            self.stats.peak_queue_len = self.queue_len;
        }
    }

    /// Applies the actions a callback buffered in its [`NetCtx`]: timers
    /// first, then sends, each in request order. The context's buffers
    /// are drained in place (capacity retained for the next event).
    fn apply(&mut self, src: ProcId, ctx: &mut NetCtx<M>) {
        let actions = ctx.drain_actions();
        for (delay, timer) in actions.timers {
            self.push_event(
                self.now.saturating_add(delay),
                0,
                EventKind::Timer {
                    proc: src,
                    timer,
                    armed_at: self.now,
                },
            );
        }
        for (dst, msg) in actions.sends {
            self.route(src, dst, msg);
        }
    }

    /// Routes one message: validity check, fault sampling, latency and
    /// scheduler policy, then enqueue (or drop). Dropped payloads are
    /// simply released — a shared multicast payload is never cloned for
    /// a recipient who does not receive it.
    fn route(&mut self, src: ProcId, dst: ProcId, msg: Payload<M>) {
        if dst >= self.procs.len() {
            return; // nonexistent destination: discarded, not counted
        }
        self.stats.messages_sent += 1;
        // a send is a local Lamport event; the clock value rides with the
        // queued delivery so the receiver can take max(local, sender) + 1
        self.lamport[src] += 1;
        let clk = self.lamport[src];
        self.record(TraceKind::Send, src as u64, dst as u64, 0, clk);
        if let Some(p) = &self.cfg.faults.link.partition {
            if p.severs(src, dst, self.now) {
                self.stats.messages_dropped += 1;
                self.record(TraceKind::Drop, src as u64, dst as u64, 0, 0);
                return;
            }
        }
        let drop_prob = self.cfg.faults.link.drop_prob;
        if drop_prob > 0.0 && self.link_rng.random_bool(drop_prob) {
            self.stats.messages_dropped += 1;
            self.record(TraceKind::Drop, src as u64, dst as u64, 0, 0);
            return;
        }
        let latency = self.cfg.latency.sample(&mut self.link_rng);
        let (time, tie) = match &self.cfg.scheduler {
            SchedulerPolicy::Fifo => (self.now.saturating_add(latency), 0),
            SchedulerPolicy::RandomInterleave { jitter, .. } => {
                let extra = if *jitter > 0 {
                    self.sched_rng.random_range(0..=*jitter)
                } else {
                    0
                };
                let tie = self.sched_rng.random::<u64>();
                (self.now.saturating_add(latency).saturating_add(extra), tie)
            }
            SchedulerPolicy::AdversarialRush {
                byzantine,
                honest_delay,
            } => {
                if byzantine.contains(&src) {
                    // rushed: instantaneous, ahead of same-tick honest
                    // deliveries (tie 0 sorts with timers, before any
                    // positive tie)
                    (self.now, 0)
                } else {
                    (
                        self.now
                            .saturating_add(latency)
                            .saturating_add(*honest_delay),
                        1,
                    )
                }
            }
        };
        self.push_event(
            time,
            tie,
            EventKind::Deliver {
                src,
                dst,
                msg,
                sent_at: self.now,
                clk,
            },
        );
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, slot)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time must be monotone");
        self.queue_len -= 1;
        self.dispatch(time, slot);
        true
    }

    /// Dispatches the event in `slot` at virtual time `time` (already
    /// removed from the queue by the caller).
    fn dispatch(&mut self, time: u64, slot: u32) {
        let advanced = time > self.now;
        self.now = time;
        if advanced {
            // a new tick began: the previous wheel bucket fully drained,
            // so sample the queue-depth timeline at this boundary
            if let TraceSink::Stream(obs) = &mut self.trace {
                obs.on_queue_depth(time, self.queue_len);
            }
        }
        self.stats.events_processed += 1;
        let event = self.arena.take(slot);
        let n = self.procs.len();
        let mut ctx = self.scratch.take().unwrap_or_else(|| NetCtx::new(0, n, 0));
        match event {
            EventKind::Deliver {
                src,
                dst,
                msg,
                sent_at,
                clk,
            } => {
                if self.crashed[dst] {
                    // absorbed: the shared payload is released without a clone
                    self.stats.crashed_drops += 1;
                    self.record(TraceKind::CrashDrop, src as u64, dst as u64, 0, 0);
                } else {
                    self.stats.messages_delivered += 1;
                    self.lamport[dst] = self.lamport[dst].max(clk) + 1;
                    let clock = self.lamport[dst];
                    self.record(TraceKind::Deliver, src as u64, dst as u64, sent_at, clock);
                    ctx.reset(dst, n, self.now);
                    // the last live reference moves out without cloning
                    self.procs[dst].on_message(src, msg.into_msg(), &mut ctx);
                    self.note_decision(dst);
                    self.apply(dst, &mut ctx);
                    self.after_dispatch(dst);
                }
            }
            EventKind::Timer {
                proc,
                timer,
                armed_at,
            } => {
                if self.crashed[proc] {
                    self.stats.crashed_drops += 1;
                    self.record(TraceKind::CrashDrop, proc as u64, timer, 0, 0);
                } else {
                    self.stats.timers_fired += 1;
                    self.lamport[proc] += 1;
                    let clock = self.lamport[proc];
                    self.record(TraceKind::Timer, proc as u64, timer, armed_at, clock);
                    ctx.reset(proc, n, self.now);
                    self.procs[proc].on_timer(timer, &mut ctx);
                    self.note_decision(proc);
                    self.apply(proc, &mut ctx);
                    self.after_dispatch(proc);
                }
            }
            EventKind::Crash { fault } => {
                let fault = self.cfg.faults.process[fault];
                self.crash_proc(fault.proc, fault.recover_at);
            }
            EventKind::Recover { proc } => {
                self.lamport[proc] += 1;
                let clock = self.lamport[proc];
                self.record(TraceKind::Recover, proc as u64, 0, 0, clock);
                if self.crashed[proc] {
                    self.crashed[proc] = false;
                    self.stats.recoveries[proc] += 1;
                    if let Some(state) = self.saved[proc].take() {
                        self.procs[proc].restore_durable(&state);
                    }
                    ctx.reset(proc, n, self.now);
                    if self.started[proc] {
                        self.procs[proc].on_recover(&mut ctx);
                    } else {
                        // crashed before it ever initialized: recovery
                        // is a (late) boot, not a resume
                        self.started[proc] = true;
                        self.procs[proc].on_start(&mut ctx);
                    }
                    self.note_decision(proc);
                    self.apply(proc, &mut ctx);
                }
            }
        }
        self.scratch = Some(ctx);
    }

    /// Runs until the event queue drains or `max_events` have been
    /// processed; returns `true` if the queue drained.
    pub fn run(&mut self, max_events: usize) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.queue.is_empty()
    }

    // -----------------------------------------------------------------
    // The model-checker surface: enabled-set enumeration, out-of-order
    // dispatch, crash injection and undoable steps
    // -----------------------------------------------------------------

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue_len
    }

    /// Every pending queue event, decoded and sorted by the
    /// `(time, tie, seq)` total order — the model checker's choice set.
    /// `step()` always dispatches the first entry; [`Self::step_chosen`]
    /// dispatches any of them.
    pub fn enabled_events(&self) -> Vec<EnabledEvent> {
        self.queue
            .keys()
            .into_iter()
            .map(|key| self.enabled(key))
            .collect()
    }

    /// Decodes one queued `(time, tie, seq, slot)` key.
    #[inline]
    fn enabled(&self, (time, tie, seq, slot): (u64, u64, u64, u32)) -> EnabledEvent {
        let kind = match self.arena.peek(slot) {
            EventKind::Deliver { src, dst, .. } => EnabledKind::Deliver {
                src: *src,
                dst: *dst,
            },
            EventKind::Timer { proc, timer, .. } => EnabledKind::Timer {
                proc: *proc,
                timer: *timer,
            },
            EventKind::Crash { fault } => EnabledKind::Crash {
                proc: self.cfg.faults.process[*fault].proc,
            },
            EventKind::Recover { proc } => EnabledKind::Recover { proc: *proc },
        };
        EnabledEvent {
            time,
            tie,
            seq,
            slot,
            kind,
        }
    }

    /// Borrows the message payload of a pending [`EnabledKind::Deliver`]
    /// event (`None` for timers and lifecycle events) — the read-only
    /// view state fingerprinting uses.
    pub fn event_msg(&self, ev: &EnabledEvent) -> Option<&M> {
        match self.arena.peek(ev.slot) {
            EventKind::Deliver { msg, .. } => Some(msg.as_msg()),
            _ => None,
        }
    }

    /// Whether a pending delivery or timer would be absorbed by its
    /// (live) target as a permanent behavioral no-op
    /// ([`AsyncProcess::absorbs`] / [`AsyncProcess::timer_absorbed`]);
    /// `false` for other events.
    pub fn event_absorbed(&self, ev: &EnabledEvent) -> bool {
        match self.arena.peek(ev.slot) {
            EventKind::Deliver { src, dst, msg, .. } => {
                self.procs[*dst].absorbs(*src, msg.as_msg())
            }
            EventKind::Timer { proc, timer, .. } => self.procs[*proc].timer_absorbed(*timer),
            _ => false,
        }
    }

    /// Dispatches one specific pending event, ignoring the queue order —
    /// the model checker's transition relation. The event's virtual time
    /// is clamped to `max(now, event time)` so time stays monotone even
    /// when a later-scheduled event is chosen first. Returns `false` if
    /// `ev` is not (or no longer) pending.
    ///
    /// Only views from [`Self::enabled_events`] on *this* net should be
    /// passed in.
    pub fn step_chosen(&mut self, ev: &EnabledEvent) -> bool {
        if self
            .queue
            .remove(ev.time, ev.tie, ev.seq, ev.slot)
            .is_none()
        {
            return false;
        }
        self.queue_len -= 1;
        self.dispatch(ev.time.max(self.now), ev.slot);
        true
    }

    /// Crashes `proc` immediately, crash-stop style (no scheduled
    /// recovery): the model checker's crash-choice hook, letting the
    /// explorer place a crash *anywhere* in the schedule instead of at a
    /// preplanned trigger. Production runs should keep using
    /// [`crate::FaultPlan`]. A no-op if `proc` is already crashed.
    pub fn inject_crash(&mut self, proc: ProcId) {
        assert!(proc < self.procs.len(), "inject_crash: no such process");
        self.crash_proc(proc, None);
    }

    /// Whether [`Self::step_undoable`] and [`Self::inject_crash_undoable`]
    /// can run: every process implements [`AsyncProcess::fork`], and no
    /// streaming observer is attached (an observer cannot take back the
    /// callbacks of an undone step; the in-memory trace log can).
    pub fn can_undo(&self) -> bool {
        !matches!(self.trace, TraceSink::Stream(_)) && self.procs.iter().all(|p| p.fork().is_some())
    }

    /// [`Self::step_chosen`] that also returns what the step changed, so
    /// that [`Self::undo`] can take it back — the model checker's
    /// transition and backtracking step. The step itself runs the same
    /// dispatch code as [`Self::step`]; the record costs one
    /// [`AsyncProcess::fork`] of the target (none when the target is
    /// crashed and the event is absorbed) plus a copy of the dispatched
    /// event. Returns `None` if `ev` is not pending.
    ///
    /// # Panics
    ///
    /// If the target process does not implement `fork`.
    pub fn step_undoable(&mut self, ev: &EnabledEvent) -> Option<Undo<M>> {
        let pos = self.queue.remove(ev.time, ev.tie, ev.seq, ev.slot)?;
        let target = ev.kind.target();
        let reached = match ev.kind {
            EnabledKind::Recover { .. } => self.crashed[target],
            _ => !self.crashed[target],
        };
        let mut undo = self.checkpoint(target, reached);
        undo.removed = Some(Removed {
            key: (ev.time, ev.tie, ev.seq, ev.slot),
            pos,
            event: self.arena.peek(ev.slot).clone(),
        });
        self.queue_len -= 1;
        self.dispatch(ev.time.max(self.now), ev.slot);
        undo.created = self
            .queue
            .keys_since(undo.next_seq)
            .into_iter()
            .map(|key| self.enabled(key))
            .collect();
        Some(undo)
    }

    /// [`Self::inject_crash`] that also returns what the crash changed,
    /// for [`Self::undo`].
    ///
    /// # Panics
    ///
    /// If `proc` does not exist or does not implement `fork`.
    pub fn inject_crash_undoable(&mut self, proc: ProcId) -> Undo<M> {
        assert!(proc < self.procs.len(), "inject_crash: no such process");
        let undo = self.checkpoint(proc, !self.crashed[proc]);
        // an injected crash schedules no recovery, so it creates no event
        self.crash_proc(proc, None);
        undo
    }

    /// Takes back the most recent undoable step: afterwards the net is
    /// exactly as it was before it — processes, pending events with their
    /// `(time, tie, seq)` keys and payloads, decisions and their times,
    /// Lamport clocks, statistics, RNG streams and the recorded trace.
    /// Steps must be undone newest first, with no other step taken in
    /// between.
    pub fn undo(&mut self, undo: Undo<M>) {
        let t = undo.target;
        if let Some((proc, saved)) = undo.proc {
            self.procs[t] = proc;
            self.saved[t] = saved;
        }
        self.crashed[t] = undo.marks.crashed;
        self.handled[t] = undo.marks.handled;
        self.started[t] = undo.marks.started;
        self.lamport[t] = undo.marks.lamport;
        self.decision_times[t] = undo.marks.decision_time;
        self.fault_fired = undo.fault_fired;
        self.queue.drop_since(undo.next_seq);
        for ev in undo.created.iter().rev() {
            self.arena.unalloc(ev.slot, undo.arena_slots);
        }
        if let Some(Removed { key, pos, event }) = undo.removed {
            let (time, tie, seq, slot) = key;
            self.arena.untake(slot, event);
            self.queue.reinsert(time, tie, seq, slot, pos);
        }
        self.stats = undo.stats;
        self.now = undo.now;
        self.next_seq = undo.next_seq;
        self.queue_len = undo.queue_len;
        self.link_rng = undo.link_rng;
        self.sched_rng = undo.sched_rng;
        if let TraceSink::Record(trace) = &mut self.trace {
            trace.truncate(undo.trace_len);
        }
    }

    /// Records everything a step acting on `target` can change, and, if
    /// the step will run the target's code (`reached`), swaps a fork in
    /// for the target so the original can be put back.
    fn checkpoint(&mut self, target: ProcId, reached: bool) -> Undo<M> {
        let proc = reached.then(|| {
            let fork = self.procs[target]
                .fork()
                .expect("undoable steps need processes that implement fork()");
            // a live target holds no durable copy; a recovering one's is
            // consumed by the step
            let saved = self.saved[target].clone();
            (std::mem::replace(&mut self.procs[target], fork), saved)
        });
        let marks = ProcMarks {
            crashed: self.crashed[target],
            handled: self.handled[target],
            started: self.started[target],
            lamport: self.lamport[target],
            decision_time: self.decision_times[target],
        };
        Undo {
            target,
            proc,
            removed: None,
            created: Vec::new(),
            marks,
            fault_fired: self.fault_fired.clone(),
            stats: self.stats.clone(),
            now: self.now,
            next_seq: self.next_seq,
            queue_len: self.queue_len,
            arena_slots: self.arena.high_water(),
            link_rng: self.link_rng.clone(),
            sched_rng: self.sched_rng.clone(),
            trace_len: self.trace().len(),
        }
    }
}

/// What one [`EventNet::step_undoable`] or
/// [`EventNet::inject_crash_undoable`] changed, consumed by
/// [`EventNet::undo`]. A step acts on one process (its target): it may
/// run that process's code, remove the dispatched event, create new
/// events, and move the net-wide counters and clocks. The record holds
/// exactly that — the target's pre-step process, the removed event, the
/// created events and the scalars — so an undo costs what the step
/// changed, not the size of the net.
#[must_use = "a step is only taken back by passing its record to EventNet::undo"]
pub struct Undo<M: Clone> {
    target: ProcId,
    /// The target's pre-step process and durable copy, when the step ran
    /// the target's code.
    proc: Option<(Box<dyn AsyncProcess<Msg = M>>, Option<DurableState>)>,
    /// The dispatched event (`None` for an injected crash).
    removed: Option<Removed<M>>,
    /// The events the step created, in creation order.
    created: Vec<EnabledEvent>,
    marks: ProcMarks,
    fault_fired: Vec<bool>,
    stats: NetStats,
    now: u64,
    next_seq: u64,
    queue_len: usize,
    arena_slots: usize,
    link_rng: StdRng,
    sched_rng: StdRng,
    trace_len: usize,
}

impl<M: Clone> Undo<M> {
    /// The process the step acted on.
    pub fn target(&self) -> ProcId {
        self.target
    }

    /// Whether the step ran the target's code, and so may have changed
    /// its [`AsyncProcess::state_words`]. False for an event absorbed by
    /// a crashed target: such a step leaves every process as it was.
    pub fn reached_process(&self) -> bool {
        self.proc.is_some()
    }

    /// The events the step created (sends and timers of the handler, a
    /// planned recovery), in creation order. Their `seq`s exceed that of
    /// every event pending before the step.
    pub fn created(&self) -> &[EnabledEvent] {
        &self.created
    }
}

/// A dispatched event as [`EventNet::undo`] puts it back: its queue key,
/// its position in its bucket, and its payload.
struct Removed<M> {
    key: (u64, u64, u64, u32),
    pos: usize,
    event: EventKind<M>,
}

/// The per-process fields of a step's target before the step.
struct ProcMarks {
    crashed: bool,
    handled: u64,
    started: bool,
    lamport: u64,
    decision_time: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FaultPlan, LatencyModel, LinkFaults, Partition};

    /// Echoes every received message back to its sender, once.
    struct Echo {
        got: Vec<(ProcId, u64)>,
        decided: Option<u64>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                got: Vec::new(),
                decided: None,
            }
        }
    }

    impl AsyncProcess for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
            if ctx.id() == 0 {
                for d in 1..ctx.n() {
                    ctx.send(d, d as u64 * 10);
                }
            }
        }
        fn on_message(&mut self, src: ProcId, msg: u64, ctx: &mut NetCtx<u64>) {
            self.got.push((src, msg));
            if ctx.id() != 0 {
                ctx.send(src, msg + 1);
            }
            self.decided = Some(msg);
        }
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    fn echo_net(cfg: NetConfig, n: usize) -> EventNet<u64> {
        let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> =
            (0..n).map(|_| Box::new(Echo::new()) as _).collect();
        EventNet::new(procs, cfg)
    }

    #[test]
    fn fifo_zero_latency_echo_round_trip() {
        let mut net = echo_net(NetConfig::lockstep(0), 4);
        assert!(net.run(1_000));
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 6); // 3 out + 3 echoes
        assert_eq!(stats.messages_delivered, 6);
        assert_eq!(stats.messages_dropped, 0);
        assert_eq!(net.decisions()[0], Some(31)); // last echo processed: 30 + 1
    }

    #[test]
    fn traces_are_deterministic_and_replayable() {
        let cfg = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 9 },
            scheduler: SchedulerPolicy::RandomInterleave { seed: 3, jitter: 4 },
            faults: LinkFaults::lossy(0.2).into(),
            ..NetConfig::lockstep(77)
        }
        .with_trace();
        let mut a = echo_net(cfg.clone(), 5);
        let mut b = echo_net(cfg, 5);
        assert!(a.run(10_000));
        assert!(b.run(10_000));
        assert!(!a.trace().is_empty());
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.decisions(), b.decisions());
    }

    #[test]
    fn different_scheduler_seeds_change_the_trace() {
        let cfg = |seed| {
            NetConfig {
                latency: LatencyModel::Constant(2),
                scheduler: SchedulerPolicy::RandomInterleave { seed, jitter: 6 },
                ..NetConfig::lockstep(1)
            }
            .with_trace()
        };
        let mut a = echo_net(cfg(1), 6);
        let mut b = echo_net(cfg(2), 6);
        assert!(a.run(10_000));
        assert!(b.run(10_000));
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn partition_drops_cross_cut_messages_until_heal() {
        // process 0 is cut off from everyone until tick 100; all its
        // initial sends at time 0 die, so nothing ever echoes back.
        let cfg = NetConfig {
            faults: LinkFaults {
                drop_prob: 0.0,
                partition: Some(Partition::until([0usize].into_iter().collect(), 100)),
            }
            .into(),
            ..NetConfig::lockstep(0)
        };
        let mut net = echo_net(cfg, 4);
        assert!(net.run(1_000));
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 3);
        assert_eq!(stats.messages_dropped, 3);
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(net.decisions(), vec![None; 4]);
    }

    #[test]
    fn rushing_scheduler_delivers_byzantine_first() {
        /// Records global arrival order at process 2.
        struct Recorder {
            order: Vec<ProcId>,
        }
        impl AsyncProcess for Recorder {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
                // both 0 (honest) and 1 (byzantine) send to 2 at time 0;
                // 0's send is buffered first
                if ctx.id() < 2 {
                    ctx.send(2, ctx.id() as u64);
                }
            }
            fn on_message(&mut self, src: ProcId, _msg: u64, _ctx: &mut NetCtx<u64>) {
                self.order.push(src);
            }
            fn decision(&self) -> Option<u64> {
                self.order.first().map(|&p| p as u64)
            }
        }
        let cfg = NetConfig {
            scheduler: SchedulerPolicy::AdversarialRush {
                byzantine: [1usize].into_iter().collect(),
                honest_delay: 5,
            },
            ..NetConfig::lockstep(0)
        };
        let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> = (0..3)
            .map(|_| Box::new(Recorder { order: Vec::new() }) as _)
            .collect();
        let mut net = EventNet::new(procs, cfg);
        assert!(net.run(100));
        // the byzantine message from 1 arrives before the honest one from 0
        assert_eq!(net.decisions()[2], Some(1));
    }

    #[test]
    fn multicast_matches_per_recipient_sends() {
        /// Process 0 fans one message out to everyone else, either via
        /// `multicast` or via a per-recipient `send` loop.
        struct Caster {
            use_multicast: bool,
            sum: u64,
        }
        impl AsyncProcess for Caster {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
                if ctx.id() == 0 {
                    if self.use_multicast {
                        ctx.multicast(1..ctx.n(), 7);
                    } else {
                        for d in 1..ctx.n() {
                            ctx.send(d, 7);
                        }
                    }
                }
            }
            fn on_message(&mut self, src: ProcId, msg: u64, _ctx: &mut NetCtx<u64>) {
                self.sum += msg + src as u64;
            }
            fn decision(&self) -> Option<u64> {
                Some(self.sum)
            }
        }
        let run = |use_multicast: bool| {
            let cfg = NetConfig {
                latency: LatencyModel::UniformJitter { min: 0, max: 4 },
                scheduler: crate::model::SchedulerPolicy::RandomInterleave { seed: 9, jitter: 2 },
                faults: LinkFaults::lossy(0.25).into(),
                ..NetConfig::lockstep(44)
            }
            .with_trace();
            let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> = (0..6)
                .map(|_| {
                    Box::new(Caster {
                        use_multicast,
                        sum: 0,
                    }) as _
                })
                .collect();
            let mut net = EventNet::new(procs, cfg);
            assert!(net.run(10_000));
            (net.trace().to_vec(), net.stats(), net.decisions())
        };
        // identical traces, stats and decisions: only the allocation
        // profile differs between the two fan-out styles
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn multicast_payload_is_cloned_lazily() {
        use std::cell::Cell;

        /// A payload that counts how many times it is cloned.
        #[derive(Debug)]
        struct Counted {
            clones: Rc<Cell<usize>>,
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.clones.set(self.clones.get() + 1);
                Counted {
                    clones: Rc::clone(&self.clones),
                }
            }
        }
        struct Fan {
            clones: Rc<Cell<usize>>,
            got: usize,
        }
        impl AsyncProcess for Fan {
            type Msg = Counted;
            fn on_start(&mut self, ctx: &mut NetCtx<Counted>) {
                if ctx.id() == 0 {
                    let msg = Counted {
                        clones: Rc::clone(&self.clones),
                    };
                    ctx.multicast(1..ctx.n(), msg);
                }
            }
            fn on_message(&mut self, _s: ProcId, _m: Counted, _c: &mut NetCtx<Counted>) {
                self.got += 1;
            }
            fn decision(&self) -> Option<u64> {
                Some(self.got as u64)
            }
        }
        let n = 8;
        let run = |cfg: NetConfig| {
            let clones = Rc::new(Cell::new(0));
            let procs: Vec<Box<dyn AsyncProcess<Msg = Counted>>> = (0..n)
                .map(|_| {
                    Box::new(Fan {
                        clones: Rc::clone(&clones),
                        got: 0,
                    }) as _
                })
                .collect();
            let mut net = EventNet::new(procs, cfg);
            assert!(net.run(10_000));
            (clones.get(), net.stats())
        };
        // all delivered: n - 1 recipients share one payload; the last
        // delivery moves it out, so only n - 2 clones happen
        let (clones, stats) = run(NetConfig::lockstep(0));
        assert_eq!(stats.messages_delivered, n - 1);
        assert_eq!(clones, n - 2);
        // everything dropped by a partition: zero clones ever
        let (clones, stats) = run(NetConfig {
            faults: LinkFaults {
                drop_prob: 0.0,
                partition: Some(Partition::until([0usize].into_iter().collect(), 100)),
            }
            .into(),
            ..NetConfig::lockstep(0)
        });
        assert_eq!(stats.messages_dropped, n - 1);
        assert_eq!(clones, 0);
    }

    #[test]
    fn messages_to_invalid_destinations_are_discarded_uncounted() {
        struct Bad;
        impl AsyncProcess for Bad {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
                ctx.send(99, 1);
            }
            fn on_message(&mut self, _s: ProcId, _m: u64, _c: &mut NetCtx<u64>) {}
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let mut net = EventNet::new(
            vec![Box::new(Bad) as Box<dyn AsyncProcess<Msg = u64>>],
            NetConfig::lockstep(0),
        );
        assert!(net.run(10));
        assert_eq!(net.stats().messages_sent, 0);
    }

    /// A process that arms one far-future timer chain — each hop longer
    /// than the wheel horizon — to exercise the overflow path.
    struct LongTimer {
        hops: u64,
        fired: Vec<u64>,
    }
    impl AsyncProcess for LongTimer {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
            // several timers straddling the horizon in one batch, armed
            // out of target-time order
            ctx.set_timer(5_000, 1);
            ctx.set_timer(3, 2);
            ctx.set_timer(70_000, 3);
            ctx.set_timer(1_500, 4);
        }
        fn on_message(&mut self, _s: ProcId, _m: u64, _c: &mut NetCtx<u64>) {}
        fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<u64>) {
            self.fired.push(timer);
            if timer == 3 && self.hops > 0 {
                self.hops -= 1;
                ctx.set_timer(10_000, 3); // keep hopping past the horizon
            }
        }
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn far_future_timers_cross_the_wheel_horizon_in_order() {
        for queue in [QueueImpl::Wheel, QueueImpl::Heap] {
            let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> = vec![Box::new(LongTimer {
                hops: 3,
                fired: Vec::new(),
            })];
            let mut net = EventNet::new(procs, NetConfig::lockstep(0).with_queue(queue));
            assert!(net.run(1_000), "{queue:?} must drain");
            assert_eq!(net.now(), 70_000 + 3 * 10_000);
            assert_eq!(net.stats().events_processed, 4 + 3);
        }
    }

    #[test]
    fn wheel_and_heap_produce_identical_executions() {
        let cfg = |queue| {
            NetConfig {
                latency: LatencyModel::UniformJitter { min: 0, max: 9 },
                scheduler: SchedulerPolicy::RandomInterleave { seed: 3, jitter: 4 },
                faults: LinkFaults::lossy(0.2).into(),
                ..NetConfig::lockstep(77)
            }
            .with_trace()
            .with_queue(queue)
        };
        let mut wheel = echo_net(cfg(QueueImpl::Wheel), 6);
        let mut heap = echo_net(cfg(QueueImpl::Heap), 6);
        assert!(wheel.run(10_000));
        assert!(heap.run(10_000));
        assert!(!wheel.trace().is_empty());
        assert_eq!(wheel.trace(), heap.trace());
        assert_eq!(wheel.stats(), heap.stats());
        assert_eq!(wheel.decisions(), heap.decisions());
    }

    #[test]
    fn work_counters_track_queue_and_arena_peaks() {
        let mut net = echo_net(NetConfig::lockstep(0), 5);
        assert!(net.run(1_000));
        let stats = net.stats();
        // 4 initial sends queue up before anything is processed
        assert_eq!(stats.peak_queue_len, 4);
        // slots are recycled: the arena never grows past the peak
        assert_eq!(stats.arena_high_water, 4);
        assert_eq!(stats.events_processed, 8);
    }

    #[test]
    fn crash_at_start_suppresses_on_start_and_absorbs_deliveries() {
        // process 1 never runs: no echo back, and the delivery addressed
        // to it is absorbed as a crashed drop rather than delivered
        let cfg = NetConfig {
            faults: FaultPlan::none().crash_at_start(1),
            ..NetConfig::lockstep(0)
        }
        .with_trace();
        let mut net = echo_net(cfg, 4);
        assert!(net.run(1_000));
        assert!(net.is_crashed(1));
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 3 + 2); // 3 out, 2 echoes
        assert_eq!(stats.messages_delivered, 4);
        assert_eq!(stats.crashed_drops, 1);
        assert_eq!(stats.recoveries, vec![0; 4]);
        assert_eq!(net.decisions()[1], None);
        assert_eq!(
            net.trace()[0],
            TraceEvent {
                time: 0,
                kind: TraceKind::Crash,
                src: 1,
                dst: 0
            }
        );
        assert!(net
            .trace()
            .iter()
            .any(|e| e.kind == TraceKind::CrashDrop && e.dst == 1));
    }

    #[test]
    fn crash_after_k_events_halts_mid_execution() {
        // Echo process 0 handles 3 deliveries (the echoes); crash it
        // after the first, so the remaining two are absorbed.
        let cfg = NetConfig {
            faults: FaultPlan::none().crash(0, 1),
            ..NetConfig::lockstep(0)
        };
        let mut net = echo_net(cfg, 4);
        assert!(net.run(1_000));
        assert!(net.is_crashed(0));
        let stats = net.stats();
        assert_eq!(stats.messages_delivered, 4); // 3 pings + 1 echo
        assert_eq!(stats.crashed_drops, 2);
    }

    #[test]
    fn crash_after_infinite_events_is_bit_identical_to_fault_free() {
        let base = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 9 },
            scheduler: SchedulerPolicy::RandomInterleave { seed: 3, jitter: 4 },
            faults: LinkFaults::lossy(0.2).into(),
            ..NetConfig::lockstep(77)
        }
        .with_trace();
        let planned = NetConfig {
            faults: FaultPlan::lossy(0.2).crash(2, u64::MAX),
            ..base.clone()
        };
        let mut a = echo_net(base, 5);
        let mut b = echo_net(planned, 5);
        assert!(a.run(10_000));
        assert!(b.run(10_000));
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.decision_times(), b.decision_times());
    }

    /// A process with explicit durable state: it accumulates every
    /// received value into `volatile`, decides the durable checkpoint, and
    /// checkpoints on crash.
    struct Checkpointed {
        volatile: u64,
        checkpoint: Option<u64>,
        recoveries: u64,
    }
    impl AsyncProcess for Checkpointed {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
            if ctx.id() == 0 {
                ctx.send(1, 5);
                ctx.send(1, 6);
            }
        }
        fn on_message(&mut self, _src: ProcId, msg: u64, _ctx: &mut NetCtx<u64>) {
            self.volatile += msg;
        }
        fn on_crash(&mut self) {
            self.checkpoint = Some(self.volatile);
        }
        fn on_recover(&mut self, ctx: &mut NetCtx<u64>) {
            self.recoveries += 1;
            ctx.set_timer(1, 9); // recovered processes may re-arm timers
        }
        fn on_timer(&mut self, timer: u64, _ctx: &mut NetCtx<u64>) {
            self.volatile += timer;
        }
        fn save_durable(&self) -> Option<DurableState> {
            let mut st = DurableState::new();
            st.push(self.checkpoint.unwrap_or(0));
            Some(st)
        }
        fn restore_durable(&mut self, state: &DurableState) {
            // volatile state is lost; only the checkpoint survives
            self.volatile = state.get(0).expect("checkpoint word");
        }
        fn decision(&self) -> Option<u64> {
            self.checkpoint
        }
    }

    #[test]
    fn recovery_restores_durable_state_and_runs_on_recover() {
        // process 1 receives 5 (volatile = 5), crashes at time 2 (its
        // second delivery of 6 arrives at time 1... with constant latency
        // both arrive at time 0, so crash AfterEvents(1) instead:
        // checkpoint = 5, the second delivery is absorbed, recovery at
        // time 10 restores volatile = 5 and fires the re-armed timer.
        let cfg = NetConfig {
            faults: FaultPlan::none().crash(1, 1).recover_at(10),
            ..NetConfig::lockstep(0)
        }
        .with_trace();
        let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> = (0..2)
            .map(|_| {
                Box::new(Checkpointed {
                    volatile: 0,
                    checkpoint: None,
                    recoveries: 0,
                }) as _
            })
            .collect();
        let mut net = EventNet::new(procs, cfg);
        assert!(net.run(1_000));
        assert!(!net.is_crashed(1));
        let stats = net.stats();
        assert_eq!(stats.crashed_drops, 1, "the second delivery is absorbed");
        assert_eq!(stats.recoveries, vec![0, 1]);
        assert_eq!(net.decisions()[1], Some(5), "checkpoint survives");
        assert!(net
            .trace()
            .iter()
            .any(|e| e.kind == TraceKind::Recover && e.src == 1 && e.time == 10));
        // the re-armed timer fired at recovery + 1
        assert!(net
            .trace()
            .iter()
            .any(|e| e.kind == TraceKind::Timer && e.src == 1 && e.time == 11));
    }

    #[test]
    fn timed_crash_window_suspends_and_resumes_without_durable_loss() {
        // Echo keeps all in-memory state across the window (default
        // suspend/resume semantics): the crash only absorbs what fires
        // inside [2, 4).
        let cfg = |faults: FaultPlan| NetConfig {
            latency: LatencyModel::Constant(2),
            faults,
            ..NetConfig::lockstep(0)
        };
        let mut healthy = echo_net(cfg(FaultPlan::none()), 3);
        let mut windowed = echo_net(cfg(FaultPlan::none().crash_at(1, 2).recover_at(4)), 3);
        assert!(healthy.run(1_000));
        assert!(windowed.run(1_000));
        // the ping to 1 (arriving at time 2, exactly when the crash
        // fires) is absorbed, so 1 never echoes and never decides
        assert_eq!(healthy.decisions()[1], Some(10));
        assert_eq!(windowed.decisions()[1], None);
        assert_eq!(windowed.stats().crashed_drops, 1);
        assert_eq!(windowed.stats().recoveries, vec![0, 1, 0]);
    }

    #[test]
    fn crash_plans_are_bit_identical_across_queue_impls() {
        let cfg = |queue| {
            NetConfig {
                latency: LatencyModel::UniformJitter { min: 0, max: 9 },
                scheduler: SchedulerPolicy::RandomInterleave { seed: 3, jitter: 4 },
                faults: FaultPlan::lossy(0.1)
                    .crash(0, 2)
                    .recover_at(12)
                    .crash_at(3, 7)
                    .crash_at_start(4),
                ..NetConfig::lockstep(77)
            }
            .with_trace()
            .with_queue(queue)
        };
        let mut wheel = echo_net(cfg(QueueImpl::Wheel), 6);
        let mut heap = echo_net(cfg(QueueImpl::Heap), 6);
        assert!(wheel.run(10_000));
        assert!(heap.run(10_000));
        assert!(!wheel.trace().is_empty());
        assert_eq!(wheel.trace(), heap.trace());
        assert_eq!(wheel.stats(), heap.stats());
        assert_eq!(wheel.decisions(), heap.decisions());
    }

    #[test]
    #[should_panic(expected = "fault plan names process")]
    fn fault_plans_naming_unknown_processes_panic() {
        let cfg = NetConfig {
            faults: FaultPlan::none().crash(9, 1),
            ..NetConfig::lockstep(0)
        };
        let _ = echo_net(cfg, 3);
    }
}
