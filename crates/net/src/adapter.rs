//! Running unchanged round-based [`Process`] implementations on the
//! event-driven runtime.
//!
//! A [`RoundAdapter`] drives its inner process with a timer every
//! [`NetConfig::round_ticks`] virtual ticks: whatever messages arrived
//! since the previous boundary form the round's inbox (stably sorted by
//! sender, like [`SyncNetwork`]), and the round's output messages are
//! handed to the network, which applies latency, scheduling and faults.
//!
//! Under [`NetConfig::lockstep`] (zero latency, FIFO, no faults) this is
//! **bit-identical** to running the same processes on [`SyncNetwork`]:
//! every message sent at boundary `r` is delivered within tick `r` and
//! consumed at boundary `r + 1`, timers fire in process-id order, and
//! inboxes end up in the same sender-sorted order. The property tests in
//! `tests/tests/net_runtime.rs` assert this for OM and phase king across
//! generated `(n, t, seed)` grids; the `net_engine` bench asserts it again
//! before timing anything.
//!
//! With nonzero latency the same protocols become *timing-stressed*: a
//! message that takes longer than a round simply lands in a later round's
//! inbox, which is how the async experiments measure synchronous-protocol
//! degradation under asynchrony.
//!
//! # Examples
//!
//! A round-based [`Process`] runs unchanged on both runtimes, and under
//! [`NetConfig::lockstep`] the outcomes coincide exactly:
//!
//! ```
//! use bne_byzantine::{ProcId, Process, SyncNetwork};
//! use bne_net::{run_round_protocol, NetConfig};
//!
//! /// Every process broadcasts its id in round 0 and decides the sum of
//! /// what it heard in round 1.
//! struct SumIds {
//!     id: ProcId,
//!     n: usize,
//!     sum: Option<u64>,
//! }
//!
//! impl Process for SumIds {
//!     type Msg = u64;
//!     fn init(&mut self, id: ProcId, n: usize) {
//!         self.id = id;
//!         self.n = n;
//!     }
//!     fn round(&mut self, round: usize, inbox: &[(ProcId, u64)]) -> Vec<(ProcId, u64)> {
//!         if round == 0 {
//!             (0..self.n).filter(|&d| d != self.id).map(|d| (d, self.id as u64)).collect()
//!         } else {
//!             self.sum = Some(inbox.iter().map(|(_, v)| v).sum());
//!             Vec::new()
//!         }
//!     }
//!     fn decision(&self) -> Option<u64> {
//!         self.sum
//!     }
//! }
//!
//! let make = || -> Vec<Box<dyn Process<Msg = u64>>> {
//!     (0..4).map(|_| Box::new(SumIds { id: 0, n: 0, sum: None }) as _).collect()
//! };
//! let mut sync = SyncNetwork::new(make());
//! sync.run(2);
//! let async_out = run_round_protocol(make(), 2, NetConfig::lockstep(0));
//! assert_eq!(async_out.decisions, sync.decisions());
//! assert_eq!(async_out.round_stats(), sync.stats());
//! assert_eq!(async_out.decisions[0], Some(1 + 2 + 3));
//! ```
//!
//! [`SyncNetwork`]: bne_byzantine::SyncNetwork

use crate::model::NetConfig;
use crate::runtime::{AsyncProcess, EventNet, NetCtx, NetStats};
use bne_byzantine::{ProcId, Process, RoundStats};

/// Adapts a round-based [`Process`] to the [`AsyncProcess`] interface.
pub struct RoundAdapter<M: Clone> {
    inner: Box<dyn Process<Msg = M>>,
    max_rounds: usize,
    round_ticks: u64,
    round: usize,
    inbox: Vec<(ProcId, M)>,
}

impl<M: Clone> RoundAdapter<M> {
    /// Wraps `inner`, which will execute exactly `max_rounds` rounds, one
    /// every `round_ticks` virtual ticks (use the same value as
    /// [`NetConfig::round_ticks`]).
    pub fn new(inner: Box<dyn Process<Msg = M>>, max_rounds: usize, round_ticks: u64) -> Self {
        RoundAdapter {
            inner,
            max_rounds,
            round_ticks,
            round: 0,
            inbox: Vec::new(),
        }
    }
}

impl<M: Clone> AsyncProcess for RoundAdapter<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut NetCtx<M>) {
        self.inner.init(ctx.id(), ctx.n());
        if self.max_rounds > 0 {
            // round 0 fires at time 0, after every process has started
            ctx.set_timer(0, 0);
        }
    }

    fn on_message(&mut self, src: ProcId, msg: M, _ctx: &mut NetCtx<M>) {
        // buffered until the next round boundary; messages arriving after
        // the final round are absorbed and ignored
        self.inbox.push((src, msg));
    }

    fn on_timer(&mut self, _timer: u64, ctx: &mut NetCtx<M>) {
        if self.round >= self.max_rounds {
            return;
        }
        // deterministic delivery order, matching SyncNetwork's per-round
        // sender sort (stable: ties keep arrival order); the buffer is
        // sorted and drained in place so its capacity survives the round
        self.inbox.sort_by_key(|(sender, _)| *sender);
        let out = self.inner.round(self.round, &self.inbox);
        self.inbox.clear();
        for (dst, msg) in out {
            ctx.send(dst, msg);
        }
        self.round += 1;
        if self.round < self.max_rounds {
            ctx.set_timer(self.round_ticks, 0);
        }
    }

    fn decision(&self) -> Option<u64> {
        self.inner.decision()
    }
}

/// The outcome of [`run_round_protocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncRunOutcome {
    /// Decision of every process (in process-id order).
    pub decisions: Vec<Option<u64>>,
    /// Network-level statistics.
    pub stats: NetStats,
    /// Protocol rounds executed by every adapter.
    pub rounds: usize,
}

impl AsyncRunOutcome {
    /// The subset of statistics comparable with a [`SyncNetwork`] run.
    ///
    /// [`SyncNetwork`]: bne_byzantine::SyncNetwork
    pub fn round_stats(&self) -> RoundStats {
        RoundStats {
            messages_sent: self.stats.messages_sent,
            rounds: self.rounds,
        }
    }
}

/// Runs a round-based protocol for exactly `rounds` rounds on the async
/// runtime under `cfg`, mirroring [`SyncNetwork::run`].
///
/// # Panics
///
/// Panics if the event queue fails to drain within a generous bound
/// (which would indicate a runaway process, not a scheduling artifact).
///
/// [`SyncNetwork::run`]: bne_byzantine::SyncNetwork::run
pub fn run_round_protocol<M: Clone + 'static>(
    processes: Vec<Box<dyn Process<Msg = M>>>,
    rounds: usize,
    cfg: NetConfig,
) -> AsyncRunOutcome {
    let round_ticks = cfg.round_ticks;
    let adapters: Vec<Box<dyn AsyncProcess<Msg = M>>> = processes
        .into_iter()
        .map(|p| Box::new(RoundAdapter::new(p, rounds, round_ticks)) as _)
        .collect();
    let mut net = EventNet::new(adapters, cfg);
    // round-based protocols always drain (timers stop at max_rounds);
    // the cap only guards against a runaway process
    const EVENT_CAP: usize = 100_000_000;
    let drained = net.run(EVENT_CAP);
    assert!(
        drained,
        "event queue did not drain within {EVENT_CAP} events"
    );
    AsyncRunOutcome {
        decisions: net.decisions(),
        stats: net.stats(),
        rounds,
    }
}
