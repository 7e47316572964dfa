//! # bne-net
//!
//! A deterministic, seeded **discrete-event network runtime** — the
//! asynchronous execution layer under everything round-based in the
//! workspace.
//!
//! The paper's thesis is that solution concepts must survive the
//! realities of distributed computing, so the round-based protocols of
//! `bne-byzantine`, written for the lockstep
//! [`bne_byzantine::SyncNetwork`], also run here, under the
//! message-passing model that dominates practice:
//!
//! * [`runtime`] — an event queue keyed by `(virtual time, tiebreak,
//!   sequence number)` driving [`runtime::AsyncProcess`]es, with a single
//!   seeded RNG stream per concern (links, scheduler) derived via
//!   [`bne_sim::derive_seed`]. The queue is a bucketed timing wheel over
//!   arena-allocated events (the original binary heap stays available
//!   behind [`model::QueueImpl`], differentially tested for bit-identical
//!   executions);
//! * [`model`] — pluggable [`model::LatencyModel`]s (constant,
//!   uniform-jitter, heavy-tail), [`model::SchedulerPolicy`]s (FIFO,
//!   seeded-random interleaving, adversarial rushing) and a unified
//!   builder-style [`model::FaultPlan`] combining [`model::LinkFaults`]
//!   (iid loss, partitions that heal at a fixed time) with
//!   [`model::ProcessFault`] crash-recovery plans (halt after `k`
//!   events, timed crash windows, durable-state recovery) enforced by
//!   the runtime for *any* protocol;
//! * [`adapter`] — a [`adapter::RoundAdapter`] running every existing
//!   round-based [`bne_byzantine::Process`] *unchanged* on the async
//!   runtime, **bit-identical** to `SyncNetwork` under the zero-latency
//!   FIFO configuration ([`model::NetConfig::lockstep`]);
//! * [`protocols`] — **event-driven** protocols running directly on the
//!   runtime with no round adapter, all through one generic shell
//!   ([`protocols::MachineProcess`]): Bracha reliable broadcast
//!   ([`protocols::BrachaProcess`]), Ben-Or randomized consensus
//!   ([`protocols::BenOrProcess`]), single-decree Paxos
//!   ([`protocols::PaxosProcess`]) and leader-driven HSUC-style
//!   consensus ([`protocols::HsucProcess`]) — the latter two tolerate
//!   `f < n/2` crash-recovery faults via timeout-driven failover;
//! * [`retry`] — a [`retry::RetryAdapter`] wrapping any
//!   [`runtime::AsyncProcess`] with acknowledgement + retransmission
//!   (configurable backoff), turning message loss into latency;
//! * [`scenario`] — [`bne_sim::Scenario`] ports (async OM, phase king,
//!   Dolev–Strong, Bracha, Ben-Or, Paxos, HSUC) so agreement/validity
//!   rates sweep over latency × loss × scheduler × fault-plan × `f/n`
//!   grids through the parallel Monte Carlo engine (experiments
//!   e17–e22);
//! * [`cheap_talk`] — the cheap-talk implementations of the paper's
//!   Byzantine-agreement mediator ([`OralMessagesCheapTalk`] and
//!   [`SignedBroadcastCheapTalk`]), whose talk phase runs on the runtime
//!   under any [`NetProfile`], lockstep by default.
//!
//! The `net_engine` bench gates its timing runs on the
//! lockstep-equals-`SyncNetwork` assertion and records `BENCH_3.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod cheap_talk;
pub mod model;
pub mod obs;
pub mod protocols;
pub mod retry;
pub mod runtime;
pub mod scenario;

pub use adapter::{run_round_protocol, AsyncRunOutcome, RoundAdapter};
pub use cheap_talk::{OralMessagesCheapTalk, SignedBroadcastCheapTalk};
pub use model::{
    CrashTrigger, FaultPlan, LatencyModel, LinkFaults, NetConfig, Partition, ProcessFault,
    QueueImpl, SchedulerPolicy,
};
pub use obs::{
    EventCounts, HistogramSpec, MetricsObserver, Observer, TimelineEntry, TimelineObserver,
};
pub use protocols::{
    run_hsuc, run_paxos, BenOrNoiseProcess, BenOrProcess, BrachaProcess, HsucProcess,
    MachineProcess, PaxosProcess,
};
pub use retry::{RetryAdapter, RetryMsg, RetryPolicy};
pub use runtime::{
    AsyncProcess, DurableState, EnabledEvent, EnabledKind, EventNet, IdleProcess, NetCtx, NetStats,
    TraceEvent, TraceFields, TraceKind, Undo,
};
pub use scenario::{
    quorum_consensus_grid, AsyncBrachaScenario, AsyncBroadcastScenario, AsyncOmScenario,
    AsyncPhaseKingScenario, BenOrScenario, ConsensusStats, CrashRegime, HsucScenario, NetProfile,
    PaxosScenario, QuorumConsensusCell, RbStats, SchedulerSpec,
};
