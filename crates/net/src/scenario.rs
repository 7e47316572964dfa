//! Async protocol runs as [`bne_sim::Scenario`]s: agreement/validity rates
//! over **latency × loss × scheduler × `f/n`** grids, estimated from
//! ensembles of seeded executions through the parallel Monte Carlo engine.
//!
//! These are the asynchronous counterparts of
//! [`bne_byzantine::scenario`]'s lockstep sweeps, reporting into the same
//! [`ProtocolStats`] aggregate so sync and async grids are directly
//! comparable. Experiments e17–e23 are built from these scenarios.
//!
//! The round-based scenarios (OM, phase king, Dolev–Strong) draw their
//! replicas through the seeded builders of [`bne_byzantine::scenario`],
//! the same ones the lockstep scenarios use, and run them through
//! [`run_round_protocol`]. The event-driven ones (Ben-Or, Bracha, Paxos,
//! HSUC) all run through one private driver, which counts a replica that
//! exhausts its event budget in the `truncated` column of
//! [`ConsensusStats`] / [`RbStats`].

use crate::adapter::run_round_protocol;
use crate::model::{FaultPlan, LatencyModel, NetConfig, Partition, QueueImpl, SchedulerPolicy};
use crate::protocols::{
    BenOrNoiseProcess, BenOrProcess, BrachaProcess, HsucProcess, MachineProcess, PaxosProcess,
};
use crate::retry::{RetryAdapter, RetryMsg, RetryPolicy};
use crate::runtime::{AsyncProcess, EventNet, IdleProcess, NetStats};
use bne_byzantine::adversary::FaultyBehavior;
use bne_byzantine::bracha::BrachaMsg;
use bne_byzantine::event::EventMachine;
use bne_byzantine::om::TraitorStrategy;
use bne_byzantine::om_process::{om_colluding_process_set, om_process_set};
use bne_byzantine::properties::{check_agreement, check_validity, rb_report};
use bne_byzantine::scenario::{
    dolev_strong_replica, om_replica, phase_king_replica, EngineOutput, ProcessSet, ProtocolStats,
};
use bne_byzantine::{BenOrMsg, ProcId, Value};
use bne_sim::{derive_seed, Merge, Scenario, StreamingStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Stream tag separating a replica's *network* seed from the seed used
/// for protocol inputs (commander orders, initial preferences).
const STREAM_NET_SEED: u64 = 11;
/// Stream tag for per-process Ben-Or coin seeds.
const STREAM_COIN: u64 = 12;
/// Stream tag for the colluding-traitor ledger seed.
const STREAM_COLLUSION: u64 = 13;
/// Stream tag for Byzantine noise-process seeds.
const STREAM_NOISE: u64 = 14;

/// Events one event-driven replica may process before it counts as
/// truncated.
const EVENT_BUDGET: usize = 20_000_000;

/// A scheduler choice that does not yet know which processes are
/// Byzantine — scenarios materialize it per replica once the fault set is
/// drawn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Send-order delivery ([`SchedulerPolicy::Fifo`]).
    Fifo,
    /// Seeded-random interleaving with up to `jitter` extra ticks per
    /// message; the per-replica scheduler seed is derived from the replica
    /// seed via [`derive_seed`].
    Random {
        /// Maximum extra delay added to any message.
        jitter: u64,
    },
    /// Rushing adversary: Byzantine messages instantly, honest messages
    /// delayed by `honest_delay` extra ticks.
    Rush {
        /// Extra delay imposed on every honest message.
        honest_delay: u64,
    },
}

impl SchedulerSpec {
    /// Builds the concrete policy for one replica.
    pub fn materialize(&self, byzantine: &BTreeSet<ProcId>, seed: u64) -> SchedulerPolicy {
        match *self {
            SchedulerSpec::Fifo => SchedulerPolicy::Fifo,
            SchedulerSpec::Random { jitter } => SchedulerPolicy::RandomInterleave {
                seed: derive_seed(seed, STREAM_NET_SEED, 1),
                jitter,
            },
            SchedulerSpec::Rush { honest_delay } => SchedulerPolicy::AdversarialRush {
                byzantine: byzantine.clone(),
                honest_delay,
            },
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Fifo => "fifo".to_string(),
            SchedulerSpec::Random { jitter } => format!("random(j={jitter})"),
            SchedulerSpec::Rush { honest_delay } => format!("rush(d={honest_delay})"),
        }
    }
}

/// The network conditions of one grid cell: everything about the runtime
/// except the per-replica seed and the fault set.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfile {
    /// In-flight time distribution.
    pub latency: LatencyModel,
    /// Delivery-order policy.
    pub scheduler: SchedulerSpec,
    /// The fault plan: link faults (loss, partitions) plus process
    /// crash/recovery faults. Plain [`crate::LinkFaults`] convert via
    /// `.into()`.
    pub faults: FaultPlan,
    /// Virtual ticks per protocol round.
    pub round_ticks: u64,
    /// Event-queue implementation (identical executions either way; the
    /// wheel is the fast default, the heap is the differential-testing
    /// reference — see [`QueueImpl`]).
    pub queue: QueueImpl,
}

impl NetProfile {
    /// The profile equivalent to the lockstep `SyncNetwork`: zero
    /// latency, FIFO, no faults.
    pub fn lockstep() -> Self {
        NetProfile {
            latency: LatencyModel::Constant(0),
            scheduler: SchedulerSpec::Fifo,
            faults: FaultPlan::none(),
            round_ticks: 1,
            queue: QueueImpl::default(),
        }
    }

    /// Selects the event-queue implementation (builder style).
    pub fn with_queue(mut self, queue: QueueImpl) -> Self {
        self.queue = queue;
        self
    }

    /// Lockstep timing with iid message loss — the profile of the e17
    /// loss sweeps.
    pub fn lossy(drop_prob: f64) -> Self {
        NetProfile {
            faults: FaultPlan::lossy(drop_prob),
            ..NetProfile::lockstep()
        }
    }

    /// Builds the concrete [`NetConfig`] for one replica.
    pub fn config(&self, seed: u64, byzantine: &BTreeSet<ProcId>) -> NetConfig {
        NetConfig {
            seed,
            latency: self.latency.clone(),
            scheduler: self.scheduler.materialize(byzantine, seed),
            faults: self.faults.clone(),
            round_ticks: self.round_ticks,
            record_trace: false,
            queue: self.queue,
        }
    }
}

/// The event runtime as an engine for [`RoundReplica::run`]: the
/// replica's process set runs under `net` with the replica's network seed.
///
/// [`RoundReplica::run`]: bne_byzantine::scenario::RoundReplica::run
fn event_net<M: Clone + 'static>(
    net: &NetProfile,
    seed: u64,
) -> impl FnOnce(ProcessSet<M>, usize, &BTreeSet<ProcId>) -> EngineOutput + '_ {
    move |processes, rounds, byzantine| {
        let cfg = net.config(derive_seed(seed, STREAM_NET_SEED, 0), byzantine);
        let outcome = run_round_protocol(processes, rounds, cfg);
        (outcome.decisions, outcome.stats.messages_sent)
    }
}

// ---------------------------------------------------------------------------
// OM(t), EIG formulation, on the async runtime
// ---------------------------------------------------------------------------

/// One grid cell of the async OM sweep.
#[derive(Debug, Clone)]
pub struct AsyncOmCell {
    /// Total number of participants (commander + lieutenants).
    pub n: usize,
    /// Number of traitors (also the relay depth `m`).
    pub t: usize,
    /// How traitors lie.
    pub strategy: TraitorStrategy,
    /// Whether the commander is one of the traitors.
    pub commander_faulty: bool,
    /// When set, the traitors **collude**: they ignore `strategy` and
    /// draw coordinated, per-destination-consistent lies from a shared
    /// [`bne_byzantine::OmCollusion`] ledger (re-seeded per replica).
    pub colluding: bool,
    /// Network conditions.
    pub net: NetProfile,
}

/// Oral-messages Byzantine generals on the event-driven runtime, with the
/// commander's order drawn from the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncOmScenario;

impl Scenario for AsyncOmScenario {
    type Config = AsyncOmCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &AsyncOmCell, seed: u64) -> ProtocolStats {
        om_replica(cell.n, cell.t, cell.strategy, cell.commander_faulty, seed).run(
            |config, rounds, traitors| {
                let processes = if cell.colluding {
                    om_colluding_process_set(&config, derive_seed(seed, STREAM_COLLUSION, 0))
                } else {
                    om_process_set(&config)
                };
                event_net(&cell.net, seed)(processes, rounds, traitors)
            },
        )
    }
}

/// The e17 grid: OM cells swept over message-loss probabilities under
/// otherwise-lockstep timing. With `colluding` set, traitors draw
/// coordinated lies from a shared per-replica ledger instead of
/// `strategy` (the e17 colluding arm).
pub fn async_om_loss_grid(
    cells: &[(usize, usize)],
    drop_probs: &[f64],
    strategy: TraitorStrategy,
    commander_faulty: bool,
    colluding: bool,
) -> Vec<AsyncOmCell> {
    let mut grid = Vec::new();
    for &drop_prob in drop_probs {
        for &(n, t) in cells {
            grid.push(AsyncOmCell {
                n,
                t,
                strategy,
                commander_faulty,
                colluding,
                net: NetProfile::lossy(drop_prob),
            });
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Phase king on the async runtime
// ---------------------------------------------------------------------------

/// One grid cell of the async phase-king sweep.
#[derive(Debug, Clone)]
pub struct AsyncPhaseKingCell {
    /// Total number of processes (honest + faulty).
    pub n: usize,
    /// Fault budget; the last `t` process ids are faulty (so every king is
    /// honest, as in the sync grid).
    pub t: usize,
    /// The faulty behavior (stochastic behaviors are re-seeded per
    /// replica via [`FaultyBehavior::with_seed`]).
    pub behavior: FaultyBehavior,
    /// Whether all honest processes start with the same seed-drawn bit.
    pub unanimous_start: bool,
    /// Network conditions.
    pub net: NetProfile,
}

/// Phase-king consensus on the event-driven runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncPhaseKingScenario;

impl Scenario for AsyncPhaseKingScenario {
    type Config = AsyncPhaseKingCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &AsyncPhaseKingCell, seed: u64) -> ProtocolStats {
        phase_king_replica(cell.n, cell.t, &cell.behavior, cell.unanimous_start, seed)
            .run(event_net(&cell.net, seed))
    }
}

/// The e18 grid: phase-king cells swept over scheduler policies × latency
/// models (fixed `round_ticks`, so longer latencies genuinely threaten
/// round deadlines).
///
/// Use `unanimous_start = false` to stress *agreement*: unanimous-start
/// validity is remarkably robust to uniform delays (stale honest messages
/// still carry the common value), but mixed starts depend on the kings'
/// tiebreaks arriving on time, which adversarial schedulers deny.
pub fn async_phase_king_scheduler_grid(
    cells: &[(usize, usize)],
    behavior: &FaultyBehavior,
    schedulers: &[SchedulerSpec],
    latencies: &[LatencyModel],
    round_ticks: u64,
    unanimous_start: bool,
) -> Vec<AsyncPhaseKingCell> {
    let mut grid = Vec::new();
    for scheduler in schedulers {
        for latency in latencies {
            for &(n, t) in cells {
                grid.push(AsyncPhaseKingCell {
                    n,
                    t,
                    behavior: behavior.clone(),
                    unanimous_start,
                    net: NetProfile {
                        latency: latency.clone(),
                        scheduler: scheduler.clone(),
                        round_ticks,
                        ..NetProfile::lockstep()
                    },
                });
            }
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Dolev–Strong signed broadcast on the async runtime
// ---------------------------------------------------------------------------

/// One grid cell of the async signed-broadcast sweep.
#[derive(Debug, Clone)]
pub struct AsyncBroadcastCell {
    /// Total number of processes.
    pub n: usize,
    /// Fault budget (protocol runs `t + 1` relay rounds).
    pub t: usize,
    /// Whether the designated sender (process 0) equivocates.
    pub equivocating_sender: bool,
    /// Network conditions.
    pub net: NetProfile,
}

/// Dolev–Strong authenticated broadcast on the event-driven runtime, over
/// a per-replica simulated PKI.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncBroadcastScenario;

impl Scenario for AsyncBroadcastScenario {
    type Config = AsyncBroadcastCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &AsyncBroadcastCell, seed: u64) -> ProtocolStats {
        dolev_strong_replica(cell.n, cell.t, cell.equivocating_sender, seed)
            .run(event_net(&cell.net, seed))
    }
}

/// One cell of the e19 CAP-flavored partition sweep: the network splits
/// into two halves (the designated sender's side first) for a window of
/// `duration` ticks ending at `heal_at`, while Dolev–Strong broadcast
/// runs underneath.
///
/// The two axes separate *how long* the network is split from *when* it
/// comes back: a short cut healing early is repaired by the remaining
/// relay rounds, while the same cut healing after the last round is
/// indistinguishable from a permanent one. `duration > heal_at` would
/// silently truncate the window (it cannot start before time 0), so
/// those combinations are **skipped** rather than emitted under a
/// misleading label; a single no-partition baseline cell per `(n, t)` is
/// emitted instead of one per heal time. Read each cell's actual window
/// from its `net.faults.link.partition` when labelling tables.
pub fn async_broadcast_partition_grid(
    cells: &[(usize, usize)],
    durations: &[u64],
    heal_times: &[u64],
    round_ticks: u64,
) -> Vec<AsyncBroadcastCell> {
    half_partitions(cells, durations, heal_times)
        .into_iter()
        .map(|(n, t, faults)| AsyncBroadcastCell {
            n,
            t,
            equivocating_sender: false,
            net: NetProfile {
                faults,
                round_ticks,
                ..NetProfile::lockstep()
            },
        })
        .collect()
}

/// The `(n, t, faults)` cells of a half/half partition sweep: one
/// no-partition baseline per `(n, t)`, then one cut of the first `n / 2`
/// processes per `(duration, heal_at)` pair with
/// `0 < duration <= heal_at`, lasting `duration` ticks up to `heal_at`.
fn half_partitions(
    cells: &[(usize, usize)],
    durations: &[u64],
    heal_times: &[u64],
) -> Vec<(usize, usize, FaultPlan)> {
    let mut grid: Vec<_> = cells
        .iter()
        .map(|&(n, t)| (n, t, FaultPlan::none()))
        .collect();
    for &duration in durations {
        for &heal_at in heal_times {
            if duration == 0 || duration > heal_at {
                continue; // baseline already emitted / truncated window
            }
            for &(n, t) in cells {
                let group: BTreeSet<ProcId> = (0..n / 2).collect();
                let cut = Partition::window(group, heal_at - duration, heal_at);
                grid.push((n, t, FaultPlan::none().partition(cut)));
            }
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Event-driven protocols (no round adapter): Ben-Or and Bracha
// ---------------------------------------------------------------------------

/// What one driven replica left behind.
struct Driven {
    decisions: Vec<Option<Value>>,
    times: Vec<Option<u64>>,
    stats: NetStats,
    /// Whether the event queue drained within the budget.
    drained: bool,
}

/// Runs one event-driven replica until its queue drains or `budget`
/// events have been processed.
fn drive<M: Clone>(
    procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
    cfg: NetConfig,
    budget: usize,
) -> Driven {
    let mut net = EventNet::new(procs, cfg);
    let drained = net.run(budget);
    Driven {
        decisions: net.decisions(),
        times: net.decision_times().to_vec(),
        stats: net.stats(),
        drained,
    }
}

impl Driven {
    /// The latest decision time among `procs` when every one of them
    /// decided; `None` when one did not.
    fn latest_decision(&self, procs: impl Iterator<Item = ProcId> + Clone) -> Option<u64> {
        let decided = procs.clone().all(|i| self.decisions[i].is_some());
        decided.then(|| procs.filter_map(|i| self.times[i]).max().unwrap_or(0))
    }
}

/// A 0/1 outcome column of one replica.
fn flag(value: bool) -> StreamingStats {
    StreamingStats::of(f64::from(u8::from(value)))
}

/// Streaming aggregate of event-driven **consensus** executions. On top
/// of the correctness rates this records the two quantities that are
/// *random variables* for randomized protocols: rounds-to-decide and
/// virtual decision time. Both are recorded only for replicas where every
/// honest process decided (their means are conditional on success).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusStats {
    /// Did every honest process decide (within the round cap)?
    pub decided: StreamingStats,
    /// Did all honest decisions agree?
    pub agreement: StreamingStats,
    /// Did honest decisions match the unanimous honest input (vacuous
    /// under mixed starts)?
    pub validity: StreamingStats,
    /// Max rounds-to-decide over the honest processes (successful
    /// replicas only).
    pub rounds: StreamingStats,
    /// Max virtual decision time over the honest processes (successful
    /// replicas only).
    pub decide_time: StreamingStats,
    /// Point-to-point messages handed to the network.
    pub messages: StreamingStats,
    /// Runtime events processed (deliveries + timers) — the work metric
    /// the BENCH_3 queue comparison reports alongside wall time.
    pub events: StreamingStats,
    /// Timers fired on live processes ([`crate::NetStats::timers_fired`])
    /// — the retry/timeout-pressure column previously hidden inside
    /// `events`.
    pub timers: StreamingStats,
    /// Did the replica exhaust its event budget before its queue drained
    /// (0 or 1 per replica)? The other columns of a truncated replica
    /// describe a run that was cut off.
    pub truncated: StreamingStats,
}

impl ConsensusStats {
    /// Scores one driven replica. Every process in `obligated` must
    /// decide; `rounds` is the largest decision round its probes saw.
    /// Rounds and decision time are recorded only when all of them did.
    fn of_run(
        run: Driven,
        obligated: impl Iterator<Item = ProcId> + Clone,
        agreement: bool,
        validity: bool,
        rounds: Option<f64>,
    ) -> Self {
        let latest = run.latest_decision(obligated);
        ConsensusStats {
            decided: flag(latest.is_some()),
            agreement: flag(agreement),
            validity: flag(validity),
            rounds: latest
                .and(rounds)
                .map_or_else(StreamingStats::new, StreamingStats::of),
            decide_time: latest.map_or_else(StreamingStats::new, |t| StreamingStats::of(t as f64)),
            messages: StreamingStats::of(run.stats.messages_sent as f64),
            events: StreamingStats::of(run.stats.events_processed as f64),
            timers: StreamingStats::of(run.stats.timers_fired as f64),
            truncated: flag(!run.drained),
        }
    }
}

impl Merge for ConsensusStats {
    fn merge(&mut self, other: &Self) {
        self.decided.merge(&other.decided);
        self.agreement.merge(&other.agreement);
        self.validity.merge(&other.validity);
        self.rounds.merge(&other.rounds);
        self.decide_time.merge(&other.decide_time);
        self.messages.merge(&other.messages);
        self.events.merge(&other.events);
        self.timers.merge(&other.timers);
        self.truncated.merge(&other.truncated);
    }
}

/// One grid cell of the Ben-Or sweep (experiment e20).
#[derive(Debug, Clone)]
pub struct BenOrCell {
    /// Total number of processes.
    pub n: usize,
    /// Fault budget shaping the quorum thresholds (classical Byzantine
    /// guarantee needs `n > 5t`).
    pub t: usize,
    /// Actual adversaries (the last `faults` process ids).
    pub faults: usize,
    /// Adversary flavor: `true` = seeded noise injection
    /// ([`crate::protocols::BenOrNoiseProcess`]), `false` = silent.
    pub noisy: bool,
    /// Whether all honest processes start with the same seed-drawn bit.
    pub unanimous_start: bool,
    /// Round cap after which an undecided process gives up.
    pub max_rounds: u32,
    /// Network conditions.
    pub net: NetProfile,
}

/// Ben-Or randomized consensus directly on the event runtime — the first
/// scenario whose running time is a random variable rather than a fixed
/// round count, which is what the scheduler adversaries stress.
///
/// # Panics
///
/// [`Scenario::run`] panics if a cell has more `faults` than processes,
/// or (through Ben-Or's [`EventMachine::start`]) a fault budget `t`
/// above `n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenOrScenario;

impl Scenario for BenOrScenario {
    type Config = BenOrCell;
    type Outcome = ConsensusStats;

    fn run(&self, cell: &BenOrCell, seed: u64) -> ConsensusStats {
        assert!(
            cell.faults <= cell.n,
            "Ben-Or cell has {} faults among {} processes",
            cell.faults,
            cell.n
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let honest_count = cell.n - cell.faults;
        let common: Value = rng.random_range(0..2u64);
        let probes: Vec<Rc<Cell<Option<u64>>>> = (0..honest_count)
            .map(|_| Rc::new(Cell::new(None)))
            .collect();
        let mut procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = Vec::with_capacity(cell.n);
        for (i, probe) in probes.iter().enumerate() {
            let pref = if cell.unanimous_start {
                common
            } else {
                rng.random_range(0..2u64)
            };
            let coin_seed = derive_seed(seed, STREAM_COIN, i as u64);
            procs.push(Box::new(
                BenOrProcess::new(cell.t, pref, cell.max_rounds, coin_seed)
                    .with_probe(Rc::clone(probe)),
            ));
        }
        let byzantine: BTreeSet<ProcId> = (honest_count..cell.n).collect();
        let mut cfg = cell
            .net
            .config(derive_seed(seed, STREAM_NET_SEED, 0), &byzantine);
        for i in honest_count..cell.n {
            if cell.noisy {
                let noise_seed = derive_seed(seed, STREAM_NOISE, i as u64);
                procs.push(Box::new(BenOrNoiseProcess::new(noise_seed)));
            } else {
                // a silent adversary is a crash fault: an inert slot
                // crashed at start by the runtime's fault plan
                procs.push(Box::new(IdleProcess::new()));
                cfg.faults = std::mem::take(&mut cfg.faults).crash_at_start(i);
            }
        }
        let run = drive(procs, cfg, EVENT_BUDGET);
        let honest: Vec<bool> = (0..cell.n).map(|i| i < honest_count).collect();
        let agreement = check_agreement(&run.decisions, &honest);
        let validity = !cell.unanimous_start || check_validity(&run.decisions, &honest, common);
        let max_round = probes.iter().filter_map(|p| p.get()).max().unwrap_or(0);
        let rounds = Some(max_round as f64);
        ConsensusStats::of_run(run, 0..honest_count, agreement, validity, rounds)
    }
}

/// The e20 grid: Ben-Or cells swept over scheduler policies × fault
/// counts at a fixed latency, mixed starts (so the coin genuinely
/// matters and the decision round is a non-degenerate random variable).
pub fn ben_or_scheduler_grid(
    cells: &[(usize, usize)],
    fault_counts: &[usize],
    schedulers: &[SchedulerSpec],
    latency: LatencyModel,
    max_rounds: u32,
) -> Vec<BenOrCell> {
    let mut grid = Vec::new();
    for scheduler in schedulers {
        for &faults in fault_counts {
            for &(n, t) in cells {
                grid.push(BenOrCell {
                    n,
                    t,
                    faults,
                    noisy: true,
                    unanimous_start: false,
                    max_rounds,
                    net: NetProfile {
                        latency: latency.clone(),
                        scheduler: scheduler.clone(),
                        ..NetProfile::lockstep()
                    },
                });
            }
        }
    }
    grid
}

/// Streaming aggregate of **reliable broadcast** executions: the three RB
/// correctness conditions plus delivery latency (recorded only for
/// replicas where every process delivered, so the mean is conditional on
/// success — the "latency cliff" of e21).
#[derive(Debug, Clone, PartialEq)]
pub struct RbStats {
    /// Did every honest process deliver?
    pub delivered: StreamingStats,
    /// RB agreement (no two honest deliveries differ).
    pub agreement: StreamingStats,
    /// RB validity (honest broadcaster's value delivered by all honest).
    pub validity: StreamingStats,
    /// RB totality (one honest delivery implies all).
    pub totality: StreamingStats,
    /// Max virtual delivery time over all processes (successful replicas
    /// only).
    pub deliver_time: StreamingStats,
    /// Point-to-point messages handed to the network (acks and
    /// retransmissions included when a retry policy is active).
    pub messages: StreamingStats,
    /// Runtime events processed (deliveries + timers).
    pub events: StreamingStats,
    /// Retransmissions sent by the retry adapters (0 for the bare arm),
    /// summed over all processes via the adapters' shared probe.
    pub retransmissions: StreamingStats,
    /// Timers fired on live processes
    /// ([`crate::NetStats::timers_fired`]) — for Bracha this counts the
    /// retry adapters' retransmission timers, making retry pressure
    /// visible separately from `events`.
    pub timers: StreamingStats,
    /// Did the replica exhaust its event budget before its queue drained
    /// (0 or 1 per replica)?
    pub truncated: StreamingStats,
}

impl Merge for RbStats {
    fn merge(&mut self, other: &Self) {
        self.delivered.merge(&other.delivered);
        self.agreement.merge(&other.agreement);
        self.validity.merge(&other.validity);
        self.totality.merge(&other.totality);
        self.deliver_time.merge(&other.deliver_time);
        self.messages.merge(&other.messages);
        self.events.merge(&other.events);
        self.retransmissions.merge(&other.retransmissions);
        self.timers.merge(&other.timers);
        self.truncated.merge(&other.truncated);
    }
}

/// One grid cell of the Bracha sweep (experiment e21): all processes
/// honest — the adversary is the *network* (loss, partitions,
/// scheduling), optionally answered by retransmission.
#[derive(Debug, Clone)]
pub struct AsyncBrachaCell {
    /// Total number of processes.
    pub n: usize,
    /// Fault budget shaping the quorum sizes (`n > 3t` for the classical
    /// guarantee; larger `t` means larger quorums, i.e. less slack
    /// against loss).
    pub t: usize,
    /// Retransmission policy; `None` runs the bare protocol (the e19
    /// regime where whatever the partition eats stays lost).
    pub retry: Option<RetryPolicy>,
    /// Network conditions.
    pub net: NetProfile,
}

/// Bracha reliable broadcast directly on the event runtime, with process
/// 0 broadcasting a seed-drawn bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncBrachaScenario;

impl Scenario for AsyncBrachaScenario {
    type Config = AsyncBrachaCell;
    type Outcome = RbStats;

    fn run(&self, cell: &AsyncBrachaCell, seed: u64) -> RbStats {
        bracha_replica(cell, seed, EVENT_BUDGET)
    }
}

/// One Bracha replica, cut off after `budget` events.
fn bracha_replica(cell: &AsyncBrachaCell, seed: u64, budget: usize) -> RbStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let input: Value = rng.random_range(0..2u64);
    let cfg = cell
        .net
        .config(derive_seed(seed, STREAM_NET_SEED, 0), &BTreeSet::new());
    let process = || BrachaProcess::new(cell.t, 0, input);
    // one shared counter across all adapters: total retransmissions
    // stay readable after the adapters are boxed behind the trait
    let retransmissions = Rc::new(Cell::new(0u64));
    let run = match cell.retry {
        None => drive::<BrachaMsg>(
            (0..cell.n).map(|_| Box::new(process()) as _).collect(),
            cfg,
            budget,
        ),
        Some(policy) => drive::<RetryMsg<BrachaMsg>>(
            (0..cell.n)
                .map(|_| {
                    Box::new(
                        RetryAdapter::new(process(), policy)
                            .with_probe(Rc::clone(&retransmissions)),
                    ) as _
                })
                .collect(),
            cfg,
            budget,
        ),
    };
    let report = rb_report(&run.decisions, &vec![true; cell.n], Some(input));
    let latest = run.latest_decision(0..cell.n);
    RbStats {
        delivered: flag(latest.is_some()),
        agreement: flag(report.agreement),
        validity: flag(report.validity),
        totality: flag(report.totality),
        deliver_time: latest.map_or_else(StreamingStats::new, |t| StreamingStats::of(t as f64)),
        messages: StreamingStats::of(run.stats.messages_sent as f64),
        events: StreamingStats::of(run.stats.events_processed as f64),
        retransmissions: StreamingStats::of(retransmissions.get() as f64),
        timers: StreamingStats::of(run.stats.timers_fired as f64),
        truncated: flag(!run.drained),
    }
}

/// The e21 grid: the e19 partition sweep (half/half cut over outage
/// duration × heal time) re-run on Bracha, with one arm per entry of
/// `retries` (`None` = bare protocol, `Some(policy)` = retransmission).
/// Latency is one tick per hop so the echo/ready pipeline spans a few
/// ticks and partition windows can cover all, part or none of it; like
/// [`async_broadcast_partition_grid`], truncated `duration > heal_at`
/// combinations are skipped and a single no-partition baseline per
/// `(n, t, retry)` is emitted.
pub fn bracha_partition_grid(
    cells: &[(usize, usize)],
    durations: &[u64],
    heal_times: &[u64],
    retries: &[Option<RetryPolicy>],
) -> Vec<AsyncBrachaCell> {
    let partitions = half_partitions(cells, durations, heal_times);
    let mut grid = Vec::new();
    for &retry in retries {
        grid.extend(partitions.iter().map(|(n, t, faults)| AsyncBrachaCell {
            n: *n,
            t: *t,
            retry,
            net: NetProfile {
                latency: LatencyModel::Constant(1),
                faults: faults.clone(),
                ..NetProfile::lockstep()
            },
        }));
    }
    grid
}

// ---------------------------------------------------------------------------
// Crash-recovery consensus: Paxos and HSUC (experiment e22)
// ---------------------------------------------------------------------------

/// The fault regime of one protocol-atlas cell (experiment e22): what the
/// *process* fault plan does to the execution. Link faults stay in the
/// cell's [`NetProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashRegime {
    /// No process faults.
    None,
    /// Process 0 (initial Paxos proposer / HSUC round-1 leader) halts
    /// after handling `after_events` events and never returns.
    CrashStop {
        /// Events handled before the halt.
        after_events: u64,
    },
    /// Process 0 halts after `after_events` events and recovers at
    /// virtual time `recover_at` from its durable state.
    CrashRecovery {
        /// Events handled before the halt.
        after_events: u64,
        /// Virtual time of the recovery.
        recover_at: u64,
    },
}

impl CrashRegime {
    /// Applies the regime to a fault plan.
    pub fn apply(&self, plan: FaultPlan) -> FaultPlan {
        match *self {
            CrashRegime::None => plan,
            CrashRegime::CrashStop { after_events } => plan.crash(0, after_events),
            CrashRegime::CrashRecovery {
                after_events,
                recover_at,
            } => plan.crash(0, after_events).recover_at(recover_at),
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match *self {
            CrashRegime::None => "none".to_string(),
            CrashRegime::CrashStop { after_events } => format!("stop(k={after_events})"),
            CrashRegime::CrashRecovery {
                after_events,
                recover_at,
            } => format!("recover(k={after_events},t={recover_at})"),
        }
    }
}

/// One grid cell of the Paxos / HSUC sweeps (experiment e22).
#[derive(Debug, Clone)]
pub struct QuorumConsensusCell {
    /// Total number of processes (tolerates `f < n/2` crashed).
    pub n: usize,
    /// What the process fault plan does (always targets process 0, the
    /// initial proposer/leader — the hardest process to lose).
    pub crash: CrashRegime,
    /// Retry-timer period of the shells (leader-failover detection
    /// time); staggered per process id by the shell.
    pub timeout_ticks: u64,
    /// Retry-timer firing cap per process, bounding ballot/round
    /// escalation so executions always drain.
    pub max_timeouts: u32,
    /// Network conditions.
    pub net: NetProfile,
}

impl QuorumConsensusCell {
    /// The inputs of one replica, drawn from its seed: process `i`
    /// proposes `inputs(seed)[i]`.
    pub fn inputs(&self, seed: u64) -> Vec<Value> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.n).map(|_| rng.random_range(0..100u64)).collect()
    }

    /// The network of one replica: the cell's profile under the replica's
    /// network seed, with the crash regime added to the fault plan.
    pub fn net_config(&self, seed: u64) -> NetConfig {
        let mut cfg = self
            .net
            .config(derive_seed(seed, STREAM_NET_SEED, 0), &BTreeSet::new());
        cfg.faults = self.crash.apply(std::mem::take(&mut cfg.faults));
        cfg
    }

    /// The processes that must decide: all but a permanently crashed one.
    /// A *recovered* process is obligated — that is the whole point of
    /// recovery.
    pub fn obligated(&self) -> Vec<ProcId> {
        let exempt = self.crash.apply(FaultPlan::none()).permanently_crashed();
        (0..self.n).filter(|i| !exempt.contains(i)).collect()
    }

    /// One Paxos or HSUC replica: `make` is the machine's constructor,
    /// and each process reports its deciding ballot or round to a probe.
    fn run_replica<S: EventMachine>(
        &self,
        seed: u64,
        make: fn(Value, u64, u32) -> MachineProcess<S>,
    ) -> ConsensusStats {
        let inputs = self.inputs(seed);
        let probes: Vec<Rc<Cell<Option<u64>>>> =
            (0..self.n).map(|_| Rc::new(Cell::new(None))).collect();
        let procs = inputs
            .iter()
            .zip(&probes)
            .map(|(&v, probe)| {
                let process = make(v, self.timeout_ticks, self.max_timeouts);
                Box::new(process.with_probe(Rc::clone(probe))) as _
            })
            .collect();
        let run = drive(procs, self.net_config(seed), EVENT_BUDGET);
        // agreement over ALL decisions ever made (safety: no two decided
        // values, crashed or not); validity: the decided value is some
        // process's input
        let values: BTreeSet<Value> = run.decisions.iter().filter_map(|d| *d).collect();
        let agreement = values.len() <= 1;
        let validity = values.iter().all(|v| inputs.contains(v));
        let rounds = probes.iter().filter_map(|p| p.get()).max();
        ConsensusStats::of_run(
            run,
            self.obligated().into_iter(),
            agreement,
            validity,
            rounds.map(|r| r as f64),
        )
    }
}

/// Single-decree Paxos on the event runtime under a crash plan: process
/// `i` proposes a seed-drawn value; decisions must be unique network-wide
/// (the safety gate of e22) and every non-permanently-crashed process
/// must learn one. "Rounds" is the highest deciding *ballot* — 1 means
/// the initial proposer won, higher means failover escalated.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaxosScenario;

impl Scenario for PaxosScenario {
    type Config = QuorumConsensusCell;
    type Outcome = ConsensusStats;

    fn run(&self, cell: &QuorumConsensusCell, seed: u64) -> ConsensusStats {
        cell.run_replica(seed, PaxosProcess::new)
    }
}

/// Leader-driven (HSUC-style) consensus on the event runtime under a
/// crash plan — same cell shape and outcome as [`PaxosScenario`], so the
/// e22 atlas compares them column-for-column. "Rounds" is the highest
/// deciding round — 1 means leader 0's round sufficed.
#[derive(Debug, Clone, Copy, Default)]
pub struct HsucScenario;

impl Scenario for HsucScenario {
    type Config = QuorumConsensusCell;
    type Outcome = ConsensusStats;

    fn run(&self, cell: &QuorumConsensusCell, seed: u64) -> ConsensusStats {
        cell.run_replica(seed, HsucProcess::new)
    }
}

/// The e22 atlas grid for one protocol: crash regimes × schedulers × n,
/// at one-tick latency so decision times are hop counts. The crash plans
/// always hit process 0 — the initial Paxos proposer and HSUC round-1
/// leader — because losing the coordinator is the regime where failover
/// (and recovery) actually shows up in the measured columns.
pub fn quorum_consensus_grid(
    sizes: &[usize],
    regimes: &[CrashRegime],
    schedulers: &[SchedulerSpec],
    timeout_ticks: u64,
    max_timeouts: u32,
) -> Vec<QuorumConsensusCell> {
    let mut grid = Vec::new();
    for scheduler in schedulers {
        for &regime in regimes {
            for &n in sizes {
                grid.push(QuorumConsensusCell {
                    n,
                    crash: regime,
                    timeout_ticks,
                    max_timeouts,
                    net: NetProfile {
                        latency: LatencyModel::Constant(1),
                        scheduler: scheduler.clone(),
                        ..NetProfile::lockstep()
                    },
                });
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinkFaults;
    use bne_sim::SimRunner;

    #[test]
    fn lockstep_async_om_matches_the_sync_bound_structure() {
        // within the n > 3t bound and with no network faults, the async
        // runtime preserves OM's guarantees
        let grid = async_om_loss_grid(
            &[(4, 1), (7, 2)],
            &[0.0],
            TraitorStrategy::Flip,
            false,
            false,
        );
        for cell in SimRunner::new(8, 17).run_sequential(&AsyncOmScenario, &grid) {
            assert_eq!(cell.outcome.agreement.mean(), 1.0, "cell {}", cell.cell);
            assert_eq!(cell.outcome.validity.mean(), 1.0, "cell {}", cell.cell);
        }
    }

    #[test]
    fn message_loss_degrades_om_within_the_bound() {
        // n = 4, t = 1 is perfectly correct on a reliable network, but iid
        // loss of 35% of messages must break validity in some replicas
        let grid = async_om_loss_grid(&[(4, 1)], &[0.0, 0.35], TraitorStrategy::Flip, false, false);
        let results = SimRunner::new(48, 18).run_sequential(&AsyncOmScenario, &grid);
        let reliable = results[0].outcome.validity.mean();
        let lossy = results[1].outcome.validity.mean();
        assert_eq!(reliable, 1.0);
        assert!(
            lossy < reliable,
            "loss must cost validity: lossy rate {lossy}"
        );
    }

    #[test]
    fn lockstep_async_phase_king_holds_its_budget() {
        let grid = vec![AsyncPhaseKingCell {
            n: 6,
            t: 1,
            behavior: FaultyBehavior::Equivocate { seed: 9 },
            unanimous_start: true,
            net: NetProfile::lockstep(),
        }];
        let results = SimRunner::new(10, 19).run_sequential(&AsyncPhaseKingScenario, &grid);
        assert_eq!(results[0].outcome.decided.mean(), 1.0);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
        assert_eq!(results[0].outcome.validity.mean(), 1.0);
    }

    #[test]
    fn rushing_scheduler_breaks_mixed_start_agreement() {
        // honest messages delayed two extra ticks (an odd round shift at
        // round_ticks 1): the kings' tiebreaks never arrive on time, so
        // mixed-start executions stay split, while Byzantine noise lands
        // instantly in every tally. FIFO at zero latency is lockstep and
        // must stay perfect.
        let grid = async_phase_king_scheduler_grid(
            &[(6, 1)],
            &FaultyBehavior::RandomNoise { seed: 3 },
            &[SchedulerSpec::Fifo, SchedulerSpec::Rush { honest_delay: 2 }],
            &[LatencyModel::Constant(0)],
            1,
            false,
        );
        let results = SimRunner::new(32, 20).run_sequential(&AsyncPhaseKingScenario, &grid);
        let fifo = results[0].outcome.agreement.mean();
        let rush = results[1].outcome.agreement.mean();
        assert_eq!(fifo, 1.0, "zero latency under FIFO is lockstep");
        assert!(rush < fifo, "rushing must hurt: {rush} vs {fifo}");
    }

    #[test]
    fn lockstep_async_broadcast_delivers() {
        let grid = vec![
            AsyncBroadcastCell {
                n: 5,
                t: 2,
                equivocating_sender: false,
                net: NetProfile::lockstep(),
            },
            AsyncBroadcastCell {
                n: 5,
                t: 1,
                equivocating_sender: true,
                net: NetProfile::lockstep(),
            },
        ];
        let results = SimRunner::new(6, 21).run_sequential(&AsyncBroadcastScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
        assert_eq!(results[0].outcome.validity.mean(), 1.0);
        assert_eq!(results[1].outcome.agreement.mean(), 1.0);
    }

    #[test]
    fn partition_grid_separates_fatal_from_healed_windows() {
        // Dolev–Strong with (n, t) = (6, 2) runs t + 2 = 4 rounds at
        // ticks 0..=3, and the sender's value floods in rounds 0-1
        // (broadcast, then one relay wave — each process relays exactly
        // once). A cut covering that whole flood window is fatal for the
        // cut-off half *no matter when it heals*; a window that leaves a
        // flood tick open, or opens after the flood, is harmless.
        let grid = async_broadcast_partition_grid(&[(6, 2)], &[0, 2, 4], &[2, 4], 1);
        // one baseline + the untruncated windows (2,2), (2,4), (4,4) —
        // duration > heal_at combinations are skipped, not mislabeled
        assert_eq!(grid.len(), 4);
        assert!(grid[0].net.faults.link.partition.is_none());
        let results = SimRunner::new(16, 1_905).run_sequential(&AsyncBroadcastScenario, &grid);
        let rate = |duration: u64, heal: u64| {
            let idx = grid
                .iter()
                .position(|c| match &c.net.faults.link.partition {
                    None => duration == 0,
                    Some(p) => p.duration() == duration && p.heal_at == heal,
                })
                .expect("cell exists");
            results[idx].outcome.agreement.mean()
        };
        assert_eq!(rate(0, 0), 1.0, "no partition is the lockstep baseline");
        assert_eq!(
            rate(2, 4),
            1.0,
            "a cut over the relay rounds only (ticks 2..4) is harmless"
        );
        assert!(
            rate(2, 2) < 1.0,
            "a cut over the broadcast round (ticks 0..2) is fatal even though it heals mid-protocol"
        );
        assert!(
            rate(4, 4) < 1.0,
            "a partition covering every round must break agreement"
        );
    }

    #[test]
    fn colluding_traitors_are_at_least_as_harmful_below_the_bound() {
        // (6, 2) violates n > 3t: the balanced consistent split must not
        // *help* correctness relative to the parity split, and across
        // replicas it should actually hurt (measured in e17's colluding
        // arm; asserted loosely here to stay seed-robust)
        let stateless = async_om_loss_grid(
            &[(6, 2)],
            &[0.0],
            TraitorStrategy::SplitByParity,
            false,
            false,
        );
        let colluding = async_om_loss_grid(
            &[(6, 2)],
            &[0.0],
            TraitorStrategy::SplitByParity,
            false,
            true,
        );
        let runner = SimRunner::new(48, 1_717);
        let s = runner.run_sequential(&AsyncOmScenario, &stateless)[0]
            .outcome
            .clone();
        let c = runner.run_sequential(&AsyncOmScenario, &colluding)[0]
            .outcome
            .clone();
        let correct = |o: &ProtocolStats| o.agreement.mean().min(o.validity.mean());
        assert!(
            correct(&c) <= correct(&s) + 1e-9,
            "collusion must not help the protocol: colluding {} vs stateless {}",
            correct(&c),
            correct(&s)
        );
    }

    #[test]
    fn ben_or_rushing_scheduler_costs_decision_time() {
        // the e20 acceptance shape in miniature: same fault fraction,
        // FIFO vs rushing adversary — rushing must cost strictly more
        // expected decision time (and it does so through extra rounds,
        // not just the per-hop delay)
        let grid = ben_or_scheduler_grid(
            &[(8, 1)],
            &[1],
            &[SchedulerSpec::Fifo, SchedulerSpec::Rush { honest_delay: 3 }],
            LatencyModel::Constant(1),
            200,
        );
        let results = SimRunner::new(32, 2_020).run_sequential(&BenOrScenario, &grid);
        let fifo = &results[0].outcome;
        let rush = &results[1].outcome;
        assert_eq!(fifo.decided.mean(), 1.0, "FIFO decides");
        assert_eq!(rush.decided.mean(), 1.0, "rush delays but cannot block");
        assert!(
            rush.decide_time.mean() > fifo.decide_time.mean(),
            "rushing must cost time: {} vs {}",
            rush.decide_time.mean(),
            fifo.decide_time.mean()
        );
    }

    #[test]
    fn ben_or_unanimous_lockstep_is_a_one_round_protocol() {
        let grid = vec![BenOrCell {
            n: 7,
            t: 1,
            faults: 0,
            noisy: false,
            unanimous_start: true,
            max_rounds: 50,
            net: NetProfile::lockstep(),
        }];
        let results = SimRunner::new(16, 2_021).run_sequential(&BenOrScenario, &grid);
        let o = &results[0].outcome;
        assert_eq!(o.decided.mean(), 1.0);
        assert_eq!(o.validity.mean(), 1.0);
        assert_eq!(o.rounds.mean(), 1.0);
    }

    #[test]
    #[should_panic(expected = "4 faults among 3 processes")]
    fn ben_or_cell_with_more_faults_than_processes_is_rejected() {
        let cell = BenOrCell {
            n: 3,
            t: 1,
            faults: 4,
            noisy: false,
            unanimous_start: false,
            max_rounds: 5,
            net: NetProfile::lockstep(),
        };
        let _ = BenOrScenario.run(&cell, 0);
    }

    #[test]
    fn bracha_partition_fatal_window_becomes_latency_with_retry() {
        // the e21 acceptance shape in miniature: a cut covering Bracha's
        // whole init→echo→ready pipeline is fatal bare, survived with
        // retransmission at a measurable latency cost
        let retry = Some(crate::retry::RetryPolicy::exponential(2));
        let grid = bracha_partition_grid(&[(6, 1)], &[4], &[4], &[None, retry]);
        assert_eq!(grid.len(), 4, "baseline + window, two arms");
        let results = SimRunner::new(16, 2_121).run_sequential(&AsyncBrachaScenario, &grid);
        let (bare_base, bare_cut) = (&results[0].outcome, &results[1].outcome);
        let (retry_base, retry_cut) = (&results[2].outcome, &results[3].outcome);
        assert_eq!(bare_base.delivered.mean(), 1.0);
        assert!(
            bare_cut.delivered.mean() < 1.0,
            "a [0, 4) cut over the whole pipeline must be fatal without retransmission"
        );
        assert_eq!(retry_base.delivered.mean(), 1.0);
        assert_eq!(
            retry_cut.delivered.mean(),
            1.0,
            "retransmission survives the fatal window"
        );
        assert!(
            retry_cut.deliver_time.mean() > retry_base.deliver_time.mean(),
            "…at a latency cost: {} vs {}",
            retry_cut.deliver_time.mean(),
            retry_base.deliver_time.mean()
        );
    }

    #[test]
    fn an_exhausted_event_budget_is_a_counted_truncation() {
        // both Bracha arms: cut off after ten events the replica counts
        // as truncated; under the scenarios' budget it drains
        let retry = Some(RetryPolicy::exponential(2));
        for cell in bracha_partition_grid(&[(6, 1)], &[], &[], &[None, retry]) {
            assert_eq!(bracha_replica(&cell, 7, 10).truncated.mean(), 1.0);
            let full = bracha_replica(&cell, 7, EVENT_BUDGET);
            assert_eq!(full.truncated.mean(), 0.0);
            assert_eq!(full, AsyncBrachaScenario.run(&cell, 7));
        }
    }

    #[test]
    fn paxos_and_hsuc_atlas_cells_hold_safety_under_every_regime() {
        // the e22 acceptance shape in miniature: all three crash regimes
        // across both quorum protocols — agreement (the safety gate) and
        // validity must be perfect in every replica; the crash-stop and
        // crash-recovery regimes must still decide via failover
        let grid = quorum_consensus_grid(
            &[5],
            &[
                CrashRegime::None,
                CrashRegime::CrashStop { after_events: 2 },
                CrashRegime::CrashRecovery {
                    after_events: 2,
                    recover_at: 400,
                },
            ],
            &[SchedulerSpec::Fifo, SchedulerSpec::Random { jitter: 2 }],
            40,
            12,
        );
        for (label, results) in [
            (
                "paxos",
                SimRunner::new(8, 2_201).run_sequential(&PaxosScenario, &grid),
            ),
            (
                "hsuc",
                SimRunner::new(8, 2_202).run_sequential(&HsucScenario, &grid),
            ),
        ] {
            for cell in &results {
                assert_eq!(
                    cell.outcome.agreement.mean(),
                    1.0,
                    "{label} safety violated in cell {}",
                    cell.cell
                );
                assert_eq!(
                    cell.outcome.validity.mean(),
                    1.0,
                    "{label} validity violated in cell {}",
                    cell.cell
                );
                assert_eq!(
                    cell.outcome.decided.mean(),
                    1.0,
                    "{label} liveness lost in cell {}",
                    cell.cell
                );
            }
        }
    }

    #[test]
    fn paxos_crash_recovery_regime_actually_recovers_and_costs_time() {
        let mk = |crash| QuorumConsensusCell {
            n: 5,
            crash,
            timeout_ticks: 40,
            max_timeouts: 12,
            net: NetProfile {
                latency: LatencyModel::Constant(1),
                ..NetProfile::lockstep()
            },
        };
        let grid = vec![
            mk(CrashRegime::None),
            mk(CrashRegime::CrashRecovery {
                after_events: 1,
                recover_at: 300,
            }),
        ];
        let results = SimRunner::new(12, 2_203).run_sequential(&PaxosScenario, &grid);
        let (clean, recover) = (&results[0].outcome, &results[1].outcome);
        assert_eq!(clean.decided.mean(), 1.0);
        assert_eq!(recover.decided.mean(), 1.0, "recovered process re-learns");
        assert!(
            recover.decide_time.mean() > clean.decide_time.mean(),
            "recovery cannot be free: {} vs {}",
            recover.decide_time.mean(),
            clean.decide_time.mean()
        );
    }

    #[test]
    fn async_runs_are_reproducible_from_the_replica_seed() {
        // heavy loss + mixed starts: outcomes genuinely vary by seed,
        // so reproducibility is not vacuous
        let cell = AsyncPhaseKingCell {
            n: 9,
            t: 2,
            behavior: FaultyBehavior::Garbage { seed: 1 },
            unanimous_start: false,
            net: NetProfile {
                latency: LatencyModel::UniformJitter { min: 0, max: 5 },
                scheduler: SchedulerSpec::Random { jitter: 3 },
                faults: LinkFaults::lossy(0.45).into(),
                round_ticks: 4,
                ..NetProfile::lockstep()
            },
        };
        let a = AsyncPhaseKingScenario.run(&cell, 123);
        let b = AsyncPhaseKingScenario.run(&cell, 123);
        assert_eq!(a, b);
        let differs = (124..140).any(|s| AsyncPhaseKingScenario.run(&cell, s) != a);
        assert!(differs, "16 different seeds should not all coincide");
    }
}
