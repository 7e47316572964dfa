//! Event-driven protocols running **directly** on [`EventNet`] — no
//! round adapter, no global clock.
//!
//! One shell, [`MachineProcess`], runs every [`EventMachine`] of
//! `bne-byzantine` as an [`AsyncProcess`]: every message the machine
//! wants out is multicast to all `n` processes (their own copy loops back
//! through the network like anyone else's, so quorums count uniformly).
//! Because progress is driven purely by arrivals, the protocols' running
//! time is whatever the latency model and scheduler make it — the random
//! variable experiments e20/e21 measure. The four protocols are aliases
//! of the shell that keep their own constructors:
//!
//! * [`BrachaProcess`] — Bracha reliable broadcast
//!   ([`bne_byzantine::bracha`]);
//! * [`BenOrProcess`] — Ben-Or randomized consensus
//!   ([`bne_byzantine::ben_or`]), with a per-process seeded coin;
//! * [`PaxosProcess`] — single-decree Paxos ([`bne_byzantine::paxos`]),
//!   with timeout-driven ballot escalation for leader failover and a
//!   durable acceptor snapshot for crash-recovery plans;
//! * [`HsucProcess`] — leader-driven rotating-coordinator consensus
//!   ([`bne_byzantine::hsuc`]), timeout-driven round advancement.
//!
//! [`BenOrNoiseProcess`] is a Byzantine participant injecting seeded
//! random reports and proposals for every round it observes. A
//! crashed-from-the-start participant needs no process type of its own:
//! `FaultPlan::crash_at_start(proc)` halts *any* process.

use crate::runtime::{AsyncProcess, DurableState, EventNet, NetCtx};
use bne_byzantine::ben_or::{BenOrMsg, BenOrSpec, BenOrState};
use bne_byzantine::bracha::{BrachaMsg, BrachaSpec, BrachaState};
use bne_byzantine::choice::SharedTap;
use bne_byzantine::event::EventMachine;
use bne_byzantine::hsuc::{HsucMsg, HsucState};
use bne_byzantine::paxos::{PaxosMsg, PaxosState};
use bne_byzantine::{ProcId, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Any [`EventMachine`] as an [`AsyncProcess`].
///
/// The machine is built from its spec at start, when the process learns
/// its id and `n`. Every message it appends to the shell's reused output
/// buffer is multicast to all `n` processes. A machine with a durable
/// fraction saves and restores it across planned crashes; one without
/// survives them whole (suspend/resume).
///
/// Processes built with a retry timer (Paxos and HSUC) arm it at start,
/// after each firing and on recovery, staggered by process id so
/// concurrent escalations do not duel forever under symmetric schedules.
/// An undecided process whose timer fires hands it to
/// [`EventMachine::timeout`]; once decided, or after its budget of
/// firings, a firing neither acts nor re-arms, so executions drain.
pub struct MachineProcess<S: EventMachine> {
    spec: S::Spec,
    /// `None` until `on_start` (and again never for a process crashed at
    /// start that has not recovered).
    state: Option<S>,
    /// The messages of one handler call, reused across calls; a fork
    /// starts with an empty one.
    out: Vec<S::Msg>,
    /// The retry timer's period and budget of firings, if it has one.
    retry: Option<(u64, u32)>,
    /// Retry-timer firings so far.
    fired: u32,
    probe: Option<Rc<Cell<Option<u64>>>>,
}

impl<S: EventMachine> MachineProcess<S> {
    /// A process built from `spec`, with a retry timer when `retry` gives
    /// its period and budget.
    fn build(spec: S::Spec, retry: Option<(u64, u32)>) -> Self {
        MachineProcess {
            spec,
            state: None,
            out: Vec::new(),
            retry,
            fired: 0,
            probe: None,
        }
    }

    /// Attaches a probe cell set to [`EventMachine::decision_round`] (Ben-Or
    /// and HSUC rounds, Paxos ballots) the moment the process decides;
    /// scenarios read it after the run. Replicas are single-threaded, so
    /// a shared `Rc<Cell<…>>` is safe.
    pub fn with_probe(mut self, probe: Rc<Cell<Option<u64>>>) -> Self {
        self.probe = Some(probe);
        self
    }

    fn flush(&mut self, ctx: &mut NetCtx<S::Msg>) {
        for m in self.out.drain(..) {
            ctx.multicast(0..ctx.n(), m);
        }
        if let (Some(probe), Some(state)) = (&self.probe, &self.state) {
            if probe.get().is_none() {
                probe.set(state.decision_round());
            }
        }
    }

    fn arm(&self, ctx: &mut NetCtx<S::Msg>) {
        if let Some((ticks, _)) = self.retry {
            ctx.set_timer(ticks + ctx.id() as u64, 0);
        }
    }
}

impl<S: EventMachine> AsyncProcess for MachineProcess<S> {
    type Msg = S::Msg;

    fn on_start(&mut self, ctx: &mut NetCtx<S::Msg>) {
        self.state = Some(S::start(ctx.id(), ctx.n(), &self.spec, &mut self.out));
        self.flush(ctx);
        self.arm(ctx);
    }

    fn on_message(&mut self, src: ProcId, msg: S::Msg, ctx: &mut NetCtx<S::Msg>) {
        let state = self.state.as_mut().expect("on_start ran");
        if state.halted() {
            return; // decided (or gave up): no further traffic
        }
        state.handle_into(src, &msg, &mut self.out);
        self.flush(ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<S::Msg>) {
        if self.timer_absorbed(timer) {
            return; // stop re-arming: let the execution drain
        }
        self.fired += 1;
        let state = self.state.as_mut().expect("on_start ran");
        state.timeout(&mut self.out);
        self.flush(ctx);
        self.arm(ctx);
    }

    fn on_recover(&mut self, ctx: &mut NetCtx<S::Msg>) {
        // pending timers were absorbed while crashed: re-arm, so the
        // next timeout runs a recovery ballot or round and re-learns
        self.arm(ctx);
    }

    fn save_durable(&self) -> Option<DurableState> {
        self.state.as_ref()?.durable_words().map(DurableState::from)
    }

    fn restore_durable(&mut self, state: &DurableState) {
        if let Some(s) = self.state.as_mut() {
            s.restore_durable(state.words());
        }
    }

    fn decision(&self) -> Option<u64> {
        self.state.as_ref().and_then(S::decision)
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = S::Msg>>> {
        // the probe (and a Ben-Or coin tap, in the spec and the state)
        // are Rc-shared, not duplicated: probes are a measurement channel
        // the checker does not read, and the tap is search state the
        // checker saves and restores itself
        Some(Box::new(MachineProcess {
            spec: self.spec.clone(),
            state: self.state.clone(),
            out: Vec::new(),
            retry: self.retry,
            fired: self.fired,
            probe: self.probe.clone(),
        }))
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.state_words_into(&mut out).then_some(out)
    }

    fn state_words_into(&self, out: &mut Vec<u64>) -> bool {
        out.push(u64::from(self.state.is_some()));
        // the firing count bounds future escalations, so it is part of
        // the reachable-behavior state
        if self.retry.is_some() {
            out.push(u64::from(self.fired));
        }
        self.state.as_ref().is_none_or(|s| s.state_words(out))
    }

    fn quiescent(&self) -> bool {
        self.state.as_ref().is_some_and(S::is_quiescent)
    }

    fn absorbs(&self, src: ProcId, msg: &S::Msg) -> bool {
        // sound for Paxos because the checker's faults are crash-stop
        // (injected crashes never recover), so the no-recovery caveat of
        // its `absorbs` holds
        self.state.as_ref().is_some_and(|s| s.absorbs(src, msg))
    }

    fn timer_absorbed(&self, _timer: u64) -> bool {
        // mirrors the `on_timer` early return: once decided or out of
        // retry budget a firing neither acts nor re-arms, and (under
        // crash-stop faults) both conditions are permanent
        self.retry
            .is_some_and(|(_, max)| self.fired >= max || self.decision().is_some())
    }
}

/// Bracha reliable broadcast as an [`AsyncProcess`].
///
/// Process `broadcaster` multicasts `Init(input)` at start; everyone else
/// reacts to arrivals only. [`AsyncProcess::decision`] is the delivered
/// value, so [`EventNet::decision_times`] reports per-process delivery
/// latency.
pub type BrachaProcess = MachineProcess<BrachaState>;

impl BrachaProcess {
    /// A participant with fault budget `t`; `input` is used only by the
    /// process whose id equals `broadcaster`.
    pub fn new(t: usize, broadcaster: ProcId, input: Value) -> Self {
        let spec = BrachaSpec {
            t,
            broadcaster,
            input,
            thresholds: None,
        };
        MachineProcess::build(spec, None)
    }

    /// Overrides the ready-amplification / delivery quorums (see
    /// [`BrachaSpec::thresholds`]): the mutation hook `bne-mc` self-tests
    /// use to plant quorum bugs the checker must catch.
    pub fn with_thresholds(mut self, amp_quorum: usize, deliver_quorum: usize) -> Self {
        self.spec.thresholds = Some((amp_quorum, deliver_quorum));
        self
    }
}

/// Ben-Or randomized binary consensus as an [`AsyncProcess`].
///
/// The coin seed must be derived per process (e.g.
/// `bne_sim::derive_seed(replica_seed, COIN_STREAM, id)`) so no two
/// processes share a coin stream. A probe
/// ([`MachineProcess::with_probe`]) exposes the decision round to the
/// scenario without downcasting.
pub type BenOrProcess = MachineProcess<BenOrState>;

impl BenOrProcess {
    /// A participant with fault budget `t`, initial preference `pref`,
    /// round cap `max_rounds` and private coin seed `coin_seed`.
    pub fn new(t: usize, pref: Value, max_rounds: u32, coin_seed: u64) -> Self {
        let spec = BenOrSpec {
            t,
            pref,
            max_rounds,
            coin_seed,
            coin_tap: None,
        };
        MachineProcess::build(spec, None)
    }

    /// Routes coin flips through a shared [`ChoiceTap`] instead of the
    /// seeded RNG (see [`BenOrSpec::coin_tap`]): the hook `bne-mc` uses
    /// to enumerate coin outcomes. Tapped processes have canonical
    /// [`AsyncProcess::state_words`], so the checker can deduplicate
    /// states; untapped ones do not (an RNG has no canonical encoding).
    ///
    /// [`ChoiceTap`]: bne_byzantine::choice::ChoiceTap
    pub fn with_coin_tap(mut self, tap: SharedTap) -> Self {
        self.spec.coin_tap = Some(tap);
        self
    }
}

/// Single-decree Paxos as an [`AsyncProcess`].
///
/// Process 0 opens ballot 1 at start; every process arms the retry timer
/// and, if still undecided when it fires, escalates to a fresh own
/// ballot — that timeout path is the leader failover mechanism the crash
/// plans of `e22` exercise.
///
/// The acceptor state (promise + accepted ballot/value) is durable
/// across planned crashes; the in-flight proposal, quorum tallies and
/// even the learned decision are volatile and are re-learned through a
/// fresh ballot after recovery ([`AsyncProcess::on_recover`] re-arms the
/// timer, since pending timers are absorbed while crashed). No
/// `quiescent` claim: even a decided acceptor keeps answering phase
/// messages and re-broadcasting `Decided`, so no Paxos process is ever
/// permanently silent while peers may still ask.
pub type PaxosProcess = MachineProcess<PaxosState>;

impl PaxosProcess {
    /// A participant proposing `input` when free to choose. The retry
    /// timer fires every `timeout_ticks` (staggered by id) at most
    /// `max_timeouts` times, bounding ballot escalation so executions
    /// always drain.
    pub fn new(input: Value, timeout_ticks: u64, max_timeouts: u32) -> Self {
        MachineProcess::build(input, Some((timeout_ticks, max_timeouts)))
    }
}

/// Leader-driven (HSUC-style) consensus as an [`AsyncProcess`].
///
/// Everyone enters round 1 at start (led by process 0); an undecided
/// process whose retry timer fires advances one round, rotating the
/// coordinator. Round entry is contagious through higher-round messages,
/// so one impatient process pulls the whole network forward — the
/// failover path the crash plans exercise.
///
/// The locked estimate pair and round counter are durable across
/// planned crashes; tallies and the decision are volatile (a recovered
/// process re-learns from decided peers' `Decide` rebroadcasts).
pub type HsucProcess = MachineProcess<HsucState>;

impl HsucProcess {
    /// A participant with initial estimate `input`; the retry timer
    /// fires every `timeout_ticks` (staggered by id) at most
    /// `max_timeouts` times.
    pub fn new(input: Value, timeout_ticks: u64, max_timeouts: u32) -> Self {
        MachineProcess::build(input, Some((timeout_ticks, max_timeouts)))
    }
}

/// A Byzantine Ben-Or participant: the first time it sees traffic for a
/// round, it multicasts a seeded-random report **and** proposal for that
/// round (valid-looking votes with adversarial content — the strongest
/// canned noise the quorum tallies will accept). It never decides and
/// never halts, but sends at most two multicasts per observed round, so
/// executions stay bounded.
pub struct BenOrNoiseProcess {
    seed: u64,
    rng: Option<StdRng>,
    rounds_hit: BTreeSet<u32>,
}

impl BenOrNoiseProcess {
    /// A noise adversary with its own seed (derive it per process and per
    /// replica via `bne_sim::derive_seed`).
    pub fn new(seed: u64) -> Self {
        BenOrNoiseProcess {
            seed,
            rng: None,
            rounds_hit: BTreeSet::new(),
        }
    }
}

impl AsyncProcess for BenOrNoiseProcess {
    type Msg = BenOrMsg;

    fn on_start(&mut self, ctx: &mut NetCtx<BenOrMsg>) {
        // separate the stream per process id so colocated adversaries
        // sharing a base seed do not mirror each other
        self.rng = Some(StdRng::seed_from_u64(bne_sim::derive_seed(
            self.seed,
            ctx.id() as u64,
            0,
        )));
    }

    fn on_message(&mut self, _src: ProcId, msg: BenOrMsg, ctx: &mut NetCtx<BenOrMsg>) {
        let round = match msg {
            BenOrMsg::Report { round, .. } | BenOrMsg::Proposal { round, .. } => round,
            BenOrMsg::Decided { .. } => return,
        };
        if !self.rounds_hit.insert(round) {
            return;
        }
        let rng = self.rng.as_mut().expect("on_start ran");
        let report = rng.random_range(0..2u64);
        let proposal = if rng.random_bool(0.5) {
            Some(rng.random_range(0..2u64))
        } else {
            None
        };
        ctx.multicast(
            0..ctx.n(),
            BenOrMsg::Report {
                round,
                value: report,
            },
        );
        ctx.multicast(
            0..ctx.n(),
            BenOrMsg::Proposal {
                round,
                value: proposal,
            },
        );
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Convenience: runs a full honest Bracha broadcast (process 0
/// broadcasting `input`) on `cfg`, returning the drained network.
///
/// # Panics
///
/// Panics if the event queue fails to drain within `max_events` — a
/// truncated execution would silently masquerade as a protocol-property
/// violation downstream.
pub fn run_bracha(
    n: usize,
    t: usize,
    input: Value,
    cfg: crate::model::NetConfig,
    max_events: usize,
) -> EventNet<BrachaMsg> {
    let procs = (0..n)
        .map(|_| Box::new(BrachaProcess::new(t, 0, input)) as _)
        .collect();
    run_drained("bracha", procs, cfg, max_events)
}

/// Convenience: runs a full Paxos network (process `i` proposing
/// `inputs[i]` when free to choose) on `cfg`, returning the drained
/// network. Fault injection goes through `cfg`'s fault plan.
///
/// # Panics
///
/// Panics if the event queue fails to drain within `max_events`.
pub fn run_paxos(
    inputs: &[Value],
    timeout_ticks: u64,
    max_timeouts: u32,
    cfg: crate::model::NetConfig,
    max_events: usize,
) -> EventNet<PaxosMsg> {
    let procs = inputs
        .iter()
        .map(|&v| Box::new(PaxosProcess::new(v, timeout_ticks, max_timeouts)) as _)
        .collect();
    run_drained("paxos", procs, cfg, max_events)
}

/// Convenience: runs a full HSUC-style network (process `i` with initial
/// estimate `inputs[i]`) on `cfg`, returning the drained network.
///
/// # Panics
///
/// Panics if the event queue fails to drain within `max_events`.
pub fn run_hsuc(
    inputs: &[Value],
    timeout_ticks: u64,
    max_timeouts: u32,
    cfg: crate::model::NetConfig,
    max_events: usize,
) -> EventNet<HsucMsg> {
    let procs = inputs
        .iter()
        .map(|&v| Box::new(HsucProcess::new(v, timeout_ticks, max_timeouts)) as _)
        .collect();
    run_drained("hsuc", procs, cfg, max_events)
}

/// Runs `procs` on `cfg` until the queue drains, panicking, with the
/// protocol's `name`, if it has not drained within `max_events`.
fn run_drained<M: Clone>(
    name: &str,
    procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
    cfg: crate::model::NetConfig,
    max_events: usize,
) -> EventNet<M> {
    let mut net = EventNet::new(procs, cfg);
    assert!(
        net.run(max_events),
        "{name} event queue did not drain within {max_events} events"
    );
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FaultPlan, LatencyModel, LinkFaults, NetConfig, SchedulerPolicy};
    use crate::runtime::IdleProcess;

    #[test]
    fn bracha_delivers_everywhere_on_a_clean_network() {
        let net = run_bracha(7, 2, 1, NetConfig::lockstep(3), 100_000);
        assert_eq!(net.decisions(), vec![Some(1); 7]);
        // zero latency: everything happens at virtual time 0
        assert!(net.decision_times().iter().all(|t| *t == Some(0)));
    }

    #[test]
    fn bracha_latency_is_the_echo_ready_pipeline_depth() {
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        };
        let net = run_bracha(4, 1, 1, cfg, 100_000);
        assert_eq!(net.decisions(), vec![Some(1); 4]);
        // init (1 tick) → echo (1) → ready (1): deliveries at tick 3
        assert!(net.decision_times().iter().all(|t| *t == Some(3)));
    }

    #[test]
    fn ben_or_unanimous_lockstep_decides_in_round_one() {
        let probes: Vec<Rc<Cell<Option<u64>>>> = (0..5).map(|_| Rc::new(Cell::new(None))).collect();
        let procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = (0..5)
            .map(|i| {
                Box::new(
                    BenOrProcess::new(1, 1, 30, 100 + i as u64).with_probe(Rc::clone(&probes[i])),
                ) as _
            })
            .collect();
        let mut net = EventNet::new(procs, NetConfig::lockstep(0));
        assert!(net.run(1_000_000));
        assert_eq!(net.decisions(), vec![Some(1); 5]);
        assert!(probes.iter().all(|p| p.get() == Some(1)));
    }

    #[test]
    fn ben_or_mixed_starts_agree_under_random_scheduling() {
        let cfg = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 3 },
            scheduler: SchedulerPolicy::RandomInterleave { seed: 5, jitter: 2 },
            ..NetConfig::lockstep(11)
        };
        let procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = (0..6)
            .map(|i| Box::new(BenOrProcess::new(1, (i % 2) as u64, 60, 200 + i as u64)) as _)
            .collect();
        let mut net = EventNet::new(procs, cfg);
        assert!(net.run(5_000_000));
        let decisions = net.decisions();
        let first = decisions[0].expect("decides");
        assert!(decisions.iter().all(|d| *d == Some(first)), "{decisions:?}");
    }

    #[test]
    fn ben_or_tolerates_silent_and_noisy_faults() {
        for noisy in [false, true] {
            // n = 11, t = 2: quorums survive two non-participating or
            // actively noisy processes
            let n = 11;
            let procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = (0..n)
                .map(|i| -> Box<dyn AsyncProcess<Msg = BenOrMsg>> {
                    if i >= n - 2 {
                        if noisy {
                            Box::new(BenOrNoiseProcess::new(900 + i as u64))
                        } else {
                            Box::new(IdleProcess::new())
                        }
                    } else {
                        Box::new(BenOrProcess::new(2, (i % 2) as u64, 80, 300 + i as u64))
                    }
                })
                .collect();
            let mut net = EventNet::new(procs, NetConfig::lockstep(17));
            assert!(net.run(10_000_000));
            let honest: Vec<Option<u64>> = net.decisions()[..n - 2].to_vec();
            let first = honest[0].expect("decides despite faults");
            assert!(honest.iter().all(|d| *d == Some(first)), "noisy={noisy}");
        }
    }

    #[test]
    fn paxos_clean_network_decides_the_first_proposers_input() {
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        };
        let net = run_paxos(&[7, 8, 9, 10, 11], 100, 10, cfg, 1_000_000);
        assert_eq!(net.decisions(), vec![Some(7); 5]);
        // P1a → P1b → P2a → P2b: four hops of constant latency 1
        assert!(net.decision_times().iter().all(|t| *t == Some(4)));
    }

    #[test]
    fn paxos_survives_a_crashed_initial_proposer_via_failover() {
        // process 0 (owner of ballot 1) is crashed from the start: the
        // others' retry timers escalate to their own ballots and a
        // majority of the 4 survivors (of n = 5) decides
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        }
        .fault_plan(FaultPlan::none().crash_at_start(0));
        let net = run_paxos(&[7, 8, 9, 10, 11], 20, 10, cfg, 1_000_000);
        let decisions = net.decisions();
        assert_eq!(decisions[0], None, "crashed process never decides");
        let survivors: Vec<u64> = decisions[1..].iter().map(|d| d.expect("decides")).collect();
        assert!(
            survivors.iter().all(|&v| v == survivors[0]),
            "{decisions:?}"
        );
        assert_eq!(net.stats().recoveries, vec![0; 5]);
    }

    #[test]
    fn hsuc_clean_network_decides_round_one() {
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        };
        let net = run_hsuc(&[3, 4, 5, 6, 7], 100, 10, cfg, 1_000_000);
        assert_eq!(net.decisions(), vec![Some(3); 5]);
    }

    #[test]
    fn hsuc_rotates_past_a_crashed_leader() {
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        }
        .fault_plan(FaultPlan::none().crash_at_start(0));
        let net = run_hsuc(&[3, 4, 5, 6, 7], 20, 10, cfg, 1_000_000);
        let decisions = net.decisions();
        assert_eq!(decisions[0], None);
        let survivors: Vec<u64> = decisions[1..].iter().map(|d| d.expect("decides")).collect();
        assert!(
            survivors.iter().all(|&v| v == survivors[0]),
            "{decisions:?}"
        );
    }

    #[test]
    fn paxos_recovers_a_crashed_acceptor_and_relearns_the_decision() {
        // process 2 crashes after its first handled event and recovers
        // at t = 200, after the others decided: its recovery ballot must
        // re-learn the already-chosen value (quorum intersection)
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(0)
        }
        .fault_plan(FaultPlan::none().crash(2, 1).recover_at(200));
        let net = run_paxos(&[7, 8, 9], 30, 20, cfg, 1_000_000);
        let decisions = net.decisions();
        assert_eq!(net.stats().recoveries, vec![0, 0, 1]);
        assert_eq!(
            decisions,
            vec![Some(7); 3],
            "recovered process re-learns the chosen value"
        );
    }

    /// Starts `p` as process 0 of `n` and delivers `msgs` from processes
    /// 1, 2, …; then fires its timer while one is armed, recording
    /// [`AsyncProcess::timer_absorbed`] before each firing.
    fn absorbed_per_firing<P: AsyncProcess>(p: &mut P, n: usize, msgs: &[P::Msg]) -> Vec<bool> {
        let mut ctx = NetCtx::new(0, n, 0);
        p.on_start(&mut ctx);
        for (i, msg) in msgs.iter().enumerate() {
            p.on_message(i + 1, msg.clone(), &mut ctx);
        }
        let mut absorbed = Vec::new();
        while ctx.drain_actions().timers.count() > 0 {
            absorbed.push(p.timer_absorbed(0));
            p.on_timer(0, &mut ctx);
        }
        absorbed
    }

    #[test]
    fn only_paxos_and_hsuc_arm_a_timer_and_absorb_it_once_spent() {
        // process 0 of 3 hears nothing back, so it stays undecided and
        // only its budget of two firings ends the timer
        let mut paxos = PaxosProcess::new(7, 5, 2);
        assert_eq!(
            absorbed_per_firing(&mut paxos, 3, &[]),
            [false, false, true]
        );
        let mut hsuc = HsucProcess::new(7, 5, 2);
        assert_eq!(absorbed_per_firing(&mut hsuc, 3, &[]), [false, false, true]);
        assert_eq!((paxos.decision(), hsuc.decision()), (None, None));
        // a decision before the first firing absorbs it, budget or not
        let mut paxos = PaxosProcess::new(7, 5, 2);
        let decided = [PaxosMsg::Decided {
            ballot: 2,
            value: 8,
        }];
        assert_eq!(absorbed_per_firing(&mut paxos, 3, &decided), [true]);
        let mut hsuc = HsucProcess::new(7, 5, 2);
        let decided = [HsucMsg::Decide { round: 2, value: 8 }];
        assert_eq!(absorbed_per_firing(&mut hsuc, 3, &decided), [true]);
        assert_eq!((paxos.decision(), hsuc.decision()), (Some(8), Some(8)));

        // Bracha and Ben-Or (n = 4, t = 1) arm no timer and absorb none,
        // undecided or decided
        for msgs in [vec![], vec![BrachaMsg::Ready(1); 3]] {
            let mut bracha = BrachaProcess::new(1, 0, 1);
            assert!(absorbed_per_firing(&mut bracha, 4, &msgs).is_empty());
            assert!(!bracha.timer_absorbed(0));
            assert_eq!(bracha.decision().is_some(), !msgs.is_empty());
        }
        for msgs in [vec![], vec![BenOrMsg::Decided { value: 1 }; 3]] {
            let mut ben_or = BenOrProcess::new(1, 1, 5, 9);
            assert!(absorbed_per_firing(&mut ben_or, 4, &msgs).is_empty());
            assert!(!ben_or.timer_absorbed(0));
            assert_eq!(ben_or.decision().is_some(), !msgs.is_empty());
        }
    }

    #[test]
    fn bracha_runs_are_seed_deterministic() {
        let cfg = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 4 },
            scheduler: SchedulerPolicy::RandomInterleave { seed: 2, jitter: 3 },
            faults: LinkFaults::lossy(0.2).into(),
            ..NetConfig::lockstep(9)
        }
        .with_trace();
        let a = run_bracha(6, 1, 1, cfg.clone(), 100_000);
        let b = run_bracha(6, 1, 1, cfg, 100_000);
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.decision_times(), b.decision_times());
    }
}
