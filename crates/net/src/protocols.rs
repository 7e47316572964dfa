//! Event-driven protocols running **directly** on [`EventNet`] — no
//! round adapter, no global clock.
//!
//! These are thin [`AsyncProcess`] shells over the runtime-agnostic state
//! machines in `bne-byzantine`: every message the machine wants out is
//! multicast to all `n` processes (their own copy loops back through the
//! network like anyone else's, so quorums count uniformly). Because
//! progress is driven purely by arrivals, the protocols' running time is
//! whatever the latency model and scheduler make it — the random variable
//! experiments e20/e21 measure.
//!
//! * [`BrachaProcess`] — Bracha reliable broadcast
//!   ([`bne_byzantine::bracha`]);
//! * [`BenOrProcess`] — Ben-Or randomized consensus
//!   ([`bne_byzantine::ben_or`]), with a per-process seeded coin and a
//!   round probe for measuring rounds-to-decide;
//! * [`PaxosProcess`] — single-decree Paxos ([`bne_byzantine::paxos`]),
//!   with timeout-driven ballot escalation for leader failover and a
//!   durable acceptor snapshot for crash-recovery plans;
//! * [`HsucProcess`] — leader-driven rotating-coordinator consensus
//!   ([`bne_byzantine::hsuc`]), timeout-driven round advancement;
//! * [`BenOrNoiseProcess`] — a Byzantine participant injecting seeded
//!   random reports and proposals for every round it observes.
//!
//! A crashed-from-the-start participant needs no process type of its own:
//! `FaultPlan::crash_at_start(proc)` halts *any* process.

use crate::runtime::{AsyncProcess, DurableState, EventNet, NetCtx};
use bne_byzantine::ben_or::{BenOrMsg, BenOrState};
use bne_byzantine::bracha::{BrachaMsg, BrachaState};
use bne_byzantine::choice::SharedTap;
use bne_byzantine::hsuc::{HsucMsg, HsucState};
use bne_byzantine::paxos::{PaxosMsg, PaxosState};
use bne_byzantine::{ProcId, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Bracha reliable broadcast as an [`AsyncProcess`].
///
/// Process `broadcaster` multicasts `Init(input)` at start; everyone else
/// reacts to arrivals only. [`AsyncProcess::decision`] is the delivered
/// value, so [`EventNet::decision_times`] reports per-process delivery
/// latency.
pub struct BrachaProcess {
    t: usize,
    broadcaster: ProcId,
    input: Value,
    state: Option<BrachaState>,
    /// Quorum overrides `(amp, deliver)` forwarded to
    /// [`BrachaState::with_thresholds`] — the model checker's planted-bug
    /// hook. `None` = the real protocol.
    thresholds: Option<(usize, usize)>,
}

impl BrachaProcess {
    /// A participant with fault budget `t`; `input` is used only by the
    /// process whose id equals `broadcaster`.
    pub fn new(t: usize, broadcaster: ProcId, input: Value) -> Self {
        BrachaProcess {
            t,
            broadcaster,
            input,
            state: None,
            thresholds: None,
        }
    }

    /// Overrides the ready-amplification / delivery quorums (see
    /// [`BrachaState::with_thresholds`]): the mutation hook `bne-mc`
    /// self-tests use to plant quorum bugs the checker must catch.
    pub fn with_thresholds(mut self, amp_quorum: usize, deliver_quorum: usize) -> Self {
        self.thresholds = Some((amp_quorum, deliver_quorum));
        self
    }
}

impl AsyncProcess for BrachaProcess {
    type Msg = BrachaMsg;

    fn on_start(&mut self, ctx: &mut NetCtx<BrachaMsg>) {
        let mut state = BrachaState::new(ctx.id(), ctx.n(), self.t, self.broadcaster);
        if let Some((amp, deliver)) = self.thresholds {
            state = state.with_thresholds(amp, deliver);
        }
        for m in state.start(self.input) {
            ctx.multicast(0..ctx.n(), m);
        }
        self.state = Some(state);
    }

    fn on_message(&mut self, src: ProcId, msg: BrachaMsg, ctx: &mut NetCtx<BrachaMsg>) {
        let state = self.state.as_mut().expect("on_start ran");
        for m in state.handle(src, &msg) {
            ctx.multicast(0..ctx.n(), m);
        }
    }

    fn quiescent(&self) -> bool {
        self.state.as_ref().is_some_and(BrachaState::is_quiescent)
    }

    fn absorbs(&self, src: ProcId, msg: &BrachaMsg) -> bool {
        self.state.as_ref().is_some_and(|s| s.absorbs(src, msg))
    }

    fn save_durable(&self) -> Option<DurableState> {
        self.state
            .as_ref()
            .map(|s| DurableState::from(s.durable_words()))
    }

    fn restore_durable(&mut self, state: &DurableState) {
        if let Some(s) = self.state.as_mut() {
            s.restore_durable(state.words());
        }
    }

    fn decision(&self) -> Option<u64> {
        self.state.as_ref().and_then(|s| s.delivered())
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = BrachaMsg>>> {
        Some(Box::new(BrachaProcess {
            t: self.t,
            broadcaster: self.broadcaster,
            input: self.input,
            state: self.state.clone(),
            thresholds: self.thresholds,
        }))
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.state_words_into(&mut out).then_some(out)
    }

    fn state_words_into(&self, out: &mut Vec<u64>) -> bool {
        out.push(u64::from(self.state.is_some()));
        if let Some(state) = &self.state {
            state.state_words(out);
        }
        true
    }
}

/// Ben-Or randomized binary consensus as an [`AsyncProcess`].
///
/// The coin seed must be derived per process (e.g.
/// `bne_sim::derive_seed(replica_seed, COIN_STREAM, id)`) so no two
/// processes share a coin stream. An optional round probe
/// ([`BenOrProcess::with_round_probe`]) exposes the decision round to the
/// scenario without downcasting.
pub struct BenOrProcess {
    t: usize,
    pref: Value,
    max_rounds: u32,
    coin_seed: u64,
    state: Option<BenOrState>,
    /// The messages of one handler call, reused across calls.
    out: Vec<BenOrMsg>,
    round_probe: Option<Rc<Cell<Option<u32>>>>,
    coin_tap: Option<SharedTap>,
}

impl BenOrProcess {
    /// A participant with fault budget `t`, initial preference `pref`,
    /// round cap `max_rounds` and private coin seed `coin_seed`.
    pub fn new(t: usize, pref: Value, max_rounds: u32, coin_seed: u64) -> Self {
        BenOrProcess {
            t,
            pref,
            max_rounds,
            coin_seed,
            state: None,
            out: Vec::new(),
            round_probe: None,
            coin_tap: None,
        }
    }

    /// Routes coin flips through a shared [`ChoiceTap`] instead of the
    /// seeded RNG (see [`BenOrState::with_coin_tap`]): the hook `bne-mc`
    /// uses to enumerate coin outcomes. Tapped processes have canonical
    /// [`AsyncProcess::state_words`], so the checker can deduplicate
    /// states; untapped ones do not (an RNG has no canonical encoding).
    ///
    /// [`ChoiceTap`]: bne_byzantine::choice::ChoiceTap
    pub fn with_coin_tap(mut self, tap: SharedTap) -> Self {
        self.coin_tap = Some(tap);
        self
    }

    /// Attaches a probe cell that is set to the decision round the moment
    /// the process decides (scenarios read it after the run; replicas are
    /// single-threaded, so a shared `Rc<Cell<…>>` is safe).
    pub fn with_round_probe(mut self, probe: Rc<Cell<Option<u32>>>) -> Self {
        self.round_probe = Some(probe);
        self
    }

    fn flush(&mut self, ctx: &mut NetCtx<BenOrMsg>) {
        for m in self.out.drain(..) {
            ctx.multicast(0..ctx.n(), m);
        }
        if let (Some(probe), Some(state)) = (&self.round_probe, &self.state) {
            if probe.get().is_none() {
                probe.set(state.decided_round());
            }
        }
    }
}

impl AsyncProcess for BenOrProcess {
    type Msg = BenOrMsg;

    fn on_start(&mut self, ctx: &mut NetCtx<BenOrMsg>) {
        let mut state = BenOrState::new(
            ctx.id(),
            ctx.n(),
            self.t,
            self.pref,
            self.max_rounds,
            self.coin_seed,
        );
        if let Some(tap) = &self.coin_tap {
            state = state.with_coin_tap(Rc::clone(tap));
        }
        self.out = state.start();
        self.state = Some(state);
        self.flush(ctx);
    }

    fn on_message(&mut self, src: ProcId, msg: BenOrMsg, ctx: &mut NetCtx<BenOrMsg>) {
        let state = self.state.as_mut().expect("on_start ran");
        if state.halted() {
            return; // decided (or gave up): no further traffic
        }
        state.handle_into(src, &msg, &mut self.out);
        self.flush(ctx);
    }

    fn decision(&self) -> Option<u64> {
        self.state.as_ref().and_then(|s| s.decided())
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = BenOrMsg>>> {
        // the probe and tap are Rc-shared, not duplicated: probes are a
        // measurement channel the checker does not read, and the tap is
        // search state the checker saves/restores itself
        Some(Box::new(BenOrProcess {
            t: self.t,
            pref: self.pref,
            max_rounds: self.max_rounds,
            coin_seed: self.coin_seed,
            state: self.state.clone(),
            out: Vec::new(),
            round_probe: self.round_probe.as_ref().map(Rc::clone),
            coin_tap: self.coin_tap.as_ref().map(Rc::clone),
        }))
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.state_words_into(&mut out).then_some(out)
    }

    fn state_words_into(&self, out: &mut Vec<u64>) -> bool {
        out.push(u64::from(self.state.is_some()));
        self.state
            .as_ref()
            .is_none_or(|state| state.state_words(out))
    }

    fn quiescent(&self) -> bool {
        self.state.as_ref().is_some_and(BenOrState::is_quiescent)
    }

    fn absorbs(&self, src: ProcId, msg: &BenOrMsg) -> bool {
        self.state.as_ref().is_some_and(|s| s.absorbs(src, msg))
    }
}

/// Single-decree Paxos as an [`AsyncProcess`].
///
/// Process 0 opens ballot 1 at start; every process arms a retry timer
/// and, if still undecided when it fires, escalates to a fresh own
/// ballot ([`PaxosState::on_timeout`]) — that timeout path is the leader
/// failover mechanism the crash plans of `e22` exercise. Timers are
/// staggered by process id so concurrent escalations do not duel
/// forever under symmetric schedules.
///
/// The acceptor state (promise + accepted ballot/value) is durable
/// across planned crashes; the in-flight proposal, quorum tallies and
/// even the learned decision are volatile and are re-learned through a
/// fresh ballot after recovery ([`AsyncProcess::on_recover`] re-arms the
/// timer, since pending timers are absorbed while crashed).
pub struct PaxosProcess {
    input: Value,
    timeout_ticks: u64,
    max_timeouts: u32,
    timeouts: u32,
    state: Option<PaxosState>,
    ballot_probe: Option<Rc<Cell<Option<u64>>>>,
}

impl PaxosProcess {
    /// A participant proposing `input` when free to choose. The retry
    /// timer fires every `timeout_ticks` (staggered by id) at most
    /// `max_timeouts` times, bounding ballot escalation so executions
    /// always drain.
    pub fn new(input: Value, timeout_ticks: u64, max_timeouts: u32) -> Self {
        PaxosProcess {
            input,
            timeout_ticks,
            max_timeouts,
            timeouts: 0,
            state: None,
            ballot_probe: None,
        }
    }

    /// Attaches a probe cell set to the deciding ballot the moment this
    /// process decides (scenarios read it after the run).
    pub fn with_ballot_probe(mut self, probe: Rc<Cell<Option<u64>>>) -> Self {
        self.ballot_probe = Some(probe);
        self
    }

    fn arm(&self, ctx: &mut NetCtx<PaxosMsg>) {
        ctx.set_timer(self.timeout_ticks + ctx.id() as u64, 0);
    }

    fn flush(&mut self, out: Vec<PaxosMsg>, ctx: &mut NetCtx<PaxosMsg>) {
        for m in out {
            ctx.multicast(0..ctx.n(), m);
        }
        if let (Some(probe), Some(state)) = (&self.ballot_probe, &self.state) {
            if probe.get().is_none() {
                probe.set(state.decided_ballot());
            }
        }
    }

    fn decided(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.decided().is_some())
    }
}

impl AsyncProcess for PaxosProcess {
    type Msg = PaxosMsg;

    fn on_start(&mut self, ctx: &mut NetCtx<PaxosMsg>) {
        let mut state = PaxosState::new(ctx.id(), ctx.n(), self.input);
        let out = state.start();
        self.state = Some(state);
        self.flush(out, ctx);
        self.arm(ctx);
    }

    fn on_message(&mut self, src: ProcId, msg: PaxosMsg, ctx: &mut NetCtx<PaxosMsg>) {
        let state = self.state.as_mut().expect("on_start ran");
        let out = state.handle(src, &msg);
        self.flush(out, ctx);
    }

    fn on_timer(&mut self, _timer: u64, ctx: &mut NetCtx<PaxosMsg>) {
        if self.decided() || self.timeouts >= self.max_timeouts {
            return; // stop re-arming: let the execution drain
        }
        self.timeouts += 1;
        let out = self.state.as_mut().expect("on_start ran").on_timeout();
        self.flush(out, ctx);
        self.arm(ctx);
    }

    fn on_recover(&mut self, ctx: &mut NetCtx<PaxosMsg>) {
        // pending timers were absorbed while crashed: re-arm, so the
        // next timeout runs a recovery ballot and re-learns the value
        self.arm(ctx);
    }

    fn save_durable(&self) -> Option<DurableState> {
        self.state
            .as_ref()
            .map(|s| DurableState::from(s.durable_words()))
    }

    fn restore_durable(&mut self, state: &DurableState) {
        if let Some(s) = self.state.as_mut() {
            s.restore_durable(state.words());
        }
    }

    fn decision(&self) -> Option<u64> {
        self.state.as_ref().and_then(|s| s.decided())
    }

    // no `quiescent` override: even a decided acceptor keeps answering
    // phase messages and re-broadcasting `Decided`, so no Paxos process
    // is ever permanently silent while peers may still ask.
    fn timer_absorbed(&self, _timer: u64) -> bool {
        // mirrors the `on_timer` early return: once decided or out of
        // retry budget a firing neither acts nor re-arms, and (under
        // crash-stop faults) both conditions are permanent
        self.decided() || self.timeouts >= self.max_timeouts
    }

    fn absorbs(&self, src: ProcId, msg: &PaxosMsg) -> bool {
        // sound here because the checker's faults are crash-stop
        // (injected crashes never recover), so `PaxosState::absorbs`'s
        // no-recovery caveat holds
        self.state.as_ref().is_some_and(|s| s.absorbs(src, msg))
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = PaxosMsg>>> {
        Some(Box::new(PaxosProcess {
            input: self.input,
            timeout_ticks: self.timeout_ticks,
            max_timeouts: self.max_timeouts,
            timeouts: self.timeouts,
            state: self.state.clone(),
            ballot_probe: self.ballot_probe.as_ref().map(Rc::clone),
        }))
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.state_words_into(&mut out).then_some(out)
    }

    fn state_words_into(&self, out: &mut Vec<u64>) -> bool {
        // the timeout counter bounds future escalations, so it is part
        // of the reachable-behavior state
        out.extend([u64::from(self.state.is_some()), u64::from(self.timeouts)]);
        if let Some(state) = &self.state {
            state.state_words(out);
        }
        true
    }
}

/// Leader-driven (HSUC-style) consensus as an [`AsyncProcess`].
///
/// Everyone enters round 1 at start (led by process 0); an undecided
/// process whose retry timer fires advances one round, rotating the
/// coordinator ([`HsucState::on_timeout`]). Round entry is contagious
/// through higher-round messages, so one impatient process pulls the
/// whole network forward — the failover path the crash plans exercise.
///
/// The locked estimate pair and round counter are durable across
/// planned crashes; tallies and the decision are volatile (a recovered
/// process re-learns from decided peers' `Decide` rebroadcasts).
pub struct HsucProcess {
    input: Value,
    timeout_ticks: u64,
    max_timeouts: u32,
    timeouts: u32,
    state: Option<HsucState>,
    round_probe: Option<Rc<Cell<Option<u64>>>>,
}

impl HsucProcess {
    /// A participant with initial estimate `input`; the retry timer
    /// fires every `timeout_ticks` (staggered by id) at most
    /// `max_timeouts` times.
    pub fn new(input: Value, timeout_ticks: u64, max_timeouts: u32) -> Self {
        HsucProcess {
            input,
            timeout_ticks,
            max_timeouts,
            timeouts: 0,
            state: None,
            round_probe: None,
        }
    }

    /// Attaches a probe cell set to the deciding round the moment this
    /// process decides.
    pub fn with_round_probe(mut self, probe: Rc<Cell<Option<u64>>>) -> Self {
        self.round_probe = Some(probe);
        self
    }

    fn arm(&self, ctx: &mut NetCtx<HsucMsg>) {
        ctx.set_timer(self.timeout_ticks + ctx.id() as u64, 0);
    }

    fn flush(&mut self, out: Vec<HsucMsg>, ctx: &mut NetCtx<HsucMsg>) {
        for m in out {
            ctx.multicast(0..ctx.n(), m);
        }
        if let (Some(probe), Some(state)) = (&self.round_probe, &self.state) {
            if probe.get().is_none() {
                probe.set(state.decided_round());
            }
        }
    }

    fn decided(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.decided().is_some())
    }
}

impl AsyncProcess for HsucProcess {
    type Msg = HsucMsg;

    fn on_start(&mut self, ctx: &mut NetCtx<HsucMsg>) {
        let mut state = HsucState::new(ctx.id(), ctx.n(), self.input);
        let out = state.start();
        self.state = Some(state);
        self.flush(out, ctx);
        self.arm(ctx);
    }

    fn on_message(&mut self, src: ProcId, msg: HsucMsg, ctx: &mut NetCtx<HsucMsg>) {
        let state = self.state.as_mut().expect("on_start ran");
        let out = state.handle(src, &msg);
        self.flush(out, ctx);
    }

    fn on_timer(&mut self, _timer: u64, ctx: &mut NetCtx<HsucMsg>) {
        if self.decided() || self.timeouts >= self.max_timeouts {
            return;
        }
        self.timeouts += 1;
        let out = self.state.as_mut().expect("on_start ran").on_timeout();
        self.flush(out, ctx);
        self.arm(ctx);
    }

    fn on_recover(&mut self, ctx: &mut NetCtx<HsucMsg>) {
        self.arm(ctx);
    }

    fn save_durable(&self) -> Option<DurableState> {
        self.state
            .as_ref()
            .map(|s| DurableState::from(s.durable_words()))
    }

    fn restore_durable(&mut self, state: &DurableState) {
        if let Some(s) = self.state.as_mut() {
            s.restore_durable(state.words());
        }
    }

    fn decision(&self) -> Option<u64> {
        self.state.as_ref().and_then(|s| s.decided())
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
    let procs: Vec<Box<dyn AsyncProcess<Msg = BrachaMsg>>> = (0..n)
        .map(|_| Box::new(BrachaProcess::new(t, 0, input)) as _)
        .collect();
    let mut net = EventNet::new(procs, cfg);
    assert!(
        net.run(max_events),
        "bracha event queue did not drain within {max_events} events"
    );
    net
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
    let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = inputs
        .iter()
        .map(|&v| Box::new(PaxosProcess::new(v, timeout_ticks, max_timeouts)) as _)
        .collect();
    let mut net = EventNet::new(procs, cfg);
    assert!(
        net.run(max_events),
        "paxos event queue did not drain within {max_events} events"
    );
    net
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
    let procs: Vec<Box<dyn AsyncProcess<Msg = HsucMsg>>> = inputs
        .iter()
        .map(|&v| Box::new(HsucProcess::new(v, timeout_ticks, max_timeouts)) as _)
        .collect();
    let mut net = EventNet::new(procs, cfg);
    assert!(
        net.run(max_events),
        "hsuc event queue did not drain within {max_events} events"
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
        let probes: Vec<Rc<Cell<Option<u32>>>> = (0..5).map(|_| Rc::new(Cell::new(None))).collect();
        let procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = (0..5)
            .map(|i| {
                Box::new(
                    BenOrProcess::new(1, 1, 30, 100 + i as u64)
                        .with_round_probe(Rc::clone(&probes[i])),
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
