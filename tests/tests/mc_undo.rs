//! Undo returns the net exactly.
//!
//! The model checker backtracks by undoing each step
//! ([`EventNet::step_undoable`] / [`EventNet::inject_crash_undoable`] →
//! [`EventNet::undo`]) instead of restoring a copy of the whole net, so
//! every field a step can touch must come back. These walks go forward
//! along random schedules with random injected crashes, dump everything
//! observable at each level, then undo to the root and require each
//! level's dump to reappear, and each undone step, taken again, to
//! reach its old dump. They cover both queue implementations, a
//! retry timer beyond the timing wheel's 64-tick horizon (it waits in the
//! overflow heap) and a planned crash with recovery.

use bne_core::byzantine::paxos::PaxosMsg;
use bne_core::mc::scenario::mc_config;
use bne_core::mc::McWords;
use bne_core::net::{
    AsyncProcess, EnabledKind, EventNet, FaultPlan, NetConfig, NetStats, PaxosProcess, QueueImpl,
    Undo,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Everything observable about a net.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Dump {
    /// `(time, tie, seq, kind, payload words)` of each pending event.
    events: Vec<(u64, u64, u64, EnabledKind, Vec<u64>)>,
    state_words: Vec<Option<Vec<u64>>>,
    decisions: Vec<Option<u64>>,
    decision_times: Vec<Option<u64>>,
    lamport: Vec<u64>,
    stats: NetStats,
    now: u64,
}

fn dump(net: &EventNet<PaxosMsg>) -> Dump {
    Dump {
        events: net
            .enabled_events()
            .iter()
            .map(|ev| {
                let mut words = Vec::new();
                if let Some(msg) = net.event_msg(ev) {
                    msg.words(&mut words);
                }
                (ev.time, ev.tie, ev.seq, ev.kind, words)
            })
            .collect(),
        state_words: (0..net.num_processes())
            .map(|p| net.process_state_words(p))
            .collect(),
        decisions: net.decisions(),
        decision_times: net.decision_times().to_vec(),
        lamport: net.lamport_clocks().to_vec(),
        stats: net.stats(),
        now: net.now(),
    }
}

/// Paxos n = 3 whose retry timers (70 + id ticks) start beyond the
/// wheel horizon.
fn paxos(cfg: NetConfig) -> EventNet<PaxosMsg> {
    let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = [0, 1, 1]
        .into_iter()
        .map(|input| Box::new(PaxosProcess::new(input, 70, 2)) as _)
        .collect();
    EventNet::new(procs, cfg)
}

/// What the walks exercised, summed over all of them.
#[derive(Default)]
struct Coverage {
    steps: usize,
    crashes: usize,
    far_timers: usize,
    recoveries: usize,
}

/// One step of a walk: dispatch the pending event with this `seq`, or
/// crash this process.
#[derive(Debug, Clone, Copy)]
enum Action {
    Dispatch(u64),
    Crash(usize),
}

fn take(net: &mut EventNet<PaxosMsg>, action: Action) -> Undo<PaxosMsg> {
    match action {
        Action::Crash(proc) => net.inject_crash_undoable(proc),
        Action::Dispatch(seq) => {
            let ev = net
                .enabled_events()
                .into_iter()
                .find(|ev| ev.seq == seq)
                .expect("the event is pending again");
            net.step_undoable(&ev).expect("enabled events are pending")
        }
    }
}

/// Walks `steps` random transitions (crashing a random live process
/// with probability 1/6 while a budget of two lasts), then undoes them
/// all. At each level on the way back the dump must match the one taken
/// on the way out, and re-taking the undone step must reach the same
/// dump again (so state the dump does not show, such as a crashed
/// process's durable copy, came back too).
fn walk(mut net: EventNet<PaxosMsg>, seed: u64, steps: usize, coverage: &mut Coverage) {
    assert!(net.can_undo());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut crash_budget = 2;
    let mut dumps = vec![dump(&net)];
    let mut actions = Vec::new();
    let mut undos: Vec<Undo<PaxosMsg>> = Vec::new();
    for _ in 0..steps {
        let live: Vec<usize> = (0..net.num_processes())
            .filter(|&p| !net.is_crashed(p))
            .collect();
        let events = net.enabled_events();
        let action = if crash_budget > 0 && (events.is_empty() || rng.random_range(0..6) == 0) {
            crash_budget -= 1;
            coverage.crashes += 1;
            Action::Crash(live[rng.random_range(0..live.len())])
        } else if let Some(ev) = events.get(rng.random_range(0..events.len().max(1))) {
            if ev.time >= 64 && matches!(ev.kind, EnabledKind::Timer { .. }) {
                coverage.far_timers += 1;
            }
            if matches!(ev.kind, EnabledKind::Recover { .. }) {
                coverage.recoveries += 1;
            }
            Action::Dispatch(ev.seq)
        } else {
            break;
        };
        coverage.steps += 1;
        undos.push(take(&mut net, action));
        actions.push(action);
        dumps.push(dump(&net));
    }
    while let Some(undo) = undos.pop() {
        net.undo(undo);
        let level = undos.len();
        assert_eq!(
            dump(&net),
            dumps[level],
            "seed {seed}: undo to depth {level}"
        );
        let again = take(&mut net, actions[level]);
        assert_eq!(
            dump(&net),
            dumps[level + 1],
            "seed {seed}: {:?} re-taken at depth {level}",
            actions[level]
        );
        net.undo(again);
    }
}

#[test]
fn undo_restores_every_level_on_both_queues() {
    let mut coverage = Coverage::default();
    for queue in [QueueImpl::Wheel, QueueImpl::Heap] {
        for seed in 0..24 {
            walk(
                paxos(mc_config().with_queue(queue)),
                seed,
                60,
                &mut coverage,
            );
        }
    }
    assert!(coverage.steps > 1_000);
    assert!(coverage.crashes > 0, "no crash was injected");
    assert!(coverage.far_timers > 0, "no overflow-heap timer fired");
}

#[test]
fn undo_restores_planned_crashes_and_recoveries() {
    let mut coverage = Coverage::default();
    for queue in [QueueImpl::Wheel, QueueImpl::Heap] {
        for seed in 0..24 {
            let cfg = NetConfig {
                faults: FaultPlan::none().crash_at(1, 2).recover_at(5),
                ..mc_config()
            }
            .with_queue(queue);
            walk(paxos(cfg), seed, 60, &mut coverage);
        }
    }
    assert!(coverage.recoveries > 0, "no planned recovery fired");
}

#[test]
fn undo_keeps_the_recorded_trace_in_step() {
    let mut net = paxos(mc_config().with_trace());
    let before = net.trace().to_vec();
    let ev = net.enabled_events()[0];
    let undo = net.step_undoable(&ev).expect("pending");
    assert!(net.trace().len() > before.len());
    net.undo(undo);
    assert_eq!(net.trace(), before.as_slice());
}
