//! `checker`: exhaustive model checking with `bne-mc`.
//!
//! One batch proves Paxos n=3 f=1 without retries under a crash budget of
//! one (any process may crash, anywhere), then finds the planted
//! amplification-quorum bug in Bracha n=4 with a liar and replays its
//! counterexample on the production runtime. Fingerprinting, dedup, sleep
//! sets and `EventNet` snapshot/restore carry almost all of the time;
//! no RNG and no `bne-sim` is involved, and memory grows with the visited
//! states. The seed picks which process proposes 0.

use crate::prof::{self, TimedProcess};
use crate::{ratio, Batch, Workload};
use bne_byzantine::bracha::BrachaMsg;
use bne_byzantine::choice::{shared_tap, SharedTap};
use bne_byzantine::paxos::PaxosMsg;
use bne_mc::scenario::mc_config;
use bne_mc::{
    bracha_net, paxos_net, replay_trace, BrachaLiar, BrachaParams, CounterexampleTrace,
    ExploreReport, Explorer, PaxosParams, Verdict,
};
use bne_net::{AsyncProcess, BrachaProcess, EventNet, PaxosProcess};
use std::rc::Rc;
use std::time::Instant;

/// The Paxos inputs, one per seed residue.
const PAXOS_INPUTS: [[u64; 3]; 3] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]];
/// Pinned size of the proven Paxos check, the same for every input
/// permutation.
const PAXOS_STATES: u64 = 247_332;
const PAXOS_TRANSITIONS: u64 = 725_274;

/// Pinned size of the planted-bug search and its counterexample.
const PLANTED_STATES: u64 = 8_376;
const PLANTED_CHOICES: usize = 29;

pub struct Checker {
    paxos: PaxosParams,
    planted: BrachaParams,
}

impl Workload for Checker {
    fn setup(seed: u64, _workers: usize) -> (Self, u64, Vec<String>) {
        let inputs = PAXOS_INPUTS[(seed % 3) as usize].to_vec();
        let checker = Checker {
            paxos: PaxosParams::new(inputs, 8, 0).with_crash_budget(1),
            planted: BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3),
        };
        // gate: the planted search reproduces its pinned counterexample,
        // which replays before and after a JSON round trip
        let mut failures = Vec::new();
        let (net, tap) = bracha_net(&checker.planted);
        let report = explore(net, tap, &checker.planted);
        match check_planted(&report) {
            Err(e) => failures.push(e),
            Ok(trace) => match CounterexampleTrace::from_json(&trace.to_json()) {
                Ok(back) if back == *trace => {
                    if let Err(e) = replays(&back) {
                        failures.push(format!("set-up gate: {e}"));
                    }
                }
                _ => failures.push("set-up gate: trace JSON round trip changed it".to_string()),
            },
        }
        (checker, 1, failures)
    }

    fn batch(&self, traced: bool) -> Batch {
        let t0 = Instant::now();
        let mut failures = Vec::new();

        let (net, tap) = if traced {
            timed_paxos_net(&self.paxos)
        } else {
            paxos_net(&self.paxos)
        };
        let t = Instant::now();
        let paxos = Explorer::new(
            net,
            tap,
            self.paxos.properties(),
            self.paxos.explore_config(),
        )
        .run();
        let paxos_s = t.elapsed().as_secs_f64();
        if !matches!(paxos.verdict, Verdict::Proven)
            || paxos.states != PAXOS_STATES
            || paxos.transitions != PAXOS_TRANSITIONS
        {
            failures.push(format!(
                "paxos {:?}: {} states, {} transitions; pinned Proven, \
                 {PAXOS_STATES} and {PAXOS_TRANSITIONS}",
                self.paxos.inputs, paxos.states, paxos.transitions,
            ));
        }

        let (net, tap) = if traced {
            timed_bracha_net(&self.planted)
        } else {
            bracha_net(&self.planted)
        };
        let t = Instant::now();
        let planted = explore(net, tap, &self.planted);
        let planted_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        match check_planted(&planted) {
            Err(e) => failures.push(e),
            Ok(trace) => {
                if let Err(e) = replays(trace) {
                    failures.push(e);
                }
            }
        }
        let replay_s = t.elapsed().as_secs_f64();
        let wall = t0.elapsed().as_secs_f64();

        let states = (paxos.states + planted.states) as f64;
        let transitions = (paxos.transitions + planted.transitions) as f64;
        let layers = if traced {
            let proto = [
                (
                    "proto.on_message.calls",
                    "proto.on_message.frac",
                    &prof::ON_MESSAGE,
                ),
                (
                    "proto.on_timer.calls",
                    "proto.on_timer.frac",
                    &prof::ON_TIMER,
                ),
                ("proto.fork.calls", "proto.fork.frac", &prof::FORK),
                (
                    "proto.state_words.calls",
                    "proto.state_words.frac",
                    &prof::STATE_WORDS,
                ),
                (
                    "proto.por_query.calls",
                    "proto.por_query.frac",
                    &prof::POR_QUERY,
                ),
            ];
            let proto_s: f64 = proto.iter().map(|(_, _, span)| span.secs()).sum();
            let mut layers = vec![
                ("mc.run_frac", (paxos_s + planted_s) / wall),
                ("mc.self_frac", (paxos_s + planted_s - proto_s) / wall),
                ("mc.cex_frac", planted_s / wall),
                ("mc.replay_frac", replay_s / wall),
                ("mc.states", states),
                ("mc.transitions", transitions),
                ("mc.terminals", (paxos.terminals + planted.terminals) as f64),
                (
                    "mc.max_depth",
                    paxos.max_depth_seen.max(planted.max_depth_seen) as f64,
                ),
                (
                    "mc.forks_per_transition",
                    ratio(prof::FORK.calls() as f64, transitions),
                ),
                (
                    "mc.state_words_per_state",
                    ratio(prof::STATE_WORDS.calls() as f64, states),
                ),
            ];
            for (calls, frac, span) in proto {
                layers.push((calls, span.calls() as f64));
                layers.push((frac, span.secs() / wall));
            }
            layers
        } else {
            Vec::new()
        };
        Batch {
            wall,
            ops: 3,
            failures,
            rates: [states / wall, transitions / wall],
            digest: format!("{paxos:?}\n{planted:?}"),
            layers,
        }
    }
}

/// The planted search's counterexample, if the search matches its pins.
fn check_planted(report: &ExploreReport) -> Result<&CounterexampleTrace, String> {
    match &report.verdict {
        Verdict::Violated(trace)
            if report.states == PLANTED_STATES && trace.len() == PLANTED_CHOICES =>
        {
            Ok(trace)
        }
        other => Err(format!(
            "planted bracha: {} states, verdict {other:?}; pinned Violated at \
                 {PLANTED_STATES} states with a {PLANTED_CHOICES}-choice trace",
            report.states
        )),
    }
}

fn explore<M: Clone + bne_mc::McWords>(
    net: EventNet<M>,
    tap: SharedTap,
    params: &BrachaParams,
) -> ExploreReport {
    Explorer::new(net, tap, params.properties(), params.explore_config()).run()
}

fn replays(trace: &CounterexampleTrace) -> Result<(), String> {
    match replay_trace(trace) {
        Ok(replay) if replay.violation.is_some() => Ok(()),
        Ok(_) => Err("planted trace replayed without reproducing the violation".to_string()),
        Err(e) => Err(format!("planted trace failed to replay: {e}")),
    }
}

/// [`paxos_net`] with every participant inside a timing shell.
fn timed_paxos_net(params: &PaxosParams) -> (EventNet<PaxosMsg>, SharedTap) {
    let procs = params
        .inputs
        .iter()
        .map(|&input| {
            TimedProcess::boxed(Box::new(PaxosProcess::new(
                input,
                params.timeout_ticks,
                params.max_timeouts,
            )))
        })
        .collect();
    (EventNet::new(procs, mc_config()), shared_tap())
}

/// [`bracha_net`] with every participant inside a timing shell.
fn timed_bracha_net(params: &BrachaParams) -> (EventNet<BrachaMsg>, SharedTap) {
    let tap = shared_tap();
    let procs = (0..params.n)
        .map(|id| -> Box<dyn AsyncProcess<Msg = BrachaMsg>> {
            TimedProcess::boxed(if params.liar && id == params.n - 1 {
                Box::new(BrachaLiar::scripted(Rc::clone(&tap)))
            } else {
                Box::new(
                    BrachaProcess::new(params.t, 0, params.input)
                        .with_thresholds(params.amp_quorum, params.deliver_quorum),
                )
            })
        })
        .collect();
    (EventNet::new(procs, mc_config()), tap)
}
