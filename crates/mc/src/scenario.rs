//! The named scenario registry: checkable models, and the bridge from a
//! serialized [`CounterexampleTrace`] back to a runnable network.
//!
//! A trace names its scenario (`"bracha"`, `"ben_or"`, `"paxos"`) and
//! carries its parameters as integers; [`replay_trace`] rebuilds exactly
//! the network the explorer searched and re-executes the recorded
//! choices on the **production** runtime. The constructors here are also
//! the stock models the tests, benches and e25 check — they all share
//! the model-checking substrate configuration: [`LatencyModel::Constant`]
//! latency, FIFO scheduling and no link faults, the deterministic regime
//! under which a transition the explorer undoes and re-runs repeats
//! itself exactly (no RNG stream is consumed by routing).
//!
//! [`LatencyModel::Constant`]: bne_net::LatencyModel::Constant

use crate::explorer::{Choice, ExploreConfig};
use crate::liar::BrachaLiar;
use crate::property::{Agreement, Property, StateView, Validity, Violation};
use crate::trace::CounterexampleTrace;
use crate::words::McWords;
use bne_byzantine::ben_or::BenOrMsg;
use bne_byzantine::bracha::BrachaMsg;
use bne_byzantine::choice::{shared_tap, ChoiceTap, SharedTap};
use bne_byzantine::paxos::PaxosMsg;
use bne_byzantine::{ProcId, Value};
use bne_net::{
    AsyncProcess, BenOrProcess, BrachaProcess, EventNet, LatencyModel, NetConfig, PaxosProcess,
};
use std::rc::Rc;

/// The deterministic substrate every checkable model runs on (see the
/// module docs).
pub fn mc_config() -> NetConfig {
    let mut cfg = NetConfig::lockstep(0);
    cfg.latency = LatencyModel::Constant(1);
    cfg
}

// ---------------------------------------------------------------------
// Bracha reliable broadcast
// ---------------------------------------------------------------------

/// Parameters of the checkable Bracha model: `n` participants, fault
/// budget `t`, process 0 broadcasting `input`, optionally with process
/// `n - 1` replaced by a tap-driven [`BrachaLiar`], and optionally with
/// the quorum thresholds overridden (the planted-bug hook).
#[derive(Debug, Clone)]
pub struct BrachaParams {
    /// Number of processes.
    pub n: usize,
    /// Fault budget the honest participants assume.
    pub t: usize,
    /// The broadcaster's input (process 0 broadcasts).
    pub input: Value,
    /// Replace process `n - 1` with a tap-driven liar.
    pub liar: bool,
    /// Ready-amplification quorum override (default `t + 1`).
    pub amp_quorum: usize,
    /// Delivery quorum override (default `2t + 1`).
    pub deliver_quorum: usize,
}

impl BrachaParams {
    /// The honest protocol at its standard quorums.
    pub fn new(n: usize, t: usize, input: Value) -> Self {
        BrachaParams {
            n,
            t,
            input,
            liar: false,
            amp_quorum: t + 1,
            deliver_quorum: 2 * t + 1,
        }
    }

    /// Replaces process `n - 1` with a tap-driven [`BrachaLiar`].
    pub fn with_liar(mut self) -> Self {
        self.liar = true;
        self
    }

    /// Overrides the quorum thresholds (the mutation hook: lowering the
    /// amplification quorum to `t` plants the forged-`Ready` bug the
    /// regression corpus replays).
    pub fn with_thresholds(mut self, amp_quorum: usize, deliver_quorum: usize) -> Self {
        self.amp_quorum = amp_quorum;
        self.deliver_quorum = deliver_quorum;
        self
    }

    /// The honest participants (everyone, minus the liar if present).
    pub fn honest(&self) -> Vec<ProcId> {
        (0..self.n - usize::from(self.liar)).collect()
    }

    /// RB agreement + validity over the honest participants. Validity is
    /// against the broadcaster's input — the broadcaster is honest in
    /// this model (the liar, when present, is process `n - 1`).
    pub fn properties(&self) -> Vec<Box<dyn Property>> {
        vec![
            Box::new(Agreement::new(self.honest())),
            Box::new(Validity::new(self.honest(), [self.input])),
        ]
    }

    /// The exploration configuration binding traces back to this
    /// scenario.
    pub fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            // with every participant honest only the broadcaster's value
            // circulates and each handler is a threshold test over its
            // receipt *set*, so same-target deliveries commute — the
            // liar breaks that (a forged Echo(0) racing the third
            // Echo(1) decides which value gets amplified)
            confluent: !self.liar,
            scenario: "bracha".to_string(),
            params: self.to_params(),
            ..ExploreConfig::default()
        }
    }

    fn to_params(&self) -> Vec<(String, u64)> {
        vec![
            ("n".to_string(), self.n as u64),
            ("t".to_string(), self.t as u64),
            ("input".to_string(), self.input),
            ("liar".to_string(), u64::from(self.liar)),
            ("amp_quorum".to_string(), self.amp_quorum as u64),
            ("deliver_quorum".to_string(), self.deliver_quorum as u64),
        ]
    }

    fn from_params(params: &[(String, u64)]) -> Result<Self, String> {
        let get = |key: &str| param(params, key);
        Ok(BrachaParams {
            n: get("n")? as usize,
            t: get("t")? as usize,
            input: get("input")?,
            liar: get("liar")? != 0,
            amp_quorum: get("amp_quorum")? as usize,
            deliver_quorum: get("deliver_quorum")? as usize,
        })
    }
}

/// Builds the Bracha model network plus its shared choice tap.
pub fn bracha_net(params: &BrachaParams) -> (EventNet<BrachaMsg>, SharedTap) {
    let tap = shared_tap();
    let procs: Vec<Box<dyn AsyncProcess<Msg = BrachaMsg>>> = (0..params.n)
        .map(|id| -> Box<dyn AsyncProcess<Msg = BrachaMsg>> {
            if params.liar && id == params.n - 1 {
                Box::new(BrachaLiar::scripted(Rc::clone(&tap)))
            } else {
                Box::new(
                    BrachaProcess::new(params.t, 0, params.input)
                        .with_thresholds(params.amp_quorum, params.deliver_quorum),
                )
            }
        })
        .collect();
    (EventNet::new(procs, mc_config()), tap)
}

// ---------------------------------------------------------------------
// Ben-Or randomized consensus (tap coins)
// ---------------------------------------------------------------------

/// Parameters of the checkable Ben-Or model: `n` honest participants
/// with fault budget `t`, per-process binary preferences, and a round
/// cap bounding the coin space. Every coin flip routes through the
/// shared tap, so the explorer enumerates coin outcomes instead of
/// sampling them.
#[derive(Debug, Clone)]
pub struct BenOrParams {
    /// Number of processes (all honest in this model).
    pub n: usize,
    /// Fault budget the quorum arithmetic assumes.
    pub t: usize,
    /// Initial binary preference of each process.
    pub prefs: Vec<Value>,
    /// Round cap (processes halt undecided beyond it, bounding the
    /// search space).
    pub max_rounds: u32,
}

impl BenOrParams {
    /// `prefs[i]` is process `i`'s initial preference (must be binary).
    pub fn new(t: usize, prefs: Vec<Value>, max_rounds: u32) -> Self {
        assert!(prefs.iter().all(|&p| p <= 1), "Ben-Or is binary");
        BenOrParams {
            n: prefs.len(),
            t,
            prefs,
            max_rounds,
        }
    }

    /// Consensus agreement + validity (decide only values that were
    /// somebody's input) over all processes.
    pub fn properties(&self) -> Vec<Box<dyn Property>> {
        let all: Vec<ProcId> = (0..self.n).collect();
        vec![
            Box::new(Agreement::new(all.clone())),
            Box::new(Validity::new(all, self.prefs.iter().copied())),
        ]
    }

    /// The exploration configuration binding traces back to this
    /// scenario.
    pub fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            scenario: "ben_or".to_string(),
            params: self.to_params(),
            ..ExploreConfig::default()
        }
    }

    fn to_params(&self) -> Vec<(String, u64)> {
        let mask = self
            .prefs
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| m | (p << i));
        vec![
            ("n".to_string(), self.n as u64),
            ("t".to_string(), self.t as u64),
            ("prefs".to_string(), mask),
            ("max_rounds".to_string(), u64::from(self.max_rounds)),
        ]
    }

    fn from_params(params: &[(String, u64)]) -> Result<Self, String> {
        let n = param(params, "n")? as usize;
        let mask = param(params, "prefs")?;
        Ok(BenOrParams {
            n,
            t: param(params, "t")? as usize,
            prefs: (0..n).map(|i| (mask >> i) & 1).collect(),
            max_rounds: param(params, "max_rounds")? as u32,
        })
    }
}

/// Builds the Ben-Or model network plus the shared coin tap.
pub fn ben_or_net(params: &BenOrParams) -> (EventNet<BenOrMsg>, SharedTap) {
    let tap = shared_tap();
    let procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = params
        .prefs
        .iter()
        .enumerate()
        .map(|(id, &pref)| -> Box<dyn AsyncProcess<Msg = BenOrMsg>> {
            // the coin seed is irrelevant: every flip is drawn from the
            // tap, which is what makes the coin space enumerable
            Box::new(
                BenOrProcess::new(params.t, pref, params.max_rounds, id as u64)
                    .with_coin_tap(Rc::clone(&tap)),
            )
        })
        .collect();
    (EventNet::new(procs, mc_config()), tap)
}

// ---------------------------------------------------------------------
// Paxos under a crash budget
// ---------------------------------------------------------------------

/// Parameters of the checkable Paxos model: `n` participants proposing
/// binary inputs, timeout-driven ballot escalation bounded by
/// `max_timeouts`, and a schedule adversary allowed to crash-stop up to
/// `crash_budget` processes at any point.
#[derive(Debug, Clone)]
pub struct PaxosParams {
    /// Number of processes.
    pub n: usize,
    /// Initial proposal of each process (binary, packed like Ben-Or
    /// preferences).
    pub inputs: Vec<Value>,
    /// Base retry-timer interval (staggered by process id).
    pub timeout_ticks: u64,
    /// Escalation cap per process, bounding the ballot space.
    pub max_timeouts: u32,
    /// How many crash-stop faults the explorer may inject (`f`).
    pub crash_budget: usize,
}

impl PaxosParams {
    /// `inputs[i]` is process `i`'s proposal (binary).
    pub fn new(inputs: Vec<Value>, timeout_ticks: u64, max_timeouts: u32) -> Self {
        assert!(inputs.iter().all(|&p| p <= 1), "keep the model binary");
        PaxosParams {
            n: inputs.len(),
            inputs,
            timeout_ticks,
            max_timeouts,
            crash_budget: 0,
        }
    }

    /// Allows the explorer to crash-stop up to `f` processes.
    pub fn with_crash_budget(mut self, f: usize) -> Self {
        self.crash_budget = f;
        self
    }

    /// Uniform agreement + validity over **all** processes: even a
    /// process that decides and then crashes binds the others.
    pub fn properties(&self) -> Vec<Box<dyn Property>> {
        let all: Vec<ProcId> = (0..self.n).collect();
        vec![
            Box::new(Agreement::new(all.clone())),
            Box::new(Validity::new(all, self.inputs.iter().copied())),
        ]
    }

    /// The exploration configuration binding traces back to this
    /// scenario (crash budget and crashable set included).
    pub fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            crash_budget: self.crash_budget,
            crashable: (0..self.n).collect(),
            scenario: "paxos".to_string(),
            params: self.to_params(),
            ..ExploreConfig::default()
        }
    }

    fn to_params(&self) -> Vec<(String, u64)> {
        let mask = self
            .inputs
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| m | (p << i));
        vec![
            ("n".to_string(), self.n as u64),
            ("inputs".to_string(), mask),
            ("timeout_ticks".to_string(), self.timeout_ticks),
            ("max_timeouts".to_string(), u64::from(self.max_timeouts)),
            ("crash_budget".to_string(), self.crash_budget as u64),
        ]
    }

    fn from_params(params: &[(String, u64)]) -> Result<Self, String> {
        let n = param(params, "n")? as usize;
        let mask = param(params, "inputs")?;
        Ok(PaxosParams {
            n,
            inputs: (0..n).map(|i| (mask >> i) & 1).collect(),
            timeout_ticks: param(params, "timeout_ticks")?,
            max_timeouts: param(params, "max_timeouts")? as u32,
            crash_budget: param(params, "crash_budget")? as usize,
        })
    }
}

/// Builds the Paxos model network plus a (never-drawn-from) tap, so the
/// replay plumbing is uniform across scenarios.
pub fn paxos_net(params: &PaxosParams) -> (EventNet<PaxosMsg>, SharedTap) {
    let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = params
        .inputs
        .iter()
        .map(|&input| -> Box<dyn AsyncProcess<Msg = PaxosMsg>> {
            Box::new(PaxosProcess::new(
                input,
                params.timeout_ticks,
                params.max_timeouts,
            ))
        })
        .collect();
    (EventNet::new(procs, mc_config()), shared_tap())
}

// ---------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------

/// What replaying a trace on the production runtime observed.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The violation re-observed at the end of the replay (`None` means
    /// the trace did **not** reproduce — a regression test failure).
    pub violation: Option<Violation>,
    /// Transitions replayed.
    pub events: usize,
}

/// Replays a serialized counterexample on the production [`EventNet`]:
/// rebuilds the named scenario, primes the choice tap with the recorded
/// script, re-executes the recorded choices, and re-checks the
/// scenario's properties on the final state.
pub fn replay_trace(trace: &CounterexampleTrace) -> Result<ReplayReport, String> {
    match trace.scenario.as_str() {
        "bracha" => {
            let params = BrachaParams::from_params(&trace.params)?;
            let (net, tap) = bracha_net(&params);
            replay_on(net, tap, trace, params.properties())
        }
        "ben_or" => {
            let params = BenOrParams::from_params(&trace.params)?;
            let (net, tap) = ben_or_net(&params);
            replay_on(net, tap, trace, params.properties())
        }
        "paxos" => {
            let params = PaxosParams::from_params(&trace.params)?;
            let (net, tap) = paxos_net(&params);
            replay_on(net, tap, trace, params.properties())
        }
        other => Err(format!("unknown scenario {other:?}")),
    }
}

fn replay_on<M: Clone + McWords>(
    mut net: EventNet<M>,
    tap: SharedTap,
    trace: &CounterexampleTrace,
    properties: Vec<Box<dyn Property>>,
) -> Result<ReplayReport, String> {
    tap.borrow_mut()
        .restore(&ChoiceTap::scripted(trace.script.clone()));
    for (i, choice) in trace.choices.iter().enumerate() {
        match choice {
            Choice::Event { seq, kind } => {
                let events = net.enabled_events();
                let ev = events
                    .iter()
                    .find(|e| e.seq == *seq)
                    .ok_or_else(|| format!("step {i}: no pending event with seq {seq}"))?;
                if ev.kind != *kind {
                    return Err(format!(
                        "step {i}: seq {seq} is {:?}, trace says {:?}",
                        ev.kind, kind
                    ));
                }
                if !net.step_chosen(ev) {
                    return Err(format!("step {i}: event seq {seq} refused to dispatch"));
                }
            }
            Choice::Crash { proc } => net.inject_crash(*proc),
        }
    }
    if !tap.borrow().demands().is_empty() {
        return Err("script too short: replay drew past its end".to_string());
    }
    let decisions = net.decisions();
    let crashed: Vec<bool> = (0..net.num_processes())
        .map(|p| net.is_crashed(p))
        .collect();
    let view = StateView {
        decisions: &decisions,
        crashed: &crashed,
    };
    let violation = properties.iter().find_map(|p| {
        p.check(&view).map(|detail| Violation {
            property: p.name().to_string(),
            detail,
        })
    });
    Ok(ReplayReport {
        violation,
        events: trace.choices.len(),
    })
}

fn param(params: &[(String, u64)], key: &str) -> Result<u64, String> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("missing scenario parameter {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, Verdict};

    #[test]
    fn params_round_trip_through_their_integer_encoding() {
        let b = BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3);
        let b2 = BrachaParams::from_params(&b.to_params()).unwrap();
        assert_eq!(b2.to_params(), b.to_params());

        let o = BenOrParams::new(1, vec![1, 0, 1, 0], 2);
        let o2 = BenOrParams::from_params(&o.to_params()).unwrap();
        assert_eq!(o2.to_params(), o.to_params());
        assert_eq!(o2.prefs, o.prefs);

        let p = PaxosParams::new(vec![0, 1, 1], 8, 1).with_crash_budget(1);
        let p2 = PaxosParams::from_params(&p.to_params()).unwrap();
        assert_eq!(p2.to_params(), p.to_params());
    }

    #[test]
    fn planted_amp_bug_is_found_and_replays_on_the_production_net() {
        // amplification quorum lowered from t+1 = 2 to t = 1: one forged
        // Ready(0) converts an honest process, and honest amplification
        // snowballs to a delivery of 0 against the broadcaster's 1
        let params = BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3);
        let (net, tap) = bracha_net(&params);
        let report = Explorer::new(net, tap, params.properties(), params.explore_config()).run();
        let Verdict::Violated(trace) = report.verdict else {
            panic!("expected a violation, got {:?}", report.verdict);
        };
        assert_eq!(trace.property, "validity");
        let replay = replay_trace(&trace).unwrap();
        assert!(
            replay.violation.is_some(),
            "trace must reproduce on the production runtime"
        );
        // serialization round-trip preserves replayability
        let back = CounterexampleTrace::from_json(&trace.to_json()).unwrap();
        assert!(replay_trace(&back).unwrap().violation.is_some());
    }
}
