//! Budgeted worst-case adversary synthesis.
//!
//! Exhaustive exploration proves properties on small models; for
//! *performance* questions — "how slow can an adversary make Ben-Or
//! decide?" — the interesting configurations (e20's n = 11 cells) are
//! far beyond exhaustion. The [`Synthesizer`] instead **searches** the
//! schedule × lie space with a rollout budget: each rollout drives a
//! fresh production network to completion through
//! [`bne_net::EventNet::step_chosen`], picking the next event with a
//! seeded adversarial policy and a per-rollout lie seed for the
//! Byzantine participants, and scores the run with a lexicographic
//! [`Badness`] (undecided processes, then decision time, then rounds).
//!
//! Rollout 0 is always the **rush heuristic** expressed as a rollout
//! policy — Byzantine-source deliveries first (in queue order), honest
//! traffic strictly FIFO afterwards — i.e. the schedule-space analog of
//! [`bne_net::SchedulerPolicy::AdversarialRush`], the canned worst case
//! e20 measures. Because rollout 0 participates in the max, the
//! synthesized adversary can never score below the rush heuristic; the
//! searched rollouts then try to beat it with randomized byz-biased
//! orderings and deliberate clock-advancement (dispatching late-queued
//! events first drags `now` forward, so earlier honest sends are
//! delivered stale — reordering alone manufactures delay).

use bne_byzantine::ben_or::BenOrMsg;
use bne_net::{
    AsyncProcess, BenOrNoiseProcess, BenOrProcess, EnabledEvent, EnabledKind, EventNet,
    LatencyModel, NetConfig,
};
use bne_sim::derive_seed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// How bad one execution is for the protocol, lexicographically: first
/// kill liveness, then stretch the clock, then burn rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Badness {
    /// Honest processes still undecided when the run drained.
    pub undecided: u64,
    /// Latest honest decision time (virtual ticks).
    pub decide_time: u64,
    /// Largest honest decision round (from the round probes).
    pub rounds: u64,
}

/// Synthesis budget and seeding.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Total rollouts, including the rush baseline (must be ≥ 1).
    pub rollouts: usize,
    /// Base seed; per-rollout policy and lie streams are derived from it
    /// via [`bne_sim::derive_seed`].
    pub seed: u64,
    /// Per-rollout event cap (a drain guard, not a tuning knob).
    pub max_events: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            rollouts: 64,
            seed: 0,
            max_events: 100_000,
        }
    }
}

/// What the search found.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// Rollout 0: the rush heuristic's score on this model.
    pub rush: Badness,
    /// The worst (highest) score over all rollouts — the synthesized
    /// adversary. Invariant: `best >= rush`.
    pub best: Badness,
    /// Which rollout achieved `best` (0 = the rush heuristic itself was
    /// never beaten).
    pub best_rollout: usize,
    /// Rollouts executed.
    pub rollouts: usize,
}

/// Builds one fresh network per rollout. The `u64` is the rollout's lie
/// seed (vary the Byzantine participants' randomness with it); the
/// returned cells are the honest round probes the badness score reads.
pub type NetFactory<M> = Box<dyn Fn(u64) -> (EventNet<M>, Vec<Rc<Cell<Option<u32>>>>)>;

/// The Ben-Or synthesis target of e25 and the model-checker bench:
/// production Ben-Or at n = 4, t = 1 (seeded coins, round cap 8, one tick
/// per hop) with mixed preferences on processes 0–2, and process 3 a
/// [`BenOrNoiseProcess`] whose lie stream the synthesizer reseeds per
/// rollout — search it with process 3 as the Byzantine set.
pub fn ben_or_noise_factory() -> NetFactory<BenOrMsg> {
    Box::new(|lie_seed| {
        let mut probes = Vec::new();
        let mut procs: Vec<Box<dyn AsyncProcess<Msg = BenOrMsg>>> = Vec::new();
        for (id, pref) in [0u64, 1, 0].into_iter().enumerate() {
            let probe = Rc::new(Cell::new(None));
            probes.push(Rc::clone(&probe));
            procs.push(Box::new(
                BenOrProcess::new(1, pref, 8, 100 + id as u64).with_round_probe(probe),
            ));
        }
        procs.push(Box::new(BenOrNoiseProcess::new(lie_seed)));
        let mut cfg = NetConfig::lockstep(0);
        cfg.latency = LatencyModel::Constant(1);
        (EventNet::new(procs, cfg), probes)
    })
}

/// The budgeted schedule × lie searcher (see module docs).
pub struct Synthesizer<M: Clone> {
    factory: NetFactory<M>,
    byzantine: BTreeSet<usize>,
    honest: Vec<usize>,
    cfg: SynthConfig,
}

impl<M: Clone> Synthesizer<M> {
    /// A synthesizer over networks built by `factory`, where
    /// `byzantine` lists the adversary-controlled processes (their
    /// deliveries get rushed, their lie seed varies per rollout) and
    /// every other process is scored as honest.
    pub fn new(factory: NetFactory<M>, byzantine: BTreeSet<usize>, cfg: SynthConfig) -> Self {
        assert!(cfg.rollouts >= 1, "need at least the rush baseline");
        let (probe_net, _) = factory(0);
        let honest: Vec<usize> = (0..probe_net.num_processes())
            .filter(|p| !byzantine.contains(p))
            .collect();
        Synthesizer {
            factory,
            byzantine,
            honest,
            cfg,
        }
    }

    /// Runs the search and reports the worst schedule found.
    pub fn run(&self) -> SynthOutcome {
        let rush = self.rollout(0);
        let mut best = rush;
        let mut best_rollout = 0;
        for i in 1..self.cfg.rollouts {
            let score = self.rollout(i);
            if score > best {
                best = score;
                best_rollout = i;
            }
        }
        SynthOutcome {
            rush,
            best,
            best_rollout,
            rollouts: self.cfg.rollouts,
        }
    }

    fn rollout(&self, index: usize) -> Badness {
        // rollout 0 replays the canned adversary exactly: the e20 lie
        // stream (seed stream 1, replica 0) under the rush schedule
        let lie_seed = derive_seed(self.cfg.seed, 1, index as u64);
        let mut policy_rng = StdRng::seed_from_u64(derive_seed(self.cfg.seed, 2, index as u64));
        let (mut net, probes) = (self.factory)(lie_seed);
        for _ in 0..self.cfg.max_events {
            let events = net.enabled_events();
            if events.is_empty() {
                break;
            }
            let ev = if index == 0 {
                rush_choice(&events, &self.byzantine)
            } else {
                searched_choice(&events, &self.byzantine, &mut policy_rng)
            };
            let ok = net.step_chosen(&ev);
            assert!(ok, "a rollout picks among the enabled events");
            if self
                .honest
                .iter()
                .all(|&p| net.decision_times()[p].is_some())
            {
                break; // decisions are irrevocable: the score is fixed
            }
        }
        let times = net.decision_times();
        let undecided = self.honest.iter().filter(|&&p| times[p].is_none()).count() as u64;
        let decide_time = self
            .honest
            .iter()
            .filter_map(|&p| times[p])
            .max()
            .unwrap_or(0);
        let rounds = probes
            .iter()
            .filter_map(|c| c.get())
            .map(u64::from)
            .max()
            .unwrap_or(0);
        Badness {
            undecided,
            decide_time,
            rounds,
        }
    }
}

/// The rush heuristic as a schedule policy: Byzantine-source deliveries
/// first (queue order among themselves), then strict FIFO.
fn rush_choice(events: &[EnabledEvent], byzantine: &BTreeSet<usize>) -> EnabledEvent {
    *events
        .iter()
        .find(|ev| matches!(ev.kind, EnabledKind::Deliver { src, .. } if byzantine.contains(&src)))
        .unwrap_or(&events[0])
}

/// A randomized byz-biased policy with deliberate clock advancement.
fn searched_choice(
    events: &[EnabledEvent],
    byzantine: &BTreeSet<usize>,
    rng: &mut StdRng,
) -> EnabledEvent {
    let roll = rng.random_range(0..10u64);
    if roll < 5 {
        // rush-like: prefer a Byzantine-source delivery
        let byz: Vec<&EnabledEvent> = events
            .iter()
            .filter(|ev| {
                matches!(ev.kind, EnabledKind::Deliver { src, .. } if byzantine.contains(&src))
            })
            .collect();
        if !byz.is_empty() {
            return *byz[rng.random_range(0..byz.len() as u64) as usize];
        }
    }
    if roll < 7 {
        // drag `now` forward: dispatch the latest-queued event so every
        // earlier honest send is delivered stale
        return *events
            .iter()
            .max_by_key(|ev| (ev.time, ev.tie, ev.seq))
            .expect("nonempty");
    }
    events[rng.random_range(0..events.len() as u64) as usize]
}
