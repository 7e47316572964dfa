//! Byzantine protocol runs as [`bne_sim::Scenario`]s: agreement/validity
//! rates over adversary strategies × fault ratios, estimated from ensembles
//! of seeded executions instead of single hand-picked runs.
//!
//! Three protocols are covered — OM(t) ([`OmScenario`]), phase king
//! ([`PhaseKingScenario`]) and Dolev–Strong signed broadcast
//! ([`BroadcastScenario`]) — all reporting into the shared
//! [`ProtocolStats`] aggregate, so grids across protocols are directly
//! comparable.
//!
//! Each replica is drawn from its seed once, by [`om_replica`],
//! [`phase_king_replica`] or [`dolev_strong_replica`], and scored once, by
//! [`RoundReplica::run`]. The scenarios here run that draw on the
//! lockstep [`SyncNetwork`]; the async sweeps of `bne-net` run the same
//! draw on the event runtime, so the two engines sample identical
//! replicas.

use crate::adversary::{FaultyBehavior, FaultyProcess};
use crate::broadcast::{DolevStrongProcess, EquivocatingSender, SignedMessage};
use crate::network::{ProcId, Process, SyncNetwork};
use crate::om::{OmConfig, TraitorStrategy};
use crate::om_process::{run_om_process, OmProcess};
use crate::phase_king::PhaseKingProcess;
use crate::pki::PublicKeyInfrastructure;
use crate::properties::{check_agreement, check_validity};
use crate::Value;
use bne_sim::{Merge, Scenario, StreamingStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Streaming aggregate of protocol executions (one grid cell). All rates
/// are 0/1 per replica, so `mean()` is the empirical probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolStats {
    /// Did every honest process decide?
    pub decided: StreamingStats,
    /// Did all honest decisions agree (IC1)?
    pub agreement: StreamingStats,
    /// Did honest decisions match the honest source / unanimous input
    /// (IC2; vacuously satisfied when there is no honest reference value)?
    pub validity: StreamingStats,
    /// Point-to-point messages used by the execution.
    pub messages: StreamingStats,
}

impl Merge for ProtocolStats {
    fn merge(&mut self, other: &Self) {
        self.decided.merge(&other.decided);
        self.agreement.merge(&other.agreement);
        self.validity.merge(&other.validity);
        self.messages.merge(&other.messages);
    }
}

// ---------------------------------------------------------------------------
// Seeded replicas, shared by the sync and async engines
// ---------------------------------------------------------------------------

/// A round-based process set, in process-id order.
pub type ProcessSet<M> = Vec<Box<dyn Process<Msg = M>>>;

/// What an engine reports for one replica: every process's decision and
/// the number of messages sent.
pub type EngineOutput = (Vec<Option<Value>>, usize);

/// One seeded replica of a Byzantine protocol: what an engine runs, plus
/// what the run is judged against.
pub struct RoundReplica<P> {
    /// What the engine runs: a process set for phase king and
    /// Dolev–Strong; for OM the [`OmConfig`] its process set is built
    /// from, honest or colluding.
    protocol: P,
    /// Rounds the protocol needs.
    rounds: usize,
    /// The processes the correctness conditions constrain.
    honest: Vec<bool>,
    /// The value honest decisions must match; `None` when validity is
    /// vacuous (faulty source, mixed starts).
    reference: Option<Value>,
    /// The processes an adversarial scheduler treats as Byzantine. For OM
    /// this is the traitor set, which is not the complement of `honest`: a
    /// loyal commander is not judged, but it is not Byzantine either.
    byzantine: BTreeSet<ProcId>,
}

impl<P> RoundReplica<P> {
    /// Runs the replica on an engine and scores it. `engine` receives the
    /// protocol, the round count and the Byzantine set.
    pub fn run(
        self,
        engine: impl FnOnce(P, usize, &BTreeSet<ProcId>) -> EngineOutput,
    ) -> ProtocolStats {
        let (decisions, messages) = engine(self.protocol, self.rounds, &self.byzantine);
        let honest = &self.honest;
        let flag = |b: bool| StreamingStats::of(f64::from(b));
        let decided = decisions
            .iter()
            .zip(honest)
            .all(|(d, &h)| !h || d.is_some());
        let validity = self
            .reference
            .is_none_or(|v| check_validity(&decisions, honest, v));
        ProtocolStats {
            decided: flag(decided),
            agreement: flag(check_agreement(&decisions, honest)),
            validity: flag(validity),
            messages: StreamingStats::of(messages as f64),
        }
    }
}

impl<M: Clone> RoundReplica<ProcessSet<M>> {
    /// Runs the replica on the lockstep [`SyncNetwork`] and scores it.
    pub fn run_sync(self) -> ProtocolStats {
        self.run(|processes, rounds, _| {
            let mut net = SyncNetwork::new(processes);
            net.run(rounds);
            (net.decisions(), net.stats().messages_sent)
        })
    }
}

/// Draws one OM(t) replica: the commander's order from the seed, `t`
/// traitors with consecutive ids from the commander (when it is faulty)
/// or from the first lieutenant, and the loyal lieutenants as the honest
/// set.
pub fn om_replica(
    n: usize,
    t: usize,
    strategy: TraitorStrategy,
    commander_faulty: bool,
    seed: u64,
) -> RoundReplica<OmConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let commander_value: Value = rng.random_range(0..2u64);
    let first = usize::from(!commander_faulty);
    let traitors: BTreeSet<ProcId> = (first..first + t).collect();
    RoundReplica {
        rounds: OmProcess::rounds_needed(t),
        honest: (0..n).map(|i| i != 0 && !traitors.contains(&i)).collect(),
        reference: (!traitors.contains(&0)).then_some(commander_value),
        byzantine: traitors.clone(),
        protocol: OmConfig {
            n,
            m: t,
            commander_value,
            traitors,
            strategy,
            default_value: 0,
        },
    }
}

/// Draws one phase-king replica: `n - t` honest processes with seed-drawn
/// initial bits (one common bit under `unanimous_start`), then `t` faulty
/// processes running `behavior`.
pub fn phase_king_replica(
    n: usize,
    t: usize,
    behavior: &FaultyBehavior,
    unanimous_start: bool,
    seed: u64,
) -> RoundReplica<ProcessSet<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let honest_count = n - t;
    let common: Value = rng.random_range(0..2u64);
    let mut processes: ProcessSet<Value> = Vec::with_capacity(n);
    for _ in 0..honest_count {
        let initial = if unanimous_start {
            common
        } else {
            rng.random_range(0..2u64)
        };
        processes.push(Box::new(PhaseKingProcess::new(initial, t)));
    }
    for _ in 0..t {
        // re-seed stochastic adversaries from the replica seed so
        // replicas see independent noise (deterministic behaviors are
        // unchanged; the draw keeps the stream layout uniform)
        let behavior = behavior.with_seed(rng.random::<u64>());
        processes.push(Box::new(FaultyProcess::new(behavior)));
    }
    RoundReplica {
        protocol: processes,
        rounds: PhaseKingProcess::rounds_needed(t),
        honest: (0..n).map(|i| i < honest_count).collect(),
        reference: unanimous_start.then_some(common),
        byzantine: (honest_count..n).collect(),
    }
}

/// Draws one Dolev–Strong replica over a fresh simulated PKI: the
/// sender's input from the seed, and process 0 replaced by an
/// [`EquivocatingSender`] when `equivocating_sender` is set.
pub fn dolev_strong_replica(
    n: usize,
    t: usize,
    equivocating_sender: bool,
    seed: u64,
) -> RoundReplica<ProcessSet<SignedMessage>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pki, keys) = PublicKeyInfrastructure::setup(n, &mut rng);
    let input: Value = rng.random_range(0..2u64);
    let protocol = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| -> Box<dyn Process<Msg = SignedMessage>> {
            if i == 0 && equivocating_sender {
                Box::new(EquivocatingSender::new(key))
            } else {
                Box::new(DolevStrongProcess::new(0, input, t, pki.clone(), key, 0))
            }
        })
        .collect();
    RoundReplica {
        protocol,
        rounds: DolevStrongProcess::rounds_needed(t),
        honest: (0..n).map(|i| i != 0 || !equivocating_sender).collect(),
        reference: (!equivocating_sender).then_some(input),
        byzantine: equivocating_sender.then_some(0).into_iter().collect(),
    }
}

// ---------------------------------------------------------------------------
// OM(t)
// ---------------------------------------------------------------------------

/// One grid cell of the OM sweep: `(n, t)` plus the adversary.
#[derive(Debug, Clone)]
pub struct OmCell {
    /// Total number of participants (commander + lieutenants).
    pub n: usize,
    /// Number of traitors (also the relay depth `m`).
    pub t: usize,
    /// How traitors lie.
    pub strategy: TraitorStrategy,
    /// Whether the commander is one of the traitors.
    pub commander_faulty: bool,
}

/// Oral-messages Byzantine generals, with the commander's order drawn from
/// the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OmScenario;

impl Scenario for OmScenario {
    type Config = OmCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &OmCell, seed: u64) -> ProtocolStats {
        om_replica(cell.n, cell.t, cell.strategy, cell.commander_faulty, seed).run(
            |config, _, _| {
                let (decisions, stats) = run_om_process(&config);
                (decisions, stats.messages_sent)
            },
        )
    }
}

/// OM grid over fault ratios × adversary strategies.
pub fn om_grid(
    cells: &[(usize, usize)],
    strategies: &[TraitorStrategy],
    commander_faulty: bool,
) -> Vec<OmCell> {
    let mut grid = Vec::new();
    for &strategy in strategies {
        for &(n, t) in cells {
            grid.push(OmCell {
                n,
                t,
                strategy,
                commander_faulty,
            });
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Phase king
// ---------------------------------------------------------------------------

/// One grid cell of the phase-king sweep.
#[derive(Debug, Clone)]
pub struct PhaseKingCell {
    /// Total number of processes (honest + faulty).
    pub n: usize,
    /// Fault budget; the last `t` process ids are faulty. Since kings are
    /// ids `0..=t`, every king is honest under this placement — the regime
    /// the simple `n > 4t` protocol actually supports (a faulty king is
    /// where its guarantees stop, not an adversary this grid stresses).
    pub t: usize,
    /// The faulty behavior (RNG-based behaviors are re-seeded per replica).
    pub behavior: FaultyBehavior,
    /// `true`: all honest processes start with the same seed-drawn bit
    /// (validity is checkable); `false`: independent random preferences
    /// (validity is vacuous, agreement still must hold).
    pub unanimous_start: bool,
}

/// Phase-king consensus under a configurable adversary, with honest inputs
/// drawn from the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseKingScenario;

impl Scenario for PhaseKingScenario {
    type Config = PhaseKingCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &PhaseKingCell, seed: u64) -> ProtocolStats {
        phase_king_replica(cell.n, cell.t, &cell.behavior, cell.unanimous_start, seed).run_sync()
    }
}

/// Phase-king grid over fault ratios × adversary strategies.
pub fn phase_king_grid(
    cells: &[(usize, usize)],
    behaviors: &[FaultyBehavior],
    unanimous_start: bool,
) -> Vec<PhaseKingCell> {
    let mut grid = Vec::new();
    for behavior in behaviors {
        for &(n, t) in cells {
            grid.push(PhaseKingCell {
                n,
                t,
                behavior: behavior.clone(),
                unanimous_start,
            });
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Dolev–Strong signed broadcast
// ---------------------------------------------------------------------------

/// One grid cell of the signed-broadcast sweep.
#[derive(Debug, Clone)]
pub struct BroadcastCell {
    /// Total number of processes.
    pub n: usize,
    /// Fault budget (protocol runs `t + 1` rounds).
    pub t: usize,
    /// Whether the designated sender (process 0) equivocates.
    pub equivocating_sender: bool,
}

/// Dolev–Strong authenticated broadcast over a per-replica simulated PKI,
/// with the sender's input drawn from the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastScenario;

impl Scenario for BroadcastScenario {
    type Config = BroadcastCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &BroadcastCell, seed: u64) -> ProtocolStats {
        dolev_strong_replica(cell.n, cell.t, cell.equivocating_sender, seed).run_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_sim::SimRunner;

    #[test]
    fn om_within_the_bound_is_always_correct() {
        let grid = om_grid(
            &[(4, 1), (7, 2)],
            &[TraitorStrategy::Flip, TraitorStrategy::SplitByParity],
            false,
        );
        for cell in SimRunner::new(12, 1).run_sequential(&OmScenario, &grid) {
            assert_eq!(cell.outcome.agreement.mean(), 1.0, "cell {}", cell.cell);
            assert_eq!(cell.outcome.validity.mean(), 1.0, "cell {}", cell.cell);
        }
    }

    #[test]
    fn om_beyond_the_bound_fails_sometimes() {
        // n = 3, t = 1: the classical impossible configuration.
        let grid = om_grid(&[(3, 1)], &[TraitorStrategy::SplitByParity], false);
        let results = SimRunner::new(16, 2).run_sequential(&OmScenario, &grid);
        let correct = results[0]
            .outcome
            .agreement
            .mean()
            .min(results[0].outcome.validity.mean());
        assert!(correct < 1.0, "n=3,t=1 should not be reliably correct");
    }

    #[test]
    fn phase_king_tolerates_its_budget_and_reports_full_agreement() {
        let grid = phase_king_grid(
            &[(6, 1), (9, 2)],
            &[
                FaultyBehavior::Equivocate { seed: 7 },
                FaultyBehavior::RandomNoise { seed: 7 },
                FaultyBehavior::Garbage { seed: 7 },
            ],
            true,
        );
        for cell in SimRunner::new(10, 3).run_sequential(&PhaseKingScenario, &grid) {
            assert_eq!(cell.outcome.decided.mean(), 1.0);
            assert_eq!(cell.outcome.agreement.mean(), 1.0);
            assert_eq!(cell.outcome.validity.mean(), 1.0);
        }
    }

    #[test]
    fn phase_king_mixed_starts_still_agree() {
        let grid = phase_king_grid(&[(9, 2)], &[FaultyBehavior::Equivocate { seed: 4 }], false);
        let results = SimRunner::new(10, 4).run_sequential(&PhaseKingScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
    }

    #[test]
    fn broadcast_honest_sender_delivers_even_with_large_t() {
        let grid = vec![BroadcastCell {
            n: 5,
            t: 3,
            equivocating_sender: false,
        }];
        let results = SimRunner::new(6, 5).run_sequential(&BroadcastScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
        assert_eq!(results[0].outcome.validity.mean(), 1.0);
    }

    #[test]
    fn broadcast_equivocating_sender_still_yields_agreement() {
        let grid = vec![BroadcastCell {
            n: 5,
            t: 1,
            equivocating_sender: true,
        }];
        let results = SimRunner::new(6, 6).run_sequential(&BroadcastScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
    }
}
