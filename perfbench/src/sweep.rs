//! `sweep`: Monte Carlo protocol sweeps over `EventNet` through the
//! `bne-sim` engine — the e20, e21 and e22 grids with many more replicas.
//!
//! Every replica is a fresh seeded network driven by `EventNet::run`, so
//! the timing wheel, the routing RNG, the retry table, the protocol
//! handlers and the engine's merges carry the load, with no snapshots and
//! no dedup. The checker drives the same runtime through
//! snapshot/restore instead, so a runtime change that helps one use and
//! costs the other shows up between the two workloads.

use crate::prof::{self, TimedScenario};
use crate::{column_total, ratio, Batch, Workload};
use bne_net::scenario::{ben_or_scheduler_grid, bracha_partition_grid, AsyncBrachaCell, BenOrCell};
use bne_net::{
    quorum_consensus_grid, AsyncBrachaScenario, BenOrScenario, ConsensusStats, CrashRegime,
    HsucScenario, LatencyModel, PaxosScenario, QuorumConsensusCell, RbStats, RetryPolicy,
    SchedulerSpec,
};
use bne_sim::{derive_seed, CellResult, Scenario, SimRunner, StreamingStats};
use std::time::Instant;

/// Replicas per grid cell in a timed batch.
const REPLICAS: usize = 128;
/// Replicas per grid cell in the set-up gate.
const GATE_REPLICAS: usize = 32;
/// The event budget every scenario passes to `EventNet::run`; a replica
/// that reaches it was cut off before its queue drained.
const EVENT_BUDGET: f64 = 20_000_000.0;
/// The seed whose work counts are pinned: events, messages, timers,
/// retransmissions and truncated cells of one batch. Two timings at this
/// seed are known to measure the same work.
const REFERENCE_SEED: u64 = 0;
const REFERENCE_COUNTS: [u64; 5] = [2_490_770, 2_532_982, 84_412, 179_181, 0];

pub struct Sweep {
    seed: u64,
    workers: usize,
    ben_or: Vec<BenOrCell>,
    bracha: Vec<AsyncBrachaCell>,
    quorum: Vec<QuorumConsensusCell>,
}

/// The merged cells of one sweep.
#[derive(Debug, PartialEq)]
struct Outcome {
    ben_or: Vec<CellResult<ConsensusStats>>,
    bracha: Vec<CellResult<RbStats>>,
    paxos: Vec<CellResult<ConsensusStats>>,
    hsuc: Vec<CellResult<ConsensusStats>>,
}

impl Workload for Sweep {
    fn setup(seed: u64, workers: usize) -> (Self, u64, Vec<String>) {
        // e20: Ben-Or n=11 t=2 under three schedulers, 0-2 noise adversaries
        let ben_or = ben_or_scheduler_grid(
            &[(11, 2)],
            &[0, 1, 2],
            &[
                SchedulerSpec::Fifo,
                SchedulerSpec::Random { jitter: 2 },
                SchedulerSpec::Rush { honest_delay: 2 },
            ],
            LatencyModel::Constant(1),
            400,
        );
        // e21: Bracha with and without retry under partition windows,
        // then the same cells again with 20% loss
        let mut bracha = bracha_partition_grid(
            &[(6, 1)],
            &[0, 2, 4, 6],
            &[2, 4, 6],
            &[None, Some(RetryPolicy::exponential(2))],
        );
        let lossy: Vec<AsyncBrachaCell> = bracha
            .iter()
            .cloned()
            .map(|mut cell| {
                cell.net.faults.link.drop_prob = 0.2;
                cell
            })
            .collect();
        bracha.extend(lossy);
        // e22: Paxos and HSUC over crash regime x scheduler x n
        let quorum = quorum_consensus_grid(
            &[3, 5],
            &[
                CrashRegime::None,
                CrashRegime::CrashStop { after_events: 3 },
                CrashRegime::CrashRecovery {
                    after_events: 3,
                    recover_at: 300,
                },
            ],
            &[SchedulerSpec::Fifo, SchedulerSpec::Random { jitter: 2 }],
            40,
            12,
        );
        let sweep = Sweep {
            seed,
            workers,
            ben_or,
            bracha,
            quorum,
        };
        // gate: a small sweep is bit-identical sequential and parallel,
        // and passes the per-cell checks
        let sequential = sweep.run(GATE_REPLICAS, 1, false);
        let parallel = sweep.run(GATE_REPLICAS, workers, false);
        let mut failures = check(&sequential);
        if sequential != parallel {
            failures.push(format!(
                "set-up gate: the sweep differs between 1 and {workers} workers"
            ));
        }
        (sweep, cells(&sequential) + 1, failures)
    }

    fn batch(&self, traced: bool) -> Batch {
        let t0 = Instant::now();
        let outcome = self.run(REPLICAS, self.workers, traced);
        let wall = t0.elapsed().as_secs_f64();

        let mut failures = check(&outcome);
        let counts = counts(&outcome);
        if self.seed == REFERENCE_SEED && counts != REFERENCE_COUNTS {
            failures.push(format!(
                "seed {REFERENCE_SEED}: work counts {counts:?}, pinned {REFERENCE_COUNTS:?}"
            ));
        }
        let [events, messages, timers, retransmissions, truncated] = counts.map(|c| c as f64);
        let layers = if traced {
            let mut layers = vec![
                ("net.events", events),
                ("net.messages", messages),
                ("net.timers", timers),
                ("net.retransmissions", retransmissions),
                ("net.truncated", truncated),
                (
                    "net.events_per_replica_s",
                    ratio(events, prof::REPLICA.secs()),
                ),
            ];
            layers.extend(prof::sim_layers(wall, self.workers));
            layers
        } else {
            Vec::new()
        };
        let replicas = (cells(&outcome) * REPLICAS as u64) as f64;
        Batch {
            wall,
            ops: cells(&outcome),
            failures,
            rates: [replicas / wall, events / wall],
            digest: format!("{outcome:?}"),
            layers,
        }
    }
}

impl Sweep {
    fn run(&self, replicas: usize, workers: usize, traced: bool) -> Outcome {
        let runner = |grid: u64| SimRunner::new(replicas, derive_seed(self.seed, grid, 0));
        Outcome {
            ben_or: sweep(&runner(20), workers, BenOrScenario, &self.ben_or, traced),
            bracha: sweep(
                &runner(21),
                workers,
                AsyncBrachaScenario,
                &self.bracha,
                traced,
            ),
            paxos: sweep(&runner(22), workers, PaxosScenario, &self.quorum, traced),
            hsuc: sweep(&runner(23), workers, HsucScenario, &self.quorum, traced),
        }
    }
}

/// Runs `grid` through the engine, inside the replica and merge timing
/// shells when `traced`.
pub fn sweep<S>(
    runner: &SimRunner,
    workers: usize,
    scenario: S,
    grid: &[S::Config],
    traced: bool,
) -> Vec<CellResult<S::Outcome>>
where
    S: Scenario + Sync,
    S::Config: Sync,
    S::Outcome: Send,
{
    if !traced {
        return runner.run_parallel_with(workers, &scenario, grid);
    }
    runner
        .run_parallel_with(workers, &TimedScenario(scenario), grid)
        .into_iter()
        .map(|r| CellResult {
            cell: r.cell,
            replicas: r.replicas,
            outcome: r.outcome.0,
        })
        .collect()
}

/// Events, messages, timers, retransmissions and truncated cells, summed
/// over the grid.
fn counts(outcome: &Outcome) -> [u64; 5] {
    let consensus = || {
        outcome
            .ben_or
            .iter()
            .chain(&outcome.paxos)
            .chain(&outcome.hsuc)
    };
    let total = |consensus_column: fn(&ConsensusStats) -> &StreamingStats,
                 rb_column: fn(&RbStats) -> &StreamingStats| {
        let sum: f64 = consensus()
            .map(|c| column_total(consensus_column(&c.outcome)))
            .chain(
                outcome
                    .bracha
                    .iter()
                    .map(|c| column_total(rb_column(&c.outcome))),
            )
            .sum();
        sum as u64
    };
    let truncated = consensus()
        .map(|c| &c.outcome.events)
        .chain(outcome.bracha.iter().map(|c| &c.outcome.events))
        .filter(|events| events.max() >= EVENT_BUDGET)
        .count();
    [
        total(|c| &c.events, |c| &c.events),
        total(|c| &c.messages, |c| &c.messages),
        total(|c| &c.timers, |c| &c.timers),
        outcome
            .bracha
            .iter()
            .map(|c| column_total(&c.outcome.retransmissions))
            .sum::<f64>() as u64,
        truncated as u64,
    ]
}

fn cells(outcome: &Outcome) -> u64 {
    (outcome.ben_or.len() + outcome.bracha.len() + outcome.paxos.len() + outcome.hsuc.len()) as u64
}

/// One line per failing cell. Every consensus cell must keep agreement
/// and validity at 1.0 and Bracha must keep agreement (its RB validity
/// column also demands delivery, which the bare arm loses by design
/// under a fatal partition window); no replica may exhaust the event
/// budget, the silent failure a release build's `debug_assert!` hides.
fn check(outcome: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    let mut gate = |name: &str, cell: usize, safe: bool, events: &StreamingStats| {
        if !safe {
            failures.push(format!("{name} cell {cell}: a safety column is below 1.0"));
        }
        if events.max() >= EVENT_BUDGET {
            failures.push(format!(
                "{name} cell {cell}: a replica hit the event budget"
            ));
        }
    };
    for (name, results) in [
        ("ben-or", &outcome.ben_or),
        ("paxos", &outcome.paxos),
        ("hsuc", &outcome.hsuc),
    ] {
        for r in results {
            let safe = r.outcome.agreement.min() == 1.0 && r.outcome.validity.min() == 1.0;
            gate(name, r.cell, safe, &r.outcome.events);
        }
    }
    for r in &outcome.bracha {
        gate(
            "bracha",
            r.cell,
            r.outcome.agreement.min() == 1.0,
            &r.outcome.events,
        );
    }
    failures
}
