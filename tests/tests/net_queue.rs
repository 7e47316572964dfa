//! Differential property tests of the two `EventNet` queue
//! implementations: the bucketed timing wheel (default) against the
//! reference binary heap ([`QueueImpl::Heap`]).
//!
//! Both realize the same `(virtual time, tiebreak, sequence number)`
//! total order, so every execution must be **bit-identical** between
//! them — same event traces, same statistics (including the work
//! counters: events processed, peak queue length, arena high-water
//! mark), same decisions, same decision times. The proptests sweep
//! random (protocol × scheduler × latency × faults × seed) workloads
//! across OM, phase king, Bracha, Ben-Or and Paxos — including retry
//! policies whose exponential backoff crosses the wheel horizon (the
//! overflow heap path) and crash-recovery fault plans whose planned
//! `Crash`/`Recover` events share the queue with ordinary traffic.

use bne_core::byzantine::adversary::{FaultyBehavior, FaultyProcess};
use bne_core::byzantine::bracha::BrachaMsg;
use bne_core::byzantine::network::Process;
use bne_core::byzantine::om::{OmConfig, TraitorStrategy};
use bne_core::byzantine::om_process::{om_process_set, OmProcess};
use bne_core::byzantine::phase_king::PhaseKingProcess;
use bne_core::byzantine::PaxosMsg;
use bne_core::byzantine::Value;
use bne_core::net::{
    AsyncProcess, BenOrProcess, BrachaProcess, EventNet, LatencyModel, LinkFaults, NetConfig,
    NetStats, Partition, PaxosProcess, QueueImpl, RetryAdapter, RetryMsg, RetryPolicy,
    RoundAdapter, SchedulerPolicy, TraceEvent,
};
use bne_core::sim::derive_seed;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Everything observable about one execution: whether the queue drained,
/// the full event trace, the statistics (work counters included), the
/// decisions and the virtual decision times.
type Fingerprint = (
    bool,
    Vec<TraceEvent>,
    NetStats,
    Vec<Option<u64>>,
    Vec<Option<u64>>,
);

/// Runs a process set to quiescence and captures its fingerprint.
fn fingerprint<M: Clone>(
    procs: Vec<Box<dyn AsyncProcess<Msg = M>>>,
    cfg: NetConfig,
) -> Fingerprint {
    let mut net = EventNet::new(procs, cfg);
    let drained = net.run(10_000_000);
    (
        drained,
        net.trace().to_vec(),
        net.stats(),
        net.decisions(),
        net.decision_times().to_vec(),
    )
}

/// Builds one network configuration from proptest-drawn small integers,
/// covering all three schedulers, the three latency models, iid loss and
/// a healing mid-execution partition.
#[allow(clippy::too_many_arguments)]
fn config(
    n: usize,
    latency_kind: u8,
    scheduler_kind: u8,
    drop_percent: u64,
    partitioned: bool,
    round_ticks: u64,
    seed: u64,
    queue: QueueImpl,
) -> NetConfig {
    let latency = match latency_kind % 3 {
        0 => LatencyModel::Constant(seed % 4),
        1 => LatencyModel::UniformJitter {
            min: 0,
            max: 1 + seed % 7,
        },
        _ => LatencyModel::HeavyTail {
            base: 1 + seed % 3,
            tail_prob: 0.3,
            max_doublings: 4,
        },
    };
    let scheduler = match scheduler_kind % 3 {
        0 => SchedulerPolicy::Fifo,
        1 => SchedulerPolicy::RandomInterleave {
            seed: derive_seed(seed, 7, 0),
            jitter: 3,
        },
        _ => SchedulerPolicy::AdversarialRush {
            byzantine: (0..n / 3).collect(),
            honest_delay: 2,
        },
    };
    let partition = partitioned.then(|| {
        let group: BTreeSet<usize> = (0..n / 2).collect();
        Partition::window(group, 2 + seed % 5, 10 + seed % 20)
    });
    NetConfig {
        latency,
        scheduler,
        faults: LinkFaults {
            drop_prob: drop_percent as f64 / 100.0,
            partition,
        }
        .into(),
        round_ticks,
        record_trace: true,
        ..NetConfig::lockstep(seed)
    }
    .with_queue(queue)
}

/// Builds one phase-king process set (honest bits drawn from the seed,
/// then `t` stochastic adversaries).
fn phase_king_set(n: usize, t: usize, seed: u64) -> Vec<Box<dyn Process<Msg = Value>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut processes: Vec<Box<dyn Process<Msg = Value>>> = (0..n - t)
        .map(|_| {
            Box::new(PhaseKingProcess::new(rng.random_range(0..2u64), t))
                as Box<dyn Process<Msg = Value>>
        })
        .collect();
    for i in 0..t {
        let behavior = match i % 3 {
            0 => FaultyBehavior::Equivocate { seed: seed ^ 0xE1 },
            1 => FaultyBehavior::RandomNoise { seed: seed ^ 0xE2 },
            _ => FaultyBehavior::Garbage { seed: seed ^ 0xE3 },
        };
        processes.push(Box::new(FaultyProcess::new(behavior)));
    }
    processes
}

/// Wraps a round-based process set in `RoundAdapter`s.
fn adapt(
    set: Vec<Box<dyn Process<Msg = Value>>>,
    rounds: usize,
    round_ticks: u64,
) -> Vec<Box<dyn AsyncProcess<Msg = Value>>> {
    set.into_iter()
        .map(|p| Box::new(RoundAdapter::new(p, rounds, round_ticks)) as _)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Phase king through the round adapter: wheel and heap executions
    /// are bit-identical under every scheduler, latency model, loss rate
    /// and partition drawn.
    #[test]
    fn wheel_equals_heap_for_phase_king(
        n in 4usize..10,
        t_raw in 0usize..3,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        partitioned_bit in 0u8..2,
        round_ticks in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let partitioned = partitioned_bit == 1;
        let t = t_raw.min(n - 2);
        let rounds = PhaseKingProcess::rounds_needed(t);
        let run = |queue| {
            let cfg = config(
                n, latency_kind, scheduler_kind, drop_percent, partitioned,
                round_ticks, seed, queue,
            );
            fingerprint(adapt(phase_king_set(n, t, seed), rounds, cfg.round_ticks), cfg)
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    /// OM (EIG processes) through the round adapter, traitorous
    /// commander included: wheel == heap.
    #[test]
    fn wheel_equals_heap_for_om(
        n in 4usize..8,
        t in 1usize..3,
        commander_faulty_bit in 0u8..2,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        partitioned_bit in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let partitioned = partitioned_bit == 1;
        let commander_faulty = commander_faulty_bit == 1;
        let traitors: BTreeSet<usize> = if commander_faulty {
            (0..t).collect()
        } else {
            (1..=t).collect()
        };
        let om_cfg = OmConfig {
            n,
            m: t,
            commander_value: seed % 2,
            traitors,
            strategy: TraitorStrategy::SplitByParity,
            default_value: 0,
        };
        let rounds = OmProcess::rounds_needed(om_cfg.m);
        let run = |queue| {
            let cfg = config(
                n, latency_kind, scheduler_kind, drop_percent, partitioned,
                2, seed, queue,
            );
            fingerprint(
                om_process_set(&om_cfg)
                    .into_iter()
                    .map(|p| Box::new(RoundAdapter::new(p, rounds, 2)) as _)
                    .collect(),
                cfg,
            )
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    /// Event-driven Bracha reliable broadcast (no round adapter):
    /// wheel == heap.
    #[test]
    fn wheel_equals_heap_for_bracha(
        n in 4usize..10,
        t_raw in 0usize..3,
        input in 0u64..2,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        partitioned_bit in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let partitioned = partitioned_bit == 1;
        let t = t_raw.min((n - 1) / 3);
        let run = |queue| {
            let cfg = config(
                n, latency_kind, scheduler_kind, drop_percent, partitioned,
                1, seed, queue,
            );
            let procs: Vec<Box<dyn AsyncProcess<Msg = BrachaMsg>>> = (0..n)
                .map(|_| Box::new(BrachaProcess::new(t, 0, input)) as _)
                .collect();
            fingerprint(procs, cfg)
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    /// Event-driven Ben-Or randomized consensus, whose execution is a
    /// random variable of the schedule: wheel == heap.
    #[test]
    fn wheel_equals_heap_for_ben_or(
        n in 4usize..9,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..30,
        partitioned_bit in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let partitioned = partitioned_bit == 1;
        let run = |queue| {
            let cfg = config(
                n, latency_kind, scheduler_kind, drop_percent, partitioned,
                1, seed, queue,
            );
            let procs: Vec<Box<dyn AsyncProcess<Msg = _>>> = (0..n)
                .map(|i| {
                    Box::new(BenOrProcess::new(
                        1,
                        (i % 2) as u64,
                        40,
                        derive_seed(seed, 9, i as u64),
                    )) as _
                })
                .collect();
            fingerprint(procs, cfg)
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    /// Retry-wrapped Bracha with timeouts/backoffs that cross the wheel
    /// horizon: every retransmission timer takes the
    /// overflow-heap path, and the executions must still be
    /// bit-identical.
    #[test]
    fn wheel_equals_heap_across_the_overflow_horizon(
        n in 4usize..8,
        timeout in 100u64..500,
        backoff in 2u64..5,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..30,
        seed in 0u64..u64::MAX,
    ) {
        let policy = RetryPolicy { timeout, backoff, max_attempts: 4 };
        let run = |queue| {
            let cfg = config(
                n, latency_kind, scheduler_kind, drop_percent, false,
                1, seed, queue,
            );
            let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<BrachaMsg>>>> = (0..n)
                .map(|_| Box::new(RetryAdapter::new(BrachaProcess::new(1, 0, 1), policy)) as _)
                .collect();
            fingerprint(procs, cfg)
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }

    /// Single-decree Paxos under proptest-drawn crash-recovery plans:
    /// planned `Crash`/`Recover` events flow through the same queue as
    /// deliveries and timers (and crashed processes absorb events as
    /// `crashed_drops`), so wheel and heap must still agree bit-for-bit
    /// — traces, decisions, decision times, recovery stats and all.
    #[test]
    fn wheel_equals_heap_under_crash_plans(
        n in 3usize..=6,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        crash_slot in 0usize..6,
        after_k in 1u64..40,
        recover_bit in 0u8..2,
        recover_time in 50u64..400,
        seed in 0u64..u64::MAX,
    ) {
        let crash_proc = crash_slot % n;
        let recover = (recover_bit == 1).then_some(recover_time);
        let inputs: Vec<u64> = (0..n as u64).map(|i| (seed >> i) % 100).collect();
        let run = |queue| {
            let mut cfg = config(
                n, latency_kind, scheduler_kind, 0, false,
                1, seed, queue,
            );
            let mut plan = std::mem::take(&mut cfg.faults).crash(crash_proc, after_k);
            if let Some(t) = recover {
                plan = plan.recover_at(t);
            }
            cfg.faults = plan;
            let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = inputs
                .iter()
                .map(|&v| Box::new(PaxosProcess::new(v, 30, 6)) as _)
                .collect();
            fingerprint(procs, cfg)
        };
        prop_assert_eq!(run(QueueImpl::Wheel), run(QueueImpl::Heap));
    }
}

/// Deterministic spot check: the counters confirming "identical work"
/// between queue implementations are exactly the ones BENCH_3's queue
/// gate compares —
/// events processed, peak queue length, arena high-water mark.
#[test]
fn work_counters_are_identical_across_queue_impls() {
    let run = |queue| {
        let cfg = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 4 },
            scheduler: SchedulerPolicy::RandomInterleave {
                seed: 11,
                jitter: 2,
            },
            faults: LinkFaults::lossy(0.1).into(),
            round_ticks: 3,
            ..NetConfig::lockstep(17)
        }
        .with_queue(queue);
        let rounds = PhaseKingProcess::rounds_needed(2);
        fingerprint(adapt(phase_king_set(7, 2, 17), rounds, 3), cfg)
    };
    let (_, _, wheel_stats, ..) = run(QueueImpl::Wheel);
    let (_, _, heap_stats, ..) = run(QueueImpl::Heap);
    assert_eq!(wheel_stats, heap_stats);
    assert!(wheel_stats.events_processed > 0);
    assert!(wheel_stats.peak_queue_len > 0);
    assert!(wheel_stats.arena_high_water > 0);
}
