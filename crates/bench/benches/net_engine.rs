//! Network-runtime benches: the lockstep `SyncNetwork` vs the `bne-net`
//! async event queue vs parallel replica sweeps through the scenario
//! engine.
//!
//! Run and record to `BENCH_3.json` in the repo root: every leg —
//! lockstep vs event queue, the event-driven protocols, timing wheel vs
//! reference heap, crash-recovery consensus, observability overhead, the
//! null-echo runtime floor and the 10^6-run mega sweep — with the floor
//! in ns/event as its headline:
//!
//! ```text
//! BNE_BENCH_DIR=$PWD cargo bench -p bne-bench --bench net_engine
//! ```
//!
//! CI runs this bench in bounded smoke mode (`BNE_BENCH_SMOKE=1`). In
//! **both** modes the zero-latency-FIFO-equals-`SyncNetwork` assertion
//! gates the timing run: for OM (EIG processes) and phase king, across a
//! spread of `(n, t, behavior, seed)` configurations, decisions, round
//! counts and message counts must be bit-identical between the two
//! runtimes — a divergence fails the bench (and the CI job) before
//! anything is timed. The async scenario sweep is additionally asserted
//! bit-identical across forced worker counts.

use bne_bench::BenchReport;
use bne_core::byzantine::adversary::{FaultyBehavior, FaultyProcess};
use bne_core::byzantine::bracha::BrachaMsg;
use bne_core::byzantine::network::{Process, SyncNetwork};
use bne_core::byzantine::om::{OmConfig, TraitorStrategy};
use bne_core::byzantine::om_process::{om_process_set, OmProcess};
use bne_core::byzantine::paxos::PaxosMsg;
use bne_core::byzantine::phase_king::PhaseKingProcess;
use bne_core::byzantine::Value;
use bne_core::net::protocols::run_bracha;
use bne_core::net::scenario::{
    async_om_loss_grid, ben_or_scheduler_grid, quorum_consensus_grid, AsyncPhaseKingCell,
    BenOrCell, BenOrScenario, CrashRegime, HsucScenario, NetProfile, PaxosScenario, SchedulerSpec,
};
use bne_core::net::{
    run_paxos, run_round_protocol, AsyncOmScenario, AsyncPhaseKingScenario, AsyncProcess,
    BrachaProcess, EventNet, FaultPlan, HistogramSpec, LatencyModel, LinkFaults, MetricsObserver,
    NetConfig, NetCtx, PaxosProcess, QueueImpl, RetryAdapter, RetryMsg, RetryPolicy, RoundAdapter,
    SchedulerPolicy,
};
use bne_core::sim::json::Json;
use bne_core::sim::SimRunner;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Runs a retry-wrapped Bracha broadcast (process 0 broadcasting
/// `input`) to quiescence.
fn run_bracha_retry(
    n: usize,
    t: usize,
    input: u64,
    policy: RetryPolicy,
    cfg: NetConfig,
) -> EventNet<RetryMsg<BrachaMsg>> {
    let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<BrachaMsg>>>> = (0..n)
        .map(|_| Box::new(RetryAdapter::new(BrachaProcess::new(t, 0, input), policy)) as _)
        .collect();
    let mut net = EventNet::new(procs, cfg);
    assert!(net.run(10_000_000), "retry queue must drain");
    net
}

/// Processes in a null-echo replica.
const NULL_ECHO_N: usize = 11;
/// Hops each null-echo token makes after its first send.
const NULL_ECHO_HOPS: u64 = 200;
/// Events in one null-echo replica: every token is delivered once per
/// hop plus once for its first send (11 × 201 = 2,211).
const NULL_ECHO_EVENTS: usize = NULL_ECHO_N * (NULL_ECHO_HOPS as usize + 1);

/// The null protocol of the runtime-floor legs: each process starts one
/// token with a hop budget, and every delivery is answered by one unicast
/// back to the sender until the budget is spent. The handlers do no work,
/// so time per event is the event runtime's own cost.
struct NullEcho;

impl AsyncProcess for NullEcho {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
        ctx.send((ctx.id() + 1) % ctx.n(), NULL_ECHO_HOPS);
    }
    fn on_message(&mut self, src: usize, hops: u64, ctx: &mut NetCtx<u64>) {
        if hops > 0 {
            ctx.send(src, hops - 1);
        }
    }
    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Runs one null-echo replica to quiescence.
fn run_null_echo(cfg: &NetConfig) -> EventNet<u64> {
    let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> =
        (0..NULL_ECHO_N).map(|_| Box::new(NullEcho) as _).collect();
    let mut net = EventNet::new(procs, cfg.clone());
    assert!(net.run(NULL_ECHO_EVENTS), "the null echo drains");
    net
}

/// Null-echo replicas in one timed block (about 0.5 s at 80 ns/event).
const NULL_ECHO_BLOCK: usize = 3_000;

/// Times the null-echo legs as blocks of `replicas` runs, `blocks` per
/// leg, the legs taking turns block by block so that a change in the
/// host's speed reaches each of them alike. A leg's record holds its
/// blocks in ns per replica; its floor is its fastest block, since host
/// noise only ever adds time. Criterion's few samples of one window per
/// leg could not resolve a 10–20% change here; best-of-k blocks can.
fn time_null_echo(
    legs: &[(&str, NetConfig)],
    replicas: usize,
    blocks: usize,
) -> Vec<criterion::BenchResult> {
    let mut per_replica = vec![Vec::with_capacity(blocks); legs.len()];
    for _ in 0..blocks {
        for ((_, cfg), times) in legs.iter().zip(&mut per_replica) {
            let start = std::time::Instant::now();
            for _ in 0..replicas {
                black_box(run_null_echo(cfg).now());
            }
            times.push(start.elapsed().as_nanos() as f64 / replicas as f64);
        }
    }
    legs.iter()
        .zip(per_replica)
        .map(|((name, _), mut times)| {
            times.sort_by(f64::total_cmp);
            criterion::BenchResult {
                name: name.to_string(),
                median_ns: times[times.len() / 2],
                min_ns: times[0],
                max_ns: times[times.len() - 1],
                samples: times.len(),
                iters_per_sample: replicas as u64,
            }
        })
        .collect()
}

/// Builds one phase-king process set from a seed (honest initial bits
/// drawn from the seed, `t` stochastic adversaries with explicit seeds).
fn phase_king_set(n: usize, t: usize, seed: u64) -> Vec<Box<dyn Process<Msg = Value>>> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
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

fn om_config(n: usize, t: usize, seed: u64) -> OmConfig {
    OmConfig {
        n,
        m: t,
        commander_value: seed % 2,
        traitors: (1..=t).collect(),
        strategy: TraitorStrategy::SplitByParity,
        default_value: 0,
    }
}

/// The gate: zero-latency FIFO on the event queue must reproduce the
/// lockstep network bit-identically before any timing happens.
fn assert_lockstep_equals_sync(pk_cells: &[(usize, usize)], om_cells: &[(usize, usize)]) {
    for &(n, t) in pk_cells {
        for seed in 0..8u64 {
            let rounds = PhaseKingProcess::rounds_needed(t);
            let mut sync = SyncNetwork::new(phase_king_set(n, t, seed));
            sync.run(rounds);
            let async_out = run_round_protocol(
                phase_king_set(n, t, seed),
                rounds,
                NetConfig::lockstep(seed),
            );
            assert_eq!(
                sync.decisions(),
                async_out.decisions,
                "phase king (n={n}, t={t}, seed={seed}): decisions diverged"
            );
            assert_eq!(
                sync.stats(),
                async_out.round_stats(),
                "phase king (n={n}, t={t}, seed={seed}): stats diverged"
            );
        }
    }
    for &(n, t) in om_cells {
        for seed in 0..8u64 {
            let config = om_config(n, t, seed);
            let rounds = OmProcess::rounds_needed(config.m);
            let mut sync = SyncNetwork::new(om_process_set(&config));
            sync.run(rounds);
            let async_out =
                run_round_protocol(om_process_set(&config), rounds, NetConfig::lockstep(seed));
            assert_eq!(
                sync.decisions(),
                async_out.decisions,
                "OM (n={n}, t={t}, seed={seed}): decisions diverged"
            );
            assert_eq!(
                sync.stats(),
                async_out.round_stats(),
                "OM (n={n}, t={t}, seed={seed}): stats diverged"
            );
        }
    }
}

/// The queue gate: the timing wheel and the reference binary heap must
/// produce **bit-identical executions** — same event traces, same
/// statistics (including the work counters: events processed, peak queue
/// length, arena high-water mark), same decisions and decision times —
/// before either implementation is timed. Workloads cover the stochastic
/// scheduler with jitter + iid loss (out-of-order bucket appends) and a
/// retry policy whose backoff crosses the wheel horizon (the overflow
/// heap path).
fn assert_wheel_equals_heap(pk_n: usize, pk_t: usize) {
    let pk_rounds = PhaseKingProcess::rounds_needed(pk_t);
    for seed in 0..6u64 {
        let cfg = |queue: QueueImpl| {
            NetConfig {
                latency: LatencyModel::UniformJitter { min: 0, max: 5 },
                scheduler: SchedulerPolicy::RandomInterleave {
                    seed: seed ^ 0xA5,
                    jitter: 3,
                },
                faults: LinkFaults::lossy(0.15).into(),
                round_ticks: 4,
                record_trace: true,
                ..NetConfig::lockstep(seed)
            }
            .with_queue(queue)
        };
        let run_pk = |queue: QueueImpl| {
            let adapters: Vec<Box<dyn AsyncProcess<Msg = Value>>> =
                phase_king_set(pk_n, pk_t, seed)
                    .into_iter()
                    .map(|p| Box::new(RoundAdapter::new(p, pk_rounds, 4)) as _)
                    .collect();
            let mut net = EventNet::new(adapters, cfg(queue));
            assert!(net.run(10_000_000), "phase-king queue must drain");
            (
                net.trace().to_vec(),
                net.stats(),
                net.decisions(),
                net.decision_times().to_vec(),
            )
        };
        assert_eq!(
            run_pk(QueueImpl::Wheel),
            run_pk(QueueImpl::Heap),
            "wheel/heap divergence on phase king (seed {seed})"
        );
        // retry backoff 200 → 800 ticks: far past the wheel horizon, so
        // every retransmission timer rides the overflow heap
        let run_bracha_arm = |queue: QueueImpl| {
            let policy = RetryPolicy {
                timeout: 200,
                backoff: 4,
                max_attempts: 0,
            };
            let net = run_bracha_retry(6, 1, 1, policy, cfg(queue));
            (
                net.trace().to_vec(),
                net.stats(),
                net.decisions(),
                net.decision_times().to_vec(),
            )
        };
        assert_eq!(
            run_bracha_arm(QueueImpl::Wheel),
            run_bracha_arm(QueueImpl::Heap),
            "wheel/heap divergence on bracha+retry (seed {seed})"
        );
    }
}

fn bench_net_engine(c: &mut Criterion) {
    let smoke = bne_bench::bench_smoke_mode();

    let (pk_n, pk_t, replicas): (usize, usize, usize) = if smoke { (6, 1, 8) } else { (13, 3, 32) };
    let om_cells: &[(usize, usize)] = if smoke { &[(4, 1)] } else { &[(4, 1), (7, 2)] };

    // -- the equality gate (both modes) -------------------------------------
    let mut gate_cells = vec![(pk_n, pk_t), (6, 1)];
    gate_cells.dedup(); // smoke mode's main cell IS (6, 1)
    assert_lockstep_equals_sync(&gate_cells, om_cells);

    // -- the wheel-vs-heap identity gate (both modes, before timing) --------
    assert_wheel_equals_heap(pk_n, pk_t);

    // -- the async sweep is engine-bit-identical across worker counts -------
    let pk_grid: Vec<AsyncPhaseKingCell> = vec![
        AsyncPhaseKingCell {
            n: pk_n,
            t: pk_t,
            behavior: FaultyBehavior::Equivocate { seed: 3 },
            unanimous_start: true,
            net: NetProfile::lockstep(),
        },
        AsyncPhaseKingCell {
            n: pk_n,
            t: pk_t,
            behavior: FaultyBehavior::RandomNoise { seed: 3 },
            unanimous_start: false,
            net: NetProfile {
                latency: LatencyModel::UniformJitter { min: 0, max: 3 },
                scheduler: SchedulerSpec::Random { jitter: 2 },
                faults: LinkFaults::lossy(0.1).into(),
                round_ticks: 4,
                ..NetProfile::lockstep()
            },
        },
    ];
    let runner = SimRunner::new(replicas, 4_300);
    let sequential = runner.run_sequential(&AsyncPhaseKingScenario, &pk_grid);
    for workers in [2, 3, 5] {
        assert_eq!(
            sequential,
            runner.run_parallel_with(workers, &AsyncPhaseKingScenario, &pk_grid),
            "{workers}-worker async sweep is not bit-identical to sequential"
        );
    }

    // -- sync lockstep vs async event queue, identical workloads ------------
    let pk_rounds = PhaseKingProcess::rounds_needed(pk_t);
    c.bench_function("net_sync_lockstep/phase_king", |b| {
        b.iter(|| {
            let mut net = SyncNetwork::new(phase_king_set(pk_n, pk_t, 1));
            net.run(pk_rounds);
            black_box(net.decisions())
        })
    });
    c.bench_function("net_async_event_queue/phase_king", |b| {
        b.iter(|| {
            black_box(run_round_protocol(
                phase_king_set(pk_n, pk_t, 1),
                pk_rounds,
                NetConfig::lockstep(1),
            ))
        })
    });
    c.bench_function("net_async_heap/phase_king", |b| {
        // the reference heap on the identical workload — the wheel leg
        // above is the default queue, so this pair is the
        // queue-implementation comparison
        b.iter(|| {
            black_box(run_round_protocol(
                phase_king_set(pk_n, pk_t, 1),
                pk_rounds,
                NetConfig::lockstep(1).with_queue(QueueImpl::Heap),
            ))
        })
    });
    c.bench_function("net_async_adversarial/phase_king", |b| {
        // the workload only the async runtime can express: jittered
        // latency, random interleaving, 10% loss
        let cfg = NetConfig {
            latency: LatencyModel::UniformJitter { min: 0, max: 3 },
            scheduler: SchedulerPolicy::RandomInterleave { seed: 5, jitter: 2 },
            faults: LinkFaults::lossy(0.1).into(),
            round_ticks: 4,
            ..NetConfig::lockstep(1)
        };
        b.iter(|| {
            black_box(run_round_protocol(
                phase_king_set(pk_n, pk_t, 1),
                pk_rounds,
                cfg.clone(),
            ))
        })
    });

    let (om_n, om_t) = *om_cells.last().unwrap();
    let om_cfg = om_config(om_n, om_t, 1);
    let om_rounds = OmProcess::rounds_needed(om_cfg.m);
    c.bench_function("net_sync_lockstep/om_eig", |b| {
        b.iter(|| {
            let mut net = SyncNetwork::new(om_process_set(&om_cfg));
            net.run(om_rounds);
            black_box(net.decisions())
        })
    });
    c.bench_function("net_async_event_queue/om_eig", |b| {
        b.iter(|| {
            black_box(run_round_protocol(
                om_process_set(&om_cfg),
                om_rounds,
                NetConfig::lockstep(1),
            ))
        })
    });
    c.bench_function("net_async_heap/om_eig", |b| {
        b.iter(|| {
            black_box(run_round_protocol(
                om_process_set(&om_cfg),
                om_rounds,
                NetConfig::lockstep(1).with_queue(QueueImpl::Heap),
            ))
        })
    });

    // -- the runtime floor: a null protocol, the null-echo legs ------------
    //
    // n = 11, `Constant(1)` latency, 2,211 events per replica: the cost
    // of an event with no protocol work, on the wheel under FIFO and
    // random interleaving and on the reference heap. Gate first: every
    // configuration processes exactly the planned events, and the heap
    // reproduces the wheel's FIFO execution. The legs are timed below,
    // after the criterion legs, as best-of-k blocks (`time_null_echo`).
    let null_fifo = NetConfig {
        latency: LatencyModel::Constant(1),
        ..NetConfig::lockstep(1)
    };
    let null_legs = [
        ("net_null_echo/wheel_fifo", null_fifo.clone()),
        (
            "net_null_echo/wheel_random",
            NetConfig {
                scheduler: SchedulerPolicy::RandomInterleave { seed: 5, jitter: 2 },
                ..null_fifo.clone()
            },
        ),
        (
            "net_null_echo/heap_fifo",
            null_fifo.clone().with_queue(QueueImpl::Heap),
        ),
    ];
    for (name, cfg) in &null_legs {
        let stats = run_null_echo(cfg).stats();
        assert_eq!(stats.events_processed, NULL_ECHO_EVENTS, "{name}");
    }
    assert_eq!(
        run_null_echo(&null_fifo).stats(),
        run_null_echo(&null_legs[2].1).stats(),
        "wheel/heap divergence on the null echo"
    );

    // -- replica sweeps through the scenario engine -------------------------
    let loss_grid = async_om_loss_grid(
        om_cells,
        &[0.0, 0.15, 0.3],
        TraitorStrategy::SplitByParity,
        false,
        false,
    );
    let sweep_runner = SimRunner::new(replicas, 4_301);
    c.bench_function("net_replica_sweep_seq/om_loss_grid", |b| {
        b.iter(|| black_box(sweep_runner.run_sequential(&AsyncOmScenario, &loss_grid)))
    });
    c.bench_function("net_replica_sweep_par/om_loss_grid", |b| {
        b.iter(|| black_box(sweep_runner.run(&AsyncOmScenario, &loss_grid)))
    });
    c.bench_function("net_replica_sweep_seq/phase_king_grid", |b| {
        b.iter(|| black_box(runner.run_sequential(&AsyncPhaseKingScenario, &pk_grid)))
    });
    c.bench_function("net_replica_sweep_par/phase_king_grid", |b| {
        b.iter(|| black_box(runner.run(&AsyncPhaseKingScenario, &pk_grid)))
    });

    // -- event-driven protocols (no round adapter) --------------------------
    //
    // Gates first, like every other timing run in this bench: Bracha on
    // the lockstep configuration must satisfy all three RB conditions,
    // and the retry adapter under zero loss must be behaviorally
    // invisible (identical decisions and decision times, exactly one ack
    // per data message, nothing retransmitted).
    let (brn, brt): (usize, usize) = if smoke { (6, 1) } else { (10, 3) };
    {
        use bne_core::byzantine::properties::rb_report;
        for seed in 0..8u64 {
            let bare = run_bracha(brn, brt, 1, NetConfig::lockstep(seed), 1_000_000);
            let honest = vec![true; brn];
            assert!(
                rb_report(&bare.decisions(), &honest, Some(1)).correct(),
                "bracha lockstep violates RB properties (seed {seed})"
            );
            let wrapped = run_bracha_retry(
                brn,
                brt,
                1,
                RetryPolicy::default(),
                NetConfig::lockstep(seed),
            );
            assert_eq!(
                bare.decisions(),
                wrapped.decisions(),
                "retry adapter changed zero-loss decisions (seed {seed})"
            );
            assert_eq!(
                bare.decision_times(),
                wrapped.decision_times(),
                "retry adapter changed zero-loss decision times (seed {seed})"
            );
            assert_eq!(
                wrapped.stats().messages_sent,
                2 * bare.stats().messages_sent,
                "zero-loss retry must be data + one ack, no resends (seed {seed})"
            );
        }
    }

    c.bench_function("event_bracha/direct", |b| {
        b.iter(|| black_box(run_bracha(brn, brt, 1, NetConfig::lockstep(1), 1_000_000).decisions()))
    });
    c.bench_function("event_bracha_retry/zero_loss", |b| {
        b.iter(|| {
            black_box(
                run_bracha_retry(brn, brt, 1, RetryPolicy::default(), NetConfig::lockstep(1))
                    .decisions(),
            )
        })
    });
    c.bench_function("event_bracha_retry/loss20", |b| {
        let cfg = NetConfig {
            latency: LatencyModel::Constant(1),
            faults: LinkFaults::lossy(0.2).into(),
            ..NetConfig::lockstep(1)
        };
        b.iter(|| {
            black_box(
                run_bracha_retry(brn, brt, 1, RetryPolicy::exponential(3), cfg.clone()).decisions(),
            )
        })
    });

    // Ben-Or: the running time is a random variable of the scheduler, so
    // these legs time whole replica ensembles (the honest unit of work)
    // rather than one lucky execution.
    let ben_or_cells: &[(usize, usize)] = &[(if smoke { 8 } else { 11 }, 1)];
    let ben_or_grid = |spec: SchedulerSpec| {
        ben_or_scheduler_grid(ben_or_cells, &[1], &[spec], LatencyModel::Constant(1), 200)
    };
    let fifo_grid = ben_or_grid(SchedulerSpec::Fifo);
    let rush_grid = ben_or_grid(SchedulerSpec::Rush { honest_delay: 2 });
    let ben_or_runner = SimRunner::new(if smoke { 8 } else { 16 }, 4_302);
    c.bench_function("event_ben_or_sweep/fifo", |b| {
        b.iter(|| black_box(ben_or_runner.run_sequential(&BenOrScenario, &fifo_grid)))
    });
    c.bench_function("event_ben_or_sweep/rush", |b| {
        b.iter(|| black_box(ben_or_runner.run_sequential(&BenOrScenario, &rush_grid)))
    });
    // the same FIFO ensemble on the reference heap: the ensemble-level
    // half of the queue comparison (work counters are asserted
    // identical by the gate; only wall time may differ)
    let fifo_grid_heap: Vec<BenOrCell> = fifo_grid
        .iter()
        .map(|cell| BenOrCell {
            net: cell.net.clone().with_queue(QueueImpl::Heap),
            ..cell.clone()
        })
        .collect();
    c.bench_function("event_ben_or_sweep_heap/fifo", |b| {
        b.iter(|| black_box(ben_or_runner.run_sequential(&BenOrScenario, &fifo_grid_heap)))
    });

    // -- crash-recovery consensus -------------------------------------------
    //
    // Gates first, as always: before anything is timed, single-decree
    // Paxos must be safe and live on the clean network, survive losing
    // its initial proposer at start (failover), and bring a crashed
    // acceptor back through the durable round-trip with everyone —
    // recovered process included — learning the one decided value.
    let pxn: usize = if smoke { 5 } else { 7 };
    let paxos_inputs: Vec<u64> = (0..pxn as u64).map(|i| 7 + i).collect();
    {
        for seed in 0..8u64 {
            let clean = run_paxos(&paxos_inputs, 40, 8, NetConfig::lockstep(seed), 10_000_000);
            let decisions = clean.decisions();
            assert!(
                decisions.iter().all(|d| *d == Some(paxos_inputs[0])),
                "clean paxos must decide the initial proposer's input (seed {seed}): {decisions:?}"
            );
            let failover_cfg = NetConfig {
                faults: FaultPlan::none().crash_at_start(0),
                ..NetConfig::lockstep(seed)
            };
            let failed = run_paxos(&paxos_inputs, 40, 8, failover_cfg, 10_000_000);
            let survivors: Vec<Option<u64>> = failed.decisions()[1..].to_vec();
            assert!(
                survivors.iter().all(|d| d.is_some()) && survivors.windows(2).all(|w| w[0] == w[1]),
                "paxos failover must leave the survivors agreed (seed {seed}): {survivors:?}"
            );
            let recovery_cfg = NetConfig {
                faults: FaultPlan::none().crash(pxn - 1, 1).recover_at(300),
                ..NetConfig::lockstep(seed)
            };
            let recovered = run_paxos(&paxos_inputs, 40, 12, recovery_cfg, 10_000_000);
            assert!(
                recovered
                    .decisions()
                    .iter()
                    .all(|d| *d == Some(paxos_inputs[0])),
                "recovered acceptor must re-learn the decision (seed {seed})"
            );
            assert_eq!(recovered.stats().recoveries[pxn - 1], 1, "seed {seed}");
        }
    }

    // Steady-state throughput: the clean two-phase pipeline, no timers
    // beyond the initial proposer's.
    c.bench_function("event_paxos/clean", |b| {
        b.iter(|| {
            black_box(
                run_paxos(&paxos_inputs, 40, 8, NetConfig::lockstep(1), 10_000_000).decisions(),
            )
        })
    });
    // Failover recovery latency: the initial proposer is crashed before
    // its on_start, so the decision waits on a staggered timeout firing
    // and a full fresh ballot — the price of leader failure.
    c.bench_function("event_paxos/failover", |b| {
        let cfg = NetConfig {
            faults: FaultPlan::none().crash_at_start(0),
            ..NetConfig::lockstep(1)
        };
        b.iter(|| black_box(run_paxos(&paxos_inputs, 40, 8, cfg.clone(), 10_000_000).decisions()))
    });
    // Durable round-trip: crash an acceptor mid-run, recover it at t=300,
    // let it re-learn via a fresh ballot.
    c.bench_function("event_paxos/crash_recovery", |b| {
        let cfg = NetConfig {
            faults: FaultPlan::none().crash(pxn - 1, 1).recover_at(300),
            ..NetConfig::lockstep(1)
        };
        b.iter(|| black_box(run_paxos(&paxos_inputs, 40, 12, cfg.clone(), 10_000_000).decisions()))
    });
    // The e22 crash-grid sweep through the scenario engine, both
    // protocols on the identical grid (the atlas's unit of work).
    let crash_grid = quorum_consensus_grid(
        &[if smoke { 3 } else { 5 }],
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
    let crash_runner = SimRunner::new(if smoke { 8 } else { 16 }, 4_304);
    c.bench_function("event_paxos_sweep/crash_grid", |b| {
        b.iter(|| black_box(crash_runner.run_sequential(&PaxosScenario, &crash_grid)))
    });
    c.bench_function("event_hsuc_sweep/crash_grid", |b| {
        b.iter(|| black_box(crash_runner.run_sequential(&HsucScenario, &crash_grid)))
    });

    // -- observability ------------------------------------------------------
    //
    // What watching costs. The identical Paxos crash-recovery workload
    // (the `event_paxos/crash_recovery` leg above) is run three ways:
    // trace sink off (the default), recording the full event trace, and
    // streaming into a `MetricsObserver` (per-kind counters plus
    // Lamport-clock latency histograms). Gate first, as always: all
    // three sinks must leave decisions, runtime stats and per-process
    // Lamport clocks bit-identical — an observer that perturbed the run
    // would invalidate every "observed" experiment — and the streaming
    // observer's own counters must agree with the runtime's.
    let obs_cfg = |seed: u64| NetConfig {
        faults: FaultPlan::none().crash(pxn - 1, 1).recover_at(300),
        ..NetConfig::lockstep(seed)
    };
    let run_paxos_observed = |cfg: NetConfig| {
        use std::{cell::RefCell, rc::Rc};
        let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = paxos_inputs
            .iter()
            .map(|&v| Box::new(PaxosProcess::new(v, 40, 12)) as _)
            .collect();
        let spec = HistogramSpec::ticks(64);
        let obs = Rc::new(RefCell::new(MetricsObserver::new(&spec)));
        let mut net = EventNet::with_observer(procs, cfg, Box::new(Rc::clone(&obs)));
        assert!(net.run(10_000_000), "observed paxos queue must drain");
        (net, obs)
    };
    for seed in 0..4u64 {
        let off = run_paxos(&paxos_inputs, 40, 12, obs_cfg(seed), 10_000_000);
        let rec = run_paxos(
            &paxos_inputs,
            40,
            12,
            obs_cfg(seed).with_trace(),
            10_000_000,
        );
        let (strm, metrics) = run_paxos_observed(obs_cfg(seed));
        for other in [&rec, &strm] {
            assert_eq!(
                off.decisions(),
                other.decisions(),
                "sink changed decisions (seed {seed})"
            );
            assert_eq!(
                off.stats(),
                other.stats(),
                "sink changed runtime stats (seed {seed})"
            );
            assert_eq!(
                off.lamport_clocks(),
                other.lamport_clocks(),
                "sink changed lamport clocks (seed {seed})"
            );
        }
        let counts = metrics.borrow().counts();
        assert_eq!(
            counts.sends,
            off.stats().messages_sent as u64,
            "seed {seed}"
        );
        assert_eq!(
            counts.delivers,
            off.stats().messages_delivered as u64,
            "seed {seed}"
        );
        assert_eq!(
            counts.timers,
            off.stats().timers_fired as u64,
            "seed {seed}"
        );
        assert_eq!(counts.recoveries, 1, "seed {seed}");
    }
    c.bench_function("net_obs/off", |b| {
        b.iter(|| black_box(run_paxos(&paxos_inputs, 40, 12, obs_cfg(1), 10_000_000).decisions()))
    });
    c.bench_function("net_obs/record", |b| {
        b.iter(|| {
            black_box(
                run_paxos(&paxos_inputs, 40, 12, obs_cfg(1).with_trace(), 10_000_000).decisions(),
            )
        })
    });
    c.bench_function("net_obs/stream_metrics", |b| {
        b.iter(|| {
            let (net, obs) = run_paxos_observed(obs_cfg(1));
            let counts = obs.borrow().counts();
            black_box((net.decisions(), counts))
        })
    });

    // -- the mega sweep: 10^6 protocol runs, wall-clock ---------------------
    //
    // One million minimal Ben-Or replicas (n = 4, unanimous start,
    // lockstep timing) through the scenario engine — the throughput
    // headline of the timing-wheel core. Each pass is timed as one
    // wall-clock run with `Instant` rather than criterion's calibrated
    // batches (the payload is seconds long; batching would multiply it).
    // Full mode times five passes, since one pass is at the mercy of host
    // noise, and records their median, min and max as a hand-built leg of
    // BENCH_3.json; smoke mode times one.
    let mega_cell = BenOrCell {
        n: 4,
        t: 0,
        faults: 0,
        noisy: false,
        unanimous_start: true,
        max_rounds: 20,
        net: NetProfile::lockstep(),
    };
    let mega_replicas: usize = 1_000_000;
    let mega_runner = SimRunner::new(mega_replicas, 4_303);
    let mut mega_ns_per_run: Vec<f64> = (0..if smoke { 1 } else { 5 })
        .map(|pass| {
            let start = std::time::Instant::now();
            let mega = mega_runner.run_sequential(&BenOrScenario, std::slice::from_ref(&mega_cell));
            let ns = start.elapsed().as_nanos() as f64;
            assert_eq!(
                mega[0].outcome.decided.mean(),
                1.0,
                "unanimous lockstep Ben-Or must always decide"
            );
            println!(
                "net_mega_sweep/ben_or_1e6 pass {pass}: {mega_replicas} runs in {:.2} s ({:.0} ns/run, {:.0} events/run)",
                ns / 1e9,
                ns / mega_replicas as f64,
                mega[0].outcome.events.mean(),
            );
            ns / mega_replicas as f64
        })
        .collect();
    mega_ns_per_run.sort_by(f64::total_cmp);
    let mega_result = criterion::BenchResult {
        name: "net_mega_sweep/ben_or_1e6".to_string(),
        // the pass count is odd, so the middle pass is the median
        median_ns: mega_ns_per_run[mega_ns_per_run.len() / 2],
        min_ns: mega_ns_per_run[0],
        max_ns: mega_ns_per_run[mega_ns_per_run.len() - 1],
        samples: mega_ns_per_run.len(),
        iters_per_sample: mega_replicas as u64,
    };

    // The floor: nine blocks of 3,000 replicas per leg (one block of
    // 300 in smoke mode).
    let null_echo = if smoke {
        time_null_echo(&null_legs, NULL_ECHO_BLOCK / 10, 1)
    } else {
        time_null_echo(&null_legs, NULL_ECHO_BLOCK, 9)
    };

    // Headline ratios: what the event queue costs over lockstep on the
    // identical workload, and what parallel sweeps buy. Medians and mins
    // (mins are far less drift-sensitive on shared hardware).
    let results = criterion::results();
    let median = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.median_ns);
    let minimum = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.min_ns);
    for (sync, async_q) in [
        (
            "net_sync_lockstep/phase_king",
            "net_async_event_queue/phase_king",
        ),
        ("net_sync_lockstep/om_eig", "net_async_event_queue/om_eig"),
        ("net_sync_lockstep/phase_king", "net_async_heap/phase_king"),
        ("net_sync_lockstep/om_eig", "net_async_heap/om_eig"),
    ] {
        if let (Some(s), Some(a)) = (median(sync), median(async_q)) {
            println!("{async_q}: {:.2}x the lockstep cost (median)", a / s);
        }
        if let (Some(s), Some(a)) = (minimum(sync), minimum(async_q)) {
            println!("{async_q}: {:.2}x the lockstep cost (min)", a / s);
        }
    }
    for (seq, par) in [
        (
            "net_replica_sweep_seq/om_loss_grid",
            "net_replica_sweep_par/om_loss_grid",
        ),
        (
            "net_replica_sweep_seq/phase_king_grid",
            "net_replica_sweep_par/phase_king_grid",
        ),
    ] {
        if let (Some(s), Some(p)) = (median(seq), median(par)) {
            println!("{seq}: par {:.2}x vs seq (median)", s / p);
        }
    }

    // The legs below are always timed, so their ratios read the medians
    // directly.
    let ratio = |num: &str, den: &str| median(num).unwrap() / median(den).unwrap();
    // What the ack/retransmit machinery costs when it never fires, what
    // 20% loss costs when it does, and what the rushing scheduler costs
    // Ben-Or.
    println!(
        "event_bracha_retry/zero_loss: {:.2}x the bare protocol (median; acks that never fire)",
        ratio("event_bracha_retry/zero_loss", "event_bracha/direct")
    );
    println!(
        "event_bracha_retry/loss20: {:.2}x the zero-loss run (median; loss as latency)",
        ratio("event_bracha_retry/loss20", "event_bracha_retry/zero_loss")
    );
    println!(
        "event_ben_or_sweep/rush: {:.2}x the FIFO ensemble (median; the scheduler is the adversary)",
        ratio("event_ben_or_sweep/rush", "event_ben_or_sweep/fifo")
    );
    // The wheel against the reference heap on identical (gate-verified
    // bit-identical) workloads.
    for (wheel, heap) in [
        (
            "net_async_event_queue/phase_king",
            "net_async_heap/phase_king",
        ),
        ("net_async_event_queue/om_eig", "net_async_heap/om_eig"),
        ("event_ben_or_sweep/fifo", "event_ben_or_sweep_heap/fifo"),
    ] {
        let r = ratio(wheel, heap);
        println!("{wheel}: wheel at {r:.2}x the heap cost (median; <1 = faster)");
    }
    // What coordinator failure and the durable round-trip cost over the
    // clean two-phase pipeline, and HSUC's rotation against Paxos's
    // ballot race on the identical crash grid.
    println!(
        "event_paxos/failover: {:.2}x the clean decision (median wall time; the crashed proposer's silence is cheap to simulate — the failover price is paid in *virtual* time, see e22)",
        ratio("event_paxos/failover", "event_paxos/clean")
    );
    println!(
        "event_paxos/crash_recovery: {:.2}x the clean decision (median; the durable round-trip)",
        ratio("event_paxos/crash_recovery", "event_paxos/clean")
    );
    println!(
        "event_hsuc_sweep/crash_grid: {:.2}x the paxos sweep (median; rotation vs ballot race)",
        ratio(
            "event_hsuc_sweep/crash_grid",
            "event_paxos_sweep/crash_grid"
        )
    );
    // What each trace sink costs over the silent run on the identical
    // (gate-verified bit-identical) workload.
    for (name, label) in [
        ("net_obs/record", "recording the full trace"),
        ("net_obs/stream_metrics", "streaming metrics"),
    ] {
        let r = ratio(name, "net_obs/off");
        println!("{name}: {r:.2}x the silent run (median; {label})");
    }
    // BENCH_3 headline: the runtime floor, in ns per processed event, of
    // the fastest block
    let ns_per_event = |leg: &str| {
        let result = null_echo.iter().find(|r| r.name == leg).unwrap();
        result.min_ns / NULL_ECHO_EVENTS as f64
    };
    for (name, _) in &null_legs {
        let ns = ns_per_event(name);
        println!("{name}: {ns:.1} ns/event (best block; the runtime floor)");
    }
    let floor = |leg: &str| Json::F64((ns_per_event(leg) * 10.0).round() / 10.0);
    let with_mega = [results.clone(), null_echo.clone(), vec![mega_result]].concat();
    BenchReport::new("BENCH_3", "net_engine", with_mega)
        .headline([
            ("null_echo_events", Json::U64(NULL_ECHO_EVENTS as u64)),
            (
                "null_echo_wheel_fifo_ns_per_event",
                floor("net_null_echo/wheel_fifo"),
            ),
            (
                "null_echo_wheel_random_ns_per_event",
                floor("net_null_echo/wheel_random"),
            ),
            (
                "null_echo_heap_fifo_ns_per_event",
                floor("net_null_echo/heap_fifo"),
            ),
        ])
        .write();
}

criterion_group! {
    name = benches;
    config = {
        let (samples, warm_ms, measure_ms) = if bne_bench::bench_smoke_mode() {
            (3, 100, 400)
        } else {
            (15, 400, 3_000)
        };
        Criterion::default()
            .sample_size(samples)
            .warm_up_time(std::time::Duration::from_millis(warm_ms))
            .measurement_time(std::time::Duration::from_millis(measure_ms))
    };
    targets = bench_net_engine
}
criterion_main!(benches);
