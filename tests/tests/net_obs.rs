//! Property tests of the observability layer: attaching any streaming
//! [`Observer`] is **zero-perturbation**.
//!
//! The load-bearing invariant (tested the same way wheel==heap was): an
//! execution with an observer attached is bit-identical — decisions,
//! decision times, statistics, and the event stream itself — to the same
//! `(config, seed)` execution with `TraceSink::Off`, across
//! protocol × scheduler × latency × fault-plan grids. The observer leg
//! reconstructs the flat trace from its enriched hooks and must
//! reproduce the `record_trace` log event-for-event; and the Chrome
//! trace-event export of a fixed `(config, seed)` run is byte-identical
//! across runs.

use bne_core::byzantine::bracha::BrachaMsg;
use bne_core::byzantine::om::{OmConfig, TraitorStrategy};
use bne_core::byzantine::om_process::{om_process_set, OmProcess};
use bne_core::byzantine::PaxosMsg;
use bne_core::net::{
    AsyncProcess, BenOrProcess, BrachaProcess, EventNet, LatencyModel, LinkFaults, MetricsObserver,
    NetConfig, NetStats, Partition, PaxosProcess, QueueImpl, RoundAdapter, SchedulerPolicy,
    TimelineEntry, TimelineObserver, TraceEvent, TraceKind,
};
use bne_core::sim::derive_seed;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Everything observable about one execution apart from the trace:
/// drained flag, statistics, decisions, decision times.
type Core = (bool, NetStats, Vec<Option<u64>>, Vec<Option<u64>>);

/// Builds one network configuration from proptest-drawn small integers
/// (same coverage as the wheel==heap suite: three latency models, three
/// schedulers, iid loss, a healing mid-run partition).
#[allow(clippy::too_many_arguments)]
fn config(
    n: usize,
    latency_kind: u8,
    scheduler_kind: u8,
    drop_percent: u64,
    partitioned: bool,
    record_trace: bool,
    seed: u64,
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
        round_ticks: 2,
        record_trace,
        ..NetConfig::lockstep(seed)
    }
    .with_queue(QueueImpl::Wheel)
}

/// Flattens a timeline back into the legacy 4-field trace encoding
/// (dropping the `Decide` entries, which the flat trace never records).
fn reconstruct_trace(entries: &[TimelineEntry]) -> Vec<TraceEvent> {
    entries
        .iter()
        .filter_map(|e| {
            let kind = e.trace_kind()?;
            let (src, dst) = match *e {
                TimelineEntry::Send { src, dst, .. }
                | TimelineEntry::Deliver { src, dst, .. }
                | TimelineEntry::Drop { src, dst, .. }
                | TimelineEntry::CrashDrop { src, dst, .. } => (src, dst),
                TimelineEntry::Timer { proc, timer, .. } => (proc, timer),
                TimelineEntry::Crash { proc, .. } | TimelineEntry::Recover { proc, .. } => {
                    (proc, 0)
                }
                TimelineEntry::Decide { .. } => unreachable!("filtered by trace_kind"),
            };
            Some(TraceEvent {
                time: e.time(),
                kind,
                src,
                dst,
            })
        })
        .collect()
}

/// Runs the same workload three ways — sink off, trace recorded, and
/// with a [`TimelineObserver`] attached — and asserts the bit-identity
/// invariant: equal cores everywhere, and the observer's reconstructed
/// flat trace equal to the recorded one (the offline proptest subset
/// panics on failure, so this helper asserts directly).
fn assert_observer_invisible<M: Clone + 'static>(
    mk_procs: impl Fn() -> Vec<Box<dyn AsyncProcess<Msg = M>>>,
    mk_cfg: impl Fn(bool) -> NetConfig,
) {
    let core = |net: &mut EventNet<M>| -> Core {
        let drained = net.run(10_000_000);
        (
            drained,
            net.stats(),
            net.decisions(),
            net.decision_times().to_vec(),
        )
    };
    let mut off_net = EventNet::new(mk_procs(), mk_cfg(false));
    let off = core(&mut off_net);

    let mut rec_net = EventNet::new(mk_procs(), mk_cfg(true));
    let rec = core(&mut rec_net);
    let recorded = rec_net.trace().to_vec();

    let timeline = Rc::new(RefCell::new(TimelineObserver::new()));
    let mut obs_net =
        EventNet::with_observer(mk_procs(), mk_cfg(false), Box::new(Rc::clone(&timeline)));
    let obs = core(&mut obs_net);
    assert_eq!(obs_net.trace(), &[] as &[TraceEvent]);

    assert_eq!(&off, &rec);
    assert_eq!(&off, &obs);
    let reconstructed = reconstruct_trace(timeline.borrow().entries());
    assert_eq!(&reconstructed, &recorded);

    // the enrichment is internally consistent: a delivery's send time
    // and a timer's arming time never exceed its own timestamp, and
    // every first decision surfaced exactly once per decided process
    let decides = timeline
        .borrow()
        .entries()
        .iter()
        .filter(|e| matches!(e, TimelineEntry::Decide { .. }))
        .count();
    assert_eq!(decides, obs.2.iter().filter(|d| d.is_some()).count());
    for e in timeline.borrow().entries() {
        match *e {
            TimelineEntry::Deliver { time, sent_at, .. } => assert!(sent_at <= time),
            TimelineEntry::Timer { time, armed_at, .. } => assert!(armed_at <= time),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// OM (EIG processes) through the round adapter: observer-attached
    /// execution bit-identical to `TraceSink::Off`.
    #[test]
    fn observer_is_invisible_for_om(
        n in 4usize..8,
        t in 1usize..3,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        partitioned_bit in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let om_cfg = OmConfig {
            n,
            m: t,
            commander_value: seed % 2,
            traitors: (1..=t).collect(),
            strategy: TraitorStrategy::SplitByParity,
            default_value: 0,
        };
        let rounds = OmProcess::rounds_needed(om_cfg.m);
        assert_observer_invisible(
            || {
                om_process_set(&om_cfg)
                    .into_iter()
                    .map(|p| Box::new(RoundAdapter::new(p, rounds, 2)) as _)
                    .collect()
            },
            |record| config(
                n, latency_kind, scheduler_kind, drop_percent,
                partitioned_bit == 1, record, seed,
            ),
        );
    }

    /// Event-driven Bracha reliable broadcast: observer invisible.
    #[test]
    fn observer_is_invisible_for_bracha(
        n in 4usize..10,
        t_raw in 0usize..3,
        input in 0u64..2,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        partitioned_bit in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let t = t_raw.min((n - 1) / 3);
        assert_observer_invisible(
            || {
                (0..n)
                    .map(|_| Box::new(BrachaProcess::new(t, 0, input)) as Box<dyn AsyncProcess<Msg = BrachaMsg>>)
                    .collect()
            },
            |record| config(
                n, latency_kind, scheduler_kind, drop_percent,
                partitioned_bit == 1, record, seed,
            ),
        );
    }

    /// Ben-Or randomized consensus (timer- and coin-driven): observer
    /// invisible.
    #[test]
    fn observer_is_invisible_for_ben_or(
        n in 4usize..9,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..30,
        seed in 0u64..u64::MAX,
    ) {
        assert_observer_invisible(
            || {
                (0..n)
                    .map(|i| {
                        Box::new(BenOrProcess::new(
                            1,
                            (i % 2) as u64,
                            40,
                            derive_seed(seed, 9, i as u64),
                        )) as _
                    })
                    .collect()
            },
            |record| config(n, latency_kind, scheduler_kind, drop_percent, false, record, seed),
        );
    }

    /// Paxos under proptest-drawn crash-recovery plans: the planned
    /// `Crash`/`Recover` events and absorbed `CrashDrop`s flow through
    /// the observer hooks, and the execution stays bit-identical.
    #[test]
    fn observer_is_invisible_for_paxos_under_crash_plans(
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
        assert_observer_invisible(
            || {
                inputs
                    .iter()
                    .map(|&v| Box::new(PaxosProcess::new(v, 30, 6)) as Box<dyn AsyncProcess<Msg = PaxosMsg>>)
                    .collect()
            },
            |record| {
                let mut cfg = config(n, latency_kind, scheduler_kind, 0, false, record, seed);
                let mut plan = std::mem::take(&mut cfg.faults).crash(crash_proc, after_k);
                if let Some(t) = recover {
                    plan = plan.recover_at(t);
                }
                cfg.faults = plan;
                cfg
            },
        );
    }

    /// The Chrome trace-event export of the same `(config, seed)` run is
    /// byte-identical across runs (and across queue implementations).
    #[test]
    fn chrome_trace_export_is_byte_identical(
        n in 3usize..=6,
        scheduler_kind in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let export = |queue: QueueImpl| {
            let timeline = Rc::new(RefCell::new(TimelineObserver::new()));
            let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = (0..n as u64)
                .map(|i| Box::new(PaxosProcess::new((seed >> i) % 100, 30, 6)) as _)
                .collect();
            let mut cfg = config(n, 1, scheduler_kind, 0, false, false, seed).with_queue(queue);
            cfg.faults = std::mem::take(&mut cfg.faults).crash(0, 5).recover_at(200);
            let mut net = EventNet::with_observer(procs, cfg, Box::new(Rc::clone(&timeline)));
            net.run(10_000_000);
            let out = timeline.borrow().to_chrome_trace();
            prop_assert!(out.starts_with("{\"traceEvents\":["));
            out
        };
        let a = export(QueueImpl::Wheel);
        let b = export(QueueImpl::Wheel);
        let c = export(QueueImpl::Heap);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}

/// Deterministic spot check: the metrics observer's counters agree with
/// the runtime's own statistics, its latency samples count every
/// delivery, and the queue-depth timeline advances monotonically.
#[test]
fn metrics_observer_agrees_with_net_stats() {
    let metrics = Rc::new(RefCell::new(MetricsObserver::new(
        &bne_core::net::HistogramSpec::ticks(16),
    )));
    let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = (0..5u64)
        .map(|i| Box::new(PaxosProcess::new(i * 7 + 1, 30, 6)) as _)
        .collect();
    let mut cfg = config(5, 1, 1, 10, false, false, 42);
    cfg.faults = std::mem::take(&mut cfg.faults).crash(0, 4).recover_at(150);
    let mut net = EventNet::with_observer(procs, cfg, Box::new(Rc::clone(&metrics)));
    assert!(net.run(10_000_000), "queue drains");
    let stats = net.stats();
    let m = metrics.borrow();
    let counts = m.counts();
    assert_eq!(counts.sends as usize, stats.messages_sent);
    assert_eq!(counts.delivers as usize, stats.messages_delivered);
    assert_eq!(counts.drops as usize, stats.messages_dropped);
    assert_eq!(counts.crash_drops as usize, stats.crashed_drops);
    assert_eq!(counts.timers as usize, stats.timers_fired);
    assert_eq!(counts.crashes, 1);
    assert_eq!(counts.recoveries, 1);
    assert_eq!(m.latency_stats().count(), counts.delivers);
    assert_eq!(m.merged_latency().total(), counts.delivers);
    assert_eq!(m.timer_wait().total(), counts.timers);
    assert!(
        m.queue_depth().windows(2).all(|w| w[0].0 < w[1].0),
        "queue-depth timeline is strictly increasing in time"
    );
    // Lamport clocks exist for every process and a process that handled
    // events has a nonzero clock
    assert_eq!(net.lamport_clocks().len(), 5);
    assert!(net.lamport_clocks().iter().any(|&c| c > 0));
}

/// Deterministic spot check of the satellite accessor: `fields()`
/// decodes the overloaded `src`/`dst` per kind.
#[test]
fn trace_fields_decode_the_overloaded_encoding() {
    use bne_core::net::TraceFields;
    let ev = |kind, src, dst| TraceEvent {
        time: 3,
        kind,
        src,
        dst,
    };
    assert_eq!(
        ev(TraceKind::Send, 1, 2).fields(),
        TraceFields::Message { src: 1, dst: 2 }
    );
    assert_eq!(
        ev(TraceKind::Timer, 4, 9).fields(),
        TraceFields::Timer { proc: 4, timer: 9 }
    );
    assert_eq!(
        ev(TraceKind::Crash, 2, 0).fields(),
        TraceFields::Lifecycle { proc: 2 }
    );
    assert_eq!(
        ev(TraceKind::CrashDrop, 1, 7).fields(),
        TraceFields::Absorbed { src: 1, dst: 7 }
    );
}
