//! Walkthrough of the `bne_net::obs` observability layer: one Paxos
//! crash-failover run, three ways of watching it.
//!
//! ```text
//! cargo run --release -p bne-examples --bin trace_timeline
//! ```
//!
//! The run: five acceptors, single-decree Paxos, and the initial
//! proposer (process 0) crashes after handling three events — so the
//! decision has to wait for a staggered timeout to notice the silence
//! and a survivor to drive a fresh ballot. Process 0 recovers at
//! t = 300 and re-learns the decision from its durable state.
//!
//! Three observers of the *identical* execution:
//!
//! 1. **none** — the baseline. The trace sink is a single disabled
//!    branch; this is what every benchmark and experiment runs under.
//! 2. **`TimelineObserver`** — records every event fully decoded, then
//!    renders a compact text timeline and exports Chrome trace-event
//!    JSON (load `trace_timeline.json` in Perfetto / `chrome://tracing`
//!    to see the failover as a gap between message spans).
//! 3. **`MetricsObserver`** — stores nothing per event: per-kind
//!    counters, Lamport-clock queue-latency histograms, timer-wait
//!    histogram, queue-depth timeline.
//!
//! The point the `tests/tests/net_obs.rs` property suite proves and
//! this example demonstrates: all three runs produce bit-identical
//! decisions, stats and Lamport clocks. Watching is free.

use bne_core::byzantine::paxos::PaxosMsg;
use bne_core::net::{
    AsyncProcess, EventNet, FaultPlan, HistogramSpec, LatencyModel, MetricsObserver, NetConfig,
    PaxosProcess, TimelineObserver,
};
use std::cell::RefCell;
use std::rc::Rc;

const N: usize = 5;
const TIMEOUT_TICKS: u64 = 40;
const MAX_TIMEOUTS: u32 = 12;

fn processes() -> Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> {
    (0..N as u64)
        .map(|v| Box::new(PaxosProcess::new(10 + v, TIMEOUT_TICKS, MAX_TIMEOUTS)) as _)
        .collect()
}

fn config() -> NetConfig {
    NetConfig {
        latency: LatencyModel::Constant(1),
        faults: FaultPlan::none().crash(0, 3).recover_at(300),
        ..NetConfig::lockstep(7)
    }
}

fn main() {
    // 1. the silent baseline
    let mut baseline = EventNet::new(processes(), config());
    assert!(baseline.run(1_000_000), "queue must drain");
    println!(
        "baseline   decisions {:?}  vtime {}  lamport {:?}",
        baseline.decisions(),
        baseline.stats().virtual_time,
        baseline.lamport_clocks(),
    );

    // 2. the full timeline
    let timeline = Rc::new(RefCell::new(TimelineObserver::new()));
    let mut watched =
        EventNet::with_observer(processes(), config(), Box::new(Rc::clone(&timeline)));
    assert!(watched.run(1_000_000), "queue must drain");
    assert_eq!(baseline.decisions(), watched.decisions());
    assert_eq!(baseline.stats(), watched.stats());
    assert_eq!(baseline.lamport_clocks(), watched.lamport_clocks());
    println!("observed run is bit-identical to the baseline\n");

    let timeline = timeline.borrow();
    let text = timeline.render_text();
    let lines: Vec<&str> = text.lines().collect();
    println!("-- timeline: first 12 events (clean two-phase pipeline dies at the crash) --");
    for l in &lines[..12.min(lines.len())] {
        println!("  {l}");
    }
    // the failover: everything between the crash and the first decision
    let crash_at = lines.iter().position(|l| l.contains("CRASH")).unwrap_or(0);
    let decide_at = lines
        .iter()
        .position(|l| l.contains("DECIDE"))
        .unwrap_or(lines.len() - 1);
    println!(
        "  ... {} events elided ...",
        decide_at.saturating_sub(crash_at + 6)
    );
    println!("-- the crash, the timeout noticing it, and the first decisions --");
    for l in lines[crash_at..(decide_at + 6).min(lines.len())]
        .iter()
        .filter(|l| {
            l.contains("CRASH")
                || l.contains("timer")
                || l.contains("DECIDE")
                || l.contains("RECOVER")
        })
    {
        println!("  {l}");
    }
    println!("-- last 4 events (the recovered process re-learns) --");
    for l in &lines[lines.len().saturating_sub(4)..] {
        println!("  {l}");
    }

    let json = timeline.to_chrome_trace();
    let path = "trace_timeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nChrome trace ({} events, {} bytes) written to {path} — load it in Perfetto or chrome://tracing",
            timeline.entries().len(),
            json.len()
        ),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    // 3. the streaming metrics view of the same run
    let spec = HistogramSpec::ticks(64);
    let metrics = Rc::new(RefCell::new(MetricsObserver::new(&spec)));
    let mut measured =
        EventNet::with_observer(processes(), config(), Box::new(Rc::clone(&metrics)));
    assert!(measured.run(1_000_000), "queue must drain");
    assert_eq!(baseline.decisions(), measured.decisions());
    let metrics = metrics.borrow();
    let c = metrics.counts();
    println!(
        "\nmetrics    sends {}  delivers {}  timers {}  crashes {}  recoveries {}  decides {}",
        c.sends, c.delivers, c.timers, c.crashes, c.recoveries, c.decides
    );
    println!(
        "           queue latency mean {:.2} ticks (min {:.0}, max {:.0}, {} samples)",
        metrics.latency_stats().mean(),
        metrics.latency_stats().min(),
        metrics.latency_stats().max(),
        metrics.latency_stats().count(),
    );
    let wait = metrics.timer_wait();
    println!(
        "           timer waits: {} fired, all in the 40-44 tick detection band: {}",
        wait.total(),
        (0..wait.buckets().len())
            .filter(|&i| wait.buckets()[i] > 0)
            .map(|i| {
                let (lo, _) = wait.bucket_bounds(i);
                format!("{}@{}t", wait.buckets()[i], lo)
            })
            .collect::<Vec<_>>()
            .join(" "),
    );
    let depths = metrics.queue_depth();
    let peak = depths.iter().map(|&(_, d)| d).max().unwrap_or(0);
    println!(
        "           queue depth sampled at {} bucket drains, peak {} (stats peak {})",
        depths.len(),
        peak,
        measured.stats().peak_queue_len,
    );
    println!(
        "\nThe failover price is detection, not transport: message latency stays at its 1-tick link cost while the decision waits ~{} ticks for process {}'s timeout.",
        TIMEOUT_TICKS,
        1,
    );
}
