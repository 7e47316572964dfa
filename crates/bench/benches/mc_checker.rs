//! BENCH_10: the schedule-space model checker over `EventNet`.
//!
//! Three stories, each gated on correctness before anything is timed:
//!
//! * **exhaustive proofs** — zero-violation verdicts on honest Bracha
//!   RB at n = 4 (agreement + validity), Ben-Or consensus (n = 4, t = 1
//!   unanimous in the full run; n = 3 in smoke), and Paxos under an
//!   explorer-injected crash-stop fault;
//! * **bug hunting** — the planted amplification-quorum mutation
//!   (`t + 1 → t`) found at n = 4 with a ≤ 30-choice counterexample
//!   that replays on the production runtime, plus the POR-versus-naive
//!   state ratios: exact with agreeing verdicts where naive DFS
//!   terminates (n = 3), and as a lower bound at n = 4 where naive DFS
//!   exhausts its state cap without ever finding the bug POR finds;
//! * **adversary synthesis** — the rollout search over schedule × lie
//!   space on a Ben-Or model with a Byzantine noise participant, gated
//!   on the `best >= rush` invariant (rollout 0 *is* the rush
//!   heuristic, so the synthesized adversary can never score below it).
//!
//! Run and record to `BENCH_10.json` in the repo root:
//!
//! ```text
//! BNE_BENCH_DIR=$PWD cargo bench -p bne-bench --bench mc_checker
//! ```
//!
//! The report's headline adds explored-state counts and one-shot proof
//! wall times to the criterion legs (the big proofs run once — a
//! 10^6-state exhaustion is not an iterable timing target).

use bne_bench::BenchReport;
use bne_core::mc::json::Json;
use bne_core::mc::synth::ben_or_noise_factory;
use bne_core::mc::{
    ben_or_net, bracha_net, paxos_net, replay_trace, BenOrParams, BrachaParams,
    CounterexampleTrace, ExploreReport, Explorer, PaxosParams, SynthConfig, Synthesizer, Verdict,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Bounded parameters for the CI smoke run; the full run proves the
/// acceptance-sized models.
struct Params {
    /// State cap for the naive-DFS run on the planted n = 4 bug (naive
    /// never finds it; the cap sets the strength of the lower bound).
    naive_cap_n4: u64,
    /// The Ben-Or proof target.
    ben_or: BenOrParams,
    /// The Paxos proof target.
    paxos: PaxosParams,
    /// Restrict the explorer's crash injection to the initial leader.
    paxos_leader_only: bool,
    /// Rollout budget for the adversary synthesizer.
    synth_rollouts: usize,
}

fn params() -> Params {
    if bne_bench::bench_smoke_mode() {
        Params {
            naive_cap_n4: 60_000,
            ben_or: BenOrParams::new(0, vec![1, 0, 1], 1),
            // leader-only crash injection keeps the smoke run short;
            // the full run lets the explorer crash anyone
            paxos: PaxosParams::new(vec![0, 1, 1], 8, 0).with_crash_budget(1),
            paxos_leader_only: true,
            synth_rollouts: 8,
        }
    } else {
        Params {
            naive_cap_n4: 250_000,
            // n = 4, t = 1: unanimous preferences keep the coin space
            // closed while every 3-of-4 quorum subset is still explored
            ben_or: BenOrParams::new(1, vec![1, 1, 1, 1], 1),
            // n = 4 under f = 1 exceeds multi-million-state caps even
            // with every reduction on: the in-flight multicast subsets
            // dominate. n = 3 with a crash budget of 1 is the largest
            // Paxos model that exhausts in bench time.
            paxos: PaxosParams::new(vec![0, 1, 1], 8, 0).with_crash_budget(1),
            paxos_leader_only: false,
            synth_rollouts: 64,
        }
    }
}

fn explore_bracha(p: &BrachaParams, por: bool, max_states: u64) -> ExploreReport {
    let (net, tap) = bracha_net(p);
    let mut cfg = p.explore_config();
    cfg.por = por;
    cfg.max_states = max_states;
    Explorer::new(net, tap, p.properties(), cfg).run()
}

fn bench_mc_checker(c: &mut Criterion) {
    let p = params();

    // --- proof: honest Bracha n = 4, confluent POR ---
    let honest = BrachaParams::new(4, 1, 1);
    let t0 = Instant::now();
    let honest_report = explore_bracha(&honest, true, 10_000_000);
    let honest_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        matches!(honest_report.verdict, Verdict::Proven),
        "honest Bracha n=4 must prove clean, got {:?}",
        honest_report.verdict
    );
    println!(
        "bracha honest n=4: Proven over {} states in {honest_ms:.1}ms",
        honest_report.states
    );

    // --- bug hunt: planted amp-quorum mutation, POR ---
    let planted = BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3);
    let t0 = Instant::now();
    let planted_por = explore_bracha(&planted, true, 10_000_000);
    let planted_ms = t0.elapsed().as_secs_f64() * 1e3;
    let Verdict::Violated(trace) = &planted_por.verdict else {
        panic!("planted bug must be found, got {:?}", planted_por.verdict);
    };
    assert!(
        trace.choices.len() <= 30,
        "counterexample must stay short, got {} choices",
        trace.choices.len()
    );
    // the trace replays on the production runtime, including through its
    // JSON serialization
    let round_trip = CounterexampleTrace::from_json(&trace.to_json()).expect("trace round-trips");
    let replay = replay_trace(&round_trip).expect("replay runs");
    assert!(
        replay.violation.is_some(),
        "counterexample must reproduce on the production EventNet"
    );
    println!(
        "bracha planted n=4: Violated in {} choices over {} states in {planted_ms:.1}ms",
        trace.choices.len(),
        planted_por.states
    );

    // --- POR vs naive, exact with agreeing verdicts (n = 3) ---
    let planted3 = BrachaParams::new(3, 1, 1).with_liar().with_thresholds(1, 3);
    let por3 = explore_bracha(&planted3, true, 10_000_000);
    let naive3 = explore_bracha(&planted3, false, 10_000_000);
    assert!(
        matches!(por3.verdict, Verdict::Violated(_))
            && matches!(naive3.verdict, Verdict::Violated(_)),
        "POR and naive DFS must agree on the planted n=3 bug"
    );
    let ratio3 = naive3.states as f64 / por3.states as f64;
    assert!(
        ratio3 >= 5.0,
        "POR must shrink the agreeing n=3 workload >= 5x, got {ratio3:.2}x"
    );
    println!(
        "por vs naive n=3 (verdicts agree): {} vs {} states, {ratio3:.1}x",
        por3.states, naive3.states
    );

    // --- POR vs naive, lower bound (n = 4) ---
    let t0 = Instant::now();
    let naive4 = explore_bracha(&planted, false, p.naive_cap_n4);
    let naive4_ms = t0.elapsed().as_secs_f64() * 1e3;
    let naive4_exhausted = matches!(naive4.verdict, Verdict::Truncated(_));
    let ratio4 = naive4.states as f64 / planted_por.states as f64;
    assert!(
        ratio4 >= 5.0,
        "POR must beat naive DFS >= 5x on the n=4 workload, got {ratio4:.2}x"
    );
    println!(
        "por vs naive n=4: {} vs {}{} states ({ratio4:.1}x{}) in {naive4_ms:.0}ms",
        planted_por.states,
        if naive4_exhausted { ">=" } else { "" },
        naive4.states,
        if naive4_exhausted {
            ", naive cap hit without finding the bug — a lower bound"
        } else {
            ""
        }
    );

    // --- proof: Ben-Or ---
    let (net, tap) = ben_or_net(&p.ben_or);
    let mut cfg = p.ben_or.explore_config();
    cfg.max_states = 10_000_000;
    let t0 = Instant::now();
    let ben_or_report = Explorer::new(net, tap, p.ben_or.properties(), cfg).run();
    let ben_or_s = t0.elapsed().as_secs_f64();
    assert!(
        matches!(ben_or_report.verdict, Verdict::Proven),
        "Ben-Or n={} t={} must prove clean, got {:?}",
        p.ben_or.n,
        p.ben_or.t,
        ben_or_report.verdict
    );
    println!(
        "ben-or n={} t={} r<={}: Proven over {} states in {ben_or_s:.2}s",
        p.ben_or.n, p.ben_or.t, p.ben_or.max_rounds, ben_or_report.states
    );

    // --- proof: Paxos under a crash budget ---
    let (net, tap) = paxos_net(&p.paxos);
    let mut cfg = p.paxos.explore_config();
    cfg.max_states = 10_000_000;
    if p.paxos_leader_only {
        cfg.crashable = vec![0];
    }
    let t0 = Instant::now();
    let paxos_report = Explorer::new(net, tap, p.paxos.properties(), cfg).run();
    let paxos_s = t0.elapsed().as_secs_f64();
    assert!(
        matches!(paxos_report.verdict, Verdict::Proven),
        "Paxos n={} f={} must prove clean, got {:?}",
        p.paxos.n,
        p.paxos.crash_budget,
        paxos_report.verdict
    );
    println!(
        "paxos n={} f={}{}: Proven over {} states in {paxos_s:.2}s",
        p.paxos.n,
        p.paxos.crash_budget,
        if p.paxos_leader_only {
            " (leader-only crashes)"
        } else {
            ""
        },
        paxos_report.states
    );

    // --- adversary synthesis: best >= rush by construction ---
    let synth = Synthesizer::new(
        ben_or_noise_factory(),
        BTreeSet::from([3]),
        SynthConfig {
            rollouts: p.synth_rollouts,
            seed: 7,
            max_events: 100_000,
        },
    );
    let outcome = synth.run();
    assert!(
        outcome.best >= outcome.rush,
        "synthesized adversary may never score below the rush heuristic"
    );
    println!(
        "synth ben-or n=4 (byz=3, {} rollouts): rush undecided={} decide_time={} rounds={}, \
         best undecided={} decide_time={} rounds={} (rollout {})",
        outcome.rollouts,
        outcome.rush.undecided,
        outcome.rush.decide_time,
        outcome.rush.rounds,
        outcome.best.undecided,
        outcome.best.decide_time,
        outcome.best.rounds,
        outcome.best_rollout
    );

    // --- timed legs (the fast paths only) ---
    c.bench_function("mc/bracha_honest_n4_proof", |b| {
        b.iter(|| black_box(explore_bracha(&honest, true, 10_000_000).states))
    });
    c.bench_function("mc/bracha_planted_n4_cex", |b| {
        b.iter(|| black_box(explore_bracha(&planted, true, 10_000_000).states))
    });
    c.bench_function("mc/replay_counterexample", |b| {
        b.iter(|| black_box(replay_trace(&round_trip).unwrap().violation.is_some()))
    });
    let synth_small = Synthesizer::new(
        ben_or_noise_factory(),
        BTreeSet::from([3]),
        SynthConfig {
            rollouts: 8,
            seed: 7,
            max_events: 100_000,
        },
    );
    c.bench_function("mc/synth_8_rollouts", |b| {
        b.iter(|| black_box(synth_small.run().best))
    });

    // --- headline numbers + BENCH_10 ---
    let count = |n: usize| Json::U64(n as u64);
    let (rush, best) = (&outcome.rush, &outcome.best);
    BenchReport::new("BENCH_10", "mc_checker", criterion::results())
        .only(&[
            "mc/bracha_honest_n4_proof",
            "mc/bracha_planted_n4_cex",
            "mc/replay_counterexample",
            "mc/synth_8_rollouts",
        ])
        .headline([
            ("bracha_honest_states", Json::U64(honest_report.states)),
            ("bracha_honest_ms", Json::F64(honest_ms)),
            ("planted_por_states", Json::U64(planted_por.states)),
            ("planted_cex_choices", count(trace.choices.len())),
            ("planted_naive_n3_states", Json::U64(naive3.states)),
            ("planted_por_n3_states", Json::U64(por3.states)),
            ("por_ratio_n3", Json::F64(ratio3)),
            ("planted_naive_n4_states", Json::U64(naive4.states)),
            ("planted_naive_n4_exhausted", Json::Bool(naive4_exhausted)),
            ("por_ratio_n4", Json::F64(ratio4)),
            ("ben_or_n", count(p.ben_or.n)),
            ("ben_or_t", count(p.ben_or.t)),
            ("ben_or_states", Json::U64(ben_or_report.states)),
            ("ben_or_secs", Json::F64(ben_or_s)),
            ("paxos_n", count(p.paxos.n)),
            ("paxos_f", count(p.paxos.crash_budget)),
            ("paxos_leader_only", Json::Bool(p.paxos_leader_only)),
            ("paxos_states", Json::U64(paxos_report.states)),
            ("paxos_secs", Json::F64(paxos_s)),
            ("synth_rollouts", count(outcome.rollouts)),
            ("synth_rush_undecided", Json::U64(rush.undecided)),
            ("synth_rush_decide_time", Json::U64(rush.decide_time)),
            ("synth_best_undecided", Json::U64(best.undecided)),
            ("synth_best_decide_time", Json::U64(best.decide_time)),
            ("synth_best_rollout", count(outcome.best_rollout)),
        ])
        .write();
}

criterion_group! {
    name = benches;
    config = {
        // the heavy proofs run once before timing; the criterion legs
        // only cover the sub-second paths
        let (samples, warm_ms, measure_ms) = if bne_bench::bench_smoke_mode() {
            (2, 50, 200)
        } else {
            (10, 300, 2_000)
        };
        Criterion::default()
            .sample_size(samples)
            .warm_up_time(std::time::Duration::from_millis(warm_ms))
            .measurement_time(std::time::Duration::from_millis(measure_ms))
    };
    targets = bench_mc_checker
}
criterion_main!(benches);
