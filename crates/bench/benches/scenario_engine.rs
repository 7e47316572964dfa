//! Scenario-engine benches: the old bespoke sequential loops (collect every
//! outcome, aggregate at the end) vs the `bne-sim` engine, sequentially and
//! across threads, plus one whole run of the p2p simulator the engine fans
//! out (`p2p/*`), the baseline for work on that simulator itself. The scrip
//! economy's sweeps are timed in `scrip_million` (`BENCH_9.json`).
//!
//! Run and record to `BENCH_2.json` (all legs) in the repo root:
//!
//! ```text
//! BNE_BENCH_DIR=$PWD cargo bench -p bne-bench --bench scenario_engine
//! ```
//!
//! CI runs this bench in bounded smoke mode (`BNE_BENCH_SMOKE=1`): smaller
//! grids, fewer replicas, fewer samples. In **both** modes every engine
//! result is asserted bit-identical to the legacy sequential path before
//! anything is timed — a divergence fails the bench (and the CI job).

use bne_bench::{bench_smoke_mode, BenchReport};
use bne_core::byzantine::adversary::FaultyBehavior;
use bne_core::byzantine::scenario::{phase_king_grid, PhaseKingScenario, ProtocolStats};
use bne_core::machine::scenario::{rounds_grid, TournamentScenario, TournamentStats};
use bne_core::machine::tournament::{rank_of, run_tournament, Competitor};
use bne_core::p2p::scenario::{sharing_cost_grid, P2pScenario, P2pStats};
use bne_core::p2p::{simulate as p2p_simulate, P2pConfig, P2pOutcome};
use bne_core::sim::{canonical_fold, derive_seed, CellResult, Merge, Scenario, SimRunner};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The legacy pattern every simulator used before the engine: run the
/// sweep cell by cell, keep every outcome in a `Vec`, reduce at the end.
fn legacy_sweep<C, O>(
    grid: &[C],
    base_seed: u64,
    replicas: usize,
    run: impl Fn(&C, u64) -> O,
) -> Vec<Vec<O>> {
    grid.iter()
        .enumerate()
        .map(|(cell, config)| {
            (0..replicas)
                .map(|r| run(config, derive_seed(base_seed, cell as u64, r as u64)))
                .collect()
        })
        .collect()
}

/// Asserts the engine's sequential and threaded aggregates are
/// bit-identical to folding the legacy per-replica outcomes.
fn assert_engine_matches_legacy<S>(
    label: &str,
    runner: &SimRunner,
    scenario: &S,
    grid: &[S::Config],
    legacy_stats: Vec<Vec<S::Outcome>>,
) -> Vec<CellResult<S::Outcome>>
where
    S: Scenario + Sync,
    S::Config: Sync,
    S::Outcome: Merge + Clone + PartialEq + std::fmt::Debug + Send,
{
    let engine = runner.run_sequential(scenario, grid);
    for (cell, replicas) in legacy_stats.into_iter().enumerate() {
        let folded = canonical_fold(replicas).expect("at least one replica");
        assert_eq!(
            engine[cell].outcome, folded,
            "{label}: engine cell {cell} diverged from the legacy sequential path"
        );
    }
    let par = runner.run(scenario, grid);
    assert_eq!(
        engine, par,
        "{label}: parallel aggregation is not bit-identical to sequential"
    );
    for workers in [2, 3, 5] {
        assert_eq!(
            engine,
            runner.run_parallel_with(workers, scenario, grid),
            "{label}: {workers}-worker aggregation is not bit-identical"
        );
    }
    engine
}

fn bench_scenario_engine(c: &mut Criterion) {
    let smoke = bench_smoke_mode();

    // -- p2p: sharing-cost grid ---------------------------------------------
    let (peers, queries, replicas) = if smoke {
        (150, 600, 4)
    } else {
        (300, 1_500, 8)
    };
    let base = P2pConfig {
        peers,
        queries,
        ..P2pConfig::default()
    };
    let p2p_grid = sharing_cost_grid(&base, &[0.5, 1.0, 2.0]);
    let p2p_runner = SimRunner::new(replicas, 4_201);
    let legacy: Vec<Vec<P2pStats>> = legacy_sweep(&p2p_grid, 4_201, replicas, |cfg, seed| {
        P2pStats::of_outcome(&p2p_simulate(cfg, seed))
    });
    assert_engine_matches_legacy("p2p", &p2p_runner, &P2pScenario, &p2p_grid, legacy);

    c.bench_function("p2p_sweep_engine_seq/cost_grid", |b| {
        b.iter(|| black_box(p2p_runner.run_sequential(&P2pScenario, &p2p_grid)))
    });
    c.bench_function("p2p_sweep_engine_par/cost_grid", |b| {
        b.iter(|| black_box(p2p_runner.run(&P2pScenario, &p2p_grid)))
    });
    c.bench_function("p2p_sweep_legacy_seq/cost_grid", |b| {
        b.iter(|| {
            // stored outcomes, then one mean±std pass per metric
            let outcomes: Vec<Vec<P2pOutcome>> =
                legacy_sweep(&p2p_grid, 4_201, replicas, p2p_simulate);
            let summaries: Vec<Vec<(f64, f64)>> = outcomes
                .iter()
                .map(|cell| {
                    let n = cell.len() as f64;
                    let metrics: [&dyn Fn(&P2pOutcome) -> f64; 5] = [
                        &|o| o.free_rider_fraction,
                        &|o| o.top1_percent_response_share,
                        &|o| o.top10_percent_response_share,
                        &|o| o.query_success_rate,
                        &|o| o.sharers as f64,
                    ];
                    metrics
                        .iter()
                        .map(|metric| {
                            let mean = cell.iter().map(metric).sum::<f64>() / n;
                            let var = cell
                                .iter()
                                .map(|o| (metric(o) - mean) * (metric(o) - mean))
                                .sum::<f64>()
                                / n;
                            (mean, var.sqrt())
                        })
                        .collect()
                })
                .collect();
            black_box(summaries)
        })
    });

    // -- phase king: adversary grid -----------------------------------------
    let (cells, replicas): (&[(usize, usize)], usize) = if smoke {
        (&[(6, 1)], 8)
    } else {
        (&[(9, 2), (13, 3)], 32)
    };
    let pk_grid = phase_king_grid(cells, &[FaultyBehavior::Equivocate { seed: 2 }], true);
    let pk_runner = SimRunner::new(replicas, 4_202);
    let legacy: Vec<Vec<ProtocolStats>> = legacy_sweep(&pk_grid, 4_202, replicas, |cfg, seed| {
        PhaseKingScenario.run(cfg, seed)
    });
    assert_engine_matches_legacy(
        "phase_king",
        &pk_runner,
        &PhaseKingScenario,
        &pk_grid,
        legacy,
    );

    c.bench_function("phase_king_sweep_engine_seq/equivocate", |b| {
        b.iter(|| black_box(pk_runner.run_sequential(&PhaseKingScenario, &pk_grid)))
    });
    c.bench_function("phase_king_sweep_engine_par/equivocate", |b| {
        b.iter(|| black_box(pk_runner.run(&PhaseKingScenario, &pk_grid)))
    });
    c.bench_function("phase_king_sweep_legacy_seq/equivocate", |b| {
        b.iter(|| {
            // the legacy pattern stored per-run reports and averaged later;
            // per-run work is identical (network build + t+1 phases)
            let outcomes: Vec<Vec<ProtocolStats>> =
                legacy_sweep(&pk_grid, 4_202, replicas, |cfg, seed| {
                    PhaseKingScenario.run(cfg, seed)
                });
            let rates: Vec<f64> = outcomes
                .iter()
                .map(|cell| {
                    cell.iter().map(|o| o.agreement.mean()).sum::<f64>() / cell.len() as f64
                })
                .collect();
            black_box(rates)
        })
    });

    // -- tournament: seeded-field replicas ----------------------------------
    let (rounds, replicas) = if smoke { (50, 4) } else { (200, 16) };
    let t_grid = rounds_grid(&[rounds], true);
    let t_runner = SimRunner::new(replicas, 4_203);
    let legacy: Vec<Vec<TournamentStats>> = legacy_sweep(&t_grid, 4_203, replicas, |cfg, seed| {
        TournamentScenario.run(cfg, seed)
    });
    assert_engine_matches_legacy(
        "tournament",
        &t_runner,
        &TournamentScenario,
        &t_grid,
        legacy,
    );

    c.bench_function("tournament_sweep_engine_seq/standard_field", |b| {
        b.iter(|| black_box(t_runner.run_sequential(&TournamentScenario, &t_grid)))
    });
    c.bench_function("tournament_sweep_engine_par/standard_field", |b| {
        b.iter(|| black_box(t_runner.run(&TournamentScenario, &t_grid)))
    });
    c.bench_function("tournament_sweep_legacy_seq/standard_field", |b| {
        b.iter(|| {
            // the legacy loop re-ran the full tournament per seed and kept
            // every standings table
            let standings: Vec<Vec<usize>> = (0..replicas)
                .map(|r| {
                    let field = Competitor::standard_field(derive_seed(4_203, 0, r as u64));
                    let s = run_tournament(&field, t_grid[0]);
                    vec![
                        rank_of(&s, "TitForTat").unwrap(),
                        rank_of(&s, "AllD").unwrap(),
                    ]
                })
                .collect();
            black_box(standings)
        })
    });

    // -- one whole simulator run, outside the engine -------------------------
    let p2p_config = P2pConfig::default();
    c.bench_function("p2p/2000_peers_20k_queries", |b| {
        b.iter(|| black_box(p2p_simulate(&p2p_config, 42)))
    });

    // Headline ratios straight in the bench output. Both medians and mins
    // are reported: on shared/noisy hardware the minimum is far less
    // sensitive to drift between adjacent benches (the three variants run
    // identical simulation work, so true parity is the 1-core expectation).
    let results = criterion::results();
    let median = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.median_ns);
    let minimum = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.min_ns);
    for (legacy, seq, par) in [
        (
            "p2p_sweep_legacy_seq/cost_grid",
            "p2p_sweep_engine_seq/cost_grid",
            "p2p_sweep_engine_par/cost_grid",
        ),
        (
            "phase_king_sweep_legacy_seq/equivocate",
            "phase_king_sweep_engine_seq/equivocate",
            "phase_king_sweep_engine_par/equivocate",
        ),
        (
            "tournament_sweep_legacy_seq/standard_field",
            "tournament_sweep_engine_seq/standard_field",
            "tournament_sweep_engine_par/standard_field",
        ),
    ] {
        if let (Some(l), Some(s)) = (median(legacy), median(seq)) {
            match median(par) {
                Some(p) => println!(
                    "{legacy}: engine seq {:.2}x, engine par {:.2}x vs legacy (median)",
                    l / s,
                    l / p
                ),
                None => println!("{legacy}: engine seq {:.2}x vs legacy (median)", l / s),
            }
        }
        if let (Some(l), Some(s)) = (minimum(legacy), minimum(seq)) {
            match minimum(par) {
                Some(p) => println!(
                    "{legacy}: engine seq {:.2}x, engine par {:.2}x vs legacy (min)",
                    l / s,
                    l / p
                ),
                None => println!("{legacy}: engine seq {:.2}x vs legacy (min)", l / s),
            }
        }
    }
    BenchReport::new("BENCH_2", "scenario_engine", results).write();
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
    targets = bench_scenario_engine
}
criterion_main!(benches);
