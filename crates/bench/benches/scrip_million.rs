//! BENCH_9: the sampled-equilibrium performance layer at scale.
//!
//! Three stories, each gated on correctness before anything is timed:
//!
//! * **audit speedup** — the exhaustive [`DeviationOracle`] versus the
//!   [`SampledOracle`] on a 7-player × 5-action coordination game whose
//!   all-zeros profile is fully resilient: the exhaustive accept has no
//!   early exit and must enumerate every coalition deviation (~280k),
//!   while the sampled audit draws a fixed budget of seeded samples.
//!   Full runs on two vCPUs read 5.8–6.8x. The sampled audit's fan-out
//!   is memory-bound: its payoff queries look up the backend's 4.4 MB
//!   ring table at random, and on two vCPUs two workers read those
//!   tables about 10% slower than one, which the fan-out's timing rule
//!   cannot see;
//! * **million-agent economy** — the O(1)-per-round [`Economy`] engine
//!   running 10^6 agents, plus a full [`EconomyScenario`] sweep cell
//!   through the [`SimRunner`];
//! * **million-agent audit** — the sampled oracle auditing the
//!   million-agent economy's common threshold through a fresh
//!   [`ThresholdAuditBackend`] per audit, as e24 builds one per cell: the
//!   backend records its base run once, so a reused one would time warm
//!   audits. The headline carries one audit's payoff queries, those
//!   answered from the recorded base run, and its economy runs.
//!
//! Run and record to `BENCH_9.json` in the repo root:
//!
//! ```text
//! BNE_BENCH_DIR=$PWD cargo bench -p bne-bench --bench scrip_million
//! ```
//!
//! The report's headline adds throughput metrics (agents/sec,
//! rounds/sec), the engine's resident-bytes high-water mark (the
//! arena-style RSS proxy), and the exhaustive-over-sampled speedup to the
//! criterion legs.

use bne_bench::BenchReport;
use bne_core::games::backend::{DenseBackend, LocalBackend};
use bne_core::games::random::random_game;
use bne_core::games::sampled::{AuditSpec, SampledOracle};
use bne_core::games::{DeviationOracle, ResilienceVariant};
use bne_core::scrip::{
    economy_grid, Economy, EconomyConfig, EconomyScenario, ThresholdAuditBackend,
};
use bne_core::sim::json::Json;
use bne_core::sim::SimRunner;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const MILLION: usize = 1_000_000;

/// Bounded parameters for the CI smoke run; the full run measures real
/// horizons.
struct Params {
    economy_rounds: u64,
    audit_economy_rounds: u64,
    million_audit_samples: usize,
    coord_audit_samples: usize,
    sweep_replicas: usize,
}

fn params() -> Params {
    if bne_bench::bench_smoke_mode() {
        Params {
            economy_rounds: 200_000,
            audit_economy_rounds: 100_000,
            million_audit_samples: 8,
            coord_audit_samples: 64,
            sweep_replicas: 1,
        }
    } else {
        Params {
            economy_rounds: 2_000_000,
            audit_economy_rounds: 500_000,
            million_audit_samples: 32,
            coord_audit_samples: 512,
            sweep_replicas: 3,
        }
    }
}

/// The exhaustive-audit workload: a coordination game where everyone's
/// payoff is `-(sum of all actions)`. All-zeros is fully resilient, and
/// since *no* deviation ever gains, the exhaustive accept must enumerate
/// the entire coalition-deviation space — the honest worst case.
fn coordination_game() -> LocalBackend {
    // radius 3 on a 7-ring: every neighborhood is the whole player set
    LocalBackend::ring(7, 5, 3, |_, acts| {
        -acts.iter().map(|&a| a as f64).sum::<f64>()
    })
}

fn audit_spec(samples: usize, max_coalition: usize) -> AuditSpec {
    AuditSpec {
        epsilon: 0.0,
        delta: 1e-6,
        samples,
        max_coalition,
        seed: 900,
    }
}

/// Correctness gates — every bit-identity and consistency claim the
/// timed legs rely on, asserted before any timing happens.
fn gates() {
    // 1. sampled-vs-exhaustive consistency on a small dense game: no
    // exhaustively-certified profile is ever sampled-rejected, and every
    // sampled counterexample re-derives from direct payoffs
    let g = random_game(9100, &[3, 3, 2]);
    let backend = DenseBackend::new(&g);
    let sampled = SampledOracle::new(&backend);
    let exhaustive = DeviationOracle::new(&g);
    for flat in 0..g.num_profiles() {
        let base = g.profile_at(flat);
        let audit = sampled.audit(&base, &audit_spec(128, 3));
        for cert in &audit.certificates {
            let certified =
                exhaustive.is_k_resilient(flat, cert.size, ResilienceVariant::SomeMemberGains);
            assert!(
                !certified || cert.accepted,
                "flat {flat}: exhaustive certifies size {} but sampled rejects",
                cert.size
            );
            if let Some(cx) = &cert.counterexample {
                let mut deviated = base.clone();
                for (p, a) in cx.players.iter().zip(cx.actions.iter()) {
                    deviated[*p] = *a;
                }
                let gain = cx
                    .players
                    .iter()
                    .map(|&p| g.payoff(p, &deviated) - g.payoff(p, &base))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(gain, cx.gain, "flat {flat}: witness gain must re-derive");
                assert!(!certified, "flat {flat}: witness contradicts certificate");
            }
        }
    }

    // 2. sampled seq == par bit-identity under forced worker counts
    {
        let base = vec![0usize; 3];
        let spec = audit_spec(384, 3);
        let sequential = sampled.audit(&base, &spec);
        for workers in [2usize, 3, 5] {
            assert_eq!(
                sequential,
                sampled.audit_with_workers(&base, &spec, workers),
                "sampled audit diverged at {workers} workers"
            );
        }
    }

    // 3. the coordination game really is fully resilient at zeros, both
    // exhaustively and sampled, and through its densification
    let coord = coordination_game();
    let dense_coord = coord.to_dense();
    let oracle = DeviationOracle::new(&dense_coord);
    assert!(oracle.is_k_resilient(0, 7, ResilienceVariant::SomeMemberGains));
    let zeros = vec![0usize; 7];
    let via_local = SampledOracle::new(&coord).audit(&zeros, &audit_spec(64, 7));
    assert!(via_local.accepted);
    let dense_backend = DenseBackend::new(&dense_coord);
    let via_dense = SampledOracle::new(&dense_backend).audit(&zeros, &audit_spec(64, 7));
    assert_eq!(via_local, via_dense, "local and dense audits must agree");

    // 4. the scaled economy conserves scrip without churn and never
    // allocates in steady state
    let config = EconomyConfig {
        hoarders: 50,
        ..EconomyConfig::homogeneous(5_000, 8, 50_000)
    };
    let mut engine = Economy::new(&config);
    let before = engine.resident_bytes();
    let outcome = engine.run(17);
    assert_eq!(
        engine.resident_bytes(),
        before,
        "the economy hot loop must not allocate"
    );
    assert_eq!(
        outcome.money_supply,
        config.total_agents() as u64 * config.initial_scrip as u64,
        "scrip must be conserved without churn"
    );
    engine.run(18);
    assert_eq!(engine.resident_bytes(), before);
}

fn bench_scrip_million(c: &mut Criterion) {
    let p = params();
    gates();
    println!("correctness gates passed; timing begins");

    // --- audit speedup: exhaustive vs sampled on the coordination game ---
    let coord = coordination_game();
    let dense_coord = coord.to_dense();
    let zeros = vec![0usize; 7];
    c.bench_function("audit_exhaustive/7p5a_coord", |b| {
        b.iter(|| {
            let oracle = DeviationOracle::new(&dense_coord);
            black_box(oracle.is_k_resilient(0, 7, ResilienceVariant::SomeMemberGains))
        })
    });
    let spec = audit_spec(p.coord_audit_samples, 7);
    c.bench_function("audit_sampled/7p5a_coord", |b| {
        b.iter(|| black_box(SampledOracle::new(&coord).audit(&zeros, &spec).accepted))
    });

    // --- million-agent economy: raw rounds and a full sweep cell ---
    let million_config = EconomyConfig {
        hoarders: MILLION / 100,
        churn: 0.001,
        ..EconomyConfig::homogeneous(MILLION - MILLION / 100, 10, p.economy_rounds)
    };
    let mut engine = Economy::new(&million_config);
    let outcome = engine.run(29);
    let resident_high_water = outcome.resident_bytes as u64;
    println!(
        "1M-agent economy: efficiency {:.4}, pool mean {:.0}, resident {} MiB",
        outcome.efficiency,
        outcome.pool_size.mean(),
        resident_high_water >> 20
    );
    c.bench_function("economy_rounds/1M_agents", |b| {
        b.iter(|| black_box(engine.run(29).unserved))
    });

    let grid = economy_grid(MILLION, 10, &[6], &[0.001], &[0.01], p.economy_rounds);
    let runner = SimRunner::new(p.sweep_replicas, 31);
    c.bench_function("sweep_cell/1M_agents", |b| {
        b.iter(|| {
            let cells = runner.run_sequential(&EconomyScenario, &grid);
            black_box(cells[0].outcome.efficiency.mean())
        })
    });

    // --- million-agent sampled audit through the economy backend ---
    let audit_config = EconomyConfig {
        rounds: p.audit_economy_rounds,
        ..million_config.clone()
    };
    let million_backend =
        || ThresholdAuditBackend::new(audit_config.clone(), vec![0, 5, 10, 20], 1, 37);
    let backend = million_backend();
    let base = backend.base_profile();
    let million_spec = AuditSpec::unilateral(0.05, 0.05, p.million_audit_samples, 41);
    let audit = SampledOracle::new(&backend).audit(&base, &million_spec);
    let cert = &audit.certificates[0];
    let work = backend.work();
    println!(
        "1M-agent audit: accepted={} max_gain={:.4} miss_mass={:.3} hoeffding={:.4}; \
         {} queries, {} from the base run, {} economy runs",
        cert.accepted,
        cert.max_gain,
        cert.miss_mass,
        cert.hoeffding_radius,
        work.queries,
        work.recalled,
        work.economy_runs
    );
    drop(backend);
    c.bench_function("audit_sampled/1M_scrip", |b| {
        b.iter(|| {
            let backend = million_backend();
            black_box(
                SampledOracle::new(&backend)
                    .audit(&base, &million_spec)
                    .accepted,
            )
        })
    });

    // --- headline numbers + BENCH_9 ---
    let results = criterion::results();
    let median = |name: &str| results.iter().find(|r| r.name == name).unwrap().median_ns;
    let speedup = median("audit_exhaustive/7p5a_coord") / median("audit_sampled/7p5a_coord");
    println!("speedup exhaustive vs sampled audit (7p5a coord): {speedup:.2}x");
    // a full run boots, simulates and summarizes the population
    let secs = median("economy_rounds/1M_agents") / 1e9;
    let (rounds_per_sec, agents_per_sec) = (p.economy_rounds as f64 / secs, MILLION as f64 / secs);
    println!(
        "1M-agent economy: {rounds_per_sec:.0} rounds/sec, {agents_per_sec:.0} agents/sec per run"
    );
    BenchReport::new("BENCH_9", "scrip_million", results)
        .only(&[
            "audit_exhaustive/7p5a_coord",
            "audit_sampled/7p5a_coord",
            "economy_rounds/1M_agents",
            "sweep_cell/1M_agents",
            "audit_sampled/1M_scrip",
        ])
        .headline([
            ("agents", Json::U64(MILLION as u64)),
            ("economy_rounds", Json::U64(p.economy_rounds)),
            ("rounds_per_sec", Json::F64(rounds_per_sec)),
            ("agents_per_sec", Json::F64(agents_per_sec)),
            ("resident_bytes_high_water", Json::U64(resident_high_water)),
            ("audit_speedup_exhaustive_over_sampled", Json::F64(speedup)),
            ("million_audit_queries", Json::U64(work.queries)),
            ("million_audit_recalled", Json::U64(work.recalled)),
            ("million_audit_economy_runs", Json::U64(work.economy_runs)),
        ])
        .write();
}

criterion_group! {
    name = benches;
    config = {
        // BNE_BENCH_SMOKE=1 (the CI bench-smoke job): few fast samples —
        // the run exists to drive the gates and the bounded sweep, not to
        // produce stable timings.
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
    targets = bench_scrip_million
}
criterion_main!(benches);
