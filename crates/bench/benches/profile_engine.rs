//! Flat-index profile engine benches: the allocating baseline (the old
//! clone-profile-and-re-encode pattern) vs. the stride-arithmetic engine,
//! whose sweeps run under the fan-out rule of `bne_games::parallel`.
//!
//! Run and record to `BENCH_1.json` (all legs, among them the pruned vs
//! unpruned deviation-oracle legs) in the repo root:
//!
//! ```text
//! BNE_BENCH_DIR=$PWD cargo bench -p bne-bench --bench profile_engine
//! ```
//!
//! Every search is checked for bit-identical results against the baseline
//! before anything is timed, so the speedups are apples-to-apples.

use bne_bench::BenchReport;
use bne_core::games::profile::{strides_for, subsets_up_to_size, ProfileIter};
use bne_core::games::random::random_game;
use bne_core::games::{Concept, DeviationOracle, NormalFormGame, SearchStrategy};
use bne_core::solvers::{best_response_table, pure_nash_equilibria};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const EPSILON: f64 = 1e-9;

// ---------------------------------------------------------------------------
// Allocating baseline: the pre-flat-index implementations, kept verbatim so
// later PRs retain a fixed reference point for the perf trajectory.
// ---------------------------------------------------------------------------

fn alloc_is_pure_nash(game: &NormalFormGame, profile: &[usize]) -> bool {
    (0..game.num_players()).all(|p| {
        let current = game.payoff(p, profile);
        let mut work = profile.to_vec();
        let mut best = f64::NEG_INFINITY;
        for a in 0..game.num_actions(p) {
            work[p] = a;
            best = best.max(game.payoff(p, &work));
        }
        best <= current + EPSILON
    })
}

fn alloc_pure_nash_equilibria(game: &NormalFormGame) -> Vec<Vec<usize>> {
    game.profiles()
        .filter(|p| alloc_is_pure_nash(game, p))
        .collect()
}

fn alloc_is_k_resilient(game: &NormalFormGame, profile: &[usize], k: usize) -> bool {
    let n = game.num_players();
    for coalition in subsets_up_to_size(n, k.min(n)) {
        let before: Vec<f64> = coalition.iter().map(|&p| game.payoff(p, profile)).collect();
        let radices: Vec<usize> = coalition.iter().map(|&p| game.num_actions(p)).collect();
        for deviation in ProfileIter::new(&radices) {
            if coalition
                .iter()
                .zip(deviation.iter())
                .all(|(&p, &a)| profile[p] == a)
            {
                continue;
            }
            let mut new_profile = profile.to_vec();
            for (&p, &a) in coalition.iter().zip(deviation.iter()) {
                new_profile[p] = a;
            }
            let gains = coalition
                .iter()
                .zip(before.iter())
                .any(|(&p, b)| game.payoff(p, &new_profile) > *b + EPSILON);
            if gains {
                return false;
            }
        }
    }
    true
}

fn alloc_is_t_immune(game: &NormalFormGame, profile: &[usize], t: usize) -> bool {
    let n = game.num_players();
    for deviators in subsets_up_to_size(n, t.min(n)) {
        let radices: Vec<usize> = deviators.iter().map(|&p| game.num_actions(p)).collect();
        for deviation in ProfileIter::new(&radices) {
            if deviators
                .iter()
                .zip(deviation.iter())
                .all(|(&p, &a)| profile[p] == a)
            {
                continue;
            }
            let mut new_profile = profile.to_vec();
            for (&p, &a) in deviators.iter().zip(deviation.iter()) {
                new_profile[p] = a;
            }
            for victim in 0..n {
                if deviators.contains(&victim) {
                    continue;
                }
                if game.payoff(victim, &new_profile) < game.payoff(victim, profile) - EPSILON {
                    return false;
                }
            }
        }
    }
    true
}

fn alloc_find_robust_profiles(game: &NormalFormGame, k: usize, t: usize) -> Vec<Vec<usize>> {
    game.profiles()
        .filter(|p| alloc_is_k_resilient(game, p, k) && alloc_is_t_immune(game, p, t))
        .collect()
}

/// Every (k,t)-robust profile of `game`, swept by a fresh oracle (its
/// tables and pruning inside the timed work) with `strategy`.
fn robust_profiles(
    game: &NormalFormGame,
    k: usize,
    t: usize,
    strategy: SearchStrategy,
) -> Vec<Vec<usize>> {
    DeviationOracle::with_strategy(game, strategy).profiles(&Concept::Robust { k, t }, None)
}

/// [`robust_profiles`] with the default pruned strategy.
fn find_robust_profiles(game: &NormalFormGame, k: usize, t: usize) -> Vec<Vec<usize>> {
    robust_profiles(game, k, t, SearchStrategy::Pruned)
}

// ---------------------------------------------------------------------------
// Benches
// ---------------------------------------------------------------------------

fn bench_profile_engine(c: &mut Criterion) {
    // The acceptance game: 4 players x 4 actions, (k,t) = (2,1).
    let g44 = random_game(4400, &[4, 4, 4, 4]);
    let (k, t) = (2usize, 1usize);

    // Correctness gate: flat and baseline searches must agree
    // bit-for-bit before any timing happens.
    assert_eq!(
        alloc_find_robust_profiles(&g44, k, t),
        find_robust_profiles(&g44, k, t),
        "flat-index robustness search diverged from the allocating baseline"
    );
    assert_eq!(
        alloc_pure_nash_equilibria(&g44),
        pure_nash_equilibria(&g44),
        "flat-index nash search diverged from the allocating baseline"
    );

    c.bench_function("robust_search_alloc_baseline/4p4a_k2t1", |b| {
        b.iter(|| black_box(alloc_find_robust_profiles(&g44, k, t)))
    });
    c.bench_function("robust_search_flat/4p4a_k2t1", |b| {
        b.iter(|| black_box(find_robust_profiles(&g44, k, t)))
    });

    c.bench_function("nash_enum_alloc_baseline/4p4a", |b| {
        b.iter(|| black_box(alloc_pure_nash_equilibria(&g44)))
    });
    c.bench_function("nash_enum_flat/4p4a", |b| {
        b.iter(|| black_box(pure_nash_equilibria(&g44)))
    });

    // Sweep over the 3–6 player / 2–5 action grid the roadmap tracks.
    for (seed, radices, label) in [
        (3005u64, vec![5usize, 5, 5], "3p5a"),
        (4004, vec![4, 4, 4, 4], "4p4a"),
        (5003, vec![3, 3, 3, 3, 3], "5p3a"),
        (6002, vec![2, 2, 2, 2, 2, 2], "6p2a"),
    ] {
        let game = random_game(seed, &radices);
        assert_eq!(
            alloc_find_robust_profiles(&game, k, t),
            find_robust_profiles(&game, k, t),
        );
        c.bench_function(&format!("robust_sweep_alloc/{label}_k2t1"), |b| {
            b.iter(|| black_box(alloc_find_robust_profiles(&game, k, t)))
        });
        c.bench_function(&format!("robust_sweep_flat/{label}_k2t1"), |b| {
            b.iter(|| black_box(find_robust_profiles(&game, k, t)))
        });
    }

    let g53 = random_game(5300, &[3, 3, 3, 3, 3]);
    c.bench_function("best_response_table/5p3a", |b| {
        b.iter(|| {
            for p in 0..g53.num_players() {
                black_box(best_response_table(&g53, p));
            }
        })
    });

    // Report the headline ratio so `cargo bench` output shows the
    // acceptance number directly.
    let results = criterion::results();
    let median = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.median_ns);
    if let (Some(base), Some(flat)) = (
        median("robust_search_alloc_baseline/4p4a_k2t1"),
        median("robust_search_flat/4p4a_k2t1"),
    ) {
        println!(
            "speedup flat vs alloc baseline (4p4a k2t1): {:.2}x",
            base / flat
        );
    }
}

// ---------------------------------------------------------------------------
// Pruned vs unpruned deviation-oracle search
// ---------------------------------------------------------------------------

/// Deterministic 64-bit mix (splitmix64 finalizer) so the bench games
/// need no RNG dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A game engineered so dominance bites: integer base payoffs in
/// `[-5, 5]` (the `random_game` shape), with the top `dominated` actions
/// of every player shifted strictly below that player's action 0 in
/// every opponent context — so iterated elimination provably removes
/// them and the pruned search space shrinks by `((r - d) / r)^n`.
fn dominated_game(seed: u64, radices: &[usize], dominated: usize) -> NormalFormGame {
    let n = radices.len();
    let total: usize = radices.iter().product();
    let strides = strides_for(radices);
    let actions: Vec<Vec<String>> = radices
        .iter()
        .map(|&r| (0..r).map(|a| format!("a{a}")).collect())
        .collect();
    let mut payoffs = Vec::with_capacity(n);
    for p in 0..n {
        let mut table: Vec<f64> = (0..total)
            .map(|flat| (mix(seed ^ ((p as u64) << 40) ^ flat as u64) % 11) as f64 - 5.0)
            .collect();
        let cutoff = radices[p] - dominated.min(radices[p] - 1);
        for flat in 0..total {
            let a = (flat / strides[p]) % radices[p];
            if a >= cutoff {
                // strictly below the action-0 payoff in the same context
                table[flat] = table[flat - a * strides[p]] - (2.0 + (a - cutoff) as f64);
            }
        }
        payoffs.push(table);
    }
    NormalFormGame::new(format!("dominated(seed={seed})"), actions, payoffs)
        .expect("generated tensors are well formed")
}

/// The (k,t) grid of the frontier workload: the e-series classification
/// shape, where one oracle's tables, pruned space and per-profile
/// classification amortize over every cell.
const FRONTIER: [(usize, usize); 9] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (1, 1),
    (2, 1),
    (3, 1),
    (1, 2),
    (2, 2),
    (3, 2),
];

fn bench_oracle_pruning(c: &mut Criterion) {
    let game = dominated_game(4500, &[5, 5, 5, 5], 2);
    let (k, t) = (2usize, 1usize);

    // Correctness gates: pruned, unpruned-oracle and allocating-baseline
    // searches must agree bit-for-bit on every frontier cell before any
    // timing happens.
    for &(k, t) in &FRONTIER {
        let pruned = find_robust_profiles(&game, k, t);
        assert_eq!(
            pruned,
            robust_profiles(&game, k, t, SearchStrategy::Exhaustive),
            "pruned robustness search diverged from the exhaustive oracle at k={k} t={t}"
        );
        assert_eq!(
            pruned,
            alloc_find_robust_profiles(&game, k, t),
            "oracle robustness search diverged from the allocating baseline at k={k} t={t}"
        );
    }
    {
        let oracle = DeviationOracle::new(&game);
        let frontier = oracle.robust_frontier(&FRONTIER);
        for (i, &(k, t)) in FRONTIER.iter().enumerate() {
            assert_eq!(
                frontier[i],
                find_robust_profiles(&game, k, t),
                "frontier cell ({k},{t}) diverged from the per-cell sweep"
            );
        }
        assert!(
            oracle.pruned_profile_count() <= 81,
            "the planted dominated actions must actually be eliminated \
             (pruned space {} of {})",
            oracle.pruned_profile_count(),
            game.num_profiles()
        );
        assert_eq!(
            pure_nash_equilibria(&game),
            alloc_pure_nash_equilibria(&game)
        );
    }

    // Single (2,1)-robust sweep, end to end (table build + elimination
    // included in every pruned iteration).
    c.bench_function("robust_search_pruned/4p5a_k2t1_dom", |b| {
        b.iter(|| black_box(find_robust_profiles(&game, k, t)))
    });
    c.bench_function("robust_search_unpruned/4p5a_k2t1_dom", |b| {
        b.iter(|| black_box(robust_profiles(&game, k, t, SearchStrategy::Exhaustive)))
    });

    // The frontier workload: every (k,t) cell answered over the same
    // game — the pruned arm classifies each profile once through one
    // oracle (`robust_frontier`), while the unpruned arm re-scans the
    // full space and re-runs the coalition searches per cell (the
    // pre-oracle behavior).
    c.bench_function("robust_frontier_pruned/4p5a_dom", |b| {
        b.iter(|| {
            let oracle = DeviationOracle::new(&game);
            let found: usize = oracle.robust_frontier(&FRONTIER).iter().map(Vec::len).sum();
            black_box(found)
        })
    });
    c.bench_function("robust_frontier_unpruned/4p5a_dom", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &(k, t) in &FRONTIER {
                found += robust_profiles(&game, k, t, SearchStrategy::Exhaustive).len();
            }
            black_box(found)
        })
    });

    // Nash enumeration on the same dominance-heavy game.
    c.bench_function("nash_enum_pruned/4p5a_dom", |b| {
        b.iter(|| black_box(pure_nash_equilibria(&game)))
    });
    c.bench_function("nash_enum_unpruned/4p5a_dom", |b| {
        b.iter(|| {
            let oracle = DeviationOracle::with_strategy(&game, SearchStrategy::Exhaustive);
            black_box(oracle.profiles(&Concept::Nash, None))
        })
    });

    let pairs = [
        (
            "robust_search_pruned/4p5a_k2t1_dom",
            "robust_search_unpruned/4p5a_k2t1_dom",
            "single (2,1)-robust sweep",
        ),
        (
            "robust_frontier_pruned/4p5a_dom",
            "robust_frontier_unpruned/4p5a_dom",
            "(k,t) frontier sweep",
        ),
        (
            "nash_enum_pruned/4p5a_dom",
            "nash_enum_unpruned/4p5a_dom",
            "nash enumeration",
        ),
    ];
    let results = criterion::results();
    let median = |name: &str| results.iter().find(|r| r.name == name).unwrap().median_ns;
    for (pruned, unpruned, label) in pairs {
        let speedup = median(unpruned) / median(pruned);
        println!("speedup pruned vs unpruned ({label}, 4p5a dom): {speedup:.2}x");
    }
    // this target runs last, so `results` holds every leg of the bench
    BenchReport::new("BENCH_1", "profile_engine", results).write();
}

criterion_group! {
    name = benches;
    config = {
        // BNE_BENCH_SMOKE=1 (the CI bench-smoke job): few fast samples —
        // the point of that run is the bit-identity assertions above, not
        // the timings.
        let (samples, warm_ms, measure_ms) = if bne_bench::bench_smoke_mode() {
            (3, 100, 400)
        } else {
            (15, 400, 2_500)
        };
        Criterion::default()
            .sample_size(samples)
            .warm_up_time(std::time::Duration::from_millis(warm_ms))
            .measurement_time(std::time::Duration::from_millis(measure_ms))
    };
    targets = bench_profile_engine, bench_oracle_pruning
}
criterion_main!(benches);
