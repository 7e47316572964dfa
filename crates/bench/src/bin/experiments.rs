//! Experiment runner: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bne-bench --bin experiments           # run everything
//! cargo run --release -p bne-bench --bin experiments -- e3 e9  # run a subset
//! ```
//!
//! An unknown id is an error (exit status 2) and nothing runs; a
//! malformed `BNE_THREADS` panics before any output. With
//! `BNE_BENCH_DIR` set, every printed table is also exported to
//! `$BNE_BENCH_DIR/experiments.json`. The experiment ids (e1..e25) are
//! documented in `EXPERIMENTS.md`.

use bne_bench::{
    emit_table, fmt_bool, fmt_f64, select_experiments, write_experiments_json, EXPERIMENT_IDS,
};
use bne_core::awareness::analyze_figure1;
use bne_core::awareness::figures::figure1_awareness_game;
use bne_core::awareness::generalized::find_generalized_equilibria;
use bne_core::byzantine::adversary::FaultyBehavior;
use bne_core::byzantine::om::TraitorStrategy;
use bne_core::byzantine::properties::om_boundary_sweep;
use bne_core::byzantine::scenario::{om_grid, phase_king_grid, OmScenario, PhaseKingScenario};
use bne_core::games::backend::{PayoffBackend, ProfileView};
use bne_core::games::classic;
use bne_core::machine::frpd;
use bne_core::machine::primality::primality_sweep;
use bne_core::machine::roshambo;
use bne_core::machine::scenario::{rounds_grid, TournamentScenario};
use bne_core::machine::tournament::{run_tournament, Competitor, TournamentConfig};
use bne_core::mediator::feasibility::{classify_regime, Assumptions, Implementability};
use bne_core::mediator::{
    distributions_match, ByzantineAgreementGame, MediatorGame, TruthfulMediator,
};
use bne_core::net::scenario::{
    async_broadcast_partition_grid, async_om_loss_grid, async_phase_king_scheduler_grid,
    ben_or_scheduler_grid, bracha_partition_grid, quorum_consensus_grid, AsyncBrachaScenario,
    AsyncBroadcastScenario, AsyncOmScenario, AsyncPhaseKingScenario, BenOrScenario, CrashRegime,
    HsucScenario, PaxosScenario, SchedulerSpec,
};
use bne_core::net::{LatencyModel, OralMessagesCheapTalk, SignedBroadcastCheapTalk};
use bne_core::p2p::scenario::{sharing_cost_grid, P2pScenario};
use bne_core::p2p::{simulate as p2p_simulate, P2pConfig};
use bne_core::robust::classify_profile;
use bne_core::scrip::{economy_grid, EconomyConfig, EconomyScenario, ThresholdAuditBackend};
use bne_core::sim::SimRunner;
use bne_core::solvers::pure_nash_equilibria;
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = select_experiments(&args).unwrap_or_else(|unknown| {
        eprintln!("unknown experiment id(s): {}", unknown.join(" "));
        eprintln!("valid ids: all {}", EXPERIMENT_IDS.join(" "));
        std::process::exit(2);
    });
    // read `BNE_THREADS` now: a malformed value panics before any table
    // is printed, not at the first parallel sweep
    bne_core::games::parallel::num_threads();
    for id in selected {
        match id {
            "e1" => e1_coordination(),
            "e2" => e2_bargaining(),
            "e3" => e3_mediator_regimes(),
            "e4" => e4_byzantine(),
            "e5" => e5_freeriding(),
            "e6" => e6_primality(),
            "e7" => e7_frpd(),
            "e8" => e8_roshambo(),
            "e9" => e9_figure1(),
            "e10" => e10_augmented(),
            "e11" => e11_scrip(),
            "e12" => e12_tournament(),
            "e13" => e13_scrip_grid(),
            "e14" => e14_byzantine_grid(),
            "e15" => e15_p2p_grid(),
            "e16" => e16_tournament_grid(),
            "e17" => e17_async_loss_grid(),
            "e18" => e18_async_scheduler_grid(),
            "e19" => e19_partition_grid(),
            "e20" => e20_ben_or_grid(),
            "e21" => e21_bracha_retry_partition_grid(),
            "e22" => e22_quorum_consensus_atlas(),
            "e23" => e23_paxos_phase_latency(),
            "e24" => e24_million_agent_audit(),
            "e25" => e25_model_checker(),
            _ => unreachable!(),
        }
        println!();
    }
    write_experiments_json();
}

/// E1 — the 0/1 coordination example of Section 2: all-0 is Nash but not
/// 2-resilient.
fn e1_coordination() {
    let mut rows = Vec::new();
    for n in 3..=9usize {
        let game = classic::coordination_game(n);
        let c = classify_profile(&game, &vec![0; n]);
        rows.push(vec![
            n.to_string(),
            fmt_bool(c.is_nash),
            c.max_resilience.to_string(),
            c.max_immunity.to_string(),
            fmt_bool(c.is_robust(2, 0)),
        ]);
    }
    emit_table(
        "e1",
        "E1  0/1 coordination game: everyone plays 0",
        &[
            "n",
            "Nash?",
            "max k-resilience",
            "max t-immunity",
            "(2,0)-robust?",
        ],
        &rows,
    );
    println!("Paper: all-0 is a Nash equilibrium, but any pair gains by jointly switching to 1.");
}

/// E2 — the bargaining example: all-stay is k-resilient for every k but not
/// 1-immune.
fn e2_bargaining() {
    let mut rows = Vec::new();
    for n in [2usize, 4, 6, 8, 10] {
        let game = classic::bargaining_game(n);
        let c = classify_profile(&game, &vec![0; n]);
        rows.push(vec![
            n.to_string(),
            fmt_bool(c.is_nash),
            fmt_bool(c.is_pareto_optimal),
            c.max_resilience.to_string(),
            c.max_immunity.to_string(),
        ]);
    }
    emit_table(
        "e2",
        "E2  bargaining game: everyone stays at the table",
        &[
            "n",
            "Nash?",
            "Pareto?",
            "max k-resilience",
            "max t-immunity",
        ],
        &rows,
    );
    println!("Paper: k-resilient for all k and Pareto optimal, yet a single deviator drops every stayer to 0 (not 1-immune).");
}

/// E3 — the nine-bullet mediator-implementation regimes.
fn e3_mediator_regimes() {
    let assumption_sets: [(&str, Assumptions); 4] = [
        ("none", Assumptions::none()),
        (
            "punish+util",
            Assumptions {
                known_utilities: true,
                punishment_strategy: true,
                ..Assumptions::none()
            },
        ),
        (
            "broadcast",
            Assumptions {
                broadcast_channels: true,
                ..Assumptions::none()
            },
        ),
        ("crypto+pki", Assumptions::all()),
    ];
    let mut rows = Vec::new();
    for (k, t) in [(1usize, 1usize), (2, 1), (2, 2)] {
        for n in [4usize, 6, 7, 8, 9, 10, 12, 13] {
            let mut row = vec![format!("k={k},t={t}"), n.to_string()];
            for (_, assumptions) in &assumption_sets {
                let r = classify_regime(n, k, t, *assumptions);
                row.push(match r.implementability {
                    Implementability::Exact(_) => "exact".to_string(),
                    Implementability::Epsilon(_) => "epsilon".to_string(),
                    Implementability::Impossible => "-".to_string(),
                });
            }
            rows.push(row);
        }
    }
    emit_table(
        "e3",
        "E3  mediator implementation by cheap talk (Abraham et al. regimes)",
        &[
            "(k,t)",
            "n",
            "none",
            "punish+util",
            "broadcast",
            "crypto+pki",
        ],
        &rows,
    );
    // executable evidence for two regimes
    let game = ByzantineAgreementGame::build(7, 0.5);
    let mg = MediatorGame::new(&game, TruthfulMediator);
    let faulty: BTreeSet<usize> = [5, 6].into_iter().collect();
    let om = OralMessagesCheapTalk::new(7, 1, 1);
    println!(
        "constructive check  n=7,(k,t)=(1,1)  OM cheap talk implements mediator: {}",
        distributions_match(&mg, &om, &faulty, 5, 1e-9)
    );
    let game5 = ByzantineAgreementGame::build(5, 0.5);
    let mg5 = MediatorGame::new(&game5, TruthfulMediator);
    let faulty5: BTreeSet<usize> = [2, 3, 4].into_iter().collect();
    let ds = SignedBroadcastCheapTalk::new(5, 1, 2);
    let om5 = OralMessagesCheapTalk::new(5, 1, 2);
    println!(
        "constructive check  n=5,(k,t)=(1,2)  OM fails: {}, signed broadcast (PKI) succeeds: {}",
        !distributions_match(&mg5, &om5, &faulty5, 5, 1e-9),
        distributions_match(&mg5, &ds, &faulty5, 5, 1e-9)
    );
}

/// E4 — the Byzantine agreement t < n/3 boundary and the trivial mediator.
fn e4_byzantine() {
    let rows: Vec<Vec<String>> = om_boundary_sweep(10, 2, false)
        .into_iter()
        .filter(|r| r.t > 0)
        .map(|r| {
            vec![
                r.n.to_string(),
                r.t.to_string(),
                fmt_bool(r.theoretically_possible),
                fmt_bool(r.agreement && r.validity),
                r.messages.to_string(),
            ]
        })
        .collect();
    emit_table(
        "e4",
        "E4  oral-messages Byzantine agreement vs the n > 3t bound",
        &["n", "t", "n > 3t?", "correct?", "messages"],
        &rows,
    );
    println!(
        "With a mediator the same problem is trivial for any t (see bne-byzantine::mediator_ba)."
    );
}

/// E5 — Gnutella-style free riding.
fn e5_freeriding() {
    let mut rows = Vec::new();
    for cost in [0.3, 0.6, 1.0, 1.5] {
        let outcome = p2p_simulate(
            &P2pConfig {
                sharing_cost: cost,
                ..P2pConfig::default()
            },
            42,
        );
        rows.push(vec![
            fmt_f64(cost),
            fmt_f64(outcome.free_rider_fraction),
            fmt_f64(outcome.top1_percent_response_share),
            fmt_f64(outcome.top10_percent_response_share),
            fmt_f64(outcome.query_success_rate),
        ]);
    }
    emit_table(
        "e5",
        "E5  file-sharing game: free riding and response concentration",
        &[
            "sharing cost",
            "free riders",
            "top 1% share",
            "top 10% share",
            "query success",
        ],
        &rows,
    );
    println!("Adar–Huberman (quoted in the paper): ~70% free riders, top 1% of hosts answer ~50% of queries.");
}

/// E6 — the primality game crossover.
fn e6_primality() {
    let rows: Vec<Vec<String>> = primality_sweep(&[6, 10, 14, 18, 22, 26, 30], 0.002, 8)
        .into_iter()
        .map(|r| {
            vec![
                r.bits.to_string(),
                fmt_f64(r.compute_utility),
                fmt_f64(r.safe_utility),
                r.equilibrium_machines.join(", "),
            ]
        })
        .collect();
    emit_table(
        "e6",
        "E6  primality game (Example 3.1): computing vs playing safe (cost 0.002 per VM step)",
        &[
            "bits",
            "E[u] compute",
            "E[u] play safe",
            "computational equilibrium",
        ],
        &rows,
    );
    println!("Paper: the unique classical equilibrium answers correctly; with computation costs, playing safe takes over for large inputs.");
}

/// E7 — the PD table, FRPD backward induction and the tit-for-tat threshold.
fn e7_frpd() {
    let pd = classic::prisoners_dilemma();
    let mut rows = Vec::new();
    for profile in pd.profiles() {
        rows.push(vec![
            format!(
                "({}, {})",
                pd.action_label(0, profile[0]),
                pd.action_label(1, profile[1])
            ),
            format!("({}, {})", pd.payoff(0, &profile), pd.payoff(1, &profile)),
            fmt_bool(pd.is_pure_nash(&profile)),
        ]);
    }
    emit_table(
        "e7",
        "E7a  prisoner's dilemma payoff table (Section 3)",
        &["profile", "payoffs", "Nash?"],
        &rows,
    );
    println!(
        "unique equilibrium: {:?}; classical FRPD: tit-for-tat is not an equilibrium: {}",
        pure_nash_equilibria(&pd),
        frpd::classical_tft_is_not_equilibrium(20)
    );
    let rows: Vec<Vec<String>> =
        frpd::threshold_sweep(&[0.6, 0.75, 0.9, 0.95], &[0.05, 0.1, 0.5], 600)
            .into_iter()
            .map(|r| {
                vec![
                    fmt_f64(r.discount),
                    fmt_f64(r.memory_cost),
                    r.threshold.map(|t| t.to_string()).unwrap_or("-".into()),
                ]
            })
            .collect();
    emit_table(
        "e7",
        "E7b  FRPD with memory costs: smallest N making (TFT, TFT) a computational equilibrium",
        &["discount δ", "memory cost", "threshold N"],
        &rows,
    );
}

/// E8 — computational roshambo has no equilibrium.
fn e8_roshambo() {
    let game = roshambo::roshambo_bayesian();
    let classical = roshambo::classical_roshambo(&game);
    let computational = roshambo::computational_roshambo(&game);
    println!("== E8  computational roshambo (Example 3.3) ==");
    println!(
        "free computation: (UniformRandom, UniformRandom) is an equilibrium: {}",
        classical.is_equilibrium(&[3, 3])
    );
    println!(
        "deterministic cost 1 / randomized cost 2: number of computational equilibria = {}",
        computational.find_equilibria().len()
    );
    let cycle = roshambo::best_response_cycle(&computational, [0, 0]);
    let names: Vec<String> = cycle
        .iter()
        .map(|p| {
            format!(
                "({}, {})",
                computational.machine_name(0, p[0]),
                computational.machine_name(1, p[1])
            )
        })
        .collect();
    println!("best-response dynamics cycle: {}", names.join(" -> "));
}

/// E9 — Figure 1: awareness changes the played equilibrium.
fn e9_figure1() {
    let mut rows = Vec::new();
    for p in [0.0, 0.1, 0.25, 0.4, 0.49, 0.51, 0.75, 0.9, 1.0] {
        let a = analyze_figure1(p);
        rows.push(vec![
            fmt_f64(p),
            a.num_equilibria.to_string(),
            fmt_bool(a.across_equilibrium_exists),
            fmt_bool(a.down_equilibrium_exists),
        ]);
    }
    emit_table(
        "e9",
        "E9  Figure 1 with unawareness probability p",
        &[
            "p",
            "#generalized NE",
            "A plays acrossA in some NE",
            "A plays downA in some NE",
        ],
        &rows,
    );
    println!("Paper: (acrossA, downB) is the Nash equilibrium of the objective game, but an A who thinks B is likely unaware of downB plays downA.");
}

/// E10 — the augmented-game collection of Figures 2–3: generalized NE always
/// exists.
fn e10_augmented() {
    let mut rows = Vec::new();
    for p in [0.0, 0.2, 0.5, 0.8, 1.0] {
        let gwa = figure1_awareness_game(p);
        let eqs = find_generalized_equilibria(&gwa);
        rows.push(vec![
            fmt_f64(p),
            gwa.games().len().to_string(),
            gwa.strategy_domain().len().to_string(),
            eqs.len().to_string(),
        ]);
    }
    emit_table(
        "e10",
        "E10  games with awareness (Γ_m, Γ_A, Γ_B): generalized Nash equilibria",
        &[
            "p",
            "#augmented games",
            "#(player, game) strategies",
            "#generalized NE",
        ],
        &rows,
    );
    println!("Halpern–Rêgo: every game with awareness has a generalized Nash equilibrium — the count never drops to 0.");
}

/// E11 — scrip systems: thresholds, hoarders, altruists. The economy
/// reports utility per round; the tables print it as a total over the
/// horizon.
fn e11_scrip() {
    // agent 0's payoff at each candidate threshold while the other 29
    // keep threshold 8: 3 trials with common random numbers per query
    let rounds = 10_000;
    let candidates = vec![8, 0, 4, 16];
    let config = EconomyConfig::homogeneous(30, 8, rounds);
    let backend = ThresholdAuditBackend::new(config, candidates.clone(), 3, 1_000);
    let base = backend.base_profile();
    let responses: Vec<(u32, f64)> = (0..candidates.len())
        .map(|action| {
            let per_round = backend.payoff(0, &ProfileView::new(&base, &[(0, action)]));
            (candidates[action], per_round * rounds as f64)
        })
        .collect();
    let best = responses
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one candidate")
        .0;
    let rows: Vec<Vec<String>> = responses
        .iter()
        .map(|(t, u)| vec![t.to_string(), fmt_f64(*u)])
        .collect();
    emit_table(
        "e11",
        "E11a  scrip system: agent 0's utility when everyone else uses threshold 8 (mean of 3 trials)",
        &["agent 0 threshold", "utility over 10k rounds"],
        &rows,
    );
    println!("best response among candidates: threshold {best}");

    // hoarders and altruists replace rational agents in a population of 40
    let rounds = 30_000;
    let mixes: Vec<(usize, usize)> = [0, 5, 15]
        .into_iter()
        .flat_map(|hoarders| [0, 5, 15].map(|altruists| (hoarders, altruists)))
        .collect();
    let grid: Vec<EconomyConfig> = mixes
        .iter()
        .map(|&(hoarders, altruists)| EconomyConfig {
            hoarders,
            altruists,
            ..EconomyConfig::homogeneous(40 - hoarders - altruists, 6, rounds)
        })
        .collect();
    let rows: Vec<Vec<String>> = SimRunner::new(16, 9)
        .run(&EconomyScenario, &grid)
        .into_iter()
        .map(|r| {
            let (hoarders, altruists) = mixes[r.cell];
            vec![
                hoarders.to_string(),
                altruists.to_string(),
                fmt_stat(&r.outcome.efficiency),
                fmt_total(&r.outcome.rational_utility, rounds),
            ]
        })
        .collect();
    emit_table(
        "e11",
        "E11b  scrip system efficiency vs hoarders and altruists (40 agents, 16 replicas/cell)",
        &[
            "hoarders",
            "altruists",
            "efficiency",
            "avg rational utility over 30k rounds",
        ],
        &rows,
    );
}

/// E12 — the Axelrod round-robin tournament.
fn e12_tournament() {
    let field = Competitor::standard_field(2024);
    let standings = run_tournament(&field, TournamentConfig::default());
    let rows: Vec<Vec<String>> = standings
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                (i + 1).to_string(),
                s.name.clone(),
                fmt_f64(s.total_score),
                fmt_f64(s.average_score),
                s.machine_size.to_string(),
            ]
        })
        .collect();
    emit_table(
        "e12",
        "E12  FRPD round-robin tournament (200 rounds, Axelrod payoffs)",
        &["rank", "strategy", "total", "avg/match", "states"],
        &rows,
    );
    println!("Paper (after Axelrod): tit-for-tat 'does exceedingly well' despite needing only two states.");
}

// ---------------------------------------------------------------------------
// Scenario-engine grid sweeps (e13..e16): replicated Monte Carlo through
// bne-sim instead of single-seed runs. `SimRunner::run` fans replicas
// across threads under the fan-out rule; results are bit-identical to a
// one-thread run (`BNE_THREADS=1`).
// ---------------------------------------------------------------------------

/// Formats a streaming statistic as `mean ± std`.
fn fmt_stat(s: &bne_core::sim::StreamingStats) -> String {
    fmt_pm(s.mean(), s.std_dev())
}

/// Formats `mean ± std`.
fn fmt_pm(mean: f64, std: f64) -> String {
    format!("{} ± {}", fmt_f64(mean), fmt_f64(std))
}

/// Formats a per-round statistic as its total over `rounds` rounds,
/// `mean ± std`.
fn fmt_total(s: &bne_core::sim::StreamingStats, rounds: u64) -> String {
    let rounds = rounds as f64;
    fmt_pm(s.mean() * rounds, s.std_dev() * rounds)
}

/// Panics, naming the cell, if any of its replicas exhausted the event
/// budget: a cut-off run must not be averaged into a table.
fn assert_untruncated(experiment: &str, cell: usize, truncated: &bne_core::sim::StreamingStats) {
    assert_eq!(
        truncated.mean(),
        0.0,
        "{experiment} cell {cell}: a replica exhausted its event budget"
    );
}

/// E13 — scrip economies through the engine: money-supply curve and
/// population scaling, replica-averaged.
fn e13_scrip_grid() {
    let rounds = 10_000;
    let runner = SimRunner::new(32, 1_300);
    let supplies = [1, 2, 4, 8, 16, 32];
    let grid = economy_grid(100, 8, &supplies, &[0.0], &[0.0], rounds);
    let rows: Vec<Vec<String>> = runner
        .run(&EconomyScenario, &grid)
        .into_iter()
        .map(|r| {
            vec![
                supplies[r.cell].to_string(),
                fmt_stat(&r.outcome.efficiency),
                format!(
                    "[{}, {}]",
                    fmt_f64(r.outcome.efficiency.min()),
                    fmt_f64(r.outcome.efficiency.max())
                ),
                fmt_total(&r.outcome.rational_utility, rounds),
            ]
        })
        .collect();
    emit_table(
        "e13",
        "E13a  scrip money-supply curve (100 agents, threshold 8, 32 replicas/cell)",
        &[
            "scrip/agent",
            "efficiency",
            "efficiency range",
            "rational utility over 10k rounds",
        ],
        &rows,
    );
    println!("Kash–Friedman–Halpern: efficiency peaks at a moderate money supply and crashes when everyone saturates their threshold.");

    let runner = SimRunner::new(16, 1_301);
    let ns = [100usize, 250, 500, 1_000];
    let grid: Vec<EconomyConfig> = ns
        .iter()
        .map(|&n| EconomyConfig::homogeneous(n, 8, rounds))
        .collect();
    let rows: Vec<Vec<String>> = runner
        .run(&EconomyScenario, &grid)
        .into_iter()
        .map(|r| {
            // a replica leaves (1 − efficiency) · rounds requests unserved
            let efficiency = &r.outcome.efficiency;
            let unserved = fmt_pm(
                (1.0 - efficiency.mean()) * rounds as f64,
                efficiency.std_dev() * rounds as f64,
            );
            vec![ns[r.cell].to_string(), fmt_stat(efficiency), unserved]
        })
        .collect();
    emit_table(
        "e13",
        "E13b  scrip population scaling (threshold 8, 10k rounds, 16 replicas/cell)",
        &["agents", "efficiency", "unserved requests"],
        &rows,
    );
}

/// E14 — Byzantine agreement rates over adversary strategies × fault
/// ratios, replica-averaged through the engine.
fn e14_byzantine_grid() {
    let runner = SimRunner::new(48, 1_400);
    let behaviors = [
        ("equivocate", FaultyBehavior::Equivocate { seed: 14 }),
        ("random", FaultyBehavior::RandomNoise { seed: 14 }),
        ("garbage", FaultyBehavior::Garbage { seed: 14 }),
        ("silent", FaultyBehavior::Silent),
        ("fixed(0)", FaultyBehavior::FixedValue(0)),
    ];
    let cells = [(5usize, 1usize), (6, 1), (9, 2), (13, 3)];
    let grid = phase_king_grid(
        &cells,
        &behaviors.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>(),
        true,
    );
    let rows: Vec<Vec<String>> = runner
        .run(&PhaseKingScenario, &grid)
        .into_iter()
        .map(|r| {
            let (behavior, _) = &behaviors[r.cell / cells.len()];
            let (n, t) = cells[r.cell % cells.len()];
            vec![
                behavior.to_string(),
                format!("n={n}, t={t}"),
                fmt_bool(n > 4 * t),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.validity.mean()),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e14",
        "E14a  phase-king agreement rate over adversary × f/n (48 replicas/cell, unanimous start)",
        &[
            "adversary",
            "(n, t)",
            "n > 4t?",
            "P[agreement]",
            "P[validity]",
            "E[messages]",
        ],
        &rows,
    );

    let runner = SimRunner::new(32, 1_401);
    let om_cells = [(3usize, 1usize), (4, 1), (6, 2), (7, 2)];
    let strategies = [TraitorStrategy::SplitByParity, TraitorStrategy::Flip];
    let grid = om_grid(&om_cells, &strategies, false);
    let rows: Vec<Vec<String>> = runner
        .run(&OmScenario, &grid)
        .into_iter()
        .map(|r| {
            let strategy = ["split-parity", "flip"][r.cell / om_cells.len()];
            let (n, t) = om_cells[r.cell % om_cells.len()];
            vec![
                strategy.to_string(),
                format!("n={n}, t={t}"),
                fmt_bool(n > 3 * t),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.validity.mean()),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e14",
        "E14b  OM(t) correctness rate at the n > 3t boundary (32 replicas/cell, random orders)",
        &[
            "lie strategy",
            "(n, t)",
            "n > 3t?",
            "P[agreement]",
            "P[validity]",
            "E[messages]",
        ],
        &rows,
    );
    println!("Below the bound the failure is probabilistic in the order drawn — a single run cannot show a rate.");
}

/// E15 — the free-riding cost sweep, replica-averaged through the engine
/// (e5 runs the same sweep on a single seed).
fn e15_p2p_grid() {
    let runner = SimRunner::new(8, 1_500);
    let costs = [0.3, 0.6, 1.0, 1.5, 2.5];
    let base = P2pConfig {
        peers: 1_000,
        queries: 8_000,
        ..P2pConfig::default()
    };
    let grid = sharing_cost_grid(&base, &costs);
    let rows: Vec<Vec<String>> = runner
        .run(&P2pScenario, &grid)
        .into_iter()
        .map(|r| {
            vec![
                fmt_f64(costs[r.cell]),
                fmt_stat(&r.outcome.free_riders),
                fmt_stat(&r.outcome.top1_share),
                fmt_stat(&r.outcome.top10_share),
                fmt_stat(&r.outcome.query_success),
            ]
        })
        .collect();
    emit_table(
        "e15",
        "E15  file-sharing cost sweep (1000 peers, 8 replicas/cell)",
        &[
            "sharing cost",
            "free riders",
            "top 1% share",
            "top 10% share",
            "query success",
        ],
        &rows,
    );
    println!("The top-1% concentration swings wildly between seeds (Pareto tail) — the ± column is the point of replicating.");
}

/// E16 — tournament replica sweep: how robust is Axelrod's finding to the
/// randomizer's seed?
fn e16_tournament_grid() {
    let runner = SimRunner::new(32, 1_600);
    let rounds = [100usize, 200, 400];
    let grid = rounds_grid(&rounds, true);
    let rows: Vec<Vec<String>> = runner
        .run(&TournamentScenario, &grid)
        .into_iter()
        .map(|r| {
            vec![
                rounds[r.cell].to_string(),
                fmt_stat(&r.outcome.tft_rank),
                fmt_stat(&r.outcome.alld_rank),
                fmt_stat(&r.outcome.tft_avg_score),
                fmt_stat(&r.outcome.winner_score),
            ]
        })
        .collect();
    emit_table(
        "e16",
        "E16  FRPD tournament over 32 seeded fields per match length",
        &[
            "rounds/match",
            "TFT rank",
            "AllD rank",
            "TFT avg/match",
            "winner total",
        ],
        &rows,
    );
    println!("Axelrod's headline survives averaging over randomizer seeds: TFT's mean rank stays ahead of AllD's.");
}

// ---------------------------------------------------------------------------
// Async network-runtime sweeps (e17..e18): the Byzantine protocols on the
// bne-net discrete-event runtime, where message loss and adversarial
// scheduling — not just lies — attack correctness.
// ---------------------------------------------------------------------------

/// E17 — async OM(t): agreement/validity rate vs iid message loss, below
/// and above the `n > 3t` bound, with a stateless (parity-splitting) arm
/// and a **colluding** arm (shared-ledger coordinated lies). Reproducible
/// from the fixed base seed 1_700 (replica seeds derive bijectively from
/// it).
fn e17_async_loss_grid() {
    let runner = SimRunner::new(48, 1_700);
    let cells = [(3usize, 1usize), (4, 1), (6, 2), (7, 2)];
    let drops = [0.0, 0.05, 0.15, 0.3, 0.5];
    let mut grid = Vec::new();
    for colluding in [false, true] {
        grid.extend(async_om_loss_grid(
            &cells,
            &drops,
            bne_core::byzantine::om::TraitorStrategy::SplitByParity,
            false,
            colluding,
        ));
    }
    let per_arm = cells.len() * drops.len();
    let rows: Vec<Vec<String>> = runner
        .run(&AsyncOmScenario, &grid)
        .into_iter()
        .map(|r| {
            let arm = if r.cell / per_arm == 0 {
                "split-parity"
            } else {
                "colluding"
            };
            let within_arm = r.cell % per_arm;
            let drop = drops[within_arm / cells.len()];
            let (n, t) = cells[within_arm % cells.len()];
            vec![
                arm.to_string(),
                fmt_f64(drop),
                format!("n={n}, t={t}"),
                fmt_bool(n > 3 * t),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.validity.mean()),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e17",
        "E17  async OM(t): correctness rate vs message loss (48 replicas/cell, EIG processes)",
        &[
            "adversary",
            "drop prob",
            "(n, t)",
            "n > 3t?",
            "P[agreement]",
            "P[validity]",
            "E[messages]",
        ],
        &rows,
    );
    println!("Within the bound, OM's guarantee holds only on reliable links: loss acts like extra traitors, and validity decays toward the sub-bound regime as the drop probability rises. The colluding arm shares one lie ledger across the coalition (every traitor tells each honest lieutenant one consistent story, camps balanced over the honest set). Collusion is a genuine coalition property: with two traitors on the sub-bound (6, 2) cell it cuts loss-free agreement from 0.646 to 0.396 — the parity split often lands the honest lieutenants lopsidedly in one camp, the balanced ledger never does — while with a single traitor ((3, 1)) there is nobody to coordinate with and the ledger is just a coin.");
}

/// E18 — async phase king: rushing adversary vs seeded-random scheduler vs
/// FIFO, with mixed starts so agreement depends on the kings' tiebreaks
/// arriving on time.
fn e18_async_scheduler_grid() {
    let runner = SimRunner::new(48, 1_800);
    let cells = [(6usize, 1usize), (9, 2)];
    let schedulers = [
        SchedulerSpec::Fifo,
        SchedulerSpec::Random { jitter: 2 },
        SchedulerSpec::Rush { honest_delay: 2 },
    ];
    let latencies = [
        LatencyModel::Constant(0),
        LatencyModel::HeavyTail {
            base: 1,
            tail_prob: 0.3,
            max_doublings: 3,
        },
    ];
    let grid = async_phase_king_scheduler_grid(
        &cells,
        &bne_core::byzantine::adversary::FaultyBehavior::RandomNoise { seed: 18 },
        &schedulers,
        &latencies,
        1,
        false,
    );
    let rows: Vec<Vec<String>> = runner
        .run(&AsyncPhaseKingScenario, &grid)
        .into_iter()
        .map(|r| {
            let scheduler = &schedulers[r.cell / (latencies.len() * cells.len())];
            let latency = &latencies[(r.cell / cells.len()) % latencies.len()];
            let (n, t) = cells[r.cell % cells.len()];
            vec![
                scheduler.label(),
                latency.label(),
                format!("n={n}, t={t}"),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.decided.mean()),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e18",
        "E18  async phase king: scheduler policies × latency (48 replicas/cell, mixed starts)",
        &[
            "scheduler",
            "latency",
            "(n, t)",
            "P[agreement]",
            "P[decided]",
            "E[messages]",
        ],
        &rows,
    );
    println!("FIFO at zero latency is the lockstep baseline (agreement 1.0); the rushing adversary needs no lies beyond noise — delaying honest traffic by two ticks already splits mixed-start executions.");
}

/// E19 — the CAP-flavored partition grid: Dolev–Strong signed broadcast
/// under a half/half network split swept over outage duration × heal
/// time. Closes the tested-but-unswept partition gap from the async
/// runtime PR; reproducible from the fixed base seed 1_900.
fn e19_partition_grid() {
    let runner = SimRunner::new(48, 1_900);
    let cells = [(6usize, 2usize)]; // t + 2 = 4 protocol rounds, ticks 0..=3
    let durations = [0u64, 1, 2, 4];
    let heals = [1u64, 2, 4];
    let grid = async_broadcast_partition_grid(&cells, &durations, &heals, 1);
    let rows: Vec<Vec<String>> = runner
        .run(&AsyncBroadcastScenario, &grid)
        .into_iter()
        .map(|r| {
            // labels come from the cell's actual partition window (the
            // grid skips truncated duration > heal_at combinations)
            let cell = &grid[r.cell];
            let (duration, heal, window) = match &cell.net.faults.link.partition {
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
                Some(p) => (
                    p.duration().to_string(),
                    p.heal_at.to_string(),
                    format!("[{}, {})", p.cut_at, p.heal_at),
                ),
            };
            vec![
                duration,
                heal,
                window,
                format!("n={}, t={}", cell.n, cell.t),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.validity.mean()),
                fmt_f64(r.outcome.decided.mean()),
            ]
        })
        .collect();
    emit_table(
        "e19",
        "E19  async Dolev-Strong: half/half partition, outage duration x heal time (48 replicas/cell)",
        &[
            "duration",
            "heal at",
            "cut window",
            "(n, t)",
            "P[agreement]",
            "P[validity]",
            "P[decided]",
        ],
        &rows,
    );
    println!("The sender's value floods in rounds 0-1 (broadcast, then every process relays exactly once). A partition is fatal for the cut-off half iff it covers that whole flood window [0, 2) — healing later never helps, because nothing is ever retransmitted; any window leaving one flood tick open, or opening after it, costs nothing. Availability under partitions needs retransmission, not just healing — the CAP trade measured in rounds.");
}

/// E20 — Ben-Or randomized consensus, event-driven (no round adapter):
/// expected rounds-to-decide and decision time under Fifo vs
/// RandomInterleave vs AdversarialRush × fault count, mixed starts, with
/// `StreamingStats` error bars. The first experiment whose measured
/// quantity is a genuine random variable of the schedule. Reproducible
/// from the fixed base seed 2_000.
fn e20_ben_or_grid() {
    let runner = SimRunner::new(48, 2_000);
    let cells = [(11usize, 2usize)];
    let fault_counts = [0usize, 1, 2];
    let schedulers = [
        SchedulerSpec::Fifo,
        SchedulerSpec::Random { jitter: 2 },
        SchedulerSpec::Rush { honest_delay: 2 },
    ];
    let grid = ben_or_scheduler_grid(
        &cells,
        &fault_counts,
        &schedulers,
        LatencyModel::Constant(1),
        400,
    );
    let rows: Vec<Vec<String>> = runner
        .run(&BenOrScenario, &grid)
        .into_iter()
        .map(|r| {
            assert_untruncated("e20", r.cell, &r.outcome.truncated);
            let scheduler = &schedulers[r.cell / (fault_counts.len() * cells.len())];
            let faults = fault_counts[(r.cell / cells.len()) % fault_counts.len()];
            let (n, t) = cells[r.cell % cells.len()];
            vec![
                scheduler.label(),
                format!("n={n}, t={t}"),
                faults.to_string(),
                fmt_f64(r.outcome.decided.mean()),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_stat(&r.outcome.rounds),
                fmt_stat(&r.outcome.decide_time),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e20",
        "E20  event-driven Ben-Or: expected rounds/time to decide, scheduler x faults (48 replicas/cell, mixed starts, noise adversaries)",
        &[
            "scheduler",
            "(n, t)",
            "faults",
            "P[decided]",
            "P[agreement]",
            "E[rounds]",
            "E[decide time]",
            "E[messages]",
        ],
        &rows,
    );
    println!("Ben-Or's running time is a random variable (note the error bars: the rounds-to-decide distribution has std on the order of its mean). The rushing adversary — Byzantine noise delivered instantly, honest votes delayed two ticks — is strictly worse in expected decision time than FIFO at every fault count (roughly 2x here): every quorum waits on delayed honest traffic, and its round count creeps up with the fault count as the rushed noise claims more of each quorum's early slots. Zero-latency FIFO burns rounds only on coin flips, so its virtual time stays low no matter how many rounds the coin costs.");
}

/// E21 — the e19 partition grid re-run on Bracha reliable broadcast with
/// and without the retry adapter: retransmission turns the "fatal
/// window" into a latency cliff (correctness 1.0, cost measured in
/// virtual ticks). Reproducible from the fixed base seed 2_100.
fn e21_bracha_retry_partition_grid() {
    let runner = SimRunner::new(48, 2_100);
    let cells = [(6usize, 1usize)];
    // Bracha at one tick per hop: init lands at tick 1, echoes at 2,
    // readies at 3 — windows over [0, 6) can cover none, part or all of
    // the pipeline, mirroring e19's duration × heal-time axes.
    let durations = [0u64, 2, 4, 6];
    let heals = [2u64, 4, 6];
    let retry = bne_core::net::RetryPolicy::exponential(2);
    let grid = bracha_partition_grid(&cells, &durations, &heals, &[None, Some(retry)]);
    let rows: Vec<Vec<String>> = runner
        .run(&AsyncBrachaScenario, &grid)
        .into_iter()
        .map(|r| {
            assert_untruncated("e21", r.cell, &r.outcome.truncated);
            let cell = &grid[r.cell];
            let arm = match &cell.retry {
                None => "bare".to_string(),
                Some(p) => p.label(),
            };
            let window = match &cell.net.faults.link.partition {
                None => "-".to_string(),
                Some(p) => format!("[{}, {})", p.cut_at, p.heal_at),
            };
            vec![
                arm,
                window,
                format!("n={}, t={}", cell.n, cell.t),
                fmt_f64(r.outcome.delivered.mean()),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.totality.mean()),
                fmt_stat(&r.outcome.deliver_time),
                fmt_f64(r.outcome.messages.mean()),
            ]
        })
        .collect();
    emit_table(
        "e21",
        "E21  Bracha +/- retransmission under the e19 partition windows (48 replicas/cell, half/half cut)",
        &[
            "arm",
            "cut window",
            "(n, t)",
            "P[delivered]",
            "P[agreement]",
            "P[totality]",
            "E[deliver time]",
            "E[messages]",
        ],
        &rows,
    );
    println!("Bare Bracha reproduces e19's cliff, and harder: the echo quorum (> (n + t) / 2) spans both halves of the cut, so every window opening at tick 0 — killing the init fan-out and the cross-cut echoes — leaves NOBODY able to deliver, no matter when it heals; once the echoes have crossed, each half's own 2t + 1 readies suffice and the cut costs nothing. With the retry adapter every window delivers 1.0 — the fatal region becomes a latency cliff whose height is roughly the heal time plus one retransmission backoff, and the message column shows what the acks and resends cost. Healing plus retransmission is what buys availability; healing alone buys nothing.");
}

/// E22 — the crash-recovery protocol atlas: single-decree Paxos vs
/// leader-driven HSUC consensus, swept over crash regime (none /
/// crash-stop / crash-recovery, always hitting process 0: the initial
/// proposer and round-1 leader) × scheduler × n at one-tick latency, so
/// decision times are hop counts. The safety columns are gates (they
/// must read 1.0 everywhere); the cost columns are what the atlas
/// actually charts. Reproducible from the fixed base seed 2_200.
fn e22_quorum_consensus_atlas() {
    let runner = SimRunner::new(48, 2_200);
    let sizes = [3usize, 5];
    let regimes = [
        CrashRegime::None,
        CrashRegime::CrashStop { after_events: 3 },
        CrashRegime::CrashRecovery {
            after_events: 3,
            recover_at: 300,
        },
    ];
    let schedulers = [SchedulerSpec::Fifo, SchedulerSpec::Random { jitter: 2 }];
    let grid = quorum_consensus_grid(&sizes, &regimes, &schedulers, 40, 12);
    let mut rows = Vec::new();
    for (protocol, results) in [
        ("paxos", runner.run(&PaxosScenario, &grid)),
        ("hsuc", runner.run(&HsucScenario, &grid)),
    ] {
        for r in results {
            assert_untruncated(&format!("e22 {protocol}"), r.cell, &r.outcome.truncated);
            let cell = &grid[r.cell];
            rows.push(vec![
                protocol.to_string(),
                cell.crash.label(),
                cell.net.scheduler.label(),
                format!("n={}", cell.n),
                fmt_f64(r.outcome.decided.mean()),
                fmt_f64(r.outcome.agreement.mean()),
                fmt_f64(r.outcome.validity.mean()),
                fmt_stat(&r.outcome.rounds),
                fmt_stat(&r.outcome.decide_time),
                fmt_f64(r.outcome.messages.mean()),
            ]);
        }
    }
    emit_table(
        "e22",
        "E22  crash-recovery consensus atlas: Paxos vs HSUC, crash regime x scheduler x n (48 replicas/cell)",
        &[
            "protocol",
            "crash regime",
            "scheduler",
            "n",
            "P[decided]",
            "P[agreement]",
            "P[validity]",
            "E[ballot/round]",
            "E[decide time]",
            "E[messages]",
        ],
        &rows,
    );
    println!("Safety holds at 1.0 across the whole grid — quorum intersection (Paxos) and round locks (HSUC) don't care which quorum the scheduler or the crash plan picks; the crash regimes only move the cost columns. Losing the initial coordinator costs one failover, detected by the staggered timeout (40 + id ticks): HSUC's round column steps from 1 to 2-3 and Paxos's ballot jumps by a whole ownership cycle (ballots are partitioned mod n, so 'ballot 5' at n=5 is the first failover, not the fifth), with decision time landing at ~44-53 either way. The one free crash is Paxos at n=3, k=3: by its third handled event the proposer has already driven phase 2, so the decision lands at tick 4 as if nothing happened — k counts *handled* events, and a proposer mostly sends. HSUC's fixed Estimate->Propose->Ack pipeline stays cheaper in messages than Paxos's two quorum phases at every n, and under crash-stop that gap widens: a failed Paxos ballot wastes a full round-trip per extra proposer, while HSUC just rotates. The recovery regime's decision time (~344 = recovery at 300 + one timeout) is the crashed process re-learning what the others decided long ago — a fresh ballot for Paxos, a Decide rebroadcast for HSUC — and P[decided] stays 1.0 *including* that process: recovered means obligated, the whole point of durable state.");
}

/// E23 — Paxos failover latency anatomy: the same crash-regime ×
/// scheduler × n grid as e22, but instead of one scalar decide time,
/// every delivered message's queue latency (deliver tick − send tick,
/// straight off the observability layer's Lamport-annotated deliveries)
/// is filed under its protocol phase — prepare (P1a/P1b), accept
/// (P2a/P2b), learn (Decided) — and every fired timer's wait
/// (fire tick − arm tick) is accumulated separately. Because the phase
/// tap rides the observer hooks (which the net_obs property tests prove
/// are invisible to the execution), these are the *identical* runs e22
/// measured, re-described: the table decomposes the ~44-tick failover
/// and ~344-tick recovery decide times into "time messages spent queued"
/// vs "time processes spent waiting for timeouts to notice silence".
/// Reproducible from the fixed base seed 2_200 (the e22 seed).
fn e23_paxos_phase_latency() {
    use bne_core::byzantine::paxos::PaxosMsg;
    use bne_core::net::{
        AsyncProcess, DurableState, EventNet, HistogramSpec, NetCtx, Observer, PaxosProcess,
        QuorumConsensusCell,
    };
    use bne_core::sim::{Histogram, Merge, Scenario, StreamingStats};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    const PREPARE: usize = 0;
    const ACCEPT: usize = 1;
    const LEARN: usize = 2;

    /// Per-phase latency tallies: streaming moments for the table plus
    /// fixed-shape histograms (so cells of a regime can be merged for
    /// the distribution print-out).
    #[derive(Clone)]
    struct PhaseLatency {
        decided: StreamingStats,
        truncated: StreamingStats,
        decide_time: StreamingStats,
        phases: [StreamingStats; 3],
        timer_wait: StreamingStats,
        phase_hists: [Histogram; 3],
        wait_hist: Histogram,
    }

    impl Merge for PhaseLatency {
        fn merge(&mut self, other: &Self) {
            self.decided.merge(&other.decided);
            self.truncated.merge(&other.truncated);
            self.decide_time.merge(&other.decide_time);
            for (a, b) in self.phases.iter_mut().zip(&other.phases) {
                a.merge(b);
            }
            self.timer_wait.merge(&other.timer_wait);
            for (a, b) in self.phase_hists.iter_mut().zip(&other.phase_hists) {
                a.merge(b);
            }
            self.wait_hist.merge(&other.wait_hist);
        }
    }

    /// Observer half of the tap: `on_deliver` fires immediately before
    /// the receiving process's `on_message`, so the shared cell always
    /// holds the queue latency of exactly the message being handled;
    /// timer waits are final the moment the timer fires, so they are
    /// filed here directly.
    struct DeliveryTap {
        last_latency: Rc<Cell<u64>>,
        waits: Rc<RefCell<(StreamingStats, Histogram)>>,
    }

    impl Observer for DeliveryTap {
        fn on_deliver(&mut self, time: u64, _src: u64, _dst: u64, sent_at: u64, _clock: u64) {
            self.last_latency.set(time - sent_at);
        }
        fn on_timer(&mut self, time: u64, _proc: u64, _timer: u64, armed_at: u64, _clock: u64) {
            let mut w = self.waits.borrow_mut();
            w.0.push((time - armed_at) as f64);
            w.1.record((time - armed_at) as f64);
        }
    }

    /// Process half of the tap: a transparent shell around
    /// [`PaxosProcess`] that reads the observer's latency cell and files
    /// it under the phase of the message in hand. Every other hook —
    /// timers, crash, durable save/restore, decision — forwards
    /// unchanged, so the wrapped protocol runs the e22 executions
    /// verbatim.
    struct PhaseTagged {
        inner: PaxosProcess,
        last_latency: Rc<Cell<u64>>,
        tally: Rc<RefCell<[(StreamingStats, Histogram); 3]>>,
    }

    impl AsyncProcess for PhaseTagged {
        type Msg = PaxosMsg;
        fn on_start(&mut self, ctx: &mut NetCtx<PaxosMsg>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, src: usize, msg: PaxosMsg, ctx: &mut NetCtx<PaxosMsg>) {
            let phase = match &msg {
                PaxosMsg::P1a { .. } | PaxosMsg::P1b { .. } => PREPARE,
                PaxosMsg::P2a { .. } | PaxosMsg::P2b { .. } => ACCEPT,
                PaxosMsg::Decided { .. } => LEARN,
            };
            let lat = self.last_latency.get() as f64;
            let mut tally = self.tally.borrow_mut();
            tally[phase].0.push(lat);
            tally[phase].1.record(lat);
            drop(tally);
            self.inner.on_message(src, msg, ctx);
        }
        fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<PaxosMsg>) {
            self.inner.on_timer(timer, ctx);
        }
        fn on_crash(&mut self) {
            self.inner.on_crash();
        }
        fn on_recover(&mut self, ctx: &mut NetCtx<PaxosMsg>) {
            self.inner.on_recover(ctx);
        }
        fn save_durable(&self) -> Option<DurableState> {
            self.inner.save_durable()
        }
        fn restore_durable(&mut self, state: &DurableState) {
            self.inner.restore_durable(state);
        }
        fn decision(&self) -> Option<u64> {
            self.inner.decision()
        }
    }

    struct PhaseLatencyScenario;

    impl Scenario for PhaseLatencyScenario {
        type Config = QuorumConsensusCell;
        type Outcome = PhaseLatency;

        fn run(&self, cell: &QuorumConsensusCell, seed: u64) -> PhaseLatency {
            // The cell's own inputs, network and obligated set, as
            // `PaxosScenario::run` uses them: each replica is the e22
            // execution verbatim.
            let spec = HistogramSpec::ticks(64);
            let last_latency = Rc::new(Cell::new(0u64));
            let tally = Rc::new(RefCell::new([
                (StreamingStats::new(), spec.build()),
                (StreamingStats::new(), spec.build()),
                (StreamingStats::new(), spec.build()),
            ]));
            let waits = Rc::new(RefCell::new((StreamingStats::new(), spec.build())));
            let procs: Vec<Box<dyn AsyncProcess<Msg = PaxosMsg>>> = cell
                .inputs(seed)
                .into_iter()
                .map(|v| {
                    Box::new(PhaseTagged {
                        inner: PaxosProcess::new(v, cell.timeout_ticks, cell.max_timeouts),
                        last_latency: Rc::clone(&last_latency),
                        tally: Rc::clone(&tally),
                    }) as _
                })
                .collect();
            let tap = DeliveryTap {
                last_latency: Rc::clone(&last_latency),
                waits: Rc::clone(&waits),
            };
            let mut net = EventNet::with_observer(procs, cell.net_config(seed), Box::new(tap));
            let drained = net.run(20_000_000);
            let decisions = net.decisions();
            let obligated = cell.obligated();
            let decided = obligated.iter().all(|&i| decisions[i].is_some());
            let times = obligated.iter().filter_map(|&i| net.decision_times()[i]);
            let decide_time = if decided {
                StreamingStats::of(times.max().unwrap_or(0) as f64)
            } else {
                StreamingStats::new()
            };
            let [p, a, l] = tally.borrow().clone();
            let waits = waits.borrow().clone();
            PhaseLatency {
                decided: StreamingStats::of(f64::from(u8::from(decided))),
                truncated: StreamingStats::of(f64::from(u8::from(!drained))),
                decide_time,
                phases: [p.0, a.0, l.0],
                timer_wait: waits.0,
                phase_hists: [p.1, a.1, l.1],
                wait_hist: waits.1,
            }
        }
    }

    let runner = SimRunner::new(48, 2_200);
    let sizes = [3usize, 5];
    let regimes = [
        CrashRegime::None,
        CrashRegime::CrashStop { after_events: 3 },
        CrashRegime::CrashRecovery {
            after_events: 3,
            recover_at: 300,
        },
    ];
    let schedulers = [SchedulerSpec::Fifo, SchedulerSpec::Random { jitter: 2 }];
    let grid = quorum_consensus_grid(&sizes, &regimes, &schedulers, 40, 12);
    let results = runner.run(&PhaseLatencyScenario, &grid);
    let mut rows = Vec::new();
    let mut failover_waits: Option<Histogram> = None;
    for r in &results {
        let cell = &grid[r.cell];
        assert_untruncated("e23", r.cell, &r.outcome.truncated);
        assert_eq!(
            r.outcome.decided.mean(),
            1.0,
            "e23 rides gate-verified e22 executions; every obligated process must decide"
        );
        if !matches!(cell.crash, CrashRegime::None) {
            match &mut failover_waits {
                Some(h) => h.merge(&r.outcome.wait_hist),
                None => failover_waits = Some(r.outcome.wait_hist.clone()),
            }
        }
        let per_run = |s: &StreamingStats| s.count() as f64 / 48.0;
        rows.push(vec![
            cell.crash.label(),
            cell.net.scheduler.label(),
            format!("n={}", cell.n),
            fmt_stat(&r.outcome.decide_time),
            fmt_f64(r.outcome.phases[PREPARE].mean()),
            fmt_f64(per_run(&r.outcome.phases[PREPARE])),
            fmt_f64(r.outcome.phases[ACCEPT].mean()),
            fmt_f64(per_run(&r.outcome.phases[ACCEPT])),
            fmt_f64(r.outcome.phases[LEARN].mean()),
            fmt_f64(per_run(&r.outcome.phases[LEARN])),
            fmt_f64(r.outcome.timer_wait.mean()),
            fmt_f64(per_run(&r.outcome.timer_wait)),
        ]);
    }
    emit_table(
        "e23",
        "E23  paxos failover latency anatomy: queue wait vs timer wait by phase (48 replicas/cell, the e22 executions)",
        &[
            "crash regime",
            "scheduler",
            "n",
            "E[decide time]",
            "E[prep lat]",
            "prep/run",
            "E[acc lat]",
            "acc/run",
            "E[learn lat]",
            "learn/run",
            "E[timer wait]",
            "timers/run",
        ],
        &rows,
    );
    if let Some(h) = &failover_waits {
        println!(
            "Timer-wait distribution over the crashed regimes (all cells merged, {} fired timers):",
            h.total()
        );
        let total = h.total().max(1);
        for i in 0..h.buckets().len() {
            if h.buckets()[i] > 0 {
                let (lo, hi) = h.bucket_bounds(i);
                let bar = (h.buckets()[i] * 60 / total) as usize;
                println!(
                    "  [{lo:>3.0},{hi:>3.0}) {:<60} {}",
                    "#".repeat(bar.max(1)),
                    h.buckets()[i]
                );
            }
        }
        if h.overflow() > 0 {
            println!("  [ 64,  +) {}", h.overflow());
        }
    }
    println!("The answer is timer wait, and it isn't close: per-phase message latency never leaves the band the link model assigns — exactly 1.000 ticks under FIFO, ~2.0 under the jittered random scheduler, and that scheduler gap is ALL the network contributes — while every fired timer waited its full 40-44 ticks (40 + process-id stagger; the distribution above is five one-tick spikes, nothing else). Under the clean regime the decision lands at tick 4 of pure queue time, long before the first timeout can fire; the n timers that still show up per run are the failover timers every process armed at start, draining harmlessly *after* the decision (armed timers are not cancelled, they fire and find nothing to do). Under crash-stop at n=5 the decide time is ~48-53, of which ~42 is one staggered timeout running to completion and only ~6 ticks are messages actually in flight — except the famous free crash at n=3, k=3, where the proposer had already driven phase 2 by its third handled event and the decision still lands at tick 4. Under crash-recovery the ~344-tick decide time decomposes as the 300-tick crash window plus one ~40-tick timeout plus single-digit queue ticks, and the learn column (the Decided rebroadcast the returning process re-learns from) still costs the same 1-2 ticks it always does. Failover time is overwhelmingly *detection* time: shrink the timeout, not the network. The phase columns also expose structure e22's scalars could not: prepare traffic explodes exactly where ballots escalate (prep/run ~30 clean at n=5 vs ~107 under crash-stop and ~137 under recovery — every fresh ballot re-runs phase 1 across all survivors), while accept and learn traffic stay near their clean volumes: the cost of losing a coordinator is paid in retried prepares and waited-out timers, not in the decision round itself.");
}

/// E24 — ε-equilibrium audit of the million-agent scrip economy: the
/// sampled deviation oracle checks "the common threshold is a sampled
/// ε-equilibrium" across money supply × churn rate × hoarder fraction.
/// Every audit column is a *sampled* claim with explicit (ε, δ)
/// confidence bounds — the miss-mass column is the fraction of the
/// deviation space that could still be ε-profitable at confidence 1−δ,
/// and the Hoeffding column is the half-width of the mean-gain estimate.
/// `BNE_BENCH_SMOKE` bounds horizons and sample counts, not the 10^6
/// population.
fn e24_million_agent_audit() {
    use bne_core::games::sampled::{AuditSpec, SampledOracle};
    use bne_core::scrip::{economy_grid, EconomyConfig, EconomyScenario, ThresholdAuditBackend};

    let smoke = bne_bench::bench_smoke_mode();
    let agents = 1_000_000usize;
    let threshold = 10u32;
    let (rounds, audit_rounds, samples, replicas) = if smoke {
        (120_000u64, 60_000u64, 6usize, 1usize)
    } else {
        (1_000_000, 300_000, 16, 3)
    };
    let supplies: &[u32] = if smoke { &[2, 6] } else { &[2, 6, 12] };
    let churns = [0.0f64, 0.001];
    let hoarder_fracs = [0.0f64, 0.05];
    let grid = economy_grid(agents, threshold, supplies, &churns, &hoarder_fracs, rounds);

    let runner = SimRunner::new(replicas, 2_400);
    let sweep = runner.run(&EconomyScenario, &grid);
    // At n = 10^6 an agent is the requester ~1/n of the rounds, so the
    // natural per-agent-per-round utility scale is micro-utils (µu);
    // ε = 0.5 µu/round is roughly half the whole baseline payoff.
    let epsilon = 5e-7;
    let delta = 0.05;
    const MU: f64 = 1e6;
    let mut rows = Vec::new();
    for (cell, config) in grid.iter().enumerate() {
        let audit_config = EconomyConfig {
            rounds: audit_rounds,
            ..config.clone()
        };
        let backend = ThresholdAuditBackend::new(
            audit_config,
            vec![0, threshold / 2, threshold, threshold * 2],
            1,
            2_410 + cell as u64,
        );
        let base = backend.base_profile();
        let spec = AuditSpec::unilateral(epsilon, delta, samples, 2_420 + cell as u64);
        let audit = SampledOracle::new(&backend).audit(&base, &spec);
        let cert = &audit.certificates[0];
        if std::env::var("BNE_E24_WITNESS").is_ok() {
            if let Some(w) = &cert.counterexample {
                println!(
                    "cell {cell} witness: players {:?} actions {:?} (thresholds {:?}) gain {}",
                    w.players,
                    w.actions,
                    w.actions
                        .iter()
                        .map(|&a| backend.candidates()[a])
                        .collect::<Vec<_>>(),
                    w.gain
                );
            }
        }
        rows.push(vec![
            config.initial_scrip.to_string(),
            fmt_f64(config.churn),
            config.hoarders.to_string(),
            fmt_stat(&sweep[cell].outcome.efficiency),
            fmt_f64(sweep[cell].outcome.rational_utility.mean() * MU),
            fmt_bool(cert.accepted),
            fmt_f64(cert.max_gain * MU),
            fmt_f64(cert.mean_gain * MU),
            fmt_f64(cert.miss_mass),
        ]);
    }
    emit_table(
        "e24",
        &format!(
            "E24  sampled ε-equilibrium audit of the 10^6-agent scrip economy \
             (threshold {threshold}, ε = 0.5 µu/round, δ = {delta}, {samples} samples/cell)"
        ),
        &[
            "scrip/agent",
            "churn",
            "hoarders",
            "efficiency",
            "rational µu/round",
            "ε-audit",
            "max gain µu",
            "mean gain µu",
            "miss mass ≤",
        ],
        &rows,
    );
    println!("Each audit row is a sampled certificate, not a proof: 'accepted' means no sampled unilateral threshold deviation gained more than ε = 0.5 µu per round (roughly half the baseline payoff at this scale), and with confidence 1−δ at most the miss-mass fraction of the deviation space could still be ε-profitable. Payoff queries run the full million-agent economy under common random numbers (identical request arrivals for deviation and baseline), so gains are exact differences, not noisy estimates. At n = 10^6 an agent touches only ~rounds/n events over the whole audit horizon, so a deviation's measured effect is a handful of discrete events: every nonzero gain in the table is a small integer combination of the two event quanta — a service received (+1.0 utils) or a volunteering performed (-0.2 utils) — divided by the horizon, and most sampled deviations change the deviator's utility by exactly zero. That dilution is also why the distribution-free miss-mass bound is the operative guarantee here: the Hoeffding half-width (recorded in the JSON export) is built from the a priori per-round payoff range [-cost, +benefit], ~10^6 µu wide and thus vacuous at this population size. The rejected cells are the finite-horizon version of the effect the paper predicts: a deviator that *lowers* its threshold free-rides — it dodges its few volunteering lotteries and, under common random numbers in an economy with plenty of other volunteers, loses no service for it. One avoided volunteering (0.2 utils) divided by either audit horizon already exceeds ε, so a cell is rejected as soon as one of its sampled deviators gets event-lucky; the max-gain column reads off exactly how lucky. The common threshold is therefore an ε-equilibrium whose ε is the marginal value of shirking — shrinking as 1/horizon, never exactly Nash — which is precisely the Kash-Friedman-Halpern shape. The accepted cells are the flip side: either no sampled deviator touched a single event (gain exactly 0.0), or the economy is the over-supplied collapse at 12 scrip/agent, where everyone starts above threshold, nobody volunteers and efficiency is 0 — the paper's monetary crash, itself an equilibrium, since raising your threshold only buys work costs paid in worthless scrip. The 50 000 Byzantine hoarders rescue that crash rather than cause one: volunteering unconditionally and hoarding the scrip they earn, they hand every rational agent near-free service (0.982 µu/round). Churn with newcomer scrip equal to the per-agent supply keeps the money supply stationary, so the 0.1%-per-round arrival/departure stream shifts no cell's economics.");
}

/// E25 — the schedule-space model checker: exhaustive proofs with and
/// without partial-order reduction, the planted amp-quorum bug's
/// replayable counterexample, and the synthesized worst-case adversary
/// against e20's rush heuristic.
fn e25_model_checker() {
    use bne_core::games::parallel::{fan_out, num_threads};
    use bne_core::mc::synth::ben_or_noise_factory;
    use bne_core::mc::{
        bracha_net, replay_trace, BrachaParams, Explorer, SynthConfig, Synthesizer, Verdict,
    };

    let smoke = bne_bench::bench_smoke_mode();
    // naive DFS never finds the planted n = 4 bug: the cap bounds how
    // long we let it not find it (the ratio row is a lower bound)
    let naive_cap_n4: u64 = if smoke { 60_000 } else { 250_000 };

    let fmt_verdict = |v: &Verdict| match v {
        Verdict::Proven => "Proven".to_string(),
        Verdict::Violated(t) => format!("Violated ({} choices)", t.len()),
        Verdict::Truncated(_) => "cap hit".to_string(),
    };
    let explore = |p: &BrachaParams, por: bool, cap: u64| {
        let (net, tap) = bracha_net(p);
        let mut cfg = p.explore_config();
        cfg.por = por;
        cfg.max_states = cap;
        Explorer::new(net, tap, p.properties(), cfg).run()
    };

    let mut rows = Vec::new();
    let mut replayed: Option<bool> = None;
    let workloads: Vec<(&str, BrachaParams, u64)> = vec![
        ("honest n=3", BrachaParams::new(3, 1, 1), 10_000_000),
        (
            "liar n=3",
            BrachaParams::new(3, 1, 1).with_liar(),
            10_000_000,
        ),
        (
            "planted n=3",
            BrachaParams::new(3, 1, 1).with_liar().with_thresholds(1, 3),
            10_000_000,
        ),
        ("honest n=4", BrachaParams::new(4, 1, 1), naive_cap_n4),
        (
            "planted n=4",
            BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3),
            naive_cap_n4,
        ),
    ];
    // each workload's POR and naive explorations are two units of one
    // fan-out, folded in row order; each unit builds its own net (nets
    // are not `Send`). Their costs differ by four orders of magnitude, so
    // the first unit's time predicts nothing: every thread claims one
    // unit at a time instead, and the two capped naive n = 4 rows share
    // the cores.
    let mut reports = Vec::with_capacity(2 * workloads.len());
    fan_out(
        2 * workloads.len(),
        Some(num_threads()),
        |units, emit| {
            for unit in units {
                let (_, params, naive_cap) = &workloads[unit / 2];
                emit(match unit % 2 {
                    0 => explore(params, true, 10_000_000),
                    _ => explore(params, false, *naive_cap),
                });
            }
            true
        },
        |report| reports.push(report),
    );
    for ((label, ..), pair) in workloads.iter().zip(reports.chunks_exact(2)) {
        let (por, naive) = (&pair[0], &pair[1]);
        let naive_capped = matches!(naive.verdict, Verdict::Truncated(_));
        if let Verdict::Violated(trace) = &por.verdict {
            // every counterexample the table reports must reproduce on
            // the production runtime
            let ok = replay_trace(trace).unwrap().violation.is_some();
            assert!(ok, "{label}: counterexample failed to replay");
            replayed = Some(replayed.unwrap_or(true) && ok);
        }
        rows.push(vec![
            label.to_string(),
            por.states.to_string(),
            fmt_verdict(&por.verdict),
            format!("{}{}", if naive_capped { ">" } else { "" }, naive.states),
            fmt_verdict(&naive.verdict),
            format!(
                "{}{:.1}x",
                if naive_capped { ">" } else { "" },
                naive.states as f64 / por.states as f64
            ),
        ]);
    }
    emit_table(
        "e25",
        "E25  schedule-space model checking: POR vs naive DFS on the Bracha models \
         (planted = amplification quorum lowered from t+1 to t)",
        &[
            "workload",
            "POR states",
            "POR verdict",
            "naive states",
            "naive verdict",
            "ratio",
        ],
        &rows,
    );
    println!(
        "replayed counterexamples reproduce on the production EventNet: {}",
        replayed.map_or("n/a".to_string(), fmt_bool)
    );
    println!();

    let mut synth_rows = Vec::new();
    for rollouts in if smoke {
        vec![8usize]
    } else {
        vec![8, 64, 256]
    } {
        let outcome = Synthesizer::new(
            ben_or_noise_factory(),
            BTreeSet::from([3usize]),
            SynthConfig {
                rollouts,
                seed: 7,
                max_events: 100_000,
            },
        )
        .run();
        assert!(
            outcome.best >= outcome.rush,
            "the synthesized adversary may never score below the rush heuristic"
        );
        synth_rows.push(vec![
            rollouts.to_string(),
            outcome.rush.undecided.to_string(),
            outcome.rush.decide_time.to_string(),
            outcome.rush.rounds.to_string(),
            outcome.best.undecided.to_string(),
            outcome.best.decide_time.to_string(),
            outcome.best.rounds.to_string(),
            outcome.best_rollout.to_string(),
        ]);
    }
    emit_table(
        "e25-synth",
        "E25  synthesized worst-case adversary vs the rush heuristic \
         (Ben-Or n=4, process 3 Byzantine, mixed prefs, rollout 0 = rush)",
        &[
            "rollouts",
            "rush undecided",
            "rush decide time",
            "rush rounds",
            "best undecided",
            "best decide time",
            "best rounds",
            "best rollout",
        ],
        &synth_rows,
    );
    println!("The top table is the POR story: same verdicts, shrunken graphs. The honest models prove RB agreement + validity over every delivery interleaving; the planted models (amplification quorum lowered from t+1 to t) are found Violated with a short counterexample that replays choice-for-choice on the production runtime. At n = 4 the naive rows are capped: naive DFS exhausts the cap without finding the bug POR finds — the ratio is a lower bound, and the planted n = 3 row is the exact apples-to-apples pair. The bottom table is the schedule-synthesis story: rollout 0 *is* e20's AdversarialRush expressed as a rollout policy, so 'best >= rush' holds by construction (asserted); the searched rollouts then try to beat it with randomized byz-biased orderings and deliberate clock advancement. Badness is lexicographic — undecided honest processes first, then the latest honest decision time in virtual ticks, then rounds — so a searched schedule that stalls honest processes past the round cap (undecided > 0, decide time 0 because nobody decided) outranks any merely-slow schedule, which is exactly the liveness attack Ben-Or's round cap exists to bound. A best rollout of 0 means the rush heuristic was never beaten at that budget.");
}
