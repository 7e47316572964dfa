//! `audit`: the e24 scrip workload — an `EconomyScenario` sweep over
//! money supply {2, 6, 12} × churn {0, 0.001} × hoarders {0, 5%}, then
//! one sampled unilateral `ThresholdAuditBackend` audit per cell.
//!
//! The flat-array `scrip::Economy` dominates: every replica and every
//! payoff query builds an engine and runs it. The engine runs 36 large
//! replicas here where `sweep` runs many tiny ones, so a chunking change
//! that helps one shape and costs the other shows up. `bne-mc` and
//! `bne-net` are not used.
//!
//! The audit always runs through the payoff-query shell, traced or not:
//! `secondary_per_s` needs the query count, and every query is a whole
//! economy run, so two clock reads per query cost nothing measurable.

use crate::prof::{self, TimedBackend};
use crate::sweep::sweep;
use crate::{ratio, Batch, Workload};
use bne_games::sampled::{AuditSpec, SampledAudit, SampledOracle};
use bne_scrip::{economy_grid, Economy, EconomyConfig, EconomyScenario, ThresholdAuditBackend};
use bne_sim::{derive_seed, SimRunner};
use std::time::Instant;

/// Agents per economy: the e24 grid and engine at a population whose
/// flat arrays (~25 bytes per agent, ~1.25 MB) stay in a core's L2. At
/// the e24 population of 10^6 the ~25 MB working set lives in the L3
/// shared with other tenants, and on a shared host its speed swings with
/// their load by more than any bound a benchmark can hold.
const AGENTS: usize = 50_000;
const THRESHOLD: u32 = 10;
const ROUNDS: u64 = 500_000;
const AUDIT_ROUNDS: u64 = 50_000;
const REPLICAS: usize = 3;
const SAMPLES: usize = 64;
/// ε = 0.5 / n utils per round, e24's tolerance scaled to the
/// population: about half an agent's baseline payoff per round.
const EPSILON: f64 = 0.5 / AGENTS as f64;
const DELTA: f64 = 0.05;
/// The seed whose work counts are pinned: payoff queries and accepted
/// certificates of one batch.
const REFERENCE_SEED: u64 = 0;
const REFERENCE_COUNTS: [u64; 2] = [598, 4];

pub struct Audit {
    seed: u64,
    workers: usize,
    grid: Vec<EconomyConfig>,
}

impl Workload for Audit {
    fn setup(seed: u64, workers: usize) -> (Self, u64, Vec<String>) {
        let grid = economy_grid(
            AGENTS,
            THRESHOLD,
            &[2, 6, 12],
            &[0.0, 0.001],
            &[0.0, 0.05],
            ROUNDS,
        );
        let mut failures = Vec::new();
        // gate: on a small economy, the sequential and parallel audits
        // give identical certificates (over several sample blocks), and
        // a churn-free run conserves scrip
        let small = EconomyConfig {
            hoarders: 100,
            ..EconomyConfig::homogeneous(1_900, THRESHOLD, 20_000)
        };
        let backend = ThresholdAuditBackend::new(small.clone(), candidates(), 1, seed);
        let spec = AuditSpec::unilateral(EPSILON, DELTA, 192, seed);
        let oracle = SampledOracle::new(&backend);
        let base = backend.base_profile();
        if oracle.audit(&base, &spec) != oracle.audit_with_workers(&base, &spec, workers) {
            failures.push(format!(
                "set-up gate: audit and audit_with_workers({workers}) certificates differ"
            ));
        }
        if let Some(e) = unconserved(&small, Economy::new(&small).run(seed).money_supply) {
            failures.push(format!("set-up gate: {e}"));
        }
        (
            Audit {
                seed,
                workers,
                grid,
            },
            2,
            failures,
        )
    }

    fn batch(&self, traced: bool) -> Batch {
        let t0 = Instant::now();
        let runner = SimRunner::new(REPLICAS, derive_seed(self.seed, 24, 0));
        let economies = sweep(&runner, self.workers, EconomyScenario, &self.grid, traced);
        let sweep_s = t0.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        for (config, r) in self.grid.iter().zip(&economies) {
            let money = &r.outcome.money_supply;
            if let Some(e) = unconserved(config, money.min() as u64)
                .or_else(|| unconserved(config, money.max() as u64))
            {
                failures.push(format!("economy cell {}: {e}", r.cell));
            }
        }

        let t1 = Instant::now();
        let (queries_before, query_s_before) = (prof::QUERY.calls(), prof::QUERY.secs());
        let audits: Vec<SampledAudit> = (0..self.grid.len()).map(|cell| self.audit(cell)).collect();
        let queries = prof::QUERY.calls() - queries_before;
        let query_s = prof::QUERY.secs() - query_s_before;
        let audit_s = t1.elapsed().as_secs_f64();
        let wall = t0.elapsed().as_secs_f64();
        for (cell, audit) in audits.iter().enumerate() {
            let sound = audit.certificates.len() == 1
                && audit.certificates[0].samples == SAMPLES
                && audit.accepted == audit.counterexample().is_none()
                && audit.counterexample().is_none_or(|w| w.gain > EPSILON);
            if !sound {
                failures.push(format!("audit cell {cell}: malformed certificate"));
            }
        }
        let accepted = audits.iter().filter(|a| a.accepted).count() as u64;
        if self.seed == REFERENCE_SEED && [queries, accepted] != REFERENCE_COUNTS {
            failures.push(format!(
                "seed {REFERENCE_SEED}: {queries} queries and {accepted} accepted cells, \
                 pinned {REFERENCE_COUNTS:?}"
            ));
        }
        let queries = queries as f64;

        let replicas = (self.grid.len() * REPLICAS) as f64;
        let rounds = replicas * ROUNDS as f64;
        let layers = if traced {
            let resident = economies
                .iter()
                .map(|r| r.outcome.resident_bytes)
                .max()
                .unwrap_or(0);
            let all_rounds = rounds + queries * AUDIT_ROUNDS as f64;
            let mut layers = prof::sim_layers(sweep_s, self.workers);
            layers.extend([
                ("scrip.economy_runs", replicas + queries),
                ("scrip.rounds", all_rounds),
                (
                    "scrip.rounds_per_s",
                    ratio(all_rounds, prof::REPLICA.secs() + query_s),
                ),
                ("scrip.resident_mb", resident as f64 / (1024.0 * 1024.0)),
                ("sampled.audit_frac", audit_s / wall),
                ("sampled.self_frac", (audit_s - query_s) / audit_s),
                ("sampled.queries", queries),
                (
                    "sampled.samples",
                    audits
                        .iter()
                        .map(|a| a.certificates[0].samples as f64)
                        .sum(),
                ),
                ("sampled.accepted", accepted as f64),
            ]);
            layers
        } else {
            Vec::new()
        };
        Batch {
            wall,
            ops: 2 * self.grid.len() as u64,
            failures,
            rates: [rounds / sweep_s, queries / audit_s],
            digest: format!("{economies:?}\n{audits:?}"),
            layers,
        }
    }
}

impl Audit {
    /// Audits one cell's economy at the common threshold.
    fn audit(&self, cell: usize) -> SampledAudit {
        let backend = ThresholdAuditBackend::new(
            EconomyConfig {
                rounds: AUDIT_ROUNDS,
                ..self.grid[cell].clone()
            },
            candidates(),
            1,
            derive_seed(self.seed, 2_410, cell as u64),
        );
        let spec = AuditSpec::unilateral(
            EPSILON,
            DELTA,
            SAMPLES,
            derive_seed(self.seed, 2_420, cell as u64),
        );
        SampledOracle::new(&TimedBackend(&backend)).audit(&backend.base_profile(), &spec)
    }
}

/// The audited thresholds: shirk, half, common, double.
fn candidates() -> Vec<u32> {
    vec![0, THRESHOLD / 2, THRESHOLD, THRESHOLD * 2]
}

/// Without churn no scrip enters or leaves the economy.
fn unconserved(config: &EconomyConfig, money: u64) -> Option<String> {
    let expected = config.total_agents() as u64 * u64::from(config.initial_scrip);
    (config.churn == 0.0 && money != expected)
        .then(|| format!("money supply {money}, expected {expected}"))
}
