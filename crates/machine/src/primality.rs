//! Example 3.1: the primality-guessing game with costly computation.
//!
//! You are given an n-bit number; guessing whether it is prime pays $10 if
//! right and −$10 if wrong, playing safe pays $1. The unique classical Nash
//! equilibrium is to compute the answer and guess correctly. Once computing
//! has a cost that grows with the input length, playing safe becomes the
//! computational Nash equilibrium for sufficiently large inputs.
//!
//! The game is modelled as a one-player Bayesian machine game: the player's
//! type indexes a challenge number (drawn uniformly from a pool of numbers
//! around a target bit length), the machines are
//!
//! * `TrialDivision` — a VM program that actually decides primality, whose
//!   measured step count is the complexity;
//! * `SayPrime` / `SayComposite` — constant guesses (1 VM step);
//! * `PlaySafe` — the constant safe action (1 VM step).

use crate::complexity::ComplexityCharge;
use crate::game::MachineGame;
use crate::machine::{StrategyMachine, TableMachine, VmMachine};
use crate::vm::{is_prime_reference, Program, VirtualMachine};
use bne_games::bayesian::TypeDistribution;
use bne_games::BayesianGame;

/// Action indices of the primality game.
pub mod actions {
    /// Guess "prime".
    pub const SAY_PRIME: usize = 0;
    /// Guess "composite".
    pub const SAY_COMPOSITE: usize = 1;
    /// Decline to guess (pays the safe $1).
    pub const PLAY_SAFE: usize = 2;
}

/// A pool of challenge numbers around a given bit length, used as the type
/// space of the one-player Bayesian game.
#[derive(Debug, Clone)]
pub struct ChallengePool {
    numbers: Vec<u64>,
}

impl ChallengePool {
    /// Builds a balanced pool of `count` numbers just below `2^bits`: half
    /// primes and half composites (odd numbers, scanned downward from
    /// `2^bits − 1`). Balancing the pool makes blind guessing worth 0 in
    /// expectation — exactly the situation of Example 3.1, where a player
    /// who will not compute should prefer the safe $1 — while the difficulty
    /// of trial division still scales with `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is smaller than 4 or greater than 40 (the VM uses
    /// `i64` arithmetic and the experiment never needs more), or `count` is
    /// 0.
    pub fn new(bits: u32, count: usize) -> Self {
        assert!((4..=40).contains(&bits), "bits must be in 4..=40");
        assert!(count > 0, "need at least one challenge");
        let want_primes = count.div_ceil(2);
        let want_composites = count - want_primes;
        let mut primes = Vec::with_capacity(want_primes);
        let mut composites = Vec::with_capacity(want_composites);
        let mut candidate = (1u64 << bits) - 1;
        while (primes.len() < want_primes || composites.len() < want_composites) && candidate > 2 {
            if is_prime_reference(candidate) {
                if primes.len() < want_primes {
                    primes.push(candidate);
                }
            } else if composites.len() < want_composites {
                composites.push(candidate);
            }
            candidate -= 2;
        }
        let mut numbers = primes;
        numbers.append(&mut composites);
        numbers.sort_unstable();
        ChallengePool { numbers }
    }

    /// The challenge numbers.
    pub fn numbers(&self) -> &[u64] {
        &self.numbers
    }

    /// Number of challenges (the size of the type space).
    pub fn len(&self) -> usize {
        self.numbers.len()
    }

    /// Whether the pool is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.numbers.is_empty()
    }
}

/// Builds the one-player Bayesian game: the type is an index into the pool,
/// drawn uniformly, and the utility is +10 / −10 / +1 as in the paper.
pub fn primality_bayesian(pool: &ChallengePool) -> BayesianGame {
    let numbers = pool.numbers().to_vec();
    let k = numbers.len();
    let prior = TypeDistribution::independent(&[vec![1.0 / k as f64; k]])
        .expect("uniform marginal is valid");
    BayesianGame::new(
        "primality guessing game",
        vec![3],
        prior,
        move |_player, types, actions| {
            let n = numbers[types[0]];
            let prime = is_prime_reference(n);
            match actions[0] {
                actions_mod::SAY_PRIME => {
                    if prime {
                        10.0
                    } else {
                        -10.0
                    }
                }
                actions_mod::SAY_COMPOSITE => {
                    if prime {
                        -10.0
                    } else {
                        10.0
                    }
                }
                _ => 1.0,
            }
        },
    )
    .expect("valid game by construction")
}

use actions as actions_mod;

/// The machine set of Example 3.1.
pub fn primality_machine_set(pool: &ChallengePool) -> Vec<Box<dyn StrategyMachine>> {
    let numbers = pool.numbers().to_vec();
    vec![
        Box::new(VmMachine::new(
            "TrialDivision",
            Program::trial_division_primality(),
            VirtualMachine::new(16, 50_000_000),
            move |ty| numbers[ty.min(numbers.len() - 1)] as i64,
            |out| {
                if out == 1 {
                    actions::SAY_PRIME
                } else {
                    actions::SAY_COMPOSITE
                }
            },
            actions::PLAY_SAFE,
        )),
        Box::new(TableMachine::constant("SayPrime", actions::SAY_PRIME)),
        Box::new(TableMachine::constant(
            "SayComposite",
            actions::SAY_COMPOSITE,
        )),
        Box::new(TableMachine::constant("PlaySafe", actions::PLAY_SAFE)),
    ]
}

/// Builds the full machine game with a linear charge per VM step.
pub fn primality_machine_game<'a>(
    game: &'a BayesianGame,
    pool: &ChallengePool,
    cost_per_step: f64,
) -> MachineGame<'a> {
    MachineGame::new(
        game,
        vec![primality_machine_set(pool)],
        ComplexityCharge::TimeLinear {
            weight: cost_per_step,
        },
    )
}

/// One row of the E6 sweep: which machine is the computational equilibrium
/// at each bit length.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimalityRow {
    /// Bit length of the challenges.
    pub bits: u32,
    /// Cost per VM step.
    pub cost_per_step: f64,
    /// Expected utility of the honest trial-division machine.
    pub compute_utility: f64,
    /// Expected utility of playing safe.
    pub safe_utility: f64,
    /// Names of the equilibrium machines at this configuration.
    pub equilibrium_machines: Vec<String>,
}

/// Sweeps bit lengths for a fixed per-step cost and reports which machine
/// wins at each size (experiment E6). The paper's prediction: computing wins
/// for small inputs, playing safe wins once inputs are large enough.
pub fn primality_sweep(
    bit_lengths: &[u32],
    cost_per_step: f64,
    pool_size: usize,
) -> Vec<PrimalityRow> {
    let mut rows = Vec::new();
    for &bits in bit_lengths {
        let pool = ChallengePool::new(bits, pool_size);
        let game = primality_bayesian(&pool);
        let mg = primality_machine_game(&game, &pool, cost_per_step);
        let compute_utility = mg.evaluate(&[0]).utilities[0];
        let safe_utility = mg.evaluate(&[3]).utilities[0];
        let equilibrium_machines = mg
            .find_equilibria()
            .into_iter()
            .flat_map(|e| e.machine_names)
            .collect();
        rows.push(PrimalityRow {
            bits,
            cost_per_step,
            compute_utility,
            safe_utility,
            equilibrium_machines,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of the pool that is prime.
    fn prime_fraction(pool: &ChallengePool) -> f64 {
        let primes = pool
            .numbers()
            .iter()
            .filter(|&&n| is_prime_reference(n))
            .count();
        primes as f64 / pool.len() as f64
    }

    #[test]
    fn pool_construction_is_balanced() {
        let pool = ChallengePool::new(10, 20);
        assert_eq!(pool.len(), 20);
        assert!(pool.numbers().iter().all(|&n| n < (1 << 11) && n % 2 == 1));
        assert!((prime_fraction(&pool) - 0.5).abs() < 1e-9);
        // odd count rounds the prime half up
        let odd = ChallengePool::new(10, 5);
        assert!((prime_fraction(&odd) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn with_free_computation_the_honest_machine_is_the_unique_equilibrium() {
        let pool = ChallengePool::new(12, 10);
        let game = primality_bayesian(&pool);
        let mg = primality_machine_game(&game, &pool, 0.0);
        let eqs = mg.find_equilibria();
        assert_eq!(eqs.len(), 1);
        assert_eq!(eqs[0].machine_names, vec!["TrialDivision".to_string()]);
        assert!((eqs[0].outcome.utilities[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn with_costly_computation_playing_safe_takes_over_for_large_inputs() {
        // cost per step chosen so that ~small inputs are still worth
        // computing but 30-bit inputs are not
        let cost = 0.002;
        let small = ChallengePool::new(8, 10);
        let game_small = primality_bayesian(&small);
        let mg_small = primality_machine_game(&game_small, &small, cost);
        let eq_small: Vec<String> = mg_small
            .find_equilibria()
            .into_iter()
            .flat_map(|e| e.machine_names)
            .collect();
        assert!(
            eq_small.contains(&"TrialDivision".to_string()),
            "{eq_small:?}"
        );

        let large = ChallengePool::new(30, 10);
        let game_large = primality_bayesian(&large);
        let mg_large = primality_machine_game(&game_large, &large, cost);
        let eq_large: Vec<String> = mg_large
            .find_equilibria()
            .into_iter()
            .flat_map(|e| e.machine_names)
            .collect();
        assert!(eq_large.contains(&"PlaySafe".to_string()), "{eq_large:?}");
        assert!(!eq_large.contains(&"TrialDivision".to_string()));
    }

    #[test]
    fn sweep_shows_the_crossover() {
        let rows = primality_sweep(&[8, 30], 0.002, 8);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].compute_utility > rows[0].safe_utility);
        assert!(rows[1].compute_utility < rows[1].safe_utility);
    }

    #[test]
    fn blind_guessing_is_never_an_equilibrium_on_balanced_pools() {
        // with a balanced pool, guessing a constant answer is worth 0 in
        // expectation, strictly below the safe $1, so it is dominated either
        // by computing (small inputs) or playing safe (large inputs)
        let pool = ChallengePool::new(16, 12);
        assert!((prime_fraction(&pool) - 0.5).abs() < 1e-9);
        let game = primality_bayesian(&pool);
        for cost in [0.0, 0.001, 0.1] {
            let mg = primality_machine_game(&game, &pool, cost);
            for eq in mg.find_equilibria() {
                assert_ne!(eq.machine_names[0], "SayPrime");
                assert_ne!(eq.machine_names[0], "SayComposite");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 4..=40")]
    fn pool_rejects_excessive_bit_lengths() {
        let _ = ChallengePool::new(60, 4);
    }
}
