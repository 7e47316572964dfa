//! # bne-robust
//!
//! The robust and resilient solution concepts of Section 2 of Halpern's
//! *Beyond Nash Equilibrium* (PODC 2008), following the formal definitions
//! of Abraham, Dolev, Gonen and Halpern (PODC 2006) and Abraham, Dolev and
//! Halpern (TCC 2008):
//!
//! * **k-resilience** ([`resilience`]) — a profile tolerates coordinated
//!   deviations by coalitions of up to `k` players: no deviation makes a
//!   coalition member strictly better off;
//! * **t-immunity** ([`immunity`]) — players who do **not** deviate are not
//!   hurt when up to `t` arbitrary ("faulty", irrational, or malicious)
//!   players deviate in any way;
//! * **(k,t)-robustness** ([`robustness`]) — the combination of both, the
//!   paper's proposed fault-tolerant generalization of Nash equilibrium
//!   (Nash equilibrium is exactly (1,0)-robustness);
//! * **punishment strategies** ([`punishment`]) — the `(k+t)`-punishment
//!   strategies that the mediator-implementation theorems require in the
//!   `2k + 3t < n ≤ 3k + 3t` regime.
//!
//! Checks are exhaustive over coalitions and joint deviations, with a
//! sampled variant for larger games (see
//! [`robustness::RobustnessChecker::sampled`]); the exhaustive/sampled
//! trade-off is one of the ablations benchmarked in `bne-bench`.
//!
//! This crate decides one profile at a time and returns witnesses. To
//! find every profile with a concept, sweep the shared
//! [`bne_games::DeviationOracle`] with a [`bne_games::Concept`]
//! ([`bne_games::DeviationOracle::profiles`] and
//! [`bne_games::DeviationOracle::first_profile`]): best-response payoff
//! tables certify or refute all size-1 deviations at once, and for the
//! Nash-implying concepts (k-resilience and (k,t)-robustness with
//! `k ≥ 1`) iterated never-best-response elimination shrinks the
//! searched space. [`find_punishment_strategies`] is that sweep for a
//! punishment relative to an equilibrium profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod immunity;
pub mod punishment;
pub mod resilience;
pub mod robustness;

pub use analysis::{classify_profile, ProfileClassification};
pub use immunity::{
    immunity_counterexample, is_t_immune, is_t_immune_by_index, max_immunity_by_index,
    ImmunityViolation,
};
pub use punishment::{find_punishment_strategies, is_punishment_strategy};
pub use resilience::{
    is_k_resilient, is_k_resilient_by_index, max_resilience_by_index, resilience_counterexample,
    CoalitionDeviation, ResilienceVariant,
};
pub use robustness::{
    is_robust, is_robust_by_index, max_robustness, RobustnessChecker, RobustnessReport,
};
