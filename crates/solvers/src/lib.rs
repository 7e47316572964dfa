//! # bne-solvers
//!
//! Baseline equilibrium computation for finite games. The paper's new
//! solution concepts (robustness, computational equilibrium, awareness) are
//! all judged relative to classical Nash equilibrium; this crate provides
//! that baseline:
//!
//! * [`pure`] — exhaustive pure Nash equilibrium enumeration and dominance
//!   analysis (strict/weak dominance, iterated elimination);
//! * [`fictitious`] — fictitious play, which converges in beliefs for
//!   two-player zero-sum games and many potential-like games;
//! * [`replicator`] — discrete-time replicator dynamics for symmetric
//!   two-player games;
//! * [`support`] — exact mixed equilibria of two-player games by support
//!   enumeration (solving the indifference conditions with a small
//!   in-crate linear solver, [`linalg`]);
//! * [`regret`] — regret matching, whose empirical play converges to the
//!   set of coarse correlated equilibria;
//! * [`correlated`] — correlated and coarse-correlated equilibrium checks
//!   for explicit joint distributions (the simplest mediator);
//! * [`bayes`] — pure Bayes–Nash equilibrium search for finite Bayesian
//!   games;
//! * [`zero_sum`] — maximin analysis and game values for two-player
//!   zero-sum games.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
pub mod correlated;
pub mod fictitious;
pub mod linalg;
pub mod pure;
pub mod regret;
pub mod replicator;
pub mod support;
pub mod zero_sum;

pub use bayes::find_pure_bayes_nash;
pub use correlated::{
    is_coarse_correlated_equilibrium, is_correlated_equilibrium, JointDistribution,
};
pub use fictitious::{FictitiousPlay, FictitiousPlayResult};
pub use pure::{
    best_response_table, iterated_elimination, pure_nash_equilibria, strictly_dominant_profile,
    DominanceKind,
};
pub use regret::RegretMatching;
pub use replicator::ReplicatorDynamics;
pub use support::support_enumeration;
pub use zero_sum::{maximin_pure, zero_sum_value};
