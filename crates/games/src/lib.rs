//! # bne-games
//!
//! Finite game representations used throughout the `beyond-nash` workspace:
//!
//! * [`NormalFormGame`] — strategic-form games with an arbitrary (finite)
//!   number of players and actions, stored as dense payoff tensors;
//! * [`MixedStrategy`] / [`MixedProfile`] — randomized strategies and the
//!   expected-utility machinery over them;
//! * [`BayesianGame`] — games of incomplete information with finite type
//!   spaces and a common prior, the setting used by the paper for both the
//!   mediator results (Section 2) and machine games (Section 3);
//! * [`ExtensiveGame`] — finite extensive-form games with chance moves and
//!   information sets, the setting for games with awareness (Section 4);
//! * [`repeated`] — finitely repeated games with discounting, used for
//!   finitely repeated prisoner's dilemma;
//! * [`classic`] — the zoo of concrete games that appear in the paper
//!   (prisoner's dilemma, roshambo, the 0/1 coordination example, the
//!   bargaining example, attack/retreat, the Figure 1 game, ...).
//!
//! * [`oracle`] — the [`DeviationOracle`]: the shared, pruned
//!   deviation-search core (best-response certificate tables, iterated
//!   pre-elimination, incremental flat-index sweeps) that `bne-solvers`,
//!   `bne-robust` and `bne-mediator` run their searches through; its two
//!   sweeps take the solution concept as a [`Concept`];
//! * [`backend`] — the [`PayoffBackend`] abstraction over payoff queries:
//!   the dense tensor backend plus the utility-locality [`LocalBackend`]
//!   whose memory is O(players · neighborhood) instead of O(∏ actions);
//! * [`sampled`] — the [`SampledOracle`]: seeded sampled deviation audits
//!   producing ε-equilibrium certificates with (ε, δ) confidence bounds
//!   over any payoff backend, bit-identical sequential/parallel.
//!
//! All games are finite and use `f64` utilities. Beyond the oracle's
//! deviation predicates the crate is free of equilibrium computation:
//! solvers live in `bne-solvers`, and the paper's new solution concepts
//! live in `bne-robust`, `bne-machine` and `bne-awareness`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bayesian;
pub mod classic;
pub mod error;
pub mod extensive;
pub mod mixed;
pub mod normal_form;
pub mod oracle;
pub mod parallel;
pub mod profile;
pub mod random;
pub mod repeated;
pub mod sampled;

pub use backend::{DenseBackend, LocalBackend, PayoffBackend, ProfileView};
pub use bayesian::{BayesianGame, BayesianStrategy, TypeDistribution};
pub use error::GameError;
pub use extensive::{ExtensiveGame, Node, NodeId, Outcome, PureBehaviorStrategy};
pub use mixed::{MixedProfile, MixedStrategy};
pub use normal_form::{NormalFormBuilder, NormalFormGame};
pub use oracle::{Concept, DeviationOracle, ResilienceVariant, SearchStrategy};
pub use profile::{ActionProfile, ProfileIter};
pub use sampled::{AuditSpec, SampledAudit, SampledCertificate, SampledDeviation, SampledOracle};

/// Index of a player in a game (0-based).
pub type PlayerId = usize;

/// Index of an action in a player's action set (0-based).
pub type ActionId = usize;

/// Index of a type in a player's type space (0-based).
pub type TypeId = usize;

/// Utility value. All payoffs in the workspace are `f64`.
pub type Utility = f64;

/// Numerical tolerance used when comparing utilities for equilibrium checks.
///
/// Two utilities within `EPSILON` of each other are treated as equal, so a
/// profile counts as an equilibrium when no deviation gains more than
/// `EPSILON`.
pub const EPSILON: f64 = 1e-9;
