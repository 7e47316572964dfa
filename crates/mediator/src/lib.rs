//! # bne-mediator
//!
//! Section 2 of the paper is about implementing *mediators* (trusted third
//! parties) with *cheap talk* (players just talking among themselves), while
//! remaining (k,t)-robust. This crate contains:
//!
//! * [`feasibility`] — the nine-bullet catalogue of
//!   Abraham–Dolev–Gonen–Halpern results as an executable classification of
//!   `(n, k, t)` plus assumptions (punishment strategies, broadcast
//!   channels, cryptography, PKI), and the sweep that regenerates the
//!   paper's result table (experiment E3);
//! * [`mediator_game`] — the extension `Γ_d` of a Bayesian game with a
//!   mediator, and the induced distribution over actions the cheap-talk
//!   game must reproduce;
//! * [`cheap_talk`] — the cheap-talk extension `Γ_CT`: a communication
//!   phase followed by an action phase, as the
//!   [`CheapTalkImplementation`] trait;
//! * [`equivalence`] — checking that a cheap-talk implementation induces
//!   the same distribution over actions as the mediator, type profile by
//!   type profile (the paper's definition of "implements").
//!
//! The crate phrases these definitions only. The concrete cheap-talk
//! protocols — oral messages for `n > 3(k + t)` and signed broadcast over
//! a PKI for `n > k + t` — run their talk phase on the network runtime,
//! so they live with it in `bne_net::cheap_talk`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cheap_talk;
pub mod equivalence;
pub mod feasibility;
pub mod mediator_game;

pub use cheap_talk::{CheapTalkImplementation, CheapTalkOutcome};
pub use equivalence::{distributions_match, total_variation_distance, ActionDistribution};
pub use feasibility::{
    classify_regime, classify_regime_for_game, regime_table, Assumptions, RegimeResult,
    RuntimeBound,
};
pub use mediator_game::{
    ByzantineAgreementGame, DeviationChoice, Mediator, MediatorGame, TruthfulMediator,
};
