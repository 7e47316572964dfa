//! # bne-core
//!
//! Umbrella crate for the `beyond-nash` workspace — a Rust reproduction of
//! Joseph Halpern's *Beyond Nash Equilibrium: Solution Concepts for the 21st
//! Century* (PODC 2008). Depend on this crate to get the whole stack with a
//! single import, or depend on the individual crates re-exported below.
//!
//! The three pillars of the paper map onto three crates:
//!
//! * [`robust`] — (k,t)-robust equilibria (fault tolerance and coalitions),
//!   with [`mediator`] and [`byzantine`] (which holds the toy PKI behind
//!   signed broadcast) supplying the mediator-implementation machinery of
//!   Section 2;
//! * [`machine`] — computational Nash equilibrium for machine games
//!   (Section 3);
//! * [`awareness`] — games with awareness and generalized Nash equilibrium
//!   (Section 4).
//!
//! [`games`] and [`solvers`] hold the classical representations and
//! baseline solvers everything else builds on; [`scrip`] and [`p2p`] are the
//! simulators behind the conclusion's scrip-system discussion and the
//! Gnutella free-riding statistics; [`sim`] is the deterministic parallel
//! Monte Carlo engine that fans any of those simulators across grid ×
//! replica sweeps; [`net`] is the deterministic async discrete-event
//! network runtime (latency models, adversarial schedulers, link faults)
//! that the round-based protocols run on unchanged, and the home of the
//! cheap-talk protocols that implement the mediator.
//!
//! # Quick start
//!
//! ```
//! use bne_core::games::classic;
//! use bne_core::robust::{classify_profile, is_robust};
//!
//! // The paper's bargaining example: staying is k-resilient for every k
//! // but collapses as soon as one player behaves unexpectedly.
//! let game = classic::bargaining_game(5);
//! let all_stay = vec![0; 5];
//! let report = classify_profile(&game, &all_stay);
//! assert!(report.is_nash);
//! assert_eq!(report.max_resilience, 5);
//! assert_eq!(report.max_immunity, 0);
//! assert!(!is_robust(&game, &all_stay, 1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bne_awareness as awareness;
pub use bne_byzantine as byzantine;
pub use bne_games as games;
pub use bne_machine as machine;
pub use bne_mc as mc;
pub use bne_mediator as mediator;
pub use bne_net as net;
pub use bne_p2p as p2p;
pub use bne_robust as robust;
pub use bne_scrip as scrip;
pub use bne_sim as sim;
pub use bne_solvers as solvers;

#[cfg(test)]
mod tests {
    #[test]
    fn all_crates_are_reachable_through_the_umbrella() {
        let pd = crate::games::classic::prisoners_dilemma();
        assert_eq!(crate::solvers::pure_nash_equilibria(&pd).len(), 1);
        assert!(crate::robust::is_robust(&pd, &[1, 1], 1, 0));
        let analysis = crate::awareness::analyze_figure1(0.9);
        assert!(!analysis.across_equilibrium_exists);
    }
}
