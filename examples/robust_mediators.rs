//! Robust equilibria and mediators: Byzantine agreement as a game.
//!
//! Walks through Section 2 of the paper: the Byzantine agreement game, its
//! trivial solution with a mediator, the (n, k, t) feasibility regimes for
//! replacing the mediator with cheap talk, and two concrete cheap-talk
//! implementations built on the Byzantine agreement and PKI substrates.
//!
//! ```text
//! cargo run -p bne-examples --bin robust_mediators
//! ```

use bne_core::byzantine::mediator_byzantine_agreement;
use bne_core::mediator::feasibility::{classify_regime, Assumptions, Implementability};
use bne_core::mediator::{
    distributions_match, ByzantineAgreementGame, CheapTalkImplementation, MediatorGame,
    TruthfulMediator,
};
use bne_core::net::{OralMessagesCheapTalk, SignedBroadcastCheapTalk};
use std::collections::BTreeSet;

fn main() {
    let n = 7;
    let k = 1;
    let t = 1;

    // The mediator solution is trivial: the general tells the mediator, the
    // mediator tells everyone.
    let faulty: BTreeSet<usize> = [5, 6].into_iter().collect();
    let mediated = mediator_byzantine_agreement(n, 1, &faulty, 0);
    println!(
        "with a mediator: {} honest soldiers all decide {:?} using {} messages",
        mediated.decisions.len(),
        mediated.decisions.values().next(),
        mediated.messages
    );

    // Can cheap talk replace the mediator? Ask the feasibility catalogue.
    for assumptions in [Assumptions::none(), Assumptions::all()] {
        let regime = classify_regime(n, k, t, assumptions);
        let verdict = match regime.implementability {
            Implementability::Exact(_) => "exact implementation",
            Implementability::Epsilon(_) => "epsilon implementation",
            Implementability::Impossible => "impossible",
        };
        println!(
            "n = {n}, (k, t) = ({k}, {t}), assumptions {assumptions:?} → {verdict} (bullets {:?})",
            regime.justification
        );
    }

    // Constructive check: the oral-messages cheap-talk protocol induces the
    // same distribution over honest actions as the mediator.
    let game = ByzantineAgreementGame::build(n, 0.5);
    let mediator_game = MediatorGame::new(&game, TruthfulMediator);
    let om = OralMessagesCheapTalk::new(n, k, t);
    println!(
        "\nOM({}) cheap talk implements the mediator with faulty soldiers {:?}: {}",
        k + t,
        faulty,
        distributions_match(&mediator_game, &om, &faulty, 10, 1e-9)
    );

    // Push past n/3 total faults: oral messages break, signed broadcast
    // (cryptography + PKI, the paper's last bullet) still works.
    let n_small = 5;
    let heavy_faults: BTreeSet<usize> = [2, 3, 4].into_iter().collect();
    let small_game = ByzantineAgreementGame::build(n_small, 0.5);
    let small_mediator = MediatorGame::new(&small_game, TruthfulMediator);
    let om_small = OralMessagesCheapTalk::new(n_small, 1, 2);
    let ds_small = SignedBroadcastCheapTalk::new(n_small, 1, 2);
    println!(
        "n = {n_small} with 3 faulty: {} implements mediator: {} | {} implements mediator: {}",
        om_small.name(),
        distributions_match(&small_mediator, &om_small, &heavy_faults, 10, 1e-9),
        ds_small.name(),
        distributions_match(&small_mediator, &ds_small, &heavy_faults, 10, 1e-9),
    );

    // And the honest strategy is coalition-proof in the mediator game.
    println!(
        "\nhonest strategy in the mediator game is 2-resilient: {}",
        mediator_game.honest_is_k_resilient(2)
    );
}
