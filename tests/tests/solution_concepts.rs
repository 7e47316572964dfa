//! Cross-crate integration tests: the paper's worked examples, end to end.

use bne_core::awareness::analyze_figure1;
use bne_core::games::classic;
use bne_core::machine::frpd::{equilibrium_threshold, MemoryCostModel};
use bne_core::machine::roshambo;
use bne_core::mediator::feasibility::{classify_regime, Assumptions, Implementability};
use bne_core::mediator::{
    distributions_match, ByzantineAgreementGame, MediatorGame, TruthfulMediator,
};
use bne_core::net::{OralMessagesCheapTalk, SignedBroadcastCheapTalk};
use bne_core::robust::{classify_profile, is_robust};
use bne_core::solvers::{pure_nash_equilibria, support_enumeration};
use std::collections::BTreeSet;

/// Section 1 + 3: the prisoner's dilemma table, its unique equilibrium, and
/// the fact that classical FRPD analysis collapses to all-defect while the
/// computational analysis rescues tit-for-tat.
#[test]
fn prisoners_dilemma_classical_vs_computational() {
    let pd = classic::prisoners_dilemma();
    assert_eq!(pure_nash_equilibria(&pd), vec![vec![1, 1]]);
    assert!(bne_core::machine::frpd::classical_tft_is_not_equilibrium(
        30
    ));
    let threshold = equilibrium_threshold(0.9, MemoryCostModel::default(), 300)
        .expect("memory costs make TFT an equilibrium eventually");
    assert!(threshold > 1 && threshold < 300);
}

/// Section 2: the two motivating examples disagree on resilience vs
/// immunity, which is exactly why the combined (k,t) notion is needed.
#[test]
fn resilience_and_immunity_are_different_dimensions() {
    let coordination = classic::coordination_game(5);
    let bargaining = classic::bargaining_game(5);
    let coordination_report = classify_profile(&coordination, &[0; 5]);
    let bargaining_report = classify_profile(&bargaining, &[0; 5]);
    // coordination: resilience fails at k = 2
    assert_eq!(coordination_report.max_resilience, 1);
    // bargaining: resilience never fails, immunity fails immediately
    assert_eq!(bargaining_report.max_resilience, 5);
    assert_eq!(bargaining_report.max_immunity, 0);
    // Nash equilibrium is exactly (1,0)-robustness
    assert!(is_robust(&bargaining, &[0; 5], 1, 0));
    assert!(!is_robust(&bargaining, &[0; 5], 0, 1));
}

/// Section 2: the feasibility catalogue agrees with the constructive
/// protocols built on the Byzantine agreement + PKI substrates.
#[test]
fn feasibility_catalogue_matches_constructive_protocols() {
    // strong regime: n = 7 > 3(k + t) = 6 — exact implementation, and the
    // OM-based cheap talk protocol actually reproduces the mediator.
    let regime = classify_regime(7, 1, 1, Assumptions::none());
    assert!(matches!(
        regime.implementability,
        Implementability::Exact(_)
    ));
    let game = ByzantineAgreementGame::build(7, 0.5);
    let mediator_game = MediatorGame::new(&game, TruthfulMediator);
    let faulty: BTreeSet<usize> = [5, 6].into_iter().collect();
    assert!(distributions_match(
        &mediator_game,
        &OralMessagesCheapTalk::new(7, 1, 1),
        &faulty,
        5,
        1e-9
    ));

    // beyond n/3 total faults the oral-messages protocol fails, matching the
    // impossibility side, while the PKI protocol matches the paper's last
    // bullet (n > k + t with cryptography and a PKI).
    let small = ByzantineAgreementGame::build(5, 0.5);
    let small_mediator = MediatorGame::new(&small, TruthfulMediator);
    let heavy: BTreeSet<usize> = [2, 3, 4].into_iter().collect();
    assert!(!distributions_match(
        &small_mediator,
        &OralMessagesCheapTalk::new(5, 1, 2),
        &heavy,
        5,
        1e-9
    ));
    assert!(distributions_match(
        &small_mediator,
        &SignedBroadcastCheapTalk::new(5, 1, 2),
        &heavy,
        5,
        1e-9
    ));
    let pki_regime = classify_regime(5, 1, 2, Assumptions::all());
    assert!(matches!(
        pki_regime.implementability,
        Implementability::Epsilon(_)
    ));
}

/// Section 3: roshambo — the classical mixed equilibrium exists (and is the
/// uniform one), the computational variant has none.
#[test]
fn roshambo_classical_equilibrium_vs_computational_nonexistence() {
    let rps = classic::roshambo();
    let mixed = support_enumeration(&rps);
    assert_eq!(mixed.len(), 1);
    assert!((mixed[0].strategy(0).prob(0) - 1.0 / 3.0).abs() < 1e-6);

    let bayesian = roshambo::roshambo_bayesian();
    assert!(roshambo::classical_roshambo(&bayesian).is_equilibrium(&[3, 3]));
    assert!(roshambo::computational_roshambo(&bayesian)
        .find_equilibria()
        .is_empty());
}

/// Section 4: the Figure 1 story — the classical equilibrium survives for
/// small unawareness probability and disappears past the threshold, while a
/// generalized equilibrium always exists.
#[test]
fn awareness_changes_the_prediction_but_equilibria_always_exist() {
    for p in [0.0, 0.3, 0.6, 1.0] {
        let analysis = analyze_figure1(p);
        assert!(analysis.num_equilibria > 0, "existence at p = {p}");
        assert_eq!(analysis.across_equilibrium_exists, p <= 0.5);
    }
}

/// The simulators reproduce the statistics the paper quotes for "standard"
/// irrational behaviour.
#[test]
fn simulators_reproduce_the_quoted_shapes() {
    let p2p = bne_core::p2p::simulate(&bne_core::p2p::P2pConfig::default(), 42);
    assert!(p2p.free_rider_fraction > 0.6 && p2p.free_rider_fraction < 0.8);
    assert!(p2p.top1_percent_response_share > 0.3);

    let scrip =
        bne_core::scrip::Economy::new(&bne_core::scrip::EconomyConfig::homogeneous(40, 8, 20_000))
            .run(5);
    assert!(scrip.efficiency > 0.9);
}
