//! Sync equals async at lockstep, scenario by scenario: under
//! `NetProfile::lockstep()` the event-runtime scenarios of `bne-net`
//! return exactly the per-replica `ProtocolStats` of the `SyncNetwork`
//! scenarios of `bne-byzantine`.
//!
//! `net_runtime.rs` checks the round adapter on raw process sets; this
//! checks the whole scenario path on top of it — the seeded replica
//! draw, the scheduler's Byzantine set and the scorer — so the draw
//! order cannot drift between the two engines.

use bne_core::byzantine::adversary::FaultyBehavior;
use bne_core::byzantine::scenario::{
    BroadcastCell, BroadcastScenario, PhaseKingCell, PhaseKingScenario,
};
use bne_core::net::scenario::{AsyncBroadcastCell, AsyncPhaseKingCell};
use bne_core::net::{AsyncBroadcastScenario, AsyncPhaseKingScenario, NetProfile};
use bne_core::sim::Scenario;

#[test]
fn phase_king_sync_equals_async_at_lockstep() {
    let behaviors = [
        FaultyBehavior::Equivocate { seed: 3 },
        FaultyBehavior::RandomNoise { seed: 3 },
        FaultyBehavior::Garbage { seed: 3 },
    ];
    for (n, t) in [(6, 1), (9, 2), (13, 3)] {
        for behavior in &behaviors {
            for unanimous_start in [true, false] {
                let sync = PhaseKingCell {
                    n,
                    t,
                    behavior: behavior.clone(),
                    unanimous_start,
                };
                let lockstep = AsyncPhaseKingCell {
                    n,
                    t,
                    behavior: behavior.clone(),
                    unanimous_start,
                    net: NetProfile::lockstep(),
                };
                for seed in 0..64 {
                    assert_eq!(
                        PhaseKingScenario.run(&sync, seed),
                        AsyncPhaseKingScenario.run(&lockstep, seed),
                        "phase king n={n} t={t} {behavior:?} unanimous={unanimous_start} seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn dolev_strong_sync_equals_async_at_lockstep() {
    for (n, t) in [(4, 1), (5, 2), (6, 2), (7, 3)] {
        for equivocating_sender in [false, true] {
            let sync = BroadcastCell {
                n,
                t,
                equivocating_sender,
            };
            let lockstep = AsyncBroadcastCell {
                n,
                t,
                equivocating_sender,
                net: NetProfile::lockstep(),
            };
            for seed in 0..32 {
                assert_eq!(
                    BroadcastScenario.run(&sync, seed),
                    AsyncBroadcastScenario.run(&lockstep, seed),
                    "dolev-strong n={n} t={t} equivocating={equivocating_sender} seed={seed}"
                );
            }
        }
    }
}
