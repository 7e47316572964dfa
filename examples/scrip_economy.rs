//! The scrip-system and file-sharing simulators, driven through the
//! `bne-sim` scenario engine: a small parameter grid × seeded replicas per
//! cell, aggregated into streaming statistics (no per-replica storage).
//! The scrip economy reports utility per round; the table prints the
//! total over the horizon.
//!
//! ```text
//! cargo run --release -p bne-examples --bin scrip_economy
//! # the same output from a one-thread replica sweep:
//! BNE_THREADS=1 cargo run --release -p bne-examples --bin scrip_economy
//! ```

use bne_core::p2p::scenario::{sharing_cost_grid, P2pScenario};
use bne_core::p2p::P2pConfig;
use bne_core::scrip::{economy_grid, EconomyScenario};
use bne_core::sim::SimRunner;

fn main() {
    let runner = SimRunner::new(16, 2024);
    println!(
        "scenario engine: {} replicas per grid cell, base seed {}\n",
        runner.replicas(),
        runner.base_seed()
    );

    // The money-supply question: for 40 agents with threshold 8, how much
    // scrip should the system print? Too little starves trade, too much
    // saturates thresholds and kills volunteering.
    let supplies = [1, 2, 5, 8, 12];
    let rounds = 20_000;
    let grid = economy_grid(40, 8, &supplies, &[0.0], &[0.0], rounds);
    println!("scrip money-supply curve (40 agents, threshold 8, 20k rounds):");
    println!(
        "  scrip/agent   efficiency (mean ± std)   [min, max]     rational utility over 20k rounds"
    );
    for result in runner.run(&EconomyScenario, &grid) {
        let eff = &result.outcome.efficiency;
        let util = &result.outcome.rational_utility;
        println!(
            "  {:>11}   {:.3} ± {:.3}             [{:.3}, {:.3}]   {:>8.1}",
            supplies[result.cell],
            eff.mean(),
            eff.std_dev(),
            eff.min(),
            eff.max(),
            util.mean() * rounds as f64
        );
    }

    // The Gnutella free-riding picture, as a replica-averaged cost sweep
    // instead of a single seed-42 run.
    let costs = [0.3, 1.0, 2.5];
    let base = P2pConfig {
        peers: 500,
        queries: 4_000,
        ..P2pConfig::default()
    };
    let grid = sharing_cost_grid(&base, &costs);
    println!("\nfile-sharing cost sweep (500 peers, 4k queries):");
    println!("  cost   free riders      top-1% share");
    for result in runner.run(&P2pScenario, &grid) {
        println!(
            "  {:>4}   {:.3} ± {:.3}    {:.3} ± {:.3}",
            costs[result.cell],
            result.outcome.free_riders.mean(),
            result.outcome.free_riders.std_dev(),
            result.outcome.top1_share.mean(),
            result.outcome.top1_share.std_dev()
        );
    }
    println!(
        "\npaper quotes Adar–Huberman (2000): ~70% free riders, ~50% of responses from the top 1%."
    );
}
