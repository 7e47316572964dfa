//! # bne-sim
//!
//! The deterministic parallel Monte Carlo scenario engine of the workspace.
//!
//! Halpern's solution concepts are things you *run at scale*: scrip
//! economies with thousands of agents, Byzantine protocols under
//! adversarial schedules, machine-game tournaments. Their interesting
//! properties only emerge from large ensembles of seeded runs, and before
//! this crate each workload had its own bespoke sequential loop. `bne-sim`
//! carries the profile engine's fan-out rule (`bne_games::parallel`) from
//! *profile sweeps* to *replica sweeps*:
//!
//! * a [`Scenario`] trait — `(config, seed) → outcome`, with outcomes that
//!   [`Merge`] into streaming aggregates instead of being stored;
//! * a [`SimRunner`] — fans a parameter grid × replica count, one replica
//!   per unit of work, across `std::thread::scope` workers, with
//!   per-replica seeds from the bijective [`derive_seed`] mix and a
//!   **fixed merge structure** ([`REPLICA_BLOCK`]) that makes sequential
//!   and parallel aggregation bit-identical;
//! * [`StreamingStats`] / [`Histogram`] — O(1)-per-replica accumulators
//!   (count/mean/variance/min/max and fixed-bucket distributions);
//! * [`json`] — the workspace's one JSON reader/writer, shared by the
//!   bench reports, the model checker's traces and the event runtime's
//!   Chrome trace export.
//!
//! Scenario implementations live next to the simulators they wrap:
//! `bne_scrip::scenario`, `bne_p2p::scenario`, `bne_byzantine::scenario`,
//! `bne_machine::scenario` and `bne_net::scenario` (the async
//! network-runtime sweeps). See `benches/scenario_engine.rs` for the
//! legacy-loop vs engine comparison recorded in `BENCH_2.json`, and
//! `benches/net_engine.rs` (`BENCH_3.json`) for the sync-vs-async runtime
//! comparison gated on bit-identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod runner;
mod stats;

pub use runner::{canonical_fold, derive_seed, CellResult, Scenario, SimRunner, REPLICA_BLOCK};
pub use stats::{Histogram, Merge, StreamingStats};
