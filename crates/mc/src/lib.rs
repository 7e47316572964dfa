//! # bne-mc
//!
//! A schedule-space **model checker** and **adversary synthesizer** over
//! the [`bne_net`] event runtime.
//!
//! The experiments of e20–e22 *sample* the schedule space: they draw
//! random interleavings (or one canned rushing adversary) and report
//! statistics. This crate replaces the scheduler with a **choice-point
//! enumerator**: at every state the explorer asks the runtime for its
//! enabled-event set ([`bne_net::EventNet::enabled_events`]), takes
//! each choice as an undoable step ([`bne_net::EventNet::step_undoable`],
//! taken back by [`bne_net::EventNet::undo`] on the way back), and walks
//! the *entire* reachable state graph of a small model. The
//! same machinery enumerates bounded nondeterminism inside the protocols
//! — Ben-Or coin flips and Byzantine lies — through the
//! [`bne_byzantine::choice::ChoiceTap`] scripting layer, so a verdict
//! quantifies over schedules × coins × lies, not just schedules.
//!
//! The pieces:
//!
//! * [`words`] — canonical word encodings ([`words::McWords`]) turning
//!   messages into the exact words a state key is interned from (hashes
//!   only index the interner; a hit is confirmed word for word, since a
//!   collision could otherwise prune a reachable state and void a
//!   "proven" verdict);
//! * [`property`] — the [`property::Property`] trait checked at every
//!   explored state, with the stock agreement / validity instances for
//!   reliable broadcast, consensus and oral-messages runs;
//! * [`explorer`] — the depth-first [`explorer::Explorer`] with exact
//!   visited-state deduplication and a sound per-process **partial-order
//!   reduction** (one ample dependency class per step);
//! * [`liar`] — [`liar::BrachaLiar`], a Byzantine reliable-broadcast
//!   participant whose lies are drawn from the choice tap, so the
//!   explorer searches the lie space instead of fixing one adversary
//!   up front (superseding the colluding-ledger construction of e17);
//! * [`trace`] — replayable [`trace::CounterexampleTrace`]s: a violation
//!   serializes to JSON and re-executes deterministically on the
//!   *production* [`bne_net::EventNet`] (the regression corpus under
//!   `tests/corpus/`);
//! * [`scenario`] — the named scenario registry binding traces back to
//!   runnable networks, plus the stock checkable models (Bracha with and
//!   without a liar, tap-coin Ben-Or, crash-budget Paxos);
//! * [`synth`] — the budgeted worst-case [`synth::Synthesizer`]
//!   searching schedule × lie space for the schedule that maximizes a
//!   badness score (decision time, rounds), seeded with a rush-imitating
//!   rollout so it never scores below the canned
//!   [`bne_net::SchedulerPolicy::AdversarialRush`] heuristic expressed
//!   as a rollout policy.
//!
//! # Why this matters for the paper
//!
//! Halpern's mediator-implementation results are *worst-case* claims:
//! cheap talk implements the mediator **whatever** the adversary and the
//! asynchrony do. Sampling can only ever falsify such a claim; the
//! explorer can also *prove* it for concrete small models (n = 4, t = 1)
//! — and when a protocol is mutated below its quorum bounds, it produces
//! a minimal, replayable witness instead of a statistical regression.
//!
//! # Quick start
//!
//! ```
//! use bne_mc::scenario::{bracha_net, BrachaParams};
//! use bne_mc::explorer::{ExploreConfig, Explorer, Verdict};
//!
//! // Correct Bracha, n = 4, all honest: prove RB agreement + validity
//! // over every delivery schedule. (The honest protocol is confluent,
//! // so the scenario config lets the explorer collapse the schedule
//! // space; with a liar in the model the proof runs at n = 3.)
//! let params = BrachaParams::new(4, 1, 1);
//! let (net, tap) = bracha_net(&params);
//! let report = Explorer::new(net, tap, params.properties(), params.explore_config()).run();
//! assert!(matches!(report.verdict, Verdict::Proven));
//!
//! // The same model with a liar and the ready-amplification quorum
//! // lowered from t+1 to t: the explorer finds a validity violation
//! // and emits a replayable counterexample.
//! let buggy = BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3);
//! let (net, tap) = bracha_net(&buggy);
//! let report = Explorer::new(net, tap, buggy.properties(), buggy.explore_config()).run();
//! assert!(matches!(report.verdict, Verdict::Violated(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
mod intern;
pub mod json;
pub mod liar;
pub mod property;
pub mod scenario;
pub mod synth;
pub mod trace;
pub mod words;

pub use explorer::{Choice, ExploreConfig, ExploreReport, Explorer, Verdict};
pub use liar::BrachaLiar;
pub use property::{Agreement, Property, StateView, Validity, Violation};
pub use scenario::{
    ben_or_net, bracha_net, paxos_net, replay_trace, BenOrParams, BrachaParams, PaxosParams,
    ReplayReport,
};
pub use synth::{Badness, SynthConfig, SynthOutcome, Synthesizer};
pub use trace::CounterexampleTrace;
pub use words::McWords;
