//! # bne-byzantine
//!
//! The distributed-computing substrate behind Section 2 of the paper.
//! Halpern's mediator-implementation results (Abraham–Dolev–Gonen–Halpern)
//! are proved by reduction to and from Byzantine agreement: mediators can be
//! implemented by cheap talk when Byzantine agreement is solvable for the
//! corresponding fault budget, and the impossibility bounds reuse the
//! classical `t < n/3` lower bound of Pease, Shostak and Lamport. This crate
//! builds that substrate from scratch:
//!
//! * [`network`] — a deterministic synchronous round-based message-passing
//!   simulator with a [`network::Process`] trait and pluggable Byzantine
//!   behaviors;
//! * [`adversary`] — canned faulty behaviors (crash, silent, random,
//!   equivocating, value-flipping);
//! * [`om`] — the Oral Messages problem OM(m) of Lamport, Shostak and
//!   Pease: configuration, traitor strategies and the majority rule;
//! * [`om_process`] — its one implementation, as message-passing
//!   processes (the EIG formulation), correct for `n > 3t` and runnable
//!   on [`network::SyncNetwork`] and on the async `bne-net` runtime;
//! * [`phase_king`] — the Berman–Garay–Perry phase-king consensus protocol
//!   running on the network simulator, correct for `n > 4t`;
//! * [`broadcast`] — Dolev–Strong authenticated broadcast on top of the
//!   simulated PKI of [`pki`], correct for any `t < n`;
//! * [`pki`] — that toy PKI: per-player signing keys and signature
//!   verification over a non-cryptographic hash;
//! * [`bracha`] — Bracha's echo/ready reliable broadcast as an
//!   **event-driven** quorum state machine (no rounds; runs directly on
//!   the `bne-net` event runtime), correct for `n > 3t`;
//! * [`ben_or`] — Ben-Or's randomized binary consensus with a seeded
//!   per-process coin: the first protocol here whose running time is a
//!   random variable rather than a fixed round count;
//! * [`event`] — the [`event::EventMachine`] trait the event-driven
//!   protocols ([`bracha`], [`ben_or`], [`paxos`], [`hsuc`]) implement,
//!   so one `bne-net` shell runs them all;
//! * [`choice`] — scripted nondeterminism taps ([`choice::ChoiceTap`])
//!   replacing coins and Byzantine lie draws when the `bne-mc` model
//!   checker enumerates them instead of sampling;
//! * [`paxos`] — single-decree Paxos as a ballot/quorum-intersection
//!   state machine, correct for any crash pattern and tolerant of
//!   `f < n/2` crash-recovery faults (no Byzantine behavior);
//! * [`hsuc`] — leader-driven (rotating-coordinator) consensus in the
//!   HSUC style, the `f < n/2` crash-fault counterpart to Paxos with a
//!   predetermined leader per round;
//! * [`mediator_ba`] — the trivial mediator-based solution the paper uses as
//!   the specification ("the general simply sends the mediator his
//!   preference, and the mediator sends it to all the soldiers");
//! * [`properties`] — agreement/validity checking used by the experiment
//!   harnesses (E4 in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod ben_or;
pub mod bracha;
pub mod broadcast;
pub mod choice;
pub mod event;
pub mod hsuc;
pub mod mediator_ba;
pub mod network;
pub mod om;
pub mod om_process;
pub mod paxos;
pub mod phase_king;
pub mod pki;
pub mod properties;
pub mod scenario;

pub use adversary::FaultyBehavior;
pub use ben_or::{BenOrMsg, BenOrSpec, BenOrState};
pub use bracha::{BrachaMsg, BrachaSpec, BrachaState};
pub use choice::{shared_tap, ChoiceTap, SharedTap};
pub use event::EventMachine;
pub use hsuc::{HsucMsg, HsucState};
pub use mediator_ba::mediator_byzantine_agreement;
pub use network::{ProcId, Process, RoundStats, SyncNetwork};
pub use om::{OmConfig, TraitorStrategy};
pub use om_process::{
    om_colluding_process_set, om_process_set, run_om_process, OmColludingTraitorProcess,
    OmCollusion, OmMsg, OmProcess, OmTraitorProcess,
};
pub use paxos::{PaxosMsg, PaxosState};
pub use phase_king::{run_phase_king, PhaseKingProcess};
pub use properties::{check_agreement, check_validity, rb_report, AgreementReport, RbReport};
pub use scenario::{BroadcastScenario, OmScenario, PhaseKingScenario, ProtocolStats};

/// A binary value agreed upon (attack = 1, retreat = 0 in the paper's
/// Byzantine agreement story).
pub type Value = u64;
