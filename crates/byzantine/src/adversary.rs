//! Canned Byzantine behaviors.
//!
//! The paper's reason for caring about immunity is precisely that real
//! systems contain players whose behavior is not explained by the modelled
//! utilities — "faulty computers, a faulty network, ... or a lack of
//! understanding of the game". These process implementations plug into the
//! [`crate::network::SyncNetwork`] (and, through `bne-net`'s round
//! adapter, the async event-driven runtime) anywhere an honest process
//! would, and misbehave in the standard ways used to stress Byzantine
//! agreement protocols.
//!
//! Every stochastic variant carries an **explicit seed** (the same
//! convention as the `bne-sim` engine's `derive_seed`d replica seeds):
//! there is no internally-fixed RNG stream, so scenario code can re-seed
//! adversaries per replica with [`FaultyBehavior::with_seed`] and the
//! adversary's randomness genuinely varies across replicas while staying
//! reproducible. Per-process streams are separated with
//! [`bne_sim::derive_seed`], so two faulty processes sharing one behavior
//! never mirror each other.

use crate::network::{ProcId, Process};
use crate::Value;
use bne_sim::derive_seed;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A Byzantine behavior for protocols whose message type is a plain
/// [`Value`] (the phase-king protocol and other broadcast-style protocols).
#[derive(Debug, Clone)]
pub enum FaultyBehavior {
    /// Sends nothing, ever (a crashed-from-the-start process).
    Silent,
    /// Behaves like an honest broadcaster of its initial value for the first
    /// `after` rounds, then stops (crash fault).
    Crash {
        /// Number of rounds of correct behavior before crashing.
        after: usize,
        /// The value broadcast while alive.
        value: Value,
    },
    /// Broadcasts a fixed value to everyone in every round, regardless of
    /// protocol state.
    FixedValue(Value),
    /// The classic equivocation attack: each round, sends 0 to one half of
    /// the processes and 1 to the other — with the halves drawn freshly
    /// from the seeded stream each round, so the split is not a fixed
    /// pattern protocols could accidentally exploit.
    Equivocate {
        /// RNG seed (explicit, per the `bne-sim` seeding convention).
        seed: u64,
    },
    /// Sends uniformly random bits to every process every round.
    RandomNoise {
        /// RNG seed (explicit, per the `bne-sim` seeding convention).
        seed: u64,
    },
    /// Sends arbitrary garbage values (uniform over all of `u64`) to every
    /// process every round — stresses input validation, not just binary
    /// disagreement.
    Garbage {
        /// RNG seed (explicit, per the `bne-sim` seeding convention).
        seed: u64,
    },
}

impl FaultyBehavior {
    /// Returns a copy with the RNG seed of a stochastic variant replaced
    /// by `seed`; deterministic variants are returned unchanged. Scenario
    /// code calls this with a replica-derived seed so adversary randomness
    /// varies across replicas instead of replaying one fixed stream.
    pub fn with_seed(&self, seed: u64) -> FaultyBehavior {
        match self {
            FaultyBehavior::Equivocate { .. } => FaultyBehavior::Equivocate { seed },
            FaultyBehavior::RandomNoise { .. } => FaultyBehavior::RandomNoise { seed },
            FaultyBehavior::Garbage { .. } => FaultyBehavior::Garbage { seed },
            deterministic => deterministic.clone(),
        }
    }

    /// The explicit seed of a stochastic variant, if any.
    fn seed(&self) -> Option<u64> {
        match self {
            FaultyBehavior::Equivocate { seed }
            | FaultyBehavior::RandomNoise { seed }
            | FaultyBehavior::Garbage { seed } => Some(*seed),
            _ => None,
        }
    }
}

/// A faulty process wrapping a [`FaultyBehavior`]. It never decides — the
/// correctness conditions of Byzantine agreement only constrain the honest
/// processes.
#[derive(Debug)]
pub struct FaultyProcess {
    behavior: FaultyBehavior,
    id: ProcId,
    n: usize,
    rng: StdRng,
}

impl FaultyProcess {
    /// Creates a faulty process with the given behavior.
    pub fn new(behavior: FaultyBehavior) -> Self {
        FaultyProcess {
            behavior,
            id: 0,
            n: 0,
            rng: StdRng::seed_from_u64(0),
        }
    }
}

impl Process for FaultyProcess {
    type Msg = Value;

    fn init(&mut self, id: ProcId, n: usize) {
        self.id = id;
        self.n = n;
        if let Some(seed) = self.behavior.seed() {
            // per-process stream separation via the engine's bijective mix
            self.rng = StdRng::seed_from_u64(derive_seed(seed, id as u64, 0));
        }
    }

    fn round(&mut self, round: usize, _inbox: &[(ProcId, Value)]) -> Vec<(ProcId, Value)> {
        match &self.behavior {
            FaultyBehavior::Silent => Vec::new(),
            FaultyBehavior::Crash { after, value } => {
                if round < *after {
                    (0..self.n).map(|d| (d, *value)).collect()
                } else {
                    Vec::new()
                }
            }
            FaultyBehavior::FixedValue(v) => (0..self.n).map(|d| (d, *v)).collect(),
            FaultyBehavior::Equivocate { .. } => {
                // a fresh half/half split each round (Fisher–Yates on the
                // destination list, first half told 0, second half told 1)
                let mut order: Vec<ProcId> = (0..self.n).collect();
                for i in (1..order.len()).rev() {
                    let j = self.rng.random_range(0..=i);
                    order.swap(i, j);
                }
                let half = self.n / 2;
                let mut out: Vec<(ProcId, Value)> = order
                    .into_iter()
                    .enumerate()
                    .map(|(pos, d)| (d, Value::from(pos >= half)))
                    .collect();
                // deliver in destination order (the network sorts inboxes
                // by sender anyway; this keeps the outbox canonical)
                out.sort_by_key(|(d, _)| *d);
                out
            }
            FaultyBehavior::RandomNoise { .. } => (0..self.n)
                .map(|d| (d, self.rng.random_range(0..2u64)))
                .collect(),
            FaultyBehavior::Garbage { .. } => {
                (0..self.n).map(|d| (d, self.rng.random::<u64>())).collect()
            }
        }
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one_round(behavior: FaultyBehavior, n: usize, round: usize) -> Vec<(ProcId, Value)> {
        let mut p = FaultyProcess::new(behavior);
        p.init(1, n);
        p.round(round, &[])
    }

    #[test]
    fn silent_sends_nothing() {
        assert!(run_one_round(FaultyBehavior::Silent, 5, 0).is_empty());
    }

    #[test]
    fn crash_stops_after_deadline() {
        let b = FaultyBehavior::Crash { after: 2, value: 1 };
        assert_eq!(run_one_round(b.clone(), 4, 1).len(), 4);
        assert!(run_one_round(b, 4, 2).is_empty());
    }

    #[test]
    fn equivocator_splits_the_network() {
        let msgs = run_one_round(FaultyBehavior::Equivocate { seed: 4 }, 6, 0);
        assert_eq!(msgs.len(), 6);
        assert!(msgs.iter().filter(|(_, v)| *v == 0).count() == 3);
        assert!(msgs.iter().filter(|(_, v)| *v == 1).count() == 3);
    }

    #[test]
    fn equivocation_split_varies_with_seed_and_round() {
        let a = run_one_round(FaultyBehavior::Equivocate { seed: 1 }, 8, 0);
        let b = run_one_round(FaultyBehavior::Equivocate { seed: 2 }, 8, 0);
        assert_ne!(a, b, "different seeds must draw different splits");
        let mut p = FaultyProcess::new(FaultyBehavior::Equivocate { seed: 1 });
        p.init(1, 8);
        let r0 = p.round(0, &[]);
        let r1 = p.round(1, &[]);
        assert_ne!(r0, r1, "the split must be redrawn every round");
        assert_eq!(a, r0, "same (seed, id, round) is reproducible");
    }

    #[test]
    fn random_noise_is_reproducible() {
        let a = run_one_round(FaultyBehavior::RandomNoise { seed: 9 }, 8, 0);
        let b = run_one_round(FaultyBehavior::RandomNoise { seed: 9 }, 8, 0);
        assert_eq!(a, b);
        assert!(a.iter().all(|(_, v)| *v < 2));
    }

    #[test]
    fn garbage_sends_out_of_domain_values() {
        let msgs = run_one_round(FaultyBehavior::Garbage { seed: 5 }, 64, 0);
        assert_eq!(msgs.len(), 64);
        // with 64 uniform u64 draws, some value is essentially always
        // outside the protocol's {0, 1} domain
        assert!(msgs.iter().any(|(_, v)| *v > 1));
    }

    #[test]
    fn processes_sharing_a_behavior_do_not_mirror_each_other() {
        let behavior = FaultyBehavior::RandomNoise { seed: 9 };
        let mut a = FaultyProcess::new(behavior.clone());
        let mut b = FaultyProcess::new(behavior);
        a.init(1, 8);
        b.init(2, 8);
        assert_ne!(a.round(0, &[]), b.round(0, &[]));
    }

    #[test]
    fn with_seed_reseeds_only_stochastic_variants() {
        assert!(matches!(
            FaultyBehavior::Equivocate { seed: 1 }.with_seed(9),
            FaultyBehavior::Equivocate { seed: 9 }
        ));
        assert!(matches!(
            FaultyBehavior::Garbage { seed: 1 }.with_seed(9),
            FaultyBehavior::Garbage { seed: 9 }
        ));
        assert!(matches!(
            FaultyBehavior::FixedValue(1).with_seed(9),
            FaultyBehavior::FixedValue(1)
        ));
    }

    #[test]
    fn faulty_processes_never_decide() {
        let mut p = FaultyProcess::new(FaultyBehavior::FixedValue(1));
        p.init(0, 3);
        p.round(0, &[]);
        assert_eq!(p.decision(), None);
    }
}
