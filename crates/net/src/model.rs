//! The configuration surface of the event-driven network: latency models,
//! scheduler policies, and link faults.
//!
//! Everything here is *data*: a [`NetConfig`] plus a seed fully determines
//! an execution of [`crate::runtime::EventNet`]. The RNG streams driving
//! latency sampling, drop sampling and scheduler jitter are derived from
//! the config seed via the bijective [`bne_sim::derive_seed`] mix, so no
//! two streams ever alias and replicas with different seeds are
//! statistically independent.

use bne_byzantine::ProcId;
use rand::{Rng, RngExt};
use std::collections::BTreeSet;

/// How long a message spends in flight, in virtual ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks (0 = instantaneous).
    Constant(u64),
    /// Uniformly distributed latency in `min..=max`.
    UniformJitter {
        /// Minimum latency in ticks.
        min: u64,
        /// Maximum latency in ticks (inclusive).
        max: u64,
    },
    /// A heavy-tailed model: latency starts at `base` and repeatedly
    /// doubles with probability `tail_prob` (capped at `max_doublings`),
    /// giving occasional stragglers orders of magnitude slower than the
    /// typical message — the classic long-tail behavior of real networks.
    HeavyTail {
        /// Typical latency in ticks.
        base: u64,
        /// Probability of each successive doubling.
        tail_prob: f64,
        /// Upper bound on the number of doublings.
        max_doublings: u32,
    },
}

impl LatencyModel {
    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match *self {
            LatencyModel::Constant(ticks) => format!("const({ticks})"),
            LatencyModel::UniformJitter { min, max } => format!("uniform({min}..={max})"),
            LatencyModel::HeavyTail { base, .. } => format!("heavy-tail(base={base})"),
        }
    }

    /// Samples one message latency. [`LatencyModel::Constant`] draws
    /// nothing from the RNG, so switching models never perturbs unrelated
    /// streams in the zero-latency lockstep gate.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            LatencyModel::Constant(ticks) => ticks,
            LatencyModel::UniformJitter { min, max } => {
                debug_assert!(min <= max, "empty latency range");
                rng.random_range(min..=max)
            }
            LatencyModel::HeavyTail {
                base,
                tail_prob,
                max_doublings,
            } => {
                let mut latency = base.max(1);
                for _ in 0..max_doublings {
                    if rng.random_bool(tail_prob) {
                        latency = latency.saturating_mul(2);
                    } else {
                        break;
                    }
                }
                latency
            }
        }
    }
}

/// Who controls message *ordering* (on top of the latency model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Messages are delivered in send order at `send_time + latency` —
    /// with [`LatencyModel::Constant`]`(0)` this reproduces the lockstep
    /// [`bne_byzantine::SyncNetwork`] bit-identically (the property the
    /// equality tests and the bench gate assert).
    Fifo,
    /// A seeded-random interleaving: every delivery gets a random
    /// tiebreak, so same-tick messages arrive in adversary-free but
    /// unpredictable order, and an extra jitter of `0..=jitter` ticks.
    /// The scheduler's RNG stream is derived from `seed` via
    /// [`bne_sim::derive_seed`], independent of the latency/drop stream.
    RandomInterleave {
        /// Seed of the scheduler's private RNG stream.
        seed: u64,
        /// Maximum extra delay added to any message.
        jitter: u64,
    },
    /// A rushing adversary: messages *from* the listed processes are
    /// delivered instantly (latency 0, ahead of every same-tick honest
    /// delivery), while honest messages are delayed by an extra
    /// `honest_delay` ticks. This is the classical scheduler that lets
    /// Byzantine processes speak last in a round and first in the next.
    AdversarialRush {
        /// The processes whose messages are rushed.
        byzantine: BTreeSet<ProcId>,
        /// Extra delay imposed on every honest message.
        honest_delay: u64,
    },
}

/// A network partition active over a virtual-time window: messages
/// crossing the cut (one endpoint inside `group`, the other outside)
/// while `cut_at ≤ now < heal_at` are dropped. The default window starts
/// at time 0 ([`Partition::until`]); [`Partition::window`] places the cut
/// mid-execution, which is what the e19 duration × heal-time sweeps use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub group: BTreeSet<ProcId>,
    /// First tick at which the cut is active.
    pub cut_at: u64,
    /// First tick at which cross-cut messages get through again.
    pub heal_at: u64,
}

impl Partition {
    /// A partition active from time 0 until `heal_at` (the pre-window
    /// behavior).
    pub fn until(group: BTreeSet<ProcId>, heal_at: u64) -> Self {
        Partition {
            group,
            cut_at: 0,
            heal_at,
        }
    }

    /// A partition active over `cut_at..heal_at`.
    pub fn window(group: BTreeSet<ProcId>, cut_at: u64, heal_at: u64) -> Self {
        Partition {
            group,
            cut_at,
            heal_at,
        }
    }

    /// Duration of the outage window in ticks.
    pub fn duration(&self) -> u64 {
        self.heal_at.saturating_sub(self.cut_at)
    }

    /// Whether a message `src → dst` sent at `now` is severed by this
    /// partition.
    pub fn severs(&self, src: ProcId, dst: ProcId, now: u64) -> bool {
        (self.cut_at..self.heal_at).contains(&now)
            && self.group.contains(&src) != self.group.contains(&dst)
    }
}

/// Which data structure backs the [`crate::runtime::EventNet`] event
/// queue.
///
/// Both implementations realize the **same total order** on events —
/// `(virtual time, tiebreak, sequence number)` — so executions are
/// bit-identical between them: same traces, same decisions, same
/// decision times, same statistics. The property tests in
/// `tests/tests/net_queue.rs` and the `net_engine` bench gate assert
/// exactly this; the only difference is speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueImpl {
    /// A bucketed timing wheel keyed by virtual tick, with an overflow
    /// heap for events beyond the wheel horizon. Near-future events (the
    /// overwhelmingly common case in discrete virtual time) cost O(1)
    /// amortized; this is the default and the fast path.
    #[default]
    Wheel,
    /// The original global binary heap — the reference implementation and
    /// escape hatch. O(log n) per event with full event keys; kept so the
    /// wheel can always be differentially tested against it.
    Heap,
}

impl QueueImpl {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            QueueImpl::Wheel => "wheel",
            QueueImpl::Heap => "heap",
        }
    }
}

/// Link-level faults: iid message loss and an optional healing partition.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability that any individual message is silently dropped.
    pub drop_prob: f64,
    /// An optional partition (see [`Partition`]).
    pub partition: Option<Partition>,
}

impl LinkFaults {
    /// A perfectly reliable link layer.
    pub fn none() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            partition: None,
        }
    }

    /// iid loss with the given probability, no partition.
    pub fn lossy(drop_prob: f64) -> Self {
        LinkFaults {
            drop_prob,
            partition: None,
        }
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::none()
    }
}

/// When a planned process crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Fires once the process has handled this many events (message
    /// deliveries plus timer firings; `on_start` does not count).
    /// `AfterEvents(u64::MAX)` therefore never fires — a plan using it is
    /// bit-identical to a fault-free run.
    AfterEvents(u64),
    /// Fires at the given virtual time. `AtTime(0)` crashes the process
    /// before `on_start` runs.
    AtTime(u64),
}

/// One planned crash (and optional recovery) of one process.
///
/// Each fault fires at most once. A fault whose `recover_at` is `None`
/// is a crash-stop: the process never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessFault {
    /// Which process crashes.
    pub proc: ProcId,
    /// When the crash fires.
    pub trigger: CrashTrigger,
    /// Virtual time at which the process recovers (its durable state is
    /// restored and `on_recover` runs); `None` means crash-stop. A
    /// recovery time earlier than the crash time recovers immediately
    /// after the crash fires.
    pub recover_at: Option<u64>,
}

/// The unified fault surface of one execution: link faults (iid loss,
/// partitions) plus a plan of process crashes and recoveries, built in
/// fluent style:
///
/// ```
/// use bne_net::{FaultPlan, Partition};
/// let plan = FaultPlan::lossy(0.1)
///     .partition(Partition::window([0].into_iter().collect(), 5, 20))
///     .crash(2, 8)        // process 2 halts after handling 8 events
///     .recover_at(60)     // ... and recovers at virtual time 60
///     .crash_at_start(3); // process 3 never runs at all
/// assert!(plan.has_process_faults());
/// ```
///
/// Existing [`LinkFaults`] values convert losslessly:
/// `NetConfig { faults: LinkFaults::lossy(0.1).into(), .. }`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Link-level faults (loss, partitions).
    pub link: LinkFaults,
    /// Planned process crashes/recoveries, enforced by the runtime.
    pub process: Vec<ProcessFault>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// iid link loss with the given probability, no process faults.
    pub fn lossy(drop_prob: f64) -> Self {
        FaultPlan {
            link: LinkFaults::lossy(drop_prob),
            ..FaultPlan::default()
        }
    }

    /// Sets the link partition window (builder style).
    pub fn partition(mut self, partition: Partition) -> Self {
        self.link.partition = Some(partition);
        self
    }

    /// Crashes `proc` after it has handled `after_k` events (builder
    /// style). Follow with [`FaultPlan::recover_at`] to schedule its
    /// recovery.
    pub fn crash(mut self, proc: ProcId, after_k: u64) -> Self {
        self.process.push(ProcessFault {
            proc,
            trigger: CrashTrigger::AfterEvents(after_k),
            recover_at: None,
        });
        self
    }

    /// Crashes `proc` at virtual time `time` (builder style).
    pub fn crash_at(mut self, proc: ProcId, time: u64) -> Self {
        self.process.push(ProcessFault {
            proc,
            trigger: CrashTrigger::AtTime(time),
            recover_at: None,
        });
        self
    }

    /// Crashes `proc` before its `on_start` ever runs: a silent
    /// participant, whatever its protocol.
    pub fn crash_at_start(self, proc: ProcId) -> Self {
        self.crash_at(proc, 0)
    }

    /// Schedules the recovery of the most recently added crash (builder
    /// style).
    ///
    /// # Panics
    ///
    /// Panics if no crash has been added yet.
    pub fn recover_at(mut self, time: u64) -> Self {
        self.process
            .last_mut()
            .expect("FaultPlan::recover_at called before any crash was added")
            .recover_at = Some(time);
        self
    }

    /// Whether the plan contains any process faults. Plans without them
    /// are enforced purely at the link layer and are bit-identical to the
    /// pre-crash-model runtime.
    pub fn has_process_faults(&self) -> bool {
        !self.process.is_empty()
    }

    /// The processes this plan crashes and never recovers. Liveness
    /// measurements (did everyone decide?) should quantify over the
    /// complement of this set.
    pub fn permanently_crashed(&self) -> BTreeSet<ProcId> {
        self.process
            .iter()
            .filter(|f| f.recover_at.is_none())
            .map(|f| f.proc)
            .collect()
    }
}

impl From<LinkFaults> for FaultPlan {
    fn from(link: LinkFaults) -> Self {
        FaultPlan {
            link,
            process: Vec::new(),
        }
    }
}

/// Full configuration of one [`crate::runtime::EventNet`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Base seed; every internal RNG stream is derived from it via
    /// [`bne_sim::derive_seed`].
    pub seed: u64,
    /// The in-flight time distribution.
    pub latency: LatencyModel,
    /// The delivery-order policy.
    pub scheduler: SchedulerPolicy,
    /// The fault plan: link faults (loss, partitions) plus planned
    /// process crashes/recoveries (see [`FaultPlan`]). Plain
    /// [`LinkFaults`] values convert via `.into()`.
    pub faults: FaultPlan,
    /// Virtual ticks per protocol round for round-based processes driven
    /// through [`crate::adapter::RoundAdapter`]. Must be ≥ 1; latencies at
    /// or above this make synchronous protocols miss messages, which is
    /// exactly the timing stress the async experiments measure.
    pub round_ticks: u64,
    /// Record a full event trace (see
    /// [`crate::runtime::EventNet::trace`]); used by the determinism
    /// property tests, off by default because traces grow with every
    /// event.
    pub record_trace: bool,
    /// Which queue implementation backs the event core (identical
    /// semantics either way; see [`QueueImpl`]).
    pub queue: QueueImpl,
}

impl NetConfig {
    /// The configuration under which the async runtime is bit-identical
    /// to [`bne_byzantine::SyncNetwork`]: zero latency, FIFO order, no
    /// faults, one tick per round.
    pub fn lockstep(seed: u64) -> Self {
        NetConfig {
            seed,
            latency: LatencyModel::Constant(0),
            scheduler: SchedulerPolicy::Fifo,
            faults: FaultPlan::none(),
            round_ticks: 1,
            record_trace: false,
            queue: QueueImpl::default(),
        }
    }

    /// Sets the fault plan (builder style); accepts a [`FaultPlan`] or a
    /// plain [`LinkFaults`].
    pub fn fault_plan(mut self, plan: impl Into<FaultPlan>) -> Self {
        self.faults = plan.into();
        self
    }

    /// Enables event-trace recording (builder style).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Selects the event-queue implementation (builder style).
    pub fn with_queue(mut self, queue: QueueImpl) -> Self {
        self.queue = queue;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_latency_never_touches_the_rng() {
        let mut a = StdRng::seed_from_u64(5);
        let b = StdRng::seed_from_u64(5);
        assert_eq!(LatencyModel::Constant(7).sample(&mut a), 7);
        // stream untouched: both rngs still agree
        assert_eq!(a, b);
        let _ = LatencyModel::UniformJitter { min: 0, max: 9 }.sample(&mut a);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_jitter_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LatencyModel::UniformJitter { min: 3, max: 11 };
        for _ in 0..200 {
            let l = model.sample(&mut rng);
            assert!((3..=11).contains(&l));
        }
    }

    #[test]
    fn heavy_tail_is_bounded_by_doublings() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LatencyModel::HeavyTail {
            base: 4,
            tail_prob: 0.9,
            max_doublings: 3,
        };
        let mut seen_tail = false;
        for _ in 0..100 {
            let l = model.sample(&mut rng);
            assert!((4..=4 * 8).contains(&l));
            seen_tail |= l > 4;
        }
        assert!(seen_tail, "with p = 0.9 some doubling must occur");
    }

    #[test]
    fn partitions_sever_only_across_the_cut_until_healed() {
        let p = Partition::until([0usize, 1].into_iter().collect(), 10);
        assert!(p.severs(0, 2, 9));
        assert!(p.severs(2, 1, 0));
        assert!(!p.severs(0, 1, 5), "same side is unaffected");
        assert!(!p.severs(2, 3, 5), "same side is unaffected");
        assert!(!p.severs(0, 2, 10), "healed at heal_at");
        assert_eq!(p.duration(), 10);
    }

    #[test]
    fn fault_plan_builder_and_link_conversion() {
        let plan = FaultPlan::lossy(0.25)
            .partition(Partition::until([0usize].into_iter().collect(), 9))
            .crash(1, 4)
            .recover_at(30)
            .crash_at_start(2);
        assert_eq!(plan.link.drop_prob, 0.25);
        assert!(plan.link.partition.is_some());
        assert!(plan.has_process_faults());
        assert_eq!(plan.process.len(), 2);
        assert_eq!(plan.process[0].recover_at, Some(30));
        assert_eq!(plan.process[1].trigger, CrashTrigger::AtTime(0));
        // only the unrecovered crash counts as permanent
        assert_eq!(
            plan.permanently_crashed(),
            [2usize].into_iter().collect::<BTreeSet<_>>()
        );

        let from_link: FaultPlan = LinkFaults::lossy(0.25).into();
        assert_eq!(from_link.link, LinkFaults::lossy(0.25));
        assert!(!from_link.has_process_faults());
        assert!(FaultPlan::none() == FaultPlan::default());
    }

    #[test]
    #[should_panic(expected = "before any crash")]
    fn recover_at_without_a_crash_panics() {
        let _ = FaultPlan::none().recover_at(10);
    }

    #[test]
    fn windowed_partitions_only_sever_inside_the_window() {
        let p = Partition::window([0usize].into_iter().collect(), 4, 9);
        assert!(!p.severs(0, 1, 3), "before the cut");
        assert!(p.severs(0, 1, 4));
        assert!(p.severs(1, 0, 8));
        assert!(!p.severs(0, 1, 9), "healed at heal_at");
        assert_eq!(p.duration(), 5);
        // degenerate window never severs
        let empty = Partition::window([0usize].into_iter().collect(), 9, 4);
        assert!(!empty.severs(0, 1, 6));
        assert_eq!(empty.duration(), 0);
    }
}
