//! Timing shells around the public layer entry points, and the spans they
//! record into.
//!
//! Nothing here reaches inside a library: every span wraps a call the
//! benchmark makes (or hands to a library as a trait object) through the
//! crate's public API. The untraced run builds no shell, so it pays
//! nothing for them — except the audit's payoff-query shell, whose query
//! count `secondary_per_s` needs. The traced run wraps the same inputs
//! and is gated on producing bit-identical outputs.

use crate::ratio;
use bne_byzantine::ProcId;
use bne_games::backend::{PayoffBackend, ProfileView};
use bne_games::{PlayerId, Utility};
use bne_net::{AsyncProcess, DurableState, NetCtx};
use bne_sim::{Merge, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Call count and accumulated wall time of one layer boundary. The
/// counters are statistics that publish no other data, hence `Relaxed`.
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    const fn new() -> Self {
        Span {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// Runs `f`, charging its wall time and one call to this span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(t0.elapsed().as_nanos() as u64);
        r
    }

    fn add(&self, nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }
}

pub static ON_MESSAGE: Span = Span::new();
pub static ON_TIMER: Span = Span::new();
pub static FORK: Span = Span::new();
pub static STATE_WORDS: Span = Span::new();
/// `quiescent`, `absorbs` and `timer_absorbed`: the partial-order
/// reduction's questions to the protocol.
pub static POR_QUERY: Span = Span::new();
pub static REPLICA: Span = Span::new();
pub static MERGE: Span = Span::new();
pub static QUERY: Span = Span::new();

/// Per-replica wall times in nanoseconds, for the replica percentiles.
static REPLICA_NANOS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Zeroes every span before a traced batch.
pub fn reset() {
    for span in [
        &ON_MESSAGE,
        &ON_TIMER,
        &FORK,
        &STATE_WORDS,
        &POR_QUERY,
        &REPLICA,
        &MERGE,
        &QUERY,
    ] {
        span.reset();
    }
    replica_nanos().clear();
}

fn replica_nanos() -> std::sync::MutexGuard<'static, Vec<u64>> {
    REPLICA_NANOS
        .lock()
        .expect("no thread panics while holding the replica-time buffer")
}

/// The `q`-quantile of the recorded replica times, in nanoseconds.
fn replica_quantile(q: f64) -> f64 {
    let mut times = replica_nanos();
    if times.is_empty() {
        return 0.0;
    }
    times.sort_unstable();
    let idx = ((times.len() - 1) as f64 * q).round() as usize;
    times[idx] as f64
}

/// The engine's per-layer metrics for a traced phase of `wall` seconds on
/// `workers` threads: shares are of the workers' capacity, `wall × workers`.
pub fn sim_layers(wall: f64, workers: usize) -> Vec<(&'static str, f64)> {
    let capacity = wall * workers as f64;
    vec![
        ("sim.replica.calls", REPLICA.calls() as f64),
        ("sim.replica.frac", REPLICA.secs() / capacity),
        (
            "sim.replica.per_s",
            ratio(REPLICA.calls() as f64, REPLICA.secs()),
        ),
        (
            "sim.replica.p99_over_p50",
            ratio(replica_quantile(0.99), replica_quantile(0.5)),
        ),
        ("sim.merge.calls", MERGE.calls() as f64),
        ("sim.merge.frac", MERGE.secs() / capacity),
        ("sim.busy_frac", (REPLICA.secs() + MERGE.secs()) / capacity),
    ]
}

/// A protocol participant wrapped so that every callback the runtime and
/// the explorer make is charged to its span.
pub struct TimedProcess<M> {
    inner: Box<dyn AsyncProcess<Msg = M>>,
}

impl<M: Clone + 'static> TimedProcess<M> {
    pub fn boxed(inner: Box<dyn AsyncProcess<Msg = M>>) -> Box<dyn AsyncProcess<Msg = M>> {
        Box::new(TimedProcess { inner })
    }
}

impl<M: Clone + 'static> AsyncProcess for TimedProcess<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut NetCtx<M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, src: ProcId, msg: M, ctx: &mut NetCtx<M>) {
        ON_MESSAGE.time(|| self.inner.on_message(src, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<M>) {
        ON_TIMER.time(|| self.inner.on_timer(timer, ctx));
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut NetCtx<M>) {
        self.inner.on_recover(ctx);
    }

    fn save_durable(&self) -> Option<DurableState> {
        self.inner.save_durable()
    }

    fn restore_durable(&mut self, state: &DurableState) {
        self.inner.restore_durable(state);
    }

    fn decision(&self) -> Option<u64> {
        self.inner.decision()
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = M>>> {
        FORK.time(|| self.inner.fork()).map(TimedProcess::boxed)
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        STATE_WORDS.time(|| self.inner.state_words())
    }

    fn quiescent(&self) -> bool {
        POR_QUERY.time(|| self.inner.quiescent())
    }

    fn absorbs(&self, src: ProcId, msg: &M) -> bool {
        POR_QUERY.time(|| self.inner.absorbs(src, msg))
    }

    fn timer_absorbed(&self, timer: u64) -> bool {
        POR_QUERY.time(|| self.inner.timer_absorbed(timer))
    }
}

/// A scenario whose replica runs and outcome merges are charged to the
/// `REPLICA` and `MERGE` spans.
pub struct TimedScenario<S>(pub S);

/// An outcome whose [`Merge::merge`] is charged to the `MERGE` span.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedOutcome<O>(pub O);

impl<O: Merge> Merge for TimedOutcome<O> {
    fn merge(&mut self, other: &Self) {
        MERGE.time(|| self.0.merge(&other.0));
    }
}

impl<S: Scenario> Scenario for TimedScenario<S> {
    type Config = S::Config;
    type Outcome = TimedOutcome<S::Outcome>;

    fn run(&self, config: &S::Config, seed: u64) -> Self::Outcome {
        let t0 = Instant::now();
        let outcome = self.0.run(config, seed);
        let nanos = t0.elapsed().as_nanos() as u64;
        REPLICA.add(nanos);
        replica_nanos().push(nanos);
        TimedOutcome(outcome)
    }
}

/// A payoff backend whose queries are charged to the `QUERY` span.
pub struct TimedBackend<'b, B>(pub &'b B);

impl<B: PayoffBackend> PayoffBackend for TimedBackend<'_, B> {
    fn num_players(&self) -> usize {
        self.0.num_players()
    }

    fn num_actions(&self, player: PlayerId) -> usize {
        self.0.num_actions(player)
    }

    fn payoff(&self, player: PlayerId, view: &ProfileView<'_>) -> Utility {
        QUERY.time(|| self.0.payoff(player, view))
    }

    fn payoff_bounds(&self) -> (Utility, Utility) {
        self.0.payoff_bounds()
    }

    fn payoffs_into(&self, view: &ProfileView<'_>, out: &mut [Utility]) {
        QUERY.time(|| self.0.payoffs_into(view, out));
    }

    fn neighborhood(&self, player: PlayerId) -> Option<&[PlayerId]> {
        self.0.neighborhood(player)
    }
}
