//! Pins the event runtime's allocation-free message path and its reuse
//! of a dropped net's parts.
//!
//! A counting global allocator tallies the allocations each thread makes
//! (the counter is a `const`-initialised thread-local, so tests running
//! in parallel do not disturb each other). A warm-up net runs first; a
//! second net with the same configuration on the same thread then takes
//! over the parts the first one left behind, and its whole `run` must
//! allocate nothing for a plain-data protocol that both unicasts and
//! multicasts. Building, running and dropping it allocates only the two
//! buffers typed by its message, each once at its final size.

use bne_core::net::{
    AsyncProcess, EventNet, LatencyModel, NetConfig, NetCtx, RetryAdapter, RetryMsg, RetryPolicy,
    SchedulerPolicy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// made by the calling thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A plain-data message: no drop glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Round(u64),
    Reply(u64),
}

/// Process 0 multicasts a round number to every peer, each peer answers
/// with a unicast, and after a full round of answers process 0 multicasts
/// the next round, `rounds` times. At most `n − 1` events are ever in
/// flight, so the event arena reaches its size during construction.
struct Rounds {
    rounds: u64,
    replies: usize,
    last: Option<u64>,
}

impl AsyncProcess for Rounds {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut NetCtx<Msg>) {
        if ctx.id() == 0 {
            ctx.multicast(1..ctx.n(), Msg::Round(0));
        }
    }

    fn on_message(&mut self, src: usize, msg: Msg, ctx: &mut NetCtx<Msg>) {
        match msg {
            Msg::Round(round) => {
                self.last = Some(round);
                ctx.send(src, Msg::Reply(round));
            }
            Msg::Reply(round) => {
                self.replies += 1;
                if self.replies == ctx.n() - 1 {
                    self.replies = 0;
                    self.last = Some(round);
                    if round + 1 < self.rounds {
                        ctx.multicast(1..ctx.n(), Msg::Round(round + 1));
                    }
                }
            }
        }
    }

    fn decision(&self) -> Option<u64> {
        self.last
    }
}

const N: usize = 6;

fn configs() -> [(&'static str, NetConfig); 2] {
    let fifo = NetConfig {
        latency: LatencyModel::Constant(1),
        ..NetConfig::lockstep(7)
    };
    let random = NetConfig {
        scheduler: SchedulerPolicy::RandomInterleave { seed: 3, jitter: 2 },
        ..fifo.clone()
    };
    [("fifo", fifo), ("random", random)]
}

fn rounds_net(rounds: u64, cfg: &NetConfig) -> EventNet<Msg> {
    let procs: Vec<Box<dyn AsyncProcess<Msg = Msg>>> = (0..N)
        .map(|_| {
            Box::new(Rounds {
                rounds,
                replies: 0,
                last: None,
            }) as _
        })
        .collect();
    EventNet::new(procs, cfg.clone())
}

#[test]
fn a_warm_net_runs_a_plain_data_protocol_without_allocating() {
    const ROUNDS: u64 = 200;
    for (name, cfg) in configs() {
        let (mut warm, built) = allocations(|| rounds_net(ROUNDS, &cfg));
        assert!(
            built > 0,
            "{name}: the counter sees this thread's allocations"
        );
        assert!(warm.run(1_000_000));
        drop(warm);
        let mut net = rounds_net(ROUNDS, &cfg);
        let (drained, allocated) = allocations(|| net.run(1_000_000));
        assert!(drained, "{name}: the queue drains");
        let stats = net.stats();
        assert_eq!(stats.messages_delivered, 2 * (N - 1) * ROUNDS as usize);
        assert_eq!(net.decisions(), vec![Some(ROUNDS - 1); N], "{name}");
        assert_eq!(allocated, 0, "{name}: {allocated} allocations in run");
    }
}

#[test]
fn retried_plain_data_allocates_nothing_per_message_once_warm() {
    // the retry tables start empty in every net, so each net allocates
    // while they warm up; past that, more rounds must cost no more
    // allocations (the first, long run warms this thread's spare wheel)
    let run_allocations = |rounds: u64, cfg: &NetConfig| {
        let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<Msg>>>> = (0..N)
            .map(|_| {
                let inner = Rounds {
                    rounds,
                    replies: 0,
                    last: None,
                };
                Box::new(RetryAdapter::new(inner, RetryPolicy::default())) as _
            })
            .collect();
        let mut net = EventNet::new(procs, cfg.clone());
        let (drained, allocated) = allocations(|| net.run(1_000_000));
        assert!(drained);
        assert_eq!(net.decisions(), vec![Some(rounds - 1); N]);
        allocated
    };
    let fifo = &configs()[0].1;
    run_allocations(400, fifo);
    let short = run_allocations(100, fifo);
    let long = run_allocations(400, fifo);
    assert_eq!(short, long, "allocations grew with the number of messages");
}

/// The buffers a net allocates for itself even on a warm thread: its
/// message slab and its staged sends hold values of the message type,
/// which the thread's spare cannot name, so only their sizes carry over
/// and each is allocated once per net.
const MESSAGE_BUFFERS: u64 = 2;

thread_local! {
    /// Allocations made inside process callbacks, which belong to the
    /// processes rather than to the runtime.
    static IN_CALLBACKS: Cell<u64> = const { Cell::new(0) };
}

/// A process whose callbacks' allocations are set aside, so that the
/// count left over is the runtime's own.
struct Uncounted<P>(P);

impl<P> Uncounted<P> {
    fn aside<T>(f: impl FnOnce() -> T) -> T {
        let (out, n) = allocations(f);
        IN_CALLBACKS.with(|c| c.set(c.get() + n));
        out
    }
}

impl<P: AsyncProcess> AsyncProcess for Uncounted<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut NetCtx<P::Msg>) {
        Self::aside(|| self.0.on_start(ctx));
    }

    fn on_message(&mut self, src: usize, msg: P::Msg, ctx: &mut NetCtx<P::Msg>) {
        Self::aside(|| self.0.on_message(src, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<P::Msg>) {
        Self::aside(|| self.0.on_timer(timer, ctx));
    }

    fn decision(&self) -> Option<u64> {
        self.0.decision()
    }
}

/// Builds, runs and drops one net of `procs` on `cfg`, returning the
/// allocations the runtime made for it outside the process callbacks.
fn net_lifetime<M: Clone>(procs: Vec<Box<dyn AsyncProcess<Msg = M>>>, cfg: NetConfig) -> u64 {
    let before = IN_CALLBACKS.with(Cell::get);
    let ((), total) = allocations(|| {
        let mut net = EventNet::new(procs, cfg);
        assert!(net.run(1_000_000), "the queue drains");
        assert!(net.decision_times().iter().all(Option::is_some));
    });
    total - (IN_CALLBACKS.with(Cell::get) - before)
}

fn rounds_procs(rounds: u64) -> Vec<Box<dyn AsyncProcess<Msg = Msg>>> {
    (0..N)
        .map(|_| {
            let process = Rounds {
                rounds,
                replies: 0,
                last: None,
            };
            Box::new(Uncounted(process)) as _
        })
        .collect()
}

fn retried_procs(rounds: u64) -> Vec<Box<dyn AsyncProcess<Msg = RetryMsg<Msg>>>> {
    (0..N)
        .map(|_| {
            let inner = Rounds {
                rounds,
                replies: 0,
                last: None,
            };
            let adapter = RetryAdapter::new(inner, RetryPolicy::default());
            Box::new(Uncounted(adapter)) as _
        })
        .collect()
}

#[test]
fn a_warm_thread_builds_runs_and_drops_a_net_from_the_last_ones_parts() {
    // a thread of its own, so the first net surely finds no spare parts
    std::thread::spawn(warm_lifetimes)
        .join()
        .expect("the lifetimes pass");
}

fn warm_lifetimes() {
    const ROUNDS: u64 = 50;
    let cold = net_lifetime(rounds_procs(ROUNDS), configs()[0].1.clone());
    assert!(
        cold > MESSAGE_BUFFERS,
        "a cold net allocates its parts: {cold}"
    );
    for (name, cfg) in configs() {
        net_lifetime(rounds_procs(ROUNDS), cfg.clone());
        let procs = rounds_procs(ROUNDS);
        let warm = net_lifetime(procs, cfg.clone());
        assert_eq!(warm, MESSAGE_BUFFERS, "{name}: {warm} allocations");
        // and again, with a longer run: nothing grows with the events
        let procs = rounds_procs(4 * ROUNDS);
        let warm = net_lifetime(procs, cfg);
        assert_eq!(warm, MESSAGE_BUFFERS, "{name}: {warm} allocations");
    }
    // a retry-wrapped protocol: the adapters' own tables warm up inside
    // their callbacks; what the runtime allocates around them is the same
    let fifo = configs()[0].1.clone();
    net_lifetime(retried_procs(ROUNDS), fifo.clone());
    let procs = retried_procs(ROUNDS);
    let warm = net_lifetime(procs, fifo);
    assert_eq!(warm, MESSAGE_BUFFERS, "retry: {warm} allocations");
}
