//! Pins the event runtime's allocation-free message path.
//!
//! A counting global allocator tallies the allocations each thread makes
//! (the counter is a `const`-initialised thread-local, so tests running
//! in parallel do not disturb each other). A warm-up net runs first; a
//! second net with the same configuration on the same thread then takes
//! over the first one's timing wheel, and its whole `run` must allocate
//! nothing for a plain-data protocol that both unicasts and multicasts.

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
