//! Deterministic observability for the event runtime: streaming
//! [`Observer`] hooks, causal/latency metrics, and timeline exporters.
//!
//! # Design
//!
//! The runtime already routes every interesting transition through one
//! trace sink (`Off` or `Record`). This module adds the third sink:
//! a streaming observer attached via
//! [`crate::EventNet::with_observer`], whose hooks fire **in event
//! order** with two enrichments the flat [`crate::TraceEvent`] log
//! never carried:
//!
//! * **causal metadata** — the runtime maintains per-process Lamport
//!   clocks unconditionally (send ticks the sender; a delivery sets the
//!   receiver to `max(local, sender-at-send) + 1`; timer firings and
//!   crash/recover transitions tick the owner), so every hook reports
//!   the acting process's logical clock;
//! * **latency metadata** — each queued delivery carries its send time
//!   and each timer its arming time, so a hook observes queue latency
//!   (`deliver − send`) and timer wait (`fire − arm`) per event.
//!
//! # The zero-perturbation guarantee
//!
//! Attaching any observer yields decisions, decision times, traces and
//! statistics **bit-identical** to a `TraceSink::Off` run: the clocks
//! and timestamps are maintained whether or not anyone observes them,
//! and no RNG stream, ordering key or counter depends on the sink.
//! `tests/tests/net_obs.rs` property-tests this across
//! protocol × scheduler × latency × fault-plan grids, the same way the
//! wheel==heap equivalence is proven. The guarantee covers everything
//! deterministic in the execution; it does *not* cover wall-clock time
//! (observers cost real time — see the `net_obs` bench legs) or any
//! state an observer itself mutates.
//!
//! Observers are `&mut self` hooks on a boxed trait object owned by the
//! runtime. To read results back after a run, attach an
//! `Rc<RefCell<T>>` handle and keep a clone — the blanket impl forwards
//! every hook through the `RefCell`.

use crate::runtime::TraceKind;
use bne_sim::json::Json;
use bne_sim::{Histogram, StreamingStats};
use std::cell::RefCell;
use std::rc::Rc;

/// Streaming hooks over one deterministic execution.
///
/// Every hook has a default no-op body, so an observer implements only
/// what it cares about. Hooks fire in event order, at the same points
/// the trace recorder would push a [`crate::TraceEvent`] (plus the two
/// extra hooks the flat trace never carried: [`Observer::on_decide`]
/// and [`Observer::on_queue_depth`]). Process ids arrive as `u64`,
/// matching the trace encoding.
pub trait Observer {
    /// A process sent a message. `clock` is the sender's Lamport clock
    /// after ticking for the send.
    fn on_send(&mut self, time: u64, src: u64, dst: u64, clock: u64) {
        let _ = (time, src, dst, clock);
    }

    /// A message was delivered. `sent_at` is the virtual time it was
    /// sent (queue latency = `time − sent_at`); `clock` is the
    /// receiver's Lamport clock after the `max(local, sender) + 1`
    /// update.
    fn on_deliver(&mut self, time: u64, src: u64, dst: u64, sent_at: u64, clock: u64) {
        let _ = (time, src, dst, sent_at, clock);
    }

    /// A message was dropped by loss or a partition.
    fn on_drop(&mut self, time: u64, src: u64, dst: u64) {
        let _ = (time, src, dst);
    }

    /// A timer fired. `armed_at` is when it was armed (timer wait =
    /// `time − armed_at`); `clock` is the owner's Lamport clock after
    /// ticking.
    fn on_timer(&mut self, time: u64, proc: u64, timer: u64, armed_at: u64, clock: u64) {
        let _ = (time, proc, timer, armed_at, clock);
    }

    /// A planned crash fired.
    fn on_crash(&mut self, time: u64, proc: u64, clock: u64) {
        let _ = (time, proc, clock);
    }

    /// A planned recovery fired.
    fn on_recover(&mut self, time: u64, proc: u64, clock: u64) {
        let _ = (time, proc, clock);
    }

    /// A delivery or timer addressed to a crashed process was absorbed
    /// (`src`/`dst` as the corresponding deliver or timer hook would
    /// have carried — the ambiguity is inherited from the trace
    /// encoding, see [`crate::TraceKind`]).
    fn on_crash_drop(&mut self, time: u64, src: u64, dst: u64) {
        let _ = (time, src, dst);
    }

    /// A process's [`crate::AsyncProcess::decision`] first became
    /// `Some(value)`.
    fn on_decide(&mut self, time: u64, proc: u64, value: u64) {
        let _ = (time, proc, value);
    }

    /// Virtual time advanced to `time` with `depth` events still
    /// queued — sampled at bucket-drain boundaries (the instant the
    /// previous tick's wheel bucket finished draining), giving a
    /// deterministic queue-depth timeline.
    fn on_queue_depth(&mut self, time: u64, depth: usize) {
        let _ = (time, depth);
    }
}

/// Forwarding impl so callers can attach a shared handle and keep a
/// clone to read results after the run (the runtime is single-threaded
/// and `Rc`-based throughout).
impl<T: Observer> Observer for Rc<RefCell<T>> {
    fn on_send(&mut self, time: u64, src: u64, dst: u64, clock: u64) {
        self.borrow_mut().on_send(time, src, dst, clock);
    }
    fn on_deliver(&mut self, time: u64, src: u64, dst: u64, sent_at: u64, clock: u64) {
        self.borrow_mut().on_deliver(time, src, dst, sent_at, clock);
    }
    fn on_drop(&mut self, time: u64, src: u64, dst: u64) {
        self.borrow_mut().on_drop(time, src, dst);
    }
    fn on_timer(&mut self, time: u64, proc: u64, timer: u64, armed_at: u64, clock: u64) {
        self.borrow_mut()
            .on_timer(time, proc, timer, armed_at, clock);
    }
    fn on_crash(&mut self, time: u64, proc: u64, clock: u64) {
        self.borrow_mut().on_crash(time, proc, clock);
    }
    fn on_recover(&mut self, time: u64, proc: u64, clock: u64) {
        self.borrow_mut().on_recover(time, proc, clock);
    }
    fn on_crash_drop(&mut self, time: u64, src: u64, dst: u64) {
        self.borrow_mut().on_crash_drop(time, src, dst);
    }
    fn on_decide(&mut self, time: u64, proc: u64, value: u64) {
        self.borrow_mut().on_decide(time, proc, value);
    }
    fn on_queue_depth(&mut self, time: u64, depth: usize) {
        self.borrow_mut().on_queue_depth(time, depth);
    }
}

/// Per-kind event counters — one per observer hook, plus decides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Messages sent (valid destination).
    pub sends: u64,
    /// Messages delivered to a live process.
    pub delivers: u64,
    /// Messages dropped by loss or partition.
    pub drops: u64,
    /// Deliveries/timers absorbed by a crashed target.
    pub crash_drops: u64,
    /// Timers fired on a live process.
    pub timers: u64,
    /// Planned crashes fired.
    pub crashes: u64,
    /// Planned recoveries fired.
    pub recoveries: u64,
    /// First decisions observed.
    pub decides: u64,
}

/// The shape of a latency histogram: `buckets` equal-width bins over
/// `[lo, hi)` ticks, with under/overflow counters outside the range
/// (see [`Histogram`]). Histograms built from one spec share a shape, so
/// they merge; [`Histogram`]'s merge panics on shape mismatch by design.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSpec {
    /// Inclusive lower bound, in virtual-time ticks.
    pub lo: f64,
    /// Exclusive upper bound, in virtual-time ticks.
    pub hi: f64,
    /// Number of equal-width bins.
    pub buckets: usize,
}

impl HistogramSpec {
    /// A spec over `[0, hi)` with one bucket per tick (capped at 64
    /// bins) — a sensible default for queue-latency ranges.
    pub fn ticks(hi: u64) -> Self {
        HistogramSpec {
            lo: 0.0,
            hi: hi as f64,
            buckets: (hi as usize).clamp(1, 64),
        }
    }

    /// Builds an empty histogram of this shape.
    pub fn build(&self) -> Histogram {
        Histogram::new(self.lo, self.hi, self.buckets)
    }
}

/// A deterministic metrics observer built on `bne-sim`'s accumulators:
/// per-kind [`EventCounts`], a message-latency [`Histogram`] over all
/// deliveries (plus global [`StreamingStats`]), a timer-wait histogram,
/// and the queue-depth timeline sampled at bucket-drain boundaries.
///
/// Everything it collects is a pure function of the deterministic
/// execution, so two runs of the same `(config, seed)` produce equal
/// metrics.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    counts: EventCounts,
    latency: StreamingStats,
    merged: Histogram,
    timer_wait: Histogram,
    queue_depth: Vec<(u64, usize)>,
}

impl MetricsObserver {
    /// An empty metrics observer, with latency and timer-wait histograms
    /// of the given shape.
    pub fn new(spec: &HistogramSpec) -> Self {
        MetricsObserver {
            counts: EventCounts::default(),
            latency: StreamingStats::new(),
            merged: spec.build(),
            timer_wait: spec.build(),
            queue_depth: Vec::new(),
        }
    }

    /// The per-kind event counters.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Global queue-latency stats (one sample per delivery).
    pub fn latency_stats(&self) -> &StreamingStats {
        &self.latency
    }

    /// The merged (all-process) queue-latency histogram.
    pub fn merged_latency(&self) -> &Histogram {
        &self.merged
    }

    /// Timer-wait (`fire − arm`) histogram across all processes.
    pub fn timer_wait(&self) -> &Histogram {
        &self.timer_wait
    }

    /// The queue-depth timeline: `(time, queued events)` samples taken
    /// each time virtual time advanced.
    pub fn queue_depth(&self) -> &[(u64, usize)] {
        &self.queue_depth
    }
}

impl Observer for MetricsObserver {
    fn on_send(&mut self, _time: u64, _src: u64, _dst: u64, _clock: u64) {
        self.counts.sends += 1;
    }
    fn on_deliver(&mut self, time: u64, _src: u64, _dst: u64, sent_at: u64, _clock: u64) {
        self.counts.delivers += 1;
        let lat = (time - sent_at) as f64;
        self.latency.push(lat);
        self.merged.record(lat);
    }
    fn on_drop(&mut self, _time: u64, _src: u64, _dst: u64) {
        self.counts.drops += 1;
    }
    fn on_timer(&mut self, time: u64, _proc: u64, _timer: u64, armed_at: u64, _clock: u64) {
        self.counts.timers += 1;
        self.timer_wait.record((time - armed_at) as f64);
    }
    fn on_crash(&mut self, _time: u64, _proc: u64, _clock: u64) {
        self.counts.crashes += 1;
    }
    fn on_recover(&mut self, _time: u64, _proc: u64, _clock: u64) {
        self.counts.recoveries += 1;
    }
    fn on_crash_drop(&mut self, _time: u64, _src: u64, _dst: u64) {
        self.counts.crash_drops += 1;
    }
    fn on_decide(&mut self, _time: u64, _proc: u64, _value: u64) {
        self.counts.decides += 1;
    }
    fn on_queue_depth(&mut self, time: u64, depth: usize) {
        self.queue_depth.push((time, depth));
    }
}

/// One enriched timeline entry collected by a [`TimelineObserver`] —
/// the fully decoded counterpart of [`crate::TraceEvent`], with the
/// causal/latency enrichment kept per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEntry {
    /// A message left `src` for `dst`.
    Send {
        /// Virtual time of the send.
        time: u64,
        /// Sending process.
        src: u64,
        /// Receiving process.
        dst: u64,
        /// Sender's Lamport clock after the send.
        clock: u64,
    },
    /// A message was delivered.
    Deliver {
        /// Virtual time of the delivery.
        time: u64,
        /// Sending process.
        src: u64,
        /// Receiving process.
        dst: u64,
        /// When the message was sent (queue latency = `time − sent_at`).
        sent_at: u64,
        /// Receiver's Lamport clock after the delivery.
        clock: u64,
    },
    /// A message was dropped in flight.
    Drop {
        /// Virtual time of the drop.
        time: u64,
        /// Sending process.
        src: u64,
        /// Intended receiver.
        dst: u64,
    },
    /// A timer fired.
    Timer {
        /// Virtual time of the firing.
        time: u64,
        /// Owning process.
        proc: u64,
        /// Timer id.
        timer: u64,
        /// When the timer was armed (wait = `time − armed_at`).
        armed_at: u64,
        /// Owner's Lamport clock after the firing.
        clock: u64,
    },
    /// A planned crash fired.
    Crash {
        /// Virtual time of the crash.
        time: u64,
        /// Crashing process.
        proc: u64,
        /// Its Lamport clock after the crash tick.
        clock: u64,
    },
    /// A planned recovery fired.
    Recover {
        /// Virtual time of the recovery.
        time: u64,
        /// Recovering process.
        proc: u64,
        /// Its Lamport clock after the recovery tick.
        clock: u64,
    },
    /// An event addressed to a crashed process was absorbed.
    CrashDrop {
        /// Virtual time of the absorption.
        time: u64,
        /// `src` of the absorbed event (sender or timer owner).
        src: u64,
        /// `dst` of the absorbed event (receiver or timer id).
        dst: u64,
    },
    /// A process first decided.
    Decide {
        /// Virtual time of the decision.
        time: u64,
        /// Deciding process.
        proc: u64,
        /// The decided value.
        value: u64,
    },
}

impl TimelineEntry {
    /// Virtual time of this entry.
    pub fn time(&self) -> u64 {
        match *self {
            TimelineEntry::Send { time, .. }
            | TimelineEntry::Deliver { time, .. }
            | TimelineEntry::Drop { time, .. }
            | TimelineEntry::Timer { time, .. }
            | TimelineEntry::Crash { time, .. }
            | TimelineEntry::Recover { time, .. }
            | TimelineEntry::CrashDrop { time, .. }
            | TimelineEntry::Decide { time, .. } => time,
        }
    }

    /// The matching [`TraceKind`] (`None` for [`TimelineEntry::Decide`],
    /// which the flat trace does not record).
    pub fn trace_kind(&self) -> Option<TraceKind> {
        match self {
            TimelineEntry::Send { .. } => Some(TraceKind::Send),
            TimelineEntry::Deliver { .. } => Some(TraceKind::Deliver),
            TimelineEntry::Drop { .. } => Some(TraceKind::Drop),
            TimelineEntry::Timer { .. } => Some(TraceKind::Timer),
            TimelineEntry::Crash { .. } => Some(TraceKind::Crash),
            TimelineEntry::Recover { .. } => Some(TraceKind::Recover),
            TimelineEntry::CrashDrop { .. } => Some(TraceKind::CrashDrop),
            TimelineEntry::Decide { .. } => None,
        }
    }
}

/// An observer that collects the full enriched timeline and exports it
/// as Chrome trace-event JSON (loadable in `chrome://tracing` or
/// Perfetto) or a compact text timeline.
///
/// Both exports are pure functions of the collected entries, which are
/// a pure function of the deterministic execution — so two runs of the
/// same `(config, seed)` export **byte-identical** output (asserted in
/// `tests/tests/net_obs.rs`).
#[derive(Debug, Clone, Default)]
pub struct TimelineObserver {
    entries: Vec<TimelineEntry>,
}

impl TimelineObserver {
    /// An empty timeline.
    pub fn new() -> Self {
        TimelineObserver::default()
    }

    /// The collected entries, in event order.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Exports the timeline as Chrome trace-event JSON.
    ///
    /// Deliveries and timer firings become duration (`"ph":"X"`) events
    /// spanning `send → deliver` / `arm → fire` on the destination
    /// process's track; everything else becomes a thread-scoped instant
    /// (`"ph":"i"`). Virtual ticks map 1:1 to microseconds (the unit
    /// the format requires).
    pub fn to_chrome_trace(&self) -> String {
        let events = self.entries.iter().map(|e| match *e {
            TimelineEntry::Send {
                time,
                src,
                dst,
                clock,
            } => chrome_event(
                format!("send {src}->{dst}"),
                "msg",
                time,
                None,
                src,
                &[("clock", clock)],
            ),
            TimelineEntry::Deliver {
                time,
                src,
                dst,
                sent_at,
                clock,
            } => chrome_event(
                format!("msg {src}->{dst}"),
                "msg",
                sent_at,
                Some(time - sent_at),
                dst,
                &[("src", src), ("clock", clock)],
            ),
            TimelineEntry::Drop { time, src, dst } => {
                chrome_event(format!("drop {src}->{dst}"), "fault", time, None, src, &[])
            }
            TimelineEntry::Timer {
                time,
                proc,
                timer,
                armed_at,
                clock,
            } => chrome_event(
                format!("timer {timer}"),
                "timer",
                armed_at,
                Some(time - armed_at),
                proc,
                &[("clock", clock)],
            ),
            TimelineEntry::Crash { time, proc, .. } => {
                chrome_event("crash".into(), "fault", time, None, proc, &[])
            }
            TimelineEntry::Recover { time, proc, .. } => {
                chrome_event("recover".into(), "fault", time, None, proc, &[])
            }
            TimelineEntry::CrashDrop { time, src, dst } => chrome_event(
                format!("absorbed {src}/{dst}"),
                "fault",
                time,
                None,
                src,
                &[],
            ),
            TimelineEntry::Decide { time, proc, value } => {
                chrome_event(format!("decide {value}"), "decision", time, None, proc, &[])
            }
        });
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events.collect()))]).to_string()
    }

    /// Renders the timeline as compact text, one line per entry.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let line = match *e {
                TimelineEntry::Send {
                    time,
                    src,
                    dst,
                    clock,
                } => {
                    format!("{time:>6}  p{src} -> p{dst}  send              clk={clock}")
                }
                TimelineEntry::Deliver {
                    time,
                    src,
                    dst,
                    sent_at,
                    clock,
                } => {
                    format!(
                        "{time:>6}  p{src} -> p{dst}  deliver  lat={:<4} clk={clock}",
                        time - sent_at
                    )
                }
                TimelineEntry::Drop { time, src, dst } => {
                    format!("{time:>6}  p{src} -> p{dst}  drop")
                }
                TimelineEntry::Timer {
                    time,
                    proc,
                    timer,
                    armed_at,
                    clock,
                } => {
                    format!(
                        "{time:>6}  p{proc}        timer#{timer}  wait={:<4} clk={clock}",
                        time - armed_at
                    )
                }
                TimelineEntry::Crash { time, proc, .. } => {
                    format!("{time:>6}  p{proc}        CRASH")
                }
                TimelineEntry::Recover { time, proc, .. } => {
                    format!("{time:>6}  p{proc}        RECOVER")
                }
                TimelineEntry::CrashDrop { time, src, dst } => {
                    format!("{time:>6}  p{src}        absorbed ({src}/{dst})")
                }
                TimelineEntry::Decide { time, proc, value } => {
                    format!("{time:>6}  p{proc}        DECIDE {value}")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// One Chrome trace event on process `tid`'s track: a duration
/// (`"ph":"X"`) starting at `ts` when `dur` is given, a thread-scoped
/// instant (`"ph":"i"`) otherwise, with `args` attached when there are
/// any.
fn chrome_event(
    name: String,
    cat: &str,
    ts: u64,
    dur: Option<u64>,
    tid: u64,
    args: &[(&str, u64)],
) -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let mut fields = vec![
        ("name".to_string(), Json::Str(name)),
        ("cat".into(), text(cat)),
    ];
    match dur {
        Some(dur) => fields.extend([
            ("ph".into(), text("X")),
            ("ts".into(), Json::U64(ts)),
            ("dur".into(), Json::U64(dur)),
        ]),
        None => fields.extend([
            ("ph".into(), text("i")),
            ("s".into(), text("t")),
            ("ts".into(), Json::U64(ts)),
        ]),
    }
    fields.extend([("pid".into(), Json::U64(0)), ("tid".into(), Json::U64(tid))]);
    if !args.is_empty() {
        let args = args.iter().map(|&(k, v)| (k.to_string(), Json::U64(v)));
        fields.push(("args".into(), Json::Obj(args.collect())));
    }
    Json::Obj(fields)
}

impl Observer for TimelineObserver {
    fn on_send(&mut self, time: u64, src: u64, dst: u64, clock: u64) {
        self.entries.push(TimelineEntry::Send {
            time,
            src,
            dst,
            clock,
        });
    }
    fn on_deliver(&mut self, time: u64, src: u64, dst: u64, sent_at: u64, clock: u64) {
        self.entries.push(TimelineEntry::Deliver {
            time,
            src,
            dst,
            sent_at,
            clock,
        });
    }
    fn on_drop(&mut self, time: u64, src: u64, dst: u64) {
        self.entries.push(TimelineEntry::Drop { time, src, dst });
    }
    fn on_timer(&mut self, time: u64, proc: u64, timer: u64, armed_at: u64, clock: u64) {
        self.entries.push(TimelineEntry::Timer {
            time,
            proc,
            timer,
            armed_at,
            clock,
        });
    }
    fn on_crash(&mut self, time: u64, proc: u64, clock: u64) {
        self.entries
            .push(TimelineEntry::Crash { time, proc, clock });
    }
    fn on_recover(&mut self, time: u64, proc: u64, clock: u64) {
        self.entries
            .push(TimelineEntry::Recover { time, proc, clock });
    }
    fn on_crash_drop(&mut self, time: u64, src: u64, dst: u64) {
        self.entries
            .push(TimelineEntry::CrashDrop { time, src, dst });
    }
    fn on_decide(&mut self, time: u64, proc: u64, value: u64) {
        self.entries
            .push(TimelineEntry::Decide { time, proc, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_writes_every_entry_kind() {
        let timeline = TimelineObserver {
            entries: vec![
                TimelineEntry::Send {
                    time: 1,
                    src: 0,
                    dst: 2,
                    clock: 3,
                },
                TimelineEntry::Deliver {
                    time: 4,
                    src: 0,
                    dst: 2,
                    sent_at: 1,
                    clock: 5,
                },
                TimelineEntry::Drop {
                    time: 5,
                    src: 1,
                    dst: 0,
                },
                TimelineEntry::Timer {
                    time: 9,
                    proc: 2,
                    timer: 7,
                    armed_at: 6,
                    clock: 8,
                },
                TimelineEntry::Crash {
                    time: 10,
                    proc: 1,
                    clock: 4,
                },
                TimelineEntry::CrashDrop {
                    time: 11,
                    src: 0,
                    dst: 1,
                },
                TimelineEntry::Recover {
                    time: 12,
                    proc: 1,
                    clock: 5,
                },
                TimelineEntry::Decide {
                    time: 13,
                    proc: 2,
                    value: 1,
                },
            ],
        };
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"send 0->2","cat":"msg","ph":"i","s":"t","ts":1,"pid":0,"tid":0,"args":{"clock":3}},"#,
            r#"{"name":"msg 0->2","cat":"msg","ph":"X","ts":1,"dur":3,"pid":0,"tid":2,"args":{"src":0,"clock":5}},"#,
            r#"{"name":"drop 1->0","cat":"fault","ph":"i","s":"t","ts":5,"pid":0,"tid":1},"#,
            r#"{"name":"timer 7","cat":"timer","ph":"X","ts":6,"dur":3,"pid":0,"tid":2,"args":{"clock":8}},"#,
            r#"{"name":"crash","cat":"fault","ph":"i","s":"t","ts":10,"pid":0,"tid":1},"#,
            r#"{"name":"absorbed 0/1","cat":"fault","ph":"i","s":"t","ts":11,"pid":0,"tid":0},"#,
            r#"{"name":"recover","cat":"fault","ph":"i","s":"t","ts":12,"pid":0,"tid":1},"#,
            r#"{"name":"decide 1","cat":"decision","ph":"i","s":"t","ts":13,"pid":0,"tid":2}"#,
            "]}"
        );
        assert_eq!(timeline.to_chrome_trace(), expected);
        assert_eq!(
            TimelineObserver::new().to_chrome_trace(),
            r#"{"traceEvents":[]}"#
        );
    }
}
