//! Timeout + retransmission: the adapter that turns message **loss** into
//! message **latency**.
//!
//! Every protocol in the workspace previously treated a dropped message as
//! gone forever — which is why e19 found that healing a partition buys
//! nothing: by the time the network returns, nobody resends what was lost
//! in the outage. Real transports resend. [`RetryAdapter`] wraps any
//! [`AsyncProcess`] with a per-message acknowledge/retransmit loop:
//!
//! * each inner send becomes a [`RetryMsg::Data`] carrying a locally
//!   unique id, tracked in a pending table with a retransmission timer;
//! * a **multicast** (the sends of one [`NetCtx::multicast`] call)
//!   becomes **one** table entry per (message, recipient-set): a single
//!   id, the list of recipients that have not acked yet, and one wire
//!   message reused by the initial fan-out and every retransmission.
//!   Retransmissions go only to the recipients that have not acked;
//! * receivers acknowledge every `Data` (re-acking duplicates, since the
//!   previous ack may itself have been lost) and deliver the payload to
//!   the inner process exactly once per `(sender, id)`;
//! * an unacknowledged entry is resent when its timer fires, with the
//!   timeout scaled by [`RetryPolicy::backoff`] each attempt, until
//!   [`RetryPolicy::max_attempts`] is exhausted (0 = retry forever).
//!
//! The unicast path is the degenerate one-recipient table entry. The wire
//! message follows the runtime's payload rule: plain data (every
//! event-protocol message) is copied to each recipient and attempt, so a
//! tracked send allocates nothing once the tables have warmed up; a
//! payload with drop glue is moved (not cloned) into one `Rc`-shared wire
//! message, so a message pending through `k` attempts costs one
//! allocation, not `k` payload clones.
//!
//! Both tables are flat. Ids are issued in order, so the pending entries
//! sit in a window indexed by `id − oldest live id`, and the recipient
//! buffers of removed entries are reused. Per sender, the delivered ids
//! are a contiguous prefix plus the few that arrived early. An `Ack` or
//! `Data` with an id far outside either (a crafted `u64::MAX`) allocates
//! nothing sized by that id.
//!
//! Under a loss-free network the adapter is behaviorally invisible: the
//! inner processes see the same deliveries in the same order and decide
//! identically (with constant latencies the *data-projected* event traces
//! match exactly — acks and timers are extra events, but they perturb
//! nothing; the property tests in `tests/tests/net_retry.rs` assert
//! this). Under loss or partitions it converts correctness failures into
//! extra virtual time: e21 re-runs the e19 partition grid with
//! Bracha + retry and the "fatal window" becomes a latency cliff.
//!
//! Timer namespace: the adapter owns the **odd** timer ids (retransmission
//! timers are `id << 1 | 1`) and forwards inner timers shifted left one
//! bit, so inner timer ids must stay below `2^63`.

use crate::runtime::{AsyncProcess, NetCtx, Payload, Staged};
use bne_byzantine::ProcId;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Retransmission policy of a [`RetryAdapter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual ticks before the first retransmission of an
    /// unacknowledged message. Must be ≥ 1.
    pub timeout: u64,
    /// Multiplier applied to the timeout after every retransmission
    /// (1 = constant interval, 2 = exponential backoff).
    pub backoff: u64,
    /// Total send attempts per message before giving up (0 = never give
    /// up; safe whenever the loss probability is below 1, since each
    /// attempt succeeds independently).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Retransmit every `timeout` ticks with exponential (×2) backoff,
    /// forever.
    pub fn exponential(timeout: u64) -> Self {
        RetryPolicy {
            timeout,
            backoff: 2,
            max_attempts: 0,
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        format!(
            "retry(to={},x{},max={})",
            self.timeout,
            self.backoff,
            if self.max_attempts == 0 {
                "∞".to_string()
            } else {
                self.max_attempts.to_string()
            }
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::exponential(4)
    }
}

/// The wire format of a retried channel: payloads with ids, and acks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryMsg<M> {
    /// A payload-carrying message; `id` is unique per sender.
    Data {
        /// Sender-local message id.
        id: u64,
        /// The inner protocol's message.
        payload: M,
    },
    /// Acknowledges receipt of the sender's `Data` with the same id.
    Ack {
        /// The acknowledged message id.
        id: u64,
    },
}

/// One pending table entry: a (message, recipient-set) pair awaiting
/// acknowledgement. Unicast sends are the one-recipient special case.
struct Pending<M> {
    /// The recipients that have not acked yet, in send order (distinct:
    /// a repeated destination starts a new entry).
    recipients: Vec<ProcId>,
    /// The wire message, reused by the initial fan-out and every
    /// retransmission: plain data by value, anything else behind one
    /// shared `Rc`, so the payload lives here exactly once.
    msg: Payload<RetryMsg<M>>,
    /// Send attempts so far (the initial fan-out counts as 1).
    attempts: u32,
    /// Current retransmission timeout (grows by the backoff factor).
    timeout: u64,
}

impl<M> Pending<M> {
    /// Marks `src` acked; returns `true` if it was the last outstanding
    /// recipient.
    fn ack(&mut self, src: ProcId) -> bool {
        if let Some(idx) = self.recipients.iter().position(|&r| r == src) {
            self.recipients.remove(idx);
        }
        self.recipients.is_empty()
    }
}

/// Entries keyed by ids issued in increasing order, stored in a window
/// over `[base, base + slots.len())` indexed by `id − base`. The front is
/// the oldest live id; a removed entry leaves a hole until every older
/// entry is gone too. Ids outside the window, a crafted `u64::MAX`
/// included, find nothing and touch nothing.
struct IdWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> IdWindow<T> {
    fn new() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Adds the entry of a newly issued id.
    ///
    /// # Panics
    ///
    /// If the window is not empty and `id` is not the next id after its
    /// last one.
    fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        assert_eq!(
            id,
            self.base + self.slots.len() as u64,
            "pending ids enter the window in issue order"
        );
        self.slots.push_back(Some(value));
    }

    /// The slot index of `id`, if it lies in the window.
    fn index(&self, id: u64) -> Option<usize> {
        let offset = id.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let idx = self.index(id)?;
        self.slots[idx].as_mut()
    }

    /// Removes and returns the entry of `id`, then drops the holes at the
    /// front so the window starts at the oldest live id.
    fn remove(&mut self, id: u64) -> Option<T> {
        let idx = self.index(id)?;
        let value = self.slots[idx].take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// The live entries with their ids, in ascending id order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .zip(base..)
            .filter_map(|(slot, id)| slot.as_mut().map(|value| (id, value)))
    }
}

/// Which `(sender, id)` pairs have been delivered to the inner process.
/// A sender issues its ids in order, so per sender this is every id below
/// `below` plus the ids above it that arrived early, kept sorted. The
/// prefix only grows past ids this process receives: a sender whose ids
/// also go to others (unicasts to other processes) leaves gaps, and its
/// later ids stay in `early`, one word each.
#[derive(Default)]
struct Delivered {
    senders: Vec<Seen>,
}

/// The delivered ids of one sender (see [`Delivered`]).
#[derive(Default)]
struct Seen {
    below: u64,
    early: Vec<u64>,
}

impl Delivered {
    /// Records the delivery of `src`'s message `id`; returns whether it
    /// is new.
    fn insert(&mut self, src: ProcId, id: u64) -> bool {
        if src >= self.senders.len() {
            self.senders.resize_with(src + 1, Seen::default);
        }
        let seen = &mut self.senders[src];
        if id < seen.below {
            return false;
        }
        if id > seen.below {
            return match seen.early.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    seen.early.insert(pos, id);
                    true
                }
            };
        }
        // the prefix grows, absorbing the early ids it now reaches
        seen.below += 1;
        let reached = seen
            .early
            .iter()
            .zip(seen.below..)
            .take_while(|&(&early, next)| early == next)
            .count();
        seen.below += reached as u64;
        seen.early.drain(..reached);
        true
    }
}

/// Wraps an [`AsyncProcess`] with acknowledgements and retransmission
/// (see the [module docs](self) for the protocol).
pub struct RetryAdapter<P: AsyncProcess> {
    inner: P,
    policy: RetryPolicy,
    next_id: u64,
    pending: IdWindow<Pending<P::Msg>>,
    /// Emptied recipient buffers of removed entries, reused by new ones.
    spare: Vec<Vec<ProcId>>,
    delivered: Delivered,
    /// Retransmissions actually sent (excludes first attempts), counted
    /// per retransmitted message (a table entry resent to 3 unacked
    /// recipients counts 3).
    retransmissions: u64,
    /// Optional shared counter mirroring `retransmissions` (lets scenario
    /// probes read the total after the adapter is boxed away).
    probe: Option<Rc<Cell<u64>>>,
    /// The inner process's callback context, reused across events.
    ictx: NetCtx<P::Msg>,
}

impl<P: AsyncProcess> RetryAdapter<P> {
    /// Wraps `inner` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.timeout == 0` (a zero timeout would retransmit
    /// in the same tick as the original send, before any ack could
    /// possibly arrive). A callback of the wrapped process panics if it
    /// arms a timer with an id of `2^63` or more, which does not fit the
    /// adapter's timer namespace (see the [module docs](self)).
    pub fn new(inner: P, policy: RetryPolicy) -> Self {
        assert!(policy.timeout >= 1, "retry timeout must be at least 1");
        RetryAdapter {
            inner,
            policy,
            next_id: 0,
            pending: IdWindow::new(),
            spare: Vec::new(),
            delivered: Delivered::default(),
            retransmissions: 0,
            probe: None,
            ictx: NetCtx::new(0, 0, 0),
        }
    }

    /// Mirrors the retransmission counter into a shared cell, so callers
    /// that box the adapter behind `dyn AsyncProcess` can still read it.
    pub fn with_probe(mut self, probe: Rc<Cell<u64>>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Retransmissions sent so far (first attempts are not counted).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    fn count_retransmissions(&mut self, sent: u64) {
        self.retransmissions += sent;
        if let Some(probe) = &self.probe {
            probe.set(probe.get() + sent);
        }
    }

    /// Runs one callback of the inner process on the reused inner context,
    /// then absorbs what it buffered.
    fn with_inner(
        &mut self,
        ctx: &mut NetCtx<RetryMsg<P::Msg>>,
        callback: impl FnOnce(&mut P, &mut NetCtx<P::Msg>),
    ) {
        self.ictx.reset(ctx.id(), ctx.n(), ctx.now());
        callback(&mut self.inner, &mut self.ictx);
        self.absorb(ctx);
    }

    /// Removes a finished entry, keeping its recipient buffer for reuse.
    fn release(&mut self, id: u64) {
        if let Some(mut entry) = self.pending.remove(id) {
            entry.recipients.clear();
            self.spare.push(entry.recipients);
        }
    }

    /// Applies the actions an inner callback buffered: forwards timers
    /// (shifted into the even namespace) and turns sends into tracked
    /// `Data` messages with retransmission timers. Each send call (a
    /// unicast or one multicast) forms a single table entry, split where
    /// a destination repeats; the staged payload moves into the call's
    /// last entry — a clone happens only for a call that was split.
    ///
    /// # Panics
    ///
    /// If an inner timer id is `2^63` or more: shifted, it would lose its
    /// top bit and come back to the inner process as a different id.
    fn absorb(&mut self, ctx: &mut NetCtx<RetryMsg<P::Msg>>) {
        // the inner context is lent out while its actions become entries
        let mut ictx = std::mem::replace(&mut self.ictx, NetCtx::new(0, 0, 0));
        {
            let actions = ictx.drain_actions();
            for (delay, timer) in actions.timers {
                assert!(
                    timer < 1 << 63,
                    "inner timer id {timer} does not fit the retry adapter's namespace (ids below 2^63)"
                );
                ctx.set_timer(delay, timer << 1);
            }
            let mut dsts = actions.dsts;
            for Staged { count, payload } in actions.sends {
                let mut call = dsts.by_ref().take(count);
                let mut first = call.next();
                while let Some(dst) = first {
                    let mut group = self.spare.pop().unwrap_or_default();
                    group.push(dst);
                    first = None;
                    for dst in call.by_ref() {
                        // repeated destinations split into separate
                        // entries, keeping (sender, id) delivery dedup per
                        // physical send
                        if group.contains(&dst) {
                            first = Some(dst);
                            break;
                        }
                        group.push(dst);
                    }
                    if first.is_none() {
                        self.track(group, payload.into_msg(), ctx);
                        break;
                    }
                    self.track(group, payload.clone().into_msg(), ctx);
                }
            }
        }
        self.ictx = ictx;
    }

    /// Sends `payload` to `dsts` as one `Data` message under a new id and,
    /// unless the policy allows a single attempt, enters it in the
    /// pending table with its retransmission timer.
    fn track(
        &mut self,
        mut dsts: Vec<ProcId>,
        payload: P::Msg,
        ctx: &mut NetCtx<RetryMsg<P::Msg>>,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let msg = Payload::shareable(RetryMsg::Data { id, payload });
        ctx.fan_out(dsts.iter().copied(), &msg);
        if self.policy.max_attempts == 1 {
            dsts.clear();
            self.spare.push(dsts);
        } else {
            ctx.set_timer(self.policy.timeout, (id << 1) | 1);
            let entry = Pending {
                recipients: dsts,
                msg,
                attempts: 1,
                timeout: self.policy.timeout,
            };
            self.pending.insert(id, entry);
        }
    }
}

impl<P: AsyncProcess> AsyncProcess for RetryAdapter<P> {
    type Msg = RetryMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut NetCtx<Self::Msg>) {
        self.with_inner(ctx, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(&mut self, src: ProcId, msg: Self::Msg, ctx: &mut NetCtx<Self::Msg>) {
        match msg {
            RetryMsg::Data { id, payload } => {
                // always ack — the previous ack may have been lost
                ctx.send(src, RetryMsg::Ack { id });
                if self.delivered.insert(src, id) {
                    self.with_inner(ctx, |inner, ictx| inner.on_message(src, payload, ictx));
                }
            }
            RetryMsg::Ack { id } => {
                if self.pending.get_mut(id).is_some_and(|p| p.ack(src)) {
                    self.release(id);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut NetCtx<Self::Msg>) {
        if timer & 1 == 0 {
            // an inner timer, forwarded
            self.with_inner(ctx, |inner, ictx| inner.on_timer(timer >> 1, ictx));
            return;
        }
        let id = timer >> 1;
        let Some(p) = self.pending.get_mut(id) else {
            return; // fully acknowledged in the meantime
        };
        if self.policy.max_attempts != 0 && p.attempts >= self.policy.max_attempts {
            self.release(id);
            return; // gave up
        }
        p.attempts += 1;
        p.timeout = p.timeout.saturating_mul(self.policy.backoff.max(1));
        // resend the one wire message to every unacked recipient
        ctx.fan_out(p.recipients.iter().copied(), &p.msg);
        let (resent, timeout) = (p.recipients.len() as u64, p.timeout);
        self.count_retransmissions(resent);
        ctx.set_timer(timeout, (id << 1) | 1);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut NetCtx<Self::Msg>) {
        // re-arm the retransmission timer of every still-pending entry,
        // in ascending id order (the timers scheduled before the crash
        // were absorbed), then give the inner process its own recovery
        // callback. The pending and delivered tables survive the crash
        // in the adapter's in-memory state by the suspend/resume
        // default; a peer's retransmissions re-fill whatever the crash
        // window dropped — the adapter IS the replay mechanism for
        // durable protocols.
        let timeout = self.policy.timeout;
        for (id, p) in self.pending.iter_mut() {
            p.timeout = timeout;
            ctx.set_timer(timeout, (id << 1) | 1);
        }
        self.with_inner(ctx, |inner, ictx| inner.on_recover(ictx));
    }

    fn save_durable(&self) -> Option<crate::runtime::DurableState> {
        self.inner.save_durable()
    }

    fn restore_durable(&mut self, state: &crate::runtime::DurableState) {
        self.inner.restore_durable(state);
    }

    fn decision(&self) -> Option<u64> {
        self.inner.decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LatencyModel, LinkFaults, NetConfig};
    use crate::protocols::BrachaProcess;
    use crate::runtime::EventNet;
    use bne_byzantine::bracha::BrachaMsg;

    fn bracha_retry_net(
        n: usize,
        t: usize,
        policy: RetryPolicy,
        cfg: NetConfig,
    ) -> EventNet<RetryMsg<BrachaMsg>> {
        let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<BrachaMsg>>>> = (0..n)
            .map(|_| Box::new(RetryAdapter::new(BrachaProcess::new(t, 0, 1), policy)) as _)
            .collect();
        EventNet::new(procs, cfg)
    }

    /// Map-like views of the pending window for the table tests.
    impl<T> IdWindow<T> {
        fn len(&self) -> usize {
            self.values().count()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        fn values(&self) -> impl Iterator<Item = &T> {
            self.slots.iter().flatten()
        }
    }

    #[test]
    fn zero_loss_decisions_match_the_unwrapped_protocol() {
        let policy = RetryPolicy::default();
        let mut net = bracha_retry_net(7, 2, policy, NetConfig::lockstep(1));
        assert!(net.run(1_000_000));
        assert_eq!(net.decisions(), vec![Some(1); 7]);
        // zero latency: every ack lands at tick 0, before any timer at
        // tick 4 fires, so nothing is ever retransmitted
        assert_eq!(
            net.stats().messages_delivered,
            net.stats().messages_sent,
            "no drops"
        );
    }

    #[test]
    fn heavy_loss_is_survived_by_retransmission() {
        let cfg = NetConfig {
            faults: LinkFaults::lossy(0.5).into(),
            latency: LatencyModel::Constant(1),
            ..NetConfig::lockstep(77)
        };
        let mut net = bracha_retry_net(4, 1, RetryPolicy::exponential(3), cfg);
        assert!(net.run(10_000_000), "queue must drain");
        assert_eq!(net.decisions(), vec![Some(1); 4]);
        assert!(net.stats().messages_dropped > 0, "loss actually happened");
    }

    #[test]
    fn bounded_attempts_give_up_and_drain() {
        // 100% loss: nothing ever arrives; with max_attempts = 3 every
        // message is sent exactly 3 times and the queue still drains
        let cfg = NetConfig {
            faults: LinkFaults::lossy(1.0).into(),
            ..NetConfig::lockstep(5)
        };
        let policy = RetryPolicy {
            timeout: 2,
            backoff: 2,
            max_attempts: 3,
        };
        let mut net = bracha_retry_net(3, 1, policy, cfg);
        assert!(net.run(1_000_000));
        assert_eq!(net.decisions(), vec![None; 3]);
        let stats = net.stats();
        assert_eq!(stats.messages_dropped, stats.messages_sent);
        // the broadcaster's Init multicast (to 3 destinations) is
        // attempted 3 times; nothing else ever starts
        assert_eq!(stats.messages_sent, 9);
    }

    #[test]
    fn duplicates_are_delivered_to_the_inner_process_once() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct CountDeliveries {
            count: Rc<Cell<usize>>,
        }
        impl AsyncProcess for CountDeliveries {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
                if ctx.id() == 0 {
                    ctx.send(1, 42);
                }
            }
            fn on_message(&mut self, _s: ProcId, _m: u64, _c: &mut NetCtx<u64>) {
                self.count.set(self.count.get() + 1);
            }
            fn on_timer(&mut self, _t: u64, _c: &mut NetCtx<u64>) {}
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        // latency 5 with timeout 2 and no backoff: several retransmissions
        // race ahead of the first ack, so process 1 receives duplicates
        let cfg = NetConfig {
            latency: LatencyModel::Constant(5),
            ..NetConfig::lockstep(0)
        };
        let count = Rc::new(Cell::new(0));
        let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<u64>>>> = (0..2)
            .map(|_| {
                Box::new(RetryAdapter::new(
                    CountDeliveries {
                        count: Rc::clone(&count),
                    },
                    RetryPolicy {
                        timeout: 2,
                        backoff: 1,
                        max_attempts: 0,
                    },
                )) as _
            })
            .collect();
        let mut net = EventNet::new(procs, cfg);
        assert!(net.run(100_000));
        let delivered = net.stats().messages_delivered;
        assert!(delivered > 3, "duplicates really flowed: {delivered}");
        assert_eq!(count.get(), 1, "inner process saw the payload once");
    }

    #[test]
    fn retransmission_counter_and_backoff_schedule() {
        // drive the adapter directly (no network): the broadcaster's Init
        // multicast becomes ONE pending entry covering 3 recipients;
        // firing its retry timer twice exhausts max_attempts = 3, after
        // which further timers are no-ops
        let policy = RetryPolicy {
            timeout: 2,
            backoff: 2,
            max_attempts: 3,
        };
        let mut adapter = RetryAdapter::new(BrachaProcess::new(1, 0, 1), policy);
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_start(&mut ctx);
        assert_eq!(adapter.retransmissions(), 0);
        assert_eq!(adapter.pending.len(), 1, "one entry per multicast group");
        let entry = adapter.pending.values().next().unwrap();
        assert_eq!(entry.recipients, vec![0, 1, 2]);
        for _ in 0..2 {
            let mut ctx = NetCtx::new(0, 3, 0);
            adapter.on_timer(1, &mut ctx); // retry timer of id 0
        }
        // each firing resends to all 3 still-unacked recipients
        assert_eq!(adapter.retransmissions(), 6);
        // exponential backoff doubled the per-entry timeout twice
        assert!(adapter.pending.values().all(|p| p.timeout == 8));
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_timer(1, &mut ctx);
        assert_eq!(adapter.retransmissions(), 6, "attempts exhausted");
        assert!(adapter.pending.is_empty());
    }

    #[test]
    fn acks_clear_individual_recipients_and_stop_their_retransmits() {
        // one multicast entry over recipients {0, 1, 2}; ack from 1 only
        let policy = RetryPolicy {
            timeout: 2,
            backoff: 1,
            max_attempts: 0,
        };
        let mut adapter = RetryAdapter::new(BrachaProcess::new(1, 0, 1), policy);
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_start(&mut ctx);
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_message(1, RetryMsg::Ack { id: 0 }, &mut ctx);
        let entry = adapter.pending.values().next().unwrap();
        assert_eq!(entry.recipients, vec![0, 2]);
        // the next timer resends only to the 2 unacked recipients
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_timer(1, &mut ctx);
        assert_eq!(adapter.retransmissions(), 2);
        assert_eq!(
            ctx.drain_actions().dsts.collect::<Vec<_>>(),
            vec![0, 2],
            "recipient 1 is not retransmitted to"
        );
        // acking the rest removes the entry entirely
        let mut ctx = NetCtx::new(0, 3, 0);
        adapter.on_message(0, RetryMsg::Ack { id: 0 }, &mut ctx);
        adapter.on_message(2, RetryMsg::Ack { id: 0 }, &mut ctx);
        assert!(adapter.pending.is_empty());
    }

    #[test]
    fn multicast_payload_is_not_cloned_into_the_pending_table() {
        use std::cell::Cell;
        use std::rc::Rc;

        /// A payload that counts clones (delivery clones + table clones).
        #[derive(Debug)]
        struct Counted {
            clones: Rc<Cell<usize>>,
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.clones.set(self.clones.get() + 1);
                Counted {
                    clones: Rc::clone(&self.clones),
                }
            }
        }
        struct Fan {
            clones: Rc<Cell<usize>>,
        }
        impl AsyncProcess for Fan {
            type Msg = Counted;
            fn on_start(&mut self, ctx: &mut NetCtx<Counted>) {
                if ctx.id() == 0 {
                    let msg = Counted {
                        clones: Rc::clone(&self.clones),
                    };
                    ctx.multicast(1..ctx.n(), msg);
                }
            }
            fn on_message(&mut self, _s: ProcId, _m: Counted, _c: &mut NetCtx<Counted>) {}
            fn on_timer(&mut self, _t: u64, _c: &mut NetCtx<Counted>) {}
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let n = 8;
        let clones = Rc::new(Cell::new(0));
        let procs: Vec<Box<dyn AsyncProcess<Msg = RetryMsg<Counted>>>> = (0..n)
            .map(|_| {
                Box::new(RetryAdapter::new(
                    Fan {
                        clones: Rc::clone(&clones),
                    },
                    RetryPolicy::default(),
                )) as _
            })
            .collect();
        let mut net = EventNet::new(procs, NetConfig::lockstep(0));
        assert!(net.run(100_000));
        // the table holds the ONE shared wire message (zero payload
        // copies of its own, shared with every retransmission); each of
        // the n - 1 deliveries materializes one clone because the table's
        // handle is still live until the ack lands
        assert_eq!(clones.get(), n - 1);
    }

    #[test]
    #[should_panic(expected = "does not fit the retry adapter's namespace")]
    fn inner_timer_ids_outside_the_namespace_panic() {
        /// Arms the first timer id the adapter's namespace cannot hold.
        struct ArmsTopBit;
        impl AsyncProcess for ArmsTopBit {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
                ctx.set_timer(1, 1 << 63);
            }
            fn on_message(&mut self, _s: ProcId, _m: u64, _c: &mut NetCtx<u64>) {}
            fn decision(&self) -> Option<u64> {
                None
            }
        }
        let mut adapter = RetryAdapter::new(ArmsTopBit, RetryPolicy::default());
        adapter.on_start(&mut NetCtx::new(0, 1, 0));
    }

    #[test]
    fn flat_tables_match_the_btree_tables_they_replace() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // the pending window against a map keyed by id: ids issued in
            // order, removed in random order, probed with ids that are
            // live, already gone, not yet issued, or crafted
            let mut window = IdWindow::new();
            let mut map = BTreeMap::new();
            let mut next_id = 0u64;
            for step in 0..2_000usize {
                if rng.random_range(0..5u32) < 2 {
                    window.insert(next_id, step);
                    map.insert(next_id, step);
                    next_id += 1;
                    continue;
                }
                let id = match rng.random_range(0..6u32) {
                    0 => u64::MAX,
                    1 => next_id + rng.random_range(0..1_000u64),
                    _ => rng.random_range(0..next_id.max(1)),
                };
                let capacity = window.slots.capacity();
                assert_eq!(window.get_mut(id).copied(), map.get(&id).copied());
                assert_eq!(window.remove(id), map.remove(&id));
                assert_eq!(window.slots.capacity(), capacity, "a probe never grows");
                let live: Vec<(u64, usize)> = window.iter_mut().map(|(id, v)| (id, *v)).collect();
                let expected: Vec<(u64, usize)> = map.iter().map(|(&id, &v)| (id, v)).collect();
                assert_eq!(live, expected, "seed {seed}, step {step}");
                // the window starts at the oldest live id
                let span = map.keys().next().map_or(0, |&oldest| next_id - oldest);
                assert_eq!(window.slots.len() as u64, span, "seed {seed}, step {step}");
            }

            // the delivered table against the set of pairs: mostly
            // in-order ids per sender, some out of order or duplicated,
            // some crafted
            let mut flat = Delivered::default();
            let mut set = BTreeSet::new();
            let mut next = [0u64; 4];
            for step in 0..4_000 {
                let src = rng.random_range(0..4usize);
                let id = match rng.random_range(0..10u32) {
                    0 => u64::MAX,
                    1 => u64::MAX - rng.random_range(0..3u64),
                    2..=4 => rng.random_range(0..next[src] + 8),
                    _ => {
                        next[src] += 1;
                        next[src] - 1
                    }
                };
                assert_eq!(
                    flat.insert(src, id),
                    set.insert((src, id)),
                    "seed {seed}, step {step}: ({src}, {id})"
                );
            }
            for (src, seen) in flat.senders.iter().enumerate() {
                assert!(seen.early.windows(2).all(|w| w[0] < w[1]));
                assert!(seen.early.first().is_none_or(|&first| first > seen.below));
                let ids: Vec<u64> = (0..seen.below).chain(seen.early.iter().copied()).collect();
                let expected: Vec<u64> = set
                    .range((src, 0)..=(src, u64::MAX))
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(ids, expected, "seed {seed}, sender {src}");
                // crafted ids stay single entries: nothing sized by them
                assert!(seen.early.len() <= 16, "sender {src}: {}", seen.early.len());
            }
        }
    }
}
