//! A tap-driven Byzantine reliable-broadcast participant.
//!
//! e17 fixed its Byzantine strategy **up front** (a colluding ledger of
//! canned lies); the model checker instead *searches* the lie space:
//! [`BrachaLiar`] draws each lie through the shared
//! [`ChoiceTap`](bne_byzantine::choice::ChoiceTap), so the explorer
//! forks on every possible lie exactly as it forks on every possible
//! delivery order. A verdict therefore quantifies over the product
//! space schedule × lies.
//!
//! The lie space is the per-target one-shot menu (`Lie`): on the first
//! event the liar receives (for a non-broadcaster liar that is the
//! broadcaster's `Init`), it draws one lie per other process — stay
//! silent, or send a forged `Echo`/`Ready` for either binary value —
//! and then goes quiet. One forged quorum message per target is exactly
//! the power needed to exercise Bracha's quorum arithmetic: with honest
//! thresholds the explorer proves (exhaustively, at n = 3 — the n = 4
//! lie-schedule product is out of exact-dedup range) that no lie
//! combination breaks agreement or validity, and with the
//! ready-amplification quorum lowered from `t + 1` to `t` it finds the
//! forged-`Ready` amplification chain as a counterexample at n = 4.

use bne_byzantine::bracha::BrachaMsg;
use bne_byzantine::choice::SharedTap;
use bne_byzantine::ProcId;
use bne_net::{AsyncProcess, NetCtx};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::rc::Rc;

/// One drawn lie, targeted at a single process.
///
/// Domain size 5 — the explorer enumerates it, the seeded variant
/// samples it uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lie {
    Silent,
    Echo(u64),
    Ready(u64),
}

impl Lie {
    const DOMAIN: u64 = 5;

    fn decode(v: u64) -> Lie {
        match v {
            0 => Lie::Silent,
            1 => Lie::Echo(0),
            2 => Lie::Echo(1),
            3 => Lie::Ready(0),
            _ => Lie::Ready(1),
        }
    }

    fn message(self) -> Option<BrachaMsg> {
        match self {
            Lie::Silent => None,
            Lie::Echo(v) => Some(BrachaMsg::Echo(v)),
            Lie::Ready(v) => Some(BrachaMsg::Ready(v)),
        }
    }
}

/// Where the liar's lies come from.
enum LieSource {
    /// Drawn through the shared choice tap — the explorer enumerates
    /// them (and they become part of the counterexample script).
    Tap(SharedTap),
    /// Drawn from a seeded RNG — the production / sampling configuration
    /// the checker-vs-sampling comparison runs.
    Seeded(StdRng),
}

/// A Byzantine Bracha participant whose lies are search choices.
///
/// See the module docs for the lie model. The tap-driven form supports
/// [`AsyncProcess::fork`] and [`AsyncProcess::state_words`] (its only
/// hidden state is the "already lied" flag — the drawn lies live in the
/// event queue, which the state key covers, and the tap script is
/// history: every later draw is forked afresh), so it
/// is usable under exhaustive exploration; the seeded form carries an
/// RNG, which has no canonical encoding, and is meant for sampled runs.
pub struct BrachaLiar {
    source: LieSource,
    lied: bool,
}

impl BrachaLiar {
    /// A liar drawing lies from the shared `tap` (exhaustive search).
    pub fn scripted(tap: SharedTap) -> Self {
        BrachaLiar {
            source: LieSource::Tap(tap),
            lied: false,
        }
    }

    /// A liar drawing lies from a seeded RNG (sampled runs). Derive the
    /// seed per replica via [`bne_sim::derive_seed`] like any other
    /// stream.
    pub fn seeded(seed: u64) -> Self {
        BrachaLiar {
            source: LieSource::Seeded(StdRng::seed_from_u64(seed)),
            lied: false,
        }
    }

    fn draw(&mut self) -> u64 {
        match &mut self.source {
            LieSource::Tap(tap) => tap.borrow_mut().draw(Lie::DOMAIN),
            LieSource::Seeded(rng) => rng.random_range(0..Lie::DOMAIN),
        }
    }
}

impl AsyncProcess for BrachaLiar {
    type Msg = BrachaMsg;

    fn on_start(&mut self, _ctx: &mut NetCtx<BrachaMsg>) {
        // lies are drawn on the first *event*, not at startup: startup
        // runs during network construction, before the explorer takes
        // over, so choices made there could not be forked on
    }

    fn on_message(&mut self, _src: ProcId, _msg: BrachaMsg, ctx: &mut NetCtx<BrachaMsg>) {
        if self.lied {
            return; // one salvo of lies, then silence
        }
        self.lied = true;
        let me = ctx.id();
        for dst in 0..ctx.n() {
            if dst == me {
                continue;
            }
            if let Some(m) = Lie::decode(self.draw()).message() {
                ctx.send(dst, m);
            }
        }
    }

    fn decision(&self) -> Option<u64> {
        None // a liar's "decision" is meaningless; properties skip it
    }

    fn fork(&self) -> Option<Box<dyn AsyncProcess<Msg = BrachaMsg>>> {
        let source = match &self.source {
            LieSource::Tap(tap) => LieSource::Tap(Rc::clone(tap)),
            LieSource::Seeded(rng) => LieSource::Seeded(rng.clone()),
        };
        Some(Box::new(BrachaLiar {
            source,
            lied: self.lied,
        }))
    }

    fn state_words(&self) -> Option<Vec<u64>> {
        match self.source {
            // the drawn lies are visible in the queue and the tap script;
            // the only residual state is whether the salvo happened
            LieSource::Tap(_) => Some(vec![u64::from(self.lied)]),
            // an RNG's future draws cannot be canonically encoded
            LieSource::Seeded(_) => None,
        }
    }

    fn quiescent(&self) -> bool {
        self.lied // one salvo, then every further message is ignored
    }

    fn absorbs(&self, _src: ProcId, _msg: &BrachaMsg) -> bool {
        self.lied // ditto, per delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_byzantine::choice::ChoiceTap;
    use std::cell::RefCell;

    #[test]
    fn lie_menu_covers_silence_and_both_forged_quorum_messages() {
        let menu: Vec<Option<BrachaMsg>> =
            (0..Lie::DOMAIN).map(|v| Lie::decode(v).message()).collect();
        assert_eq!(menu[0], None);
        assert!(menu.contains(&Some(BrachaMsg::Echo(0))));
        assert!(menu.contains(&Some(BrachaMsg::Echo(1))));
        assert!(menu.contains(&Some(BrachaMsg::Ready(0))));
        assert!(menu.contains(&Some(BrachaMsg::Ready(1))));
    }

    /// Pokes the liar (process 2) with one `Init` at start, so its lie
    /// salvo is observable through the event queue.
    struct Kick;

    impl AsyncProcess for Kick {
        type Msg = BrachaMsg;
        fn on_start(&mut self, ctx: &mut NetCtx<BrachaMsg>) {
            ctx.send(2, BrachaMsg::Init(1));
        }
        fn on_message(&mut self, _src: ProcId, _msg: BrachaMsg, _ctx: &mut NetCtx<BrachaMsg>) {}
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn scripted_liar_sends_exactly_the_scripted_salvo_once() {
        use bne_net::{EnabledKind, EventNet, IdleProcess, NetConfig};

        // script: Ready(0) to proc 0, silence to proc 1 (self is 2),
        // Echo(1) to proc 3
        let tap: SharedTap = Rc::new(RefCell::new(ChoiceTap::scripted(vec![3, 0, 2])));
        let procs: Vec<Box<dyn AsyncProcess<Msg = BrachaMsg>>> = vec![
            Box::new(Kick),
            Box::new(IdleProcess::new()),
            Box::new(BrachaLiar::scripted(Rc::clone(&tap))),
            Box::new(IdleProcess::new()),
        ];
        let mut net = EventNet::new(procs, NetConfig::lockstep(0));
        assert!(net.step(), "deliver the Init poke to the liar");
        let mut sent: Vec<(ProcId, BrachaMsg)> = net
            .enabled_events()
            .iter()
            .map(|ev| match ev.kind {
                EnabledKind::Deliver { src, dst } => {
                    assert_eq!(src, 2);
                    (dst, *net.event_msg(ev).unwrap())
                }
                ref k => panic!("unexpected pending event {k:?}"),
            })
            .collect();
        sent.sort();
        assert_eq!(
            sent,
            vec![(0, BrachaMsg::Ready(0)), (3, BrachaMsg::Echo(1))]
        );
        assert!(tap.borrow().demands().is_empty());
        // the salvo is one-shot: draining the rest produces no new lies
        net.run(100);
        assert_eq!(net.pending_events(), 0);
    }
}
