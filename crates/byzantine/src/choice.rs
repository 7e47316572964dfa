//! Scripted nondeterminism: the **choice tap** protocols expose their
//! coins and Byzantine lies through, so the `bne-mc` model checker can
//! enumerate them instead of sampling them.
//!
//! A [`ChoiceTap`] replaces an RNG with a *script*: a prefix of already
//! decided choices plus a record of **demands** — draws that ran past the
//! script's end. The checker's protocol is:
//!
//! 1. run a transition with the current script;
//! 2. if the tap reports demands, the transition consumed nondeterminism
//!    the script did not cover — roll the runtime back (via
//!    `EventNet::undo`), extend the script with one candidate value per
//!    branch of the first demand's domain, and re-run;
//! 3. once no demands remain, the transition was fully deterministic
//!    under the script and the search recurses.
//!
//! Draws past the script's end return `0`, so step 1 is always total —
//! the checker just must not *keep* a state whose step left demands.
//! Protocols share a tap across clones via [`SharedTap`]; the tap's
//! contents are part of the *search* state, not the *protocol* state, so
//! an `EventNet` undo does not rewind it — the checker saves and
//! restores tap contents itself with [`ChoiceTap::save`]/
//! [`ChoiceTap::restore`].

use std::cell::RefCell;
use std::rc::Rc;

/// A scripted source of bounded nondeterministic choices (see the
/// module docs for the search protocol it supports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChoiceTap {
    /// Decided choices, consumed in order.
    script: Vec<u64>,
    /// Draws performed so far (index of the next script entry).
    pos: usize,
    /// Domain sizes of draws that ran past the script (in draw order).
    demands: Vec<u64>,
    /// The first scripted draw whose entry lay outside its domain.
    out_of_domain: Option<(usize, u64, u64)>,
}

impl ChoiceTap {
    /// A tap with an empty script: every draw becomes a demand.
    pub fn new() -> Self {
        ChoiceTap::default()
    }

    /// A tap primed with `script` (used by counterexample replay, where
    /// the full choice sequence is known up front).
    pub fn scripted(script: Vec<u64>) -> Self {
        ChoiceTap {
            script,
            ..ChoiceTap::default()
        }
    }

    /// Draws one choice from `0..domain`. Scripted draws return the next
    /// script entry, clamped into the domain (an entry outside it is
    /// recorded, see [`ChoiceTap::out_of_domain`]); draws past the script
    /// return `0` and record the demand.
    pub fn draw(&mut self, domain: u64) -> u64 {
        debug_assert!(domain >= 1, "empty choice domain");
        let v = match self.script.get(self.pos) {
            Some(&v) if v < domain => v,
            Some(&v) => {
                self.out_of_domain.get_or_insert((self.pos, v, domain));
                domain - 1
            }
            None => {
                self.demands.push(domain);
                0
            }
        };
        self.pos += 1;
        v
    }

    /// Domain sizes of the draws that ran past the script since the last
    /// [`ChoiceTap::restore`] (empty iff the last transition was fully
    /// covered).
    pub fn demands(&self) -> &[u64] {
        &self.demands
    }

    /// The first scripted draw whose entry lay outside its domain, as
    /// `(draw index, entry, domain)`: a malformed script.
    pub fn out_of_domain(&self) -> Option<(usize, u64, u64)> {
        self.out_of_domain
    }

    /// The decided script (the consumed prefix of the choice space).
    pub fn script(&self) -> &[u64] {
        &self.script
    }

    /// Number of draws performed.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Appends one decided choice to the script (the checker's fork
    /// step: one extension per candidate value of the first demand).
    pub fn push_choice(&mut self, v: u64) {
        self.script.push(v);
    }

    /// Captures the tap for the checker's backtracking stack.
    pub fn save(&self) -> ChoiceTap {
        self.clone()
    }

    /// Rewinds to a [`ChoiceTap::save`]d state.
    pub fn restore(&mut self, saved: &ChoiceTap) {
        self.script.clone_from(&saved.script);
        self.pos = saved.pos;
        self.demands.clone_from(&saved.demands);
        self.out_of_domain = saved.out_of_domain;
    }
}

/// A tap shared between the checker and the processes drawing from it.
pub type SharedTap = Rc<RefCell<ChoiceTap>>;

/// Builds a fresh shared tap with an empty script.
pub fn shared_tap() -> SharedTap {
    Rc::new(RefCell::new(ChoiceTap::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_draws_follow_the_script_then_demand() {
        let mut tap = ChoiceTap::scripted(vec![1, 0]);
        assert_eq!(tap.draw(2), 1);
        assert_eq!(tap.draw(2), 0);
        assert!(tap.demands().is_empty());
        assert_eq!(tap.draw(3), 0, "past the script: default 0");
        assert_eq!(tap.demands(), &[3]);
    }

    #[test]
    fn save_restore_rewinds_script_growth_and_demands() {
        let mut tap = ChoiceTap::new();
        let clean = tap.save();
        let _ = tap.draw(2);
        tap.push_choice(1);
        assert!(!tap.demands().is_empty());
        tap.restore(&clean);
        assert_eq!(tap, clean);
        assert_eq!(tap.pos(), 0);
    }
}
