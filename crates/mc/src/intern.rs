//! An exact interner: dense `u32` ids for word sequences.
//!
//! The explorer names every process state, every transition and every
//! visited state by an id from one of these. Sequences are stored back
//! to back in one flat word arena, and an open-addressing index maps a
//! hash to candidate ids. Each index slot carries the hash's high 32 bits
//! next to the id, so a probe rejects most other sequences without
//! leaving the index. A tag hit is confirmed by comparing every word (and
//! the length), so two distinct sequences never share an id: a collision
//! costs one more probe, never a merged state.

/// Maps each distinct word sequence to a dense `u32` id, in first-seen
/// order.
pub(crate) struct Interner<W> {
    /// Every interned sequence, back to back.
    words: Vec<W>,
    /// `ends[id]` is where sequence `id` ends in `words` (it starts where
    /// `id - 1` ends).
    ends: Vec<u32>,
    /// The hash of each sequence, so growth rehashes without touching
    /// the words.
    hashes: Vec<u64>,
    /// Open-addressing table of slots holding the hash's high 32 bits
    /// over `id + 1` (0 = empty); its length is a power of two and at
    /// most half full.
    index: Vec<u64>,
}

impl<W: Copy + Eq + Into<u64>> Interner<W> {
    pub(crate) fn new() -> Self {
        Interner {
            words: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            index: vec![0; 64],
        }
    }

    /// Number of distinct sequences interned.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The sequence named by `id`.
    fn get(&self, id: u32) -> &[W] {
        let id = id as usize;
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.words[start..self.ends[id] as usize]
    }

    /// The id of `key`, if it is interned.
    pub(crate) fn find(&self, key: &[W]) -> Option<u32> {
        self.probe(key, hash(key)).ok()
    }

    /// Looks up a key whose [`hash`] is known, remembering where the
    /// probe ended so that [`Interner::intern_probed`] need not probe
    /// again.
    pub(crate) fn probe_hashed(&self, key: &[W], hash: u64) -> Probe {
        match self.probe(key, hash) {
            Ok(id) => Probe::Found(id),
            Err(at) => Probe::Vacant {
                at,
                len: self.len(),
            },
        }
    }

    /// The id of `key`, and whether this call interned it.
    pub(crate) fn intern(&mut self, key: &[W]) -> (u32, bool) {
        self.intern_hashed(key, hash(key))
    }

    /// [`Interner::intern`] for a key whose [`hash`] is known.
    pub(crate) fn intern_hashed(&mut self, key: &[W], hash: u64) -> (u32, bool) {
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
        }
        match self.probe(key, hash) {
            Ok(id) => (id, false),
            Err(at) => (self.insert(key, hash, at), true),
        }
    }

    /// [`Interner::intern_hashed`] for a key that `probe`, an earlier
    /// [`Interner::probe_hashed`] of it, looked up: a found id is
    /// returned as it is, and a new key goes into the vacant slot the
    /// probe found. Only when the interner has changed since, or must
    /// grow first, is the key probed again.
    pub(crate) fn intern_probed(&mut self, key: &[W], hash: u64, probe: Probe) -> (u32, bool) {
        match probe {
            Probe::Found(id) => (id, false),
            Probe::Vacant { at, len } if len == self.len() && 2 * (len + 1) <= self.index.len() => {
                (self.insert(key, hash, at), true)
            }
            Probe::Vacant { .. } => self.intern_hashed(key, hash),
        }
    }

    /// Appends `key` as the next id, indexed at the vacant slot `at`.
    fn insert(&mut self, key: &[W], hash: u64, at: usize) -> u32 {
        debug_assert_eq!(self.index[at], 0, "inserting into a vacant slot");
        let id = u32::try_from(self.len()).expect("interner id space");
        self.words.extend_from_slice(key);
        self.ends
            .push(u32::try_from(self.words.len()).expect("interner arena capacity"));
        self.hashes.push(hash);
        self.index[at] = slot(hash, id);
        id
    }

    /// Walks `key`'s probe sequence: `Ok(id)` if it is interned as `id`,
    /// else `Err` of the empty slot where it would go.
    fn probe(&self, key: &[W], hash: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let tag = hash & TAG;
        let mut at = hash as usize & mask;
        loop {
            match self.index[at] {
                0 => return Err(at),
                entry if entry & TAG == tag => {
                    let id = entry as u32 - 1;
                    let words = self.get(id);
                    // an inlined loop: these keys are a few words long,
                    // too short to pay for a `memcmp` call
                    if words.len() == key.len() && words.iter().zip(key).all(|(a, b)| a == b) {
                        return Ok(id);
                    }
                }
                _ => {}
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the index and re-places every id by its stored hash.
    fn grow(&mut self) {
        let size = 2 * self.index.len();
        let mask = size - 1;
        let mut index = vec![0; size];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while index[at] != 0 {
                at = (at + 1) & mask;
            }
            index[at] = slot(hash, id as u32);
        }
        self.index = index;
    }
}

/// Where an [`Interner::probe_hashed`] ended: at the key's id, or at the
/// vacant slot where it would go while the interner still holds `len`
/// sequences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    Found(u32),
    Vacant { at: usize, len: usize },
}

/// The tag half of an index slot.
const TAG: u64 = !(u32::MAX as u64);

/// The index slot of sequence `id` with hash `hash`: the hash's high 32
/// bits over `id + 1`, never 0 since `id + 1` is not.
fn slot(hash: u64, id: u32) -> u64 {
    (hash & TAG) | u64::from(id + 1)
}

/// A multiply-rotate word hash with a final avalanche, so the low bits
/// the index probes with depend on every word and on the length.
pub(crate) fn hash<W: Copy + Into<u64>>(key: &[W]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = key.len() as u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w.into()).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equal_words_share_an_id_and_distinct_words_never_do() {
        // prefixes of each other, all-zero runs of every length and the
        // empty sequence, interned twice across many index growths
        let mut keys: Vec<Vec<u64>> = vec![Vec::new()];
        for len in 1..=6 {
            keys.push(vec![0; len]);
            keys.push((1..=len as u64).collect());
        }
        for i in 0..5_000u64 {
            keys.push(vec![i % 7, i, i * i]);
            keys.push(vec![i % 7, i]);
        }
        let mut interner = Interner::new();
        let mut seen: HashMap<Vec<u64>, u32> = HashMap::new();
        for round in 0..2 {
            for key in &keys {
                let (id, fresh) = interner.intern(key);
                match seen.get(key) {
                    Some(&earlier) => {
                        assert_eq!(id, earlier, "{key:?} changed id");
                        assert!(!fresh);
                    }
                    None => {
                        assert_eq!(round, 0);
                        assert!(fresh, "{key:?} matched an earlier sequence");
                        assert_eq!(id as usize, seen.len(), "ids are dense");
                        seen.insert(key.clone(), id);
                    }
                }
                assert_eq!(interner.get(id), key.as_slice());
            }
        }
        assert!(interner.index.len() >= 2 * seen.len(), "the index grew");
        assert_eq!(interner.len(), seen.len());
    }

    #[test]
    fn find_answers_like_intern_without_inserting() {
        let mut interner: Interner<u64> = Interner::new();
        for i in 0..1_000u64 {
            interner.intern(&[i, i >> 3]);
        }
        for i in 0..2_000u64 {
            let key = [i, i >> 3];
            let found = interner.find(&key);
            assert_eq!(found, (i < 1_000).then_some(i as u32), "{key:?}");
        }
        assert_eq!(interner.len(), 1_000, "find inserted nothing");
        assert_eq!(interner.find(&[]), None);
    }

    #[test]
    fn probed_interns_match_plain_ones_even_when_the_probe_is_stale() {
        let mut probed: Interner<u64> = Interner::new();
        let mut plain: Interner<u64> = Interner::new();
        for i in 0..3_000u64 {
            // every third key repeats, and every fifth probe goes stale
            // before its insert: another key goes in first
            let key = [i % 1_000, i / 3];
            let h = hash(&key);
            let probe = probed.probe_hashed(&key, h);
            let found = match probe {
                Probe::Found(id) => Some(id),
                Probe::Vacant { .. } => None,
            };
            assert_eq!(found, plain.find(&key));
            if i % 5 == 0 {
                let other = [u64::MAX - i];
                assert_eq!(probed.intern(&other), plain.intern(&other));
            }
            assert_eq!(
                probed.intern_probed(&key, h, probe),
                plain.intern(&key),
                "{key:?}"
            );
        }
        assert_eq!(probed.len(), plain.len());
        assert_eq!(
            probed.index, plain.index,
            "the same slots, in the same order"
        );
    }

    #[test]
    fn narrow_words_intern_like_wide_ones() {
        let mut narrow: Interner<u32> = Interner::new();
        let a = narrow.intern(&[1, 2, 3]).0;
        let b = narrow.intern(&[1, 2]).0;
        assert_ne!(a, b);
        assert_eq!(narrow.intern(&[1, 2, 3]), (a, false));
    }
}
