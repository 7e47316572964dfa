//! An exact interner: dense `u32` ids for word sequences.
//!
//! The explorer names every process state, every transition and every
//! visited state by an id from one of these. Sequences are stored back
//! to back in one flat word arena, and an open-addressing index maps a
//! hash to candidate ids. A hash hit is confirmed by comparing every
//! word (and the length), so two distinct sequences never share an id:
//! a collision costs one more probe, never a merged state.

/// Maps each distinct word sequence to a dense `u32` id, in first-seen
/// order.
pub(crate) struct Interner<W> {
    /// Every interned sequence, back to back.
    words: Vec<W>,
    /// `ends[id]` is where sequence `id` ends in `words` (it starts where
    /// `id - 1` ends).
    ends: Vec<u32>,
    /// The hash of each sequence, so probes reject and growth rehashes
    /// without touching the words.
    hashes: Vec<u64>,
    /// Open-addressing table of `id + 1` (0 = empty); its length is a
    /// power of two and at most half full.
    index: Vec<u32>,
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

    /// The id of `key`, and whether this call interned it.
    pub(crate) fn intern(&mut self, key: &[W]) -> (u32, bool) {
        if 2 * (self.len() + 1) > self.index.len() {
            self.grow();
        }
        let hash = hash(key);
        let mask = self.index.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.index[at] {
                0 => break,
                entry => {
                    let id = entry - 1;
                    if self.hashes[id as usize] == hash && self.get(id) == key {
                        return (id, false);
                    }
                }
            }
            at = (at + 1) & mask;
        }
        let id = u32::try_from(self.len()).expect("interner id space");
        self.words.extend_from_slice(key);
        self.ends
            .push(u32::try_from(self.words.len()).expect("interner arena capacity"));
        self.hashes.push(hash);
        self.index[at] = id + 1;
        (id, true)
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
            index[at] = id as u32 + 1;
        }
        self.index = index;
    }
}

/// A multiply-rotate word hash with a final avalanche, so the low bits
/// the index probes with depend on every word and on the length.
fn hash<W: Copy + Into<u64>>(key: &[W]) -> u64 {
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
    fn narrow_words_intern_like_wide_ones() {
        let mut narrow: Interner<u32> = Interner::new();
        let a = narrow.intern(&[1, 2, 3]).0;
        let b = narrow.intern(&[1, 2]).0;
        assert_ne!(a, b);
        assert_eq!(narrow.intern(&[1, 2, 3]), (a, false));
    }
}
