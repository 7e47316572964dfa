//! Action profiles and utilities for iterating over them.
//!
//! A profile assigns one action to each player. Profiles are stored as
//! `Vec<ActionId>` (the [`ActionProfile`] alias) and iterated in
//! "odometer" (mixed-radix) order by [`ProfileIter`], which many solvers
//! and robustness checkers rely on.

use crate::ActionId;

/// A pure action profile: `profile[i]` is the action chosen by player `i`.
pub type ActionProfile = Vec<ActionId>;

/// Iterator over every pure action profile of a game with the given
/// per-player action counts, in lexicographic (odometer) order.
///
/// The iterator knows exactly how many profiles remain, so `size_hint` is
/// exact, [`ExactSizeIterator`] holds, and `.collect::<Vec<_>>()`
/// pre-allocates. The final profile is moved out instead of cloned. For
/// allocation-free sweeps prefer [`visit_mixed_radix`] (or
/// `NormalFormGame::visit_profiles`), which reuses one buffer for the whole
/// walk.
///
/// # Examples
///
/// ```
/// use bne_games::profile::ProfileIter;
/// let mut iter = ProfileIter::new(&[2, 3]);
/// assert_eq!(iter.len(), 6);
/// let profiles: Vec<_> = iter.collect();
/// assert_eq!(profiles[0], vec![0, 0]);
/// assert_eq!(profiles[5], vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileIter {
    radices: Vec<usize>,
    current: Vec<usize>,
    remaining: usize,
}

impl ProfileIter {
    /// Creates an iterator over all profiles with `radices[i]` actions for
    /// player `i`. If any radix is zero the iterator is immediately empty.
    pub fn new(radices: &[usize]) -> Self {
        ProfileIter {
            remaining: Self::count_profiles(radices),
            current: vec![0; radices.len()],
            radices: radices.to_vec(),
        }
    }

    /// Total number of profiles this iterator will yield.
    pub fn count_profiles(radices: &[usize]) -> usize {
        if radices.is_empty() {
            return 0;
        }
        radices.iter().product()
    }
}

impl Iterator for ProfileIter {
    type Item = ActionProfile;

    fn next(&mut self) -> Option<ActionProfile> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            // Last profile: hand over the buffer instead of cloning it.
            return Some(std::mem::take(&mut self.current));
        }
        let out = self.current.clone();
        advance_odometer(&mut self.current, &self.radices);
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ProfileIter {}

impl std::iter::FusedIterator for ProfileIter {}

/// Advances a mixed-radix odometer (last digit fastest) by one step.
/// Returns `false` when the odometer wrapped around back to all zeros.
#[inline]
fn advance_odometer(current: &mut [usize], radices: &[usize]) -> bool {
    let mut i = current.len();
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        current[i] += 1;
        if current[i] < radices[i] {
            return true;
        }
        current[i] = 0;
    }
}

/// Per-player strides of the dense odometer layout (player 0 slowest):
/// `flat = Σ profile[p] * strides[p]` with
/// `strides[p] = radices[p + 1] * ... * radices[n - 1]`.
pub fn strides_for(radices: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; radices.len()];
    for p in (0..radices.len().saturating_sub(1)).rev() {
        strides[p] = strides[p + 1] * radices[p + 1];
    }
    strides
}

/// Calls `f(profile, flat)` for every mixed-radix assignment, reusing a
/// single buffer: no per-step allocation. `flat` is the assignment's index
/// in the dense odometer layout (the same index [`profile_to_index`]
/// computes). Visits nothing when `radices` is empty or contains a zero.
pub fn visit_mixed_radix<F: FnMut(&[usize], usize)>(radices: &[usize], mut f: F) {
    visit_mixed_radix_while(radices, |profile, flat| {
        f(profile, flat);
        true
    });
}

/// Early-exit variant of [`visit_mixed_radix`]: stops as soon as `f`
/// returns `false`. Returns `true` when the sweep ran to completion.
pub fn visit_mixed_radix_while<F: FnMut(&[usize], usize) -> bool>(
    radices: &[usize],
    mut f: F,
) -> bool {
    let total = ProfileIter::count_profiles(radices);
    let mut current = vec![0usize; radices.len()];
    for flat in 0..total {
        if !f(&current, flat) {
            return false;
        }
        advance_odometer(&mut current, radices);
    }
    true
}

/// Calls `f(profile, flat)` for every flat index in `range` (a contiguous
/// slice of the odometer order), reusing a single buffer. This is the
/// range primitive behind the parallel sweeps: a worker visits
/// `start..end` without materializing any profile.
///
/// # Panics
///
/// Panics if `range.end` exceeds the total number of profiles.
pub fn visit_mixed_radix_range<F: FnMut(&[usize], usize) -> bool>(
    radices: &[usize],
    range: std::ops::Range<usize>,
    mut f: F,
) -> bool {
    let total = ProfileIter::count_profiles(radices);
    assert!(range.end <= total, "range end {} > {total}", range.end);
    if range.start >= range.end {
        return true;
    }
    let mut current = index_to_profile(range.start, radices);
    for flat in range {
        if !f(&current, flat) {
            return false;
        }
        advance_odometer(&mut current, radices);
    }
    true
}

/// Converts a profile to a flat index into a dense payoff tensor laid out in
/// the same odometer order as [`ProfileIter`].
///
/// # Panics
///
/// Panics if the profile length does not match `radices` or any entry is out
/// of range (this is an internal indexing helper; public APIs validate
/// beforehand).
pub fn profile_to_index(profile: &[ActionId], radices: &[usize]) -> usize {
    assert_eq!(profile.len(), radices.len(), "profile length mismatch");
    let mut idx = 0usize;
    for (a, r) in profile.iter().zip(radices.iter()) {
        assert!(a < r, "action {a} out of range {r}");
        idx = idx * r + a;
    }
    idx
}

/// Inverse of [`profile_to_index`].
pub fn index_to_profile(mut index: usize, radices: &[usize]) -> ActionProfile {
    let mut profile = vec![0; radices.len()];
    for i in (0..radices.len()).rev() {
        profile[i] = index % radices[i];
        index /= radices[i];
    }
    profile
}

/// Runs `f` on a zeroed scratch slice of `len` elements, stack-allocated
/// for `len <= 16` (the realistic range for players/coalitions) with a
/// heap fallback beyond. The shared small-buffer pattern of the hot
/// visitors: one call replaces a per-invocation `Vec` allocation.
pub fn with_scratch<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut stack = [T::default(); 16];
    if len <= stack.len() {
        f(&mut stack[..len])
    } else {
        let mut heap = vec![T::default(); len];
        f(&mut heap)
    }
}

/// Iterates over all subsets of `{0, .., n-1}` of size exactly `size`,
/// invoking `f` on each. Used for coalition enumeration in `bne-robust`.
pub fn for_each_subset_of_size<F: FnMut(&[usize])>(n: usize, size: usize, mut f: F) {
    try_for_each_subset_of_size(n, size, |s| {
        f(s);
        true
    });
}

/// Early-exit variant of [`for_each_subset_of_size`]: stops as soon as `f`
/// returns `false`. Returns `true` when every subset was visited. Lets the
/// witness searches in `bne-robust` enumerate coalitions without
/// materializing them.
pub fn try_for_each_subset_of_size<F: FnMut(&[usize]) -> bool>(
    n: usize,
    size: usize,
    mut f: F,
) -> bool {
    if size > n {
        return true;
    }
    // This function runs once per (profile, coalition size) in the
    // robustness sweeps, so the combination cursor lives on the stack.
    with_scratch::<usize, bool>(size, |combo| {
        for (i, slot) in combo.iter_mut().enumerate() {
            *slot = i;
        }
        if size == 0 {
            return f(combo);
        }
        loop {
            if !f(combo) {
                return false;
            }
            // advance combination
            let mut i = size;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if combo[i] < n - (size - i) {
                    combo[i] += 1;
                    for j in i + 1..size {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    })
}

/// Collects all subsets of `{0, .., n-1}` whose size is between 1 and
/// `max_size` inclusive.
pub fn subsets_up_to_size(n: usize, max_size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for size in 1..=max_size.min(n) {
        for_each_subset_of_size(n, size, |s| out.push(s.to_vec()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_iter_covers_all_profiles_once() {
        let all: Vec<_> = ProfileIter::new(&[2, 3, 2]).collect();
        assert_eq!(all.len(), 12);
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(seen.insert(p.clone()), "duplicate profile {p:?}");
            assert!(p[0] < 2 && p[1] < 3 && p[2] < 2);
        }
    }

    #[test]
    fn profile_iter_empty_radix_yields_nothing() {
        assert_eq!(ProfileIter::new(&[2, 0, 3]).count(), 0);
        assert_eq!(ProfileIter::new(&[]).count(), 0);
    }

    #[test]
    fn index_round_trip() {
        let radices = [3, 4, 2, 5];
        for (i, p) in ProfileIter::new(&radices).enumerate() {
            assert_eq!(profile_to_index(&p, &radices), i);
            assert_eq!(index_to_profile(i, &radices), p);
        }
    }

    #[test]
    fn count_profiles_matches_iterator() {
        let radices = [2, 3, 4];
        assert_eq!(
            ProfileIter::count_profiles(&radices),
            ProfileIter::new(&radices).count()
        );
        assert_eq!(ProfileIter::count_profiles(&[]), 0);
    }

    #[test]
    fn subsets_of_size_two_from_four() {
        let mut got = Vec::new();
        for_each_subset_of_size(4, 2, |s| got.push(s.to_vec()));
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], vec![0, 1]);
        assert_eq!(got[5], vec![2, 3]);
    }

    #[test]
    fn subsets_of_size_zero_is_single_empty_set() {
        let mut got = Vec::new();
        for_each_subset_of_size(5, 0, |s| got.push(s.to_vec()));
        assert_eq!(got, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn subsets_up_to_size_counts() {
        // C(5,1) + C(5,2) + C(5,3) = 5 + 10 + 10 = 25
        assert_eq!(subsets_up_to_size(5, 3).len(), 25);
        // larger than n caps at n
        assert_eq!(subsets_up_to_size(3, 10).len(), 7);
    }

    #[test]
    fn profile_iter_is_exact_size() {
        let mut iter = ProfileIter::new(&[3, 2, 2]);
        assert_eq!(iter.len(), 12);
        assert_eq!(iter.size_hint(), (12, Some(12)));
        iter.next();
        assert_eq!(iter.len(), 11);
        assert_eq!(iter.by_ref().count(), 11);
        assert_eq!(iter.next(), None); // fused
        assert_eq!(ProfileIter::new(&[2, 0]).len(), 0);
    }

    #[test]
    fn strides_match_profile_to_index() {
        let radices = [3, 4, 2, 5];
        let strides = strides_for(&radices);
        assert_eq!(strides, vec![40, 10, 5, 1]);
        for p in ProfileIter::new(&radices) {
            let via_strides: usize = p.iter().zip(strides.iter()).map(|(a, s)| a * s).sum();
            assert_eq!(via_strides, profile_to_index(&p, &radices));
        }
    }

    #[test]
    fn visit_mixed_radix_agrees_with_profile_iter() {
        let radices = [2, 3, 2];
        let mut visited = Vec::new();
        visit_mixed_radix(&radices, |p, flat| visited.push((p.to_vec(), flat)));
        let expected: Vec<_> = ProfileIter::new(&radices)
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        assert_eq!(visited, expected);
        // degenerate radices visit nothing
        let mut count = 0;
        visit_mixed_radix(&[2, 0], |_, _| count += 1);
        visit_mixed_radix(&[], |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn visit_mixed_radix_while_stops_early() {
        let mut seen = 0;
        let completed = visit_mixed_radix_while(&[2, 2, 2], |_, flat| {
            seen += 1;
            flat < 2
        });
        assert!(!completed);
        assert_eq!(seen, 3);
        assert!(visit_mixed_radix_while(&[2, 2], |_, _| true));
    }

    #[test]
    fn visit_mixed_radix_range_covers_chunks() {
        let radices = [3, 2, 4];
        let total = ProfileIter::count_profiles(&radices);
        let mut chunked = Vec::new();
        for start in (0..total).step_by(5) {
            let end = (start + 5).min(total);
            visit_mixed_radix_range(&radices, start..end, |p, flat| {
                chunked.push((p.to_vec(), flat));
                true
            });
        }
        let whole: Vec<_> = ProfileIter::new(&radices)
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        assert_eq!(chunked, whole);
        // empty range is a no-op completion
        assert!(visit_mixed_radix_range(&radices, 3..3, |_, _| false));
    }
}
