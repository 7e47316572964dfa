//! Shared profile-space sweep helpers.
//!
//! Every "find all profiles satisfying X" / "find the first profile
//! satisfying X" search in the workspace (pure Nash, k-resilience,
//! t-immunity, (k,t)-robustness, punishment strategies) is the same shape:
//! a predicate on the flat profile index, swept sequentially with the
//! zero-allocation cursor or in parallel over contiguous index ranges
//! (`crate::parallel`). These four functions are that shape, written
//! once.
//!
//! Results are deterministic: collection sweeps return profiles in flat
//! (odometer) order regardless of worker count, and first-witness sweeps
//! return the lowest flat index.

use crate::normal_form::NormalFormGame;
use crate::profile::ActionProfile;

/// All profiles whose flat index satisfies `pred`, in flat-index order.
pub fn find_profiles<F: Fn(usize) -> bool>(game: &NormalFormGame, pred: F) -> Vec<ActionProfile> {
    let mut out = Vec::new();
    game.visit_profiles(|profile, flat| {
        if pred(flat) {
            out.push(profile.to_vec());
        }
    });
    out
}

/// The profile with the lowest flat index satisfying `pred`, if any.
pub fn first_profile<F: Fn(usize) -> bool>(
    game: &NormalFormGame,
    pred: F,
) -> Option<ActionProfile> {
    let mut found = None;
    game.visit_profiles_while(|profile, flat| {
        if pred(flat) {
            found = Some(profile.to_vec());
            return false;
        }
        true
    });
    found
}

/// Parallel form of [`find_profiles`]: index ranges fan out across
/// threads (`workers` as in [`crate::parallel::fan_out`]) and their hits
/// concatenate in index order, so the output is bit-identical to the
/// sequential sweep.
pub fn find_profiles_parallel<F: Fn(usize) -> bool + Sync>(
    game: &NormalFormGame,
    workers: Option<usize>,
    pred: F,
) -> Vec<ActionProfile> {
    crate::parallel::collect_ranges(game.num_profiles(), workers, |range| {
        let mut hits = Vec::new();
        game.visit_profiles_in(range, |profile, flat| {
            if pred(flat) {
                hits.push(profile.to_vec());
            }
            true
        });
        hits
    })
}

/// Parallel form of [`first_profile`] with deterministic
/// lowest-flat-index-wins semantics.
pub fn first_profile_parallel<F: Fn(usize) -> bool + Sync>(
    game: &NormalFormGame,
    workers: Option<usize>,
    pred: F,
) -> Option<ActionProfile> {
    crate::parallel::find_first(game.num_profiles(), workers, pred)
        .map(|flat| game.profile_at(flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_game;

    #[test]
    fn sequential_helpers_match_manual_sweeps() {
        let g = random_game(77, &[3, 2, 3]);
        let even = find_profiles(&g, |flat| flat % 2 == 0);
        let expected: Vec<_> = g
            .profiles()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(even, expected);
        assert_eq!(first_profile(&g, |flat| flat >= 7), Some(g.profile_at(7)));
        assert_eq!(first_profile(&g, |_| false), None);
    }

    #[test]
    fn parallel_helpers_are_bit_identical_for_any_worker_count() {
        let g = random_game(78, &[2, 3, 2, 2]);
        for workers in [None, Some(1), Some(2), Some(3), Some(8)] {
            assert_eq!(
                find_profiles(&g, |flat| flat % 3 == 1),
                find_profiles_parallel(&g, workers, |flat| flat % 3 == 1)
            );
            assert_eq!(
                first_profile(&g, |flat| flat > 10),
                first_profile_parallel(&g, workers, |flat| flat > 10)
            );
        }
    }
}
