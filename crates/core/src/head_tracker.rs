//! Streaming head-key detection: head classification over a Space-Saving
//! summary.
//!
//! The D-Choices/W-Choices schemes of "When Two Choices Are not Enough"
//! (Nasir et al., ICDE 2016) must tell the few *head* keys — too frequent
//! for two workers to absorb — from the long tail, online, per source, in
//! constant memory. [`HeadTracker`] is `pkg-agg`'s O(1) [`SpaceSaving`]
//! summary sized for a head threshold, offered each routed key once.
//!
//! **Victim rule.** A new key in a full summary takes over the oldest slot
//! at the minimum and inherits `min + 1`. Routing does not depend on this
//! choice: a forgotten key re-enters at `min + 1`, the count it would have
//! reached had it been kept, so `observe` returns the same value under
//! every tie rule. Only [`HeadTracker::count`] of a key at the minimum
//! (`min` vs 0) can differ, and such a key is never head after warm-up:
//! `min ≤ total/capacity ≤ θ·total/8`.
//!
//! **Guarantees.** `count(k) ≥ occ(k)`, so a hot key is never missed; and
//! `count(k) ≤ occ(k) + total/capacity`, so with `capacity ≥ 8/θ` and the
//! warm-up rule (nothing is head until `total · θ ≥ WARMUP_MASS`: in a
//! tiny sample every first occurrence clears any relative threshold), a key
//! whose true frequency stays under `3θ/4` is never head. That determinism
//! lets D-Choices degenerate to *byte-identical* PKG routing on uniform
//! streams (pinned by `tests/property_tests.rs`).
//!
//! **One probe per routed message.** The router calls only `observe` and
//! classifies its count and the new total (`is_head_at`); `candidates`
//! applies the same test to [`HeadTracker::next_count`] and `total + 1`,
//! exactly the integers the next `observe` produces.

use pkg_agg::SpaceSaving;

/// Observations of estimated-frequency mass a key must be able to amass
/// before head classification switches on (`total ≥ WARMUP_MASS / θ`).
const WARMUP_MASS: f64 = 8.0;

/// Whether a key counted `count` times in `total` observations is head at
/// threshold `theta`: past warm-up, and `count/total ≥ θ`. The one head
/// test, shared by routing (on `observe`'s result) and prediction (on
/// [`HeadTracker::next_count`]).
#[inline]
pub(crate) fn is_head_at(count: u64, total: u64, theta: f64) -> bool {
    total as f64 * theta >= WARMUP_MASS && count as f64 / total as f64 >= theta
}

/// A Space-Saving summary of a source's keys, read for head classification.
#[derive(Debug, Clone)]
pub struct HeadTracker {
    summary: SpaceSaving,
}

impl HeadTracker {
    /// A tracker with the given counter budget (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self { summary: SpaceSaving::new(capacity) }
    }

    /// A tracker sized for head threshold `θ`: `capacity = ⌈8/θ⌉` counters
    /// (at least 64), so overestimation stays below `θ/8` of the stream.
    pub fn for_threshold(theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "threshold must be in (0,1]");
        Self::new(64.max((WARMUP_MASS / theta).ceil() as usize))
    }

    /// Count one occurrence of `key`; returns its updated count estimate.
    #[inline]
    pub fn observe(&mut self, key: u64) -> u64 {
        self.summary.offer(key, 1)
    }

    /// Estimated count of `key` (its overestimate; 0 if untracked — its
    /// true count is then at most the minimum, i.e. certifiably tail).
    pub fn count(&self, key: u64) -> u64 {
        self.summary.get(key).map_or(0, |c| c.count)
    }

    /// The smallest tracked count (0 while none is): the most a tracked key
    /// is overestimated by, and the most an untracked key has occurred.
    pub fn min_count(&self) -> u64 {
        self.summary.min_tracked()
    }

    /// The count [`observe`](Self::observe)`(key)` will return next: one
    /// more than its estimate (`min_count`, 0 until full, if untracked).
    #[inline]
    pub fn next_count(&self, key: u64) -> u64 {
        self.summary.estimate(key).0 + 1
    }

    /// Total observations so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.summary.total()
    }

    /// Number of keys currently tracked (≤ capacity).
    pub fn tracked(&self) -> usize {
        self.summary.len()
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.summary.capacity()
    }

    /// Panic unless the summary is well formed and its counts sum to
    /// `total` (each observe adds exactly one).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.summary.check_invariants();
        let sum: u64 = self.summary.counters().iter().map(|c| c.count).sum();
        assert_eq!(sum, self.total(), "counts must sum to the observations");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_below_capacity() {
        let mut t = HeadTracker::new(16);
        for i in 0..10u64 {
            for _ in 0..=i {
                t.observe(i);
            }
        }
        for i in 0..10u64 {
            assert_eq!(t.count(i), i + 1);
        }
        assert_eq!(t.total(), 55);
        assert_eq!(t.tracked(), 10);
    }

    #[test]
    fn overestimates_but_never_underestimates() {
        // 4 counters, 20 distinct keys, one genuinely hot.
        let mut t = HeadTracker::new(4);
        let mut occ = std::collections::HashMap::new();
        for i in 0..2_000u64 {
            let key = if i % 3 == 0 { 0 } else { 1 + (i % 19) };
            t.observe(key);
            *occ.entry(key).or_insert(0u64) += 1;
        }
        assert!(t.tracked() <= 4);
        // The Space-Saving guarantees on every tracked key.
        let min = t.min_count();
        assert!(min <= t.total() / 4, "min {} > total/capacity", min);
        assert!(t.count(0) >= occ[&0], "hot key underestimated");
        for (&k, &o) in &occ {
            if t.count(k) > 0 {
                assert!(t.count(k) <= o + min, "key {k} overestimated past occ+min");
            }
        }
    }

    #[test]
    fn hot_key_frequency_converges() {
        let mut t = HeadTracker::for_threshold(0.05);
        for i in 0..50_000u64 {
            let key = if i % 5 == 0 { 42 } else { i };
            t.observe(key);
        }
        let f = t.count(42) as f64 / t.total() as f64;
        assert!((f - 0.2).abs() < 0.02, "estimated hot frequency {f}");
        assert!(t.total() as f64 * 0.05 >= WARMUP_MASS, "not warmed up");
    }

    #[test]
    fn uniform_keys_never_classify_head_after_warmup() {
        // The determinism the PKG-degeneration property rests on: cycling
        // uniform keys stay below θ at every single step.
        let theta = 0.05;
        let mut t = HeadTracker::for_threshold(theta);
        for i in 0..100_000u64 {
            let key = i % 500;
            let head = is_head_at(t.next_count(key), t.total() + 1, theta);
            assert!(!head, "uniform key {key} classified head at t={i}");
            t.observe(key);
        }
    }

    #[test]
    fn capacity_is_respected_under_all_distinct_keys() {
        let mut t = HeadTracker::new(32);
        for i in 0..10_000u64 {
            t.observe(i);
        }
        assert_eq!(t.tracked(), 32);
        assert_eq!(t.total(), 10_000);
    }

    #[test]
    fn victim_is_the_oldest_key_at_the_minimum() {
        let mut t = HeadTracker::new(3);
        for key in [1, 2, 3, 3] {
            t.observe(key);
        }
        // 1 and 2 tie at the minimum; 1 got there first and is evicted.
        assert_eq!(t.observe(4), 2);
        assert_eq!((t.count(1), t.count(2), t.count(3), t.count(4)), (0, 1, 2, 2));
        // Bumping 2 to 2 puts it behind 3 and 4 in the minimum bucket.
        t.observe(2);
        assert_eq!(t.observe(5), 3);
        assert_eq!((t.count(3), t.count(4), t.count(2)), (0, 2, 2));
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_panics() {
        let _ = HeadTracker::new(0);
    }
}
