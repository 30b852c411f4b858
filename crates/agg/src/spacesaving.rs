//! The SPACESAVING algorithm for approximate heavy hitters, with mergeable
//! summaries.
//!
//! SPACESAVING [Metwally, Agrawal, El Abbadi — ICDT 2005] maintains `k`
//! counters. A monitored item increments its counter; an unmonitored item
//! replaces the minimum counter, inheriting its count as an overestimation
//! error. Guarantees (with `m` items seen): every counter overestimates by
//! at most `min_count ≤ m/k`, and any item with true frequency `> m/k` is
//! monitored.
//!
//! Berinde et al. [TODS 2010] show summaries are *mergeable* with additive
//! error, enabling the parallel pattern of §VI-C: each worker summarizes its
//! sub-stream and an aggregator merges. Under shuffle grouping an item's
//! error is the sum of up to `W` per-summary errors; under PKG it is the sum
//! of **two**, independent of the parallelism level.

use pkg_hash::FxHashMap;

/// One monitored item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The item.
    pub key: u64,
    /// Estimated count (upper bound on the true frequency).
    pub count: u64,
    /// Overestimation bound: `count − error ≤ f(key) ≤ count`.
    pub error: u64,
}

/// A SPACESAVING stream summary with at most `k` counters.
///
/// Operations are `O(log k)` via an indexed binary min-heap on counts. The
/// original paper's bucket list is `O(1)` per unit increment, and that is
/// not immaterial: the routing core's `pkg_core::HeadTracker` is built on
/// it, and the per-layer ledger's `core.head_tracker_observe_ns` is about a
/// third of this sketch's `agg.spacesaving_offer_ns` (both on Zipf keys).
/// This sketch keeps the heap because it takes *weighted* offers (an
/// increment by `w` must search the bucket list instead of stepping to the
/// next bucket), tracks a per-counter error, and must merge and encode —
/// none of which the bucket list makes cheaper. This crate is a leaf, so
/// `pkg-core` may depend on it; moving both onto one summary is open work.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    /// Heap of counter slots ordered by count (position 0 = minimum).
    heap: Vec<Counter>,
    /// key → heap position.
    pos: FxHashMap<u64, usize>,
    /// Total items observed.
    total: u64,
}

impl SpaceSaving {
    /// A summary with `k ≥ 1` counters.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one counter");
        Self { capacity: k, heap: Vec::with_capacity(k), pos: FxHashMap::default(), total: 0 }
    }

    /// Number of counters in use.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no items have been observed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Counter capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest monitored count (the global overestimation bound); 0 when
    /// not yet full.
    pub fn min_count(&self) -> u64 {
        if self.heap.len() < self.capacity {
            0
        } else {
            self.heap.first().map_or(0, |c| c.count)
        }
    }

    /// Observe `weight` occurrences of `key`.
    pub fn offer(&mut self, key: u64, weight: u64) {
        self.total += weight;
        if let Some(&i) = self.pos.get(&key) {
            self.heap[i].count += weight;
            self.sift_down(i);
        } else if self.heap.len() < self.capacity {
            self.heap.push(Counter { key, count: weight, error: 0 });
            let i = self.heap.len() - 1;
            self.pos.insert(key, i);
            self.sift_up(i);
        } else {
            // Replace the minimum counter (heap root).
            let evicted = self.heap[0];
            self.pos.remove(&evicted.key);
            self.heap[0] = Counter { key, count: evicted.count + weight, error: evicted.count };
            self.pos.insert(key, 0);
            self.sift_down(0);
        }
    }

    /// Estimated count and error bound for `key`: returns `(count, error)`
    /// with `count − error ≤ f(key) ≤ count`. Unmonitored keys report
    /// `(min_count, min_count)`.
    pub fn estimate(&self, key: u64) -> (u64, u64) {
        match self.pos.get(&key) {
            Some(&i) => (self.heap[i].count, self.heap[i].error),
            None => (self.min_count(), self.min_count()),
        }
    }

    /// All monitored counters, sorted by decreasing estimated count.
    pub fn counters(&self) -> Vec<Counter> {
        let mut v = self.heap.clone();
        v.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    /// The top-`j` items by estimated count.
    pub fn top_k(&self, j: usize) -> Vec<Counter> {
        let mut v = self.counters();
        v.truncate(j);
        v
    }

    /// Items *guaranteed* to exceed frequency `phi · total` (their lower
    /// bound `count − error` clears the threshold).
    pub fn heavy_hitters(&self, phi: f64) -> Vec<Counter> {
        let threshold = (phi * self.total as f64).ceil() as u64;
        self.counters()
            .into_iter()
            .filter(|c| c.count.saturating_sub(c.error) >= threshold)
            .collect()
    }

    /// Merge two summaries (Berinde et al.): estimated counts add; keys
    /// monitored on one side only inherit the other side's `min_count` as
    /// additional count *and* error (the tightest sound bound). The result
    /// keeps the top `k` of the union by estimated count.
    pub fn merge(&self, other: &Self) -> Self {
        let mut entries: FxHashMap<u64, Counter> = FxHashMap::default();
        let (min_a, min_b) = (self.min_count(), other.min_count());
        for c in self.heap.iter() {
            let (b_count, b_err) = match other.pos.get(&c.key) {
                Some(&j) => {
                    let o = other.heap[j];
                    (o.count, o.error)
                }
                None => (min_b, min_b),
            };
            entries.insert(
                c.key,
                Counter { key: c.key, count: c.count + b_count, error: c.error + b_err },
            );
        }
        for c in other.heap.iter() {
            entries.entry(c.key).or_insert(Counter {
                key: c.key,
                count: c.count + min_a,
                error: c.error + min_a,
            });
        }
        let mut all: Vec<Counter> = entries.into_values().collect();
        all.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(self.capacity.max(other.capacity));

        let mut merged = SpaceSaving::new(self.capacity.max(other.capacity));
        merged.total = self.total + other.total;
        for c in all {
            merged.heap.push(c);
            let i = merged.heap.len() - 1;
            merged.pos.insert(c.key, i);
            merged.sift_up(i);
        }
        merged
    }

    /// Rebuild a summary from its parts (the [`crate::PartialAgg`] codec
    /// path). `counters` must hold distinct keys with `error ≤ count`;
    /// returns `None` when the parts violate those invariants or exceed
    /// `capacity`.
    pub fn from_parts(capacity: usize, total: u64, counters: &[Counter]) -> Option<Self> {
        if capacity < 1 || counters.len() > capacity {
            return None;
        }
        let mut ss = SpaceSaving::new(capacity);
        ss.total = total;
        for &c in counters {
            if c.error > c.count || ss.pos.contains_key(&c.key) {
                return None;
            }
            ss.heap.push(c);
            let i = ss.heap.len() - 1;
            ss.pos.insert(c.key, i);
            ss.sift_up(i);
        }
        Some(ss)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].count < self.heap[parent].count {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].count < self.heap[smallest].count {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].count < self.heap[smallest].count {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos.insert(self.heap[a].key, a);
        self.pos.insert(self.heap[b].key, b);
    }

    /// Verify the heap and index invariants (tests/debugging).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert_eq!(self.heap.len(), self.pos.len());
        for (i, c) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[&c.key], i, "index out of sync for key {}", c.key);
            if i > 0 {
                let parent = (i - 1) / 2;
                assert!(self.heap[parent].count <= c.count, "heap order violated at {i}");
            }
            assert!(c.error <= c.count, "error exceeds count");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        for k in 0..5u64 {
            for _ in 0..=k {
                ss.offer(k, 1);
            }
        }
        ss.check_invariants();
        for k in 0..5u64 {
            assert_eq!(ss.estimate(k), (k + 1, 0));
        }
        assert_eq!(ss.min_count(), 0);
    }

    #[test]
    fn error_bound_holds_under_eviction() {
        // Zipf-ish stream over 1000 keys with k=50 counters.
        let mut ss = SpaceSaving::new(50);
        let mut truth: std::collections::HashMap<u64, u64> = Default::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let m = 50_000u64;
        for _ in 0..m {
            let r: f64 = rng.random();
            // Heavy head: key ~ floor(1/r) capped.
            let key = ((1.0 / r.max(1e-9)) as u64).min(999);
            ss.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        ss.check_invariants();
        assert_eq!(ss.total(), m);
        // SpaceSaving guarantee: min_count ≤ m/k and every estimate brackets
        // the truth.
        assert!(ss.min_count() <= m / 50);
        for c in ss.counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            assert!(c.count >= f, "estimate must overestimate");
            assert!(c.count - c.error <= f, "lower bound must hold for key {}", c.key);
        }
    }

    #[test]
    fn top_items_are_found() {
        let mut ss = SpaceSaving::new(20);
        // Keys 0..5 are hot (1000 each), 2000 noise keys appear ~once.
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            for k in 0..5u64 {
                ss.offer(k, 1);
            }
            for _ in 0..2 {
                ss.offer(rng.random_range(100..100_000), 1);
            }
        }
        let top: Vec<u64> = ss.top_k(5).into_iter().map(|c| c.key).collect();
        let mut sorted = top.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "top-5 = {top:?}");
        // And they are *guaranteed* heavy hitters at phi = 10%.
        let hh: Vec<u64> = ss.heavy_hitters(0.10).into_iter().map(|c| c.key).collect();
        assert!(hh.len() == 5, "hh = {hh:?}");
    }

    #[test]
    fn merge_preserves_error_bounds() {
        let mut a = SpaceSaving::new(30);
        let mut b = SpaceSaving::new(30);
        let mut truth: std::collections::HashMap<u64, u64> = Default::default();
        let mut rng = SmallRng::seed_from_u64(3);
        for i in 0..40_000u64 {
            let r: f64 = rng.random();
            let key = ((1.0 / r.max(1e-9)) as u64).min(499);
            *truth.entry(key).or_default() += 1;
            // Split the stream over two summaries, PKG-style by parity.
            if i % 2 == 0 {
                a.offer(key, 1);
            } else {
                b.offer(key, 1);
            }
        }
        let merged = a.merge(&b);
        merged.check_invariants();
        assert_eq!(merged.total(), 40_000);
        for c in merged.counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            assert!(c.count >= f, "merged estimate must overestimate key {}", c.key);
            assert!(
                c.count.saturating_sub(c.error) <= f,
                "merged lower bound violated for key {}: [{}, {}] vs {}",
                c.key,
                c.count - c.error,
                c.count,
                f
            );
        }
    }

    #[test]
    fn merge_error_is_two_terms_not_w() {
        // §VI-C: the merged error bound of two summaries is min_a + min_b,
        // while W-way shuffle would sum W minimums.
        let mut parts: Vec<SpaceSaving> = (0..8).map(|_| SpaceSaving::new(10)).collect();
        let mut two: Vec<SpaceSaving> = (0..2).map(|_| SpaceSaving::new(10)).collect();
        let mut rng = SmallRng::seed_from_u64(4);
        for i in 0..20_000u64 {
            let key = rng.random_range(0..200u64);
            parts[(i % 8) as usize].offer(key, 1);
            two[(i % 2) as usize].offer(key, 1);
        }
        let merged_w: SpaceSaving =
            parts.iter().skip(1).fold(parts[0].clone(), |acc, s| acc.merge(s));
        let merged_2 = two[0].merge(&two[1]);
        // Same data; the 2-way merge carries a smaller worst-case error.
        let worst_w = merged_w.counters().iter().map(|c| c.error).max().unwrap_or(0);
        let worst_2 = merged_2.counters().iter().map(|c| c.error).max().unwrap_or(0);
        assert!(
            worst_2 <= worst_w,
            "2-way worst error {worst_2} should not exceed {w}-way {worst_w}",
            w = 8
        );
    }

    #[test]
    fn unmonitored_keys_report_min_count() {
        let mut ss = SpaceSaving::new(2);
        ss.offer(1, 5);
        ss.offer(2, 3);
        ss.offer(3, 1); // evicts key 2 (count 3) -> key 3: count 4, err 3
        let (c, e) = ss.estimate(2);
        assert_eq!(c, e, "unmonitored estimate is all error");
        assert!(c >= 3, "min_count covers the evicted key");
    }
}
