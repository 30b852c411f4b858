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
//!
//! **Structure.** Metwally et al.'s *stream-summary*: a slab of counter
//! slots, a doubly-linked list of count buckets in ascending order, each a
//! FIFO of slots, and one hash map key → slot. A unit offer moves a slot to
//! the bucket of `count + 1` (or bumps its bucket in place) — a constant
//! number of link updates; a weighted one walks up to the bucket of
//! `count + w`. Storage is sized at construction, so an offer never
//! allocates. This one summary serves both [`crate::TopK`] and routing's
//! `pkg_core::HeadTracker` (one unit offer per routed message).
//!
//! **Victim rule.** A new key in a full summary takes over the *oldest*
//! slot of the minimum bucket (of the keys at the minimum count, the first
//! to reach it) and inherits that count as its error. `merge` and
//! `from_parts` lay counters out in one canonical order that depends only
//! on the counter set. Counts, errors and the total saturate at 2⁵³, the
//! bound [`crate::TopK`]'s decode enforces, so every reachable summary
//! encodes to a payload its own decode accepts.

use std::collections::hash_map::Entry;

use pkg_hash::FxHashMap;

use crate::partial::codec::MAX_COUNT;

/// End of a slot FIFO or of the bucket list.
const NIL: u32 = u32::MAX;

/// `a + b`, saturated at 2⁵³.
#[inline]
fn add(a: u64, b: u64) -> u64 {
    a.saturating_add(b).min(MAX_COUNT)
}

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

/// One counter: a monitored key, its error, its bucket, and its older
/// (`prev`) and newer (`next`) neighbours in that bucket's FIFO.
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    error: u64,
    bucket: u32,
    prev: u32,
    next: u32,
}

/// Every counter at one count, oldest first; `lower` / `higher` link the
/// neighbouring counts' buckets (`higher` chains the free list when unused).
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    oldest: u32,
    newest: u32,
    lower: u32,
    higher: u32,
}

/// A SPACESAVING stream summary with at most `k` counters: `O(1)` per unit
/// offer, `O(buckets passed)` per weighted one (see the module docs).
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    /// Monitored key → its slot.
    index: FxHashMap<u64, u32>,
    /// Counter slots; one per monitored key, never released.
    slots: Vec<Slot>,
    buckets: Vec<Bucket>,
    /// Minimum-count bucket (`NIL` while nothing is monitored).
    first: u32,
    /// Head of the free-bucket list.
    free: u32,
    capacity: usize,
    /// Total items observed.
    total: u64,
}

impl SpaceSaving {
    /// A summary with `k ≥ 1` counters.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one counter");
        assert!(k < NIL as usize, "capacity must fit a u32 slot index");
        // Live buckets never outnumber slots. The map holds one extra key
        // mid-eviction and stays under a quarter full: evictions leave
        // tombstones that lengthen probes until an in-place rehash, and a
        // half-full table measured ~1.6× slower per offer on a Zipf stream
        // that evicts every other message (2-core Xeon VM; EXPERIMENTS.md).
        Self {
            index: FxHashMap::with_capacity_and_hasher(4 * (k + 1), Default::default()),
            slots: Vec::with_capacity(k),
            buckets: Vec::with_capacity(k),
            first: NIL,
            free: NIL,
            capacity: k,
            total: 0,
        }
    }

    /// Number of counters in use.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no items have been observed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Counter capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items observed.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest monitored count (the global overestimation bound); 0 when
    /// not yet full.
    #[inline]
    pub fn min_count(&self) -> u64 {
        if self.slots.len() < self.capacity {
            0
        } else {
            self.min_tracked()
        }
    }

    /// Smallest monitored count, full or not (0 while none is).
    #[inline]
    pub fn min_tracked(&self) -> u64 {
        // `first` is `NIL`, past any bucket, only while nothing is monitored.
        self.buckets.get(self.first as usize).map_or(0, |b| b.count)
    }

    /// Observe `weight` occurrences of `key`; returns its estimated count.
    pub fn offer(&mut self, key: u64, weight: u64) -> u64 {
        self.total = add(self.total, weight);
        let s = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) if self.slots.len() < self.capacity => {
                let s = self.slots.len() as u32;
                e.insert(s);
                self.slots.push(Slot { key, error: 0, bucket: NIL, prev: NIL, next: NIL });
                s
            }
            Entry::Vacant(e) => {
                // Full: the victim slot changes hands, and its count
                // becomes the new key's error.
                let s = self.buckets[self.first as usize].oldest;
                e.insert(s);
                let slot = &mut self.slots[s as usize];
                let victim = std::mem::replace(&mut slot.key, key);
                slot.error = self.buckets[self.first as usize].count;
                self.index.remove(&victim);
                s
            }
        };
        self.raise(s, weight)
    }

    /// Move slot `s` (in no bucket yet when new) to the bucket of its count
    /// plus `weight`; returns that count.
    #[inline]
    fn raise(&mut self, s: u32, weight: u64) -> u64 {
        let b = self.slots[s as usize].bucket;
        let (count, mut lower, mut higher, alone) = match b {
            NIL => (0, NIL, self.first, false),
            _ => {
                let k = &self.buckets[b as usize];
                (k.count, b, k.higher, k.oldest == k.newest)
            }
        };
        let target = add(count, weight);
        if b != NIL && target == count {
            return count;
        }
        // A unit offer never passes a bucket: counts strictly ascend.
        while higher != NIL && self.buckets[higher as usize].count < target {
            (lower, higher) = (higher, self.buckets[higher as usize].higher);
        }
        let joins = higher != NIL && self.buckets[higher as usize].count == target;
        if alone && lower == b && !joins {
            self.buckets[b as usize].count = target;
            return target;
        }
        if alone {
            lower = if lower == b { self.buckets[b as usize].lower } else { lower };
            self.release_bucket(b);
        } else if b != NIL {
            self.unlink_slot(s);
        }
        let t = if joins { higher } else { self.new_bucket(target, lower, higher) };
        self.push_newest(t, s);
        target
    }

    /// Append slot `s` to bucket `b`'s FIFO.
    #[inline]
    fn push_newest(&mut self, b: u32, s: u32) {
        let last = self.buckets[b as usize].newest;
        let slot = &mut self.slots[s as usize];
        (slot.bucket, slot.prev, slot.next) = (b, last, NIL);
        match last {
            NIL => self.buckets[b as usize].oldest = s,
            _ => self.slots[last as usize].next = s,
        }
        self.buckets[b as usize].newest = s;
    }

    /// Detach slot `s` from its bucket's FIFO.
    #[inline]
    fn unlink_slot(&mut self, s: u32) {
        let Slot { bucket, prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.buckets[bucket as usize].oldest = next,
            _ => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.buckets[bucket as usize].newest = prev,
            _ => self.slots[next as usize].prev = prev,
        }
    }

    /// An empty bucket of `count`, linked between `lower` and `higher`.
    #[inline]
    fn new_bucket(&mut self, count: u64, lower: u32, higher: u32) -> u32 {
        let bucket = Bucket { count, oldest: NIL, newest: NIL, lower, higher };
        let b = match self.free {
            NIL => {
                self.buckets.push(bucket);
                (self.buckets.len() - 1) as u32
            }
            b => {
                self.free = self.buckets[b as usize].higher;
                self.buckets[b as usize] = bucket;
                b
            }
        };
        self.link(lower, b);
        self.link(b, higher);
        b
    }

    /// Unlink bucket `b` from the bucket list onto the free list.
    #[inline]
    fn release_bucket(&mut self, b: u32) {
        let Bucket { lower, higher, .. } = self.buckets[b as usize];
        self.link(lower, higher);
        self.buckets[b as usize].higher = self.free;
        self.free = b;
    }

    /// Make `higher` follow `lower` in the bucket list (`NIL` `lower`:
    /// `higher` becomes the first bucket; `NIL` `higher`: `lower` the last).
    #[inline]
    fn link(&mut self, lower: u32, higher: u32) {
        match lower {
            NIL => self.first = higher,
            _ => self.buckets[lower as usize].higher = higher,
        }
        if higher != NIL {
            self.buckets[higher as usize].lower = lower;
        }
    }

    /// The counter in slot `s`.
    #[inline]
    fn counter(&self, s: &Slot) -> Counter {
        Counter { key: s.key, count: self.buckets[s.bucket as usize].count, error: s.error }
    }

    /// The counter of `key`, if it is monitored.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Counter> {
        self.index.get(&key).map(|&s| self.counter(&self.slots[s as usize]))
    }

    /// Estimated count and error bound for `key`: returns `(count, error)`
    /// with `count − error ≤ f(key) ≤ count`. Unmonitored keys report
    /// `(min_count, min_count)`.
    #[inline]
    pub fn estimate(&self, key: u64) -> (u64, u64) {
        let min = self.min_count();
        self.get(key).map_or((min, min), |c| (c.count, c.error))
    }

    /// All monitored counters, sorted by decreasing estimated count.
    pub fn counters(&self) -> Vec<Counter> {
        let mut v: Vec<Counter> = self.slots.iter().map(|s| self.counter(s)).collect();
        v.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    /// The top-`j` items by estimated count.
    pub fn top_k(&self, j: usize) -> Vec<Counter> {
        self.counters().into_iter().take(j).collect()
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
        // `estimate` of an unmonitored key is `(min_count, min_count)`.
        let plus = |c: Counter, (count, error): (u64, u64)| Counter {
            count: add(c.count, count),
            error: add(c.error, error),
            ..c
        };
        let mut all: Vec<Counter> =
            self.slots.iter().map(|s| plus(self.counter(s), other.estimate(s.key))).collect();
        let only_other = other.slots.iter().filter(|s| !self.index.contains_key(&s.key));
        all.extend(only_other.map(|s| plus(other.counter(s), self.estimate(s.key))));
        let capacity = self.capacity.max(other.capacity);
        Self::laid_out(capacity, add(self.total, other.total), all)
            .expect("merged counters have distinct keys and error ≤ count")
    }

    /// Rebuild a summary from its parts (the [`crate::PartialAgg`] codec
    /// path). `counters` must hold distinct keys with `error ≤ count`;
    /// returns `None` when the parts violate those invariants or exceed
    /// `capacity`.
    pub fn from_parts(capacity: usize, total: u64, counters: &[Counter]) -> Option<Self> {
        if capacity < 1 || counters.len() > capacity {
            return None;
        }
        Self::laid_out(capacity, total, counters.to_vec())
    }

    /// A summary of the top `capacity` of `counters` (by count, ties to the
    /// smaller key), laid out in the canonical order — ascending count, then
    /// descending key, so among equal counts the largest key is the oldest;
    /// `None` when two share a key or an error exceeds its count.
    fn laid_out(capacity: usize, total: u64, mut counters: Vec<Counter>) -> Option<Self> {
        counters.sort_unstable_by_key(|c| (c.count, std::cmp::Reverse(c.key)));
        let mut ss = Self::new(capacity);
        ss.total = total;
        let mut top = NIL;
        for c in counters.iter().skip(counters.len().saturating_sub(capacity)) {
            let s = ss.slots.len() as u32;
            if c.error > c.count || ss.index.insert(c.key, s).is_some() {
                return None;
            }
            ss.slots.push(Slot { key: c.key, error: c.error, bucket: NIL, prev: NIL, next: NIL });
            if top == NIL || ss.buckets[top as usize].count != c.count {
                top = ss.new_bucket(c.count, top, NIL);
            }
            ss.push_newest(top, s);
        }
        Some(ss)
    }

    /// Panic unless the stream-summary is well formed: nonempty buckets in
    /// strictly ascending count; each slot in one bucket FIFO, back-links
    /// consistent, `error ≤ count`; the index a bijection onto the slots;
    /// `len ≤ capacity`; no bucket lost from the slab (tests/debugging).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.slots.len() <= self.capacity, "more slots than counters");
        assert_eq!(self.index.len(), self.slots.len(), "index and slots disagree in size");
        for (&key, &s) in &self.index {
            assert_eq!(self.slots[s as usize].key, key, "index entry {key} → wrong slot");
        }
        let (mut seen, mut live) = (vec![false; self.slots.len()], 0usize);
        let (mut b, mut lower) = (self.first, NIL);
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            if lower != NIL {
                assert!(bucket.count > self.buckets[lower as usize].count, "counts must ascend");
            }
            assert_eq!(bucket.lower, lower, "bucket back-link broken");
            assert_ne!(bucket.oldest, NIL, "empty bucket in the list");
            let (mut s, mut prev) = (bucket.oldest, NIL);
            while s != NIL {
                let slot = &self.slots[s as usize];
                assert!(!std::mem::replace(&mut seen[s as usize], true), "slot {s} listed twice");
                assert_eq!(slot.bucket, b, "slot → bucket link broken");
                assert_eq!(slot.prev, prev, "slot back-link broken");
                assert!(slot.error <= bucket.count, "error exceeds count");
                (prev, s) = (s, slot.next);
            }
            assert_eq!(bucket.newest, prev, "bucket newest is not its last slot");
            (lower, live, b) = (b, live + 1, bucket.higher);
        }
        assert!(seen.iter().all(|&s| s), "a slot is in no bucket");
        let link = |f: u32| Some(f).filter(|&f| f != NIL);
        let free =
            std::iter::successors(link(self.free), |&f| link(self.buckets[f as usize].higher));
        assert_eq!(live + free.count(), self.buckets.len(), "bucket slab leaks");
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

    #[test]
    fn weighted_offers_saturate_instead_of_overflowing() {
        // Weights past 2⁵³ saturate the count, the error and the total, so
        // the summary stays well formed, merges with itself, and encodes to
        // a payload its own decode accepts.
        use crate::{PartialAgg, TopK};
        fn round_trips<const K: usize>(t: TopK<K>) {
            let mut both = t.clone();
            both.merge(&t);
            for t in [t, both] {
                t.summary().check_invariants();
                assert_eq!(t.emit(), MAX_COUNT as i64, "mass must saturate, not wrap");
                let bytes = t.encoded();
                let back = TopK::<K>::decode(&bytes).expect("own payload must decode");
                assert_eq!(back.encoded(), bytes);
            }
        }
        let mut one_key = TopK::<4>::identity();
        for _ in 0..3 {
            one_key.insert(7, i64::MAX);
        }
        round_trips(one_key);
        let mut two_keys = TopK::<2>::identity();
        two_keys.insert(1, i64::MAX);
        two_keys.insert(2, 1);
        round_trips(two_keys);

        let mut ss = SpaceSaving::new(2);
        ss.offer(1, u64::MAX);
        ss.offer(2, 1);
        ss.check_invariants();
        assert_eq!(
            (ss.total(), ss.estimate(1), ss.estimate(2)),
            (MAX_COUNT, (MAX_COUNT, 0), (1, 0))
        );
        let merged = ss.merge(&ss);
        merged.check_invariants();
        assert_eq!(merged.total(), MAX_COUNT);
        for s in [ss, merged] {
            let back =
                SpaceSaving::from_parts(2, s.total(), &s.counters()).expect("parts accepted");
            back.check_invariants();
            assert_eq!(back.counters(), s.counters());
        }
    }
}
