//! Streaming head-key detection: a Space-Saving top-key frequency estimator
//! on the O(1) stream-summary.
//!
//! The D-Choices/W-Choices schemes of the journal follow-up ("When Two
//! Choices Are not Enough", Nasir et al., ICDE 2016) must distinguish the
//! few *head* keys — too frequent for two workers to absorb — from the long
//! tail, online, per source, in constant memory. This module implements the
//! estimator they assume: a [Space-Saving] summary of `capacity` counters
//! over 64-bit key identifiers.
//!
//! **Structure.** Metwally et al.'s *stream-summary*: a slab of counter
//! slots, a doubly-linked list of count buckets in ascending order (the
//! first is the minimum) each holding its slots in a FIFO, and one hash map
//! key → slot. An increment moves a slot to the bucket of `count + 1`,
//! bumps its bucket in place when it is the only member, or splices a new
//! bucket in after the old one — a constant number of link updates. All
//! storage is sized at construction; [`HeadTracker::observe`] never
//! allocates and touches no ordered map.
//!
//! **Victim rule.** When the summary is full, a new key takes over the
//! *oldest* slot of the minimum bucket — among the keys at the minimum
//! count, the one that reached it first — and inherits `min + 1` (the
//! Space-Saving replacement rule). Routing does not depend on this choice:
//! a forgotten key re-enters at `min + 1`, exactly the count it would have
//! reached had it been kept at the minimum, so the value `observe` returns
//! is the same under every tie rule. Only [`HeadTracker::count`] of a key
//! sitting at the minimum (`min` vs 0) can differ, and such a key is never
//! head after warm-up: `min ≤ total/capacity ≤ θ·total/8`.
//!
//! It is independent of `pkg-agg`'s `SpaceSaving` sketch (which carries
//! per-counter error bounds, weighted offers, merge support and a codec for
//! the aggregation phase) because routing needs only the overestimated
//! count, whose guarantee is what makes head classification *provably*
//! conservative:
//!
//! * `count(k) ≥ occ(k)` — a genuinely hot key is never missed;
//! * `count(k) ≤ occ(k) + total/capacity` — a key is overestimated by at
//!   most the summary's minimum, so with `capacity ≥ 8/θ` and the warm-up
//!   rule below, a key whose true frequency stays under `3θ/4` can never be
//!   classified head. That determinism is what lets D-Choices degenerate to
//!   *byte-identical* PKG routing on uniform streams (pinned by
//!   `tests/property_tests.rs`).
//!
//! **Warm-up:** nothing is head until `total · θ ≥ WARMUP_MASS`. With a
//! tiny sample every first occurrence would trivially clear any relative
//! threshold, and misclassifying cold keys as hot costs replication.
//!
//! **One probe per routed message.** The router calls only `observe` and
//! classifies from the count it returns and the new total
//! (`is_head_at`). The *predicting* side — `is_head` / `candidates`,
//! consulted before a message is routed — applies the same test to
//! [`HeadTracker::next_count`] and `total + 1`, which are exactly the
//! integers the next `observe` produces.
//!
//! [Space-Saving]: Metwally, Agrawal, El Abbadi — "Efficient computation of
//! frequent and top-k elements in data streams", ICDT 2005.

use std::collections::hash_map::Entry;

use pkg_hash::FxHashMap;

/// Observations of estimated-frequency mass a key must be able to amass
/// before head classification switches on (`total ≥ WARMUP_MASS / θ`).
const WARMUP_MASS: f64 = 8.0;

/// End of a slot FIFO or of the bucket list.
const NIL: u32 = u32::MAX;

/// Whether a key counted `count` times in `total` observations is head at
/// threshold `theta`: past warm-up, and `count/total ≥ θ`. The one head
/// test, shared by routing (on `observe`'s result) and prediction (on
/// [`HeadTracker::next_count`]).
#[inline]
pub(crate) fn is_head_at(count: u64, total: u64, theta: f64) -> bool {
    total as f64 * theta >= WARMUP_MASS && count as f64 / total as f64 >= theta
}

/// One counter: a tracked key and its place in its bucket's FIFO.
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    bucket: u32,
    /// Older neighbour in the bucket's FIFO.
    prev: u32,
    /// Newer neighbour in the bucket's FIFO.
    next: u32,
}

/// Every counter at one count, oldest first.
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    oldest: u32,
    newest: u32,
    /// Bucket of the next smaller count.
    lower: u32,
    /// Bucket of the next larger count; chains the free list when unused.
    higher: u32,
}

/// A Space-Saving summary estimating the stream's top key frequencies.
#[derive(Debug, Clone)]
pub struct HeadTracker {
    /// Tracked key → its slot.
    index: FxHashMap<u64, u32>,
    /// Counter slots; one per tracked key, never released.
    slots: Vec<Slot>,
    buckets: Vec<Bucket>,
    /// Minimum-count bucket (`NIL` while nothing is tracked).
    first: u32,
    /// Head of the free-bucket list.
    free: u32,
    capacity: usize,
    total: u64,
}

impl HeadTracker {
    /// A tracker with the given counter budget (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "tracker needs at least one counter");
        assert!(capacity < NIL as usize, "tracker capacity must fit a u32 slot index");
        // Live buckets never outnumber slots. The map holds one extra key
        // mid-eviction and is kept under a quarter full: every eviction
        // removes a key, and the tombstones removals leave lengthen probes
        // until the table rehashes (in place, never regrowing, at this
        // size). On the `route_sim` Zipf stream, where half the messages
        // evict, a half-full table measured ~1.6× slower per observe
        // (2-core Xeon VM; EXPERIMENTS.md).
        Self {
            index: FxHashMap::with_capacity_and_hasher(4 * (capacity + 1), Default::default()),
            slots: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity),
            first: NIL,
            free: NIL,
            capacity,
            total: 0,
        }
    }

    /// A tracker sized for head threshold `θ`: `capacity = ⌈8/θ⌉` counters
    /// (at least 64), so overestimation stays below `θ/8` of the stream.
    pub fn for_threshold(theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "threshold must be in (0,1]");
        Self::new(64.max((WARMUP_MASS / theta).ceil() as usize))
    }

    /// Count one occurrence of `key`; returns its updated count estimate.
    pub fn observe(&mut self, key: u64) -> u64 {
        self.total += 1;
        let slot = match self.index.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) if self.slots.len() < self.capacity => {
                let s = self.slots.len() as u32;
                e.insert(s);
                self.slots.push(Slot { key, bucket: NIL, prev: NIL, next: NIL });
                let ones = match self.first {
                    b if b != NIL && self.buckets[b as usize].count == 1 => b,
                    _ => self.new_bucket(1, NIL, self.first),
                };
                self.push_newest(ones, s);
                return 1;
            }
            Entry::Vacant(e) => {
                // Full: rename the victim slot, then count it like a hit —
                // `min + 1`, the Space-Saving replacement rule.
                let s = self.buckets[self.first as usize].oldest;
                e.insert(s);
                let victim = std::mem::replace(&mut self.slots[s as usize].key, key);
                self.index.remove(&victim);
                s
            }
        };
        self.increment(slot)
    }

    /// Move slot `s` from its bucket to the bucket of the next count.
    #[inline]
    fn increment(&mut self, s: u32) -> u64 {
        let b = self.slots[s as usize].bucket;
        let Bucket { count, oldest, newest, higher, .. } = self.buckets[b as usize];
        let count = count + 1;
        let higher_fits = higher != NIL && self.buckets[higher as usize].count == count;
        if oldest == newest {
            // `s` is alone in its bucket.
            if !higher_fits {
                self.buckets[b as usize].count = count;
                return count;
            }
            self.release_bucket(b);
            self.push_newest(higher, s);
        } else {
            self.unlink_slot(s);
            let target = if higher_fits { higher } else { self.new_bucket(count, b, higher) };
            self.push_newest(target, s);
        }
        count
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
        match lower {
            NIL => self.first = b,
            _ => self.buckets[lower as usize].higher = b,
        }
        if higher != NIL {
            self.buckets[higher as usize].lower = b;
        }
        b
    }

    /// Unlink bucket `b` from the bucket list onto the free list.
    #[inline]
    fn release_bucket(&mut self, b: u32) {
        let Bucket { lower, higher, .. } = self.buckets[b as usize];
        match lower {
            NIL => self.first = higher,
            _ => self.buckets[lower as usize].higher = higher,
        }
        if higher != NIL {
            self.buckets[higher as usize].lower = lower;
        }
        self.buckets[b as usize].higher = self.free;
        self.free = b;
    }

    /// Estimated count of `key` (its Space-Saving overestimate; 0 if
    /// untracked — the key's true count is then at most the summary
    /// minimum, i.e. certifiably tail).
    #[inline]
    pub fn count(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&s| self.count_of(s))
    }

    #[inline]
    fn count_of(&self, s: u32) -> u64 {
        self.buckets[self.slots[s as usize].bucket as usize].count
    }

    /// The smallest tracked count (0 while nothing is tracked): the most
    /// any tracked key is overestimated by, and the most any untracked key
    /// has occurred.
    pub fn min_count(&self) -> u64 {
        match self.first {
            NIL => 0,
            b => self.buckets[b as usize].count,
        }
    }

    /// The count [`observe`](Self::observe)`(key)` will return next.
    #[inline]
    pub fn next_count(&self, key: u64) -> u64 {
        match self.index.get(&key) {
            Some(&s) => self.count_of(s) + 1,
            None if self.slots.len() < self.capacity => 1,
            None => self.min_count() + 1,
        }
    }

    /// Estimated frequency of `key` in the observed stream (0 before any
    /// observation).
    #[inline]
    pub fn frequency(&self, key: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// Whether enough mass has been observed for threshold `theta` to be
    /// meaningful (see module docs).
    #[inline]
    pub fn warmed_up(&self, theta: f64) -> bool {
        self.total as f64 * theta >= WARMUP_MASS
    }

    /// Estimated frequency `key` would have *after one more occurrence* —
    /// what [`observe`](Self::observe)-then-classify will see. Routing uses
    /// this so a key's reported candidate set is always a superset of where
    /// its next message can go.
    #[inline]
    pub fn next_frequency(&self, key: u64) -> f64 {
        self.next_count(key) as f64 / (self.total + 1) as f64
    }

    /// Whether the *next* occurrence of `key` will classify as head at
    /// threshold `theta`.
    #[inline]
    pub fn next_is_head(&self, key: u64, theta: f64) -> bool {
        is_head_at(self.next_count(key), self.total + 1, theta)
    }

    /// Total observations so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked (≤ capacity).
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Panic unless the stream-summary is well formed: bucket counts
    /// strictly ascend from `first` and no bucket is empty; every slot sits
    /// in exactly one bucket FIFO with consistent back-links; the index is
    /// a bijection between tracked keys and slots; `tracked ≤ capacity`;
    /// live and free buckets account for the whole bucket slab; and the
    /// counts sum to `total` (each observe adds exactly one).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.slots.len() <= self.capacity, "more slots than counters");
        assert_eq!(self.index.len(), self.slots.len(), "index and slots disagree in size");
        for (&key, &s) in &self.index {
            assert_eq!(self.slots[s as usize].key, key, "index entry {key} → wrong slot");
        }
        let (mut seen, mut live, mut sum) = (vec![false; self.slots.len()], 0usize, 0u64);
        let (mut b, mut lower, mut last_count) = (self.first, NIL, 0u64);
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            assert!(bucket.count > last_count, "bucket counts must strictly ascend");
            assert_eq!(bucket.lower, lower, "bucket back-link broken");
            assert_ne!(bucket.oldest, NIL, "empty bucket in the list");
            let (mut s, mut prev) = (bucket.oldest, NIL);
            while s != NIL {
                let slot = &self.slots[s as usize];
                assert!(!std::mem::replace(&mut seen[s as usize], true), "slot {s} listed twice");
                assert_eq!(slot.bucket, b, "slot → bucket link broken");
                assert_eq!(slot.prev, prev, "slot back-link broken");
                sum += bucket.count;
                (prev, s) = (s, slot.next);
            }
            assert_eq!(bucket.newest, prev, "bucket newest is not its last slot");
            (lower, last_count, live, b) = (b, bucket.count, live + 1, bucket.higher);
        }
        assert!(seen.iter().all(|&s| s), "a slot is in no bucket");
        let mut free = 0usize;
        let mut f = self.free;
        while f != NIL {
            free += 1;
            f = self.buckets[f as usize].higher;
        }
        assert_eq!(live + free, self.buckets.len(), "bucket slab leaks");
        assert_eq!(sum, self.total, "counts must sum to the observations");
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
        let f = t.frequency(42);
        assert!((f - 0.2).abs() < 0.02, "estimated hot frequency {f}");
        assert!(t.warmed_up(0.05));
    }

    #[test]
    fn uniform_keys_never_classify_head_after_warmup() {
        // The determinism the PKG-degeneration property rests on: cycling
        // uniform keys stay below θ at every single step.
        let theta = 0.05;
        let mut t = HeadTracker::for_threshold(theta);
        for i in 0..100_000u64 {
            let key = i % 500;
            assert!(!t.next_is_head(key, theta), "uniform key {key} classified head at t={i}");
            t.observe(key);
        }
    }

    #[test]
    fn next_frequency_predicts_observe() {
        let mut t = HeadTracker::new(8);
        for i in 0..5_000u64 {
            let key = i % 21;
            let predicted = t.next_frequency(key);
            let c = t.observe(key);
            let actual = c as f64 / t.total() as f64;
            assert!((predicted - actual).abs() < 1e-12, "prediction drifted at {i}");
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
