//! Hash-based key grouping — the single-choice baseline ("H").
//!
//! "The current solution used by all DSPEs to partition a stream with key
//! grouping corresponds to the single-choice paradigm. The system has access
//! to a single hash function `H1(k)`. The partitioning of keys into
//! sub-streams is determined by `P_t(k) = H1(k) mod W`" (§III). We use the
//! 64-bit Murmur hash, as the paper's experiments do.

use pkg_hash::{member_seed, StreamKey};

use crate::load_view::reduce;
use crate::partitioner::check_membership;

/// Single-choice hash partitioner (`KG`).
#[derive(Debug, Clone)]
pub struct KeyGrouping {
    /// Seed of the one hash function `H_1`.
    hash_seed: u64,
    n: usize,
    /// Live membership subset of `0..n` (pkg-elastic); `None` is the
    /// untouched fixed-`W` fast path.
    live: Option<Vec<usize>>,
}

impl KeyGrouping {
    /// Key grouping over `n` workers hashing with member 0 of `seed`'s hash
    /// sequence — PKG's first candidate under the same seed (the
    /// simulator's convention).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_hash_seed(n, member_seed(seed, 0))
    }

    /// Key grouping over `n` workers hashing with `hash_seed` itself (the
    /// engine's convention: an edge's seed is the hash seed).
    pub fn with_hash_seed(n: usize, hash_seed: u64) -> Self {
        assert!(n > 0, "need at least one worker");
        Self { hash_seed, n, live: None }
    }

    /// Route `key`: the same worker for every message of the key.
    #[inline]
    pub fn route(&mut self, key: u64, _ts_ms: u64) -> usize {
        self.pick(key)
    }

    #[inline]
    fn pick(&self, key: u64) -> usize {
        reduce(self.n, self.live.as_deref(), key.hash_seeded(self.hash_seed))
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn name(&self) -> String {
        "KeyGrouping".into()
    }

    /// The one worker `key` goes to.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        vec![self.pick(key)]
    }

    /// Reduce the hash onto the live subset `live` of `0..n`.
    pub fn apply_membership(&mut self, live: &[usize]) {
        check_membership(live, self.n);
        self.live = Some(live.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_worker_always() {
        let mut kg = KeyGrouping::new(7, 1);
        let w = kg.route(99, 0);
        for t in 1..1000 {
            assert_eq!(kg.route(99, t), w);
        }
        assert_eq!(kg.candidates(99), vec![w]);
    }

    #[test]
    fn seed_conventions_differ_only_by_the_member_seed() {
        for s in [0u64, 7, 42] {
            let mut sim = KeyGrouping::new(13, s);
            let mut raw = KeyGrouping::with_hash_seed(13, member_seed(s, 0));
            for k in 0..500u64 {
                assert_eq!(sim.route(k, 0), raw.route(k, 0));
            }
        }
    }

    #[test]
    fn statelessness_across_instances() {
        // Two sources with the same seed route identically — KG needs no
        // coordination (the property the paper starts from).
        let mut a = KeyGrouping::new(16, 9);
        let mut b = KeyGrouping::new(16, 9);
        for k in 0..500u64 {
            assert_eq!(a.route(k, 0), b.route(k, 0));
        }
    }

    #[test]
    fn spreads_keys_roughly_uniformly() {
        let mut kg = KeyGrouping::new(10, 2);
        let mut counts = [0u64; 10];
        for k in 0..100_000u64 {
            counts[kg.route(k, 0)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count = {c}");
        }
    }

    #[test]
    fn membership_reroutes_onto_live_set_only() {
        let mut kg = KeyGrouping::new(8, 5);
        let live = [1usize, 4, 6];
        kg.apply_membership(&live);
        for k in 0..500u64 {
            assert!(live.contains(&kg.route(k, 0)));
        }
        // Full set restores fixed-W routing bit for bit.
        let mut fresh = KeyGrouping::new(8, 5);
        kg.apply_membership(&(0..8).collect::<Vec<_>>());
        for k in 0..500u64 {
            assert_eq!(kg.route(k, 0), fresh.route(k, 0));
        }
    }

    #[test]
    fn skewed_stream_overloads_head_worker() {
        // The motivating pathology: a key with probability p1 pins p1·m
        // messages on one worker regardless of n.
        let mut kg = KeyGrouping::new(100, 3);
        let mut loads = [0u64; 100];
        for i in 0..10_000u64 {
            let key = if i % 10 == 0 { 0 } else { i }; // p1 = 10%
            loads[kg.route(key, 0)] += 1;
        }
        let max = *loads.iter().max().expect("non-empty");
        assert!(max >= 1_000, "head worker load = {max}");
    }
}
