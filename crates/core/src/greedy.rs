//! Off-Greedy — the offline yardstick of Q1 (Table II).
//!
//! [`OfflineGreedy`] "sorts the keys by decreasing frequency and executes
//! On-Greedy" (§V-B), i.e. the classic LPT assignment given the whole key
//! histogram in advance. It is an unfair comparison for online algorithms;
//! remarkably, Table II shows PKG beating it, because key splitting can do
//! what no single-worker assignment can. It consults no live load, so it is
//! a reference baseline outside the greedy family ([`crate::load_view`]);
//! On-Greedy itself is [`crate::PinnedGreedy::on_greedy`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pkg_hash::FxHashMap;
use pkg_metrics::Capacities;

use crate::key_grouping::KeyGrouping;

/// A key-frequency histogram (key id → occurrence count), the input to
/// Off-Greedy.
#[derive(Debug, Clone, Default)]
pub struct KeyFrequencies {
    counts: FxHashMap<u64, u64>,
}

impl KeyFrequencies {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of keys.
    pub fn from_keys<I: IntoIterator<Item = u64>>(keys: I) -> Self {
        let mut h = Self::new();
        for k in keys {
            h.add(k);
        }
        h
    }

    /// Count one occurrence of `key`.
    #[inline]
    pub fn add(&mut self, key: u64) {
        *self.counts.entry(key).or_default() += 1;
    }

    /// Number of distinct keys.
    fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total occurrences.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Keys sorted by decreasing frequency (ties by key id, for
    /// determinism).
    pub fn sorted_desc(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Off-Greedy: LPT assignment of keys to workers from a full histogram.
#[derive(Debug, Clone)]
pub struct OfflineGreedy {
    table: FxHashMap<u64, u32>,
    /// Where a key absent from the histogram goes (also the worker count).
    fallback: KeyGrouping,
}

impl OfflineGreedy {
    /// Assign all keys of `freqs` by decreasing frequency, each to the
    /// worker with the smallest accumulated expected load. Keys absent from
    /// the histogram (possible when a scheme is evaluated on a different
    /// sample than it was fitted on) fall back to key grouping.
    pub fn new(n: usize, freqs: &KeyFrequencies, seed: u64) -> Self {
        let fallback = KeyGrouping::new(n, seed);
        let mut table = FxHashMap::default();
        table.reserve(freqs.distinct());
        // Min-heap of (accumulated load, worker).
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
            (0..n as u32).map(|w| Reverse((0u64, w))).collect();
        for (key, count) in freqs.sorted_desc() {
            let Reverse((load, w)) = heap.pop().expect("n ≥ 1 workers in heap");
            table.insert(key, w);
            heap.push(Reverse((load + count, w)));
        }
        Self { table, fallback }
    }

    /// Heterogeneous LPT: each key (by decreasing frequency) goes to the
    /// worker minimizing the *completion time* `(load + count)/c_w` — the
    /// classic LPT rule on uniform machines. `capacities: None` is exactly
    /// [`Self::new`].
    pub fn weighted(
        n: usize,
        freqs: &KeyFrequencies,
        seed: u64,
        capacities: Option<&Capacities>,
    ) -> Self {
        let Some(caps) = capacities else {
            return Self::new(n, freqs, seed);
        };
        let fallback = KeyGrouping::new(n, seed);
        assert_eq!(caps.len(), n, "one capacity per worker");
        let mut table = FxHashMap::default();
        table.reserve(freqs.distinct());
        let mut loads = vec![0u64; n];
        for (key, count) in freqs.sorted_desc() {
            // Linear argmin (ties toward the lower index): the float keys
            // rule out the integer min-heap of the homogeneous path.
            let mut best = 0usize;
            let mut best_cost = (loads[0] + count) as f64 / caps.weight(0);
            for (w, &load) in loads.iter().enumerate().skip(1) {
                let cost = (load + count) as f64 / caps.weight(w);
                if cost < best_cost {
                    best = w;
                    best_cost = cost;
                }
            }
            table.insert(key, best as u32);
            loads[best] += count;
        }
        Self { table, fallback }
    }

    /// The planned worker of `key`.
    #[inline]
    pub fn route(&mut self, key: u64, ts_ms: u64) -> usize {
        match self.table.get(&key) {
            Some(&w) => w as usize,
            None => self.fallback.route(key, ts_ms),
        }
    }

    pub fn n(&self) -> usize {
        self.fallback.n()
    }

    pub fn name(&self) -> String {
        "OfflineGreedy".into()
    }

    /// The one worker `key` goes to.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        match self.table.get(&key) {
            Some(&w) => vec![w as usize],
            None => self.fallback.candidates(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::Partitioner;

    /// The planned (expected) per-worker loads of `g`'s assignment.
    fn planned_loads(g: &OfflineGreedy, freqs: &KeyFrequencies) -> Vec<u64> {
        let mut loads = vec![0u64; g.n()];
        for (key, count) in freqs.sorted_desc() {
            if let Some(&w) = g.table.get(&key) {
                loads[w as usize] += count;
            }
        }
        loads
    }

    #[test]
    fn frequencies_sorted_desc() {
        let f = KeyFrequencies::from_keys([1, 2, 2, 3, 3, 3]);
        assert_eq!(f.distinct(), 3);
        assert_eq!(f.total(), 6);
        assert_eq!(f.sorted_desc(), vec![(3, 3), (2, 2), (1, 1)]);
    }

    #[test]
    fn offline_greedy_membership_is_unsupported() {
        let f = KeyFrequencies::from_keys([1, 2, 3]);
        let g = Partitioner::OfflineGreedy(OfflineGreedy::new(4, &f, 0));
        assert!(!g.resizable());
    }

    #[test]
    #[should_panic(expected = "does not support membership changes")]
    fn offline_greedy_apply_membership_panics() {
        let f = KeyFrequencies::from_keys([1, 2, 3]);
        let mut g = Partitioner::OfflineGreedy(OfflineGreedy::new(4, &f, 0));
        g.apply_membership(&[0, 1]);
    }

    #[test]
    fn offline_greedy_is_optimal_on_equal_frequencies() {
        // 6 keys × 10 occurrences over 3 workers → perfectly balanced.
        let f = KeyFrequencies::from_keys((0..6).flat_map(|k| std::iter::repeat_n(k, 10)));
        let g = OfflineGreedy::new(3, &f, 0);
        let loads = planned_loads(&g, &f);
        assert_eq!(loads, vec![20, 20, 20]);
    }

    #[test]
    fn offline_greedy_lpt_classic_case() {
        // Frequencies 5,4,3,3,3 over 2 workers. LPT assigns 5→A, 4→B, 3→B,
        // 3→A, 3→B giving 8/10 (the optimum 9/9 shows LPT's 7/6 bound —
        // Off-Greedy is greedy, not optimal, exactly as in the paper).
        let mut f = KeyFrequencies::new();
        for (k, c) in [(0u64, 5u64), (1, 4), (2, 3), (3, 3), (4, 3)] {
            for _ in 0..c {
                f.add(k);
            }
        }
        let g = OfflineGreedy::new(2, &f, 0);
        let mut loads = planned_loads(&g, &f);
        loads.sort_unstable();
        assert_eq!(loads, vec![8, 10]);
    }

    #[test]
    fn offline_greedy_weighted_matches_unweighted_without_capacities() {
        let f = KeyFrequencies::from_keys((0..30u64).flat_map(|k| std::iter::repeat_n(k, 3)));
        let a = OfflineGreedy::new(4, &f, 1);
        let b = OfflineGreedy::weighted(4, &f, 1, None);
        for k in 0..30u64 {
            assert_eq!(a.candidates(k), b.candidates(k));
        }
    }

    #[test]
    fn offline_greedy_weighted_loads_track_capacity() {
        use pkg_metrics::weighted_imbalance;
        // 120 unit keys over capacities 2:1:1 → planned loads ≈ 60/30/30.
        let caps = Capacities::heterogeneous(&[2.0, 1.0, 1.0]).expect("het");
        let f = KeyFrequencies::from_keys(0..120u64);
        let g = OfflineGreedy::weighted(3, &f, 0, Some(&caps));
        let loads = planned_loads(&g, &f);
        assert_eq!(loads.iter().sum::<u64>(), 120);
        assert_eq!(loads[0], 60, "2× worker takes half the mass: {loads:?}");
        assert!(weighted_imbalance(&loads, Some(&caps)) < 1.0);
    }

    #[test]
    fn offline_greedy_unknown_key_falls_back_to_hash() {
        let f = KeyFrequencies::from_keys([1, 2, 3]);
        let mut g = OfflineGreedy::new(4, &f, 7);
        let w = g.route(999, 0);
        assert!(w < 4);
        assert_eq!(g.route(999, 1), w, "fallback must be deterministic");
    }

    #[test]
    fn offline_beats_hashing_on_skew() {
        use pkg_metrics::imbalance;
        // Zipf-ish: key k has frequency ~ 1000/(k+1).
        let mut f = KeyFrequencies::new();
        let mut stream = Vec::new();
        for k in 0..100u64 {
            for _ in 0..(1000 / (k + 1)) {
                f.add(k);
                stream.push(k);
            }
        }
        let n = 10;
        let mut off = OfflineGreedy::new(n, &f, 3);
        let mut kg = KeyGrouping::new(n, 3);
        let mut l_off = vec![0u64; n];
        let mut l_kg = vec![0u64; n];
        for &k in &stream {
            l_off[off.route(k, 0)] += 1;
            l_kg[kg.route(k, 0)] += 1;
        }
        assert!(imbalance(&l_off) < imbalance(&l_kg));
    }
}
