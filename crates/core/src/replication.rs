//! Key-replication accounting — the memory-overhead axis of the paper.
//!
//! §III's example: with `K` distinct keys, key grouping keeps `K` counters,
//! PKG at most `2K` ("the memory to store its state is just a constant
//! factor higher"), and shuffle grouping up to `W·K` ("the memory usage of
//! the application grows linearly with the parallelism level"). This tracker
//! measures exactly that quantity — the number of distinct (key, worker)
//! pairs — for any partitioner. Keys start on an inline 128-bit mask
//! (covering the source paper's `W ≤ 100` grids with no allocation) and
//! promote to a heap bitset the first time a wider worker index appears —
//! the W-Choices sweeps of `fig_dchoices` go up to `W = 500`.

use pkg_hash::FxHashMap;

/// Which workers one key has reached.
#[derive(Debug, Clone)]
enum WorkerSet {
    /// Inline bitmask for worker indices < 128 (the common case).
    Small(u128),
    /// Heap bitset for wider worker grids; grows on demand.
    Large(Vec<u64>),
}

impl WorkerSet {
    #[inline]
    fn set(&mut self, w: usize) {
        match self {
            WorkerSet::Small(mask) if w < 128 => *mask |= 1u128 << w,
            WorkerSet::Small(mask) => {
                let mut words = vec![0u64; w / 64 + 1];
                words[0] = *mask as u64;
                words[1] = (*mask >> 64) as u64;
                words[w / 64] |= 1u64 << (w % 64);
                *self = WorkerSet::Large(words);
            }
            WorkerSet::Large(words) => {
                if words.len() <= w / 64 {
                    words.resize(w / 64 + 1, 0);
                }
                words[w / 64] |= 1u64 << (w % 64);
            }
        }
    }

    #[inline]
    fn count(&self) -> u32 {
        match self {
            WorkerSet::Small(mask) => mask.count_ones(),
            WorkerSet::Large(words) => words.iter().map(|w| w.count_ones()).sum(),
        }
    }
}

/// Tracks which workers have seen each key.
#[derive(Debug, Clone, Default)]
pub struct ReplicationTracker {
    seen: FxHashMap<u64, WorkerSet>,
}

impl ReplicationTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `key` was routed to worker `w` (any worker count).
    #[inline]
    pub fn record(&mut self, key: u64, w: usize) {
        self.seen.entry(key).or_insert(WorkerSet::Small(0)).set(w);
    }

    /// Number of distinct keys observed.
    pub fn distinct_keys(&self) -> usize {
        self.seen.len()
    }

    /// Total distinct (key, worker) pairs — the "counters" a stateful
    /// word-count-like operator would hold.
    pub fn total_pairs(&self) -> u64 {
        self.seen.values().map(|m| u64::from(m.count())).sum()
    }

    /// Mean number of workers per key (1.0 for KG, ≤ 2.0 for PKG, up to `W`
    /// for SG).
    pub fn avg_replication(&self) -> f64 {
        if self.seen.is_empty() {
            0.0
        } else {
            self.total_pairs() as f64 / self.seen.len() as f64
        }
    }

    /// Maximum number of workers any single key reached.
    pub fn max_replication(&self) -> u32 {
        self.seen.values().map(WorkerSet::count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimate;
    use crate::key_grouping::KeyGrouping;
    use crate::pkg::PartialKeyGrouping;
    use crate::shuffle::ShuffleGrouping;

    #[test]
    fn counts_pairs_once() {
        let mut t = ReplicationTracker::new();
        t.record(1, 0);
        t.record(1, 0);
        t.record(1, 3);
        t.record(2, 5);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(t.total_pairs(), 3);
        assert!((t.avg_replication() - 1.5).abs() < 1e-12);
        assert_eq!(t.max_replication(), 2);
    }

    #[test]
    fn replication_ordering_kg_pkg_sg() {
        // The §III memory claim, measured: KG = 1, PKG ≤ 2, SG → W.
        let n = 10;
        // 501 is coprime with n = 10, so round-robin's stride rotates each
        // key across all workers over the repetitions (with a multiple of n
        // the strides would align and hide SG's replication).
        let keys = 501u64;
        let reps = 40u64; // each key appears 40 times
        let mut kg = KeyGrouping::new(n, 1);
        let mut pkg = PartialKeyGrouping::new(n, 2, Estimate::local(n), 1);
        let mut sg = ShuffleGrouping::new(n);
        let (mut tk, mut tp, mut ts) =
            (ReplicationTracker::new(), ReplicationTracker::new(), ReplicationTracker::new());
        for r in 0..reps {
            for k in 0..keys {
                tk.record(k, kg.route(k, r));
                tp.record(k, pkg.route(k, r));
                ts.record(k, sg.route(k, r));
            }
        }
        assert_eq!(tk.avg_replication(), 1.0);
        assert!(tp.avg_replication() <= 2.0);
        assert!(tp.max_replication() <= 2);
        // With 40 repetitions over 10 workers, round-robin touches them all.
        assert!(ts.avg_replication() > 9.0);
    }

    #[test]
    fn wide_worker_grids_promote_and_count_exactly() {
        // Crossing the 128-worker boundary promotes the inline mask to the
        // heap bitset without losing any already-recorded worker.
        let mut t = ReplicationTracker::new();
        for w in [0usize, 63, 64, 127] {
            t.record(7, w);
        }
        assert_eq!(t.max_replication(), 4);
        t.record(7, 128);
        t.record(7, 499);
        t.record(7, 499); // idempotent
        assert_eq!(t.max_replication(), 6);
        assert_eq!(t.total_pairs(), 6);
        // A fresh key born wide also works.
        t.record(8, 400);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(t.total_pairs(), 7);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = ReplicationTracker::new();
        assert_eq!(t.avg_replication(), 0.0);
        assert_eq!(t.max_replication(), 0);
        assert_eq!(t.total_pairs(), 0);
    }
}
