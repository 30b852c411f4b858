//! Shuffle grouping — round-robin routing ("SG").
//!
//! "SG routes messages independently, typically in a round-robin fashion.
//! SG provides excellent load balance by assigning an almost equal number of
//! messages to each PEI. However, no guarantee is made on the partitioning
//! of the key space" (§II-A). Its imbalance is at most one message per
//! source; its cost is `O(W·K)` state for stateful operators.

use crate::partitioner::check_membership;

/// Round-robin partitioner (`SG`).
#[derive(Debug, Clone)]
pub struct ShuffleGrouping {
    n: usize,
    next: usize,
    /// Live membership subset of `0..n` (pkg-elastic); `None` is the
    /// untouched fixed-`W` fast path. When set, `next` cycles over
    /// positions *within* the live set.
    live: Option<Vec<usize>>,
}

impl ShuffleGrouping {
    /// Shuffle grouping over `n` workers starting at worker 0.
    pub fn new(n: usize) -> Self {
        Self::with_offset(n, 0)
    }

    /// Start the cycle at `offset` (sources are staggered so that parallel
    /// sources do not hit the same worker simultaneously).
    pub fn with_offset(n: usize, offset: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        Self { n, next: offset % n, live: None }
    }

    /// The next worker of the cycle.
    #[inline]
    pub fn route(&mut self, _key: u64, _ts_ms: u64) -> usize {
        let len = self.live.as_ref().map_or(self.n, Vec::len);
        let w = match &self.live {
            None => self.next,
            Some(live) => live[self.next],
        };
        self.next += 1;
        if self.next == len {
            self.next = 0;
        }
        w
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn name(&self) -> String {
        "ShuffleGrouping".into()
    }

    /// Every live worker.
    pub fn candidates(&self, _key: u64) -> Vec<usize> {
        match &self.live {
            None => (0..self.n).collect(),
            Some(live) => live.clone(),
        }
    }

    /// Cycle over the live subset `live` of `0..n`.
    pub fn apply_membership(&mut self, live: &[usize]) {
        check_membership(live, self.n);
        // Keep the stagger but land inside the new cycle length.
        self.next %= live.len();
        self.live = Some(live.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_through_all_workers() {
        let mut sg = ShuffleGrouping::new(4);
        let seq: Vec<usize> = (0..8).map(|i| sg.route(i, 0)).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn imbalance_is_at_most_one() {
        let mut sg = ShuffleGrouping::new(7);
        let mut loads = [0u64; 7];
        for i in 0..1_000 {
            loads[sg.route(i, 0)] += 1;
        }
        let max = *loads.iter().max().expect("non-empty");
        let min = *loads.iter().min().expect("non-empty");
        assert!(max - min <= 1);
    }

    #[test]
    fn offset_staggers_sources() {
        let mut a = ShuffleGrouping::with_offset(5, 0);
        let mut b = ShuffleGrouping::with_offset(5, 2);
        assert_eq!(a.route(0, 0), 0);
        assert_eq!(b.route(0, 0), 2);
    }

    #[test]
    fn candidates_are_all_workers() {
        let sg = ShuffleGrouping::new(3);
        assert_eq!(sg.candidates(42), vec![0, 1, 2]);
    }

    #[test]
    fn membership_round_robins_over_live_workers_only() {
        let mut sg = ShuffleGrouping::new(6);
        assert_eq!(sg.route(0, 0), 0);
        sg.apply_membership(&[1, 3, 5]);
        assert_eq!(sg.candidates(0), vec![1, 3, 5]);
        let seq: Vec<usize> = (0..6).map(|i| sg.route(i, 0)).collect();
        // next was 1 when membership applied → cycle resumes at position 1.
        assert_eq!(seq, vec![3, 5, 1, 3, 5, 1]);
        // Imbalance within the live set stays ≤ 1 per cycle.
        let mut loads = [0u64; 6];
        for i in 0..900 {
            loads[sg.route(i, 0)] += 1;
        }
        assert_eq!(loads[0] + loads[2] + loads[4], 0);
        assert_eq!(loads[1], loads[3]);
        assert_eq!(loads[3], loads[5]);
    }
}
