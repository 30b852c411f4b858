//! Per-worker load accounting.

use crate::capacity::Capacities;

/// The load vector `L(t)` of a set of workers: `L_i(t)` counts the messages
/// handled by worker `i` up to the current point of the stream (§II of the
/// paper, the same definition used by Flux).
///
/// The maximum is tracked incrementally so that the imbalance can be read in
/// O(1) on the routing hot path; the average is `total / n`.
///
/// [`LoadVector::with_capacities`] attaches per-worker capacity weights for
/// heterogeneous clusters; the `weighted_*` accessors then measure load
/// relative to what each worker can absorb (uniform capacities collapse and
/// every weighted accessor equals its unweighted counterpart exactly).
#[derive(Debug, Clone)]
pub struct LoadVector {
    loads: Vec<u64>,
    total: u64,
    max: u64,
    capacities: Option<Capacities>,
}

impl LoadVector {
    /// A zeroed load vector over `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        Self { loads: vec![0; n], total: 0, max: 0, capacities: None }
    }

    /// Attach per-worker capacity weights (one per worker). Uniform weights
    /// collapse to the capacity-free representation, so the weighted
    /// accessors degenerate exactly to the unweighted ones.
    ///
    /// # Panics
    /// Panics if `capacities.len() != self.len()` or any weight is
    /// non-finite or ≤ 0.
    pub fn with_capacities(mut self, capacities: &[f64]) -> Self {
        assert_eq!(capacities.len(), self.loads.len(), "one capacity per worker");
        self.capacities = Capacities::heterogeneous(capacities);
        self
    }

    /// The attached capacity weights (`None` for a homogeneous cluster,
    /// including explicitly-uniform ones, which collapse at construction).
    pub fn capacities(&self) -> Option<&Capacities> {
        self.capacities.as_ref()
    }

    /// Number of workers.
    #[inline]
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// `true` when there are no workers (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Record `weight` units of load on worker `w`.
    #[inline]
    pub fn record(&mut self, w: usize, weight: u64) {
        let l = &mut self.loads[w];
        *l += weight;
        if *l > self.max {
            self.max = *l;
        }
        self.total += weight;
    }

    /// Load of worker `w`.
    #[inline]
    pub fn load(&self, w: usize) -> u64 {
        self.loads[w]
    }

    /// Total messages recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Maximum per-worker load.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Minimum per-worker load (O(n); not kept incrementally because the
    /// imbalance definition only needs the maximum).
    pub fn min(&self) -> u64 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// Average per-worker load.
    #[inline]
    pub fn avg(&self) -> f64 {
        self.total as f64 / self.loads.len() as f64
    }

    /// The imbalance `I(t) = max_i L_i(t) − avg_i L_i(t)`.
    #[inline]
    pub fn imbalance(&self) -> f64 {
        self.max as f64 - self.avg()
    }

    /// Imbalance divided by total messages ("fraction of imbalance" in the
    /// paper's figures); 0 when no messages have been recorded.
    #[inline]
    pub fn imbalance_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.imbalance() / self.total as f64
        }
    }

    /// The capacity-weighted imbalance `I_c(t) = max_i(L_i/c_i) − avg`
    /// (weights normalized to mean 1, so the subtracted average `total/n`
    /// is the ideal normalized load — see
    /// [`crate::capacity::weighted_imbalance`]). Equals [`Self::imbalance`]
    /// exactly when no heterogeneous capacities are attached.
    pub fn weighted_imbalance(&self) -> f64 {
        match &self.capacities {
            None => self.imbalance(),
            Some(caps) => {
                let max = self
                    .loads
                    .iter()
                    .enumerate()
                    .map(|(w, &l)| caps.normalized(l, w))
                    .fold(f64::NEG_INFINITY, f64::max);
                max - self.avg()
            }
        }
    }

    /// [`Self::weighted_imbalance`] divided by total messages; 0 when no
    /// messages have been recorded.
    pub fn weighted_imbalance_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.weighted_imbalance() / self.total as f64
        }
    }

    /// Immutable view of the raw per-worker loads.
    #[inline]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The imbalance of the membership subset `live`:
    /// `max_{i∈live} L_i − avg_{i∈live} L_i`. With `live = 0..n` this is
    /// exactly [`Self::imbalance`]. Loads on non-live workers are ignored
    /// (their history is preserved, not forgotten).
    pub fn imbalance_over(&self, live: &[usize]) -> f64 {
        debug_assert!(!live.is_empty());
        let mut max = 0u64;
        let mut sum = 0u64;
        for &w in live {
            let l = self.loads[w];
            max = max.max(l);
            sum += l;
        }
        max as f64 - sum as f64 / live.len() as f64
    }

    /// [`Self::imbalance_over`] divided by the messages recorded on `live`
    /// workers; 0 when they have seen none.
    pub fn imbalance_fraction_over(&self, live: &[usize]) -> f64 {
        let sum: u64 = live.iter().map(|&w| self.loads[w]).sum();
        if sum == 0 {
            0.0
        } else {
            self.imbalance_over(live) / sum as f64
        }
    }

    /// Reset all loads to zero, keeping the worker count.
    pub fn reset(&mut self) {
        self.loads.fill(0);
        self.total = 0;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_total_and_max() {
        let mut lv = LoadVector::new(4);
        lv.record(0, 3);
        lv.record(1, 5);
        lv.record(0, 1);
        assert_eq!(lv.total(), 9);
        assert_eq!(lv.max(), 5);
        assert_eq!(lv.load(0), 4);
        assert_eq!(lv.min(), 0);
        assert!((lv.avg() - 2.25).abs() < 1e-12);
        assert!((lv.imbalance() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_has_zero_imbalance() {
        let mut lv = LoadVector::new(8);
        for w in 0..8 {
            lv.record(w, 100);
        }
        assert_eq!(lv.imbalance(), 0.0);
        assert_eq!(lv.imbalance_fraction(), 0.0);
    }

    #[test]
    fn empty_fraction_is_zero() {
        let lv = LoadVector::new(3);
        assert_eq!(lv.imbalance_fraction(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut lv = LoadVector::new(2);
        lv.record(1, 7);
        lv.reset();
        assert_eq!(lv.total(), 0);
        assert_eq!(lv.max(), 0);
        assert_eq!(lv.loads(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = LoadVector::new(0);
    }

    #[test]
    fn uniform_capacities_collapse_and_match_unweighted() {
        let mut lv = LoadVector::new(4).with_capacities(&[3.0, 3.0, 3.0, 3.0]);
        assert!(lv.capacities().is_none(), "uniform capacities must collapse");
        lv.record(0, 3);
        lv.record(1, 5);
        assert_eq!(lv.weighted_imbalance(), lv.imbalance());
        assert_eq!(lv.weighted_imbalance_fraction(), lv.imbalance_fraction());
    }

    #[test]
    fn weighted_imbalance_sees_slow_worker_overload() {
        // Worker 1 is half-speed; equal raw loads are NOT balanced.
        let mut lv = LoadVector::new(2).with_capacities(&[2.0, 1.0]);
        lv.record(0, 100);
        lv.record(1, 100);
        assert_eq!(lv.imbalance(), 0.0, "raw loads are equal");
        // Normalized weights [4/3, 2/3]: max(100/(4/3), 100/(2/3)) − 100.
        assert!((lv.weighted_imbalance() - 50.0).abs() < 1e-9);
        assert!(lv.weighted_imbalance_fraction() > 0.0);
    }

    #[test]
    #[should_panic(expected = "one capacity per worker")]
    fn mismatched_capacities_panic() {
        let _ = LoadVector::new(3).with_capacities(&[1.0, 2.0]);
    }

    #[test]
    fn imbalance_over_full_set_matches_imbalance() {
        let mut lv = LoadVector::new(4);
        for (w, m) in [(0, 7), (1, 3), (2, 5), (3, 1)] {
            lv.record(w, m);
        }
        let all: Vec<usize> = (0..4).collect();
        assert!((lv.imbalance_over(&all) - lv.imbalance()).abs() < 1e-12);
        assert!((lv.imbalance_fraction_over(&all) - lv.imbalance_fraction()).abs() < 1e-12);
    }

    #[test]
    fn imbalance_over_ignores_dead_workers() {
        let mut lv = LoadVector::new(4);
        lv.record(0, 100); // dead in the subset below
        lv.record(1, 6);
        lv.record(2, 6);
        assert_eq!(lv.imbalance_over(&[1, 2]), 0.0);
        assert_eq!(lv.imbalance_fraction_over(&[1, 2]), 0.0);
        // History on worker 0 is preserved, just not measured.
        assert_eq!(lv.load(0), 100);
    }
}
