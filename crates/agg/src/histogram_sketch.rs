//! The fixed-size mergeable approximate histogram of Ben-Haim & Tom-Tov
//! ("A Streaming Parallel Decision Tree Algorithm", JMLR 11, 2010) — the
//! substrate of §VI-B's streaming parallel decision tree.
//!
//! A histogram is a set of at most `B` (centroid, count) bins. The *update*
//! procedure inserts a point as a unit bin and merges the two closest bins
//! when over capacity; *merge* unions two histograms and re-compacts; *sum*
//! interpolates the number of points `≤ x` (trapezoidal); *uniform* inverts
//! *sum* to produce candidate split thresholds.

/// One histogram bin: a centroid and the number of points it absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Mean of the points merged into this bin.
    pub p: f64,
    /// Number of points.
    pub m: f64,
}

/// A Ben-Haim/Tom-Tov histogram with at most `b` bins.
#[derive(Debug, Clone)]
pub struct BhHistogram {
    bins: Vec<Bin>,
    capacity: usize,
    total: f64,
}

impl BhHistogram {
    /// An empty histogram with `b ≥ 2` bins.
    pub fn new(b: usize) -> Self {
        assert!(b >= 2, "need at least two bins");
        Self { bins: Vec::with_capacity(b + 1), capacity: b, total: 0.0 }
    }

    /// Bin capacity `B`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of points absorbed.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The current bins, sorted by centroid.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Rebuild a histogram from its parts (the [`crate::PartialAgg`] codec
    /// path). `bins` must be sorted by finite centroid with finite positive
    /// masses; returns `None` when the parts are malformed or exceed
    /// `capacity`.
    pub fn from_parts(capacity: usize, bins: &[Bin]) -> Option<Self> {
        if capacity < 2 || bins.len() > capacity {
            return None;
        }
        let mut total = 0.0;
        for (i, b) in bins.iter().enumerate() {
            let mass_ok = b.m > 0.0 && b.m.is_finite();
            if !b.p.is_finite() || !mass_ok || (i > 0 && bins[i - 1].p >= b.p) {
                return None;
            }
            total += b.m;
        }
        Some(Self { bins: bins.to_vec(), capacity, total })
    }

    /// Insert one point (the *update* procedure).
    pub fn update(&mut self, x: f64) {
        self.update_weighted(x, 1.0);
    }

    /// Insert a weighted point.
    pub fn update_weighted(&mut self, x: f64, w: f64) {
        assert!(x.is_finite() && w > 0.0);
        self.total += w;
        match self.bins.binary_search_by(|b| b.p.partial_cmp(&x).expect("finite centroids")) {
            Ok(i) => self.bins[i].m += w,
            Err(i) => {
                self.bins.insert(i, Bin { p: x, m: w });
                if self.bins.len() > self.capacity {
                    self.compact_once();
                }
            }
        }
    }

    /// Merge the closest adjacent pair.
    fn compact_once(&mut self) {
        debug_assert!(self.bins.len() >= 2);
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        for i in 0..self.bins.len() - 1 {
            let gap = self.bins[i + 1].p - self.bins[i].p;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let (a, b) = (self.bins[best], self.bins[best + 1]);
        let m = a.m + b.m;
        self.bins[best] = Bin { p: (a.p * a.m + b.p * b.m) / m, m };
        self.bins.remove(best + 1);
    }

    /// Merge another histogram into this one (the *merge* procedure);
    /// the result keeps this histogram's capacity.
    pub fn merge(&mut self, other: &Self) {
        let mut all: Vec<Bin> = self.bins.iter().chain(other.bins.iter()).copied().collect();
        all.sort_unstable_by(|a, b| a.p.partial_cmp(&b.p).expect("finite centroids"));
        // Coalesce exactly-equal centroids, then compact to capacity.
        let mut merged: Vec<Bin> = Vec::with_capacity(all.len());
        for bin in all {
            match merged.last_mut() {
                Some(last) if last.p == bin.p => last.m += bin.m,
                _ => merged.push(bin),
            }
        }
        self.bins = merged;
        self.total += other.total;
        while self.bins.len() > self.capacity {
            self.compact_once();
        }
    }

    /// Estimated number of points `≤ x` (the *sum* procedure).
    pub fn sum(&self, x: f64) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        let first = self.bins[0];
        let last = self.bins[self.bins.len() - 1];
        if x < first.p {
            return 0.0;
        }
        if x >= last.p {
            return self.total;
        }
        // Locate the surrounding pair p_i ≤ x < p_{i+1}.
        let i = match self.bins.binary_search_by(|b| b.p.partial_cmp(&x).expect("finite")) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (bi, bj) = (self.bins[i], self.bins[i + 1]);
        let z = (x - bi.p) / (bj.p - bi.p);
        let mx = bi.m + (bj.m - bi.m) * z;
        let mut s: f64 = self.bins[..i].iter().map(|b| b.m).sum();
        s += bi.m / 2.0;
        s += (bi.m + mx) / 2.0 * z;
        s
    }

    /// `j/b̃` quantile boundaries for `j = 1..b̃` (the *uniform* procedure):
    /// `b̃ − 1` candidate thresholds splitting the mass into `b̃` equal parts.
    pub fn uniform(&self, parts: usize) -> Vec<f64> {
        assert!(parts >= 2, "need at least two parts");
        if self.bins.len() < 2 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(parts - 1);
        // Precompute sums at centroids.
        let sums: Vec<f64> = self.bins.iter().map(|b| self.sum(b.p)).collect();
        for j in 1..parts {
            let target = self.total * j as f64 / parts as f64;
            // Find i with sums[i] ≤ target < sums[i+1].
            let i = match sums.partition_point(|&s| s <= target).checked_sub(1) {
                Some(i) if i + 1 < self.bins.len() => i,
                _ => continue, // target outside interior range
            };
            let d = target - sums[i];
            let (bi, bj) = (self.bins[i], self.bins[i + 1]);
            let a = bj.m - bi.m;
            let z = if a.abs() < 1e-12 {
                if bi.m <= 0.0 {
                    0.0
                } else {
                    d / bi.m
                }
            } else {
                // Solve a/2 z² + m_i z − d = 0 for z ∈ [0, 1].
                let disc = (bi.m * bi.m + 2.0 * a * d).max(0.0);
                (-bi.m + disc.sqrt()) / a
            };
            let z = z.clamp(0.0, 1.0);
            out.push(bi.p + z * (bj.p - bi.p));
        }
        out.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn small_input_is_exact() {
        let mut h = BhHistogram::new(10);
        for x in [1.0, 2.0, 2.0, 5.0] {
            h.update(x);
        }
        assert_eq!(h.bins().len(), 3);
        assert_eq!(h.total(), 4.0);
        assert_eq!(h.sum(5.0), 4.0);
        assert_eq!(h.sum(0.5), 0.0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut h = BhHistogram::new(8);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            h.update(rng.random::<f64>() * 100.0);
        }
        assert!(h.bins().len() <= 8);
        assert_eq!(h.total(), 10_000.0);
        // Bins stay sorted.
        for w in h.bins().windows(2) {
            assert!(w[0].p < w[1].p);
        }
    }

    #[test]
    fn sum_is_monotone_and_bounded() {
        let mut h = BhHistogram::new(16);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..5_000 {
            h.update(rng.random::<f64>() * 10.0 - 5.0);
        }
        let mut prev = -1.0;
        for i in -60..=60 {
            let x = i as f64 / 10.0;
            let s = h.sum(x);
            assert!(s >= prev - 1e-9, "sum not monotone at {x}");
            assert!((0.0..=h.total() + 1e-9).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn quantiles_of_uniform_distribution() {
        let mut h = BhHistogram::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50_000 {
            h.update(rng.random::<f64>());
        }
        let qs = h.uniform(4); // quartiles
        assert_eq!(qs.len(), 3);
        for (q, expect) in qs.iter().zip([0.25, 0.5, 0.75]) {
            assert!((q - expect).abs() < 0.03, "quantile {q} vs {expect}");
        }
    }

    #[test]
    fn merge_approximates_union() {
        let mut a = BhHistogram::new(32);
        let mut b = BhHistogram::new(32);
        let mut whole = BhHistogram::new(32);
        let mut rng = SmallRng::seed_from_u64(4);
        for i in 0..20_000 {
            // Bimodal: two Gaussians-ish via sums of uniforms.
            let x: f64 = (0..4).map(|_| rng.random::<f64>()).sum::<f64>()
                + if i % 2 == 0 { 0.0 } else { 6.0 };
            if i % 3 == 0 {
                a.update(x)
            } else {
                b.update(x)
            }
            whole.update(x);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total(), whole.total());
        for i in 0..=100 {
            let x = i as f64 / 10.0;
            let diff = (m.sum(x) - whole.sum(x)).abs();
            assert!(
                diff <= 0.05 * whole.total(),
                "merge diverges at {x}: {} vs {}",
                m.sum(x),
                whole.sum(x)
            );
        }
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut h = BhHistogram::new(4);
        h.update_weighted(1.0, 10.0);
        h.update_weighted(1.0, 5.0);
        assert_eq!(h.total(), 15.0);
        assert_eq!(h.bins().len(), 1);
        assert_eq!(h.bins()[0].m, 15.0);
    }

    #[test]
    #[should_panic(expected = "at least two bins")]
    fn one_bin_is_invalid() {
        let _ = BhHistogram::new(1);
    }
}
