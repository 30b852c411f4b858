//! Online capacity re-estimation from observed per-worker service rates.
//!
//! PR 5's [`crate::capacity::Capacities`] are *static configured* weights —
//! the operator's belief about relative worker speed. The
//! heterogeneous-cluster follow-up ("Load Balancing for Skewed Streams on
//! Heterogeneous Clusters") observes that weighted routing only helps if
//! the weights track reality: a worker that hits a 4× slowdown mid-run
//! keeps absorbing tuples at its configured weight forever. The
//! [`CapacityEstimator`] closes that loop: it accumulates per-worker
//! service-time observations on a sliding window and, at each window
//! rotation, re-derives relative capacity weights from the observed service
//! *rates* (`completions / Σ service_ns`). Load signals are then divided by
//! the weight, so a worker measured at quarter speed looks 4× as loaded to
//! every argmin within one window of the slowdown.
//!
//! Determinism contract: on *uniform* observations (all workers within the
//! relative dead-band of each other, or no observations at all) the
//! estimator reports uniform weights and [`CapacityEstimator::scale`]
//! returns its input untouched — so homogeneous runs stay byte-identical to
//! an estimator-free configuration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default sliding-window length, in total observations across all workers.
pub const DEFAULT_ESTIMATOR_WINDOW: u64 = 2048;

/// Relative dead-band: when `max_rate / min_rate ≤ 1 + DEAD_BAND` across
/// observed workers, the window is declared uniform and weights reset to 1.
const DEAD_BAND: f64 = 0.10;

/// Sliding-window estimator of relative per-worker capacities.
#[derive(Debug)]
pub struct CapacityEstimator {
    /// Per-worker Σ observed service nanoseconds in the current window.
    sum_ns: Vec<AtomicU64>,
    /// Per-worker observation count in the current window.
    count: Vec<AtomicU64>,
    /// Total observations in the current window (rotation trigger).
    seen: AtomicU64,
    /// Window length in total observations.
    window: u64,
    /// Per-worker weight (f64 bits), mean-normalized to 1. Written only
    /// under `rotate_lock`.
    weights: Vec<AtomicU64>,
    /// 1 when the last rotation found the cluster uniform (scale becomes
    /// the identity — the byte-identity contract for homogeneous runs).
    uniform: AtomicU64,
    /// Completed window rotations.
    rotations: AtomicU64,
    /// Serializes rotation.
    rotate_lock: Mutex<()>,
}

impl CapacityEstimator {
    /// An estimator over `n` workers rotating every `window` observations.
    pub fn new(n: usize, window: u64) -> Self {
        Self {
            sum_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: (0..n).map(|_| AtomicU64::new(0)).collect(),
            seen: AtomicU64::new(0),
            window: window.max(1),
            weights: (0..n).map(|_| AtomicU64::new(1.0f64.to_bits())).collect(),
            uniform: AtomicU64::new(1),
            rotations: AtomicU64::new(0),
            rotate_lock: Mutex::new(()),
        }
    }

    /// Number of workers tracked.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Record one completed tuple on worker `w` with observed service time
    /// `service_ns`. Rotates the window when due.
    pub fn observe(&self, w: usize, service_ns: u64) {
        if w >= self.sum_ns.len() {
            return;
        }
        // ordering: Relaxed — per-window accumulators; a racy window cutoff
        // only shifts which window a sample lands in, never loses it.
        self.sum_ns[w].fetch_add(service_ns.max(1), Ordering::Relaxed);
        self.count[w].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — the trigger counter is a heuristic clock; the
        // lock below serializes the actual rotation.
        let seen = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seen.is_multiple_of(self.window) {
            self.rotate();
        }
    }

    /// Scale a raw load `signal` by the worker's estimated weight: a
    /// half-speed worker's signal doubles. Identity while the cluster
    /// measures uniform (or before the first rotation).
    pub fn scale(&self, w: usize, signal: u64) -> u64 {
        // ordering: Relaxed — stale uniform/weight reads only delay
        // adaptation by one read; the routing argmin needs no ordering.
        if self.uniform.load(Ordering::Relaxed) == 1 {
            return signal;
        }
        let Some(bits) = self.weights.get(w) else {
            return signal;
        };
        // ordering: Relaxed — see above.
        let weight = f64::from_bits(bits.load(Ordering::Relaxed));
        if !(weight.is_finite() && weight > 0.0) {
            return signal;
        }
        (signal as f64 / weight).round() as u64
    }

    /// Current weight vector (mean-normalized to 1).
    pub fn weights(&self) -> Vec<f64> {
        // ordering: Relaxed — snapshot for reporting only.
        self.weights.iter().map(|b| f64::from_bits(b.load(Ordering::Relaxed))).collect()
    }

    /// Completed window rotations so far.
    pub fn rotations(&self) -> u64 {
        // ordering: Relaxed — reporting counter.
        self.rotations.load(Ordering::Relaxed)
    }

    /// Close the current window: derive per-worker service rates, update
    /// weights, and zero the accumulators.
    fn rotate(&self) {
        let Ok(_rotating) = self.rotate_lock.lock() else {
            return;
        };
        let n = self.n();
        let mut rates = vec![0.0f64; n];
        for (w, rate) in rates.iter_mut().enumerate() {
            // ordering: Relaxed — the rotate lock orders rotations; a
            // straggler sample simply lands in the next window.
            let sum = self.sum_ns[w].swap(0, Ordering::Relaxed);
            let count = self.count[w].swap(0, Ordering::Relaxed);
            if sum > 0 && count > 0 {
                *rate = count as f64 / sum as f64;
            }
        }
        // Unobserved workers keep their previous weight (sticky): no
        // sample in this window is no evidence of change. Observed rates
        // are pre-normalized by their own mean so sticky weights and fresh
        // rates mix in the same (dimensionless) units.
        let observed = rates.iter().filter(|&&r| r > 0.0).count();
        let obs_mean = rates.iter().sum::<f64>() / (observed.max(1) as f64);
        let mut next: Vec<f64> = (0..n)
            .map(|w| {
                if rates[w] > 0.0 {
                    rates[w] / obs_mean
                } else {
                    // ordering: Relaxed — reading our own last store.
                    f64::from_bits(self.weights[w].load(Ordering::Relaxed))
                }
            })
            .collect();
        // Dead-band on the *mixed* vector (fresh rates and sticky weights
        // together): a spread within tolerance means the cluster measures
        // uniform, so weights snap to exactly 1 and `scale` stays the
        // identity — the homogeneous byte-identity contract.
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &v in &next {
            if v > 0.0 {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi <= 0.0 || hi / lo <= 1.0 + DEAD_BAND {
            for b in &self.weights {
                // ordering: Relaxed — weights are advisory scaling factors;
                // see `scale`.
                b.store(1.0f64.to_bits(), Ordering::Relaxed);
            }
            // ordering: Relaxed — see `scale`.
            self.uniform.store(1, Ordering::Relaxed);
        } else {
            let mean = next.iter().sum::<f64>() / n as f64;
            if mean > 0.0 {
                for v in &mut next {
                    *v /= mean;
                }
            }
            for (b, v) in self.weights.iter().zip(&next) {
                // ordering: Relaxed — see `scale`.
                b.store(v.to_bits(), Ordering::Relaxed);
            }
            // ordering: Relaxed — see `scale`.
            self.uniform.store(0, Ordering::Relaxed);
        }
        // ordering: Relaxed — reporting counter.
        self.rotations.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_before_any_rotation() {
        let e = CapacityEstimator::new(4, 100);
        assert_eq!(e.scale(0, 42), 42);
        assert_eq!(e.rotations(), 0);
        assert_eq!(e.weights(), vec![1.0; 4]);
    }

    #[test]
    fn uniform_observations_keep_scale_as_identity() {
        let e = CapacityEstimator::new(4, 40);
        for i in 0..80u64 {
            e.observe((i % 4) as usize, 10_000);
        }
        assert_eq!(e.rotations(), 2);
        for w in 0..4 {
            assert_eq!(e.scale(w, 1234), 1234, "uniform cluster must not perturb signals");
        }
    }

    #[test]
    fn slow_worker_signal_is_inflated_within_one_window() {
        let e = CapacityEstimator::new(4, 40);
        for i in 0..40u64 {
            let w = (i % 4) as usize;
            // Worker 0 is 4× slower than the rest.
            e.observe(w, if w == 0 { 40_000 } else { 10_000 });
        }
        assert_eq!(e.rotations(), 1);
        let weights = e.weights();
        assert!(weights[0] < weights[1], "slow worker gets the low weight: {weights:?}");
        assert!(
            e.scale(0, 1000) > e.scale(1, 1000),
            "equal raw signals must diverge after the slowdown is observed"
        );
        // Rates 0.25 : 1 : 1 : 1 normalized by mean 0.8125 → worker 0 at
        // ~0.307, others ~1.23: scaled signal ratio ≈ 4.
        let ratio = e.scale(0, 100_000) as f64 / e.scale(1, 100_000) as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio tracks the true 4× slowdown: {ratio}");
    }

    #[test]
    fn unobserved_worker_keeps_its_previous_weight() {
        let e = CapacityEstimator::new(2, 20);
        for i in 0..20u64 {
            let w = (i % 2) as usize;
            e.observe(w, if w == 0 { 40_000 } else { 10_000 });
        }
        let before = e.weights()[0];
        assert!(before < 1.0);
        // Second window: only worker 1 reports. Worker 0's weight sticks.
        for _ in 0..20u64 {
            e.observe(1, 10_000);
        }
        assert_eq!(e.rotations(), 2);
        let after = e.weights();
        assert!(after[0] < after[1], "sticky weight for the silent worker: {after:?}");
    }

    #[test]
    fn recovery_returns_to_uniform_identity() {
        let e = CapacityEstimator::new(2, 20);
        for i in 0..20u64 {
            let w = (i % 2) as usize;
            e.observe(w, if w == 0 { 40_000 } else { 10_000 });
        }
        assert_ne!(e.scale(0, 1000), e.scale(1, 1000));
        for i in 0..20u64 {
            e.observe((i % 2) as usize, 10_000);
        }
        assert_eq!(e.scale(0, 1000), 1000, "recovered cluster is identity again");
        assert_eq!(e.scale(1, 1000), 1000);
    }

    #[test]
    fn out_of_range_worker_is_ignored() {
        let e = CapacityEstimator::new(2, 10);
        e.observe(7, 10_000);
        assert_eq!(e.scale(7, 55), 55);
    }
}
