//! Popularity drift for the cashtag profile (Q3).
//!
//! "Popular cash tags change from week to week. This dataset allows to study
//! the effect of shift of skew in the key distribution" (§V-A). We keep the
//! *shape* of the rank distribution fixed (a fitted Zipf) and periodically
//! re-assign which concrete key occupies each head rank: every drift epoch,
//! each of the top `churn_top` ranks swaps its key with a uniformly random
//! rank. Head keys thus rise and fall over time exactly like trending ticker
//! symbols, while the instantaneous skew stays constant.

use rand::rngs::SmallRng;
use rand::Rng;

/// Evolving rank → key permutation.
#[derive(Debug, Clone)]
pub struct DriftState {
    permutation: Vec<u32>,
    period_ms: u64,
    churn_top: usize,
    next_epoch_ms: u64,
    epochs: u64,
}

impl DriftState {
    /// Identity permutation over `k` keys that churns its top `churn_top`
    /// ranks every `period_ms` of stream time.
    ///
    /// # Panics
    /// Panics if `k` exceeds `u32::MAX` or `period_ms == 0`.
    pub fn new(k: u64, period_ms: u64, churn_top: usize) -> Self {
        assert!(k <= u64::from(u32::MAX), "drift supports at most 2^32 keys");
        assert!(period_ms > 0, "drift period must be positive");
        Self {
            permutation: (0..k as u32).collect(),
            period_ms,
            churn_top: churn_top.min(k as usize),
            next_epoch_ms: period_ms,
            epochs: 0,
        }
    }

    /// Map a sampled rank to the key currently occupying it, advancing
    /// drift epochs up to `ts_ms` first.
    #[inline]
    pub fn map(&mut self, rank: u64, ts_ms: u64, rng: &mut SmallRng) -> u64 {
        while ts_ms >= self.next_epoch_ms {
            self.advance_epoch(rng);
        }
        u64::from(self.permutation[rank as usize])
    }

    fn advance_epoch(&mut self, rng: &mut SmallRng) {
        let k = self.permutation.len();
        for rank in 0..self.churn_top {
            let other = rng.random_range(0..k);
            self.permutation.swap(rank, other);
        }
        self.next_epoch_ms += self.period_ms;
        self.epochs += 1;
    }

    /// Number of epochs elapsed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

/// Piecewise-constant per-worker *speed* drift over stream time.
///
/// Where [`DriftState`] shifts the key distribution (Q3), `SpeedDrift`
/// shifts the *cluster*: each phase assigns every worker a relative speed
/// factor (1.0 = nominal), and a worker's emulated service time scales by
/// `1/speed`. This is the driver for the capacity-drift experiments
/// (`fig_drift`): a mid-run 4× slowdown of one worker is a two-phase
/// schedule `[1,1,…] → [0.25,1,…]`. Deterministic — no RNG — so both the
/// simulator and the engine replay the same schedule exactly.
#[derive(Debug, Clone)]
pub struct SpeedDrift {
    /// `(start_ms, per-worker speed factors)`, ascending by `start_ms`;
    /// the first phase starts at 0.
    phases: Vec<(u64, Vec<f64>)>,
}

impl SpeedDrift {
    /// A schedule opening with `initial` per-worker speed factors at t=0.
    ///
    /// # Panics
    /// Panics if `initial` is empty or any factor is non-finite or ≤ 0.
    pub fn new(initial: Vec<f64>) -> Self {
        assert!(!initial.is_empty(), "speed drift needs at least one worker");
        assert!(
            initial.iter().all(|s| s.is_finite() && *s > 0.0),
            "speed factors must be positive and finite"
        );
        Self { phases: vec![(0, initial)] }
    }

    /// Uniform nominal speed for `n` workers.
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// Append a phase: from `at_ms` on, the workers run at `speeds`.
    ///
    /// # Panics
    /// Panics if `at_ms` does not strictly ascend, `speeds.len()` differs
    /// from the worker count, or any factor is non-positive/non-finite.
    pub fn with_step(mut self, at_ms: u64, speeds: Vec<f64>) -> Self {
        let (last_ms, last) = &self.phases[self.phases.len() - 1];
        assert!(at_ms > *last_ms, "phase starts must strictly ascend");
        assert_eq!(speeds.len(), last.len(), "one speed factor per worker");
        assert!(
            speeds.iter().all(|s| s.is_finite() && *s > 0.0),
            "speed factors must be positive and finite"
        );
        self.phases.push((at_ms, speeds));
        self
    }

    /// Number of workers covered.
    pub fn n(&self) -> usize {
        self.phases[0].1.len()
    }

    /// Number of phases (≥ 1).
    pub fn phases(&self) -> usize {
        self.phases.len()
    }

    /// Index of the phase active at `ts_ms`.
    pub fn phase_at(&self, ts_ms: u64) -> usize {
        self.phases.iter().rposition(|(start, _)| *start <= ts_ms).unwrap_or(0)
    }

    /// Speed factor of worker `w` at `ts_ms`.
    pub fn speed(&self, w: usize, ts_ms: u64) -> f64 {
        self.phases[self.phase_at(ts_ms)].1.get(w).copied().unwrap_or(1.0)
    }

    /// The full speed vector of phase `i`.
    pub fn speeds_of_phase(&self, i: usize) -> &[f64] {
        &self.phases[i.min(self.phases.len() - 1)].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn speed_drift_phases_switch_at_their_start() {
        let d = SpeedDrift::uniform(4).with_step(500, vec![0.25, 1.0, 1.0, 1.0]);
        assert_eq!(d.phases(), 2);
        assert_eq!(d.phase_at(0), 0);
        assert_eq!(d.phase_at(499), 0);
        assert_eq!(d.phase_at(500), 1);
        assert_eq!(d.speed(0, 499), 1.0);
        assert_eq!(d.speed(0, 500), 0.25);
        assert_eq!(d.speed(1, 9_999), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn phase_starts_must_ascend() {
        let _ = SpeedDrift::uniform(2).with_step(100, vec![1.0; 2]).with_step(100, vec![1.0; 2]);
    }

    #[test]
    fn identity_before_first_epoch() {
        let mut d = DriftState::new(100, 1_000, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        for r in 0..100u64 {
            assert_eq!(d.map(r, 0, &mut rng), r);
        }
        assert_eq!(d.epochs(), 0);
    }

    #[test]
    fn epoch_advances_with_time() {
        let mut d = DriftState::new(1_000, 1_000, 100);
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = d.map(0, 5_500, &mut rng); // crosses epochs at 1s..5s
        assert_eq!(d.epochs(), 5);
    }

    #[test]
    fn head_key_changes_after_drift() {
        let mut d = DriftState::new(10_000, 1_000, 50);
        let mut rng = SmallRng::seed_from_u64(3);
        let before = d.map(0, 0, &mut rng);
        let after = d.map(0, 10_000, &mut rng);
        // With 50 churned ranks among 10k keys, rank 0 keeps its key across
        // 10 epochs with probability < 1e-10 under this seed policy.
        assert_ne!(before, after);
    }

    #[test]
    fn permutation_stays_a_bijection() {
        let mut d = DriftState::new(500, 10, 100);
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = d.map(0, 10_000, &mut rng); // many epochs
        let mut seen = vec![false; 500];
        for r in 0..500u64 {
            let k = d.permutation[r as usize] as usize;
            assert!(!seen[k], "key {k} appears twice");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
