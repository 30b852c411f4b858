//! Walker's alias method for O(1) categorical sampling.
//!
//! The log-normal profiles draw one weight per key and then sample millions
//! of messages from the resulting categorical distribution; the alias method
//! makes each draw two table lookups regardless of the key count.

use rand::rngs::SmallRng;
use rand::Rng;

/// Precomputed alias table over `k` categories.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
    p1: f64,
}

impl AliasTable {
    /// Build from non-negative weights (not necessarily normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let k = weights.len();
        let probabilities: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let p1 = probabilities.iter().cloned().fold(0.0, f64::max);

        // Standard two-worklist construction.
        let mut prob: Vec<f64> = probabilities.iter().map(|p| p * k as f64).collect();
        let mut alias = vec![0u32; k];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains is 1.0 up to rounding.
        for s in small {
            prob[s as usize] = 1.0;
        }
        for l in large {
            prob[l as usize] = 1.0;
        }

        Self { prob, alias, p1 }
    }

    /// Number of categories.
    pub fn k(&self) -> usize {
        self.prob.len()
    }

    /// Probability of the most likely category.
    pub fn p1(&self) -> f64 {
        self.p1
    }

    /// Draw a category in `0..k`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i as u64
        } else {
            u64::from(self.alias[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 10]);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = [0u64; 10];
        for _ in 0..n {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let p = c as f64 / n as f64;
            assert!((p - 0.1).abs() < 0.01, "p = {p}");
        }
    }

    #[test]
    fn skewed_weights_match_probabilities() {
        let weights = [80.0, 10.0, 5.0, 4.0, 1.0];
        let t = AliasTable::new(&weights);
        assert!((t.p1() - 0.8).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 200_000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / 100.0;
            let emp = counts[i] as f64 / n as f64;
            assert!((emp - expect).abs() < 0.01, "category {i}: {emp} vs {expect}");
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one weight")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }
}
