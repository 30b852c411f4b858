//! Log-normal key popularity (the paper's LN1/LN2 synthetic datasets).
//!
//! "We also generate two synthetic datasets with keys following a log-normal
//! distribution, a commonly used heavy-tailed skewed distribution. The
//! parameters of the distribution (µ1=1.789, σ1=2.366; µ2=2.245, σ2=1.133)
//! come from an analysis of Orkut" (§V-A). We draw one log-normal weight per
//! key, normalize, and sample messages from the resulting categorical
//! distribution via the alias method.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::alias::AliasTable;

/// Draw a standard normal via the Box–Muller transform.
///
/// (The `rand` crate deliberately ships only uniform sources; distributions
/// live in `rand_distr`, which is outside our dependency budget — and the
/// transform is four lines.)
#[inline]
fn standard_normal(rng: &mut SmallRng) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One sample of `LogNormal(mu, sigma)`.
#[inline]
fn log_normal(rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Generate `k` log-normal key weights, sorted descending so that key id 0
/// is the most popular (rank order matches the Zipf backends).
pub fn weights(k: u64, mu: f64, sigma: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1f83_d9ab_fb41_bd6b);
    let mut w: Vec<f64> = (0..k).map(|_| log_normal(&mut rng, mu, sigma)).collect();
    w.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
    w
}

/// Build an alias table over log-normal key weights.
pub fn alias_table(k: u64, mu: f64, sigma: f64, seed: u64) -> AliasTable {
    AliasTable::new(&weights(k, mu, sigma, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn log_normal_median_is_exp_mu() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (mu, sigma) = (2.0, 0.5);
        let mut xs: Vec<f64> = (0..100_001).map(|_| log_normal(&mut rng, mu, sigma)).collect();
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = xs[50_000];
        assert!(
            (median - mu.exp()).abs() / mu.exp() < 0.05,
            "median = {median}, expected ≈ {}",
            mu.exp()
        );
    }

    #[test]
    fn weights_are_sorted_and_positive() {
        let w = weights(1_000, 1.789, 2.366, 42);
        assert_eq!(w.len(), 1_000);
        assert!(w.iter().all(|&x| x > 0.0));
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn orkut_parameters_are_heavily_skewed() {
        // With σ = 2.366 the head key should dominate: p1 in the tens of
        // percent for 16k keys (the paper reports 14.71%).
        let t = alias_table(16_000, 1.789, 2.366, 1);
        assert!(t.p1() > 0.02, "p1 = {}", t.p1());
        // And the milder LN2 parameters give a lighter head.
        let t2 = alias_table(1_100, 2.245, 1.133, 1);
        assert!(t2.p1() < t.p1());
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(weights(100, 1.0, 1.0, 5), weights(100, 1.0, 1.0, 5));
        assert_ne!(weights(100, 1.0, 1.0, 5), weights(100, 1.0, 1.0, 6));
    }
}
