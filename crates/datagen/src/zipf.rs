//! Zipf key distributions.
//!
//! The web workloads of the paper (Wikipedia page visits, Twitter words)
//! "follow a Zipf law where few words are extremely common while a large
//! majority are rare" (§II). Since the paper characterizes each dataset by
//! its key count `K` and head probability `p1` (Table I), we *fit* the Zipf
//! exponent `s` so that `p1 = 1 / H_{K,s}` matches the published value, then
//! sample ranks from `Zipf(K, s)`.
//!
//! Two samplers are provided:
//! * [`ZipfTable`] — inverse-CDF sampling over a precomputed table with a
//!   guide table into it; O(1) expected per sample, 12 bytes/key. Used
//!   for `K` up to a few million.
//! * [`ZipfRejection`] — Hörmann & Derflinger rejection-inversion;
//!   O(1) memory and amortized O(1) time, for the full-scale Twitter
//!   profile (`K = 31M`).
//!
//! Sampled values are 0-based ranks (0 = most frequent key).

use rand::rngs::SmallRng;
use rand::Rng;

/// Number of terms summed exactly by [`harmonic`] before switching to the
/// integral tail approximation.
const HARMONIC_EXACT_TERMS: u64 = 200_000;

/// Generalized harmonic number `H_{k,s} = Σ_{i=1..k} i^{-s}`.
///
/// The first 200k terms are summed exactly (small terms first, to minimize
/// floating-point error); beyond that the tail is the midpoint-rule
/// integral `∫ x^{-s} dx` over `[N+½, k+½]`, whose relative error at these
/// `N` is far below the `1e-6` tolerance of the exponent fit. This keeps
/// paper-scale fits (`k = 31M`) fast.
pub fn harmonic(k: u64, s: f64) -> f64 {
    let exact = k.min(HARMONIC_EXACT_TERMS);
    let mut sum = 0.0;
    let mut i = exact;
    while i >= 1 {
        sum += (i as f64).powf(-s);
        i -= 1;
    }
    if k > exact {
        let (a, b) = (exact as f64 + 0.5, k as f64 + 0.5);
        sum += if (s - 1.0).abs() < 1e-12 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
        };
    }
    sum
}

/// Fit the Zipf exponent so that the most frequent of `k` keys has
/// probability `p1`, i.e. solve `1 / H_{k,s} = p1` for `s` by bisection.
///
/// # Panics
/// Panics if `p1` is not attainable for this `k` (must satisfy
/// `1/k < p1 < 1`).
pub fn fit_exponent(k: u64, p1: f64) -> f64 {
    assert!(k >= 2, "need at least two keys");
    assert!(p1 > 1.0 / k as f64 && p1 < 1.0, "p1 = {p1} not attainable with k = {k} keys");
    // p1(s) = 1/H_{k,s} is strictly increasing in s: at s=0, H=k (p1=1/k);
    // as s→∞, H→1 (p1→1).
    // Once `mid` rounds onto an end of the bracket, every further step
    // re-tests the same point and leaves `0.5 * (lo + hi) == mid`.
    let (mut lo, mut hi) = (0.0f64, 16.0f64);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if 1.0 / harmonic(k, mid) < p1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Inverse-CDF Zipf sampler over ranks `0..k`.
///
/// A draw `u ∈ [0, 1)` maps to the rank `#{i : cdf[i] ≤ u}`, the index
/// of the first entry of the monotone CDF above `u`. A guide table
/// (Chen & Asau's indexed search) finds it in O(1) expected steps:
/// `guide[j]` is the number of CDF entries `≤ j/k`, for `k` equal-width
/// buckets. A draw starts at `guide[⌊u·k⌋]`, steps back while the entry
/// before it is above `u`, then forward while its own entry is at most
/// `u`.
///
/// The rank is exact whatever the start: on a monotone CDF the backward
/// step stops at or before the answer, and the forward step stops exactly
/// at it. So float rounding in `⌊u·k⌋` or in `j/k` can change the number
/// of steps, never the rank, and a draw is bit-for-bit the binary search
/// over the same CDF.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
    s: f64,
}

impl ZipfTable {
    /// Build the CDF and guide tables for `Zipf(k, s)`.
    ///
    /// # Panics
    /// Panics if `k` is 0 or does not fit the `u32` guide.
    pub fn new(k: u64, s: f64) -> Self {
        assert!(k >= 1);
        assert!(k <= u32::MAX as u64, "k = {k} keys overflow the u32 guide table");
        let h = harmonic(k, s);
        let mut cdf = Vec::with_capacity(k as usize);
        let mut acc = 0.0;
        for i in 1..=k {
            acc += (i as f64).powf(-s) / h;
            // Accumulated rounding can overshoot 1.0 before the tail;
            // clamping each entry keeps the CDF monotone.
            cdf.push(acc.min(1.0));
        }
        // Guard against accumulated rounding: the last entry must cover 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // guide[j] = #{i : cdf[i] ≤ j/m}. Every floor is below the last
        // entry, 1.0, so the sweep stays inside the table.
        let m = cdf.len();
        let mut guide = Vec::with_capacity(m);
        let mut i = 0;
        for j in 0..m {
            let floor = j as f64 / m as f64;
            while cdf[i] <= floor {
                i += 1;
            }
            guide.push(i as u32);
        }
        Self { cdf, guide, s }
    }

    /// Build by fitting the exponent to a target head probability. A `p1`
    /// at (or float-rounding-below) the uniform floor `1/k` degenerates to
    /// the exponent-0 uniform distribution, matching the `z = 0` edge of
    /// the heterogeneous-cluster sweeps.
    pub fn with_p1(k: u64, p1: f64) -> Self {
        if p1 <= (1.0 + 1e-9) / k as f64 {
            return Self::new(k, 0.0);
        }
        Self::new(k, fit_exponent(k, p1))
    }

    /// The exponent in use.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Number of keys.
    pub fn k(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Probability of rank 0 (the head key).
    pub fn p1(&self) -> f64 {
        self.cdf[0]
    }

    /// Exact per-rank probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        let mut probs = Vec::with_capacity(self.cdf.len());
        let mut prev = 0.0;
        for &c in &self.cdf {
            probs.push(c - prev);
            prev = c;
        }
        probs
    }

    /// Sample a rank in `0..k`.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.rank_of(rng.random()) as u64
    }

    /// The rank `#{i : cdf[i] ≤ u}` of a draw `u ∈ [0, 1)`, by the guide
    /// table (see [`ZipfTable`]).
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let m = self.guide.len();
        let mut i = self.guide[((u * m as f64) as usize).min(m - 1)] as usize;
        while i > 0 && self.cdf[i - 1] > u {
            i -= 1;
        }
        while self.cdf[i] <= u {
            i += 1;
        }
        i
    }
}

/// Rejection-inversion sampler for `Zipf(k, s)` (Hörmann & Derflinger 1996),
/// after the Apache Commons Math `RejectionInversionZipfSampler`.
///
/// Returns 0-based ranks. Memory is O(1); useful when the CDF table would
/// not fit (full-scale Twitter: 31M keys).
#[derive(Debug, Clone, Copy)]
pub struct ZipfRejection {
    k: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl ZipfRejection {
    /// Create a sampler for `Zipf(k, s)` with `s > 0`.
    pub fn new(k: u64, s: f64) -> Self {
        assert!(k >= 1);
        assert!(s > 0.0, "rejection-inversion requires a positive exponent");
        let h_x1 = h_integral(1.5, s) - 1.0;
        let h_n = h_integral(k as f64 + 0.5, s);
        let threshold = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        Self { k, s, h_x1, h_n, threshold }
    }

    /// The exponent in use.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Probability of the head key.
    pub fn p1(&self) -> f64 {
        1.0 / harmonic(self.k, self.s)
    }

    /// Sample a rank in `0..k`.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        loop {
            let u: f64 = self.h_n + rng.random::<f64>() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k64 = (x + 0.5) as u64;
            let k64 = k64.clamp(1, self.k);
            if k64 as f64 - x <= self.threshold
                || u >= h_integral(k64 as f64 + 0.5, self.s) - h(k64 as f64, self.s)
            {
                return k64 - 1; // to 0-based rank
            }
        }
    }
}

/// `H(x) = ∫ x^-s dx`, the antiderivative used by rejection-inversion,
/// normalized so that `H(1) = 0`: `(x^{1-s} − 1)/(1−s)` (or `ln x` at s=1).
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    let mut t = x * (1.0 - s);
    if t < -1.0 {
        // Clamp guard against rounding below the domain of the inverse.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log1p(x)/x`, continuous at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `expm1(x)/x`, continuous at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The binary search the guide table replaced: the oracle for `rank_of`.
    fn bisect(t: &ZipfTable, u: f64) -> usize {
        t.cdf.partition_point(|&c| c <= u)
    }

    /// The draws at which a rank or a start bucket changes: every CDF
    /// entry and every bucket floor `j/k` with their float neighbours,
    /// plus both ends of `[0, 1)`. A draw walks its bucket from the start,
    /// so drawing at every entry of a bucket of `n` entries costs O(n²);
    /// the dense tail bucket of a steep table (62 k of 100 000 entries at
    /// s = 2) is drawn at its first and last 64 entries and every 64th.
    fn boundary_draws(t: &ZipfTable) -> Vec<f64> {
        let m = t.guide.len();
        let mut draws = vec![0.0, 1.0f64.next_down()];
        for (j, &start) in t.guide.iter().enumerate() {
            let (start, end) = (start as usize, t.guide.get(j + 1).map_or(m, |&g| g as usize));
            let n = end - start;
            for (p, &c) in t.cdf[start..end].iter().enumerate() {
                if n <= 128 || p < 64 || p >= n - 64 || p % 64 == 0 {
                    draws.extend([c, c.next_down(), c.next_up()]);
                }
            }
            let floor = j as f64 / m as f64;
            draws.extend([floor, floor.next_down(), floor.next_up()]);
        }
        draws.retain(|u| (0.0..1.0).contains(u));
        draws
    }

    const GRID_K: [u64; 4] = [1, 2, 1_000, 100_000];
    const GRID_S: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];

    #[test]
    fn rank_of_is_the_binary_search_at_cdf_and_bucket_boundaries() {
        for k in GRID_K {
            for s in GRID_S {
                let t = ZipfTable::new(k, s);
                for u in boundary_draws(&t) {
                    assert_eq!(t.rank_of(u), bisect(&t, u), "k={k} s={s} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn guide_counts_the_entries_at_or_below_each_bucket_floor() {
        for k in GRID_K {
            for s in GRID_S {
                let t = ZipfTable::new(k, s);
                let m = t.guide.len();
                assert_eq!(m, t.cdf.len());
                for (j, &g) in t.guide.iter().enumerate() {
                    let floor = j as f64 / m as f64;
                    assert_eq!(g as usize, bisect(&t, floor), "k={k} s={s} j={j}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rank_of_matches_the_binary_search(
            k in 1u64..5_000,
            s in 0.0f64..4.0,
            us in prop::collection::vec(0.0f64..1.0, 1..64),
        ) {
            let t = ZipfTable::new(k, s);
            for u in us {
                prop_assert_eq!(t.rank_of(u), bisect(&t, u));
            }
        }
    }

    #[test]
    fn cdf_is_monotone_and_probabilities_are_non_negative() {
        let t = ZipfTable::new(100_000, 3.0);
        let probs = t.probabilities();
        if let Some((rank, p)) = probs.iter().enumerate().find(|(_, &p)| p < 0.0) {
            panic!("rank {rank} has negative probability {p:e}");
        }
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(t.cdf.windows(2).all(|w| w[0] <= w[1]), "CDF must be monotone");
    }

    #[test]
    fn fit_exponent_is_bit_equal_to_the_full_bisection() {
        fn full_bisection(k: u64, p1: f64) -> f64 {
            let (mut lo, mut hi) = (0.0f64, 16.0f64);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if 1.0 / harmonic(k, mid) < p1 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }
        // The last case sits past the bracket: p1 needs s > 16 with two
        // keys, so the fit pins to the 16.0 upper edge.
        let cases = [
            (2, 0.51),
            (2, 0.9),
            (10, 0.1000001),
            (10, 0.5),
            (1_000, 0.0015),
            (1_000, 0.1),
            (1_000, 0.9),
            (10_000, 0.01),
            (10_000, 0.0932),
            (10_000, 0.99),
            (2, 1.0 - 1e-9),
        ];
        for (k, p1) in cases {
            let (fast, full) = (fit_exponent(k, p1), full_bisection(k, p1));
            assert_eq!(fast.to_bits(), full.to_bits(), "k={k} p1={p1}: {fast} vs {full}");
        }
        assert_eq!(fit_exponent(2, 1.0 - 1e-9), 16.0);
    }

    #[test]
    fn harmonic_known_values() {
        assert!((harmonic(1, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic(3, 1.0) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((harmonic(4, 0.0) - 4.0).abs() < 1e-12);
        assert!((harmonic(10, 2.0) - 1.549_767_731_166_540_7).abs() < 1e-12);
    }

    #[test]
    fn fit_exponent_hits_target_p1() {
        for (k, p1) in [(2_900u64, 0.0329), (16_000, 0.1471), (290_000, 0.0932)] {
            let s = fit_exponent(k, p1);
            let achieved = 1.0 / harmonic(k, s);
            assert!((achieved - p1).abs() / p1 < 1e-6, "k={k} target={p1} achieved={achieved}");
        }
    }

    #[test]
    #[should_panic(expected = "not attainable")]
    fn unattainable_p1_panics() {
        // p1 below uniform 1/k is impossible.
        let _ = fit_exponent(10, 0.05);
    }

    #[test]
    fn table_head_probability_is_p1() {
        let t = ZipfTable::with_p1(1_000, 0.10);
        assert!((t.p1() - 0.10).abs() < 1e-6);
        let probs = t.probabilities();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Monotone non-increasing.
        for w in probs.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn table_empirical_matches_exact() {
        let t = ZipfTable::new(100, 1.1);
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = vec![0u64; 100];
        for _ in 0..n {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let probs = t.probabilities();
        // Head keys should match within a few percent.
        for rank in 0..5 {
            let emp = counts[rank] as f64 / n as f64;
            let exact = probs[rank];
            assert!(
                (emp - exact).abs() / exact < 0.05,
                "rank {rank}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn rejection_matches_table_distribution() {
        let k = 1_000u64;
        let s = 1.2;
        let table = ZipfTable::new(k, s);
        let rej = ZipfRejection::new(k, s);
        let mut rng_a = SmallRng::seed_from_u64(1);
        let mut rng_b = SmallRng::seed_from_u64(2);
        let n = 300_000;
        let mut ca = vec![0u64; k as usize];
        let mut cb = vec![0u64; k as usize];
        for _ in 0..n {
            ca[table.sample(&mut rng_a) as usize] += 1;
            cb[rej.sample(&mut rng_b) as usize] += 1;
        }
        // Compare head mass and total-variation distance between the two
        // empirical distributions.
        let tv: f64 = ca
            .iter()
            .zip(&cb)
            .map(|(&a, &b)| ((a as f64 - b as f64) / n as f64).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "total variation too high: {tv}");
        for rank in 0..3 {
            let ea = ca[rank] as f64 / n as f64;
            let eb = cb[rank] as f64 / n as f64;
            assert!((ea - eb).abs() / ea < 0.05, "rank {rank}: {ea} vs {eb}");
        }
    }

    #[test]
    fn rejection_covers_full_range_without_out_of_bounds() {
        let rej = ZipfRejection::new(50, 0.8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen_max = 0;
        for _ in 0..100_000 {
            let r = rej.sample(&mut rng);
            assert!(r < 50);
            seen_max = seen_max.max(r);
        }
        // With s=0.8 and 100k draws every rank is hit with overwhelming prob.
        assert_eq!(seen_max, 49);
    }

    #[test]
    fn single_key_degenerate_cases() {
        let t = ZipfTable::new(1, 1.5);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.p1(), 1.0);
    }
}
