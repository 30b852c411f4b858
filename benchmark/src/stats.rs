//! Order statistics over repetitions, percentiles read out of the engine's
//! latency histograms, and the process's peak memory.

use pkg_metrics::LatencyHistogram;

/// One metric over a run's repetitions: the value the run reports, and the
/// median, quartiles and sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the run reports for the metric: the median unless
    /// [`Self::reporting`] chose otherwise.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
    /// exclusive method), which the driver uses for its spread check, so a
    /// spread printed here compares directly with the driver's — except that
    /// they are kept inside the sample's range, where Python extrapolates
    /// past it for two values.
    ///
    /// # Panics
    /// Panics on an empty or non-finite sample: every metric is measured at
    /// least once per run.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample in {values:?}");
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        if n == 1 {
            return Self { value: median, median, q1: median, q3: median, n };
        }
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1])
        };
        Self { value: median, median, q1: quartile(1), q3: quartile(3), n }
    }

    /// The same sample, reporting `value` in place of the median.
    pub fn reporting(self, value: f64) -> Self {
        Self { value, ..self }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `q`-quantile of an engine latency histogram, interpolated inside its
/// bucket.
///
/// `LatencyHistogram::quantile` answers with a bucket's lower bound, so at
/// the engine's resolution (32 buckets per octave) a steady percentile reads
/// the same to the last digit run after run and hides any change smaller
/// than 3%. The histogram does not expose its buckets, but its quantile
/// function does: the ranks that map to the answer's bucket are found by
/// bisection, and the answer is placed between that bucket's lower bound
/// and the next occupied bucket's by the target rank's position among them.
pub fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    // `quantile` takes the rank `ceil(q·total)`; `k − ½` over `total` hits
    // rank `k` exactly.
    let at_rank = |k: u64| h.quantile((k as f64 - 0.5) / total as f64);
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let lower = at_rank(rank);
    // First and last rank inside the bucket (`at_rank` is monotone).
    let bisect = |mut lo: u64, mut hi: u64, inside_is_low: bool| {
        while lo < hi {
            let mid = if inside_is_low { lo + (hi - lo).div_ceil(2) } else { lo + (hi - lo) / 2 };
            match (at_rank(mid) == lower, inside_is_low) {
                (true, true) => lo = mid,
                (false, true) => hi = mid - 1,
                (true, false) => hi = mid,
                (false, false) => lo = mid + 1,
            }
        }
        lo
    };
    let first = bisect(1, rank, false);
    let last = bisect(rank, total, true);
    let upper = if last < total { at_rank(last + 1) } else { h.max() };
    let position = (rank - first) as f64 + 0.5;
    lower as f64 + (upper - lower) as f64 * position / (last - first + 1) as f64
}

/// Restart the kernel's peak-RSS watermark of this process from its current
/// resident size, so that the next [`peak_rss_mb`] reads the peak of one
/// repetition, not of the process so far. Where `/proc/self/clear_refs` is
/// not writable the watermark simply keeps accumulating, and every
/// repetition reads the process's peak so far.
pub fn reset_peak_rss() {
    // "5" is the kernel's code for "reset the peak resident set size".
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`], or `None` where `/proc` does not offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // Ten values, as the driver's spread check takes them.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn quartiles_stay_inside_the_sample() {
        // statistics.quantiles([10, 20], n=4) extrapolates to [7.5, 15, 22.5];
        // a reported value must be one the run could have measured.
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3, s.value), (10.0, 15.0, 20.0, 15.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n, s.spread()), (7.0, 7.0, 7.0, 1, 0.0));
        assert_eq!(s.reporting(3.0).value, 3.0);
    }

    #[test]
    fn interpolation_recovers_what_bucketing_hides() {
        // 100 000 evenly spaced latencies around 2 ms: the true quantiles
        // are known, and the bucketed answers are up to 3% below them.
        let mut h = LatencyHistogram::new(5);
        let value = |i: u64| 1_000_000 + i * 20;
        (0..100_000).for_each(|i| h.record(value(i)));
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let truth = value((q * 100_000.0) as u64 - 1) as f64;
            let bucketed = h.quantile(q) as f64;
            let fine = interpolated_quantile(&h, q);
            assert!(fine >= bucketed, "q={q}: interpolation stays inside the bucket");
            assert!((fine - truth).abs() / truth < 1e-3, "q={q}: {fine} vs true {truth}");
        }
        // Moving every sample by 1% moves the answer by 1%, which the
        // bucketed p50 of this sample does not see.
        let mut shifted = LatencyHistogram::new(5);
        (0..100_000).for_each(|i| shifted.record(value(i) * 101 / 100));
        let ratio = interpolated_quantile(&shifted, 0.5) / interpolated_quantile(&h, 0.5);
        assert!((ratio - 1.01).abs() < 1e-3, "ratio {ratio}");
        assert_eq!(interpolated_quantile(&LatencyHistogram::new(5), 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
