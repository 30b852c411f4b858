//! Sampled time series for "imbalance through time" plots (Fig. 3).

/// A `(time, value)` series with bounded memory.
///
/// Experiments run for tens of millions of messages; recording every point
/// would dominate memory, so the series keeps at most `capacity` points by
/// doubling its sampling stride whenever it fills up (every other retained
/// point is discarded and subsequent pushes are decimated accordingly).
/// This preserves a uniform sampling of the whole run.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
    capacity: usize,
    stride: u64,
    seen: u64,
}

impl TimeSeries {
    /// A series keeping at most `capacity` (≥ 2) points.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "capacity must be at least 2");
        Self { points: Vec::with_capacity(capacity), capacity, stride: 1, seen: 0 }
    }

    /// Offer a point; it is retained if it falls on the current stride.
    pub fn push(&mut self, t: f64, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() == self.capacity {
                // Halve resolution: keep even-indexed points, double stride.
                let mut i = 0;
                self.points.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride *= 2;
                // The current point falls on the *old* stride; it is retained
                // only if it also falls on the new one.
                if self.seen.is_multiple_of(self.stride) {
                    self.points.push((t, v));
                }
            } else {
                self.points.push((t, v));
            }
        }
        self.seen += 1;
    }

    /// The retained points, in push order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Mean of the retained values (used for "average imbalance" summaries).
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Last retained value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_under_capacity() {
        let mut ts = TimeSeries::new(100);
        for i in 0..50 {
            ts.push(i as f64, (i * 2) as f64);
        }
        assert_eq!(ts.points().len(), 50);
        assert_eq!(ts.points()[10], (10.0, 20.0));
    }

    #[test]
    fn decimates_beyond_capacity() {
        let mut ts = TimeSeries::new(64);
        for i in 0..10_000 {
            ts.push(i as f64, i as f64);
        }
        assert!(ts.points().len() <= 64);
        // Still spans the whole range.
        let first = ts.points().first().expect("non-empty").0;
        let last = ts.points().last().expect("non-empty").0;
        assert_eq!(first, 0.0);
        assert!(last >= 9_000.0, "last retained t = {last}");
        // Times strictly increasing (uniform decimation, no reordering).
        for w in ts.points().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn mean_of_constant_series_is_the_constant() {
        let mut ts = TimeSeries::new(16);
        for i in 0..1000 {
            ts.push(i as f64, 7.5);
        }
        assert!((ts.mean_value() - 7.5).abs() < 1e-12);
    }
}
