//! Pluggable load signals — what "load" *means* to a load-consulting
//! partitioner.
//!
//! Every scheme in the paper minimizes a per-worker quantity; §II equates
//! that quantity with the routed-tuple count, which is exact in the
//! simulator but a proxy in a real deployment: the cloud-deployment caveat
//! (and the heterogeneous-cluster follow-up) both observe that a worker's
//! *service capacity* can drift away from its tuple count mid-run. This
//! module makes the minimized signal pluggable:
//!
//! * [`LoadMetricKind::TupleCount`] — the paper's signal and the default.
//!   Byte-identical to every pre-existing code path.
//! * [`LoadMetricKind::PendingRequests`] — in-flight tuples (dispatched but
//!   not yet completed); a queue-depth penalty in the
//!   `tower-load`/Finagle "least loaded" idiom.
//! * [`LoadMetricKind::PeakEwma`] — per-worker service latency decayed over
//!   a worst-case window, multiplied by the outstanding work
//!   (`count + pending`). An integer, clock-free adaptation of tower's
//!   Peak-EWMA: latency jumps to peaks instantly and decays slowly, so a
//!   worker that just exhibited a slowdown looks expensive for a full
//!   window even if its next samples are fast.
//!
//! [`LoadMetricKind::signal`] is a pure function of a flattened
//! [`LoadObservation`] rather than of any shared state, so every consumer
//! (the core estimators, the simulator and the engine) compares the *same
//! units* — the audit counterpart of the `LoadVector` accessor rule.

/// Default decay window (in observations) for [`LoadMetricKind::PeakEwma`].
///
/// 64 samples ≈ the convergence window the elastic replay uses per worker;
/// long enough to smooth jitter, short enough that a genuine 4× slowdown
/// dominates the signal within one estimation window.
const DEFAULT_PEAK_EWMA_WINDOW: u32 = 64;

/// Everything [`LoadMetricKind::signal`] may consult about one worker,
/// flattened to plain integers so the signal stays pure and unit-testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadObservation {
    /// Tuples routed to the worker so far (the paper's load).
    pub count: u64,
    /// Tuples dispatched but not yet completed (in-flight).
    pub pending: u64,
    /// Peak-EWMA of the worker's observed service latency, nanoseconds;
    /// 0 when this worker has no latency observation yet.
    pub peak_ewma_ns: u64,
    /// Pessimistic prior for unobserved workers: the *global maximum*
    /// peak-EWMA across all workers, nanoseconds; 0 iff no worker has any
    /// latency observation at all.
    pub fallback_ns: u64,
}

/// A definition of per-worker load: the quantity every greedy argmin in the
/// repo minimizes.
///
/// Every metric is monotone in genuine load (more outstanding work on a
/// slower worker never *decreases* the signal), so each argmin stays
/// meaningful whichever metric is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LoadMetricKind {
    /// Routed-tuple count — the paper's signal, and the default.
    #[default]
    TupleCount,
    /// In-flight (dispatched − completed) tuples.
    PendingRequests,
    /// Peak-decayed service latency × outstanding work.
    ///
    /// Unobserved workers inherit the *global* peak as a pessimistic prior.
    /// This choice is what pins the zero-latency collapse: with no latency
    /// observed anywhere (`fallback_ns == 0`) the signal degenerates to the
    /// exact tuple count, and with *uniform* observed latency `B` every
    /// worker's signal is exactly `B × count` — the same argmin (including
    /// tie patterns) as [`LoadMetricKind::TupleCount`].
    PeakEwma {
        /// Decay window in observations (64 by default, `DEFAULT_PEAK_EWMA_WINDOW`).
        window: u32,
    },
}

impl LoadMetricKind {
    /// Peak-EWMA with the default window.
    pub fn peak_ewma() -> Self {
        LoadMetricKind::PeakEwma { window: DEFAULT_PEAK_EWMA_WINDOW }
    }

    /// Stable short label (reports, bench JSON records, TSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            LoadMetricKind::TupleCount => "count",
            LoadMetricKind::PendingRequests => "pending",
            LoadMetricKind::PeakEwma { .. } => "peak_ewma",
        }
    }

    /// The scalar the partitioner minimizes for the observed worker.
    #[inline]
    pub fn signal(&self, obs: LoadObservation) -> u64 {
        match self {
            LoadMetricKind::TupleCount => obs.count,
            LoadMetricKind::PendingRequests => obs.pending,
            LoadMetricKind::PeakEwma { .. } if obs.fallback_ns == 0 => obs.count,
            LoadMetricKind::PeakEwma { .. } => {
                let per_tuple =
                    if obs.peak_ewma_ns == 0 { obs.fallback_ns } else { obs.peak_ewma_ns };
                per_tuple.max(1).saturating_mul(obs.count.saturating_add(obs.pending))
            }
        }
    }

    /// The EWMA decay window this kind implies (1 ⇒ no memory).
    pub fn window(&self) -> u32 {
        match self {
            LoadMetricKind::PeakEwma { window } => (*window).max(1),
            _ => DEFAULT_PEAK_EWMA_WINDOW,
        }
    }
}

/// One integer Peak-EWMA update step (clock-free: the window counts
/// *observations*, not elapsed time, so the signal is deterministic and
/// identical across executors).
///
/// Peaks are adopted instantly (`sample >= prev` ⇒ `sample`); decay toward
/// a lower sample moves by `(prev − sample)/window` per step, floored at 1
/// so the estimate always makes progress and converges exactly on a
/// constant stream of samples.
pub fn peak_ewma_step(prev: u64, sample: u64, window: u32) -> u64 {
    if sample >= prev {
        return sample;
    }
    let step = ((prev - sample) / u64::from(window.max(1))).max(1);
    prev - step
}

#[cfg(test)]
mod tests {
    use super::*;

    use LoadMetricKind::{PendingRequests, TupleCount};

    const PEAK_EWMA: LoadMetricKind = LoadMetricKind::PeakEwma { window: DEFAULT_PEAK_EWMA_WINDOW };

    #[test]
    fn tuple_count_is_the_raw_count() {
        let obs = LoadObservation { count: 17, pending: 5, peak_ewma_ns: 99, fallback_ns: 120 };
        assert_eq!(TupleCount.signal(obs), 17);
    }

    #[test]
    fn pending_is_the_in_flight_depth() {
        let obs = LoadObservation { count: 17, pending: 5, peak_ewma_ns: 99, fallback_ns: 120 };
        assert_eq!(PendingRequests.signal(obs), 5);
    }

    #[test]
    fn peak_ewma_with_no_latency_anywhere_is_the_tuple_count() {
        for count in [0u64, 1, 5, 1000] {
            let obs = LoadObservation { count, pending: 3, peak_ewma_ns: 0, fallback_ns: 0 };
            assert_eq!(PEAK_EWMA.signal(obs), count, "zero-latency collapse");
        }
    }

    #[test]
    fn peak_ewma_uniform_latency_preserves_count_order_and_ties() {
        let b = 7_000u64;
        let sig = |count| {
            PEAK_EWMA.signal(LoadObservation { count, pending: 0, peak_ewma_ns: b, fallback_ns: b })
        };
        assert_eq!(sig(10), sig(10), "ties preserved");
        assert!(sig(9) < sig(10), "strict order preserved");
        assert_eq!(sig(10), b * 10, "exact constant multiple of count");
    }

    #[test]
    fn peak_ewma_unobserved_worker_uses_the_global_peak() {
        let obs = LoadObservation { count: 4, pending: 1, peak_ewma_ns: 0, fallback_ns: 9_000 };
        assert_eq!(PEAK_EWMA.signal(obs), 9_000 * 5);
    }

    #[test]
    fn peak_ewma_slow_worker_outweighs_fast_one_at_equal_count() {
        let slow =
            LoadObservation { count: 10, pending: 0, peak_ewma_ns: 40_000, fallback_ns: 40_000 };
        let fast =
            LoadObservation { count: 10, pending: 0, peak_ewma_ns: 10_000, fallback_ns: 40_000 };
        assert!(PEAK_EWMA.signal(slow) > PEAK_EWMA.signal(fast));
    }

    #[test]
    fn step_jumps_to_peak_and_decays_with_progress() {
        assert_eq!(peak_ewma_step(100, 500, 64), 500, "jump to peak");
        assert_eq!(peak_ewma_step(500, 500, 64), 500, "steady state");
        let decayed = peak_ewma_step(6_500, 100, 64);
        assert_eq!(decayed, 6_400, "(6500-100)/64 = 100 per step");
        // The floor-at-1 guarantees convergence even when the gap is small.
        let mut v = 70u64;
        for _ in 0..100 {
            v = peak_ewma_step(v, 60, 64);
        }
        assert_eq!(v, 60, "converges exactly on a constant stream");
    }

    #[test]
    fn step_is_exact_on_uniform_samples() {
        let mut v = 0u64;
        for _ in 0..5 {
            v = peak_ewma_step(v, 8_000, 64);
        }
        assert_eq!(v, 8_000, "uniform samples pin the ewma at the sample");
    }
}
