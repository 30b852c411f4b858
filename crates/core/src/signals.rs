//! Shared load-*signal* state behind [`crate::SharedLoads`].
//!
//! The paper's load is a tuple count; [`pkg_metrics::LoadMetricKind`] makes
//! the minimized quantity pluggable, and this module holds the extra shared
//! state the non-default metrics need: per-worker in-flight (pending)
//! counters, per-worker Peak-EWMA service-latency estimates, the global
//! latency peak (the pessimistic prior for workers never observed), and an
//! optional online [`CapacityEstimator`] that rescales every signal by the
//! worker's *measured* relative speed.
//!
//! [`LoadSignalOptions`] is how a run asks for that state — the simulator's
//! `SimConfig::load` and the engine's `RuntimeOptions::load` carry the same
//! type, and [`LoadSignalOptions::attach`] is the one place either builds it.
//!
//! ## The collapse rule
//!
//! [`SharedSignals::attach`] returns `None` for the default configuration
//! (`TupleCount` metric, no estimator). A `SharedLoads` without signals is
//! byte-for-byte the pre-existing structure — no pending counters, no
//! floats, no extra atomics on the routing path — which is what pins
//! "`TupleCount` + static capacities routes identically to today".
//!
//! ## Writer discipline
//!
//! `dispatch` is called by routing threads (senders); `complete`/`observe`
//! by the owning worker. The EWMA cell of worker `w` is written only from
//! `w`'s completions — under the engine executors each instance's
//! completions are processed serially, so the read-modify-write in
//! `observe` has a single writer and Relaxed suffices; racing readers see
//! a slightly stale (monotone-decaying) value, which only delays
//! adaptation by one sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pkg_metrics::{
    peak_ewma_step, CapacityEstimator, LoadMetricKind, LoadObservation, DEFAULT_ESTIMATOR_WINDOW,
};

use crate::estimator::SharedLoads;

/// Which load signal the load-consulting schemes minimize, plus the
/// optional online capacity re-estimation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSignalOptions {
    /// The minimized signal (see [`LoadMetricKind`]).
    pub metric: LoadMetricKind,
    /// Attach a [`CapacityEstimator`] rotating every this many completion
    /// observations. `None` = static capacities only.
    pub estimator_window: Option<u64>,
}

impl LoadSignalOptions {
    /// Minimize `metric`, no online capacity re-estimation.
    pub fn metric(metric: LoadMetricKind) -> Self {
        Self { metric, estimator_window: None }
    }

    /// The full adaptive stack: Peak-EWMA latency signal plus online
    /// capacity re-estimation on the default window.
    pub fn adaptive() -> Self {
        Self {
            metric: LoadMetricKind::peak_ewma(),
            estimator_window: Some(DEFAULT_ESTIMATOR_WINDOW),
        }
    }

    /// `loads` with this signal state attached: the metric, and a fresh
    /// estimator over `loads.n()` workers at the configured window. The
    /// default configuration (`TupleCount`, no estimator) attaches nothing
    /// — see [`SharedSignals::attach`].
    pub fn attach(&self, loads: SharedLoads) -> SharedLoads {
        let estimator =
            self.estimator_window.map(|w| Arc::new(CapacityEstimator::new(loads.n(), w)));
        loads.with_signals(self.metric, estimator)
    }
}

/// Shared per-worker signal state for the non-default load metrics.
#[derive(Debug)]
pub struct SharedSignals {
    kind: LoadMetricKind,
    /// In-flight tuples per worker (dispatched − completed).
    pending: Vec<AtomicU64>,
    /// Peak-EWMA of observed service latency per worker, ns (0 = never
    /// observed).
    ewma_ns: Vec<AtomicU64>,
    /// Global maximum EWMA ever reached, ns (the unobserved-worker prior).
    peak_ns: AtomicU64,
    /// EWMA decay window, in observations.
    window: u32,
    /// Online capacity re-estimation (None = static capacities only).
    estimator: Option<Arc<CapacityEstimator>>,
}

impl SharedSignals {
    /// Signal state for `n` workers, or `None` for the default
    /// configuration (`TupleCount`, no estimator) — the collapse rule.
    pub fn attach(
        n: usize,
        kind: LoadMetricKind,
        estimator: Option<Arc<CapacityEstimator>>,
    ) -> Option<Arc<Self>> {
        if kind == LoadMetricKind::TupleCount && estimator.is_none() {
            return None;
        }
        Some(Arc::new(Self {
            kind,
            pending: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ewma_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            peak_ns: AtomicU64::new(0),
            window: kind.window(),
            estimator,
        }))
    }

    /// The active metric selector.
    pub fn kind(&self) -> LoadMetricKind {
        self.kind
    }

    /// The attached capacity estimator, if any.
    pub fn estimator(&self) -> Option<&Arc<CapacityEstimator>> {
        self.estimator.as_ref()
    }

    /// A tuple was dispatched toward worker `w` (not yet completed).
    #[inline]
    pub fn dispatch(&self, w: usize) {
        if let Some(p) = self.pending.get(w) {
            // ordering: Relaxed — independent per-worker tally; the signal
            // read is advisory (routing hints, not synchronization).
            p.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Worker `w` completed one tuple; `service_ns` is its observed service
    /// time (0 = completion known but duration unmeasured — the pending
    /// counter still balances, the latency estimate is untouched).
    #[inline]
    pub fn complete(&self, w: usize, service_ns: u64) {
        if let Some(p) = self.pending.get(w) {
            // Saturating decrement: completions the signals never saw
            // dispatched (e.g. pre-attach traffic) must not underflow.
            // ordering: Relaxed — per-worker tally, see `dispatch`.
            let mut cur = p.load(Ordering::Relaxed);
            while cur > 0 {
                // ordering: Relaxed — single-location CAS; no other memory
                // is published by a pending decrement.
                match p.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        if service_ns > 0 {
            self.observe(w, service_ns);
        }
    }

    /// Feed one observed service time for worker `w` into the latency
    /// estimate (and the capacity estimator, when attached).
    pub fn observe(&self, w: usize, service_ns: u64) {
        if let Some(cell) = self.ewma_ns.get(w) {
            // Single-writer read-modify-write: only worker `w`'s own
            // completion path writes this cell (see module docs).
            // ordering: Relaxed — racing readers may see the pre-update
            // value; the signal is advisory.
            let prev = cell.load(Ordering::Relaxed);
            let next = peak_ewma_step(prev, service_ns, self.window);
            // ordering: Relaxed — see above.
            cell.store(next, Ordering::Relaxed);
            // ordering: Relaxed — monotone max; readers only need *some*
            // recent peak as the unobserved-worker prior.
            self.peak_ns.fetch_max(next, Ordering::Relaxed);
        }
        if let Some(e) = &self.estimator {
            e.observe(w, service_ns);
        }
    }

    /// The signal the partitioners minimize for worker `w`, given the
    /// worker's routed-tuple count (maintained by [`crate::SharedLoads`]).
    #[inline]
    pub fn signal(&self, w: usize, count: u64) -> u64 {
        let obs = LoadObservation {
            count,
            // ordering: Relaxed — advisory reads, see `dispatch`.
            pending: self.pending.get(w).map_or(0, |p| p.load(Ordering::Relaxed)),
            // ordering: Relaxed — see `observe`.
            peak_ewma_ns: self.ewma_ns.get(w).map_or(0, |c| c.load(Ordering::Relaxed)),
            // ordering: Relaxed — see `observe`.
            fallback_ns: self.peak_ns.load(Ordering::Relaxed),
        };
        let raw = self.kind.signal(obs);
        match &self.estimator {
            Some(e) => e.scale(w, raw),
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_collapses_to_none() {
        assert!(SharedSignals::attach(4, LoadMetricKind::TupleCount, None).is_none());
        assert!(SharedSignals::attach(4, LoadMetricKind::peak_ewma(), None).is_some());
        assert!(SharedSignals::attach(4, LoadMetricKind::PendingRequests, None).is_some());
        let est = Arc::new(CapacityEstimator::new(4, 64));
        assert!(SharedSignals::attach(4, LoadMetricKind::TupleCount, Some(est)).is_some());
    }

    #[test]
    fn pending_tracks_dispatch_minus_complete_and_never_underflows() {
        let s = SharedSignals::attach(2, LoadMetricKind::PendingRequests, None)
            .expect("non-default metric attaches");
        s.dispatch(0);
        s.dispatch(0);
        s.dispatch(1);
        assert_eq!(s.signal(0, 99), 2, "pending metric ignores the count");
        s.complete(0, 0);
        assert_eq!(s.signal(0, 99), 1);
        s.complete(0, 0);
        s.complete(0, 0); // one more completion than dispatches
        assert_eq!(s.signal(0, 99), 0, "saturates at zero");
    }

    #[test]
    fn peak_ewma_signal_prefers_the_fast_worker() {
        let s = SharedSignals::attach(2, LoadMetricKind::peak_ewma(), None)
            .expect("non-default metric attaches");
        // No latency observed anywhere: signal is the raw count.
        assert_eq!(s.signal(0, 7), 7);
        for _ in 0..8 {
            s.observe(0, 40_000); // slow
            s.observe(1, 10_000); // fast
        }
        assert!(
            s.signal(0, 10) > s.signal(1, 10),
            "equal counts, the slow worker must signal higher"
        );
    }

    #[test]
    fn uniform_latency_is_an_exact_constant_multiple_of_count() {
        let s = SharedSignals::attach(3, LoadMetricKind::peak_ewma(), None)
            .expect("non-default metric attaches");
        for w in 0..3 {
            for _ in 0..4 {
                s.observe(w, 5_000);
            }
        }
        for count in [0u64, 1, 9, 120] {
            for w in 0..3 {
                assert_eq!(s.signal(w, count), 5_000 * count, "exact multiple preserves argmins");
            }
        }
    }

    #[test]
    fn estimator_rescales_the_signal() {
        let est = Arc::new(CapacityEstimator::new(2, 16));
        let s = SharedSignals::attach(2, LoadMetricKind::TupleCount, Some(Arc::clone(&est)))
            .expect("estimator forces signals on");
        for i in 0..16u64 {
            let w = (i % 2) as usize;
            s.observe(w, if w == 0 { 40_000 } else { 10_000 });
        }
        assert_eq!(est.rotations(), 1);
        assert!(
            s.signal(0, 100) > s.signal(1, 100),
            "slow worker's count is inflated by the estimator"
        );
    }
}
