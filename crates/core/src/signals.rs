//! Shared load-*signal* state behind [`crate::SharedLoads`].
//!
//! The paper's load is a tuple count; [`pkg_metrics::LoadMetricKind`] makes
//! the minimized quantity pluggable, and this module holds the extra shared
//! state the non-default metrics need: per-worker completion tallies,
//! per-worker Peak-EWMA service-latency estimates, the global latency peak
//! (the pessimistic prior for workers never observed), and an optional
//! online [`CapacityEstimator`] that rescales every signal by the worker's
//! *measured* relative speed.
//!
//! [`LoadSignalOptions`] is how a run asks for that state — the simulator's
//! `SimConfig::load` and the engine's `RuntimeOptions::load` carry the same
//! type, and [`LoadSignalOptions::attach`] is the one place either builds it.
//!
//! ## The collapse rule
//!
//! [`SharedSignals::attach`] returns `None` for the default configuration
//! (`TupleCount` metric, no estimator). A `SharedLoads` without signals is
//! byte-for-byte the pre-existing structure — no completion tallies, no
//! floats, no extra atomics on the routing path — which is what pins
//! "`TupleCount` + static capacities routes identically to today".
//!
//! ## Writer discipline
//!
//! A routed tuple's one write is its count ([`SharedLoads::record`]), which
//! is also its dispatch: in-flight is `count − completed`, a saturating
//! difference (a Relaxed reader may see a completion before its count).
//! Each per-worker cell here is written only by that worker's completions,
//! serial per engine instance, so [`SharedSignals::complete`] is a Relaxed
//! load and store on a cache-padded cell, never a read-modify-write; racing
//! readers see a slightly stale value, which only delays adaptation by one
//! sample. The global peak, raised by every worker, is raised only when
//! exceeded.

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

/// One worker's completion tally, alone on its cache lines (128 bytes: a
/// line and the neighbour that adjacent-line prefetch pulls with it).
#[derive(Debug, Default)]
#[repr(align(128))]
struct CompletionCell(AtomicU64);

/// Shared per-worker signal state for the non-default load metrics.
#[derive(Debug)]
pub struct SharedSignals {
    kind: LoadMetricKind,
    /// Tuples completed per worker, written only by that worker; its
    /// in-flight depth is the routed count minus this.
    completed: Vec<CompletionCell>,
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
            completed: (0..n).map(|_| CompletionCell::default()).collect(),
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

    /// A no-op: the routed count ([`SharedLoads::record`]) is the dispatch
    /// tally. Kept only for the benchmark's `core.signals_dispatch_complete_ns`.
    #[inline]
    pub fn dispatch(&self, _w: usize) {}

    /// Worker `w` completed one tuple; `service_ns` is its observed service
    /// time (0 = duration unmeasured: the latency estimate is untouched).
    /// Only `w`'s own completions may call this (see the module docs).
    #[inline]
    pub fn complete(&self, w: usize, service_ns: u64) {
        let done = &self.completed[w].0;
        // ordering: Relaxed — single writer, so load + store is the
        // increment; the tally publishes no other memory.
        done.store(done.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if service_ns > 0 {
            self.observe(w, service_ns);
        }
    }

    /// Feed one observed service time for worker `w` into the latency
    /// estimate (and the capacity estimator, when attached).
    fn observe(&self, w: usize, service_ns: u64) {
        let cell = &self.ewma_ns[w];
        // ordering: Relaxed — single writer (see module docs); racing
        // readers may see the pre-update value, the signal is advisory.
        let next = peak_ewma_step(cell.load(Ordering::Relaxed), service_ns, self.window);
        // ordering: Relaxed — see above.
        cell.store(next, Ordering::Relaxed);
        // ordering: Relaxed — monotone max; readers only need *some* recent
        // peak as the unobserved-worker prior. Read first: RMW only on a rise.
        if next > self.peak_ns.load(Ordering::Relaxed) {
            // ordering: Relaxed — see above.
            self.peak_ns.fetch_max(next, Ordering::Relaxed);
        }
        if let Some(e) = &self.estimator {
            e.observe(w, service_ns);
        }
    }

    /// The signal the partitioners minimize for worker `w`; `count` reads
    /// its routed-tuple count ([`SharedLoads`]). Only what the metric needs
    /// is read: Peak-EWMA reads the global peak first and, while it is 0,
    /// only the count ([`LoadMetricKind::signal`]'s zero-latency collapse).
    /// The completion tally is read before the count.
    #[inline]
    pub fn signal(&self, w: usize, count: impl FnOnce() -> u64) -> u64 {
        let raw = match self.kind {
            LoadMetricKind::TupleCount => count(),
            LoadMetricKind::PendingRequests => {
                // ordering: Relaxed — advisory read, see module docs.
                let done = self.completed[w].0.load(Ordering::Relaxed);
                count().saturating_sub(done)
            }
            // ordering: Relaxed — advisory read, see `observe`.
            LoadMetricKind::PeakEwma { .. } => match self.peak_ns.load(Ordering::Relaxed) {
                0 => count(),
                fallback_ns => {
                    // ordering: Relaxed — advisory reads, see module docs.
                    let done = self.completed[w].0.load(Ordering::Relaxed);
                    let count = count();
                    let peak_ewma_ns = self.ewma_ns[w].load(Ordering::Relaxed);
                    let pending = count.saturating_sub(done);
                    self.kind.signal(LoadObservation { count, pending, peak_ewma_ns, fallback_ns })
                }
            },
        };
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

    fn loads(n: usize, kind: LoadMetricKind) -> (SharedLoads, Arc<SharedSignals>) {
        let loads = SharedLoads::new(n).with_signals(kind, None);
        let signals = Arc::clone(loads.signals().expect("non-default metric attaches"));
        (loads, signals)
    }

    #[test]
    fn pending_is_count_minus_completed_and_never_underflows() {
        let (loads, s) = loads(2, LoadMetricKind::PendingRequests);
        loads.record(0);
        loads.record(0);
        loads.record(1);
        assert_eq!(loads.signal(0), 2);
        s.complete(0, 0);
        assert_eq!(loads.signal(0), 1);
        s.complete(0, 0);
        s.complete(0, 0); // one more completion than routed tuples
        assert_eq!(loads.signal(0), 0, "saturates at zero");
        assert_eq!(loads.signal(1), 1, "tallies are per worker");
    }

    #[test]
    fn peak_ewma_signal_prefers_the_fast_worker() {
        let s = SharedSignals::attach(2, LoadMetricKind::peak_ewma(), None)
            .expect("non-default metric attaches");
        // No latency observed anywhere: signal is the raw count.
        assert_eq!(s.signal(0, || 7), 7);
        for _ in 0..8 {
            s.complete(0, 40_000); // slow
            s.complete(1, 10_000); // fast
        }
        assert!(
            s.signal(0, || 10) > s.signal(1, || 10),
            "equal counts, the slow worker must signal higher"
        );
    }

    #[test]
    fn uniform_latency_is_an_exact_constant_multiple_of_count() {
        // Worker 3 is never routed to: count 0 under the global-peak prior.
        let (loads, s) = loads(4, LoadMetricKind::peak_ewma());
        for target in [1u64, 9, 120] {
            for w in 0..3 {
                while loads.load(w) < target {
                    loads.record(w);
                    s.complete(w, 5_000);
                }
            }
            for w in 0..4 {
                let count = loads.load(w);
                assert_eq!(loads.signal(w), 5_000 * count, "exact multiple preserves argmins");
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
            s.complete(w, if w == 0 { 40_000 } else { 10_000 });
        }
        assert_eq!(est.rotations(), 1);
        assert!(
            s.signal(0, || 100) > s.signal(1, || 100),
            "slow worker's count is inflated by the estimator"
        );
    }

    #[test]
    fn concurrent_senders_and_owners_keep_in_flight_exact() {
        // Four senders route into eight workers; each worker's owner thread
        // completes what reaches its mailbox (a channel, which orders the
        // routed count before the completion, as the engine's mailbox does).
        const SENDERS: usize = 4;
        const WORKERS: usize = 8;
        const PER_SENDER: usize = 20_000;
        let route = |s: usize, i: usize| (s * 7 + i * (i % 3 + 1)) % WORKERS;
        let (loads, signals) = loads(WORKERS, LoadMetricKind::PendingRequests);
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..WORKERS).map(|_| std::sync::mpsc::channel::<()>()).unzip();
        std::thread::scope(|scope| {
            for (w, rx) in rxs.into_iter().enumerate() {
                let signals = &signals;
                scope.spawn(move || rx.iter().for_each(|()| signals.complete(w, 0)));
            }
            for s in 0..SENDERS {
                let (loads, txs) = (&loads, txs.clone());
                scope.spawn(move || {
                    for i in 0..PER_SENDER {
                        let w = route(s, i);
                        loads.record(w);
                        txs[w].send(()).expect("owner alive");
                        let v = (i * 5 + s) % WORKERS;
                        let pending = loads.signal(v);
                        assert!(pending <= loads.load(v), "worker {v}: pending exceeds count");
                    }
                });
            }
            drop(txs);
        });
        let mut expected = [0u64; WORKERS];
        for s in 0..SENDERS {
            (0..PER_SENDER).for_each(|i| expected[route(s, i)] += 1);
        }
        assert_eq!(loads.snapshot(), expected, "routed counts are exact");
        for w in 0..WORKERS {
            assert_eq!(loads.signal(w), 0, "worker {w}: every routed tuple completed");
        }
    }
}
