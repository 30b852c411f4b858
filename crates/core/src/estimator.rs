//! Load estimation strategies (Q2 of the evaluation).
//!
//! PoTC needs to know worker loads to pick the less-loaded candidate. In a
//! distributed engine that knowledge is not free; the paper's second
//! contribution is that **local** estimation suffices: "each source
//! independently maintains a local load-estimate vector with one element per
//! worker … as long as each source keeps its own portion of load balanced,
//! then the overall load on the workers will also be balanced" (§III-B,
//! correctness from `L_i(t) = Σ_j L_i^j(t)`).
//!
//! Three strategies are modeled:
//! * [`Estimate::Global`] — "G": read the true shared loads (an oracle; in a
//!   real deployment this would require constant worker→source feedback).
//! * [`Estimate::Local`] — "L": the paper's proposal; a plain per-source
//!   vector counting only this source's own traffic.
//! * [`Estimate::Probing`] — "LP": local, but re-synchronized to the true
//!   loads every `period_ms` of stream time (the paper shows this buys
//!   nothing over plain L — our ablation reproduces that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pkg_metrics::{Capacities, CapacityEstimator, LoadMetricKind};

use crate::signals::SharedSignals;

/// The true worker loads, shared between the simulation (which maintains
/// them) and any estimators that are allowed to read them.
///
/// On a heterogeneous cluster the loads additionally carry per-worker
/// capacity weights ([`SharedLoads::with_capacities`]); scheme builders
/// read them back via [`SharedLoads::capacities`] so every source routes by
/// capacity-normalized load. Uniform weights collapse to `None` and the
/// schemes keep their exact capacity-free code paths.
/// The load *signal* a scheme minimizes is pluggable
/// ([`SharedLoads::with_signals`]): when signal state is attached,
/// [`SharedLoads::signal`] combines the tuple count with pending/latency
/// observations per the active [`LoadMetricKind`]. The default
/// configuration attaches nothing and keeps the raw count — byte-identical
/// to the pre-signal structure.
#[derive(Debug, Clone, Default)]
pub struct SharedLoads {
    loads: Arc<Vec<AtomicU64>>,
    capacities: Option<Capacities>,
    signals: Option<Arc<SharedSignals>>,
}

impl SharedLoads {
    /// Zeroed shared loads for `n` workers (homogeneous cluster).
    pub fn new(n: usize) -> Self {
        Self {
            loads: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
            capacities: None,
            signals: None,
        }
    }

    /// Attach per-worker capacity weights (one per worker; uniform weights
    /// collapse — see [`Capacities::heterogeneous`]).
    ///
    /// # Panics
    /// Panics if `capacities.len() != self.n()` or any weight is
    /// non-finite or ≤ 0.
    pub fn with_capacities(mut self, capacities: &[f64]) -> Self {
        assert_eq!(capacities.len(), self.n(), "one capacity per worker");
        self.capacities = Capacities::heterogeneous(capacities);
        self
    }

    /// Attach pluggable load-signal state (metric + optional online
    /// capacity estimator). The default configuration (`TupleCount`, no
    /// estimator) attaches nothing — see [`SharedSignals::attach`].
    pub fn with_signals(
        mut self,
        kind: LoadMetricKind,
        estimator: Option<Arc<CapacityEstimator>>,
    ) -> Self {
        self.signals = SharedSignals::attach(self.n(), kind, estimator);
        self
    }

    /// The attached signal state, if any.
    pub fn signals(&self) -> Option<&Arc<SharedSignals>> {
        self.signals.as_ref()
    }

    /// Label of the active load metric (`"count"` when no signals are
    /// attached).
    pub fn metric_label(&self) -> &'static str {
        match &self.signals {
            Some(s) => s.kind().label(),
            None => "count",
        }
    }

    /// The capacity weights (`None` for a homogeneous cluster).
    pub fn capacities(&self) -> Option<&Capacities> {
        self.capacities.as_ref()
    }

    /// Number of workers.
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// Add one message to worker `w`'s true load.
    #[inline]
    pub fn record(&self, w: usize) {
        // ordering: Relaxed — independent per-worker tallies; readers only
        // need eventual counts (sweep results are joined before reading)
        self.loads[w].fetch_add(1, Ordering::Relaxed);
    }

    /// Read worker `w`'s true load.
    #[inline]
    pub fn load(&self, w: usize) -> u64 {
        // ordering: Relaxed — monotone counter read; no cross-load ordering
        self.loads[w].load(Ordering::Relaxed)
    }

    /// The load *signal* of worker `w` under the active metric — the raw
    /// count when no signals are attached.
    #[inline]
    pub fn signal(&self, w: usize) -> u64 {
        match &self.signals {
            Some(s) => s.signal(w, || self.load(w)),
            None => self.load(w),
        }
    }

    /// Snapshot all loads.
    pub fn snapshot(&self) -> Vec<u64> {
        // ordering: Relaxed — snapshot is advisory (imbalance metrics), and
        // exact snapshots are taken after the generating threads joined
        self.loads.iter().map(|l| l.load(Ordering::Relaxed)).collect()
    }
}

/// Which estimation strategy to build (used by scheme specifications).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimateKind {
    /// Per-source local estimation ("L") — the paper's technique.
    Local,
    /// Global oracle ("G").
    Global,
    /// Local with periodic probing every `period_ms` ("LP").
    Probing {
        /// Probe interval in simulated milliseconds.
        period_ms: u64,
    },
}

impl EstimateKind {
    /// Instantiate for `n` workers against the given true loads.
    ///
    /// When `shared` carries attached load signals, *every* kind builds a
    /// [`Estimate::Global`]: completion tallies and latency EWMAs are shared
    /// feedback by nature — a per-source local count cannot represent them
    /// — so adaptive metrics imply the oracle ("G") estimation mode. The
    /// default (no signals) path dispatches exactly as before.
    pub fn build(&self, n: usize, shared: &SharedLoads) -> Estimate {
        if shared.signals().is_some() {
            return Estimate::global(shared.clone());
        }
        match *self {
            EstimateKind::Local => Estimate::local(n),
            EstimateKind::Global => Estimate::global(shared.clone()),
            EstimateKind::Probing { period_ms } => Estimate::probing(shared.clone(), period_ms),
        }
    }

    /// Short label used in experiment output ("L", "G", "P1"…).
    pub fn label(&self) -> String {
        match *self {
            EstimateKind::Local => "L".into(),
            EstimateKind::Global => "G".into(),
            EstimateKind::Probing { period_ms } => {
                format!("P{}", period_ms / 60_000) // minutes, like the paper's L5P1
            }
        }
    }
}

/// A live load estimate held by one source's partitioner.
#[derive(Debug, Clone)]
pub enum Estimate {
    /// Own-traffic-only counters.
    Local(Vec<u64>),
    /// Handle to the true loads.
    Global(SharedLoads),
    /// Own counters, periodically reset to the true loads.
    Probing {
        /// Local estimate vector.
        local: Vec<u64>,
        /// The true loads to probe.
        shared: SharedLoads,
        /// Probe interval (simulated ms).
        period_ms: u64,
        /// Next probe deadline (simulated ms).
        next_probe_ms: u64,
    },
}

impl Estimate {
    /// Fresh local estimate over `n` workers.
    pub fn local(n: usize) -> Self {
        Estimate::Local(vec![0; n])
    }

    /// Oracle estimate reading the true loads.
    pub fn global(shared: SharedLoads) -> Self {
        Estimate::Global(shared)
    }

    /// Local estimate probing the true loads every `period_ms`.
    fn probing(shared: SharedLoads, period_ms: u64) -> Self {
        assert!(period_ms > 0, "probe period must be positive");
        let n = shared.n();
        Estimate::Probing { local: vec![0; n], shared, period_ms, next_probe_ms: period_ms }
    }

    /// Number of workers covered.
    pub fn n(&self) -> usize {
        match self {
            Estimate::Local(v) => v.len(),
            Estimate::Global(s) => s.n(),
            Estimate::Probing { local, .. } => local.len(),
        }
    }

    /// Estimated load of worker `w` at stream time `ts_ms`.
    ///
    /// Probing estimates refresh themselves from the true loads when the
    /// probe deadline has passed.
    #[inline]
    pub fn load(&mut self, w: usize, ts_ms: u64) -> u64 {
        match self {
            Estimate::Local(v) => v[w],
            // The shared signal degenerates to the raw load whenever no
            // signal state is attached — today's oracle, byte-identical.
            Estimate::Global(s) => s.signal(w),
            Estimate::Probing { local, shared, period_ms, next_probe_ms } => {
                if ts_ms >= *next_probe_ms {
                    for (l, w_id) in local.iter_mut().zip(0..) {
                        *l = shared.load(w_id);
                    }
                    // Skip ahead past any idle gap.
                    let periods = (ts_ms - *next_probe_ms) / *period_ms + 1;
                    *next_probe_ms += periods * *period_ms;
                }
                local[w]
            }
        }
    }

    /// Account one message routed to worker `w` by *this source*.
    ///
    /// Global estimates do nothing here: the true loads are maintained by
    /// the simulation/engine itself, exactly once per message.
    #[inline]
    pub fn record(&mut self, w: usize) {
        match self {
            Estimate::Local(v) => v[w] += 1,
            Estimate::Global(_) => {}
            Estimate::Probing { local, .. } => local[w] += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_counts_own_traffic_only() {
        let shared = SharedLoads::new(3);
        let mut e = Estimate::local(3);
        e.record(1);
        e.record(1);
        shared.record(2); // someone else's traffic
        assert_eq!(e.load(1, 0), 2);
        assert_eq!(e.load(2, 0), 0, "local estimate must not see shared loads");
    }

    #[test]
    fn global_reads_shared_truth() {
        let shared = SharedLoads::new(2);
        let mut e = Estimate::global(shared.clone());
        shared.record(0);
        shared.record(0);
        assert_eq!(e.load(0, 0), 2);
        e.record(0); // no-op by design
        assert_eq!(e.load(0, 0), 2);
    }

    #[test]
    fn probing_refreshes_at_deadline() {
        let shared = SharedLoads::new(2);
        let mut e = Estimate::probing(shared.clone(), 1_000);
        shared.record(0);
        shared.record(0);
        shared.record(0);
        // Before the first deadline: sees only its own (zero) traffic.
        assert_eq!(e.load(0, 999), 0);
        // At the deadline: synchronized with the truth.
        assert_eq!(e.load(0, 1_000), 3);
        // Own recordings accumulate on top until the next probe.
        e.record(0);
        assert_eq!(e.load(0, 1_500), 4);
    }

    #[test]
    fn probing_skips_idle_gaps() {
        let shared = SharedLoads::new(1);
        let mut e = Estimate::probing(shared.clone(), 100);
        shared.record(0);
        // Far past many periods: a single probe lands us on the truth and
        // the next deadline is strictly in the future.
        assert_eq!(e.load(0, 10_050), 1);
        shared.record(0);
        assert_eq!(e.load(0, 10_060), 1, "no re-probe before next deadline");
        assert_eq!(e.load(0, 10_100), 2);
    }

    #[test]
    fn shared_loads_snapshot() {
        let s = SharedLoads::new(3);
        s.record(0);
        s.record(2);
        s.record(2);
        assert_eq!(s.snapshot(), vec![1, 0, 2]);
    }

    #[test]
    fn shared_loads_carry_capacities() {
        let s = SharedLoads::new(3).with_capacities(&[4.0, 1.0, 1.0]);
        let caps = s.capacities().expect("heterogeneous weights kept");
        assert!((caps.weight(0) / caps.weight(1) - 4.0).abs() < 1e-12);
        // Clones share the weights (sources must agree on them).
        assert_eq!(s.clone().capacities(), Some(caps));
        // Uniform weights collapse — the homogeneous fast path stays.
        assert!(SharedLoads::new(3).with_capacities(&[2.0, 2.0, 2.0]).capacities().is_none());
        assert!(SharedLoads::new(2).capacities().is_none());
    }

    #[test]
    fn default_signals_collapse_and_signal_is_the_load() {
        let s = SharedLoads::new(3).with_signals(LoadMetricKind::TupleCount, None);
        assert!(s.signals().is_none(), "TupleCount + no estimator must attach nothing");
        assert_eq!(s.metric_label(), "count");
        s.record(1);
        assert_eq!(s.signal(1), s.load(1));
        // The default path still builds per-kind estimates.
        assert!(matches!(EstimateKind::Local.build(3, &s), Estimate::Local(_)));
    }

    #[test]
    fn attached_signals_force_global_estimation() {
        let s = SharedLoads::new(3).with_signals(LoadMetricKind::PendingRequests, None);
        assert!(s.signals().is_some());
        assert_eq!(s.metric_label(), "pending");
        for kind in
            [EstimateKind::Local, EstimateKind::Global, EstimateKind::Probing { period_ms: 1_000 }]
        {
            assert!(
                matches!(kind.build(3, &s), Estimate::Global(_)),
                "adaptive signals are shared feedback: {kind:?} must go global"
            );
        }
    }

    #[test]
    fn global_estimate_reads_the_pluggable_signal() {
        let s = SharedLoads::new(2).with_signals(LoadMetricKind::PendingRequests, None);
        let sig = s.signals().expect("attached").clone();
        let mut e = Estimate::global(s.clone());
        assert_eq!(e.load(0, 0), 0);
        s.record(0);
        s.record(0);
        assert_eq!(e.load(0, 0), 2, "routed, not yet completed");
        sig.complete(0, 0);
        assert_eq!(e.load(0, 0), 1);
        assert_eq!(s.load(0), 2, "the raw count keeps completed tuples");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(EstimateKind::Local.label(), "L");
        assert_eq!(EstimateKind::Global.label(), "G");
        assert_eq!(EstimateKind::Probing { period_ms: 60_000 }.label(), "P1");
    }
}
