//! The one notion of "load" every greedy scheme in this crate routes on.
//!
//! The paper's scheme is one line — route to
//! `argmin_{i ∈ candidates(k)} L_i(t)` (§IV) — and its follow-ups only vary
//! *which* workers are candidates and *what* is compared. A [`LoadView`] is
//! everything that line reads:
//!
//! * the load **estimate** `L_i(t)` (§III-B: local, global or probing — see
//!   [`Estimate`]; a global estimate over signal-bearing
//!   [`crate::SharedLoads`] reads the pluggable load signal instead of the
//!   tuple count);
//! * optional **capacity weights** `c_i` — the comparison becomes
//!   `L_a/c_a < L_b/c_b` ("Load Balancing for Skewed Streams on
//!   Heterogeneous Clusters"); `None`, including collapsed uniform weights,
//!   keeps the exact integer comparison;
//! * the **live set** (pkg-elastic): `None` is the untouched fixed-`W` fast
//!   path, byte-identical to the pre-elastic code by construction.
//!
//! It owns the single argmin loop (behind [`LoadView::argmin_hashed`] and
//! [`LoadView::argmin_live`]; ties go to the earlier candidate) and the
//! single place a hash is reduced onto the live set ([`LoadView::reduce`]),
//! so key splitting ([`crate::PartialKeyGrouping`]) and key pinning
//! ([`crate::PinnedGreedy`]) differ only in how they enumerate candidates
//! and whether they remember the answer.

use pkg_metrics::{prefers, Capacities};

use crate::estimator::Estimate;
use crate::partitioner::check_membership;

/// Load estimate × capacity weights × live set over the fixed id space
/// `0..n`.
#[derive(Debug, Clone)]
pub struct LoadView {
    n: usize,
    estimate: Estimate,
    capacities: Option<Capacities>,
    live: Option<Vec<usize>>,
}

impl LoadView {
    /// A homogeneous, never-resized view of `n` workers reading `estimate`.
    pub fn new(n: usize, estimate: Estimate) -> Self {
        assert!(n > 0, "need at least one worker");
        assert_eq!(estimate.n(), n, "estimate must cover all workers");
        Self { n, estimate, capacities: None, live: None }
    }

    /// Compare capacity-normalized loads `L_i/c_i` using these per-worker
    /// weights (`None` = homogeneous; uniform weights collapse upstream).
    pub fn with_capacities(mut self, capacities: Option<Capacities>) -> Self {
        if let Some(c) = &capacities {
            assert_eq!(c.len(), self.n, "one capacity per worker");
        }
        self.capacities = capacities;
        self
    }

    /// Restrict the view to the live subset `live` of `0..n`.
    ///
    /// # Panics
    /// Panics on an invalid set (empty, unsorted, duplicate or out-of-range
    /// indices).
    pub fn set_live(&mut self, live: &[usize]) {
        check_membership(live, self.n);
        self.live = Some(live.to_vec());
    }

    /// Size of the fixed id space.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The live subset, `None` when never resized.
    pub fn live(&self) -> Option<&[usize]> {
        self.live.as_deref()
    }

    /// Number of workers currently routed over.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live.as_ref().map_or(self.n, Vec::len)
    }

    /// Every worker currently routed over, ascending.
    pub fn live_workers(&self) -> Vec<usize> {
        self.live.clone().unwrap_or_else(|| (0..self.n).collect())
    }

    /// Read access to the load estimate (tests/diagnostics).
    pub fn estimate(&self) -> &Estimate {
        &self.estimate
    }

    /// Reduce a key hash onto the live set: `hash mod n` when never resized,
    /// else the live member at position `hash mod |live|` — equal when the
    /// live set is all of `0..n`. A surviving member keeps its identity
    /// across membership changes; only the modulus changes.
    #[inline]
    pub fn reduce(&self, hash: u64) -> usize {
        reduce(self.n, self.live.as_deref(), hash)
    }

    /// The candidate with the smallest estimated (capacity-normalized, when
    /// weights are attached) load at stream time `ts_ms` among the
    /// [reductions](Self::reduce) of each hash, in order — the members of a
    /// key's hash sequence; ties break toward the **earlier** candidate.
    /// Duplicates are harmless.
    #[inline]
    pub fn argmin_hashed(&mut self, hashes: impl Iterator<Item = u64>, ts_ms: u64) -> usize {
        let Self { n, estimate, capacities, live } = self;
        let (n, live) = (*n, live.as_deref());
        argmin(estimate, capacities.as_ref(), hashes.map(|h| reduce(n, live, h)), ts_ms)
    }

    /// The least-loaded live worker, as [`Self::argmin_hashed`] ranks them;
    /// ties break toward the lower index.
    #[inline]
    pub fn argmin_live(&mut self, ts_ms: u64) -> usize {
        let Self { n, estimate, capacities, live } = self;
        match live {
            None => argmin(estimate, capacities.as_ref(), 0..*n, ts_ms),
            Some(live) => argmin(estimate, capacities.as_ref(), live.iter().copied(), ts_ms),
        }
    }

    /// Account one message routed to worker `w` by this source.
    #[inline]
    pub fn record(&mut self, w: usize) {
        self.estimate.record(w);
    }
}

#[inline]
pub(crate) fn reduce(n: usize, live: Option<&[usize]>, hash: u64) -> usize {
    match live {
        None => (hash % n as u64) as usize,
        Some(live) => live[(hash % live.len() as u64) as usize],
    }
}

/// The greedy step, once: free of `self` so the entry points above can
/// borrow the live set for their candidate iterators while the estimate is
/// read mutably (probing estimates refresh on read).
#[inline]
fn argmin(
    estimate: &mut Estimate,
    capacities: Option<&Capacities>,
    mut candidates: impl Iterator<Item = usize>,
    ts_ms: u64,
) -> usize {
    let mut best = candidates.next().expect("argmin needs at least one candidate");
    let mut best_load = estimate.load(best, ts_ms);
    for c in candidates {
        let l = estimate.load(c, ts_ms);
        if prefers(capacities, l, c, best_load, best) {
            best = c;
            best_load = l;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::SharedLoads;

    #[test]
    fn ties_go_to_the_earlier_candidate() {
        let mut v = LoadView::new(4, Estimate::local(4));
        assert_eq!(argmin(&mut v.estimate, None, [2, 1, 3].into_iter(), 0), 2);
        v.record(2);
        assert_eq!(argmin(&mut v.estimate, None, [2, 1, 3, 1].into_iter(), 0), 1);
    }

    #[test]
    fn full_live_set_reduces_like_never_resized() {
        let plain = LoadView::new(7, Estimate::local(7));
        let mut full = plain.clone();
        full.set_live(&(0..7).collect::<Vec<_>>());
        for h in [0u64, 6, 7, 12345, u64::MAX] {
            assert_eq!(plain.reduce(h), full.reduce(h));
        }
        assert_eq!(plain.live_workers(), full.live_workers());
    }

    #[test]
    fn live_subset_confines_reduction_and_the_global_argmin() {
        let shared = SharedLoads::new(6);
        let mut v = LoadView::new(6, Estimate::global(shared.clone()));
        v.set_live(&[1, 4, 5]);
        assert_eq!(v.live_count(), 3);
        assert!((0..100u64).all(|h| [1, 4, 5].contains(&v.reduce(h))));
        // Worker 0 is idle but dead; among the live, 4 is the least loaded.
        shared.record(1);
        shared.record(5);
        assert_eq!(v.argmin_live(0), 4);
        assert_eq!(v.argmin_hashed([0u64, 2].into_iter(), 0), 1, "tie → earlier: live[0]");
    }
}
