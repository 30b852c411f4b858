//! Per-worker capacity weights for heterogeneous clusters.
//!
//! The paper's cloud-deployment caveat (and the follow-up "Load Balancing
//! for Skewed Streams on Heterogeneous Clusters", Nasir et al., 2017) is
//! that PKG assumes identical workers. On mixed hardware the greedy choice
//! must compare *capacity-normalized* loads `L_i / c_i` — picking the raw
//! argmin funnels work onto the slowest machine — and the imbalance must be
//! measured relative to what each worker can absorb.
//!
//! [`Capacities`] is the shared representation of those weights. Two design
//! rules keep the homogeneous case exactly the homogeneous case:
//!
//! * **Uniform collapse**: [`Capacities::heterogeneous`] returns `None`
//!   when every weight is equal, so callers keep the capacity-free integer
//!   code path and routing stays byte-identical to the unweighted schemes
//!   (the degeneration `tests/property_tests.rs` pins).
//! * **Cross-multiplied comparisons**: [`Capacities::less`] compares
//!   `L_a / c_a < L_b / c_b` as `L_a · c_b < L_b · c_a` — no division, and
//!   exact whenever the products are f64-representable.
//!
//! Weights are normalized to mean 1 at construction, so
//! `max_i(L_i / c_i) − m/n` (the weighted imbalance) reduces to the paper's
//! `max_i L_i − m/n` when the cluster is homogeneous, whatever common
//! capacity value the caller passed in.

use std::sync::Arc;

/// Relative per-worker capacity weights, normalized to mean 1.
///
/// Cheap to clone (`Arc`-backed) so sources, simulators and report metrics
/// can share one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacities {
    weights: Arc<[f64]>,
}

impl Capacities {
    /// Capacity weights for a heterogeneous cluster, normalized to mean 1.
    ///
    /// Returns `None` when all weights are equal: uniform capacities carry
    /// no information and callers must keep the exact capacity-free code
    /// path (byte-identical routing, identical metrics).
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is non-finite or ≤ 0.
    pub fn heterogeneous(weights: &[f64]) -> Option<Self> {
        assert!(!weights.is_empty(), "need at least one worker capacity");
        for &w in weights {
            assert!(w.is_finite() && w > 0.0, "capacities must be finite and positive, got {w}");
        }
        if weights.iter().all(|&w| w == weights[0]) {
            return None;
        }
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        Some(Self { weights: weights.iter().map(|&w| w / mean).collect() })
    }

    /// Number of workers covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when no workers are covered (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Normalized weight of worker `w` (mean over workers is 1).
    #[inline]
    pub fn weight(&self, w: usize) -> f64 {
        self.weights[w]
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `true` iff load `la` on worker `a` is *strictly* smaller than `lb`
    /// on worker `b` after capacity normalization. Cross-multiplied, so
    /// ties (and the uniform special case) behave exactly like the integer
    /// comparison `la < lb`.
    #[inline]
    pub fn less(&self, la: u64, a: usize, lb: u64, b: usize) -> bool {
        (la as f64) * self.weights[b] < (lb as f64) * self.weights[a]
    }

    /// Normalized load `load / c_w` of worker `w`.
    #[inline]
    pub fn normalized(&self, load: u64, w: usize) -> f64 {
        load as f64 / self.weights[w]
    }

    /// The capacity weights restricted to a membership subset,
    /// renormalized to mean 1 over the survivors (same collapse rule as
    /// [`Self::heterogeneous`]). Used for epoch-scoped weighted imbalance.
    pub fn subset(&self, live: &[usize]) -> Option<Self> {
        assert!(!live.is_empty(), "need at least one live worker");
        let w: Vec<f64> = live.iter().map(|&i| self.weights[i]).collect();
        Self::heterogeneous(&w)
    }
}

/// The shared greedy-argmin step of every capacity-aware scheme: `true`
/// iff candidate `c` with load `l` *strictly* beats the incumbent `best`
/// with load `best_load` — by capacity-normalized load when weights are
/// attached, by the exact integer comparison otherwise. Keeping this in
/// one place keeps every scheme's tie-breaking (and therefore the
/// uniform-capacity byte-identity the proptests pin) in sync.
#[inline]
pub fn prefers(caps: Option<&Capacities>, l: u64, c: usize, best_load: u64, best: usize) -> bool {
    match caps {
        None => l < best_load,
        Some(w) => w.less(l, c, best_load, best),
    }
}

/// Weighted imbalance of a raw load slice:
/// `I_c = max_i(L_i / c_i) − m/n` with weights normalized to mean 1
/// (`m/n` is the ideal normalized load — every worker at its fair share
/// `m·c_i/C` has normalized load exactly `m/n`). `caps: None` is the
/// homogeneous cluster and reduces to [`crate::imbalance::imbalance`].
pub fn weighted_imbalance(loads: &[u64], caps: Option<&Capacities>) -> f64 {
    let Some(caps) = caps else {
        return crate::imbalance::imbalance(loads);
    };
    assert_eq!(loads.len(), caps.len(), "one capacity per worker");
    if loads.is_empty() {
        return 0.0;
    }
    let max = loads
        .iter()
        .enumerate()
        .map(|(w, &l)| caps.normalized(l, w))
        .fold(f64::NEG_INFINITY, f64::max);
    let avg = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    max - avg
}

/// [`weighted_imbalance`] divided by the message count `m`; 0 when `m = 0`.
pub fn weighted_imbalance_fraction(loads: &[u64], caps: Option<&Capacities>, m: u64) -> f64 {
    if m == 0 {
        0.0
    } else {
        weighted_imbalance(loads, caps) / m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_collapse_to_none() {
        assert!(Capacities::heterogeneous(&[1.0, 1.0, 1.0]).is_none());
        assert!(Capacities::heterogeneous(&[4.0, 4.0]).is_none());
        assert!(Capacities::heterogeneous(&[0.1]).is_none());
    }

    #[test]
    fn weights_normalize_to_mean_one() {
        let c = Capacities::heterogeneous(&[4.0, 1.0, 1.0]).expect("heterogeneous");
        let mean = c.weights().iter().sum::<f64>() / c.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        // Ratios preserved.
        assert!((c.weight(0) / c.weight(1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_all_weights_changes_nothing() {
        let a = Capacities::heterogeneous(&[4.0, 1.0]).expect("het");
        let b = Capacities::heterogeneous(&[8.0, 2.0]).expect("het");
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn less_compares_normalized_loads() {
        let c = Capacities::heterogeneous(&[2.0, 1.0]).expect("het");
        // 10/2 = 5 < 6/1: worker 0 is effectively less loaded.
        assert!(c.less(10, 0, 6, 1));
        // Exactly equal normalized loads are not "less" (ties keep the
        // incumbent, like the integer path).
        assert!(!c.less(12, 0, 6, 1));
        assert!(!c.less(6, 1, 12, 0));
    }

    #[test]
    fn weighted_imbalance_matches_hand_computation() {
        // Weights 2:1:1 normalize to [1.5, 0.75, 0.75]; loads [30, 10, 8].
        let caps = Capacities::heterogeneous(&[2.0, 1.0, 1.0]).expect("het");
        let loads = [30u64, 10, 8];
        let max = (30.0f64 / 1.5).max(10.0 / 0.75).max(8.0 / 0.75);
        let expect = max - 48.0 / 3.0;
        assert!((weighted_imbalance(&loads, Some(&caps)) - expect).abs() < 1e-9);
    }

    #[test]
    fn none_caps_reduce_to_plain_imbalance() {
        let loads = [10u64, 0, 2];
        assert_eq!(weighted_imbalance(&loads, None), crate::imbalance::imbalance(&loads));
        assert_eq!(weighted_imbalance_fraction(&loads, None, 12), 0.5);
        assert_eq!(weighted_imbalance_fraction(&loads, None, 0), 0.0);
    }

    #[test]
    fn fair_share_loads_have_zero_weighted_imbalance() {
        // Loads proportional to capacity: every normalized load equals m/n.
        let caps = Capacities::heterogeneous(&[4.0, 1.0, 1.0, 2.0]).expect("het");
        let loads = [400u64, 100, 100, 200];
        assert!(weighted_imbalance(&loads, Some(&caps)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_weight_panics() {
        let _ = Capacities::heterogeneous(&[1.0, 0.0]);
    }

    #[test]
    fn subset_renormalizes_over_survivors() {
        let caps = Capacities::heterogeneous(&[4.0, 1.0, 1.0]).expect("het");
        let sub = caps.subset(&[0, 1]).expect("still heterogeneous");
        assert_eq!(sub.len(), 2);
        assert!((sub.weight(0) / sub.weight(1) - 4.0).abs() < 1e-12);
        // A subset of equal-speed workers is uniform.
        assert!(caps.subset(&[1, 2]).is_none());
    }
}
