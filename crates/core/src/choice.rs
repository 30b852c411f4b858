//! Adaptive candidate counts: the D-Choices and W-Choices schemes of the
//! journal follow-up ("When Two Choices Are not Enough: Balancing at Scale
//! in Distributed Stream Processing", Nasir et al., ICDE 2016).
//!
//! §IV of the source paper proves the two-choice limit: once the worker
//! count `W` exceeds `O(1/p1)`, the hottest key's two candidates saturate
//! and imbalance grows linearly in the stream length *no matter what*
//! two-choice scheme is used. The follow-up's answer is to give only the
//! few **head** keys more candidates:
//!
//! * A key is *head* when its estimated frequency `p̂` (from the per-source
//!   [`HeadTracker`]) reaches the threshold `θ = 2(1+ε)/W` — the largest
//!   frequency two workers can absorb while keeping each within `(1+ε)/W`
//!   of the stream, `ε` being the relative imbalance target.
//! * **Tail** keys route exactly like plain PKG: greedy-2 over the key's
//!   two hash candidates. When no key ever crosses `θ`, the scheme *is*
//!   PKG, byte for byte.
//! * **D-Choices** gives a head key of frequency `p̂` the smallest `d`
//!   satisfying the per-worker bound `p̂/d ≤ (1+ε)/W`, i.e.
//!   `d(p̂) = ⌈p̂·W/(1+ε)⌉` (clamped to `[2, W]`) — monotone non-decreasing
//!   in `p̂` and exactly 2 at `θ`, so classification is continuous.
//! * **W-Choices** gives head keys all `W` workers (`d = W`).
//!
//! Candidates are drawn from the key's *hash sequence*
//! `H_i(k) = murmur3(k, member_seed(seed, i)) mod W` — PKG's own, so the
//! first two members are PKG's candidates, candidate sets are prefix-nested
//! (raising `d` only ever *adds* workers) and reproducible across sources
//! and executors from the experiment seed alone.
//!
//! Nothing else differs from PKG, so both schemes are
//! [`PartialKeyGrouping`](crate::PartialKeyGrouping) under a
//! [`CandidatePolicy::Head`](crate::CandidatePolicy::Head) policy; this
//! module keeps the candidate-count rule ([`ChoiceConfig`]: `θ`, `d(p̂)`).
//!
//! [`HeadTracker`]: crate::HeadTracker

/// Default relative imbalance target `ε` (per-worker load within
/// `(1+ε)/W` of the stream). The sweeps of `fig_dchoices` gate the achieved
/// imbalance fraction well below this.
pub const DEFAULT_EPSILON: f64 = 0.1;

/// The candidate-count rule shared by both schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChoiceConfig {
    /// Relative imbalance target `ε ≥ 0`.
    pub epsilon: f64,
}

impl ChoiceConfig {
    /// A config with imbalance target `epsilon`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "epsilon must be finite and ≥ 0");
        Self { epsilon }
    }

    /// Head threshold `θ = 2(1+ε)/n`: the largest key frequency two workers
    /// can absorb within the target.
    pub fn theta(&self, n: usize) -> f64 {
        2.0 * (1.0 + self.epsilon) / n as f64
    }

    /// D-Choices candidate count for an estimated frequency `p`: the
    /// smallest `d` with `p/d ≤ (1+ε)/n`, clamped to `[2, n]`. Monotone
    /// non-decreasing in `p` and exactly 2 at `p = θ` (the relative
    /// tolerance below absorbs the float rounding of `θ·n/(1+ε)`, which
    /// otherwise lands a hair above 2 for some `(n, ε)` and would make
    /// head classification discontinuous at the threshold).
    pub fn d_for(&self, p: f64, n: usize) -> usize {
        let exact = p * n as f64 / (1.0 + self.epsilon);
        let d = (exact * (1.0 - 1e-12)).ceil() as usize;
        d.max(2).min(n.max(1))
    }
}

impl Default for ChoiceConfig {
    fn default() -> Self {
        Self::new(DEFAULT_EPSILON)
    }
}

/// D-Choices / W-Choices are [`crate::PartialKeyGrouping`] under a
/// [`crate::CandidatePolicy::Head`] policy; the name survives for
/// `AdaptiveChoices::d_choices(..)` / `::w_choices(..)` call sites.
pub type AdaptiveChoices = crate::pkg::PartialKeyGrouping;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimate;
    use crate::pkg::PartialKeyGrouping;
    use pkg_metrics::imbalance;

    fn skewed_loads(p: &mut PartialKeyGrouping, n: usize, m: u64, hot_share: f64) -> Vec<u64> {
        let mut loads = vec![0u64; n];
        let hot_every = (1.0 / hot_share) as u64;
        for i in 0..m {
            let key = if i % hot_every == 0 { 0 } else { i + 1 };
            loads[p.route(key, i)] += 1;
        }
        loads
    }

    #[test]
    fn d_for_is_monotone_and_two_at_theta() {
        let cfg = ChoiceConfig::new(0.1);
        let n = 100;
        assert_eq!(cfg.d_for(cfg.theta(n), n), 2);
        let mut prev = 0;
        for i in 0..=100 {
            let d = cfg.d_for(i as f64 / 100.0, n);
            assert!(d >= prev, "d_for not monotone at p={}", i as f64 / 100.0);
            assert!((2..=n).contains(&d));
            prev = d;
        }
        assert_eq!(cfg.d_for(1.0, n), n.min((100.0f64 / 1.1).ceil() as usize));
    }

    #[test]
    fn tail_routing_is_byte_identical_to_pkg() {
        let n = 16;
        let seed = 9;
        let mut dc = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, seed);
        let mut wc = AdaptiveChoices::w_choices(n, Estimate::local(n), 0.1, seed);
        let mut pkg = PartialKeyGrouping::new(n, 2, Estimate::local(n), seed);
        // Cycling uniform keys: none can reach θ = 2.2/16, so all three
        // partitioners make the same decision on every single message.
        for t in 0..20_000u64 {
            let key = t % (4 * n as u64);
            let expect = pkg.route(key, t);
            assert_eq!(dc.route(key, t), expect, "D-Choices diverged at t={t}");
            assert_eq!(wc.route(key, t), expect, "W-Choices diverged at t={t}");
        }
    }

    #[test]
    fn head_key_spreads_past_two_candidates() {
        let n = 50;
        let mut dc = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100_000u64 {
            let key = if i % 5 == 0 { 7 } else { i + 1_000 };
            let w = dc.route(key, i);
            if key == 7 {
                seen.insert(w);
            }
        }
        // p̂ ≈ 0.2 → d ≈ ⌈0.2·50/1.1⌉ = 10 candidates (minus collisions).
        assert!(seen.len() > 2, "head key stuck on {} workers", seen.len());
        assert!(seen.len() <= 10, "head key on {} workers, d bound is 10", seen.len());
    }

    #[test]
    fn beats_plain_pkg_past_the_two_choice_limit() {
        let n = 50;
        let m = 200_000;
        let mut pkg = PartialKeyGrouping::new(n, 2, Estimate::local(n), 7);
        let mut dc = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 7);
        let mut wc = AdaptiveChoices::w_choices(n, Estimate::local(n), 0.1, 7);
        let i_pkg = imbalance(&skewed_loads(&mut pkg, n, m, 0.2));
        let i_dc = imbalance(&skewed_loads(&mut dc, n, m, 0.2));
        let i_wc = imbalance(&skewed_loads(&mut wc, n, m, 0.2));
        assert!(i_dc < i_pkg / 4.0, "D-Choices {i_dc} not ≪ PKG {i_pkg}");
        assert!(i_wc < i_pkg / 4.0, "W-Choices {i_wc} not ≪ PKG {i_pkg}");
    }

    #[test]
    fn d_choices_replication_below_w_choices() {
        let n = 40;
        let m = 100_000;
        let run = |mut p: AdaptiveChoices| {
            let mut workers_of_hot = std::collections::BTreeSet::new();
            for i in 0..m {
                let key = if i % 3 == 0 { 0 } else { i + 1 };
                let w = p.route(key, i);
                if key == 0 {
                    workers_of_hot.insert(w);
                }
            }
            workers_of_hot.len()
        };
        let dc = run(AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 5));
        let wc = run(AdaptiveChoices::w_choices(n, Estimate::local(n), 0.1, 5));
        assert!(dc < wc, "D-Choices hot-key spread {dc} not below W-Choices {wc}");
        assert_eq!(wc, n, "a 33% key under W-Choices reaches every worker");
    }

    #[test]
    fn candidates_predict_routing() {
        let n = 30;
        let mut p = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 11);
        for i in 0..50_000u64 {
            let key = if i % 4 == 0 { 1 } else { i };
            let cands = p.candidates(key);
            let w = p.route(key, i);
            assert!(cands.contains(&w), "route {w} escaped candidates {cands:?} at t={i}");
        }
    }

    #[test]
    fn candidate_prefixes_are_nested() {
        let p = AdaptiveChoices::d_choices(20, Estimate::local(20), 0.1, 2);
        for key in 0..50u64 {
            let full: Vec<usize> = (0..20).map(|i| p.choice(i, key)).collect();
            for d in 2..20 {
                assert_eq!(&full[..d], &(0..d).map(|i| p.choice(i, key)).collect::<Vec<_>>()[..]);
            }
        }
    }

    #[test]
    fn full_membership_is_byte_identical() {
        let n = 20;
        let mut a = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 13);
        let mut b = AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 13);
        b.apply_membership(&(0..n).collect::<Vec<_>>());
        for i in 0..30_000u64 {
            let key = if i % 4 == 0 { 1 } else { i };
            assert_eq!(a.route(key, i), b.route(key, i), "diverged at t={i}");
        }
    }

    #[test]
    fn membership_confines_head_and_tail_to_live_workers() {
        let n = 30;
        for p in [
            AdaptiveChoices::d_choices(n, Estimate::local(n), 0.1, 17),
            AdaptiveChoices::w_choices(n, Estimate::local(n), 0.1, 17),
        ] {
            let mut p = p;
            let live: Vec<usize> = (0..n).step_by(3).collect();
            p.apply_membership(&live);
            // θ is re-derived over the live count.
            assert!((p.theta().expect("head policy") - 2.2 / live.len() as f64).abs() < 1e-12);
            for i in 0..50_000u64 {
                let key = if i % 4 == 0 { 1 } else { i };
                let cands = p.candidates(key);
                let w = p.route(key, i);
                assert!(live.contains(&w), "routed to dead worker {w}");
                assert!(cands.contains(&w));
                assert!(cands.iter().all(|c| live.contains(c)));
            }
        }
    }

    #[test]
    fn single_worker_degenerates() {
        let mut p = AdaptiveChoices::w_choices(1, Estimate::local(1), 0.1, 0);
        for i in 0..100u64 {
            assert_eq!(p.route(i % 3, i), 0);
        }
    }

    #[test]
    #[should_panic(expected = "estimate must cover")]
    fn mismatched_estimate_panics() {
        let _ = AdaptiveChoices::d_choices(4, Estimate::local(3), 0.1, 0);
    }
}
