//! PARTIAL KEY GROUPING — the paper's contribution (§III).
//!
//! PKG combines the power of two choices with two techniques that make it
//! practical in a distributed streaming setting:
//!
//! * **Key splitting** (§III-A): rather than fixing each key to one of its
//!   two hash candidates (which would require a routing table and
//!   coordination among sources), *every* message independently goes to the
//!   currently less-loaded candidate. A key's state is split over at most
//!   two workers — hence "partial" key grouping.
//! * **Local load estimation** (§III-B): the load consulted is whatever the
//!   [`Estimate`] provides — each source's own traffic by default.
//!
//! Formally this is the *Greedy-d* process of §IV: on the `t`-th message
//! with key `k`, route to `argmin_{i ∈ {H1(k)..Hd(k)}} L_i(t)`. With `d = 1`
//! it degenerates to key grouping, with `d ≫ n ln n` to shuffle grouping;
//! the paper proves `I(m) = O(m/n)` for `d ≥ 2` versus
//! `O(m/n · ln n / ln ln n)` for `d = 1` (Theorem 4.1).
//!
//! The follow-up schemes keep this process and change only **how many**
//! candidates a key gets — see [`CandidatePolicy`] and the [`crate::choice`]
//! module docs — so they are configurations of the same struct.

use pkg_hash::seeded::MAX_CHOICES;
use pkg_hash::{member_seed, StreamKey};

use crate::choice::ChoiceConfig;
use crate::estimator::Estimate;
use crate::head_tracker::{is_head_at, HeadTracker};
use crate::load_view::LoadView;

/// How many members of its hash sequence a key may be routed among.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidatePolicy {
    /// Every key gets the first `d` members (`1 ≤ d ≤ 16`): the paper's
    /// Greedy-`d`, PKG at `d = 2`.
    Fixed(usize),
    /// Tail keys get two; a key whose estimated frequency reaches
    /// `θ = 2(1+ε)/W` gets `cap` (D-Choices / W-Choices).
    Head {
        /// Relative imbalance target `ε`.
        epsilon: f64,
        /// Candidate count of a head key.
        cap: HeadCap,
    },
}

/// Candidate count of a head key under [`CandidatePolicy::Head`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadCap {
    /// `d(p̂) = ⌈p̂·W/(1+ε)⌉` (D-Choices).
    PerFrequency,
    /// Every live worker (W-Choices).
    All,
}

/// Head-key classification state of a [`CandidatePolicy::Head`] partitioner.
#[derive(Debug, Clone)]
struct Head {
    config: ChoiceConfig,
    cap: HeadCap,
    /// Cached `config.theta(live count)`.
    theta: f64,
    tracker: HeadTracker,
}

/// The greedy partitioner with key splitting: PKG under
/// [`CandidatePolicy::Fixed`]`(2)`, D-Choices and W-Choices under
/// [`CandidatePolicy::Head`].
#[derive(Debug, Clone)]
pub struct PartialKeyGrouping {
    view: LoadView,
    /// Member seeds of the key hash sequence `H_i(k)`: `d` of them under
    /// `Fixed(d)`, one per worker under `Head` — the same derivation either
    /// way, so a head policy's first two candidates are PKG's.
    seeds: Vec<u64>,
    /// `None` under a fixed policy: the per-tuple path of plain PKG carries
    /// no head tracking.
    head: Option<Head>,
}

impl PartialKeyGrouping {
    /// PKG over `n` workers with `d` choices (`1 ≤ d ≤ 16`; the paper
    /// recommends 2) and the given load-estimation strategy.
    pub fn new(n: usize, d: usize, estimate: Estimate, seed: u64) -> Self {
        Self::over(LoadView::new(n, estimate), CandidatePolicy::Fixed(d), seed)
    }

    /// D-Choices with the given imbalance target.
    pub fn d_choices(n: usize, estimate: Estimate, epsilon: f64, seed: u64) -> Self {
        let policy = CandidatePolicy::Head { epsilon, cap: HeadCap::PerFrequency };
        Self::over(LoadView::new(n, estimate), policy, seed)
    }

    /// W-Choices with the given imbalance target.
    pub fn w_choices(n: usize, estimate: Estimate, epsilon: f64, seed: u64) -> Self {
        let policy = CandidatePolicy::Head { epsilon, cap: HeadCap::All };
        Self::over(LoadView::new(n, estimate), policy, seed)
    }

    /// The general constructor: route over `view` (which carries the
    /// estimate, capacity weights and live set) under `policy`, with hash
    /// functions derived from `seed`.
    pub fn over(view: LoadView, policy: CandidatePolicy, seed: u64) -> Self {
        let n = view.n();
        let (members, head) = match policy {
            CandidatePolicy::Fixed(d) => {
                assert!(d >= 1, "a hash family needs at least one member");
                assert!(d <= MAX_CHOICES, "at most {MAX_CHOICES} choices supported");
                (d, None)
            }
            CandidatePolicy::Head { epsilon, cap } => {
                let config = ChoiceConfig::new(epsilon);
                let theta = config.theta(n);
                let tracker = HeadTracker::for_threshold(theta.min(1.0));
                (n, Some(Head { config, cap, theta, tracker }))
            }
        };
        let seeds = (0..members as u64).map(|i| member_seed(seed, i)).collect();
        Self { view, seeds, head }
    }

    /// The head threshold `θ` in effect (`None` under a fixed policy).
    pub fn theta(&self) -> Option<f64> {
        self.head.as_ref().map(|h| h.theta)
    }

    /// How many members of its hash sequence the *next* message of `key` is
    /// routed among; `None`: every live worker.
    #[inline]
    fn next_count(&self, key: u64) -> Option<usize> {
        let Some(head) = &self.head else { return Some(self.seeds.len()) };
        let w = self.view.live_count();
        members(head.next_d(key, w), w)
    }

    /// Member `i` of `key`'s hash sequence, reduced onto the live set.
    #[inline]
    pub(crate) fn choice(&self, i: usize, key: u64) -> usize {
        self.view.reduce(key.hash_seeded(self.seeds[i]))
    }
}

impl Head {
    /// How a message of a key counted `count` times in `total` observations
    /// routes over `w` live workers: `None` for a tail key (the plain
    /// two-choice path), `Some(d)` for a head key (`d ≥ w` meaning all live
    /// workers). The one classification: routing feeds it what `observe`
    /// returned, prediction what the next `observe` will return.
    #[inline]
    fn classify(&self, count: u64, total: u64, w: usize) -> Option<usize> {
        if !is_head_at(count, total, self.theta) {
            return None;
        }
        Some(match self.cap {
            HeadCap::All => w,
            HeadCap::PerFrequency => self.config.d_for(count as f64 / total as f64, w),
        })
    }

    /// [`Self::classify`] for the *next* message of `key`.
    fn next_d(&self, key: u64, w: usize) -> Option<usize> {
        self.classify(self.tracker.next_count(key), self.tracker.total() + 1, w)
    }
}

/// Hash-sequence members a message classified `d` (see [`Head::classify`])
/// is routed among over `w` live workers; `None`: every live worker.
#[inline]
fn members(d: Option<usize>, w: usize) -> Option<usize> {
    match d {
        None => Some(2.min(w)),
        Some(d) if d >= w => None,
        Some(d) => Some(d),
    }
}

impl PartialKeyGrouping {
    /// Route a message of `key` at stream time `ts_ms` to the least-loaded
    /// of its candidates and account it.
    // Not `#[inline]`: a downstream crate's own copy of this body measured
    // ~1.5× slower than a direct call to this crate's (the hash and the
    // estimate read stop being inlined into it).
    pub fn route(&mut self, key: u64, ts_ms: u64) -> usize {
        // Ties break toward the earlier member, so with no head keys a head
        // policy is PKG, byte for byte. A head policy probes its tracker
        // once: `observe`, then classify from what it returned.
        let d = match &mut self.head {
            None => Some(self.seeds.len()),
            Some(head) => {
                let count = head.tracker.observe(key);
                let w = self.view.live_count();
                members(head.classify(count, head.tracker.total(), w), w)
            }
        };
        let w = match d {
            Some(d) => {
                let hashes = self.seeds[..d].iter().map(|&s| key.hash_seeded(s));
                self.view.argmin_hashed(hashes, ts_ms)
            }
            None => self.view.argmin_live(ts_ms),
        };
        self.view.record(w);
        w
    }

    pub fn n(&self) -> usize {
        self.view.n()
    }

    pub fn name(&self) -> String {
        match &self.head {
            None => format!("PartialKeyGrouping(d={})", self.seeds.len()),
            Some(Head { config, cap: HeadCap::PerFrequency, .. }) => {
                format!("D-Choices(ε={})", config.epsilon)
            }
            Some(Head { config, cap: HeadCap::All, .. }) => {
                format!("W-Choices(ε={})", config.epsilon)
            }
        }
    }

    /// The workers the key's *next* message may go to: the first `d`
    /// members of its hash sequence (all live workers for a W-Choices
    /// head). Computed with the same prediction the router uses, so
    /// `candidates(k)` immediately followed by `route(k, _)` always
    /// contains the routed worker.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        match self.next_count(key) {
            Some(d) => (0..d).map(|i| self.choice(i, key)).collect(),
            None => self.view.live_workers(),
        }
    }

    /// Route over the live subset `live` of `0..n`. Under a head policy
    /// this also re-derives the head threshold
    /// `θ = 2(1+ε)/|live|`. The head tracker is kept: it was sized for
    /// `θ_n ≤ θ_live` (live sets only shrink below `n`), so it already
    /// tracks every key that can be head under the new membership.
    pub fn apply_membership(&mut self, live: &[usize]) {
        self.view.set_live(live);
        if let Some(head) = &mut self.head {
            head.theta = head.config.theta(live.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkg(n: usize, d: usize, seed: u64) -> PartialKeyGrouping {
        PartialKeyGrouping::new(n, d, Estimate::local(n), seed)
    }

    #[test]
    fn routes_only_to_candidates() {
        let mut p = pkg(10, 2, 1);
        for key in 0..200u64 {
            let cands = p.candidates(key);
            for t in 0..20 {
                let w = p.route(key, t);
                assert!(cands.contains(&w), "key {key} escaped its candidates");
            }
        }
    }

    #[test]
    fn key_splitting_uses_both_candidates() {
        // A single hot key must alternate between its two candidates —
        // that is the whole point of key splitting.
        let mut p = pkg(10, 2, 2);
        let key = 7u64;
        let cands = p.candidates(key);
        if cands[0] == cands[1] {
            return; // hash collision: nothing to alternate between
        }
        let mut hits = [0u64; 10];
        for t in 0..1000 {
            hits[p.route(key, t)] += 1;
        }
        assert_eq!(hits[cands[0]] + hits[cands[1]], 1000);
        assert!((hits[cands[0]] as i64 - hits[cands[1]] as i64).abs() <= 1);
    }

    #[test]
    fn d1_equals_key_grouping() {
        use crate::key_grouping::KeyGrouping;
        let mut p = pkg(16, 1, 5);
        let mut kg = KeyGrouping::new(16, 5);
        for key in 0..500u64 {
            assert_eq!(p.route(key, 0), kg.route(key, 0));
        }
    }

    #[test]
    fn balances_skewed_stream_far_better_than_hashing() {
        use crate::key_grouping::KeyGrouping;
        use pkg_metrics::imbalance;

        let n = 10;
        let m = 100_000u64;
        // Zipf-ish synthetic skew: key = i mod 1+i%97 gives heavy repetition
        // of small keys; simpler: 30% of messages carry key 0.
        let mut p = pkg(n, 2, 3);
        let mut kg = KeyGrouping::new(n, 3);
        let mut loads_pkg = vec![0u64; n];
        let mut loads_kg = vec![0u64; n];
        for i in 0..m {
            let key = if i % 10 < 3 { 0 } else { i };
            loads_pkg[p.route(key, i)] += 1;
            loads_kg[kg.route(key, i)] += 1;
        }
        let i_pkg = imbalance(&loads_pkg);
        let i_kg = imbalance(&loads_kg);
        // KG piles the hot key (30% of m) on one worker: I ≈ 0.3m − m/n.
        // PKG splits it over two: I ≈ max(0.15m, m/n) − m/n, at least 3x less.
        assert!(i_pkg < i_kg / 3.0, "PKG imbalance {i_pkg} not ≪ KG imbalance {i_kg}");
    }

    #[test]
    fn more_choices_never_hurt_balance_on_uniform_keys() {
        use pkg_metrics::imbalance;
        let n = 50;
        let m = 200_000u64;
        let mut frac_by_d = Vec::new();
        for d in [1usize, 2, 4] {
            let mut p = pkg(n, d, 11);
            let mut loads = vec![0u64; n];
            for i in 0..m {
                loads[p.route(i % 5_000, i)] += 1; // 5k uniform keys
            }
            frac_by_d.push(imbalance(&loads));
        }
        // d = 2 is a dramatic improvement over d = 1; d = 4 is at most a
        // constant-factor refinement (§III: "more than two choices only
        // brings constant factor improvements").
        assert!(frac_by_d[1] < frac_by_d[0] / 2.0, "{frac_by_d:?}");
        assert!(frac_by_d[2] <= frac_by_d[1] * 1.5 + 2.0, "{frac_by_d:?}");
    }

    #[test]
    fn global_estimate_coordinates_multiple_sources() {
        use crate::estimator::SharedLoads;
        use pkg_metrics::imbalance;

        let n = 8;
        let shared = SharedLoads::new(n);
        let mut sources: Vec<PartialKeyGrouping> = (0..4)
            .map(|_| PartialKeyGrouping::new(n, 2, Estimate::global(shared.clone()), 9))
            .collect();
        let mut loads = vec![0u64; n];
        for i in 0..40_000u64 {
            let s = (i % 4) as usize;
            let w = sources[s].route(i % 100, i);
            shared.record(w);
            loads[w] += 1;
        }
        assert!(imbalance(&loads) < 40_000.0 / n as f64 * 0.1);
    }

    #[test]
    #[should_panic(expected = "estimate must cover")]
    fn mismatched_estimate_size_panics() {
        let _ = PartialKeyGrouping::new(4, 2, Estimate::local(3), 0);
    }

    #[test]
    fn full_membership_is_byte_identical() {
        let mut a = pkg(12, 2, 8);
        let mut b = pkg(12, 2, 8);
        b.apply_membership(&(0..12).collect::<Vec<_>>());
        for t in 0..5_000u64 {
            let key = t % 200;
            assert_eq!(a.route(key, t), b.route(key, t), "diverged at t={t}");
            assert_eq!(a.candidates(key), b.candidates(key));
        }
    }

    #[test]
    fn subset_membership_routes_only_to_live_workers() {
        let mut p = pkg(10, 2, 4);
        let live = [0usize, 3, 5, 8];
        p.apply_membership(&live);
        for t in 0..2_000u64 {
            let key = t % 97;
            let cands = p.candidates(key);
            let w = p.route(key, t);
            assert!(live.contains(&w), "routed to dead worker {w}");
            assert!(cands.contains(&w));
            assert!(cands.iter().all(|c| live.contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "sorted and duplicate-free")]
    fn unsorted_membership_panics() {
        let mut p = pkg(4, 2, 0);
        p.apply_membership(&[2, 1]);
    }

    #[test]
    fn weighted_routing_splits_hot_key_by_capacity() {
        use pkg_metrics::Capacities;
        let n = 10;
        let probe = pkg(n, 2, 6);
        let key = (0..100u64)
            .find(|&k| {
                let c = probe.candidates(k);
                c[0] != c[1]
            })
            .expect("some key has distinct candidates");
        let cands = probe.candidates(key);
        // The first candidate is a 4× worker, everything else 1×.
        let mut weights = vec![1.0; n];
        weights[cands[0]] = 4.0;
        let view = LoadView::new(n, Estimate::local(n))
            .with_capacities(Capacities::heterogeneous(&weights));
        let mut p = PartialKeyGrouping::over(view, CandidatePolicy::Fixed(2), 6);
        let mut hits = vec![0u64; n];
        for t in 0..10_000u64 {
            hits[p.route(key, t)] += 1;
        }
        assert_eq!(hits[cands[0]] + hits[cands[1]], 10_000);
        // Greedy on normalized load keeps L_fast/4 ≈ L_slow/1, i.e. the 4×
        // candidate absorbs ~4/5 of the hot key's messages.
        let share = hits[cands[0]] as f64 / 10_000.0;
        assert!((share - 0.8).abs() < 0.02, "fast-candidate share = {share}");
    }
}
