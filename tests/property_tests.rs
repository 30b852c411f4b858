//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;

use partial_key_grouping::agg::{BhHistogram, SpaceSaving};
use partial_key_grouping::prelude::*;
use pkg_elastic::{Change, MembershipPlan};
use pkg_hash::murmur3::{murmur3_128, murmur3_64_u64};
use pkg_hash::HashFamily;
use pkg_metrics::{
    imbalance, peak_ewma_step, worst_case_imbalance, CapacityEstimator, LoadMetricKind,
    LoadObservation, LoadVector,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn murmur_is_deterministic_and_seed_sensitive(data: Vec<u8>, seed in 0u64..1000) {
        prop_assert_eq!(murmur3_128(&data, seed), murmur3_128(&data, seed));
        if !data.is_empty() {
            // Different seeds virtually never collide on the same input.
            prop_assert_ne!(murmur3_128(&data, seed), murmur3_128(&data, seed ^ 0xdead_beef));
        }
    }

    #[test]
    fn murmur_u64_matches_bytes(v: u64, seed: u64) {
        prop_assert_eq!(murmur3_64_u64(v, seed), murmur3_128(&v.to_le_bytes(), seed).0);
    }

    #[test]
    fn hash_family_choices_in_range(key: u64, d in 1usize..=8, n in 1usize..200, seed: u64) {
        let fam = HashFamily::new(d, seed);
        let mut buf = [0usize; 8];
        let choices = fam.choices_into(&key, n, &mut buf);
        prop_assert_eq!(choices.len(), d);
        prop_assert!(choices.iter().all(|&c| c < n));
    }

    #[test]
    fn every_partitioner_routes_in_range(
        keys in prop::collection::vec(0u64..1000, 1..300),
        n in 1usize..64,
        seed: u64,
    ) {
        let shared = pkg_core::SharedLoads::new(n);
        for scheme in [
            SchemeSpec::KeyGrouping,
            SchemeSpec::ShuffleGrouping,
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::StaticPotc { estimate: EstimateKind::Local },
            SchemeSpec::OnGreedy { estimate: EstimateKind::Local },
        ] {
            let mut p = scheme.build(n, seed, 0, &shared, None);
            for (t, &k) in keys.iter().enumerate() {
                let w = p.route(k, t as u64);
                prop_assert!(w < n, "{} routed {} to {}", scheme.label(), k, w);
            }
        }
    }

    #[test]
    fn pkg_never_leaves_candidates(
        keys in prop::collection::vec(0u64..100, 1..500),
        n in 2usize..32,
        d in 1usize..=4,
        seed: u64,
    ) {
        let mut pkg = PartialKeyGrouping::new(n, d, Estimate::local(n), seed);
        for (t, &k) in keys.iter().enumerate() {
            let w = pkg.route(k, t as u64);
            prop_assert!(pkg.candidates(k).contains(&w));
        }
    }

    #[test]
    fn key_grouping_is_a_function_of_the_key(
        keys in prop::collection::vec(any::<u64>(), 1..100),
        n in 1usize..50,
        seed: u64,
    ) {
        let mut a = KeyGrouping::new(n, seed);
        let mut b = KeyGrouping::new(n, seed);
        for &k in &keys {
            prop_assert_eq!(a.route(k, 0), b.route(k, 1_000_000));
        }
    }

    #[test]
    fn imbalance_is_nonnegative_and_bounded(loads in prop::collection::vec(0u64..10_000, 1..64)) {
        let i = imbalance(&loads);
        let m: u64 = loads.iter().sum();
        prop_assert!(i >= 0.0);
        prop_assert!(i <= worst_case_imbalance(m, loads.len()) + 1e-9);
    }

    #[test]
    fn load_vector_matches_free_function(
        events in prop::collection::vec((0usize..8, 1u64..50), 0..200)
    ) {
        let mut lv = LoadVector::new(8);
        let mut raw = vec![0u64; 8];
        for &(w, c) in &events {
            lv.record(w, c);
            raw[w] += c;
        }
        prop_assert_eq!(lv.loads(), raw.as_slice());
        prop_assert!((lv.imbalance() - imbalance(&raw)).abs() < 1e-9);
        prop_assert_eq!(lv.max(), raw.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn spacesaving_bounds_always_bracket_truth(
        stream in prop::collection::vec((0u64..50, 1u64..5), 1..800),
        k in 1usize..20,
    ) {
        // Weighted offers: each walks the bucket list past any counts
        // between its key's old and new count.
        let mut ss = SpaceSaving::new(k);
        let mut truth = std::collections::HashMap::new();
        for &(key, weight) in &stream {
            ss.offer(key, weight);
            ss.check_invariants();
            *truth.entry(key).or_insert(0u64) += weight;
        }
        let m: u64 = stream.iter().map(|&(_, weight)| weight).sum();
        prop_assert_eq!(ss.total(), m);
        // min_count <= m/k (the SpaceSaving guarantee).
        prop_assert!(ss.min_count() <= m / k as u64 + 1);
        for c in ss.counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= f);
            prop_assert!(c.count - c.error <= f);
        }
    }

    #[test]
    fn spacesaving_merge_brackets_truth(
        stream in prop::collection::vec((0u64..30, 0usize..2), 1..600),
        k in 2usize..16,
    ) {
        let mut parts = [SpaceSaving::new(k), SpaceSaving::new(k)];
        let mut truth = std::collections::HashMap::new();
        for &(key, side) in &stream {
            parts[side].offer(key, 1);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        let merged = parts[0].merge(&parts[1]);
        prop_assert_eq!(merged.total(), stream.len() as u64);
        for c in merged.counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= f, "over-estimate violated");
            prop_assert!(c.count.saturating_sub(c.error) <= f, "lower bound violated");
        }
    }

    #[test]
    fn bh_histogram_conserves_mass_and_is_monotone(
        points in prop::collection::vec(-1000.0f64..1000.0, 1..400),
        b in 2usize..32,
    ) {
        let mut h = BhHistogram::new(b);
        for &x in &points {
            h.update(x);
        }
        prop_assert!((h.total() - points.len() as f64).abs() < 1e-6);
        prop_assert!(h.bins().len() <= b);
        // sum is monotone and saturates at total.
        let mut prev = -1.0;
        for i in -10..=10 {
            let x = i as f64 * 110.0;
            let s = h.sum(x);
            prop_assert!(s >= prev - 1e-9);
            prop_assert!(s <= h.total() + 1e-9);
            prev = s;
        }
        prop_assert!((h.sum(f64::from(1_001)) - h.total()).abs() < 1e-9);
    }

    #[test]
    fn bh_merge_conserves_mass(
        xs in prop::collection::vec(0.0f64..100.0, 1..200),
        ys in prop::collection::vec(0.0f64..100.0, 1..200),
    ) {
        let mut a = BhHistogram::new(16);
        let mut b = BhHistogram::new(16);
        for &x in &xs { a.update(x); }
        for &y in &ys { b.update(y); }
        let total = a.total() + b.total();
        a.merge(&b);
        prop_assert!((a.total() - total).abs() < 1e-6);
        prop_assert!(a.bins().len() <= 16);
    }

    #[test]
    fn simulation_conserves_messages(
        messages in 100u64..5_000,
        workers in 1usize..16,
        sources in 1usize..6,
    ) {
        let spec = DatasetProfile::lognormal2().with_messages(messages).build(1);
        let r = pkg_sim::run(
            &spec,
            &SimConfig::new(workers, sources, SchemeSpec::pkg(EstimateKind::Local)),
        );
        prop_assert_eq!(r.worker_loads.iter().sum::<u64>(), messages);
        prop_assert!(r.final_imbalance >= 0.0);
    }
}

// A separate proptest! invocation: the vendored tt-munching macro's
// recursion depth scales with the tokens of one block, so new test groups
// get their own block instead of deepening the first.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn d_choices_candidate_count_is_monotone_in_frequency(
        n in 2usize..200,
        epsilon in 0.0f64..0.5,
        pa in 0.0f64..1.0,
        pb in 0.0f64..1.0,
    ) {
        let (p1, p2) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        let cfg = pkg_core::ChoiceConfig::new(epsilon);
        let (d1, d2) = (cfg.d_for(p1, n), cfg.d_for(p2, n));
        prop_assert!(d1 <= d2, "d_for({p1}) = {d1} > d_for({p2}) = {d2}");
        prop_assert!((2..=n).contains(&d1) && (2..=n).contains(&d2));
        // At the head threshold the rule degenerates to the two base
        // choices — classification is continuous at θ.
        prop_assert_eq!(cfg.d_for(cfg.theta(n), n), 2);
    }

    #[test]
    fn d_choices_equals_pkg_byte_for_byte_on_uniform_keys(
        n in 2usize..32,
        seed: u64,
        messages in 500u64..4_000,
    ) {
        // Keys cycle over 4n values: every frequency is 1/(4n), a quarter
        // of θ = 2(1+ε)/n, and the head tracker provably (not just
        // probabilistically) never classifies any of them head. With no
        // head keys the adaptive schemes must be PKG, decision by decision.
        let mut pkg = PartialKeyGrouping::new(n, 2, Estimate::local(n), seed);
        let mut dc = pkg_core::PartialKeyGrouping::d_choices(
            n, Estimate::local(n), pkg_core::DEFAULT_EPSILON, seed);
        let mut wc = pkg_core::PartialKeyGrouping::w_choices(
            n, Estimate::local(n), pkg_core::DEFAULT_EPSILON, seed);
        for t in 0..messages {
            let key = t % (4 * n as u64);
            let expect = pkg.route(key, t);
            prop_assert_eq!(dc.route(key, t), expect, "D-Choices diverged at t={}", t);
            prop_assert_eq!(wc.route(key, t), expect, "W-Choices diverged at t={}", t);
        }
        // And no key was ever reported with more than two candidates.
        for key in 0..(4 * n as u64) {
            prop_assert!(dc.candidates(key).len() <= 2);
        }
    }
}

/// `pkg-core`'s head test, restated: past 8 observations of warm-up mass,
/// a key counted `count` times in `total` is head when `count/total ≥ θ`.
fn is_head_at(count: u64, total: u64, theta: f64) -> bool {
    total as f64 * theta >= 8.0 && count as f64 / total as f64 >= theta
}

/// Space-Saving in O(capacity) per step, with the head tracker's victim
/// rule: entries sit in the order they reached their current count (a
/// counted entry moves to the back), and the victim is the first entry at
/// the minimum count.
struct NaiveSpaceSaving {
    capacity: usize,
    entries: Vec<(u64, u64)>,
}

impl NaiveSpaceSaving {
    fn observe(&mut self, key: u64) -> u64 {
        let at = match self.entries.iter().position(|&(k, _)| k == key) {
            Some(i) => Some(i),
            None if self.entries.len() < self.capacity => None,
            None => {
                let min = self.min();
                self.entries.iter().position(|&(_, c)| c == min)
            }
        };
        let count = at.map_or(0, |i| self.entries.remove(i).1) + 1;
        self.entries.push((key, count));
        count
    }

    fn count(&self, key: u64) -> u64 {
        self.entries.iter().find(|&&(k, _)| k == key).map_or(0, |&(_, c)| c)
    }

    fn min(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).min().unwrap_or(0)
    }
}

// The O(1) head tracker against its naive reference, and head routing
// across evictions, in a fresh proptest! block (the vendored tt-muncher's
// recursion depth scales with one block's tokens).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn head_tracker_equals_the_naive_space_saving(
        capacity in 1usize..64,
        alphabet in 1u64..160,
        wide: bool,
        draws in prop::collection::vec((any::<u64>(), 0u8..4), 1..1_500),
    ) {
        // One in four draws is one of four hot keys; the rest come from a
        // small alphabet (mostly hits) or all of u64 (mostly evictions).
        let keys: Vec<u64> = draws
            .iter()
            .map(|&(raw, pick)| match pick {
                0 => raw % 4,
                _ if wide => raw,
                _ => raw % alphabet,
            })
            .collect();
        let mut tracker = pkg_core::HeadTracker::new(capacity);
        let mut naive = NaiveSpaceSaving { capacity, entries: Vec::new() };
        let mut occ = std::collections::HashMap::new();
        for (i, &key) in keys.iter().enumerate() {
            // The prediction `candidates` relies on, evictions
            // included, before the observe it predicts.
            let next = tracker.next_count(key);
            let count = tracker.observe(key);
            prop_assert_eq!(count, naive.observe(key), "observe diverged at step {}", i);
            prop_assert_eq!(next, count, "next_count mispredicted step {}", i);
            *occ.entry(key).or_insert(0u64) += 1;
            tracker.check_invariants();
            let min = tracker.min_count();
            prop_assert_eq!(min, naive.min());
            prop_assert_eq!(tracker.tracked(), naive.entries.len());
            for probe in [key, 0, 1, 2, 3, keys[i / 2], !key] {
                let (c, o) = (tracker.count(probe), occ.get(&probe).copied().unwrap_or(0));
                prop_assert_eq!(c, naive.count(probe), "count({}) diverged at step {}", probe, i);
                if c > 0 {
                    prop_assert!(o <= c && c <= o + min, "{} ∉ [occ, occ + min] at {}", c, i);
                } else {
                    prop_assert!(o <= min, "untracked key occurred {} > min {} times", o, min);
                }
            }
        }
    }

    #[test]
    fn head_routing_predicts_candidates_across_evictions(
        many_workers: bool,
        seed: u64,
        fill_extra in 0u64..400,
        hot_tenths in 7u64..10,
        epoch in 1_000u64..1_500,
    ) {
        // Distinct tail keys fill the summary; then two hot keys in turn
        // (the second over an epoch four times longer) each enter with
        // the summary full — inheriting the minimum — and climb past θ.
        let n = if many_workers { 50 } else { 5 };
        let theta = pkg_core::ChoiceConfig::default().theta(n);
        let capacity = pkg_core::HeadTracker::for_threshold(theta).capacity() as u64;
        let hot = [u64::MAX, u64::MAX - 1];
        let mut stream: Vec<u64> = (0..capacity + fill_extra).collect();
        for (e, &key) in hot.iter().enumerate() {
            let start = stream.len() as u64;
            stream.extend((0..epoch << (2 * e)).map(|i| {
                if i % 10 < hot_tenths { key } else { start + i }
            }));
        }
        for mut p in [
            pkg_core::PartialKeyGrouping::d_choices(n, Estimate::local(n), pkg_core::DEFAULT_EPSILON, seed),
            pkg_core::PartialKeyGrouping::w_choices(n, Estimate::local(n), pkg_core::DEFAULT_EPSILON, seed),
        ] {
            let mut mirror = pkg_core::HeadTracker::for_threshold(theta);
            let mut became_head = [false; 2];
            for (t, &key) in stream.iter().enumerate() {
                let head = is_head_at(mirror.next_count(key), mirror.total() + 1, theta);
                let cands = p.candidates(key);
                let w = p.route(key, t as u64);
                prop_assert!(cands.contains(&w), "{} escaped {:?} at t={}", w, cands, t);
                if !head {
                    prop_assert_eq!(cands.len(), 2, "tail key {} at t={}", key, t);
                }
                if let Some(h) = hot.iter().position(|&k| k == key) {
                    became_head[h] |= head;
                    if mirror.count(key) == 0 {
                        prop_assert_eq!(mirror.tracked(), mirror.capacity());
                        prop_assert!(mirror.next_count(key) > 1, "hot key {} did not inherit", h);
                    }
                }
                mirror.observe(key);
            }
            prop_assert_eq!(became_head, [true, true], "{}", p.name());
        }
    }
}

// Heterogeneous-capacity properties, again in their own proptest! block
// (the vendored tt-muncher's recursion depth scales with one block's
// tokens).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn uniform_capacities_route_byte_identically(
        n in 2usize..32,
        seed: u64,
        cap in 0.1f64..8.0,
        keys in prop::collection::vec(0u64..500, 50..400),
    ) {
        // The capacity-free path is the oracle: attaching any *uniform*
        // capacity vector (whatever its common value) must leave every
        // routing decision of every load-consulting scheme unchanged.
        let plain = pkg_core::SharedLoads::new(n);
        let weighted = pkg_core::SharedLoads::new(n).with_capacities(&vec![cap; n]);
        for scheme in [
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
            SchemeSpec::StaticPotc { estimate: EstimateKind::Local },
            SchemeSpec::OnGreedy { estimate: EstimateKind::Local },
        ] {
            let mut a = scheme.build(n, seed, 0, &plain, None);
            let mut b = scheme.build(n, seed, 0, &weighted, None);
            for (t, &k) in keys.iter().enumerate() {
                let (wa, wb) = (a.route(k, t as u64), b.route(k, t as u64));
                prop_assert_eq!(
                    wa, wb,
                    "{} diverged under uniform capacities at t={}", scheme.label(), t
                );
            }
        }
    }

    #[test]
    fn weighted_routing_stays_in_range_and_candidates(
        caps in prop::collection::vec(0.25f64..4.0, 2..32),
        seed: u64,
        keys in prop::collection::vec(0u64..200, 50..300),
    ) {
        // Heterogeneous capacities change *which* candidate wins, never
        // the candidate set or the range.
        let n = caps.len();
        let shared = pkg_core::SharedLoads::new(n).with_capacities(&caps);
        for scheme in [
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
        ] {
            let mut p = scheme.build(n, seed, 0, &shared, None);
            for (t, &k) in keys.iter().enumerate() {
                let cands = p.candidates(k);
                let w = p.route(k, t as u64);
                prop_assert!(w < n, "{} routed out of range", scheme.label());
                prop_assert!(
                    cands.contains(&w),
                    "{} escaped its candidates under capacities", scheme.label()
                );
            }
        }
    }

    #[test]
    fn load_view_argmin_equals_the_naive_reference(
        workers in prop::collection::vec((0u64..40, 0.25f64..4.0), 2..24),
        picks in prop::collection::vec(any::<u64>(), 1..40),
        live_mask: u32,
        cap in 0.1f64..8.0,
    ) {
        // The one argmin against min-by-(load, position), written without
        // it: a later candidate wins only if strictly smaller — by the
        // integer comparison, or cross-multiplied `L_a·c_b < L_b·c_a` under
        // weights. Candidates repeat freely.
        let n = workers.len();
        let (loads, weights): (Vec<u64>, Vec<f64>) = workers.into_iter().unzip();
        let reference = |caps: Option<&pkg_metrics::Capacities>, cands: &[usize]| {
            let less = |a: usize, b: usize| match caps {
                None => loads[a] < loads[b],
                Some(c) => (loads[a] as f64) * c.weight(b) < (loads[b] as f64) * c.weight(a),
            };
            cands.iter().copied().reduce(|best, c| if less(c, best) { c } else { best })
                .expect("at least one candidate")
        };
        let subset: Vec<usize> = (0..n).filter(|i| live_mask >> i & 1 == 1).collect();
        let full: Vec<usize> = (0..n).collect();
        let skewed = pkg_metrics::Capacities::heterogeneous(&weights);
        // Uniform weights of any value collapse at construction, so that
        // leg must give the unweighted answer.
        let uniform = pkg_metrics::Capacities::heterogeneous(&vec![cap; n]);
        for live in [None, (!subset.is_empty()).then_some(&subset)] {
            let allowed = live.unwrap_or(&full);
            let cands: Vec<usize> =
                picks.iter().map(|&p| allowed[(p % allowed.len() as u64) as usize]).collect();
            for caps in [None, uniform.clone(), skewed.clone()] {
                let mut view = pkg_core::LoadView::new(n, Estimate::local(n))
                    .with_capacities(caps.clone());
                for (w, &l) in loads.iter().enumerate() {
                    (0..l).for_each(|_| view.record(w));
                }
                if let Some(live) = live {
                    view.set_live(live);
                }
                let want = reference(caps.as_ref(), &cands);
                // The two entry points enumerate, then run the one loop: a
                // key's hash sequence (reduced onto the live set, it is
                // `cands`) and every live worker.
                prop_assert_eq!(view.argmin_hashed(picks.iter().copied(), 0), want);
                prop_assert_eq!(view.argmin_live(0), reference(caps.as_ref(), allowed));
            }
        }
    }
}

/// Build a valid join/leave schedule from raw fuzz input: each toggle flips
/// one worker — removing it when live (and not the last live member),
/// re-inserting it when dead — at strictly increasing thresholds. Keeps
/// every `MembershipPlan` construction invariant by construction.
fn random_plan(n: usize, toggles: &[(u64, u64)]) -> MembershipPlan {
    let mut live = vec![true; n];
    let mut count = n;
    let mut at = 0u64;
    let mut plan = MembershipPlan::new(n);
    for &(pick, gap) in toggles {
        at += gap;
        let i = (pick % n as u64) as usize;
        let change = if live[i] && count > 1 {
            live[i] = false;
            count -= 1;
            Change::Remove(i)
        } else if !live[i] {
            live[i] = true;
            count += 1;
            Change::Insert(i)
        } else {
            // `i` is the only live worker: revive the lowest dead index
            // instead (one exists — n ≥ 2 and only `i` is live).
            let j = live.iter().position(|l| !l).expect("some worker is dead");
            live[j] = true;
            count += 1;
            Change::Insert(j)
        };
        plan = plan.with_step(at, [change]);
    }
    plan
}

// Elasticity properties: random join/leave schedules over the stable id
// space. A fresh proptest! block again (the vendored tt-muncher's recursion
// depth scales with one block's tokens).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_membership_schedules_conserve_every_message(
        n in 2usize..12,
        sources in 1usize..4,
        toggles in prop::collection::vec((any::<u64>(), 100u64..400), 1..5),
        messages in 2_000u64..6_000,
        seed: u64,
    ) {
        // Whatever the schedule, the simulator loses and duplicates
        // nothing: worker loads and per-epoch message counts both sum to
        // the stream length, and every scripted epoch is accounted for.
        let plan = random_plan(n, &toggles);
        let spec = DatasetProfile::lognormal2().with_messages(messages).build(1);
        let cfg = SimConfig::new(n, sources, SchemeSpec::pkg(EstimateKind::Local))
            .with_seed(seed)
            .with_membership_plan(plan.clone());
        let r = pkg_sim::run(&spec, &cfg);
        prop_assert_eq!(r.worker_loads.iter().sum::<u64>(), messages);
        let stats = r.epochs.as_ref().expect("a plan produces epoch stats");
        prop_assert_eq!(stats.len(), plan.epochs() as usize);
        prop_assert_eq!(stats.iter().map(|e| e.messages).sum::<u64>(), messages);
    }

    #[test]
    fn elastic_routing_confines_to_the_live_set_per_epoch(
        n in 2usize..16,
        toggles in prop::collection::vec((any::<u64>(), 50u64..300), 1..5),
        keys in prop::collection::vec(0u64..300, 300..700),
        seed: u64,
    ) {
        // Replaying the schedule by hand: in every epoch, every routing
        // decision and every reported candidate of every adaptive scheme
        // lands inside that epoch's live set.
        let plan = random_plan(n, &toggles);
        let shared = pkg_core::SharedLoads::new(n);
        for scheme in [
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
        ] {
            let mut p = scheme.build(n, seed, 0, &shared, None);
            prop_assert!(p.resizable(), "{} must support membership", scheme.label());
            let mut epoch = 0u32;
            p.apply_membership(plan.live(0));
            for (t, &k) in keys.iter().enumerate() {
                let e = plan.epoch_at(t as u64);
                if e != epoch {
                    epoch = e;
                    p.apply_membership(plan.live(e));
                }
                let live = plan.live(epoch);
                let w = p.route(k, t as u64);
                prop_assert!(
                    live.contains(&w),
                    "{} routed {} to dead worker {} in epoch {}", scheme.label(), k, w, epoch
                );
                let cands = p.candidates(k);
                prop_assert!(cands.contains(&w), "{} escaped its candidates", scheme.label());
                prop_assert!(
                    cands.iter().all(|c| live.contains(c)),
                    "{} reported a dead candidate in epoch {}", scheme.label(), epoch
                );
            }
        }
    }

    #[test]
    fn empty_schedule_is_byte_identical_to_fixed_w(
        n in 2usize..24,
        keys in prop::collection::vec(0u64..400, 100..400),
        seed: u64,
    ) {
        // Identity degeneration: applying a static plan's (full) live set —
        // even repeatedly, mid-stream — leaves every decision of every
        // adaptive scheme identical to the untouched fixed-W partitioner.
        let plan = MembershipPlan::new(n);
        prop_assert_eq!(plan.epochs(), 1);
        let shared = pkg_core::SharedLoads::new(n);
        for scheme in [
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
        ] {
            let mut a = scheme.build(n, seed, 0, &shared, None);
            let mut b = scheme.build(n, seed, 0, &shared, None);
            b.apply_membership(plan.live(0));
            for (t, &k) in keys.iter().enumerate() {
                if t == keys.len() / 2 {
                    b.apply_membership(plan.live(0));
                }
                prop_assert_eq!(
                    a.route(k, t as u64),
                    b.route(k, t as u64),
                    "{} diverged from fixed-W at t={}", scheme.label(), t
                );
            }
        }
    }
}

/// Sorted per-key totals observed at the collector sink.
type KeyTotals = Vec<(Box<[u8]>, i64)>;

/// One tick-free run of spout → worker (Key) → collector under the given
/// executor and ingress configuration; the stream is a pure function of
/// `keys`, so every observable below is deterministic per executor.
fn ingress_run(
    executor: partial_key_grouping::engine::ExecutorMode,
    ingress: Option<IngressOptions>,
    keys: &[u64],
) -> (KeyTotals, partial_key_grouping::engine::RunStats) {
    use partial_key_grouping::apps::Collector;
    struct Forward;
    impl Bolt for Forward {
        fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
            out.emit(t);
        }
    }
    let collector = Collector::new();
    let mut topo = Topology::new();
    let tuples: Vec<Tuple> =
        keys.iter().map(|&k| Tuple::new(format!("k{k}").into_bytes(), 1)).collect();
    let src = topo.add_spout("src", 1, move |_| spout_from_iter(tuples.clone()));
    let worker = topo.add_bolt("worker", 4, |_| Box::new(Forward)).input(src, Grouping::Key).id();
    let c = collector.clone();
    let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(worker, Grouping::Shuffle);
    let options = RuntimeOptions {
        channel_capacity: 64,
        seed: 3,
        executor,
        ingress,
        ..RuntimeOptions::default()
    };
    let stats = Runtime::with_options(options).run(topo);
    let mut totals = collector.totals();
    totals.sort();
    (totals, stats)
}

// Ingress / admission-control properties, in a fresh proptest! block once
// more (the vendored tt-muncher's recursion depth scales with one block's
// tokens).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn token_bucket_is_deterministic_and_rate_bounded(
        rate in 1u64..1_000_000,
        burst in 1u64..64,
        gaps in prop::collection::vec(0u64..5_000_000, 1..200),
    ) {
        // Two buckets with the same parameters fed the same clock sequence
        // make the same decision at every step, and total admissions never
        // exceed the burst plus the tokens accrued over the elapsed span.
        let mut a = pkg_ingress::TokenBucket::new(rate, burst);
        let mut b = pkg_ingress::TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut admitted = 0u64;
        for &gap in &gaps {
            now += gap;
            let da = a.admit(now);
            prop_assert_eq!(da, b.admit(now), "identical buckets diverged at t={}ns", now);
            admitted += u64::from(da);
        }
        let accrued = u64::try_from(u128::from(now) * u128::from(rate) / 1_000_000_000)
            .expect("accrued tokens fit u64");
        prop_assert!(
            admitted <= burst + accrued + 1,
            "admitted {} > burst {} + accrued {}", admitted, burst, accrued
        );
    }

    #[test]
    fn bucket_shed_decisions_are_byte_identical_across_executors(
        keys in prop::collection::vec(0u64..40, 50..250),
        rate in 500u64..50_000,
        burst in 1u64..16,
        configured: bool,
    ) {
        // On a logical admission clock the admit/shed sequence is a pure
        // function of the offer index — whatever the rate and burst, the
        // thread oracle and the pool must shed the same tuples and deliver
        // the same surviving bytes. An ingress with nothing configured
        // sheds nothing under either executor.
        let ingress = if configured {
            IngressOptions {
                rate_per_sec: Some(rate),
                burst,
                logical_step_ns: Some(100_000), // 10k offered/s logical
                ..IngressOptions::default()
            }
        } else {
            IngressOptions::default()
        };
        let (want_totals, want_stats) = ingress_run(
            partial_key_grouping::engine::ExecutorMode::ThreadPerInstance,
            Some(ingress.clone()),
            &keys,
        );
        let (got_totals, got_stats) = ingress_run(
            partial_key_grouping::engine::ExecutorMode::Pool { workers: 0, batch: 0 },
            Some(ingress),
            &keys,
        );
        prop_assert_eq!(got_totals, want_totals, "surviving tuples diverged");
        prop_assert_eq!(got_stats.shed_dropped("src"), want_stats.shed_dropped("src"));
        prop_assert_eq!(got_stats.shed_degraded("src"), 0);
        prop_assert_eq!(want_stats.shed_degraded("src"), 0, "HardDrop never degrades");
        prop_assert_eq!(want_stats.processed("src"), keys.len() as u64);
        prop_assert_eq!(got_stats.processed("src"), keys.len() as u64);
        if !configured {
            prop_assert_eq!(want_stats.shed_dropped("src"), 0, "an unconfigured ingress shed");
        }
    }
}

/// The load-consulting schemes — the ones whose routing reads the shared
/// load vector, and therefore the ones a pluggable load signal can perturb.
/// Signals force Global estimation (the signal state IS shared feedback),
/// so the capacity-free oracle must read Global estimates too.
fn load_consulting_schemes() -> [SchemeSpec; 5] {
    [
        SchemeSpec::pkg(EstimateKind::Global),
        SchemeSpec::d_choices(EstimateKind::Global),
        SchemeSpec::w_choices(EstimateKind::Global),
        SchemeSpec::StaticPotc { estimate: EstimateKind::Global },
        SchemeSpec::OnGreedy { estimate: EstimateKind::Global },
    ]
}

// Pluggable load-signal properties: the degenerate configurations must
// vanish without a trace. A fresh proptest! block once more (the vendored
// tt-muncher's recursion depth scales with one block's tokens).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tuple_count_signals_route_byte_identically_to_plain_shared_loads(
        n in 2usize..32,
        seed: u64,
        keys in prop::collection::vec(0u64..500, 50..400),
    ) {
        // TupleCount with no estimator collapses at attach time: no signal
        // state is allocated at all, so the configuration is *structurally*
        // the plain path.
        let collapsed =
            pkg_core::SharedLoads::new(n).with_signals(LoadMetricKind::TupleCount, None);
        prop_assert!(collapsed.signals().is_none(), "TupleCount w/o estimator must collapse");
        prop_assert_eq!(collapsed.metric_label(), "count");

        // TupleCount *with* an (unrotated) estimator does allocate signal
        // state — and must still route decision-for-decision like the plain
        // shared loads, for every load-consulting scheme.
        let plain = pkg_core::SharedLoads::new(n);
        let estimator = std::sync::Arc::new(CapacityEstimator::new(n, 64));
        let signaled = pkg_core::SharedLoads::new(n)
            .with_signals(LoadMetricKind::TupleCount, Some(estimator));
        prop_assert!(signaled.signals().is_some());
        for scheme in load_consulting_schemes() {
            let mut a = scheme.build(n, seed, 0, &plain, None);
            let mut b = scheme.build(n, seed, 0, &signaled, None);
            for (t, &k) in keys.iter().enumerate() {
                let (wa, wb) = (a.route(k, t as u64), b.route(k, t as u64));
                // Mirror the engine/sim loop: the chosen worker's count is
                // the (shared) feedback both arms route on.
                plain.record(wa);
                signaled.record(wb);
                prop_assert_eq!(
                    wa, wb,
                    "{} diverged under TupleCount signals at t={}", scheme.label(), t
                );
            }
        }
    }

    #[test]
    fn peak_ewma_with_zero_observed_latency_routes_like_tuple_count(
        n in 2usize..32,
        seed: u64,
        window in 1u32..256,
        keys in prop::collection::vec(0u64..500, 50..400),
    ) {
        // Before any latency observation arrives the Peak-EWMA signal
        // collapses to the tuple count (nothing completes here, so every
        // routed tuple is in flight and the collapse is what ignores it):
        // every argmin — and every tie-break — must agree with plain count
        // routing, whatever the EWMA window.
        let plain = pkg_core::SharedLoads::new(n);
        let ewma = pkg_core::SharedLoads::new(n)
            .with_signals(LoadMetricKind::PeakEwma { window }, None);
        prop_assert!(ewma.signals().is_some(), "PeakEwma always attaches");
        prop_assert_eq!(ewma.metric_label(), "peak_ewma");
        for scheme in load_consulting_schemes() {
            let mut a = scheme.build(n, seed, 0, &plain, None);
            let mut b = scheme.build(n, seed, 0, &ewma, None);
            for (t, &k) in keys.iter().enumerate() {
                let (wa, wb) = (a.route(k, t as u64), b.route(k, t as u64));
                plain.record(wa);
                ewma.record(wb);
                prop_assert_eq!(
                    wa, wb,
                    "{} diverged under zero-latency PeakEwma at t={}", scheme.label(), t
                );
            }
        }
        for w in 0..n {
            prop_assert_eq!(ewma.signal(w), ewma.load(w), "signal must equal raw count");
        }
    }
}

// The metric contract every greedy argmin relies on: more outstanding work
// never lowers a worker's signal, whichever metric is active.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_load_metric_is_monotone_in_count_and_pending(
        count in 0u64..1 << 32,
        pending in 0u64..1 << 16,
        more_count in 0u64..1 << 16,
        more_pending in 0u64..1 << 16,
        peak_ewma_ns in 0u64..1 << 24,
        fallback_ns in 0u64..1 << 24,
        window in 1u32..256,
    ) {
        let base = LoadObservation { count, pending, peak_ewma_ns, fallback_ns };
        let grown = [
            LoadObservation { count: count + more_count, ..base },
            LoadObservation { pending: pending + more_pending, ..base },
            LoadObservation { count: count + more_count, pending: pending + more_pending, ..base },
        ];
        for kind in [
            LoadMetricKind::TupleCount,
            LoadMetricKind::PendingRequests,
            LoadMetricKind::PeakEwma { window },
        ] {
            for more in grown {
                prop_assert!(
                    kind.signal(more) >= kind.signal(base),
                    "{} decreased from {:?} to {:?}", kind.label(), base, more
                );
            }
        }
    }
}

// In-flight is derived from the routed count: the shared signal state must
// agree with a plain model of counts, completions and the Peak-EWMA
// recurrence after every step of any interleaving — including more
// completions than routed tuples, where in-flight saturates at 0.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn signals_equal_the_metric_over_routed_minus_completed(
        n in 1usize..8,
        window in 1u32..128,
        ops in prop::collection::vec((0usize..8, 0u8..2, 0u64..50_000), 0..300),
    ) {
        let kind = LoadMetricKind::PeakEwma { window };
        let pending = pkg_core::SharedLoads::new(n)
            .with_signals(LoadMetricKind::PendingRequests, None);
        let ewma = pkg_core::SharedLoads::new(n).with_signals(kind, None);
        let (mut records, mut completes) = (vec![0u64; n], vec![0u64; n]);
        let (mut ewma_ns, mut peak_ns) = (vec![0u64; n], 0u64);
        for (w, op, service_ns) in ops {
            let w = w % n;
            for loads in [&pending, &ewma] {
                match op {
                    0 => loads.record(w),
                    _ => loads.signals().expect("attached").complete(w, service_ns),
                }
            }
            if op == 0 {
                records[w] += 1;
            } else {
                completes[w] += 1;
                if service_ns > 0 {
                    ewma_ns[w] = peak_ewma_step(ewma_ns[w], service_ns, window);
                    peak_ns = peak_ns.max(ewma_ns[w]);
                }
            }
            for v in 0..n {
                let in_flight = records[v].saturating_sub(completes[v]);
                prop_assert_eq!(pending.signal(v), in_flight, "worker {} pending", v);
                let obs = LoadObservation {
                    count: records[v],
                    pending: in_flight,
                    peak_ewma_ns: ewma_ns[v],
                    fallback_ns: peak_ns,
                };
                prop_assert_eq!(ewma.signal(v), kind.signal(obs), "worker {} peak_ewma", v);
            }
        }
    }
}
