//! Smoke test: every `SchemeSpec` variant builds a working partitioner.
//!
//! Guards the PKG key-splitting invariant of §III: a key's messages may be
//! split across its candidate workers, but may never leave the candidate
//! set, and every routing decision lands inside `[0, workers)`.

use partial_key_grouping::prelude::*;
use pkg_core::{CandidatePolicy, HeadCap, KeyFrequencies};

/// One spec per `SchemeSpec` variant, covering each estimator kind at
/// least once.
fn all_specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::KeyGrouping,
        SchemeSpec::ShuffleGrouping,
        SchemeSpec::pkg(EstimateKind::Local),
        SchemeSpec::Greedy { policy: CandidatePolicy::Fixed(2), estimate: EstimateKind::Global },
        SchemeSpec::Greedy {
            policy: CandidatePolicy::Fixed(2),
            estimate: EstimateKind::Probing { period_ms: 100 },
        },
        SchemeSpec::Greedy { policy: CandidatePolicy::Fixed(4), estimate: EstimateKind::Local },
        SchemeSpec::StaticPotc { estimate: EstimateKind::Local },
        SchemeSpec::StaticPotc { estimate: EstimateKind::Global },
        SchemeSpec::OnGreedy { estimate: EstimateKind::Local },
        SchemeSpec::OnGreedy { estimate: EstimateKind::Global },
        SchemeSpec::OffGreedy,
        SchemeSpec::d_choices(EstimateKind::Local),
        SchemeSpec::Greedy {
            policy: CandidatePolicy::Head { epsilon: 0.05, cap: HeadCap::PerFrequency },
            estimate: EstimateKind::Global,
        },
        SchemeSpec::w_choices(EstimateKind::Local),
        SchemeSpec::Greedy {
            policy: CandidatePolicy::Head { epsilon: 0.05, cap: HeadCap::All },
            estimate: EstimateKind::Global,
        },
    ]
}

/// A mildly skewed test stream: key 0 is hot, the rest are a cycling tail.
fn stream(n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(|i| if i % 5 == 0 { 0 } else { i % 97 })
}

#[test]
fn every_scheme_routes_inside_its_candidate_set() {
    let workers = 10;
    let seed = 42;
    for spec in all_specs() {
        let shared = pkg_core::SharedLoads::new(workers);
        let freqs = spec.needs_frequencies().then(|| KeyFrequencies::from_keys(stream(1_000)));
        let mut p = spec.build(workers, seed, 0, &shared, freqs.as_ref());
        assert_eq!(p.n(), workers, "{}", spec.label());
        for (t, key) in stream(1_000).enumerate() {
            let cands = p.candidates(key);
            assert!(
                !cands.is_empty() && cands.iter().all(|&c| c < workers),
                "{}: bad candidate set {cands:?}",
                spec.label()
            );
            let w = p.route(key, t as u64);
            assert!(w < workers, "{}: routed {w} out of range", spec.label());
            assert!(
                cands.contains(&w),
                "{}: route({key}) = {w} escaped candidates {cands:?}",
                spec.label()
            );
            shared.record(w);
        }
    }
}

#[test]
fn candidate_sets_are_stable_and_source_independent() {
    let workers = 16;
    for spec in all_specs() {
        let shared = pkg_core::SharedLoads::new(workers);
        let freqs = spec.needs_frequencies().then(|| KeyFrequencies::from_keys(stream(1_000)));
        let a = spec.build(workers, 7, 0, &shared, freqs.as_ref());
        let b = spec.build(workers, 7, 3, &shared, freqs.as_ref());
        for key in 0..200u64 {
            assert_eq!(a.candidates(key), a.candidates(key), "{}: unstable", spec.label());
            assert_eq!(
                a.candidates(key),
                b.candidates(key),
                "{}: sources disagree on candidates",
                spec.label()
            );
        }
    }
}

/// The adaptive schemes' smoke invariants on a skewed stream: every routed
/// worker lies inside the candidate set reported *just before* the route,
/// tail keys never leave their two base candidates, and a 10%-frequency
/// head key under W-Choices reaches every worker.
#[test]
fn adaptive_schemes_respect_candidate_sets_and_tail_stays_at_two() {
    let workers = 50;
    let seed = 42;
    // 10% of traffic on key 1_000_000; the rest cycles a 96-key tail, each
    // tail key ≈ 0.94% ≪ θ = 2(1+ε)/50.
    let stream = |n: u64| (0..n).map(|i| if i % 10 == 0 { 1_000_000 } else { i % 96 });
    for spec in
        [SchemeSpec::d_choices(EstimateKind::Local), SchemeSpec::w_choices(EstimateKind::Local)]
    {
        let shared = pkg_core::SharedLoads::new(workers);
        let mut p = spec.build(workers, seed, 0, &shared, None);
        let base: std::collections::HashMap<u64, Vec<usize>> =
            stream(200).map(|k| (k, p.candidates(k))).collect();
        let mut observed: std::collections::HashMap<u64, std::collections::BTreeSet<usize>> =
            std::collections::HashMap::new();
        for (t, key) in stream(50_000).enumerate() {
            let cands = p.candidates(key);
            let w = p.route(key, t as u64);
            assert!(
                cands.contains(&w),
                "{}: route({key}) = {w} escaped candidates {cands:?}",
                spec.label()
            );
            observed.entry(key).or_default().insert(w);
            shared.record(w);
        }
        for (key, workers_used) in &observed {
            if *key == 1_000_000 {
                continue;
            }
            // Tail keys: never classified head, so exactly the (≤ 2 after
            // hash collisions) base candidates.
            assert!(
                workers_used.len() <= 2,
                "{}: tail key {key} used {} workers",
                spec.label(),
                workers_used.len()
            );
            for w in workers_used {
                assert!(
                    base[key].contains(w),
                    "{}: tail key {key} escaped its base candidates",
                    spec.label()
                );
            }
        }
        let hot = &observed[&1_000_000];
        assert!(hot.len() > 2, "{}: head key stayed on {} workers", spec.label(), hot.len());
        if matches!(
            spec,
            SchemeSpec::Greedy {
                policy: CandidatePolicy::Head { cap: HeadCap::PerFrequency, .. },
                ..
            }
        ) {
            // D-Choices: d(0.1) = ⌈0.1·50/1.1⌉ = 5 candidates at the
            // converged estimate; transients may add a few more below the
            // final frequency's bound, never the full worker set.
            assert!(
                hot.len() < workers / 2,
                "{}: head key spread to {} workers, expected ≪ {workers}",
                spec.label(),
                hot.len()
            );
        }
    }
}

/// A 10%-frequency head key under W-Choices may reach *all* W workers: on a
/// balanced tail (unique keys, which greedy-2 spreads almost perfectly) the
/// head key's global argmin water-fills every worker.
#[test]
fn w_choices_head_key_reaches_all_workers() {
    let workers = 50;
    let shared = pkg_core::SharedLoads::new(workers);
    let mut p = SchemeSpec::w_choices(EstimateKind::Local).build(workers, 42, 0, &shared, None);
    let mut hot = std::collections::BTreeSet::new();
    for t in 0..50_000u64 {
        let key = if t % 10 == 0 { 1_000_000 } else { t + 1 };
        let w = p.route(key, t);
        if key == 1_000_000 {
            hot.insert(w);
        }
    }
    assert_eq!(hot.len(), workers, "head key reached only {} of {workers} workers", hot.len());
}

/// Heterogeneous capacities: a 4× worker absorbs ~4× the load of a 1×
/// worker. On-Greedy with a global estimate water-fills unique keys by
/// capacity-normalized load, so per-worker loads converge to exact
/// capacity proportionality; W-Choices' head path does the same for a hot
/// key via its global argmin.
#[test]
fn a_4x_worker_absorbs_4x_the_load_of_a_1x_worker() {
    let workers = 5;
    let caps = [4.0, 1.0, 1.0, 1.0, 1.0];

    // On-Greedy, 20k unique unit keys: loads ∝ capacity.
    let shared = pkg_core::SharedLoads::new(workers).with_capacities(&caps);
    let mut greedy = SchemeSpec::OnGreedy { estimate: EstimateKind::Global }
        .build(workers, 42, 0, &shared, None);
    let mut loads = vec![0u64; workers];
    for t in 0..20_000u64 {
        let w = greedy.route(t, t);
        shared.record(w);
        loads[w] += 1;
    }
    let slow_avg = loads[1..].iter().sum::<u64>() as f64 / (workers - 1) as f64;
    let ratio = loads[0] as f64 / slow_avg;
    assert!((ratio - 4.0).abs() < 0.4, "4× worker took {ratio:.2}× a 1× worker: {loads:?}");

    // W-Choices with a 60% head key (past θ = 2(1+ε)/5 = 0.44, so it takes
    // the global argmin path): the head spreads over every worker and the
    // *total* per-worker loads converge to capacity proportionality.
    let shared = pkg_core::SharedLoads::new(workers).with_capacities(&caps);
    let mut wc = SchemeSpec::w_choices(EstimateKind::Global).build(workers, 42, 0, &shared, None);
    let mut total_loads = vec![0u64; workers];
    let mut hot_workers = std::collections::BTreeSet::new();
    for t in 0..80_000u64 {
        let key = if t % 5 < 3 { 1_000_000 } else { t + 1 };
        let w = wc.route(key, t);
        shared.record(w);
        total_loads[w] += 1;
        if key == 1_000_000 {
            hot_workers.insert(w);
        }
    }
    assert_eq!(hot_workers.len(), workers, "head key must reach every worker");
    let slow_total_avg = total_loads[1..].iter().sum::<u64>() as f64 / (workers - 1) as f64;
    let total_ratio = total_loads[0] as f64 / slow_total_avg;
    assert!(
        (total_ratio - 4.0).abs() < 0.4,
        "4× worker absorbed {total_ratio:.2}× a 1× worker: {total_loads:?}"
    );
}

#[test]
fn pkg_actually_splits_a_hot_key() {
    // With one dominant key, PKG must use ≥ 2 distinct workers for it
    // (key splitting), while KG pins it to exactly one.
    let workers = 10;
    let shared = pkg_core::SharedLoads::new(workers);
    let mut pkg = SchemeSpec::pkg(EstimateKind::Local).build(workers, 42, 0, &shared, None);
    let mut kg = SchemeSpec::KeyGrouping.build(workers, 42, 0, &shared, None);

    // Pick a hot key whose two candidates differ under this seed.
    let hot = (0..100u64)
        .find(|&k| {
            let c = pkg.candidates(k);
            c.len() >= 2 && c[0] != c[1]
        })
        .expect("some key has two distinct candidates");

    let mut pkg_workers = std::collections::BTreeSet::new();
    let mut kg_workers = std::collections::BTreeSet::new();
    for t in 0..1_000u64 {
        pkg_workers.insert(pkg.route(hot, t));
        kg_workers.insert(kg.route(hot, t));
    }
    assert_eq!(kg_workers.len(), 1, "KG must not split a key");
    assert_eq!(pkg_workers.len(), 2, "PKG must split a hot key over both candidates");
}
