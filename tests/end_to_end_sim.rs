//! Cross-crate integration tests: datagen → core → sim.
//!
//! These assert the paper's *qualitative* results end-to-end at test scale
//! (the full-scale numbers live in EXPERIMENTS.md, regenerated by the
//! pkg-bench drivers).

use partial_key_grouping::prelude::*;
use pkg_datagen::StreamSpec;
use pkg_sim::source::SourceAssignment;
use pkg_sim::sweep::{run_parallel, Job};

fn wp_like(messages: u64) -> StreamSpec {
    DatasetProfile::wikipedia().with_messages(messages).with_keys(20_000).build(11)
}

#[test]
fn table2_ordering_holds_at_small_scale() {
    // Q1: PKG ≤ {Off-Greedy, On-Greedy} ≤ PoTC ≪ Hashing (final imbalance,
    // W = 5 where all techniques are in their balanced regime).
    let spec = wp_like(200_000);
    let imb = |scheme: SchemeSpec| {
        pkg_sim::run(&spec, &SimConfig::new(5, 1, scheme).with_seed(1)).final_imbalance
    };
    let pkg = imb(SchemeSpec::pkg(EstimateKind::Global));
    let off = imb(SchemeSpec::OffGreedy);
    let on = imb(SchemeSpec::OnGreedy { estimate: EstimateKind::Global });
    let potc = imb(SchemeSpec::StaticPotc { estimate: EstimateKind::Global });
    let h = imb(SchemeSpec::KeyGrouping);
    assert!(pkg <= on, "PKG {pkg} vs On-Greedy {on}");
    assert!(off <= on, "Off-Greedy {off} vs On-Greedy {on}");
    // On-Greedy and PoTC are close at small W (the paper separates them at
    // W = 10+); allow noise-level inversion but not a real one.
    assert!(on <= potc * 1.5 + 5.0, "On-Greedy {on} vs PoTC {potc}");
    assert!(potc < h / 10.0, "PoTC {potc} must be far below Hashing {h}");
}

#[test]
fn balanced_to_imbalanced_transition_near_one_over_p1() {
    // §IV: good balance is achievable only while W = O(1/p1); with
    // p1 = 9.32%, 2/p1 ≈ 21 — W = 10 is balanced, W = 50 is not.
    let spec = wp_like(200_000);
    let frac = |w: usize| {
        pkg_sim::run(&spec, &SimConfig::new(w, 1, SchemeSpec::pkg(EstimateKind::Global)))
            .final_fraction
    };
    let f10 = frac(10);
    let f50 = frac(50);
    assert!(f10 < 1e-3, "W=10 should balance, fraction = {f10}");
    assert!(f50 > 1e-2, "W=50 must exceed the O(1/p1) limit, fraction = {f50}");
    assert!(f50 > f10 * 100.0);
}

#[test]
fn local_estimation_within_order_of_magnitude_of_oracle() {
    // Q2 across source counts (Fig. 2's L5..L20 vs G).
    let spec = wp_like(150_000);
    let g = pkg_sim::run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Global)));
    for sources in [5usize, 10, 15, 20] {
        let l =
            pkg_sim::run(&spec, &SimConfig::new(10, sources, SchemeSpec::pkg(EstimateKind::Local)));
        assert!(
            l.final_imbalance <= g.final_imbalance * 10.0 + sources as f64,
            "L{sources} = {} vs G = {}",
            l.final_imbalance,
            g.final_imbalance
        );
    }
}

#[test]
fn probing_does_not_beat_local() {
    // Q2's surprising finding: probing the true loads periodically does not
    // improve on pure local estimation.
    let spec = wp_like(150_000);
    let local = pkg_sim::run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local)));
    let probing = pkg_sim::run(
        &spec,
        &SimConfig::new(
            10,
            5,
            SchemeSpec::Greedy {
                policy: pkg_core::CandidatePolicy::Fixed(2),
                estimate: EstimateKind::Probing { period_ms: 60_000 },
            },
        ),
    );
    // "Does not improve" = not better by more than trivial noise; allow it
    // to be mildly better or worse, but not an order of magnitude better.
    assert!(
        probing.final_imbalance * 5.0 + 5.0 > local.final_imbalance,
        "probing {} suspiciously beats local {}",
        probing.final_imbalance,
        local.final_imbalance
    );
}

#[test]
fn skewed_sources_do_not_break_pkg() {
    // Q3 (Fig. 4): feeding sources by key-hash on the graph's source vertex
    // leaves PKG's worker balance intact.
    let spec = DatasetProfile::livejournal().with_messages(300_000).build(3);
    let uniform = pkg_sim::run(
        &spec,
        &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local))
            .with_assignment(SourceAssignment::RoundRobin),
    );
    let skewed = pkg_sim::run(
        &spec,
        &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local))
            .with_assignment(SourceAssignment::KeyHash),
    );
    assert!(uniform.final_fraction < 5e-3);
    assert!(
        skewed.final_fraction < uniform.final_fraction * 20.0 + 5e-3,
        "skewed {} vs uniform {}",
        skewed.final_fraction,
        uniform.final_fraction
    );
}

#[test]
fn drift_is_absorbed() {
    // Q3 (CT dataset): popularity drift creates spikes that PKG absorbs —
    // the final fraction stays low.
    let spec = DatasetProfile::cashtags().with_messages(300_000).build(4);
    let r = pkg_sim::run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local)));
    assert!(r.final_fraction < 1e-3, "fraction = {}", r.final_fraction);
}

#[test]
fn conservation_across_all_schemes() {
    let spec = DatasetProfile::lognormal2().with_messages(80_000).build(5);
    for scheme in [
        SchemeSpec::KeyGrouping,
        SchemeSpec::ShuffleGrouping,
        SchemeSpec::pkg(EstimateKind::Local),
        SchemeSpec::pkg(EstimateKind::Global),
        SchemeSpec::StaticPotc { estimate: EstimateKind::Local },
        SchemeSpec::OnGreedy { estimate: EstimateKind::Local },
        SchemeSpec::OffGreedy,
    ] {
        let r = pkg_sim::run(&spec, &SimConfig::new(7, 3, scheme.clone()));
        assert_eq!(r.worker_loads.iter().sum::<u64>(), 80_000, "{} lost messages", scheme.label());
    }
}

#[test]
fn replication_bounds_per_scheme() {
    let spec = DatasetProfile::lognormal2().with_messages(120_000).build(6);
    let rep = |scheme: SchemeSpec| {
        pkg_sim::run(&spec, &SimConfig::new(8, 2, scheme).with_replication())
            .replication
            .expect("tracking on")
    };
    let kg = rep(SchemeSpec::KeyGrouping);
    let pkg = rep(SchemeSpec::pkg(EstimateKind::Local));
    let sg = rep(SchemeSpec::ShuffleGrouping);
    assert_eq!(kg.max, 1);
    assert!(pkg.max <= 2);
    assert!(pkg.total_pairs <= 2 * pkg.distinct_keys as u64);
    // LN2 keys are few and hot: shuffle touches nearly every worker.
    assert!(sg.avg > pkg.avg);
    assert!(sg.max as usize == 8);
}

#[test]
fn sweep_is_thread_count_invariant() {
    let spec = DatasetProfile::lognormal2().with_messages(30_000).build(7);
    let jobs: Vec<Job> = [1usize, 2, 3]
        .iter()
        .map(|&s| Job {
            spec: spec.clone(),
            cfg: SimConfig::new(6, s, SchemeSpec::pkg(EstimateKind::Local)),
        })
        .collect();
    let a = run_parallel(jobs.clone(), 1);
    let b = run_parallel(jobs, 3);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.worker_loads, y.worker_loads);
        assert_eq!(x.final_imbalance, y.final_imbalance);
    }
}
