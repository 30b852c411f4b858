//! The paper's headline claims, asserted end-to-end at test scale.
//!
//! Each test names the claim and the paper section it comes from. These are
//! the "does the reproduction actually reproduce" tests; the quantitative
//! versions live in `EXPERIMENTS.md`.

use partial_key_grouping::prelude::*;

/// §I/abstract: "Compared to standard hashing, PKG reduces the load
/// imbalance by up to several orders of magnitude."
#[test]
fn orders_of_magnitude_vs_hashing() {
    let spec = DatasetProfile::wikipedia().with_messages(400_000).with_keys(40_000).build(2);
    let pkg = pkg_sim::run(&spec, &SimConfig::new(10, 5, SchemeSpec::pkg(EstimateKind::Local)));
    let h = pkg_sim::run(&spec, &SimConfig::new(10, 1, SchemeSpec::KeyGrouping));
    assert!(
        pkg.final_imbalance * 100.0 < h.final_imbalance,
        "PKG {} vs H {} is not ≥ 2 orders of magnitude",
        pkg.final_imbalance,
        h.final_imbalance
    );
}

/// §V-B (Table II discussion): "Interestingly, PKG performs even better
/// than Off-Greedy" — key splitting beats any single-worker assignment,
/// including the offline one, once W is large enough that the head keys
/// dominate single workers.
#[test]
fn key_splitting_beats_offline_assignment_at_large_w() {
    let spec = DatasetProfile::wikipedia().with_messages(400_000).with_keys(40_000).build(3);
    // 2/p1 ≈ 21: at W = 50, single-worker assignments are doomed but key
    // splitting still halves the head key.
    let pkg = pkg_sim::run(&spec, &SimConfig::new(50, 1, SchemeSpec::pkg(EstimateKind::Global)));
    let off = pkg_sim::run(&spec, &SimConfig::new(50, 1, SchemeSpec::OffGreedy));
    assert!(
        pkg.final_imbalance < off.final_imbalance,
        "PKG {} vs Off-Greedy {}",
        pkg.final_imbalance,
        off.final_imbalance
    );
}

/// §III-A: "key splitting … reduces the memory usage and aggregation
/// overhead compared to shuffle grouping: each key is assigned to exactly
/// [at most] two PEIs."
#[test]
fn memory_claim_2k_vs_wk() {
    let spec = DatasetProfile::lognormal1().with_messages(200_000).with_keys(2_000).build(4);
    let w = 10;
    let stats = |scheme: SchemeSpec| {
        pkg_sim::run(&spec, &SimConfig::new(w, 2, scheme).with_replication())
            .replication
            .expect("tracked")
    };
    let kg = stats(SchemeSpec::KeyGrouping);
    let pkg = stats(SchemeSpec::pkg(EstimateKind::Local));
    let sg = stats(SchemeSpec::ShuffleGrouping);
    let k = kg.distinct_keys as u64;
    assert_eq!(kg.total_pairs, k, "KG stores K counters");
    assert!(pkg.total_pairs <= 2 * k, "PKG stores ≤ 2K counters");
    // LN1's head keys repeat thousands of times; shuffle smears them over
    // every worker.
    assert!(
        sg.total_pairs > pkg.total_pairs * 2,
        "SG {} should far exceed PKG {}",
        sg.total_pairs,
        pkg.total_pairs
    );
}

/// §IV Theorem 4.1: d = 1 vs d ≥ 2 is an asymptotic separation; d > 2 is
/// only a constant factor (§III: "using more than two choices only brings
/// constant factor improvements").
#[test]
fn two_choices_suffice() {
    let n = 32;
    let keys = 5 * n as u64;
    let m = 50 * (n as u64) * (n as u64);
    let profile = pkg_datagen::profiles::DatasetProfile {
        name: "U".into(),
        messages: m,
        keys,
        target_p1: Some(1.0 / keys as f64 * 1.0001),
        duration_hours: 1.0,
        kind: pkg_datagen::profiles::ProfileKind::Zipf,
    };
    let spec = profile.build(5);
    let imb = |d: usize| {
        pkg_sim::run(
            &spec,
            &SimConfig::new(
                n,
                1,
                SchemeSpec::Greedy {
                    policy: pkg_core::CandidatePolicy::Fixed(d),
                    estimate: EstimateKind::Global,
                },
            ),
        )
        .final_imbalance
    };
    let d1 = imb(1);
    let d2 = imb(2);
    let d3 = imb(3);
    assert!(d2 * 5.0 < d1, "d=2 ({d2}) must crush d=1 ({d1})");
    // d=3 may improve on d=2, but only by a constant factor — and both stay
    // within O(m/n) of each other.
    assert!(d3 <= d2 + 2.0 * m as f64 / n as f64 / 100.0, "d3 = {d3}, d2 = {d2}");
}

/// §II-A: "SG provides excellent load balance by assigning an almost equal
/// number of messages to each PEI" — imbalance ≤ 1 per source.
#[test]
fn shuffle_imbalance_at_most_sources() {
    let spec = DatasetProfile::cashtags().with_messages(100_000).build(6);
    let sources = 4;
    let r = pkg_sim::run(&spec, &SimConfig::new(7, sources, SchemeSpec::ShuffleGrouping));
    assert!(r.final_imbalance <= sources as f64);
}

/// §VI-C: the merged SpaceSaving error with PKG "depends on the sum of only
/// two error terms, regardless of the parallelism level W".
#[test]
fn heavy_hitter_error_two_terms() {
    use partial_key_grouping::agg::SpaceSaving;
    let spec = DatasetProfile::cashtags().with_messages(200_000).build(7);
    let w = 12;
    let mut pkg = PartialKeyGrouping::new(w, 2, Estimate::local(w), 3);
    let mut workers: Vec<SpaceSaving> = (0..w).map(|_| SpaceSaving::new(128)).collect();
    let mut exact: std::collections::HashMap<u64, u64> = Default::default();
    for msg in spec.iter(8) {
        let dst = pkg.route(msg.key, msg.ts_ms);
        workers[dst].offer(msg.key, 1);
        *exact.entry(msg.key).or_default() += 1;
    }
    // Point queries gather exactly two summaries; their bounds bracket the
    // truth for the head keys.
    let mut head: Vec<(&u64, &u64)> = exact.iter().collect();
    head.sort_unstable_by(|a, b| b.1.cmp(a.1));
    for (key, &truth) in head.into_iter().take(10) {
        let cands: std::collections::BTreeSet<usize> = pkg.candidates(*key).into_iter().collect();
        assert!(cands.len() <= 2);
        let merged =
            cands.iter().map(|&i| &workers[i]).fold(SpaceSaving::new(128), |acc, s| acc.merge(s));
        let (est, err) = merged.estimate(*key);
        assert!(est >= truth, "estimate {est} below truth {truth}");
        assert!(est - err <= truth, "lower bound broken for {key}");
    }
}

/// The imbalance-through-time shape of Fig. 3: PKG's imbalance *fraction*
/// decreases (or stays flat) as the stream grows; hashing's does not
/// improve.
#[test]
fn fraction_trajectory_shapes() {
    let spec = DatasetProfile::lognormal2().with_messages(200_000).build(9);
    let pkg = pkg_sim::run(
        &spec,
        &SimConfig::new(5, 5, SchemeSpec::pkg(EstimateKind::Local)).with_snapshots(50),
    );
    let pts = pkg.series.points();
    let early: f64 =
        pts.iter().take(5).map(|&(_, v)| v).sum::<f64>() / pts.len().clamp(1, 5) as f64;
    let late_n = pts.len().min(5);
    let late: f64 =
        pts.iter().rev().take(late_n).map(|&(_, v)| v).sum::<f64>() / late_n.max(1) as f64;
    assert!(late <= early * 2.0 + 1e-6, "PKG fraction must not blow up: {early} -> {late}");
}
