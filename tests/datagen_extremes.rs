//! Generator edge cases: extreme skews, tiny key spaces, sampler
//! cross-checks, paper-scale parameters.

use pkg_datagen::zipf::{fit_exponent, harmonic, ZipfRejection, ZipfTable};
use pkg_datagen::DatasetProfile;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn sub_one_exponent_rejection_matches_table() {
    // Flat-ish Zipf (s < 1) exercises the rejection sampler's other branch.
    let (k, s) = (5_000u64, 0.6);
    let table = ZipfTable::new(k, s);
    let rej = ZipfRejection::new(k, s);
    let mut ra = SmallRng::seed_from_u64(1);
    let mut rb = SmallRng::seed_from_u64(2);
    let n = 200_000;
    let (mut ha, mut hb) = (vec![0u64; 10], vec![0u64; 10]);
    for _ in 0..n {
        ha[(table.sample(&mut ra) * 10 / k) as usize] += 1;
        hb[(rej.sample(&mut rb) * 10 / k) as usize] += 1;
    }
    // Decile histograms agree within 2%.
    for (a, b) in ha.iter().zip(&hb) {
        let diff = (*a as f64 - *b as f64).abs() / n as f64;
        assert!(diff < 0.02, "decile divergence {diff}");
    }
}

#[test]
fn exponent_fit_covers_extreme_targets() {
    // Near-uniform and near-degenerate head probabilities both fit.
    let s_low = fit_exponent(1_000, 0.0015);
    let s_high = fit_exponent(1_000, 0.9);
    assert!(s_low < 0.6, "s = {s_low}");
    assert!(s_high > 3.0, "s = {s_high}");
    for (k, p1) in [(100u64, 0.02), (1_000_000, 0.0932)] {
        let s = fit_exponent(k, p1);
        let achieved = 1.0 / harmonic(k, s);
        assert!((achieved - p1).abs() / p1 < 1e-5);
    }
}

#[test]
fn two_key_stream_is_sane() {
    // WP's p1 = 9.32% is unattainable with two keys (minimum is 1/k = 50%);
    // build a two-key profile with a 70% head instead.
    let profile = pkg_datagen::profiles::DatasetProfile {
        name: "2K".into(),
        messages: 10_000,
        keys: 2,
        target_p1: Some(0.7),
        duration_hours: 1.0,
        kind: pkg_datagen::profiles::ProfileKind::Zipf,
    };
    let spec = profile.build(1);
    let mut counts = [0u64; 2];
    for m in spec.iter(2) {
        counts[m.key as usize] += 1;
    }
    assert_eq!(counts[0] + counts[1], 10_000);
    assert!(counts[0] > counts[1], "rank 0 must dominate");
    let frac = counts[0] as f64 / 10_000.0;
    assert!((frac - 0.7).abs() < 0.02, "head fraction = {frac}");
}

#[test]
fn paper_scale_twitter_uses_rejection_sampler_without_blowup() {
    // 31M keys would need a 250MB CDF table; the profile must build with
    // O(1) memory and still match p1. Keep the message count tiny.
    let spec = DatasetProfile::twitter().with_keys(31_000_000).with_messages(200_000).build(1);
    assert_eq!(spec.key_space(), 31_000_000);
    let p1 = spec.p1().expect("rejection sampler knows p1");
    assert!((p1 - 0.0267).abs() < 1e-3, "p1 = {p1}");
    let mut max_key = 0;
    for m in spec.iter(3) {
        max_key = max_key.max(m.key);
    }
    assert!(max_key < 31_000_000);
}

#[test]
fn drift_changes_head_key_identity_between_epochs() {
    let spec = DatasetProfile::cashtags().build(4);
    // Count the head key of the first and last deciles of the stream.
    let msgs: Vec<_> = spec.iter(5).collect();
    let head_of = |slice: &[pkg_datagen::Message]| -> u64 {
        let mut c: std::collections::HashMap<u64, u64> = Default::default();
        for m in slice {
            *c.entry(m.key).or_default() += 1;
        }
        c.into_iter().max_by_key(|&(_, v)| v).expect("non-empty").0
    };
    let n = msgs.len();
    let early = head_of(&msgs[..n / 10]);
    let late = head_of(&msgs[9 * n / 10..]);
    assert_ne!(early, late, "600 hours of weekly drift must rotate the head cashtag");
}

#[test]
fn graph_stream_source_keys_differ_from_worker_keys() {
    let spec = DatasetProfile::slashdot2().with_messages(20_000).build(6);
    let mut same = 0u64;
    let mut total = 0u64;
    for m in spec.iter(7) {
        if m.key == m.source_key {
            same += 1; // self-loop edge
        }
        total += 1;
    }
    // Self-loops exist but are rare.
    assert!(same * 10 < total, "{same}/{total} self-loops");
}

#[test]
fn scaled_profiles_preserve_p1() {
    for scale in [0.1f64, 0.5, 2.0] {
        let spec = DatasetProfile::wikipedia().scale(scale).build(1);
        let p1 = spec.p1().expect("zipf p1 known");
        assert!((p1 - 0.0932).abs() < 1e-6, "scale {scale}: p1 = {p1}");
    }
}
