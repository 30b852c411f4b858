//! **Figure 3** — Fraction of imbalance through time for different datasets,
//! techniques, and number of workers, with `S = 5` sources.
//!
//! Panels: TW and WP over ~30–40 simulated hours, CT over ~600 hours;
//! columns W = 10 and W = 50. Series: `G` (global oracle), `L5` (local
//! estimation, 5 sources), `L5P1` (local + probing the true loads every
//! simulated minute).
//!
//! What must reproduce: G and L5 track each other closely (local estimation
//! is as good as the oracle — the paper measures only 47% Jaccard overlap in
//! their *choices* yet indistinguishable imbalance); probing (L5P1) brings
//! no improvement; for WP at W = 50 every technique collapses to the same
//! high imbalance (past the O(1/p1) limit); CT shows drift-induced spikes
//! that all techniques absorb.

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, threads, Report};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let sources = 5;
    let techniques: Vec<(&str, SchemeSpec)> = vec![
        ("G", SchemeSpec::pkg(EstimateKind::Global)),
        ("L5", SchemeSpec::pkg(EstimateKind::Local)),
        ("L5P1", SchemeSpec::pkg(EstimateKind::Probing { period_ms: 60_000 })),
    ];
    let datasets = [
        scaled(DatasetProfile::twitter()),
        scaled(DatasetProfile::wikipedia()),
        scaled(DatasetProfile::cashtags()),
    ];
    let workers = [10usize, 50];

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for profile in &datasets {
        let spec = profile.build(seed());
        for &w in &workers {
            for (label, scheme) in &techniques {
                meta.push((profile.name.clone(), w, label.to_string()));
                jobs.push(Job {
                    spec: spec.clone(),
                    cfg: SimConfig::new(w, sources, scheme.clone())
                        .with_seed(seed())
                        .with_snapshots(400),
                });
            }
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "fig3",
        "Figure 3: fraction of imbalance through time; long format: dataset\ttechnique\tworkers\thours\tfraction",
    );
    let _ = writeln!(r, "# scale={} seed={} sources={}", pkg_bench::scale(), seed(), sources);
    r.push_str("dataset\ttechnique\tworkers\thours\tfraction\n");
    for ((ds, w, label), rep) in meta.iter().zip(&reports) {
        for &(hours, frac) in rep.series.points() {
            let _ = writeln!(r, "{ds}\t{label}\t{w}\t{hours:.3}\t{frac:.4e}");
        }
    }
    // Compact summary for the terminal: mean fraction per series.
    r.push_str("\n# summary: mean fraction over time\n");
    for ((ds, w, label), rep) in meta.iter().zip(&reports) {
        let _ = writeln!(
            r,
            "# {ds} W={w} {label}: mean={:.3e} final={:.3e}",
            rep.series.mean_value(),
            rep.final_fraction
        );
    }
    r.finish("");
}
