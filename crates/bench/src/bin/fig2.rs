//! **Figure 2** — Fraction of average imbalance with respect to total number
//! of messages for each dataset, for different number of workers and number
//! of sources.
//!
//! Panels (left to right): TW, WP, CT, LN1, LN2. X-axis: workers
//! `W ∈ {5, 10, 50, 100}`. Series: `H` (hashing), `G` (PKG with a global
//! load oracle), `L5/L10/L15/L20` (PKG with local estimation and
//! `S ∈ {5,10,15,20}` sources).
//!
//! What must reproduce: `H` imposes a high imbalance fraction everywhere
//! (around 10⁻¹–10⁻²); PKG variants sit orders of magnitude lower
//! (10⁻⁵–10⁻⁹ depending on dataset/scale); `L` is within one order of
//! magnitude of `G` and insensitive to the number of sources; all
//! techniques collapse to the same high imbalance once `W` exceeds the
//! `O(1/p1)` limit of §IV (visible for WP at `W = 50,100`, CT at 50).

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, sim_tsv, threads, Report, TextTable, SOURCE_GRID, WORKER_GRID};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    // (label, sources, scheme)
    let mut techniques: Vec<(String, usize, SchemeSpec)> = vec![
        ("H".into(), 1, SchemeSpec::KeyGrouping),
        ("G".into(), 5, SchemeSpec::pkg(EstimateKind::Global)),
    ];
    for &s in &SOURCE_GRID {
        techniques.push((format!("L{s}"), s, SchemeSpec::pkg(EstimateKind::Local)));
    }

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for profile in DatasetProfile::figure2_profiles() {
        let profile = scaled(profile);
        let spec = profile.build(seed());
        for (label, sources, scheme) in &techniques {
            for &w in &WORKER_GRID {
                meta.push((profile.name.clone(), label.clone(), w));
                jobs.push(Job {
                    spec: spec.clone(),
                    cfg: SimConfig::new(w, *sources, scheme.clone()).with_seed(seed()),
                });
            }
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "fig2",
        "Figure 2: fraction of average imbalance vs workers, per dataset and technique",
    );
    let _ = writeln!(r, "# scale={} seed={}", pkg_bench::scale(), seed());
    let mut table = TextTable::new();
    table.row(["dataset", "technique", "W=5", "W=10", "W=50", "W=100"]);
    for chunk_start in (0..reports.len()).step_by(WORKER_GRID.len()) {
        let (ds, label, _) = &meta[chunk_start];
        let mut row = vec![ds.clone(), label.clone()];
        for wi in 0..WORKER_GRID.len() {
            row.push(format!("{:.3e}", reports[chunk_start + wi].final_fraction));
        }
        table.row(row);
    }
    r.push_str(&table.render());
    r.finish(&sim_tsv(&reports));
}
