//! **Ablation: load-estimation strategy** — Q2 of the evaluation.
//!
//! "We compare our local estimation strategy with a variant that makes use
//! of periodic probing of workers' load every minute (L5P1). Probing
//! removes any inconsistency in the load estimates … However, interestingly,
//! this technique does not improve the load balance. Even increasing the
//! frequency of probing does not reduce imbalance. In conclusion, local
//! information is sufficient."
//!
//! This driver sweeps the estimator axis on WP and TW with `W = 10`:
//! the global oracle (G), local estimation with `S ∈ {1..20}` sources, and
//! probing at periods from 15 s to 60 min.

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, threads, Report, TextTable};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let datasets = [
        scaled(DatasetProfile::wikipedia()).scale(0.2),
        scaled(DatasetProfile::twitter()).scale(0.2),
    ];
    let w = 10usize;

    // (label, sources, estimate)
    let mut variants: Vec<(String, usize, EstimateKind)> =
        vec![("G".into(), 5, EstimateKind::Global)];
    for s in [1usize, 5, 10, 20] {
        variants.push((format!("L{s}"), s, EstimateKind::Local));
    }
    for minutes in [0.25f64, 1.0, 5.0, 15.0, 60.0] {
        let period_ms = (minutes * 60_000.0) as u64;
        variants.push((format!("L5P{minutes}"), 5, EstimateKind::Probing { period_ms }));
    }

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for profile in &datasets {
        let spec = profile.build(seed());
        for (label, sources, estimate) in &variants {
            meta.push((profile.name.clone(), label.clone()));
            jobs.push(Job {
                spec: spec.clone(),
                cfg: SimConfig::new(w, *sources, SchemeSpec::pkg(*estimate)).with_seed(seed()),
            });
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "ablation_estimator",
        "Ablation: estimator strategies for PKG (W=10): oracle vs local vs probing",
    );
    let _ = writeln!(r, "# scale={} seed={}", pkg_bench::scale(), seed());
    let mut table = TextTable::new();
    table.row(["dataset", "estimator", "final_imbalance", "final_fraction"]);
    for ((ds, label), rep) in meta.iter().zip(&reports) {
        table.row([
            ds.clone(),
            label.clone(),
            format!("{:.1}", rep.final_imbalance),
            format!("{:.3e}", rep.final_fraction),
        ]);
    }
    r.push_str(&table.render());
    r.push_str("\n# expectation: every L/LP row is within one order of magnitude of G;\n");
    r.push_str("# probing frequency does not matter (the paper's Q2 conclusion).\n");
    r.finish("");
}
