//! **Ablation: number of choices `d`** — "the theoretical gain in load
//! balance with two choices is exponential compared to a single choice.
//! However, using more than two choices only brings constant factor
//! improvements. Therefore, we restrict our study to two choices" (§III).
//!
//! This driver quantifies that design decision on the WP and TW profiles:
//! `d = 1` (key grouping) vs `d = 2` (PKG) is orders of magnitude; `d > 2`
//! buys little. `d → W` approaches shuffle grouping (imbalance ≤ S).
//! It also reports the key-replication cost of larger `d` — the *memory*
//! side of the trade-off, which is the reason the paper stops at 2.

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, threads, Report, TextTable};
use pkg_core::{CandidatePolicy, EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let ds: [usize; 6] = [1, 2, 3, 4, 8, 16];
    let workers = [10usize, 50];
    let datasets = [
        scaled(DatasetProfile::wikipedia()).scale(0.2), // keep the sweep quick
        scaled(DatasetProfile::twitter()).scale(0.2),
    ];

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for profile in &datasets {
        let spec = profile.build(seed());
        for &w in &workers {
            for &d in &ds {
                meta.push((profile.name.clone(), w, d));
                let policy = CandidatePolicy::Fixed(d);
                let scheme = SchemeSpec::Greedy { policy, estimate: EstimateKind::Local };
                let mut cfg = SimConfig::new(w, 5, scheme).with_seed(seed());
                cfg.track_replication = true;
                jobs.push(Job { spec: spec.clone(), cfg });
            }
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "ablation_d",
        "Ablation: PKG with d choices (imbalance fraction and replication)",
    );
    let _ = writeln!(r, "# scale={} seed={} S=5", pkg_bench::scale(), seed());
    let mut table = TextTable::new();
    table.row(["dataset", "W", "d", "final_fraction", "avg_replication", "key_worker_pairs"]);
    for ((ds_name, w, d), report) in meta.iter().zip(&reports) {
        let rep = report.replication.as_ref().expect("replication tracked");
        table.row([
            ds_name.clone(),
            format!("{w}"),
            format!("{d}"),
            format!("{:.3e}", report.final_fraction),
            format!("{:.3}", rep.avg),
            format!("{}", rep.total_pairs),
        ]);
    }
    r.push_str(&table.render());
    r.finish("");
}
