//! **Figure 4** — Fraction of average imbalance with uniform and skewed
//! splitting of the input keys on the sources when using the LJ graph.
//!
//! The edge stream of a LiveJournal-like social graph is partitioned onto
//! the *sources* by key grouping on the source vertex (skewed: sources see
//! the out-degree distribution) or by shuffle grouping (uniform); the
//! sources then route to workers by PKG on the destination vertex (workers
//! see the in-degree distribution). Series: `S ∈ {5,10,15,20}` sources,
//! uniform vs skewed; X-axis: `W ∈ {5,10,50,100}`.
//!
//! What must reproduce: "On average, the imbalance generated by the skew on
//! sources is similar to the one obtained with uniform splitting … it
//! remains at very low absolute values" — i.e. PKG's local estimation is
//! robust to sources forwarding uneven shares of the stream. We also run
//! the SL1/SL2 graphs (the paper omits their plots as "similar to LJ").

use std::fmt::Write as _;

use pkg_bench::{scaled, seed, threads, Report, TextTable, SOURCE_GRID, WORKER_GRID};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::source::SourceAssignment;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let datasets = [
        scaled(DatasetProfile::livejournal()),
        scaled(DatasetProfile::slashdot1()),
        scaled(DatasetProfile::slashdot2()),
    ];
    let assignments =
        [("Uniform", SourceAssignment::RoundRobin), ("Skewed", SourceAssignment::KeyHash)];

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for profile in &datasets {
        let spec = profile.build(seed());
        for (alabel, assignment) in &assignments {
            for &s in &SOURCE_GRID {
                for &w in &WORKER_GRID {
                    meta.push((profile.name.clone(), alabel.to_string(), s, w));
                    jobs.push(Job {
                        spec: spec.clone(),
                        cfg: SimConfig::new(w, s, SchemeSpec::pkg(EstimateKind::Local))
                            .with_seed(seed())
                            .with_assignment(*assignment),
                    });
                }
            }
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "fig4",
        "Figure 4: PKG imbalance fraction with uniform vs skewed source assignment (graph streams)",
    );
    let _ = writeln!(r, "# scale={} seed={}", pkg_bench::scale(), seed());
    let mut table = TextTable::new();
    table.row(["dataset", "assignment", "S", "W=5", "W=10", "W=50", "W=100"]);
    for chunk in (0..reports.len()).step_by(WORKER_GRID.len()) {
        let (ds, alabel, s, _) = &meta[chunk];
        let mut row = vec![ds.clone(), alabel.clone(), format!("{s}")];
        for wi in 0..WORKER_GRID.len() {
            row.push(format!("{:.3e}", reports[chunk + wi].final_fraction));
        }
        table.row(row);
    }
    r.push_str(&table.render());
    let mut tsv = format!("{}\n", pkg_sim::SimReport::tsv_header());
    for ((_, alabel, _, _), rep) in meta.iter().zip(&reports) {
        let _ = writeln!(tsv, "{}\t{alabel}", rep.tsv_row());
    }
    r.finish(&tsv);
}
