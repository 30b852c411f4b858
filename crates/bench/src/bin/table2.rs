//! **Table II** — Average imbalance when varying the number of workers for
//! the Wikipedia and Twitter datasets.
//!
//! Paper values (average imbalance in messages):
//!
//! ```text
//! Dataset            WP                          TW
//! W          5    10    50     100      5     10    50     100
//! PKG        0.8  2.9   5.9e5  8.0e5    0.4   1.7   2.74   4.0e6
//! Off-Greedy 0.8  0.9   1.6e6  1.8e6    0.4   0.7   7.8e6  2.0e7
//! On-Greedy  7.8  1.4e5 1.6e6  1.8e6    8.4   92.7  1.2e7  2.0e7
//! PoTC       15.8 1.7e5 1.6e6  1.8e6    2.2e4 5.1e3 1.4e7  2.0e7
//! Hashing    1.4e6 1.7e6 2.0e6 2.0e6    4.1e7 3.7e7 2.4e7  3.3e7
//! ```
//!
//! What must reproduce (shapes, not absolute values — our streams are
//! synthetic and scaled): the row ordering PKG ≤ Off-Greedy ≤ On-Greedy ≤
//! PoTC ≪ Hashing at small W; the binary transition to large imbalance once
//! W exceeds O(1/p1) (around 50 for WP: 1/0.0932 ≈ 11 → between 10 and 50);
//! and PKG beating even the offline greedy at moderate W thanks to key
//! splitting.

use std::fmt::Write as _;

use pkg_bench::{paper_num, scaled, seed, sim_tsv, threads, Report, TextTable, WORKER_GRID};
use pkg_core::{EstimateKind, SchemeSpec};
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let schemes: Vec<(&str, SchemeSpec)> = vec![
        ("PKG", SchemeSpec::pkg(EstimateKind::Global)),
        ("Off-Greedy", SchemeSpec::OffGreedy),
        ("On-Greedy", SchemeSpec::OnGreedy { estimate: EstimateKind::Global }),
        ("PoTC", SchemeSpec::StaticPotc { estimate: EstimateKind::Global }),
        ("Hashing", SchemeSpec::KeyGrouping),
    ];
    let datasets = [scaled(DatasetProfile::wikipedia()), scaled(DatasetProfile::twitter())];

    let mut jobs = Vec::new();
    for profile in &datasets {
        let spec = profile.build(seed());
        for (_, scheme) in &schemes {
            for &w in &WORKER_GRID {
                // Table II is a single-source experiment (the techniques
                // PoTC/On-Greedy need coordinated state, cf. §V-B Q4 note).
                jobs.push(Job {
                    spec: spec.clone(),
                    cfg: SimConfig::new(w, 1, scheme.clone()).with_seed(seed()),
                });
            }
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start("table2", "Table II: average imbalance varying workers (WP, TW)");
    r.push_str("# Metric: imbalance at end of stream, I(m). The paper calls its metric\n");
    r.push_str("# \"average imbalance measured throughout the simulation\", but its values\n");
    r.push_str("# (e.g. Off-Greedy 0.8 on 22M messages) are only consistent with the\n");
    r.push_str("# end-of-stream imbalance of a static assignment; the time-average of the\n");
    r.push_str("# cumulative imbalance is reported in the TSV rows below as avg_imbalance.\n");
    let _ = writeln!(r, "# scale={} seed={}", pkg_bench::scale(), seed());
    let mut table = TextTable::new();
    let mut header = vec!["Dataset".to_string()];
    for ds in &datasets {
        for &w in &WORKER_GRID {
            header.push(format!("{}/W={}", ds.name, w));
        }
    }
    table.row(header);

    let per = WORKER_GRID.len();
    let per_ds = per * schemes.len();
    for (si, (name, _)) in schemes.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for di in 0..datasets.len() {
            for wi in 0..per {
                row.push(paper_num(reports[di * per_ds + si * per + wi].final_imbalance));
            }
        }
        table.row(row);
    }
    r.push_str(&table.render());
    r.finish(&sim_tsv(&reports));
}
