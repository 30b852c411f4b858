//! **Theorems 4.1 / 4.2** — empirical check of the imbalance bounds.
//!
//! Theorem 4.1: with `n` bins, `m ≥ n²` balls and maximum key probability
//! `p1 ≤ 1/(5n)`, the Greedy-d process has
//! `I(m) = O(m/n · ln n / ln ln n)` for `d = 1` and `I(m) = O(m/n)` for
//! `d ≥ 2`, with matching lower bounds (Theorem 4.2, via the uniform
//! distribution over `5n` keys).
//!
//! This driver runs the lower-bound construction (uniform over `5n` keys,
//! `m = 40·n²` balls) across `n`, and reports the normalized imbalance
//! `I(m)·n/m`. For `d ≥ 2` that ratio should stay ~constant in `n`; for
//! `d = 1` it should grow like `ln n / ln ln n`.

use pkg_bench::{seed, threads, Report, TextTable};
use pkg_core::{CandidatePolicy, EstimateKind, SchemeSpec};
use pkg_datagen::profiles::ProfileKind;
use pkg_datagen::DatasetProfile;
use pkg_sim::sweep::{run_parallel, Job};
use pkg_sim::SimConfig;

fn main() {
    let ns: [usize; 5] = [8, 16, 32, 64, 128];
    let ds: [usize; 3] = [1, 2, 3];

    let mut jobs = Vec::new();
    let mut meta = Vec::new();
    for &n in &ns {
        let keys = 5 * n as u64;
        let m = 40 * (n as u64) * (n as u64);
        // Uniform distribution over 5n keys = Zipf with exponent 0; the
        // profile machinery needs a p1 target, so fit p1 = 1/keys + ε.
        let profile = DatasetProfile {
            name: format!("U{n}"),
            messages: m,
            keys,
            target_p1: Some(1.0 / keys as f64 * 1.0001),
            duration_hours: 1.0,
            kind: ProfileKind::Zipf,
        };
        let spec = profile.build(seed());
        for &d in &ds {
            meta.push((n, d, m));
            let policy = CandidatePolicy::Fixed(d);
            let scheme = SchemeSpec::Greedy { policy, estimate: EstimateKind::Global };
            jobs.push(Job {
                spec: spec.clone(),
                cfg: SimConfig::new(n, 1, scheme).with_seed(seed()),
            });
        }
    }
    let reports = run_parallel(jobs, threads());

    let mut r = Report::start(
        "theory_bounds",
        "Theorem 4.1/4.2: normalized imbalance I(m)*n/m on the uniform(5n) lower-bound construction, m = 40n^2",
    );
    let mut table = TextTable::new();
    table.row(["n", "m", "d=1: I*n/m", "d=2: I*n/m", "d=3: I*n/m", "ln n/ln ln n"]);
    for (i, &n) in ns.iter().enumerate() {
        let m = meta[i * ds.len()].2;
        let mut row = vec![format!("{n}"), format!("{m}")];
        for di in 0..ds.len() {
            let imbalance = reports[i * ds.len() + di].final_imbalance;
            row.push(format!("{:.3}", imbalance * n as f64 / m as f64));
        }
        let lnn = (n as f64).ln();
        row.push(format!("{:.3}", lnn / lnn.ln()));
        table.row(row);
    }
    r.push_str(&table.render());
    r.push_str("\n# expectation: the d=1 column grows with n (tracking ln n/ln ln n);\n");
    r.push_str("# the d>=2 columns stay bounded by a constant.\n");
    r.finish("");
}
