//! Run every experiment driver in sequence, writing all outputs under
//! `results/`. Honors `PKG_SCALE` / `PKG_SEED` / `PKG_THREADS`.
//!
//! ```text
//! cargo run --release -p pkg-bench --bin run_all
//! ```

use std::process::Command;

const DRIVERS: [&str; 16] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5a",
    "fig5b",
    "fig5_overhead",
    "fig_dchoices",
    "fig_drift",
    "fig_hetero",
    "fig_overload",
    "theory_bounds",
    "ablation_d",
    "ablation_estimator",
    "jaccard",
];

fn main() {
    // Sibling binaries live next to this one.
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe has a parent dir").to_path_buf();
    let mut failed = Vec::new();
    for driver in DRIVERS {
        let path = dir.join(driver);
        eprintln!("== running {driver} ==");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{driver} exited with {s}");
                failed.push(driver);
            }
            Err(e) => {
                eprintln!("{driver} failed to start: {e} (build with --bins first)");
                failed.push(driver);
            }
        }
    }
    if failed.is_empty() {
        eprintln!("all drivers completed; outputs in results/");
    } else {
        eprintln!("failed drivers: {failed:?}");
        std::process::exit(1);
    }
}
