//! Run every experiment driver ([`pkg_bench::DRIVERS`]) in sequence,
//! writing all outputs under `results/`. Honors `PKG_SCALE` / `PKG_SEED` /
//! `PKG_THREADS`.
//!
//! ```text
//! cargo run --release -p pkg-bench --bin run_all
//! ```

use std::process::{Command, ExitCode};

use pkg_bench::DRIVERS;

fn main() -> ExitCode {
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
        ExitCode::SUCCESS
    } else {
        eprintln!("failed drivers: {failed:?}");
        ExitCode::FAILURE
    }
}
