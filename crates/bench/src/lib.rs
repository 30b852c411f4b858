//! Shared infrastructure for the experiment drivers.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (`table1`, `table2`, `fig2` … `fig5b`, plus ablations); this library
//! holds what they share: the one report harness every driver writes
//! through ([`Report`]), the experiment scale knob, and the worker/source
//! grids of §V.
//!
//! Environment knobs:
//! * `PKG_SCALE` — float multiplier on dataset sizes and message volumes
//!   (default 1.0; the defaults are already laptop-scaled, see
//!   `pkg-datagen`). Use e.g. `PKG_SCALE=0.05` for a smoke run.
//! * `PKG_THREADS` — sweep parallelism (default: available cores).
//! * `PKG_SEED` — experiment seed (default 42).
//! * `PKG_RESULTS_DIR` — where reports are written (default `results/`).
//!
//! The manual `calibrate` utility also reads `PKG_CALIBRATE_TRIES`.

#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};
use std::fs;
use std::path::PathBuf;

/// Worker grid used throughout §V: `W ∈ {5, 10, 50, 100}`.
pub const WORKER_GRID: [usize; 4] = [5, 10, 50, 100];

/// Source grid of Fig. 2/4: `S ∈ {5, 10, 15, 20}`.
pub const SOURCE_GRID: [usize; 4] = [5, 10, 15, 20];

/// Every driver `run_all` runs, in order: each binary under `src/bin/`
/// except `run_all` itself and the manual `calibrate` utility.
pub const DRIVERS: [&str; 18] = [
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
    "fig_elastic",
    "fig_hetero",
    "fig_overload",
    "engine_scale",
    "theory_bounds",
    "ablation_d",
    "ablation_estimator",
    "jaccard",
];

/// The experiment scale factor from `PKG_SCALE`.
pub fn scale() -> f64 {
    std::env::var("PKG_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// The sweep thread count from `PKG_THREADS`.
pub fn threads() -> usize {
    std::env::var("PKG_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(pkg_sim::sweep::default_threads)
}

/// The experiment seed from `PKG_SEED`.
pub fn seed() -> u64 {
    std::env::var("PKG_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Apply the global scale to a profile.
pub fn scaled(profile: pkg_datagen::DatasetProfile) -> pkg_datagen::DatasetProfile {
    let s = scale();
    if (s - 1.0).abs() < f64::EPSILON {
        profile
    } else {
        profile.scale(s)
    }
}

/// Apply the global scale to a message volume the way [`scaled`] scales a
/// profile's (truncated, at least 1; unchanged at scale 1).
pub fn scaled_messages(messages: u64) -> u64 {
    ((messages as f64 * scale()) as u64).max(1)
}

/// The TSV block of simulator `reports`: the `SimReport` header, then one
/// row per report.
pub fn sim_tsv<'a>(reports: impl IntoIterator<Item = &'a pkg_sim::SimReport>) -> String {
    let mut tsv = format!("{}\n", pkg_sim::SimReport::tsv_header());
    for r in reports {
        tsv.push_str(&r.tsv_row());
        tsv.push('\n');
    }
    tsv
}

/// Where experiment outputs are written (`results/` beside the workspace
/// root, overridable with `PKG_RESULTS_DIR`).
fn results_dir() -> PathBuf {
    let dir = std::env::var("PKG_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("results dir is creatable");
    p
}

/// One driver run: the text it prints and writes to `results/<name>.tsv`,
/// and the verdict of its gates.
///
/// ```no_run
/// use std::fmt::Write as _;
/// let mut r = pkg_bench::Report::start("fig_x", "fig_x: what it measures");
/// let _ = writeln!(r, "# seed=42{}", r.smoke_tag());
/// r.check("the property holds", true);
/// r.finish("col\n1\n"); // exits 1 if any check failed
/// ```
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    smoke: bool,
    out: String,
    failed: usize,
}

impl Report {
    /// Start the report of driver `name`: `--smoke` is read from the
    /// command line here, once, and `# {title}` becomes the first line.
    pub fn start(name: &'static str, title: &str) -> Self {
        Self::with_args(name, title, std::env::args())
    }

    fn with_args(name: &'static str, title: &str, args: impl IntoIterator<Item = String>) -> Self {
        let smoke = args.into_iter().any(|a| a == "--smoke");
        Self { name, smoke, out: format!("# {title}\n"), failed: 0 }
    }

    /// Whether the driver was started with `--smoke`.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// `" (smoke)"` in smoke mode, empty otherwise: the suffix of a gated
    /// driver's parameter line.
    pub fn smoke_tag(&self) -> &'static str {
        if self.smoke {
            " (smoke)"
        } else {
            ""
        }
    }

    /// Append raw text (a rendered table, a comment block).
    pub fn push_str(&mut self, s: &str) {
        self.out.push_str(s);
    }

    /// Record one gate as the line `check: {label} .. OK|FAIL`; returns
    /// `passed`.
    pub fn check(&mut self, label: impl fmt::Display, passed: bool) -> bool {
        let _ = writeln!(self.out, "check: {label} .. {}", if passed { "OK" } else { "FAIL" });
        self.failed += usize::from(!passed);
        passed
    }

    /// Whether every check so far passed: the verdict `finish` exits on.
    fn passed(&self) -> bool {
        self.failed == 0
    }

    /// Append `tsv` after a blank line (when non-empty), write the report
    /// to `results/<name>.tsv`, echo it to stdout, and exit with status 1
    /// if any check failed.
    pub fn finish(mut self, tsv: &str) {
        if !tsv.is_empty() {
            self.out.push('\n');
            self.out.push_str(tsv);
        }
        let path = results_dir().join(format!("{}.tsv", self.name));
        fs::write(&path, &self.out).expect("results file is writable");
        println!("{}", self.out);
        eprintln!("[written {}]", path.display());
        if !self.passed() {
            eprintln!("{}: checks FAILED", self.name);
            std::process::exit(1);
        }
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

/// A minimal fixed-width table builder for terminal output.
#[derive(Debug, Default)]
pub struct TextTable {
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a row.
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Render with per-column alignment.
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", cell, width = widths[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Format a float the way the paper's tables do: plain for small values,
/// scientific for large ones (e.g. `1.6e6`).
pub fn paper_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() < 1_000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.1e}")
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_num_formats() {
        assert_eq!(paper_num(0.0), "0");
        assert_eq!(paper_num(0.8), "0.8");
        assert_eq!(paper_num(92.7), "92.7");
        assert_eq!(paper_num(1_600_000.0), "1.6e6");
    }

    #[test]
    fn checks_render_one_line_each() {
        let mut r = Report::with_args("t", "t: title", args(&["t"]));
        assert!(r.check("a holds", true));
        assert!(!r.check(format_args!("b = {} holds", 2), false));
        assert_eq!(r.out, "# t: title\ncheck: a holds .. OK\ncheck: b = 2 holds .. FAIL\n");
    }

    #[test]
    fn one_failed_check_fails_the_run() {
        let mut r = Report::with_args("t", "t", args(&["t"]));
        assert!(r.passed(), "a run without checks passes");
        r.check("first", true);
        r.check("second", false);
        r.check("third", true);
        assert!(!r.passed());

        let mut all = Report::with_args("t", "t", args(&["t"]));
        all.check("first", true);
        all.check("second", true);
        assert!(all.passed());
    }

    #[test]
    fn smoke_flag_is_read_once_at_start() {
        let reads = Cell::new(0);
        let argv =
            args(&["t", "--smoke", "extra"]).into_iter().inspect(|_| reads.set(reads.get() + 1));
        let r = Report::with_args("t", "t", argv);
        assert_eq!(reads.get(), 2, "parsing stops at the flag");
        assert!(r.smoke() && r.smoke());
        assert_eq!(r.smoke_tag(), " (smoke)");
        assert_eq!(reads.get(), 2, "queries never re-read the command line");

        let full = Report::with_args("t", "t", args(&["t", "--smokey"]));
        assert!(!full.smoke());
        assert_eq!(full.smoke_tag(), "");
    }

    #[test]
    fn drivers_lists_every_binary_but_run_all_and_calibrate() {
        let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = fs::read_dir(&bin)
            .expect("src/bin is readable")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().expect("file stem").to_string_lossy().into_owned())
            .filter(|s| s != "run_all" && s != "calibrate")
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = DRIVERS.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, on_disk);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new();
        t.row(["a", "bb"]).row(["ccc", "d"]);
        let r = t.render();
        assert_eq!(r, "  a  bb\nccc   d\n");
    }
}
