//! `perf_ledger agree A B`: do two result files of the same commit agree
//! within the benchmark's own bounds?
//!
//! A result file holds one record per workload, as `run --out` appends them.
//! Two files agree iff, for every workload and end-to-end metric, the
//! reported values differ by less than the metric's bound, and `max_load_pct` — a
//! count, not a timing — is bit-equal wherever the routing is deterministic
//! in the seed (every workload but `wc_optin_pool`, whose load signals are
//! fed by wall-clock service times).

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::END_TO_END;

/// The workload whose routing depends on timing.
const TIMING_FED: &str = "wc_optin_pool";

struct Record {
    workload: String,
    seed: f64,
    mode: String,
    /// Reported end-to-end values in `END_TO_END` order.
    values: Vec<f64>,
}

fn records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Value::parse(line)?;
        if v.get("trace").and_then(Value::as_bool) != Some(false) {
            continue; // a ledger record: per-layer metrics carry no bound
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result record lacks {k:?}"));
        let metrics = field("result")?.get("metrics").ok_or("result lacks metrics")?;
        let values = END_TO_END
            .iter()
            .map(|m| {
                metrics
                    .get(m.name)
                    .and_then(|e| e.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("record lacks metric {}", m.name))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        out.push(Record {
            workload: field("workload")?.as_str().ok_or("workload is not a string")?.to_string(),
            seed: field("seed")?.as_f64().ok_or("seed is not a number")?,
            mode: field("mode")?.as_str().ok_or("mode is not a string")?.to_string(),
            values,
        });
    }
    if out.is_empty() {
        return Err("no end-to-end records in result file".into());
    }
    Ok(out)
}

/// Compare two result files; returns the report (one row per workload) and
/// whether they agree.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (records(a)?, records(b)?);
    if a.len() != b.len() {
        return Err(format!("{} workloads against {}", a.len(), b.len()));
    }
    let mut report = String::new();
    let _ = write!(report, "{:<14}", "workload");
    for m in END_TO_END {
        let _ = write!(report, " {:>15}", m.name);
    }
    report.push('\n');

    let mut ok = true;
    for ra in &a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("{} is missing from the second file", ra.workload))?;
        if ra.mode != rb.mode {
            return Err(format!(
                "{}: refusing to compare a {} run with a {} run",
                ra.workload, ra.mode, rb.mode
            ));
        }
        let _ = write!(report, "{:<14}", ra.workload);
        for ((m, &x), &y) in END_TO_END.iter().zip(&ra.values).zip(&rb.values) {
            let diff = (x - y).abs() / x.abs().min(y.abs());
            let exact = m.name == "max_load_pct" && ra.workload != TIMING_FED && ra.seed == rb.seed;
            let fine = if exact { x == y } else { diff < m.bound.unwrap_or(f64::INFINITY) };
            ok &= fine;
            let cell = format!("{:.2}%{}", diff * 100.0, if fine { "" } else { " FAIL" });
            let _ = write!(report, " {cell:>15}");
        }
        report.push('\n');
    }
    let _ = writeln!(report, "{}", if ok { "agree" } else { "DISAGREE" });
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, mode: &str, tput: f64, imbalance: f64) -> String {
        let metric = |name: &str| {
            let v = match name {
                "tuples_per_s" => tput,
                "max_load_pct" => imbalance,
                _ => 10.0,
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"x\"}}")
        };
        let metrics: Vec<String> = END_TO_END.iter().map(|m| metric(m.name)).collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 42, \"mode\": \"{mode}\", \"trace\": false, \
             \"result\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}}}\n",
            metrics.join(", ")
        )
    }

    #[test]
    fn within_bounds_agrees_and_beyond_does_not() {
        let base = record("wc_sat_pool", "full", 100.0, 5.0);
        let (_, ok) = compare(&base, &record("wc_sat_pool", "full", 104.0, 5.0)).expect("compares");
        assert!(ok, "4% is inside the throughput bound");
        let (report, ok) =
            compare(&base, &record("wc_sat_pool", "full", 120.0, 5.0)).expect("compares");
        assert!(!ok && report.contains("FAIL"), "20% is outside it:\n{report}");
    }

    #[test]
    fn imbalance_must_repeat_exactly_except_where_timing_feeds_routing() {
        let moved = |w: &str| {
            compare(&record(w, "full", 100.0, 5.0), &record(w, "full", 100.0, 5.0001))
                .expect("compares")
                .1
        };
        assert!(!moved("wc_sat_pool"), "a count that moved is a disagreement");
        assert!(moved("wc_optin_pool"), "signals are timing-fed: the bound applies");
    }

    #[test]
    fn quick_and_full_runs_are_not_comparable() {
        let err = compare(
            &record("route_sim", "quick", 1.0, 1.0),
            &record("route_sim", "full", 1.0, 1.0),
        );
        assert!(err.is_err());
    }
}
