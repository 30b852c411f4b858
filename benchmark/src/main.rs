//! `perf_ledger` — the repo's benchmark.
//!
//! ```text
//! perf_ledger run <workload> [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//! perf_ledger layers [--seed S] [--seconds N]     the per-layer ledger
//! perf_ledger trace  [--seed S] [--out FILE]      the traced replay + decomposition
//! perf_ledger agree A B                           compare two result files
//! ```
//!
//! `run` prints every metric by name with unit, quartiles and sample count,
//! and as its last line one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer ledger
//! with `--trace 1`. It exits non-zero if any operation failed. See
//! `benchmark/README.md` for why each workload and metric exists.

mod agree;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use spec::{MetricSpec, END_TO_END, PER_LAYER};
use stats::Summary;
use workloads::{RunPlan, Workload};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Where the traced run writes its spans unless `--out` says otherwise.
const TRACE_FILE: &str = "benchmark/out/trace.jsonl";

/// Parsed command-line options shared by the subcommands.
struct Options {
    positional: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    expect_total: Option<u64>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            positional: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            out: None,
            expect_total: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("{flag}: {v:?} is not a valid number"))
            }
            match arg.as_str() {
                "--seed" => o.seed = number(arg, value()?)?,
                "--seconds" => {
                    o.seconds = number(arg, value()?)?;
                    if !(o.seconds.is_finite() && o.seconds > 0.0 && o.seconds <= 3_600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {}", o.seconds));
                    }
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--quick" => o.quick = true,
                "--out" => o.out = Some(value()?.clone()),
                // Test-only: a deliberately wrong expected total must make
                // the correctness check fail.
                "--expect-total" => o.expect_total = Some(number(arg, value()?)?),
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                _ => o.positional.push(arg.clone()),
            }
        }
        Ok(o)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => Options::parse(rest).and_then(|o| match cmd.as_str() {
            "run" => cmd_run(&o),
            "layers" => cmd_layers(&o),
            "trace" => cmd_trace(&o),
            "agree" => cmd_agree(&o),
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err("usage: perf_ledger run|layers|trace|agree … (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(o: &Options) -> Result<bool, String> {
    let [name] = o.positional.as_slice() else {
        return Err("run takes exactly one workload name".into());
    };
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let mode = if o.quick { "quick" } else { "full" };
    println!(
        "# {name}  seed={} seconds={} mode={mode} trace={} cores={}",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let (specs, metrics, attempted, failed): (&[MetricSpec], Vec<Summary>, u64, u64) = if o.trace {
        let ledger = layers::measure(o.seed, o.seconds, TRACE_FILE)?;
        (&PER_LAYER, ledger.metrics, ledger.attempted, ledger.failed)
    } else {
        let plan = RunPlan {
            seed: o.seed,
            seconds: o.seconds,
            quick: o.quick,
            expect_total: o.expect_total,
        };
        let result = workloads::run(workload, &plan);
        (&END_TO_END, result.metrics, result.attempted, result.failed)
    };
    print_table(specs, &metrics);

    let correct = failed == 0;
    if let Some(path) = &o.out {
        // One self-describing record per workload, appended so `run.sh` can
        // collect a whole set in one file for `agree`.
        let record = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"mode\": \"{mode}\", \"trace\": {}, \"result\": {}}}\n",
            o.seed,
            o.trace,
            result_line(specs, &metrics, correct, attempted, failed, true),
        );
        append(path, &record)?;
    }
    println!("{}", result_line(specs, &metrics, correct, attempted, failed, false));
    Ok(correct)
}

fn cmd_layers(o: &Options) -> Result<bool, String> {
    let ledger = layers::measure(o.seed, o.seconds, TRACE_FILE)?;
    print_table(&PER_LAYER, &ledger.metrics);
    Ok(ledger.failed == 0)
}

fn cmd_trace(o: &Options) -> Result<bool, String> {
    let path = o.out.as_deref().unwrap_or(TRACE_FILE);
    let report = trace::traced_run(o.seed, trace::REPLAY_TUPLES, path)?;
    let pool = layers::flagship_ns_per_tuple(o.seed);
    print!("{}", report.decomposition(pool));
    println!("trace.overhead_pct {:.2} %   trace.spans {}", report.overhead_pct, report.spans);
    println!("spans written to {path}");
    Ok(true)
}

fn cmd_agree(o: &Options) -> Result<bool, String> {
    let [a, b] = o.positional.as_slice() else {
        return Err("agree takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, ok) = agree::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(ok)
}

fn print_table(specs: &[MetricSpec], metrics: &[Summary]) {
    println!(
        "{:<40} {:>6} {:>16} {:>16} {:>16} {:>16} {:>4} {:>8} {:>7}",
        "metric", "unit", "value", "median", "q1", "q3", "n", "spread%", "better"
    );
    for (m, s) in specs.iter().zip(metrics) {
        println!(
            "{:<40} {:>6} {:>16.4} {:>16.4} {:>16.4} {:>16.4} {:>4} {:>8.2} {:>7}",
            m.name,
            m.unit,
            s.value,
            s.median,
            s.q1,
            s.q3,
            s.n,
            s.spread() * 100.0,
            m.better.label()
        );
    }
}

/// The contract's result object; `quartiles` adds each metric's spread for
/// the result file. Values are printed with every digit `f64` needs to
/// round-trip.
fn result_line(
    specs: &[MetricSpec],
    metrics: &[Summary],
    correct: bool,
    attempted: u64,
    failed: u64,
    quartiles: bool,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, s)) in specs.iter().zip(metrics).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(line, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, s.value, m.unit);
        if quartiles {
            let _ = write!(
                line,
                ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                s.median, s.q1, s.q3, s.n
            );
        }
        line.push('}');
    }
    line.push_str("}}");
    line
}

fn append(path: &str, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    #[test]
    fn result_line_is_the_contract_object() {
        let metrics: Vec<Summary> =
            (0..END_TO_END.len()).map(|i| Summary::of(&[i as f64 + 0.5, 2.0])).collect();
        let line = result_line(&END_TO_END, &metrics, true, 10, 0, false);
        let v = Value::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> =
            v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed = v.get("metrics").and_then(Value::as_object).expect("metrics object");
        for ((name, m), spec) in printed.iter().zip(END_TO_END) {
            assert_eq!(name, spec.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert_eq!(m.as_object().map(<[_]>::len), Some(2), "exactly value and unit");
        }
        assert_eq!(printed.len(), END_TO_END.len());
    }

    #[test]
    fn options_reject_bad_input() {
        let parse = |args: &[&str]| {
            Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(|_| ())
        };
        assert!(parse(&["wc_sat_pool", "--seed", "7", "--seconds", "3", "--trace", "1"]).is_ok());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
