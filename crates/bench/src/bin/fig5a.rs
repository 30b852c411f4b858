//! **Figure 5(a)** — Throughput for PKG, SG and KG for different CPU delays,
//! on the live engine (1 source, 9 counters — the paper's Storm topology).
//!
//! The paper adds a per-key CPU delay of 0.1–1 ms to reach its cluster's
//! saturation point and reports: "Regardless of the delay, SG and PKG
//! perform similarly, and their throughput is higher than KG. The
//! throughput of KG is reduced by ≈60% when the CPU delay increases
//! tenfold, while the impact on PKG and SG is smaller (≈37% decrease)" and
//! "the average latency with KG is up to 45% larger than with PKG".
//!
//! We run the same delays, charged per tuple on each counter's virtual
//! service clock (one dedicated core per PEI, like the paper's 10 VMs).
//! The source is paced at a fixed external rate, so the low delays are
//! unsaturated — latency there is queueing at the counters, where KG's
//! overloaded instance shows the paper's latency gap — and the high delays
//! saturate, where throughput separates the variants.
//!
//! `--smoke` runs the unsaturated 0.1 ms point only and gates it (CI, both
//! executor legs): PKG's mean counter latency stays below 2 ms — it was
//! ≈ 10 ms while service time was realized in 4 ms batches — and KG's is at
//! least PKG's. Each variant's row is the least disturbed of five runs (a
//! busy host only ever adds latency). Non-zero exit otherwise.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_apps::wordcount::{wordcount_topology, WordCountConfig, WordCountVariant};
use pkg_bench::{scaled_messages, seed, Report, TextTable};
use pkg_engine::Runtime;

/// Messages per configuration before `PKG_SCALE`: ~1–6 s each at 9
/// counters.
const MESSAGES: u64 = 20_000;

/// One run of the word-count topology `cfg` describes (paced by its
/// `source_rate`).
fn run_config(cfg: &WordCountConfig) -> pkg_engine::RunStats {
    let (topo, _, _, _) = wordcount_topology(cfg);
    Runtime::new().run(topo)
}

fn main() {
    let variants = [
        WordCountVariant::PartialKeyGrouping,
        WordCountVariant::ShuffleGrouping,
        WordCountVariant::KeyGrouping,
    ];
    let mut r =
        Report::start("fig5a", "Figure 5(a): throughput vs CPU delay (1 source, 9 counters)");
    // The paper's 0.1–1 ms sweep.
    let delays_us: &[u64] = if r.smoke() { &[100] } else { &[100, 200, 400, 700, 1000] };
    let messages = scaled_messages(MESSAGES);
    // External stream rate: unsaturated at low delays, saturated at high
    // ones (the paper's regime transition).
    let rate = 30_000.0;

    let _ = writeln!(r, "# messages={messages} seed={}", seed());
    let mut table = TextTable::new();
    table.row([
        "variant",
        "delay_ms",
        "throughput_keys_s",
        "mean_latency_ms",
        "p99_latency_ms",
        "max_counter_load",
    ]);
    let mut tsv =
        String::from("variant\tdelay_ms\tthroughput\tmean_latency_ms\tp99_latency_ms\tmax_load\n");

    // Mean counter latency (ms) per variant at the first (0.1 ms, unsaturated)
    // point, for the gate.
    let mut unsaturated_mean_ms = Vec::new();
    for &delay_us in delays_us {
        for variant in variants {
            let cfg = WordCountConfig {
                variant,
                sources: 1,
                counters: 9,
                messages_per_source: messages,
                vocabulary: 10_000,
                p1: 0.0932,
                service_delay: Duration::from_micros(delay_us),
                aggregation_period: Some(Duration::from_millis(500)),
                top_k: 10,
                seed: seed(),
                source_rate: Some(rate),
            };
            let stats = (0..if r.smoke() { 5 } else { 1 })
                .map(|_| run_config(&cfg))
                .min_by(|a, b| a.latency("counter").mean().total_cmp(&b.latency("counter").mean()))
                .expect("at least one run");
            let tput = stats.throughput("counter");
            let lat = stats.latency("counter");
            let mean_ms = lat.mean() / 1e6;
            let p99_ms = lat.quantile(0.99) as f64 / 1e6;
            let max_load = stats.loads("counter").into_iter().max().unwrap_or(0);
            if delay_us == delays_us[0] {
                unsaturated_mean_ms.push(mean_ms);
            }
            table.row([
                variant.label().to_string(),
                format!("{:.1}", delay_us as f64 / 1000.0),
                format!("{tput:.0}"),
                format!("{mean_ms:.3}"),
                format!("{p99_ms:.3}"),
                format!("{max_load}"),
            ]);
            tsv.push_str(&format!(
                "{}\t{:.1}\t{:.0}\t{:.3}\t{:.3}\t{}\n",
                variant.label(),
                delay_us as f64 / 1000.0,
                tput,
                mean_ms,
                p99_ms,
                max_load
            ));
        }
    }
    r.push_str(&table.render());
    let [pkg_ms, _sg_ms, kg_ms] = unsaturated_mean_ms[..] else {
        unreachable!("the 0.1 ms point runs the three variants");
    };
    if r.smoke() {
        r.check(
            format_args!(
                "at 0.1 ms PKG mean latency {pkg_ms:.3} ms < 2 ms and KG {kg_ms:.3} ms >= PKG"
            ),
            pkg_ms < 2.0 && kg_ms >= pkg_ms,
        );
    }
    r.finish(&tsv);
}
