//! **Figure 5(b)** — Throughput for PKG and SG vs. average memory (counters)
//! for different aggregation periods; KG's throughput for comparison.
//!
//! The paper fixes the CPU delay at 0.4 ms (KG's saturation point) and
//! sweeps the aggregation period `T ∈ {10, 30, 60, 300, 600}` seconds:
//! "Shorter aggregation periods reduce the memory requirements, as partial
//! counters are flushed often, at the cost of a higher number of
//! aggregation messages. For all values of aggregation period, PKG achieves
//! higher throughput than SG, with lower memory overhead."
//!
//! Our runs last seconds, not hours, so the period grid is scaled down
//! ~100× (0.1–6 s) — the *shape* (PKG's memory/throughput curve dominating
//! SG's, both bracketed by KG) is preserved. Memory is the engine's
//! pre-flush average of live counters across counter instances.

use std::fmt::Write as _;
use std::time::Duration;

use pkg_apps::wordcount::{wordcount_topology, WordCountConfig, WordCountVariant};
use pkg_bench::{scaled_messages, seed, Report, TextTable};
use pkg_engine::Runtime;

/// Messages per configuration before `PKG_SCALE`.
const MESSAGES: u64 = 15_000;

fn main() {
    let delay = Duration::from_micros(400);
    let periods_ms: [u64; 5] = [100, 300, 600, 3_000, 6_000];
    let messages = scaled_messages(MESSAGES);

    let mut r = Report::start(
        "fig5b",
        "Figure 5(b): throughput vs average memory (counters) for aggregation periods",
    );
    let _ = writeln!(
        r,
        "# delay=0.4ms messages={messages} seed={} (periods scaled ~100x down from the paper's 10-600s)",
        seed()
    );
    let mut table = TextTable::new();
    table.row([
        "variant",
        "period_s",
        "throughput_keys_s",
        "avg_counters",
        "max_counters",
        "agg_messages",
    ]);
    let mut tsv =
        String::from("variant\tperiod_s\tthroughput\tavg_counters\tmax_counters\tagg_messages\n");

    for variant in [
        WordCountVariant::PartialKeyGrouping,
        WordCountVariant::ShuffleGrouping,
        WordCountVariant::KeyGrouping,
    ] {
        for &period in &periods_ms {
            let cfg = WordCountConfig {
                variant,
                sources: 1,
                counters: 9,
                messages_per_source: messages,
                vocabulary: 10_000,
                p1: 0.0932,
                service_delay: delay,
                aggregation_period: Some(Duration::from_millis(period)),
                top_k: 10,
                seed: seed(),
                source_rate: None, // saturation measurement, as in the paper
            };
            let (topo, _, _, _) = wordcount_topology(&cfg);
            let stats = Runtime::new().run(topo);
            let tput = stats.throughput("counter");
            let avg_mem = stats.avg_state("counter");
            let max_mem = stats.max_state("counter");
            let agg_msgs = stats.processed("aggregator");
            table.row([
                variant.label().to_string(),
                format!("{:.1}", period as f64 / 1000.0),
                format!("{tput:.0}"),
                format!("{avg_mem:.0}"),
                format!("{max_mem}"),
                format!("{agg_msgs}"),
            ]);
            tsv.push_str(&format!(
                "{}\t{:.1}\t{:.0}\t{:.0}\t{}\t{}\n",
                variant.label(),
                period as f64 / 1000.0,
                tput,
                avg_mem,
                max_mem,
                agg_msgs
            ));
            // KG's memory does not depend on the period; one row suffices.
            if variant == WordCountVariant::KeyGrouping {
                break;
            }
        }
    }
    r.push_str(&table.render());
    r.finish(&tsv);
}
