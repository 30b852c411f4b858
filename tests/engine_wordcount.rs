//! Cross-crate integration tests: engine + apps (the Q4 pipeline).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use partial_key_grouping::apps::wordcount::{
    exact_counts, top_k_of, wordcount_topology, WordCountConfig, WordCountVariant,
};
use partial_key_grouping::engine::prelude::*;
use partial_key_grouping::engine::RunStats;
use pkg_hash::FxHashMap;

/// A terminal bolt capturing everything it sees into a shared map.
struct CollectBolt {
    sink: Arc<Mutex<FxHashMap<String, i64>>>,
    merge_max: bool,
}

impl Bolt for CollectBolt {
    fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
        let word = String::from_utf8(t.key.to_vec()).expect("words are utf8");
        let mut sink = self.sink.lock().expect("collector lock");
        let e = sink.entry(word).or_insert(0);
        if self.merge_max {
            *e = (*e).max(t.value);
        } else {
            *e += t.value;
        }
    }
}

/// Build the word-count topology with `wordcount_topology`, attach a
/// collector to its counter node, and return the collector's totals.
///
/// The aggregator holds its totals internally, so the collector is fed by
/// the *counter*: it sees the aggregator's inputs and reduces them with the
/// same semantics (max for KG's running counts, sum for partials).
fn run_collecting(cfg: &WordCountConfig) -> FxHashMap<String, i64> {
    run_collecting_with(cfg, RuntimeOptions::default()).0
}

/// [`run_collecting`] under `opts`, with the run's statistics.
fn run_collecting_with(
    cfg: &WordCountConfig,
    opts: RuntimeOptions,
) -> (FxHashMap<String, i64>, RunStats) {
    let sink = Arc::new(Mutex::new(FxHashMap::default()));
    let running = cfg.variant == WordCountVariant::KeyGrouping;
    let (mut topo, _, counter, _) = wordcount_topology(cfg);
    let sink2 = Arc::clone(&sink);
    topo.add_bolt("collector", 1, move |_| {
        Box::new(CollectBolt { sink: Arc::clone(&sink2), merge_max: running })
    })
    .input(counter, Grouping::Global);
    let stats = Runtime::with_options(opts).run(topo);
    let result = sink.lock().expect("collector lock").clone();
    (result, stats)
}

/// A ticking two-phase word count over 2-slot mailboxes: every 1 ms tick
/// floods the aggregator, so counters spill and keep reading their input
/// around the backlog. Under both schedules and both transports (with one
/// counter, its flush edges are SPSC rings too) the partials must sum to
/// the exact counts, and routing must give every leg the same loads.
#[test]
fn ticking_counts_are_exact_around_spilled_flushes() {
    let legs = [
        ("threads", ExecutorMode::ThreadPerInstance, true),
        ("pool-ring", ExecutorMode::Pool { workers: 2, batch: 0 }, true),
        ("pool-mutex", ExecutorMode::Pool { workers: 2, batch: 0 }, false),
        ("threads-mutex", ExecutorMode::ThreadPerInstance, false),
    ];
    for variant in [WordCountVariant::PartialKeyGrouping, WordCountVariant::ShuffleGrouping] {
        for counters in [1, 4] {
            let cfg = WordCountConfig {
                variant,
                messages_per_source: 20_000,
                vocabulary: 2_000,
                counters,
                aggregation_period: Some(Duration::from_millis(1)),
                ..WordCountConfig::default()
            };
            let exact = exact_counts(&cfg);
            let mut loads = Vec::new();
            for (leg, executor, spsc_rings) in legs {
                let opts = RuntimeOptions {
                    channel_capacity: 2,
                    executor,
                    spsc_rings,
                    ..RuntimeOptions::default()
                };
                let (collected, stats) = run_collecting_with(&cfg, opts);
                let what = format!("{} × {counters} counters, {leg}", variant.label());
                assert_eq!(collected, exact, "{what}: totals");
                assert!(stats.spilled("counter") > 0, "{what}: no flush spilled");
                loads.push(stats.loads("counter"));
            }
            assert!(loads.windows(2).all(|w| w[0] == w[1]), "loads differ across legs: {loads:?}");
        }
    }
}

/// A ticking PKG word count shaped like the `wc_flush_pool` benchmark
/// workload, scaled down: 8 counters flush a 60 k-word vocabulary every
/// 20 ms into one aggregator over 1 024-slot mailboxes. A tick's flush is
/// pulled into free mailbox slots, so under both schedules at most one
/// partial in twenty spills to an outbox, and the aggregator's totals stay
/// exact. The collector reads the aggregator's final totals, so a counter
/// has one out-edge, as in the benchmark. The stream is long enough to span
/// at least five periods at twice the engine's speed, so the tick-count gate
/// reads the ticking, not how fast the engine ran.
#[test]
fn flush_heavy_counts_pull_their_partials_into_free_slots() {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        sources: 2,
        messages_per_source: 400_000,
        vocabulary: 60_000,
        p1: 0.01,
        counters: 8,
        aggregation_period: Some(Duration::from_millis(20)),
        ..WordCountConfig::default()
    };
    let exact = exact_counts(&cfg);
    for executor in [ExecutorMode::ThreadPerInstance, ExecutorMode::Pool { workers: 2, batch: 0 }] {
        let sink = Arc::new(Mutex::new(FxHashMap::default()));
        let (mut topo, _, _, aggregator) = wordcount_topology(&cfg);
        let sink2 = Arc::clone(&sink);
        topo.add_bolt("collector", 1, move |_| {
            Box::new(CollectBolt { sink: Arc::clone(&sink2), merge_max: false })
        })
        .input(aggregator, Grouping::Global);
        let opts =
            RuntimeOptions { channel_capacity: 1_024, executor, ..RuntimeOptions::default() };
        let stats = Runtime::with_options(opts).run(topo);
        assert_eq!(*sink.lock().expect("collector lock"), exact, "{executor:?}: totals");
        let (spilled, emitted) = (stats.spilled("counter"), stats.emitted("counter"));
        let ticks = stats.instances.iter().filter(|i| i.component == "counter").map(|i| i.ticks);
        assert!(ticks.sum::<u64>() > 8, "{executor:?}: the counters barely ticked");
        assert!(20 * spilled <= emitted, "{executor:?}: {spilled} of {emitted} partials spilled");
    }
}

#[test]
fn pkg_aggregated_counts_are_exact() {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        messages_per_source: 30_000,
        vocabulary: 800,
        counters: 6,
        aggregation_period: Some(Duration::from_millis(20)),
        ..WordCountConfig::default()
    };
    let collected = run_collecting(&cfg);
    let exact = exact_counts(&cfg);
    assert_eq!(collected.values().sum::<i64>(), 30_000, "conservation through flushes");
    for (word, &count) in &exact {
        assert_eq!(collected.get(word).copied().unwrap_or(0), count, "word {word}");
    }
}

#[test]
fn sg_aggregated_counts_are_exact() {
    let cfg = WordCountConfig {
        variant: WordCountVariant::ShuffleGrouping,
        messages_per_source: 20_000,
        vocabulary: 500,
        counters: 5,
        aggregation_period: Some(Duration::from_millis(15)),
        ..WordCountConfig::default()
    };
    let collected = run_collecting(&cfg);
    let exact = exact_counts(&cfg);
    for (word, &count) in &exact {
        assert_eq!(collected.get(word).copied().unwrap_or(0), count, "word {word}");
    }
}

#[test]
fn kg_top_k_is_exact() {
    // KG counters emit running top-k; the global top-k is recoverable
    // because every word lives on exactly one counter.
    let cfg = WordCountConfig {
        variant: WordCountVariant::KeyGrouping,
        messages_per_source: 25_000,
        vocabulary: 400,
        counters: 5,
        top_k: 20,
        aggregation_period: None, // single flush at end of stream
        ..WordCountConfig::default()
    };
    let collected = run_collecting(&cfg);
    let exact = exact_counts(&cfg);
    let want = top_k_of(&exact, 10);
    let mut got: Vec<(String, i64)> = collected.into_iter().collect();
    got.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    got.truncate(10);
    assert_eq!(got, want);
}

#[test]
fn latency_and_throughput_are_measured() {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        messages_per_source: 10_000,
        vocabulary: 200,
        counters: 3,
        ..WordCountConfig::default()
    };
    let (topo, _, _, _) = wordcount_topology(&cfg);
    let stats = Runtime::new().run(topo);
    assert_eq!(stats.processed("counter"), 10_000);
    assert!(stats.throughput("counter") > 0.0);
    let lat = stats.latency("counter");
    assert_eq!(lat.count(), 10_000);
    assert!(lat.quantile(0.99) >= lat.quantile(0.5));
}

#[test]
fn service_delay_reduces_throughput() {
    let base = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        messages_per_source: 4_000,
        vocabulary: 200,
        counters: 4,
        ..WordCountConfig::default()
    };
    let tput = |delay_us: u64| {
        let cfg =
            WordCountConfig { service_delay: Duration::from_micros(delay_us), ..base.clone() };
        let (topo, _, _, _) = wordcount_topology(&cfg);
        Runtime::new().run(topo).throughput("counter")
    };
    let fast = tput(0);
    let slow = tput(800);
    assert!(
        slow < fast / 2.0,
        "0.8ms of service time must bite: fast {fast:.0}/s slow {slow:.0}/s"
    );
}
