//! The opt-in layers on the pool's batched spout path.
//!
//! Ingress admission and load-signal recording ride the same
//! `route_batch` → `push_run` seam as the flagship: admission runs inside
//! the batched generation loop, and each routing decision is recorded into
//! the shared loads before the next one is made. The thread-per-instance
//! executor stays the scalar oracle, so every observable a single sender
//! determines — per-instance loads, admit/shed decisions, the surviving
//! bytes — must agree with it exactly, over both pool transports and under
//! a one-worker, eight-packet-quantum pool that parks at every turn.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use partial_key_grouping::apps::wordcount::{
    wordcount_topology, WordCountConfig, WordCountVariant,
};
use partial_key_grouping::apps::{Collector, SketchDegrade};
use partial_key_grouping::engine::prelude::*;
use partial_key_grouping::engine::RunStats;

/// (label, executor, SPSC rings): single-sender edges are rings by default,
/// so the mutexed mailbox (and the depth it publishes) needs rings off.
const LEGS: [(&str, ExecutorMode, bool); 4] = [
    ("threads", ExecutorMode::ThreadPerInstance, true),
    ("pool-ring", ExecutorMode::Pool { workers: 0, batch: 0 }, true),
    ("pool-mutex", ExecutorMode::Pool { workers: 0, batch: 0 }, false),
    ("pool-w1-b8", ExecutorMode::Pool { workers: 1, batch: 8 }, true),
];

/// A token bucket that never refuses: 1 000 tokens refill per offered tuple.
fn never_shedding() -> IngressOptions {
    IngressOptions {
        rate_per_sec: Some(1_000_000_000),
        burst: 1 << 40,
        logical_step_ns: Some(1_000),
        ..IngressOptions::default()
    }
}

fn optin_wordcount(sources: usize, executor: ExecutorMode, rings: bool) -> (u64, RunStats) {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        sources,
        counters: 7,
        messages_per_source: 20_000,
        vocabulary: 1_000,
        aggregation_period: None,
        seed: 29,
        ..WordCountConfig::default()
    };
    let (topo, _, _, _) = wordcount_topology(&cfg);
    let options = RuntimeOptions {
        channel_capacity: 64,
        seed: 5,
        executor,
        spsc_rings: rings,
        ingress: Some(never_shedding()),
        load: Some(LoadSignalOptions::adaptive()),
        ..RuntimeOptions::default()
    };
    (cfg.messages_per_source * sources as u64, Runtime::with_options(options).run(topo))
}

fn assert_conserved(label: &str, offered: u64, stats: &RunStats) {
    assert_eq!(stats.processed("source"), offered, "{label}: offered");
    assert_eq!(stats.shed_dropped("source") + stats.shed_degraded("source"), 0, "{label}: shed");
    assert_eq!(stats.emitted("source"), offered, "{label}: admitted");
    assert_eq!(stats.processed("counter"), offered, "{label}: source → counter");
    assert_eq!(stats.loads("counter").iter().sum::<u64>(), offered, "{label}: loads");
    assert_eq!(
        stats.emitted("counter"),
        stats.processed("aggregator"),
        "{label}: counter → aggregator"
    );
}

/// With never-shedding ingress and the full adaptive stack on, every leg
/// conserves exactly. With one source the shared signal state has a single
/// writer of decisions, so every leg must also reproduce the thread oracle's
/// per-instance loads; three sources race on the shared loads (over mutexed
/// mailboxes, which a multi-sender edge always uses), so only conservation
/// is deterministic there.
#[test]
fn optin_edge_routes_identically_across_executors() {
    for sources in [1, 3] {
        let mut baseline: Option<Vec<u64>> = None;
        for (label, executor, rings) in LEGS {
            let (offered, stats) = optin_wordcount(sources, executor, rings);
            assert_conserved(label, offered, &stats);
            if sources == 1 {
                let loads = stats.loads("counter");
                let want = baseline.get_or_insert_with(|| loads.clone());
                assert_eq!(&loads, want, "{label}: per-instance loads diverged");
            }
        }
    }
}

struct Forward;

impl Bolt for Forward {
    fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
        out.emit(t);
    }
}

/// A bucket that sheds about half the stream into a `SketchDegrade`
/// summary. Admission is a pure function of the offer index (logical
/// clock), so the pool's batched path must shed exactly the tuples the
/// thread oracle sheds, route the survivors identically, and re-inject the
/// drained summaries ahead of Eof — a summary arriving after Eof would be
/// dropped by the finished worker and break the per-key totals.
#[test]
fn shedding_and_drain_through_the_batched_path_match_the_oracle() {
    const OFFERED: u64 = 6_000;
    const KEYS: u64 = 13;
    // Offered tuples carry a payload; drained summaries never do.
    let stream = || {
        (0..OFFERED).map(|i| {
            let key = if i % 3 == 0 { 0 } else { i % KEYS };
            Tuple::with_payload(format!("k{key}").into_bytes(), 1, *b"offered")
        })
    };
    let mut exact = BTreeMap::<Box<[u8]>, i64>::new();
    for t in stream() {
        *exact.entry(t.key.into_boxed()).or_default() += t.value;
    }
    let exact: Vec<(Box<[u8]>, i64)> = exact.into_iter().collect();

    // 10k offered/s logical against 5k admitted/s.
    let ingress = IngressOptions {
        rate_per_sec: Some(5_000),
        burst: 8,
        logical_step_ns: Some(100_000),
        // More counters than keys: the sketch evicts nothing, so shed weight
        // is conserved exactly.
        policy: Some(Arc::new(|_| Box::new(SketchDegrade::new(16)))),
        ..IngressOptions::default()
    };

    type Triple = (Box<[u8]>, i64, Box<[u8]>);
    let mut baseline: Option<(Vec<Triple>, Vec<u64>, u64)> = None;
    for (label, executor, rings) in LEGS {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let src = topo.add_spout("src", 1, move |_| spout_from_iter(stream()));
        let worker = topo
            .add_bolt("worker", 4, |_| Box::new(Forward))
            .input(src, Grouping::partial_key())
            .id();
        let c = collector.clone();
        let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(worker, Grouping::Global);
        let options = RuntimeOptions {
            // Small enough that the spout spills and parks mid-stream and,
            // on the tiny-quantum leg, mid-drain.
            channel_capacity: 8,
            seed: 17,
            executor,
            spsc_rings: rings,
            ingress: Some(ingress.clone()),
            ..RuntimeOptions::default()
        };
        let stats = Runtime::with_options(options).run(topo);

        let got: Vec<Triple> = collector
            .tuples()
            .into_iter()
            .map(|t| (t.key.into_boxed(), t.value, t.payload))
            .collect();
        let admitted = got.iter().filter(|t| !t.2.is_empty()).count() as u64;
        let summary_weight: i64 = got.iter().filter(|t| t.2.is_empty()).map(|t| t.1).sum();
        let (dropped, degraded) = (stats.shed_dropped("src"), stats.shed_degraded("src"));
        assert_eq!(stats.processed("src"), OFFERED, "{label}: processed counts every offer");
        assert_eq!(dropped + degraded + admitted, OFFERED, "{label}: admission ledger");
        assert_eq!(dropped, 0, "{label}: SketchDegrade absorbs, never drops");
        assert!(
            (OFFERED * 2 / 5..=OFFERED * 3 / 5).contains(&degraded),
            "{label}: bucket shed {degraded} of {OFFERED}, expected about half"
        );
        assert_eq!(summary_weight as u64, degraded, "{label}: drained summaries carry shed weight");
        assert_eq!(stats.processed("worker"), got.len() as u64, "{label}: worker → sink");
        assert_eq!(collector.totals(), exact, "{label}: a summary missed its Eof");

        let got = (got, stats.loads("worker"), degraded);
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "{label}: diverged from the thread oracle"),
        }
    }
}

/// A bucket on the wall clock (no `logical_step_ns`) refills from the time
/// elapsed between offers, so the batched path must read the clock per
/// offer: on one reading per quantum a `burst: 1` bucket admits one tuple
/// per 256 offered, whatever its rate. Both bounds are scheduling-proof: a
/// token per nanosecond is there for every offer, and no bucket admits more
/// than `burst + rate × elapsed`.
#[test]
fn wall_clock_bucket_refills_per_offer_on_every_leg() {
    const OFFERED: u64 = 100_000;
    for rate in [1_000_000_000, 20_000] {
        for (label, executor, rings) in LEGS {
            let mut topo = Topology::new();
            let src = topo.add_spout("src", 1, |_| {
                spout_from_iter(
                    (0..OFFERED).map(|i| Tuple::new(format!("k{}", i % 97).into_bytes(), 1)),
                )
            });
            topo.add_bolt("worker", 4, |_| Box::new(Forward)).input(src, Grouping::partial_key());
            let ingress = IngressOptions { rate_per_sec: Some(rate), ..IngressOptions::default() };
            let options = RuntimeOptions {
                executor,
                spsc_rings: rings,
                ingress: Some(ingress),
                ..RuntimeOptions::default()
            };
            let started = Instant::now();
            let stats = Runtime::with_options(options).run(topo);
            let elapsed_ns = started.elapsed().as_nanos();

            let admitted = stats.emitted("src");
            assert_eq!(stats.processed("src"), OFFERED, "{label}: offered");
            assert_eq!(stats.shed_dropped("src") + admitted, OFFERED, "{label}: admission ledger");
            assert_eq!(stats.processed("worker"), admitted, "{label}: src → worker");
            if rate == 1_000_000_000 {
                assert!(admitted >= OFFERED / 2, "{label}: admitted {admitted} of {OFFERED}");
            } else {
                let bound = 1 + u128::from(rate) * elapsed_ns / 1_000_000_000;
                assert!(u128::from(admitted) <= bound, "{label}: admitted {admitted} > {bound}");
            }
        }
    }
}
