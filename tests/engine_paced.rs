//! Emulated time at the executor seam: paced sources and charged service.
//!
//! A source that is ahead of its schedule answers "not yet"
//! (`Spout::not_before`) instead of sleeping inside `next`, and a bolt's
//! `Emitter::stall` charges land on the instance's virtual service clock
//! instead of being slept (or batched) tuple by tuple. What that buys is
//! observable from outside: the asked rate is the realized rate, a paced
//! source holds no pool worker, a partial spout quantum is delivered when
//! the source defers, and charged service time is realized exactly — late
//! timers are caught up, and the clock never runs ahead of the charges.
//!
//! Every test measures wall-clock time, so the tests of this file take
//! turns (`serial`) instead of sharing the machine's two cores.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use partial_key_grouping::apps::wordcount::{
    wordcount_topology, WordCountConfig, WordCountVariant,
};
use partial_key_grouping::engine::prelude::*;
use partial_key_grouping::engine::RunStats;

/// (label, executor, SPSC rings): single-sender edges are rings by default,
/// so the mutexed mailbox needs rings off.
const LEGS: [(&str, ExecutorMode, bool); 3] = [
    ("threads", ExecutorMode::ThreadPerInstance, true),
    ("pool-ring", ExecutorMode::Pool { workers: 2, batch: 0 }, true),
    ("pool-mutex", ExecutorMode::Pool { workers: 2, batch: 0 }, false),
];

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn options(executor: ExecutorMode, rings: bool) -> RuntimeOptions {
    RuntimeOptions {
        channel_capacity: 1_024,
        seed: 11,
        executor,
        spsc_rings: rings,
        ..RuntimeOptions::default()
    }
}

/// One paced word-count source over 8 counters charging 50 µs per tuple.
fn paced_wordcount(rate: f64, messages: u64, executor: ExecutorMode, rings: bool) -> RunStats {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        sources: 1,
        counters: 8,
        messages_per_source: messages,
        vocabulary: 1_000,
        service_delay: Duration::from_micros(50),
        source_rate: Some(rate),
        seed: 3,
        ..WordCountConfig::default()
    };
    let (topo, _, _, _) = wordcount_topology(&cfg);
    Runtime::with_options(options(executor, rings)).run(topo)
}

/// A test-local paced source: tuple `i` of `left` is due `i × every` after
/// the first poll.
struct Metronome {
    every: Duration,
    left: u32,
    emitted: u32,
    started: Option<Instant>,
}

impl Spout for Metronome {
    fn next(&mut self) -> Option<Tuple> {
        (self.emitted < self.left).then(|| {
            self.emitted += 1;
            Tuple::new(*b"tick", 1)
        })
    }

    fn not_before(&mut self) -> Option<Duration> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let ahead = (self.every * self.emitted).saturating_sub(started.elapsed());
        (!ahead.is_zero()).then_some(ahead)
    }
}

/// Charges a fixed service time per tuple.
struct Service(Duration);

impl Bolt for Service {
    fn execute(&mut self, _tuple: Tuple, out: &mut Emitter<'_>) {
        out.stall(self.0);
    }
}

/// Notes when its stream ended.
struct FinishedAt(Arc<Mutex<Option<Instant>>>);

impl Bolt for FinishedAt {
    fn execute(&mut self, _tuple: Tuple, _out: &mut Emitter<'_>) {}

    fn finish(&mut self, _out: &mut Emitter<'_>) {
        *self.0.lock().expect("finish stamp") = Some(Instant::now());
    }
}

#[test]
fn paced_source_realizes_the_asked_rate_and_conserves_exactly() {
    let _turn = serial();
    // 6 000 tuples at 10 k/s: 0.6 s. The schedule is absolute, so a late
    // timer is caught up and only start-up and the final drain count
    // against the 2% (12 ms).
    let (rate, messages) = (10_000.0, 6_000u64);
    for (label, executor, rings) in LEGS {
        let stats = paced_wordcount(rate, messages, executor, rings);
        assert_eq!(stats.processed("source"), messages, "{label}: offered");
        assert_eq!(stats.processed("counter"), messages, "{label}: source → counter");
        assert_eq!(
            stats.emitted("counter"),
            stats.processed("aggregator"),
            "{label}: counter → aggregator"
        );
        assert_eq!(
            stats.stalled_ns("counter").iter().sum::<u64>(),
            messages * 50_000,
            "{label}: every tuple charged its own 50 µs"
        );
        let realized = messages as f64 / stats.wall.as_secs_f64();
        assert!(
            (realized / rate - 1.0).abs() < 0.02,
            "{label}: asked {rate}/s, realized {realized:.0}/s (wall {:?})",
            stats.wall
        );
    }
}

#[test]
fn paced_source_does_not_hold_the_only_pool_worker() {
    let _turn = serial();
    // A 1 k/s source (300 ms of stream) beside an unpaced 50 000-tuple
    // chain, on ONE worker. A source that sleeps inside `next` holds that
    // worker for a 256-tuple quantum — 256 ms — before the unpaced chain
    // gets a turn; a source that answers "not yet" costs it nothing.
    for rings in [true, false] {
        let finished = Arc::new(Mutex::new(None));
        let mut t = Topology::new();
        let slow = t.add_spout("slow", 1, |_| {
            Box::new(Metronome {
                every: Duration::from_millis(1),
                left: 300,
                emitted: 0,
                started: None,
            })
        });
        let _ = t
            .add_bolt("slow_sink", 1, |_| Box::new(CountingBolt::default()))
            .input(slow, Grouping::Global);
        let fast = t.add_spout("fast", 1, |_| {
            spout_from_iter((0..50_000u32).map(|i| Tuple::new(i.to_le_bytes(), 1)))
        });
        let stamp = Arc::clone(&finished);
        let _ = t
            .add_bolt("fast_sink", 1, move |_| Box::new(FinishedAt(Arc::clone(&stamp))))
            .input(fast, Grouping::Global);
        let started = Instant::now();
        let stats =
            Runtime::with_options(options(ExecutorMode::Pool { workers: 1, batch: 0 }, rings))
                .run(t);
        assert_eq!(stats.processed("slow_sink"), 300, "rings={rings}");
        assert_eq!(stats.processed("fast_sink"), 50_000, "rings={rings}");
        assert!(stats.wall >= Duration::from_millis(295), "paced run took {:?}", stats.wall);
        let fast_done = finished.lock().expect("finish stamp").expect("fast chain finished");
        let fast_took = fast_done.duration_since(started);
        assert!(
            fast_took < stats.wall / 3,
            "rings={rings}: the unpaced chain took {fast_took:?} of a {:?} run — \
             the paced source held the worker",
            stats.wall
        );
    }
}

#[test]
fn deferring_source_flushes_its_partial_quantum() {
    let _turn = serial();
    // 1 k/s against the default 256-tuple quantum: one tuple is due per
    // activation. Holding the batch until the quantum fills would age its
    // first tuple by ≈ 256 ms; flushed at the deferral, tuples reach the
    // counters at once. A thousand tuples, so that a host stall delaying a
    // handful of them does not reach the p99.
    for (label, executor, rings) in LEGS {
        let stats = paced_wordcount(1_000.0, 1_000, executor, rings);
        assert_eq!(stats.processed("counter"), 1_000, "{label}");
        let p99 = Duration::from_nanos(stats.latency("counter").quantile(0.99));
        assert!(p99 < Duration::from_millis(5), "{label}: counter-side p99 {p99:?}");
    }
}

#[test]
fn virtual_service_clock_is_exact() {
    let _turn = serial();
    // One instance charging 2 000 × 50 µs = 100 ms. A 50 µs timer fires
    // 60–110 µs late; realized one timer per tuple the run took 255 ms. On
    // the virtual clock it takes the charged time — and never less: the
    // clock does not run ahead of the charges.
    let one_worker = ExecutorMode::Pool { workers: 1, batch: 0 };
    for (label, executor, rings) in [
        ("threads", ExecutorMode::ThreadPerInstance, true),
        ("pool-ring", one_worker, true),
        ("pool-mutex", one_worker, false),
    ] {
        let mut t = Topology::new();
        let src = t.add_spout("src", 1, |_| {
            spout_from_iter((0..2_000u32).map(|i| Tuple::new(i.to_le_bytes(), 1)))
        });
        let _ = t
            .add_bolt("service", 1, |_| Box::new(Service(Duration::from_micros(50))))
            .input(src, Grouping::Global);
        let stats = Runtime::with_options(options(executor, rings)).run(t);
        assert_eq!(stats.processed("service"), 2_000, "{label}");
        assert_eq!(stats.stalled_ns("service"), vec![100_000_000], "{label}");
        assert!(
            stats.wall >= Duration::from_millis(100) && stats.wall <= Duration::from_millis(120),
            "{label}: 100 ms of charged service took {:?}",
            stats.wall
        );
    }
}
