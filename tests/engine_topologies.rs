//! Engine structural tests beyond the word-count pipeline: multi-input
//! bolts (diamonds), broadcast edges, deep chains, and degenerate
//! configurations. The Eof-counting shutdown protocol must drain every
//! shape without deadlock or loss.

use partial_key_grouping::engine::prelude::*;

fn number_stream(n: u64) -> Vec<Tuple> {
    (0..n).map(|i| Tuple::new(format!("k{}", i % 13).into_bytes(), 1)).collect()
}

/// src → (a, b) → join : a diamond; the join must receive both branches'
/// full output and finish only after both have drained.
#[test]
fn diamond_topology_drains_completely() {
    struct Forward;
    impl Bolt for Forward {
        fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
            out.emit(t);
        }
    }
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 2, |_| spout_from_iter(number_stream(2_000)));
    let a = topo.add_bolt("a", 2, |_| Box::new(Forward)).input(src, Grouping::Shuffle).id();
    let b = topo.add_bolt("b", 3, |_| Box::new(Forward)).input(src, Grouping::Key).id();
    let _join = topo
        .add_bolt("join", 2, |_| Box::new(CountingBolt::default()))
        .input(a, Grouping::Key)
        .input(b, Grouping::Key)
        .id();
    let stats = Runtime::new().run(topo);
    // Each source tuple reaches the join twice (once per branch).
    assert_eq!(stats.processed("src"), 4_000);
    assert_eq!(stats.processed("a"), 4_000);
    assert_eq!(stats.processed("b"), 4_000);
    assert_eq!(stats.processed("join"), 8_000);
}

/// Broadcast delivers every tuple to every downstream instance.
#[test]
fn broadcast_replicates_to_all_instances() {
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| spout_from_iter(number_stream(500)));
    let _all = topo
        .add_bolt("all", 4, |_| Box::new(CountingBolt::default()))
        .input(src, Grouping::Broadcast)
        .id();
    let stats = Runtime::new().run(topo);
    assert_eq!(stats.processed("all"), 2_000);
    for load in stats.loads("all") {
        assert_eq!(load, 500, "every instance sees every tuple");
    }
}

/// A five-stage chain with single-element queues: the tightest possible
/// backpressure must still drain in order.
#[test]
fn deep_chain_with_tiny_queues() {
    struct Inc;
    impl Bolt for Inc {
        fn execute(&mut self, mut t: Tuple, out: &mut Emitter<'_>) {
            t.value += 1;
            out.emit(t);
        }
    }
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| spout_from_iter(number_stream(300)));
    let mut prev = topo.add_bolt("s1", 1, |_| Box::new(Inc)).input(src, Grouping::Global).id();
    for name in ["s2", "s3", "s4"] {
        prev = topo.add_bolt(name, 1, |_| Box::new(Inc)).input(prev, Grouping::Global).id();
    }
    let _sink = topo
        .add_bolt("sink", 1, |_| Box::new(CountingBolt::default()))
        .input(prev, Grouping::Global)
        .id();
    let stats = Runtime::with_options(RuntimeOptions {
        channel_capacity: 1,
        seed: 3,
        ..RuntimeOptions::default()
    })
    .run(topo);
    assert_eq!(stats.processed("sink"), 300);
    // Values were incremented once per stage.
    assert_eq!(stats.emitted("s4"), 300);
}

/// One instance everywhere — the degenerate but legal minimum.
#[test]
fn single_instance_everything() {
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| spout_from_iter(number_stream(50)));
    let _sink = topo
        .add_bolt("sink", 1, |_| Box::new(CountingBolt::default()))
        .input(src, Grouping::partial_key())
        .id();
    let stats = Runtime::new().run(topo);
    assert_eq!(stats.processed("sink"), 50);
}

/// An empty spout: the topology must shut down cleanly with zero tuples.
#[test]
fn empty_stream_shuts_down() {
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 3, |_| spout_from_iter(Vec::new()));
    let _sink = topo
        .add_bolt("sink", 2, |_| Box::new(CountingBolt::default()))
        .input(src, Grouping::Shuffle)
        .id();
    let stats = Runtime::new().run(topo);
    assert_eq!(stats.processed("sink"), 0);
    assert_eq!(stats.processed("src"), 0);
}

/// Regression (Fig. 5(b) memory accounting): the two-phase aggregator bolts
/// must report their window-buffer entries through `Bolt::state_size`, so
/// the phase-two state shows up in `final_state`/`max_state`. With no
/// ticks, workers flush only on finish, which happens before their Eof —
/// so the aggregator holds every partial when its own pre-finish state
/// sample is taken.
#[test]
fn aggregator_state_size_counts_window_buffer() {
    use partial_key_grouping::agg::Sum;
    use partial_key_grouping::apps::{AggregatorBolt, WindowedWorkerBolt};

    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| spout_from_iter(number_stream(2_000)));
    let worker = topo
        .add_bolt("worker", 3, |_| Box::new(WindowedWorkerBolt::<Sum>::per_key()))
        .input(src, Grouping::partial_key())
        .id();
    let _agg = topo
        .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
        .input(worker, Grouping::Key)
        .id();
    let stats = Runtime::new().run(topo);
    // The stream has 13 distinct keys; the aggregator's pre-finish state
    // must count one merged entry per key (eager Sum merging), and the
    // workers' pre-finish state must cover the key-splitting spread
    // (between 13 and 26 partial counters under PKG).
    assert_eq!(stats.final_state("agg"), 13, "phase-two entries uncounted");
    let worker_state = stats.final_state("worker");
    assert!(
        (13..=26).contains(&worker_state),
        "PKG worker partials out of the [K, 2K] band: {worker_state}"
    );
}

/// Same regression for a buffering (inexact) accumulator: the aggregator
/// holds every undrained partial summary in its window buffer, and
/// `state_size` must count their entries.
#[test]
fn aggregator_state_size_counts_buffered_partials() {
    use partial_key_grouping::agg::TopK;
    use partial_key_grouping::apps::{AggregatorBolt, WindowedWorkerBolt};

    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| spout_from_iter(number_stream(2_000)));
    let worker = topo
        .add_bolt("worker", 3, |_| Box::new(WindowedWorkerBolt::<TopK<64>>::global()))
        .input(src, Grouping::partial_key())
        .id();
    let _agg = topo
        .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<TopK<64>>::new()))
        .input(worker, Grouping::Global)
        .id();
    let stats = Runtime::new().run(topo);
    // Each worker ships one summary holding its share of the 13 keys; the
    // buffered partial entries across summaries cover every key at least
    // once and at most twice (PKG).
    let buffered = stats.final_state("agg");
    assert!(
        (13..=26).contains(&buffered),
        "buffered sketch entries out of the [K, 2K] band: {buffered}"
    );
}

/// Ticks keep firing while a bolt's upstream is slow; finish still flushes.
#[test]
fn slow_stream_still_ticks() {
    use std::time::Duration;
    struct TickCounter {
        ticks_seen: i64,
    }
    impl Bolt for TickCounter {
        fn execute(&mut self, _t: Tuple, _out: &mut Emitter<'_>) {}
        fn tick(&mut self, _out: &mut Emitter<'_>) {
            self.ticks_seen += 1;
        }
        fn state_size(&self) -> usize {
            self.ticks_seen as usize
        }
    }
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 1, |_| {
        let mut left = 10;
        spout_from_fn(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            std::thread::sleep(Duration::from_millis(8));
            Some(Tuple::new(b"x".to_vec(), 1))
        })
    });
    let _t = topo
        .add_bolt("ticker", 1, |_| Box::new(TickCounter { ticks_seen: 0 }))
        .input(src, Grouping::Global)
        .tick_every(Duration::from_millis(5))
        .id();
    let stats = Runtime::new().run(topo);
    let inst = stats.instances.iter().find(|i| i.component == "ticker").expect("ticker");
    assert!(inst.ticks >= 5, "only {} ticks during ~80ms of slow stream", inst.ticks);
}

/// Ticks keep firing on a 2-worker pool while a saturated source keeps both
/// workers busy. Local work cannot starve the timer wheel: a source
/// re-enters only through the injector, and every visit to the injector
/// also fires the due deadlines. Only ticks fired inside the saturated
/// window count (a tick's catch-up after the source ended does not).
#[test]
fn saturated_stream_still_ticks_on_the_pool() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    const PERIOD: Duration = Duration::from_millis(5);
    const WINDOW: Duration = Duration::from_millis(300);
    struct WindowTicks {
        until: Instant,
        ticks: Arc<AtomicU64>,
    }
    impl Bolt for WindowTicks {
        fn execute(&mut self, _t: Tuple, _out: &mut Emitter<'_>) {}
        fn tick(&mut self, _out: &mut Emitter<'_>) {
            if Instant::now() < self.until {
                self.ticks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let until = Instant::now() + WINDOW;
    let mut topo = Topology::new();
    let src = topo.add_spout("src", 2, move |_| {
        let mut n = 0u64;
        spout_from_fn(move || {
            n += 1;
            (Instant::now() < until).then(|| Tuple::new(format!("k{}", n % 64).into_bytes(), 1))
        })
    });
    // The counters emit nothing, so the ticker's only input is their Eofs:
    // its ticks during the window come from the timer wheel alone.
    let counter = topo
        .add_bolt("counter", 4, |_| Box::new(CountingBolt::default()))
        .input(src, Grouping::Key)
        .id();
    let ticks = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&ticks);
    let _ticker = topo
        .add_bolt("ticker", 1, move |_| Box::new(WindowTicks { until, ticks: Arc::clone(&seen) }))
        .input(counter, Grouping::Global)
        .tick_every(PERIOD)
        .id();
    let opts = RuntimeOptions {
        executor: ExecutorMode::Pool { workers: 2, batch: 0 },
        ..RuntimeOptions::default()
    };
    let stats = Runtime::with_options(opts).run(topo);
    assert_eq!(stats.processed("counter"), stats.processed("src"));
    let fired = ticks.load(Ordering::Relaxed);
    let due = (WINDOW.as_nanos() / PERIOD.as_nanos()) as u64;
    assert!(fired >= due / 2, "{fired} of {due} ticks fired while the source saturated the pool");
}

/// Each pool worker reports its scheduler counters: a slow ticking stream
/// leaves the workers idle between tuples (every idle wait parks or
/// spins) and fires its ticks from the timer wheel. Dedicated threads keep
/// no such counters.
#[test]
fn pool_workers_report_idle_waits_and_fired_timers() {
    use std::time::Duration;
    let run = |executor| {
        let mut topo = Topology::new();
        let src = topo.add_spout("src", 1, |_| {
            let mut left = 10;
            spout_from_fn(move || {
                left -= 1;
                std::thread::sleep(Duration::from_millis(2));
                (left >= 0).then(|| Tuple::new(b"x".to_vec(), 1))
            })
        });
        let _ticker = topo
            .add_bolt("ticker", 1, |_| Box::new(CountingBolt::default()))
            .input(src, Grouping::Global)
            .tick_every(Duration::from_millis(1))
            .id();
        Runtime::with_options(RuntimeOptions { executor, ..RuntimeOptions::default() }).run(topo)
    };
    let stats = run(ExecutorMode::Pool { workers: 2, batch: 0 });
    assert_eq!(stats.workers.len(), 2, "one counter block per worker");
    let fired: u64 = stats.workers.iter().map(|w| w.timers_fired).sum();
    let ticks: u64 = stats.instances.iter().map(|i| i.ticks).sum();
    assert!(fired > 0 && ticks > 0, "{fired} timers fired for {ticks} ticks");
    let waits: u64 = stats.workers.iter().map(|w| w.parks + w.spins).sum();
    assert!(waits > 0, "a 20 ms trickle never left a worker idle");
    assert!(run(ExecutorMode::ThreadPerInstance).workers.is_empty());
}

/// An elastic edge is routing alone: a worker that leaves the live set
/// stops receiving tuples and flushes its open pane at its next tick or at
/// end of stream, one more split of each key. `fig_elastic`'s smoke
/// topology (6 ticking phase-one workers halved then doubled back under 4
/// senders, 2-tick panes at 2 ms) must then merge to exactly the static-W
/// PKG output, run after run, under both schedules.
#[test]
fn elastic_two_phase_counts_equal_the_static_oracle_run_after_run() {
    use partial_key_grouping::agg::Sum;
    use partial_key_grouping::apps::{AggregatorBolt, Collector, WindowedWorkerBolt};
    use partial_key_grouping::elastic::{Change, MembershipPlan};
    use std::time::Duration;
    const W: usize = 6;
    const S: usize = 4;
    const PER_SOURCE: u64 = 5_000;
    const RUNS: usize = 20;
    // ~20% of each source's traffic on one hot key, the rest on a tail.
    let stream = |s: usize| -> Vec<Tuple> {
        (0..PER_SOURCE)
            .map(|j| {
                let key = if j % 5 == 0 {
                    b"k-hot".to_vec()
                } else {
                    format!("k{}", 1 + (j * S as u64 + s as u64) % 997).into_bytes()
                };
                Tuple::new(key, 1)
            })
            .collect()
    };
    let run = |executor: ExecutorMode, grouping: Grouping| {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let src = topo.add_spout("src", S, move |s| spout_from_iter(stream(s)));
        let worker = topo
            .add_bolt("worker", W, |_| {
                Box::new(WindowedWorkerBolt::<Sum>::per_key().panes_every_ticks(2))
            })
            .input(src, grouping)
            .tick_every(Duration::from_millis(2))
            .id();
        let agg = topo
            .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
            .input(worker, Grouping::Key)
            .id();
        let c = collector.clone();
        let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(agg, Grouping::Global);
        let stats = Runtime::with_options(RuntimeOptions { executor, ..RuntimeOptions::default() })
            .run(topo);
        let merged: Vec<(TupleKey, i64, Box<[u8]>)> =
            collector.tuples().into_iter().map(|t| (t.key, t.value, t.payload)).collect();
        (merged, stats.processed("worker"))
    };
    let plan = MembershipPlan::new(W)
        .with_step(PER_SOURCE / 3, [Change::Remove(3), Change::Remove(4), Change::Remove(5)])
        .with_step(2 * PER_SOURCE / 3, [Change::Insert(3), Change::Insert(4), Change::Insert(5)]);
    for (label, executor) in
        [("threads", ExecutorMode::ThreadPerInstance), ("pool", ExecutorMode::pool())]
    {
        let (oracle, processed) = run(executor, Grouping::partial_key());
        assert_eq!(processed, S as u64 * PER_SOURCE, "{label}: static run lost tuples");
        assert_eq!(oracle.iter().map(|(_, v, _)| v).sum::<i64>(), (S as u64 * PER_SOURCE) as i64);
        for i in 0..RUNS {
            let (merged, processed) = run(executor, Grouping::elastic(plan.clone()));
            assert_eq!(processed, S as u64 * PER_SOURCE, "{label} run {i}: tuples lost");
            assert!(merged == oracle, "{label} run {i}: merged output diverged from static W");
        }
    }
}
