//! Differential tests: the thread-per-instance executor is the oracle for
//! the cooperative pool executor. Routing state (per-sender routers seeded
//! by the shared `edge_seed` derivation) is consulted in each sender's own
//! processing order under both executors, so representative topologies must
//! produce **identical** per-instance loads, processed/emitted counts, and
//! (for the two-phase pipelines) byte-identical merged summaries — no
//! tolerance, no statistics. Both schedules run the same instance runtime,
//! so their agreement alone cannot vouch for routing: one test compares
//! every mode against a bare-`Router` replay instead.

use std::time::Duration;

use partial_key_grouping::agg::{PartialAgg, Sum};
use partial_key_grouping::apps::heavy_hitters::{
    final_summary, heavy_hitters_topology, single_phase_summary, HeavyHittersConfig,
};
use partial_key_grouping::apps::wordcount::{
    exact_counts, wordcount_topology, WordCountConfig, WordCountVariant,
};
use partial_key_grouping::apps::{AggregatorBolt, Collector, WindowedWorkerBolt};
use partial_key_grouping::engine::prelude::*;
use partial_key_grouping::engine::ExecutorMode;
use pkg_datagen::DatasetProfile;

const MODES: [(&str, ExecutorMode); 3] = [
    ("threads", ExecutorMode::ThreadPerInstance),
    ("pool", ExecutorMode::Pool { workers: 0, batch: 0 }),
    // A degenerate pool (one worker, tiny quantum) exercises the
    // yield/park machinery far harder than the tuned default.
    ("pool-w1-b8", ExecutorMode::Pool { workers: 1, batch: 8 }),
];

fn opts(executor: ExecutorMode, seed: u64, channel_capacity: usize) -> RuntimeOptions {
    RuntimeOptions { channel_capacity, seed, executor, ..RuntimeOptions::default() }
}

/// The SPSC-ring leg: single-sender edges are exactly where the pool swaps
/// its mutexed mailboxes for rings, so these runs compare the thread oracle
/// against BOTH pool transports — rings enabled (the default) and forced
/// off (`spsc_rings: false`), which must not change a single observable.
const RING_MODES: [(&str, ExecutorMode, bool); 4] = [
    ("threads", ExecutorMode::ThreadPerInstance, true),
    ("pool-ring", ExecutorMode::Pool { workers: 0, batch: 0 }, true),
    ("pool-mutex", ExecutorMode::Pool { workers: 0, batch: 0 }, false),
    // One worker + tiny quantum again, now over rings: maximal parking.
    ("pool-w1-b8-ring", ExecutorMode::Pool { workers: 1, batch: 8 }, true),
];

fn ring_opts(
    (executor, rings): (ExecutorMode, bool),
    seed: u64,
    channel_capacity: usize,
) -> RuntimeOptions {
    RuntimeOptions {
        channel_capacity,
        seed,
        executor,
        spsc_rings: rings,
        ..RuntimeOptions::default()
    }
}

/// Deterministic per-instance observables of one run.
#[derive(Debug, PartialEq)]
struct Observed {
    loads: Vec<u64>,
    processed: u64,
    emitted: u64,
}

fn observe(stats: &partial_key_grouping::engine::RunStats, component: &str) -> Observed {
    Observed {
        loads: stats.loads(component),
        processed: stats.processed(component),
        emitted: stats.emitted(component),
    }
}

/// Word count without periodic flushes is fully deterministic end to end:
/// every variant must agree across executors down to per-instance loads.
#[test]
fn wordcount_loads_identical_across_executors() {
    for variant in [
        WordCountVariant::KeyGrouping,
        WordCountVariant::ShuffleGrouping,
        WordCountVariant::PartialKeyGrouping,
    ] {
        let cfg = WordCountConfig {
            variant,
            sources: 2,
            counters: 7,
            messages_per_source: 15_000,
            vocabulary: 1_000,
            aggregation_period: None,
            seed: 97,
            ..WordCountConfig::default()
        };
        let mut baseline: Option<(Observed, Observed)> = None;
        for (label, mode) in MODES {
            let (topo, _, _, _) = wordcount_topology(&cfg);
            let stats = Runtime::with_options(opts(mode, 5, 256)).run(topo);
            assert_eq!(
                stats.processed("counter"),
                30_000,
                "{label}/{} message conservation",
                variant.label()
            );
            let got = (observe(&stats, "counter"), observe(&stats, "aggregator"));
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "{label}/{} diverged from oracle", variant.label())
                }
            }
        }
    }
}

/// Single-source word count over every variant: the source → counter edge
/// has exactly one upstream sender, so under the default pool options each
/// counter's mailbox is an SPSC ring. Thread oracle, ring pool, and
/// mutex-forced pool must agree on every per-instance observable.
#[test]
fn single_sender_wordcount_identical_across_ring_and_mutex_pools() {
    for variant in [
        WordCountVariant::KeyGrouping,
        WordCountVariant::ShuffleGrouping,
        WordCountVariant::PartialKeyGrouping,
    ] {
        let cfg = WordCountConfig {
            variant,
            sources: 1,
            counters: 7,
            messages_per_source: 15_000,
            vocabulary: 1_000,
            aggregation_period: None,
            seed: 41,
            ..WordCountConfig::default()
        };
        let mut baseline: Option<(Observed, Observed)> = None;
        for (label, mode, rings) in RING_MODES {
            let (topo, _, _, _) = wordcount_topology(&cfg);
            // A small capacity forces ring-full spills and producer parks.
            let stats = Runtime::with_options(ring_opts((mode, rings), 7, 32)).run(topo);
            assert_eq!(
                stats.processed("counter"),
                15_000,
                "{label}/{} message conservation",
                variant.label()
            );
            let got = (observe(&stats, "counter"), observe(&stats, "aggregator"));
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    assert_eq!(&got, want, "{label}/{} diverged from oracle", variant.label())
                }
            }
        }
    }
}

/// Single-source diamond: the spout edges (one sender) ride rings while the
/// join's fan-in (five senders) stays mutexed — the mixed-transport
/// topology must still match the thread oracle and the mutex-only pool
/// exactly, Eof counting included.
#[test]
fn single_sender_diamond_identical_across_ring_and_mutex_pools() {
    struct Forward;
    impl Bolt for Forward {
        fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
            out.emit(t);
        }
    }
    let build = || {
        let mut topo = Topology::new();
        let s = topo.add_spout("src", 1, |_| {
            spout_from_iter(
                (0..6_000u64).map(|i| Tuple::new(format!("k{}", i % 31).into_bytes(), 1)),
            )
        });
        let a = topo.add_bolt("a", 2, |_| Box::new(Forward)).input(s, Grouping::Shuffle).id();
        let b = topo.add_bolt("b", 3, |_| Box::new(Forward)).input(s, Grouping::Key).id();
        let _join = topo
            .add_bolt("join", 4, |_| Box::new(CountingBolt::default()))
            .input(a, Grouping::Key)
            .input(b, Grouping::Key);
        topo
    };
    let mut baseline: Option<Vec<Observed>> = None;
    for (label, mode, rings) in RING_MODES {
        let stats = Runtime::with_options(ring_opts((mode, rings), 23, 64)).run(build());
        let got: Vec<Observed> =
            ["src", "a", "b", "join"].iter().map(|c| observe(&stats, c)).collect();
        assert_eq!(got[3].processed, 12_000, "{label} join sees both branches");
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "{label} diverged from oracle"),
        }
    }
}

/// The two-phase heavy-hitters pipeline must produce a byte-identical
/// merged SpaceSaving summary under every executor — and match the
/// out-of-engine single-phase oracle, which replays the exact edge-seed
/// derivation the runtime uses.
#[test]
fn heavy_hitters_summary_bytes_identical_across_executors() {
    let cfg = HeavyHittersConfig {
        workers: 6,
        profile: DatasetProfile::cashtags().with_messages(30_000),
        ..HeavyHittersConfig::default()
    };
    let oracle = single_phase_summary(&cfg).encoded();
    for (label, mode) in MODES {
        let (topo, collector) = heavy_hitters_topology(&cfg);
        let stats = Runtime::with_options(opts(mode, cfg.engine_seed, 512)).run(topo);
        assert_eq!(stats.processed("worker"), 30_000, "{label} conservation");
        let summary = final_summary(&collector).expect("summary collected");
        assert_eq!(summary.emit(), 30_000, "{label} summary mass");
        assert_eq!(summary.encoded(), oracle, "{label} summary bytes diverged");
    }
}

/// Tick-driven flushes are wall-clock dependent (tick counts legitimately
/// differ between runs and executors), but conservation and final totals
/// must not: the collector's per-key sums equal the exact stream counts
/// under every executor.
#[test]
fn tick_flush_pipeline_conserves_counts_across_executors() {
    let cfg = WordCountConfig {
        variant: WordCountVariant::PartialKeyGrouping,
        sources: 1,
        counters: 5,
        messages_per_source: 20_000,
        vocabulary: 400,
        seed: 13,
        ..WordCountConfig::default()
    };
    let exact = exact_counts(&cfg);
    for (label, mode) in MODES {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let c = cfg.clone();
        let source = topo.add_spout("source", c.sources, move |i| {
            let zipf = pkg_datagen::zipf::ZipfTable::with_p1(c.vocabulary, c.p1);
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(
                c.seed ^ (i as u64).wrapping_mul(0x9e37),
            );
            let mut left = c.messages_per_source;
            spout_from_fn(move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                let word = pkg_datagen::text::word_for_rank(zipf.sample(&mut rng));
                Some(Tuple::new(word.into_bytes(), 1))
            })
        });
        let worker = topo
            .add_bolt("worker", cfg.counters, |_| Box::new(WindowedWorkerBolt::<Sum>::per_key()))
            .input(source, Grouping::partial_key())
            .tick_every(Duration::from_millis(5))
            .id();
        let agg = topo
            .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
            .input(worker, Grouping::Key)
            .id();
        let col = collector.clone();
        let _ = topo.add_bolt("sink", 1, move |_| col.bolt()).input(agg, Grouping::Global);
        let stats = Runtime::with_options(opts(mode, cfg.seed, 1024)).run(topo);
        assert_eq!(stats.processed("worker"), 20_000, "{label} conservation");
        let instances = stats.instances.iter().filter(|i| i.component == "worker").count();
        assert_eq!(instances, cfg.counters, "{label} all workers report");
        let totals = collector.totals();
        assert_eq!(
            totals.iter().map(|(_, v)| v).sum::<i64>(),
            20_000,
            "{label} total mass through tick flushes"
        );
        for (key, total) in &totals {
            let word = std::str::from_utf8(key).expect("words are utf8");
            assert_eq!(*total, exact.get(word).copied().unwrap_or(0), "{label} word {word} total");
        }
    }
}

/// Diamond fan-in with multiple upstream components: Eof counting and
/// multi-edge emission must agree across executors exactly.
///
/// Groupings here are deliberately stateless (`Key`/`Shuffle`-from-spout):
/// a bolt fed by *several* upstream instances processes a nondeterministic
/// interleaving of their streams — in any executor, run to run — so a
/// load-estimating router (PKG) on such a bolt's out-edge is not
/// reproducible even under the thread oracle. Byte-identical routing is a
/// per-sender property: it holds wherever the sender's own processing
/// order is deterministic, which the other tests pin down for PKG.
#[test]
fn diamond_topology_identical_across_executors() {
    struct Forward;
    impl Bolt for Forward {
        fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
            out.emit(t);
        }
    }
    let build = || {
        let mut topo = Topology::new();
        let s = topo.add_spout("src", 2, |_| {
            spout_from_iter(
                (0..3_000u64).map(|i| Tuple::new(format!("k{}", i % 31).into_bytes(), 1)),
            )
        });
        let a = topo.add_bolt("a", 2, |_| Box::new(Forward)).input(s, Grouping::Shuffle).id();
        let b = topo.add_bolt("b", 3, |_| Box::new(Forward)).input(s, Grouping::Key).id();
        let _join = topo
            .add_bolt("join", 4, |_| Box::new(CountingBolt::default()))
            .input(a, Grouping::Key)
            .input(b, Grouping::Key);
        topo
    };
    let mut baseline: Option<Vec<Observed>> = None;
    for (label, mode) in MODES {
        let stats = Runtime::with_options(opts(mode, 21, 128)).run(build());
        let got: Vec<Observed> =
            ["src", "a", "b", "join"].iter().map(|c| observe(&stats, c)).collect();
        assert_eq!(got[3].processed, 12_000, "{label} join sees both branches");
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "{label} diverged from oracle"),
        }
    }
}

/// The adaptive D-Choices/W-Choices groupings route per-sender with
/// deterministic head-tracker state, so — like PKG — their per-instance
/// loads must be byte-identical across executors, while actually widening
/// the hot key past two instances.
#[test]
fn adaptive_choice_groupings_identical_across_executors() {
    for (name, grouping) in
        [("d-choices", Grouping::d_choices()), ("w-choices", Grouping::w_choices())]
    {
        let grouping_for_build = grouping.clone();
        let build = move || {
            let mut topo = Topology::new();
            // 2 sources, 30% hot key: the head threshold at 16 instances is
            // θ = 2(1+ε)/16 ≈ 0.14, so the hot key classifies head at each
            // sender while the 500-key tail stays two-choice.
            let s = topo.add_spout("src", 2, |_| {
                spout_from_iter((0..15_000u64).map(|i| {
                    let word = if i % 10 < 3 { "hot".to_string() } else { format!("w{}", i % 500) };
                    Tuple::new(word.into_bytes(), 1)
                }))
            });
            let _count = topo
                .add_bolt("count", 16, |_| Box::new(CountingBolt::default()))
                .input(s, grouping_for_build.clone());
            topo
        };
        let mut baseline: Option<Observed> = None;
        for (label, mode) in MODES {
            let stats = Runtime::with_options(opts(mode, 13, 256)).run(build());
            assert_eq!(stats.processed("count"), 30_000, "{label}/{name} conservation");
            let got = observe(&stats, "count");
            match &baseline {
                None => baseline = Some(got),
                Some(want) => assert_eq!(&got, want, "{label}/{name} diverged from oracle"),
            }
        }
        // The loads themselves prove the scheme engaged: with KG-like
        // routing the hot 9000 tuples would pin one instance; adaptive
        // routing spreads them, so no instance holds more than a third.
        let loads = baseline.expect("ran at least one mode").loads;
        let max = *loads.iter().max().expect("non-empty");
        assert!(max < 10_000, "{name}: loads {loads:?} suggest the hot key never widened");
    }
}

/// Source `i`'s deterministic skewed stream: three in ten tuples carry the
/// source's own hot key, the rest a 400-word tail drawn by a xorshift seeded
/// per source, so no two sources offer the same sequence.
fn skewed_stream(i: usize, n: u64) -> impl Iterator<Item = Tuple> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = if x % 10 < 3 { format!("hot{i}") } else { format!("w{}", (x >> 8) % 400) };
        Tuple::new(word.into_bytes(), 1)
    })
}

/// Executor-free oracle: 3 sources feed a 10-instance counter, and the
/// expected per-instance loads come from replaying each source's stream
/// through a bare `Router` built with the runtime's own `edge_seed`. Every
/// executor mode and transport must equal that replay exactly — so a
/// routing bug shared by all executors cannot hide behind their agreement.
#[test]
fn loads_equal_a_bare_router_replay_in_every_mode() {
    use partial_key_grouping::engine::edge_seed;
    use partial_key_grouping::engine::grouping::{Router, Target};
    const SOURCES: usize = 3;
    const COUNTERS: usize = 10;
    const PER_SOURCE: u64 = 5_000;
    const SEED: u64 = 29;
    for grouping in [
        Grouping::Key,
        Grouping::Shuffle,
        Grouping::partial(2),
        Grouping::d_choices(),
        Grouping::w_choices(),
        Grouping::Global,
    ] {
        let mut replay = vec![0u64; COUNTERS];
        for sender in 0..SOURCES {
            let mut router = Router::new(&grouping, COUNTERS, edge_seed(SEED, 0, 1), sender);
            for tuple in skewed_stream(sender, PER_SOURCE) {
                match router.route(tuple.key_id()) {
                    Target::One(w) => replay[w] += 1,
                    Target::All => unreachable!("no broadcast grouping in this sweep"),
                }
            }
        }
        assert_eq!(replay.iter().sum::<u64>(), SOURCES as u64 * PER_SOURCE);
        let build = || {
            let mut topo = Topology::new();
            let s =
                topo.add_spout("src", SOURCES, |i| spout_from_iter(skewed_stream(i, PER_SOURCE)));
            let _ = topo
                .add_bolt("count", COUNTERS, |_| Box::new(CountingBolt::default()))
                .input(s, grouping.clone());
            topo
        };
        let legs = MODES.iter().map(|&(label, mode)| (label, opts(mode, SEED, 32))).chain(
            RING_MODES
                .iter()
                .map(|&(label, mode, rings)| (label, ring_opts((mode, rings), SEED, 32))),
        );
        for (label, options) in legs {
            let stats = Runtime::with_options(options).run(build());
            assert_eq!(
                stats.loads("count"),
                replay,
                "{label}/{grouping:?} diverged from the replay"
            );
        }
    }
}

/// One arrival at a recording bolt: the tuple's key and value.
type Arrival = (Vec<u8>, i64);

/// Per-instance arrival logs of one recording component, shared with the
/// bolts that fill them.
#[derive(Clone)]
struct Arrivals(std::sync::Arc<std::sync::Mutex<Vec<Vec<Arrival>>>>);

impl Arrivals {
    fn new(instances: usize) -> Self {
        Self(std::sync::Arc::new(std::sync::Mutex::new(vec![Vec::new(); instances])))
    }

    fn bolt(&self, instance: usize) -> Box<dyn Bolt> {
        Box::new(Recorder { log: self.clone(), instance })
    }

    fn logs(&self) -> Vec<Vec<Arrival>> {
        self.0.lock().expect("arrival log").clone()
    }
}

/// Logs every tuple it receives, in arrival order.
struct Recorder {
    log: Arrivals,
    instance: usize,
}

impl Bolt for Recorder {
    fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
        self.log.0.lock().expect("arrival log")[self.instance].push(arrival(&t));
    }
}

fn arrival(t: &Tuple) -> Arrival {
    (t.key.as_bytes().to_vec(), t.value)
}

/// Sender `sender`'s stream for the arrival oracle: the skewed stream with
/// each value set to `sender << 32 | seq`, so a recorder's log splits back
/// into per-sender subsequences.
fn tagged_stream(sender: usize, n: u64) -> Vec<Tuple> {
    skewed_stream(sender, n)
        .zip(0i64..)
        .map(|(mut t, seq)| {
            t.value = (sender as i64) << 32 | seq;
            t
        })
        .collect()
}

fn sender_of(a: &Arrival) -> usize {
    (a.1 >> 32) as usize
}

/// One spout out-edge of an arrival-oracle leg: its grouping and the
/// recording component (index into the leg's recorders) it feeds.
struct OracleEdge {
    grouping: Grouping,
    rec: usize,
}

/// What each recorder instance must receive from one sender: the stream
/// replayed tuple by tuple through one bare `Router` per out-edge, in edge
/// order, each elastic epoch entered before the tuple that crosses its
/// threshold — the emitter's contract, with no engine involved.
/// `from` is the sending component's index; recorder `r` is component
/// `r + 1 + from`.
fn replay_arrivals(
    stream: &[Tuple],
    sender: usize,
    from: usize,
    edges: &[OracleEdge],
    recorders: &[usize],
    seed: u64,
) -> Vec<Vec<Vec<Arrival>>> {
    use partial_key_grouping::engine::edge_seed;
    use partial_key_grouping::engine::grouping::{Router, Target};
    let mut routers: Vec<Router> = edges
        .iter()
        .map(|e| {
            let to = e.rec + 1 + from;
            Router::new(&e.grouping, recorders[e.rec], edge_seed(seed, from, to), sender)
        })
        .collect();
    let mut want: Vec<Vec<Vec<Arrival>>> = recorders.iter().map(|&n| vec![Vec::new(); n]).collect();
    for t in stream {
        for (e, router) in edges.iter().zip(&mut routers) {
            let log = &mut want[e.rec];
            while router.advance_epoch().is_some() {}
            match router.route(t.key_id()) {
                Target::One(w) => log[w].push(arrival(t)),
                Target::All => log.iter_mut().for_each(|w| w.push(arrival(t))),
            }
        }
    }
    want
}

/// Forwards each input twice (a primed copy, then the tuple) on `execute`,
/// announces every tick with `("tick<i>", executed so far)`, and signs off
/// with `("fin", executed)` — emissions from all three callbacks.
#[derive(Default)]
struct Relay {
    executed: i64,
    ticks: u64,
}

impl Bolt for Relay {
    fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
        self.executed += 1;
        out.emit(primed(&t));
        out.emit(t);
    }

    fn tick(&mut self, out: &mut Emitter<'_>) {
        out.emit(Tuple::new(format!("tick{}", self.ticks).into_bytes(), self.executed));
        self.ticks += 1;
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        out.emit(Tuple::new(b"fin".to_vec(), self.executed));
    }
}

fn primed(t: &Tuple) -> Tuple {
    let mut key = t.key.as_bytes().to_vec();
    key.push(b'\'');
    Tuple::new(key, t.value)
}

/// The relay's emission stream, rebuilt from where its tick announcements
/// landed: ticks fire on the wall clock, but each carries how many inputs
/// the relay had executed, which pins its place among the deterministic
/// `execute` emissions.
fn relay_emissions(input: &[Tuple], logs: &[Vec<Arrival>]) -> Vec<Tuple> {
    let mut ticks: Vec<(u64, i64)> = logs
        .iter()
        .flatten()
        .filter_map(|(key, executed)| {
            let idx = std::str::from_utf8(key).ok()?.strip_prefix("tick")?.parse().ok()?;
            Some((idx, *executed))
        })
        .collect();
    ticks.sort_unstable();
    assert!(ticks.iter().zip(0u64..).all(|(&(idx, _), i)| idx == i), "tick ids are 0..n");
    let mut ticks = ticks.into_iter().peekable();
    let mut out = Vec::new();
    for (executed, t) in (0i64..).zip(input.iter().map(Some).chain([None])) {
        while let Some((idx, _)) = ticks.next_if(|&(_, at)| at == executed) {
            out.push(Tuple::new(format!("tick{idx}").into_bytes(), executed));
        }
        match t {
            Some(t) => out.extend([primed(t), t.clone()]),
            None => out.push(Tuple::new(b"fin".to_vec(), executed)),
        }
    }
    assert!(ticks.next().is_none(), "every tick landed between executes");
    out
}

/// Executor-free arrival oracle: recording bolts log each instance's full
/// arrival sequence, and every sender's subsequence must equal a
/// bare-`Router` replay of its stream — in every mode and transport, with
/// capacity-1 and capacity-32 mailboxes. Unlike the load
/// oracle above, this sees a reordering, not just a miscount. Legs:
/// Broadcast; one spout with two out-edges (PKG and Key); one component
/// subscribed twice to the same spout, so two edges share destination tasks
/// and their per-tuple interleaving must survive; Elastic over a two-step
/// plan; and a relay bolt emitting from `execute`, `tick` and `finish`.
#[test]
fn arrivals_equal_a_bare_router_replay_in_every_mode() {
    use partial_key_grouping::elastic::{Change, MembershipPlan};
    const PER_SOURCE: u64 = 600;
    const SEED: u64 = 31;
    let plan = MembershipPlan::new(4)
        .with_step(150, [Change::Remove(3)])
        .with_step(400, [Change::Insert(3), Change::Remove(0)]);
    // (leg, senders, spout out-edges in engine order, recorder sizes)
    let spout_legs: Vec<(&str, usize, Vec<OracleEdge>, Vec<usize>)> = vec![
        ("broadcast", 2, vec![OracleEdge { grouping: Grouping::Broadcast, rec: 0 }], vec![3]),
        (
            "two-out-edges",
            2,
            vec![
                OracleEdge { grouping: Grouping::partial_key(), rec: 0 },
                OracleEdge { grouping: Grouping::Key, rec: 1 },
            ],
            vec![4, 3],
        ),
        (
            "subscribed-twice",
            2,
            vec![
                OracleEdge { grouping: Grouping::partial_key(), rec: 0 },
                OracleEdge { grouping: Grouping::Shuffle, rec: 0 },
            ],
            vec![3],
        ),
        ("elastic", 1, vec![OracleEdge { grouping: Grouping::elastic(plan), rec: 0 }], vec![4]),
    ];
    let legs = MODES
        .iter()
        .map(|&(label, mode)| (label, (mode, true)))
        .chain(RING_MODES.iter().map(|&(label, mode, rings)| (label, (mode, rings))));
    for (label, mode) in legs {
        for cap in [1, 32] {
            for (leg, senders, edges, sizes) in &spout_legs {
                let recorders: Vec<Arrivals> = sizes.iter().map(|&n| Arrivals::new(n)).collect();
                let mut topo = Topology::new();
                let s = topo
                    .add_spout("src", *senders, |i| spout_from_iter(tagged_stream(i, PER_SOURCE)));
                for (r, rec) in recorders.iter().enumerate() {
                    let rec = rec.clone();
                    let mut bolt =
                        topo.add_bolt(&format!("rec{r}"), sizes[r], move |i| rec.bolt(i));
                    for e in edges.iter().filter(|e| e.rec == r) {
                        bolt = bolt.input(s, e.grouping.clone());
                    }
                }
                let _ = Runtime::with_options(ring_opts(mode, SEED, cap)).run(topo);
                for sender in 0..*senders {
                    let stream = tagged_stream(sender, PER_SOURCE);
                    let want = replay_arrivals(&stream, sender, 0, edges, sizes, SEED);
                    for (r, rec) in recorders.iter().enumerate() {
                        for (w, log) in rec.logs().iter().enumerate() {
                            let got: Vec<Arrival> =
                                log.iter().filter(|a| sender_of(a) == sender).cloned().collect();
                            assert!(
                                got == want[r][w],
                                "{label}/cap {cap}/{leg}: rec{r}[{w}] from sender {sender} \
                                 diverged from the replay ({} arrivals, {} expected)",
                                got.len(),
                                want[r][w].len()
                            );
                        }
                    }
                }
            }
            // Relay leg: spout → relay (one instance) → 4 recorders via PKG.
            let recorder = Arrivals::new(4);
            let mut topo = Topology::new();
            let s = topo.add_spout("src", 1, |i| spout_from_iter(tagged_stream(i, PER_SOURCE)));
            let relay = topo
                .add_bolt("relay", 1, |_| Box::new(Relay::default()))
                .input(s, Grouping::Global)
                .tick_every(Duration::from_micros(500))
                .id();
            let rec = recorder.clone();
            let _ =
                topo.add_bolt("rec", 4, move |i| rec.bolt(i)).input(relay, Grouping::partial_key());
            let _ = Runtime::with_options(ring_opts(mode, SEED, cap)).run(topo);
            let logs = recorder.logs();
            let emitted = relay_emissions(&tagged_stream(0, PER_SOURCE), &logs);
            let edge = [OracleEdge { grouping: Grouping::partial_key(), rec: 0 }];
            let want = replay_arrivals(&emitted, 0, 1, &edge, &[4], SEED);
            for (w, log) in logs.iter().enumerate() {
                assert!(
                    *log == want[0][w],
                    "{label}/cap {cap}/relay: rec[{w}] diverged from the replay \
                     ({} arrivals, {} expected)",
                    log.len(),
                    want[0][w].len()
                );
            }
        }
    }
}

/// Backpressure regime: capacity-1 mailboxes through a chain. The pool must
/// park/unpark its way through while preserving the exact same counts.
#[test]
fn tiny_capacity_chain_identical_across_executors() {
    struct Inc;
    impl Bolt for Inc {
        fn execute(&mut self, mut t: Tuple, out: &mut Emitter<'_>) {
            t.value += 1;
            out.emit(t);
        }
    }
    let build = || {
        let mut topo = Topology::new();
        let s = topo.add_spout("src", 1, |_| {
            spout_from_iter((0..800u64).map(|i| Tuple::new(format!("k{i}").into_bytes(), 0)))
        });
        let mut prev = topo.add_bolt("s1", 1, |_| Box::new(Inc)).input(s, Grouping::Global).id();
        for name in ["s2", "s3"] {
            prev = topo.add_bolt(name, 1, |_| Box::new(Inc)).input(prev, Grouping::Global).id();
        }
        let _sink = topo
            .add_bolt("sink", 2, |_| Box::new(CountingBolt::default()))
            .input(prev, Grouping::Shuffle);
        topo
    };
    let mut baseline: Option<Observed> = None;
    for (label, mode) in MODES {
        let stats = Runtime::with_options(opts(mode, 3, 1)).run(build());
        assert_eq!(stats.processed("sink"), 800, "{label} drains the chain");
        let got = observe(&stats, "sink");
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "{label} diverged from oracle"),
        }
    }
}
