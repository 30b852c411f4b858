//! The per-layer ledger (`--trace 1`): one number per layer of the tuple
//! path — sample, hash, route, transfer, schedule, execute, merge — plus
//! the priced opt-ins and the traced replay's decomposition.
//!
//! Layers are the crates, and every measurement calls only their public
//! functions. The ledger is a property of the commit, not of a workload:
//! it reads the same whichever `--workload` a traced run names.
//! `benchmark/README.md` lists which end-to-end metric each entry should
//! move, and on which workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pkg_agg::{PartialAgg, SpaceSaving, Sum, TopK, TumblingWindow};
use pkg_apps::wordcount::{wordcount_topology, WordCountConfig};
use pkg_core::{ChoiceConfig, EstimateKind, HeadTracker, SchemeSpec, SharedLoads};
use pkg_datagen::text::word_bytes_for_rank;
use pkg_datagen::zipf::ZipfTable;
use pkg_elastic::MembershipPlan;
use pkg_engine::grouping::{Router, Target, TargetBatch};
use pkg_engine::prelude::{spout_from_fn, CountingBolt, Topology};
use pkg_engine::ring::SpscRing;
use pkg_engine::tuple::Packet;
use pkg_engine::{
    ExecutorMode, Grouping, LoadSignalOptions, RunStats, Runtime, RuntimeOptions, Tuple, TupleKey,
};
use pkg_hash::murmur3::{murmur3_64, murmur3_64_u64};
use pkg_hash::HashFamily;
use pkg_ingress::TokenBucket;
use pkg_metrics::{CapacityEstimator, LatencyHistogram, LoadMetricKind, DEFAULT_ESTIMATOR_WINDOW};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spec::PER_LAYER;
use crate::stats::Summary;
use crate::trace::{self, STAGES};
use crate::workloads::{
    conservation_failures, lexicon, never_shedding_ingress, pool_options, run_wordcount, sim_leg,
    sim_schemes, sim_stream, wordcount_job, Workload, FLAGSHIP_COUNTERS as COUNTERS, POOL_WORKERS,
    SIM_WORKERS,
};

/// Operations per timed call of a microbenchmark: long enough (≥ 50 µs)
/// that reading the clock is noise.
const OPS: usize = 16_384;

/// The measured ledger, in `spec::PER_LAYER` order.
pub struct Ledger {
    pub metrics: Vec<Summary>,
    /// Tuples pushed through the engine jobs and simulator legs.
    pub attempted: u64,
    /// Conservation failures among them.
    pub failed: u64,
}

/// Collects `(metric name, summary)` pairs as they are measured.
struct Bench {
    /// Time given to each microbenchmark.
    slice: Duration,
    /// Size of the engine jobs and simulator legs relative to a 10 s run.
    scale: f64,
    seed: u64,
    out: Vec<(&'static str, Summary)>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Call `f` — which performs `ops` operations — until the slice is
    /// used up, at least three times, after one untimed call; record the
    /// median time per operation in ns.
    fn time(&mut self, name: &'static str, ops: f64, mut f: impl FnMut()) {
        f();
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 3 || started.elapsed() < self.slice {
            let call = Instant::now();
            f();
            samples.push(call.elapsed().as_nanos() as f64 / ops);
        }
        self.out.push((name, Summary::of(&samples)));
    }

    fn record(&mut self, name: &'static str, samples: &[f64]) {
        self.out.push((name, Summary::of(samples)));
    }

    /// Run one engine job and return its statistics, counting its tuples
    /// and checking conservation like any workload repetition.
    fn job(&mut self, cfg: &WordCountConfig, opts: RuntimeOptions) -> RunStats {
        let stats = run_wordcount(cfg, opts).stats;
        let offered = cfg.messages_per_source * cfg.sources as u64;
        self.attempted += offered;
        self.failed += conservation_failures(&stats, offered);
        stats
    }
}

/// Worker-nanoseconds per counter-stage tuple: the run's wall time on
/// `cores` cores over the tuples completed.
fn ns_per_tuple(stats: &RunStats, cores: usize) -> f64 {
    cores as f64 * stats.wall.as_nanos() as f64 / stats.processed("counter") as f64
}

/// A short flagship job (one tenth of `wc_sat_pool`, times `scale`).
fn short_flagship(seed: u64, scale: f64) -> (WordCountConfig, RuntimeOptions) {
    wordcount_job(Workload::WcSatPool, seed, 0.1 * scale)
}

/// Worker-ns per tuple of one full-size `wc_sat_pool` repetition, which
/// `perf_ledger trace` decomposes.
pub fn flagship_ns_per_tuple(seed: u64) -> f64 {
    let (cfg, opts) = wordcount_job(Workload::WcSatPool, seed, 1.0);
    ns_per_tuple(&run_wordcount(&cfg, opts).stats, POOL_WORKERS)
}

/// Measure the whole ledger in about `seconds` seconds; the traced replay
/// writes its spans to `trace_path`.
pub fn measure(seed: u64, seconds: f64, trace_path: &str) -> Result<Ledger, String> {
    let scale = seconds / 10.0;
    let mut b = Bench {
        slice: Duration::from_secs_f64(0.04 * scale),
        scale,
        seed,
        out: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let keys: Vec<u64> = sim_stream(OPS as u64, seed).iter(seed).map(|m| m.key).collect();

    datagen_and_setup(&mut b);
    hashing(&mut b, &keys);
    routing(&mut b, &keys);
    simulator_legs(&mut b);
    engine_parts(&mut b, &keys);
    small_parts(&mut b);
    aggregation(&mut b);
    let pool_ns = pool_jobs(&mut b);
    priced_opt_ins(&mut b, pool_ns);

    let replay = trace::traced_run(seed, (500_000.0 * scale) as u64 + 1, trace_path)?;
    for ((_, metric), ns) in STAGES.iter().zip(replay.stage_ns) {
        b.record(metric, &[ns]);
    }
    b.record("engine.pool.residual_ns", &[pool_ns - replay.staged_ns()]);
    b.record("trace.overhead_pct", &[replay.overhead_pct]);
    b.record("trace.spans", &[replay.spans as f64]);
    b.attempted += replay.tuples;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let found = b.out.iter().find(|(name, _)| *name == m.name);
            found.map(|(_, s)| *s).ok_or_else(|| format!("ledger did not measure {}", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    assert_eq!(b.out.len(), PER_LAYER.len(), "ledger measured a metric the spec does not list");
    Ok(Ledger { metrics, attempted: b.attempted, failed: b.failed })
}

fn datagen_and_setup(b: &mut Bench) {
    let zipf = ZipfTable::with_p1(10_000, 0.0932);
    let mut rng = SmallRng::seed_from_u64(b.seed);
    b.time("datagen.zipf_sample_ns", OPS as f64, || {
        let mut acc = 0u64;
        for _ in 0..OPS {
            acc ^= zipf.sample(&mut rng);
        }
        black_box(acc);
    });
    let (stream, seed) = (sim_stream(OPS as u64, b.seed), b.seed);
    b.time("datagen.stream_iter_ns", OPS as f64, || {
        black_box(stream.iter(seed).fold(0u64, |acc, m| acc ^ m.key));
    });
    // Set-up costs, in ms per call: the Zipf exponent fit over the flush
    // workload's 60k-word vocabulary, and the flagship's topology build.
    b.time("datagen.zipf_fit_ms", 1e6, || {
        black_box(ZipfTable::with_p1(60_000, 0.01));
    });
    let (cfg, _) = short_flagship(seed, 1.0);
    b.time("apps.topology_build_ms", 1e6, || {
        black_box(wordcount_topology(&cfg));
    });
}

fn hashing(b: &mut Bench, keys: &[u64]) {
    let seed = b.seed;
    b.time("hash.murmur3_u64_ns", OPS as f64, || {
        black_box((0..OPS as u64).fold(0u64, |acc, i| acc ^ murmur3_64_u64(black_box(i), seed)));
    });
    b.time("hash.murmur3_bytes16_ns", OPS as f64, || {
        let mut bytes = [0x5au8; 16];
        let mut acc = 0u64;
        for i in 0..OPS as u64 {
            bytes[..8].copy_from_slice(&i.to_le_bytes());
            acc ^= murmur3_64(black_box(&bytes), seed);
        }
        black_box(acc);
    });
    let family = HashFamily::new(2, seed);
    b.time("hash.family_choices_d2_ns", keys.len() as f64, || {
        let mut out = [0usize; 2];
        let mut acc = 0usize;
        for key in keys {
            let c = family.choices_into(key, COUNTERS, &mut out);
            acc ^= c[0] ^ c[1];
        }
        black_box(acc);
    });
}

fn routing(b: &mut Bench, keys: &[u64]) {
    let names = [
        "core.route_kg_ns",
        "core.route_pkg_ns",
        "core.route_dchoices_ns",
        "core.route_wchoices_ns",
    ];
    for (name, scheme) in names.into_iter().zip(sim_schemes()) {
        let shared = SharedLoads::new(SIM_WORKERS);
        let mut partitioner = scheme.build(SIM_WORKERS, b.seed, 0, &shared, None);
        b.time(name, keys.len() as f64, || {
            black_box(keys.iter().fold(0usize, |acc, &k| acc ^ partitioner.route(k, 0)));
        });
    }
    let mut tracker = HeadTracker::for_threshold(ChoiceConfig::default().theta(SIM_WORKERS));
    b.time("core.head_tracker_observe_ns", keys.len() as f64, || {
        black_box(keys.iter().fold(0u64, |acc, &k| acc ^ tracker.observe(k)));
    });

    // The signal path `wc_optin_pool` routes on: Peak-EWMA plus the online
    // capacity estimator, shared by every sender.
    let estimator = Arc::new(CapacityEstimator::new(COUNTERS, DEFAULT_ESTIMATOR_WINDOW));
    let shared =
        SharedLoads::new(COUNTERS).with_signals(LoadMetricKind::peak_ewma(), Some(estimator));
    let mut pkg = SchemeSpec::pkg(EstimateKind::Local).build(COUNTERS, b.seed, 0, &shared, None);
    b.time("core.route_pkg_signals_ns", keys.len() as f64, || {
        for &k in keys {
            shared.record(pkg.route(k, 0));
        }
    });
    let signals = Arc::clone(shared.signals().expect("Peak-EWMA attaches signals"));
    b.time("core.signals_dispatch_complete_ns", OPS as f64, || {
        for i in 0..OPS {
            let w = i % COUNTERS;
            signals.dispatch(w);
            signals.complete(w, 1_000 + (i as u64 & 0xff));
        }
    });
}

/// The four legs of `route_sim` at a third of its size, one sample each.
fn simulator_legs(b: &mut Bench) {
    let messages = (1_000_000.0 * b.scale) as u64 + 1;
    let stream = sim_stream(messages, b.seed);
    let names = [
        "sim.kg_ns_per_msg",
        "sim.pkg_ns_per_msg",
        "sim.dchoices_ns_per_msg",
        "sim.wchoices_ns_per_msg",
    ];
    for (name, scheme) in names.into_iter().zip(sim_schemes()) {
        let started = Instant::now();
        let report = sim_leg(&stream, scheme, b.seed);
        let ns = started.elapsed().as_nanos() as f64 / messages as f64;
        b.record(name, &[ns]);
        b.attempted += messages;
        b.failed += report.worker_loads.iter().sum::<u64>().abs_diff(messages);
    }
}

fn engine_parts(b: &mut Bench, keys: &[u64]) {
    let mut scalar = Router::new(&Grouping::partial_key(), COUNTERS, b.seed, 0);
    b.time("engine.grouping.route_ns", keys.len() as f64, || {
        let mut acc = 0usize;
        for &k in keys {
            if let Target::One(w) = scalar.route(k) {
                acc ^= w;
            }
        }
        black_box(acc);
    });
    let mut batched = Router::new(&Grouping::partial_key(), COUNTERS, b.seed, 0);
    let mut targets = TargetBatch::new();
    b.time("engine.grouping.route_batch256_ns", keys.len() as f64, || {
        for chunk in keys.chunks(256) {
            batched.route_batch(chunk, &mut targets);
            black_box(targets.dest(0));
        }
    });

    let word: &[u8] = b"partitioning";
    b.time("engine.tuple.new_inline_ns", OPS as f64, || {
        for i in 0..OPS {
            black_box(Tuple::new(black_box(word), i as i64));
        }
    });

    // One thread pushing and popping bursts: the ring's cost without
    // contention.
    let bursts = [
        ("engine.ring.push_pop_b1_ns", 1usize),
        ("engine.ring.push_pop_b64_ns", 64),
        ("engine.ring.push_pop_b256_ns", 256),
    ];
    for (name, burst) in bursts {
        let ring = SpscRing::new(1_024);
        b.time(name, OPS as f64, || {
            for _ in 0..OPS / burst {
                let mut supply = (0..burst).map(|_| Packet::Tuple(Tuple::new(word, 1)));
                ring.push_batch(&mut supply);
                ring.pop_batch(burst, &mut |p| {
                    black_box(p);
                });
            }
        });
    }
    // A producer and a consumer thread, bursts of 64: the ring as the pool
    // uses it between two workers.
    let ring = SpscRing::new(1_024);
    let total = 8 * OPS;
    b.time("engine.ring.xthread_b64_ns", total as f64, || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut sent = 0usize;
                while sent < total {
                    let want = 64.min(total - sent);
                    let mut supply = (0..want).map(|_| Packet::Tuple(Tuple::new(word, 1)));
                    match ring.push_batch(&mut supply) {
                        0 => std::thread::yield_now(),
                        pushed => sent += pushed,
                    }
                }
            });
            let mut received = 0usize;
            while received < total {
                match ring.pop_batch(64, &mut |p| {
                    black_box(p);
                }) {
                    0 => std::thread::yield_now(),
                    popped => received += popped,
                }
            }
        });
    });
}

fn small_parts(b: &mut Bench) {
    let mut bucket = TokenBucket::new(1_000_000_000, 1 << 40);
    let mut now_ns = 0u64;
    b.time("ingress.bucket_admit_ns", OPS as f64, || {
        let mut admitted = 0u32;
        for _ in 0..OPS {
            now_ns += 1_000;
            admitted += u32::from(bucket.admit(now_ns));
        }
        black_box(admitted);
    });
    let mut histogram = LatencyHistogram::new(5);
    b.time("metrics.histogram_record_ns", OPS as f64, || {
        for i in 0..OPS as u64 {
            histogram.record(50_000 + (i.wrapping_mul(0x9e37_79b9) & 0xffff));
        }
    });
    let estimator = CapacityEstimator::new(COUNTERS, DEFAULT_ESTIMATOR_WINDOW);
    b.time("metrics.capacity_estimator_observe_ns", OPS as f64, || {
        for i in 0..OPS {
            estimator.observe(i % COUNTERS, 1_000 + (i as u64 & 0xff));
        }
    });
}

fn aggregation(b: &mut Bench) {
    // The flush workload's key set: 60k words, larger than the L2 cache
    // once each carries an accumulator.
    const VOCABULARY: u64 = 60_000;
    let words = lexicon(VOCABULARY);
    let zipf = ZipfTable::with_p1(VOCABULARY, 0.01);
    let mut rng = SmallRng::seed_from_u64(b.seed);
    let ranks: Vec<usize> = (0..OPS).map(|_| zipf.sample(&mut rng) as usize).collect();

    let mut window: TumblingWindow<TupleKey, Sum> = TumblingWindow::new(1);
    b.time("agg.sum_insert_ns", OPS as f64, || {
        for &r in &ranks {
            black_box(window.insert(words[r].clone(), r as u64, 1, 0));
        }
    });
    let mut pane: Vec<Sum> = (0..OPS)
        .map(|i| {
            let mut s = Sum::identity();
            s.insert(0, i as i64);
            s
        })
        .collect();
    let parts = pane.clone();
    b.time("agg.sum_merge_ns", OPS as f64, || {
        for (acc, part) in pane.iter_mut().zip(&parts) {
            acc.merge(black_box(part));
        }
    });
    let mut buf = Vec::new();
    b.time("agg.sum_encode_ns", OPS as f64, || {
        for acc in &parts {
            buf.clear();
            acc.encode(&mut buf);
            black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = parts.iter().map(Sum::encoded).collect();
    b.time("agg.sum_decode_ns", OPS as f64, || {
        for bytes in &encoded {
            black_box(Sum::decode(black_box(bytes)));
        }
    });
    let mut topk = TopK::<64>::identity();
    b.time("agg.topk_insert_ns", OPS as f64, || {
        for &r in &ranks {
            topk.insert(r as u64, 1);
        }
    });
    let mut summary = SpaceSaving::new(256);
    b.time("agg.spacesaving_offer_ns", OPS as f64, || {
        for &r in &ranks {
            summary.offer(r as u64, 1);
        }
    });

    let (cfg, opts) = wordcount_job(Workload::WcFlushPool, b.seed, 0.1 * b.scale);
    let stats = b.job(&cfg, opts);
    let ratio = stats.emitted("counter") as f64 / stats.processed("counter") as f64;
    b.record("agg.partials_per_tuple", &[ratio]);
}

/// The schedule layer, which no public function reaches: whole short jobs.
/// Returns the flagship's worker-ns per tuple.
///
/// A short job spends a larger share of its wall in spin-up and drain than
/// a full `wc_sat_pool` repetition, so its ns per tuple reads higher than
/// `2 / tuples_per_s`; it compares with itself across commits, and with the
/// on-arms of `priced_opt_ins`, which are the same size.
fn pool_jobs(b: &mut Bench) -> f64 {
    let (cfg, opts) = short_flagship(b.seed, b.scale);
    b.job(&cfg, opts.clone()); // warm-up, discarded
    let runs: Vec<RunStats> = (0..3).map(|_| b.job(&cfg, opts.clone())).collect();
    let ns: Vec<f64> = runs.iter().map(|s| ns_per_tuple(s, POOL_WORKERS)).collect();
    b.record("engine.pool.ns_per_tuple", &ns);
    let per_activation: Vec<f64> = runs
        .iter()
        .map(|s| s.processed("counter") as f64 / s.activations("counter") as f64)
        .collect();
    b.record("engine.pool.tuples_per_activation", &per_activation);
    let depth: Vec<f64> = runs.iter().map(|s| s.max_depth("counter") as f64).collect();
    b.record("engine.pool.max_depth", &depth);

    // The single-threaded baseline: the same job on one worker.
    let one = b.job(&cfg, pool_options(b.seed, 1));
    b.record("engine.pool.workers1_ns_per_tuple", &[ns_per_tuple(&one, 1)]);

    // Rings only carry edges with a single upstream sender, which the
    // flagship's five sources never are: price them on 1 source / 8
    // counters, mutexed mailboxes over rings, two alternating pairs.
    let single = WordCountConfig {
        sources: 1,
        counters: 8,
        messages_per_source: cfg.messages_per_source * cfg.sources as u64,
        ..cfg.clone()
    };
    let ratios: Vec<f64> = (0..2)
        .map(|_| {
            let rings = b.job(&single, opts.clone());
            let mutexed = b.job(&single, RuntimeOptions { spsc_rings: false, ..opts.clone() });
            mutexed.wall.as_secs_f64() / rings.wall.as_secs_f64()
        })
        .collect();
    b.record("engine.pool.mutex_mailbox_ratio", &ratios);

    // Six threads on the sandbox's two cores: a layer metric, not a
    // workload, because the OS scheduler dominates it (see the README).
    let threads = WordCountConfig {
        counters: 4,
        messages_per_source: single.messages_per_source / 2,
        ..single
    };
    let opts = RuntimeOptions { executor: ExecutorMode::ThreadPerInstance, ..opts };
    let stats = b.job(&threads, opts);
    b.record("engine.executor.threads_ns_per_tuple", &[ns_per_tuple(&stats, POOL_WORKERS)]);
    Summary::of(&ns).median
}

/// Each opt-in layer switched on over the short flagship job: worker time
/// per tuple, on ÷ off − 1, in percent, twice each against `off_ns`.
fn priced_opt_ins(b: &mut Bench, off_ns: f64) {
    let (cfg, off) = short_flagship(b.seed, b.scale);
    // The ingress path is several times slower: half the tuples.
    let half = WordCountConfig { messages_per_source: cfg.messages_per_source / 2, ..cfg.clone() };
    let signal =
        |metric| RuntimeOptions { load: Some(LoadSignalOptions::metric(metric)), ..off.clone() };
    let arms: [(&'static str, &WordCountConfig, RuntimeOptions); 3] = [
        (
            "ingress.on_delta_pct",
            &half,
            RuntimeOptions { ingress: Some(never_shedding_ingress()), ..off.clone() },
        ),
        ("engine.load.pending_delta_pct", &cfg, signal(LoadMetricKind::PendingRequests)),
        ("engine.load.peak_ewma_delta_pct", &cfg, signal(LoadMetricKind::peak_ewma())),
    ];
    for (name, on_cfg, on) in arms {
        let deltas: Vec<f64> = (0..2)
            .map(|_| {
                (ns_per_tuple(&b.job(on_cfg, on.clone()), POOL_WORKERS) / off_ns - 1.0) * 100.0
            })
            .collect();
        b.record(name, &deltas);
    }

    // `wordcount_topology` offers no elastic edge, so this pair runs the
    // same spout into plain counting bolts: PKG against elastic PKG with a
    // plan that never changes membership.
    let tuples = cfg.messages_per_source * cfg.sources as u64;
    let mut deltas = Vec::new();
    for _ in 0..2 {
        let mut arm = |grouping: Grouping| {
            let stats = Runtime::with_options(off.clone()).run(counting_topology(&cfg, grouping));
            b.attempted += tuples;
            b.failed += tuples.abs_diff(stats.processed("counter"));
            ns_per_tuple(&stats, POOL_WORKERS)
        };
        let plain = arm(Grouping::partial_key());
        let elastic = arm(Grouping::elastic(MembershipPlan::new(cfg.counters)));
        deltas.push((elastic / plain - 1.0) * 100.0);
    }
    b.record("elastic.empty_plan_delta_pct", &deltas);
}

/// `cfg`'s sources feeding `CountingBolt`s over `grouping`.
fn counting_topology(cfg: &WordCountConfig, grouping: Grouping) -> Topology {
    let zipf = Arc::new(ZipfTable::with_p1(cfg.vocabulary, cfg.p1));
    let (seed, per_source) = (cfg.seed, cfg.messages_per_source);
    let mut topology = Topology::new();
    let source = topology.add_spout("source", cfg.sources, move |i| {
        let zipf = Arc::clone(&zipf);
        let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37));
        let mut left = per_source;
        spout_from_fn(move || {
            left = left.checked_sub(1)?;
            let (word, len) = word_bytes_for_rank(zipf.sample(&mut rng));
            Some(Tuple::new(&word[..len], 1))
        })
    });
    let _ = topology
        .add_bolt("counter", cfg.counters, |_| Box::new(CountingBolt::default()))
        .input(source, grouping);
    topology
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny ledger still measures every metric the spec names, loses no
    /// tuple, and writes the trace file.
    #[test]
    fn ledger_measures_every_named_metric() {
        let path =
            format!("{}/out/test_trace_{}.jsonl", env!("CARGO_MANIFEST_DIR"), std::process::id());
        let path = path.as_str();
        let ledger = measure(5, 0.5, path).expect("ledger completes");
        assert_eq!(ledger.metrics.len(), PER_LAYER.len());
        assert_eq!(ledger.failed, 0);
        assert!(ledger.attempted > 0);
        let spans = std::fs::read_to_string(path).expect("trace file written");
        std::fs::remove_file(path).expect("temp trace file removable");
        assert!(spans.lines().all(|l| crate::json::Value::parse(l).is_ok()));
        let by_name = |n: &str| {
            let i = PER_LAYER.iter().position(|m| m.name == n).expect("named metric");
            ledger.metrics[i].median
        };
        assert_eq!(by_name("trace.spans") as usize, spans.lines().count());
        let staged: f64 = STAGES.iter().map(|(_, m)| by_name(m)).sum();
        let sum = staged + by_name("engine.pool.residual_ns");
        assert!((sum - by_name("engine.pool.ns_per_tuple")).abs() < 1e-6, "decomposition adds up");
    }
}
