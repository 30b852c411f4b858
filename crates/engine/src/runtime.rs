//! Topology execution: the public knobs ([`RuntimeOptions`],
//! [`ExecutorMode`]) and the edge-seed derivation every sender routes by.
//!
//! There is one instance runtime (`crate::schedule`): every instance is a task
//! with a bounded mailbox, driven by one activation loop. [`ExecutorMode`]
//! picks only its *schedule* — one dedicated OS thread per instance, or a
//! cooperative worker pool that runs hundred-instance topologies in one
//! process — so a topology routes byte-identically under either.

use pkg_hash::murmur3::fmix64;

use crate::grouping::Grouping;
use crate::ingress::IngressOptions;
use crate::metrics::RunStats;
use crate::topology::Topology;

/// Which schedule drives a topology's instances. Both run the same tasks,
/// mailboxes and activation loop; they differ only in which thread runs an
/// activation, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorMode {
    /// One dedicated OS thread per processing element instance — the
    /// paper's one-executor-per-PEI deployment. Each thread activates only
    /// its own task: it loops while the task has input, and parks on its
    /// own parker when the task idles, waits on a full downstream mailbox
    /// (so backpressure blocks the producer's thread until the consumer
    /// drains), or waits for its own next tick or stall deadline.
    /// Collapses into scheduler thrash beyond ~100 instances; kept as the
    /// second schedule the parity suite compares the pool against.
    ThreadPerInstance,
    /// Cooperative worker-pool scheduler: a fixed pool of worker threads
    /// drives every instance's task, batching packets per activation and
    /// parking a task on backpressure instead of blocking a worker thread.
    /// Hundreds of instances fit one process.
    Pool {
        /// Worker threads; `0` = `std::thread::available_parallelism()`.
        workers: usize,
        /// Packets drained per task activation; `0` = the default quantum
        /// of 256 packets.
        batch: usize,
    },
}

impl ExecutorMode {
    /// The pool executor with default worker count and batch quantum.
    pub fn pool() -> Self {
        ExecutorMode::Pool { workers: 0, batch: 0 }
    }

    /// Executor selected by the `PKG_ENGINE_EXECUTOR` environment variable
    /// (`pool` or `threads`), if set. Lets CI run the whole workspace test
    /// suite under the pool executor without touching any call site.
    fn from_env() -> Option<Self> {
        match std::env::var("PKG_ENGINE_EXECUTOR") {
            Ok(v) => match v.as_str() {
                "pool" => Some(ExecutorMode::pool()),
                "threads" | "thread-per-instance" | "" => Some(ExecutorMode::ThreadPerInstance),
                other => panic!("PKG_ENGINE_EXECUTOR must be 'pool' or 'threads', got {other:?}"),
            },
            Err(_) => None,
        }
    }
}

/// Per-instance relative capacity weights for heterogeneous deployments,
/// keyed by component name. A weight of `0.5` makes that instance
/// half-speed: every [`crate::bolt::Emitter::stall`] it charges (directly
/// or through `pkg_apps::ServiceDelay`) is scaled by `1/capacity`, so the
/// same per-tuple work takes twice as long on the instance's virtual
/// service clock, under either schedule.
///
/// Instances not covered (unlisted components, or indices past the weight
/// vector) run at capacity 1.0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceCapacities {
    by_component: Vec<(String, Vec<f64>)>,
}

impl InstanceCapacities {
    /// Every instance at capacity 1.0 (the homogeneous default).
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Set per-instance weights for one component (`weights[i]` is instance
    /// `i`'s relative capacity; missing trailing instances default to 1.0).
    ///
    /// # Panics
    /// Panics if any weight is non-finite or ≤ 0.
    pub fn with(mut self, component: impl Into<String>, weights: &[f64]) -> Self {
        for &w in weights {
            assert!(w.is_finite() && w > 0.0, "capacities must be finite and positive, got {w}");
        }
        let component = component.into();
        self.by_component.retain(|(c, _)| *c != component);
        self.by_component.push((component, weights.to_vec()));
        self
    }

    /// Relative capacity of `instance` of `component` (default 1.0).
    pub fn weight(&self, component: &str, instance: usize) -> f64 {
        self.by_component
            .iter()
            .find(|(c, _)| c == component)
            .and_then(|(_, ws)| ws.get(instance).copied())
            .unwrap_or(1.0)
    }

    /// The service-time multiplier `1/capacity` for one instance.
    pub(crate) fn stall_scale(&self, component: &str, instance: usize) -> f64 {
        1.0 / self.weight(component, instance)
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Capacity of each instance's input mailbox. Small values propagate
    /// backpressure quickly (an overloaded worker stalls its sources — the
    /// phenomenon Q4 measures); large values decouple components. Mailboxes
    /// have no rendezvous mode, so `0` clamps to 1 under either schedule.
    pub channel_capacity: usize,
    /// Seed for edge hash functions.
    pub seed: u64,
    /// Executor driving the instances. The default honors
    /// `PKG_ENGINE_EXECUTOR` (falling back to
    /// [`ExecutorMode::ThreadPerInstance`]), so the executor under test is
    /// switchable process-wide.
    pub executor: ExecutorMode,
    /// Per-instance capacity weights (heterogeneous hardware emulation),
    /// applied by scaling emulated service time.
    pub capacities: InstanceCapacities,
    /// Give destinations fed by exactly one upstream sender instance a
    /// lock-free SPSC ring mailbox instead of a mutexed queue (on by
    /// default; `false` forces every mailbox onto the mutexed path, which
    /// the parity suite uses as a differential oracle).
    pub spsc_rings: bool,
    /// Ingress layer between spouts and the routing layer: admission
    /// control, load shedding, and hedged dispatch (see
    /// [`crate::ingress`]). `None` (the default) disables it entirely —
    /// the spout path is then byte-for-byte the pre-ingress code path.
    pub ingress: Option<IngressOptions>,
    /// Pluggable load signals for the load-consulting groupings (see
    /// [`crate::load::LoadSignalOptions`]): which signal they minimize
    /// (tuple count, in-flight tuples, Peak-EWMA service latency) and
    /// whether an online capacity estimator rescales it from observed
    /// service times. `None` (the default) — and the degenerate
    /// `TupleCount`-without-estimator configuration — keep the original
    /// per-sender local-count path byte-for-byte.
    pub load: Option<crate::load::LoadSignalOptions>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 1_024,
            seed: 42,
            executor: ExecutorMode::from_env().unwrap_or(ExecutorMode::ThreadPerInstance),
            capacities: InstanceCapacities::uniform(),
            spsc_rings: true,
            ingress: None,
            load: None,
        }
    }
}

/// The hash seed every sender on the edge `from → to` derives its routing
/// from (`from`/`to` are component indices in topology insertion order).
/// Exposed so out-of-engine replays — e.g. the single-phase parity oracle
/// in `pkg-apps::heavy_hitters` — can reproduce a run's routing exactly.
pub fn edge_seed(runtime_seed: u64, from: usize, to: usize) -> u64 {
    fmix64(runtime_seed ^ ((from as u64) << 32 | to as u64))
}

/// Outgoing edges of each component: `(to, grouping, edge_seed)` in input
/// declaration order.
pub(crate) fn build_out_edges(topology: &Topology, seed: u64) -> Vec<Vec<(usize, Grouping, u64)>> {
    let mut out_edges: Vec<Vec<(usize, Grouping, u64)>> =
        vec![Vec::new(); topology.components.len()];
    for (to, c) in topology.components.iter().enumerate() {
        for (from, grouping) in &c.inputs {
            out_edges[from.0].push((to, grouping.clone(), edge_seed(seed, from.0, to)));
        }
    }
    out_edges
}

/// Upstream sender (instance) counts per component, for Eof bookkeeping.
pub(crate) fn upstream_sender_counts(topology: &Topology) -> Vec<usize> {
    let mut upstream = vec![0usize; topology.components.len()];
    for (my_index, c) in topology.components.iter().enumerate() {
        for (from, _) in &c.inputs {
            upstream[my_index] += topology.components[from.0].parallelism;
        }
    }
    upstream
}

/// Executes topologies.
#[derive(Debug, Default, Clone)]
pub struct Runtime {
    opts: RuntimeOptions,
}

impl Runtime {
    /// Runtime with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runtime with custom options.
    pub fn with_options(opts: RuntimeOptions) -> Self {
        Self { opts }
    }

    /// Run a topology to completion (all spouts exhausted, all queues
    /// drained) and return the collected statistics.
    pub fn run(&self, topology: Topology) -> RunStats {
        topology.validate();
        crate::schedule::run_pool(&topology, &self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::{Bolt, CountingBolt, Emitter};
    use crate::grouping::Grouping;
    use crate::spout::{spout_from_fn, spout_from_iter};
    use crate::tuple::Tuple;
    use std::time::Duration;

    fn word_stream(n: u64, vocab: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(format!("w{}", i % vocab).into_bytes(), 1)).collect()
    }

    #[test]
    fn single_spout_single_bolt_counts_everything() {
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(5_000, 17)));
        let _ =
            t.add_bolt("count", 4, |_| Box::new(CountingBolt::default())).input(s, Grouping::Key);
        let stats = Runtime::new().run(t);
        assert_eq!(stats.processed("src"), 5_000);
        assert_eq!(stats.processed("count"), 5_000);
        assert_eq!(stats.loads("count").iter().sum::<u64>(), 5_000);
    }

    #[test]
    fn multiple_spout_instances_all_drain() {
        let mut t = Topology::new();
        let s = t.add_spout("src", 3, |_| spout_from_iter(word_stream(1_000, 7)));
        let _ = t
            .add_bolt("count", 2, |_| Box::new(CountingBolt::default()))
            .input(s, Grouping::Shuffle);
        let stats = Runtime::new().run(t);
        assert_eq!(stats.processed("src"), 3_000);
        assert_eq!(stats.processed("count"), 3_000);
        // Shuffle: both instances got work.
        assert!(stats.loads("count").iter().all(|&l| l > 1_000));
    }

    #[test]
    fn key_grouping_sends_each_key_to_one_instance() {
        // A bolt that re-emits its key; the downstream global bolt verifies
        // per-key instance exclusivity via distinct value tags.
        #[derive(Default)]
        struct TagBolt {
            me: usize,
        }
        impl Bolt for TagBolt {
            fn execute(&mut self, mut t: Tuple, out: &mut Emitter<'_>) {
                t.value = self.me as i64;
                out.emit(t);
            }
        }
        let mut t = Topology::new();
        let s = t.add_spout("src", 2, |_| spout_from_iter(word_stream(2_000, 11)));
        let tag =
            t.add_bolt("tag", 4, |i| Box::new(TagBolt { me: i })).input(s, Grouping::Key).id();
        let _sink = t
            .add_bolt("sink", 1, |_| Box::new(CollectBolt::default()))
            .input(tag, Grouping::Global)
            .id();

        #[derive(Default)]
        struct CollectBolt {
            seen: std::collections::HashMap<crate::tuple::TupleKey, i64>,
        }
        impl Bolt for CollectBolt {
            fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
                let prev = self.seen.insert(t.key.clone(), t.value);
                if let Some(p) = prev {
                    assert_eq!(p, t.value, "key visited two different tag instances");
                }
            }
        }
        let stats = Runtime::new().run(t);
        // 2 spout instances × 2000 tuples each.
        assert_eq!(stats.processed("sink"), 4_000);
    }

    #[test]
    fn partial_grouping_balances_hot_key() {
        // Find a hot key whose two hash candidates differ under the edge
        // seed the runtime will derive (seed=9, edge (0 → 1)), so the test
        // is not at the mercy of a 1-in-n candidate collision.
        let seed = 9u64;
        let edge_seed = fmix64(seed ^ 1);
        let probe = crate::grouping::Router::new(&Grouping::partial_key(), 4, edge_seed, 0);
        let _ = probe; // candidates are internal; probe via a fresh PKG:
        let pkg = pkg_core::PartialKeyGrouping::new(4, 2, pkg_core::Estimate::local(4), edge_seed);
        let hot = (0u64..100)
            .map(|i| format!("hot{i}"))
            .find(|k| {
                let t = Tuple::new(k.clone().into_bytes(), 0);
                let c = pkg.candidates(t.key_id());
                c[0] != c[1]
            })
            .expect("some key has distinct candidates");

        let mut t = Topology::new();
        // 60% of tuples share the hot key.
        let s = t.add_spout("src", 1, move |_| {
            let hot = hot.clone();
            let mut i = 0u64;
            spout_from_fn(move || {
                i += 1;
                (i <= 10_000).then(|| {
                    let k = if i % 10 < 6 { hot.clone() } else { format!("k{i}") };
                    Tuple::new(k.into_bytes(), 1)
                })
            })
        });
        let _ = t
            .add_bolt("count", 4, |_| Box::new(CountingBolt::default()))
            .input(s, Grouping::partial_key());
        let stats = Runtime::with_options(RuntimeOptions {
            channel_capacity: 1024,
            seed,
            ..RuntimeOptions::default()
        })
        .run(t);
        let loads = stats.loads("count");
        let max = *loads.iter().max().expect("non-empty");
        // KG would put ≥ 6000 on one instance; PKG splits the hot key over
        // its two candidates (~3000 each plus background traffic).
        assert!(max < 5_000, "loads = {loads:?}");
        assert_eq!(loads.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn ticks_fire_and_finish_flushes() {
        #[derive(Default)]
        struct FlushBolt {
            pending: i64,
        }
        impl Bolt for FlushBolt {
            fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
                self.pending += t.value;
            }
            fn tick(&mut self, out: &mut Emitter<'_>) {
                if self.pending > 0 {
                    out.emit(Tuple::new(b"flush".to_vec(), self.pending));
                    self.pending = 0;
                }
            }
            fn finish(&mut self, out: &mut Emitter<'_>) {
                out.emit(Tuple::new(b"flush".to_vec(), self.pending));
                self.pending = 0;
            }
        }
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| {
            let mut i = 0;
            spout_from_fn(move || {
                i += 1;
                if i > 200 {
                    return None;
                }
                std::thread::sleep(Duration::from_micros(200));
                Some(Tuple::new(b"k".to_vec(), 1))
            })
        });
        let f = t
            .add_bolt("flush", 1, |_| Box::new(FlushBolt::default()))
            .input(s, Grouping::Global)
            .tick_every(Duration::from_millis(5))
            .id();
        let _ =
            t.add_bolt("sum", 1, |_| Box::new(CountingBolt::default())).input(f, Grouping::Global);
        let stats = Runtime::new().run(t);
        // Conservation through flushing: all 200 units arrive at the sink.
        let sink = stats.instances.iter().find(|i| i.component == "sum").expect("sink exists");
        assert_eq!(sink.processed, stats.emitted("flush"));
        let flusher =
            stats.instances.iter().find(|i| i.component == "flush").expect("flusher exists");
        assert!(flusher.ticks >= 2, "expected multiple ticks, got {}", flusher.ticks);
    }

    #[test]
    fn latency_is_recorded_at_bolts() {
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(1_000, 5)));
        let _ =
            t.add_bolt("count", 2, |_| Box::new(CountingBolt::default())).input(s, Grouping::Key);
        let stats = Runtime::new().run(t);
        let lat = stats.latency("count");
        assert_eq!(lat.count(), 1_000);
        assert!(lat.mean() > 0.0);
    }

    fn pool_opts(
        workers: usize,
        batch: usize,
        channel_capacity: usize,
        seed: u64,
    ) -> RuntimeOptions {
        RuntimeOptions {
            channel_capacity,
            seed,
            executor: ExecutorMode::Pool { workers, batch },
            ..RuntimeOptions::default()
        }
    }

    #[test]
    fn pool_counts_everything_and_matches_thread_loads() {
        let build = || {
            let mut t = Topology::new();
            let s = t.add_spout("src", 2, |_| spout_from_iter(word_stream(4_000, 23)));
            let _ = t
                .add_bolt("count", 4, |_| Box::new(CountingBolt::default()))
                .input(s, Grouping::partial_key());
            t
        };
        let threads = Runtime::with_options(RuntimeOptions {
            channel_capacity: 64,
            seed: 7,
            executor: ExecutorMode::ThreadPerInstance,
            ..RuntimeOptions::default()
        })
        .run(build());
        let pool = Runtime::with_options(pool_opts(2, 0, 64, 7)).run(build());
        assert_eq!(pool.processed("count"), 8_000);
        // Byte-identical routing: per-instance loads agree exactly.
        assert_eq!(pool.loads("count"), threads.loads("count"));
        assert!(pool.activations("count") > 0, "pool counts activations");
    }

    #[test]
    fn pool_single_worker_completes_deep_chains() {
        // One worker, five cooperative stages, tiny mailboxes: progress
        // relies entirely on park/unpark, not on thread parallelism.
        struct Inc;
        impl Bolt for Inc {
            fn execute(&mut self, mut t: Tuple, out: &mut Emitter<'_>) {
                t.value += 1;
                out.emit(t);
            }
        }
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(2_000, 5)));
        let mut prev = s;
        for name in ["a", "b", "c", "d"] {
            prev = t.add_bolt(name, 1, |_| Box::new(Inc)).input(prev, Grouping::Global).id();
        }
        let _ = t
            .add_bolt("sink", 1, |_| Box::new(CountingBolt::default()))
            .input(prev, Grouping::Global);
        let stats = Runtime::with_options(pool_opts(1, 8, 2, 3)).run(t);
        assert_eq!(stats.processed("sink"), 2_000);
        assert_eq!(stats.emitted("d"), 2_000);
    }

    #[test]
    fn pool_backpressure_parks_instead_of_blocking() {
        // Fast fan-in onto one slow consumer with capacity 1: producers
        // must park and be woken by the consumer, with nothing lost.
        let mut t = Topology::new();
        let s = t.add_spout("src", 3, |_| spout_from_iter(word_stream(1_500, 3)));
        let _ =
            t.add_bolt("slow", 1, |_| Box::new(CountingBolt::default())).input(s, Grouping::Global);
        let stats = Runtime::with_options(pool_opts(2, 16, 1, 11)).run(t);
        assert_eq!(stats.processed("slow"), 4_500);
    }

    #[test]
    fn pool_ticks_fire_from_timer_wheel() {
        #[derive(Default)]
        struct FlushBolt {
            pending: i64,
        }
        impl Bolt for FlushBolt {
            fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
                self.pending += t.value;
            }
            fn tick(&mut self, out: &mut Emitter<'_>) {
                if self.pending > 0 {
                    out.emit(Tuple::new(b"flush".to_vec(), self.pending));
                    self.pending = 0;
                }
            }
            fn finish(&mut self, out: &mut Emitter<'_>) {
                if self.pending > 0 {
                    out.emit(Tuple::new(b"flush".to_vec(), self.pending));
                    self.pending = 0;
                }
            }
        }
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| {
            let mut i = 0;
            spout_from_fn(move || {
                i += 1;
                if i > 150 {
                    return None;
                }
                std::thread::sleep(Duration::from_micros(300));
                Some(Tuple::new(b"k".to_vec(), 1))
            })
        });
        let f = t
            .add_bolt("flush", 1, |_| Box::new(FlushBolt::default()))
            .input(s, Grouping::Global)
            .tick_every(Duration::from_millis(5))
            .id();
        struct SummingSink(std::sync::Arc<std::sync::atomic::AtomicI64>);
        impl Bolt for SummingSink {
            fn execute(&mut self, t: Tuple, _out: &mut Emitter<'_>) {
                self.0.fetch_add(t.value, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let mass = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(0));
        let m = std::sync::Arc::clone(&mass);
        let _ = t
            .add_bolt("sum", 1, move |_| Box::new(SummingSink(std::sync::Arc::clone(&m))))
            .input(f, Grouping::Global);
        let stats = Runtime::with_options(pool_opts(2, 32, 1024, 5)).run(t);
        let sink = stats.instances.iter().find(|i| i.component == "sum").expect("sink exists");
        assert_eq!(sink.processed, stats.emitted("flush"));
        let flusher =
            stats.instances.iter().find(|i| i.component == "flush").expect("flusher exists");
        assert!(flusher.ticks >= 2, "expected ticks via the timer wheel, got {}", flusher.ticks);
        // Conservation through flushing: every unit arrives at the sink
        // exactly once, even across catch-up tick bursts.
        assert_eq!(mass.load(std::sync::atomic::Ordering::SeqCst), 150);
    }

    #[test]
    fn pool_diamond_and_broadcast_drain() {
        struct Forward;
        impl Bolt for Forward {
            fn execute(&mut self, t: Tuple, out: &mut Emitter<'_>) {
                out.emit(t);
            }
        }
        let mut t = Topology::new();
        let s = t.add_spout("src", 2, |_| spout_from_iter(word_stream(1_000, 13)));
        let a = t.add_bolt("a", 2, |_| Box::new(Forward)).input(s, Grouping::Shuffle).id();
        let b = t.add_bolt("b", 3, |_| Box::new(Forward)).input(s, Grouping::Broadcast).id();
        let _join = t
            .add_bolt("join", 2, |_| Box::new(CountingBolt::default()))
            .input(a, Grouping::Key)
            .input(b, Grouping::Key);
        let stats = Runtime::with_options(pool_opts(3, 64, 32, 2)).run(t);
        assert_eq!(stats.processed("a"), 2_000);
        assert_eq!(stats.processed("b"), 6_000, "broadcast replicates to all 3");
        assert_eq!(stats.processed("join"), 8_000);
    }

    #[test]
    fn pool_zero_capacity_clamps_to_one_and_completes() {
        // Mailboxes have no rendezvous mode: capacity 0 clamps to 1
        // instead of deadlocking every producer.
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(500, 7)));
        let _ = t
            .add_bolt("sink", 2, |_| Box::new(CountingBolt::default()))
            .input(s, Grouping::Shuffle);
        let stats = Runtime::with_options(pool_opts(2, 16, 0, 9)).run(t);
        assert_eq!(stats.processed("sink"), 500);
    }

    #[test]
    fn pool_empty_stream_shuts_down() {
        let mut t = Topology::new();
        let s = t.add_spout("src", 3, |_| spout_from_iter(Vec::new()));
        let _ = t
            .add_bolt("sink", 2, |_| Box::new(CountingBolt::default()))
            .input(s, Grouping::Shuffle);
        let stats = Runtime::with_options(pool_opts(2, 0, 8, 1)).run(t);
        assert_eq!(stats.processed("sink"), 0);
    }

    /// A bolt charging a fixed emulated service time per tuple via
    /// [`Emitter::stall`].
    struct StallBolt {
        per_tuple: Duration,
        seen: u64,
    }
    impl Bolt for StallBolt {
        fn execute(&mut self, _t: Tuple, out: &mut Emitter<'_>) {
            self.seen += 1;
            out.stall(self.per_tuple);
        }
    }

    #[test]
    fn pool_stalls_run_concurrently_instead_of_serializing_a_worker() {
        // 8 delay-emulating instances, 10 tuples × 5 ms each = 400 ms of
        // total emulated service time, driven by ONE pool worker. Sleeping
        // in execute would serialize all of it (≥ 400 ms); timer-wheel
        // stalls overlap across instances, so wall time stays near the
        // per-instance 50 ms. The generous bound still rejects any
        // serializing regression by a 2.5× margin.
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(80, 80)));
        let _ = t
            .add_bolt("stall", 8, |_| {
                Box::new(StallBolt { per_tuple: Duration::from_millis(5), seen: 0 })
            })
            .input(s, Grouping::Shuffle);
        let stats = Runtime::with_options(pool_opts(1, 4, 64, 3)).run(t);
        assert_eq!(stats.processed("stall"), 80);
        assert!(
            stats.wall < Duration::from_millis(250),
            "stalls serialized the single worker: wall = {:?}",
            stats.wall
        );
    }

    #[test]
    fn pool_stalls_survive_concurrent_data_wakes() {
        // One stalling bolt instance fed by a fast spout on a 2-worker
        // pool: every push lands mid-activation and flips the bolt task to
        // NOTIFIED. The stall park must absorb those wakes (resuming at
        // the timer deadline, not immediately), so the 40 × 5 ms of
        // emulated service time is a hard LOWER bound on wall time — a
        // regression to requeue-on-notify finishes in milliseconds.
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(40, 11)));
        let _ = t
            .add_bolt("stall", 1, |_| {
                Box::new(StallBolt { per_tuple: Duration::from_millis(5), seen: 0 })
            })
            .input(s, Grouping::Global);
        let stats = Runtime::with_options(pool_opts(2, 32, 8, 7)).run(t);
        assert_eq!(stats.processed("stall"), 40);
        assert!(
            stats.wall >= Duration::from_millis(150),
            "stalls were skipped under concurrent wakes: wall = {:?} < 40 × 5 ms",
            stats.wall
        );
    }

    #[test]
    fn thread_executor_stall_sleeps_inline_and_still_completes() {
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(40, 7)));
        let _ = t
            .add_bolt("stall", 4, |_| {
                Box::new(StallBolt { per_tuple: Duration::from_millis(1), seen: 0 })
            })
            .input(s, Grouping::Shuffle);
        let stats = Runtime::with_options(RuntimeOptions {
            channel_capacity: 16,
            seed: 2,
            executor: ExecutorMode::ThreadPerInstance,
            ..RuntimeOptions::default()
        })
        .run(t);
        assert_eq!(stats.processed("stall"), 40);
        // 4 dedicated threads × 10 tuples × 1 ms: at least ~10 ms of real
        // sleeping happened somewhere (inline semantics preserved).
        assert!(stats.wall >= Duration::from_millis(8), "wall = {:?}", stats.wall);
    }

    #[test]
    fn capacity_weights_scale_stall_deterministically_on_both_executors() {
        // One spout shuffles 40 tuples over two stalling instances (20
        // each); instance 1 is a quarter-speed machine. The *charged*
        // service time is deterministic in the requested durations, so the
        // slow instance must report exactly 4× the stall of the fast one —
        // under either executor.
        let caps = InstanceCapacities::uniform().with("stall", &[1.0, 0.25]);
        let build = || {
            let mut t = Topology::new();
            let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(40, 7)));
            let _ = t
                .add_bolt("stall", 2, |_| {
                    Box::new(StallBolt { per_tuple: Duration::from_millis(1), seen: 0 })
                })
                .input(s, Grouping::Shuffle);
            t
        };
        for executor in
            [ExecutorMode::ThreadPerInstance, ExecutorMode::Pool { workers: 2, batch: 16 }]
        {
            let stats = Runtime::with_options(RuntimeOptions {
                channel_capacity: 64,
                seed: 3,
                executor,
                capacities: caps.clone(),
                ..RuntimeOptions::default()
            })
            .run(build());
            assert_eq!(stats.processed("stall"), 40);
            let stalled = stats.stalled_ns("stall");
            assert_eq!(stalled[0], 20 * 1_000_000, "full-speed instance charges 20 × 1 ms");
            assert_eq!(stalled[1], 4 * stalled[0], "quarter-speed instance charges 4×");
        }
    }

    #[test]
    fn pool_half_speed_instance_actually_runs_half_speed() {
        // A single half-capacity instance owing 10 × 5 ms of service time
        // must keep the topology alive for ≥ the scaled 100 ms — the
        // timer-wheel deadline is armed with the scaled duration, so this
        // is a hard lower bound (a full-speed run owes only 50 ms).
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(10, 5)));
        let _ = t
            .add_bolt("stall", 1, |_| {
                Box::new(StallBolt { per_tuple: Duration::from_millis(5), seen: 0 })
            })
            .input(s, Grouping::Global);
        let stats = Runtime::with_options(RuntimeOptions {
            channel_capacity: 64,
            seed: 9,
            executor: ExecutorMode::Pool { workers: 2, batch: 4 },
            capacities: InstanceCapacities::uniform().with("stall", &[0.5]),
            ..RuntimeOptions::default()
        })
        .run(t);
        assert_eq!(stats.processed("stall"), 10);
        assert!(
            stats.wall >= Duration::from_millis(80),
            "half-speed instance finished too fast: wall = {:?} < 10 × 10 ms",
            stats.wall
        );
    }

    #[test]
    fn uncovered_instances_default_to_full_capacity() {
        let caps = InstanceCapacities::uniform().with("stall", &[2.0]);
        assert_eq!(caps.weight("stall", 0), 2.0);
        assert_eq!(caps.weight("stall", 1), 1.0, "index past the vector");
        assert_eq!(caps.weight("other", 0), 1.0, "unlisted component");
        // Re-setting a component replaces its weights.
        let caps = caps.with("stall", &[4.0]);
        assert_eq!(caps.weight("stall", 0), 4.0);
    }

    #[test]
    fn load_signal_default_collapses_to_exact_baseline_routing() {
        // `TupleCount` with no estimator is the degenerate configuration:
        // `component_signals` attaches nothing and every router takes the
        // pre-existing local-estimation path — loads must be byte-identical
        // to a run with `load: None`, under both executors.
        let build = || {
            let mut t = Topology::new();
            let s = t.add_spout("src", 2, |_| spout_from_iter(word_stream(3_000, 19)));
            let _ = t
                .add_bolt("count", 4, |_| Box::new(CountingBolt::default()))
                .input(s, Grouping::partial_key());
            t
        };
        for executor in
            [ExecutorMode::ThreadPerInstance, ExecutorMode::Pool { workers: 2, batch: 32 }]
        {
            let run = |load| {
                Runtime::with_options(RuntimeOptions {
                    channel_capacity: 64,
                    seed: 13,
                    executor,
                    load,
                    ..RuntimeOptions::default()
                })
                .run(build())
            };
            let base = run(None);
            let collapsed = run(Some(crate::load::LoadSignalOptions::metric(
                pkg_metrics::LoadMetricKind::TupleCount,
            )));
            assert_eq!(collapsed.loads("count"), base.loads("count"));
            assert_eq!(collapsed.processed("count"), 6_000);
        }
    }

    #[test]
    fn adaptive_signals_shed_load_from_a_slow_instance() {
        // Four stalling instances behind PKG; instance 0 is a quarter-speed
        // machine (its charged service time is 4×). Count-greedy routing is
        // capacity-blind and splits evenly; the Peak-EWMA signal observes
        // the 4× latency and sheds load from the slow instance.
        let caps = InstanceCapacities::uniform().with("stall", &[0.25]);
        let build = || {
            let mut t = Topology::new();
            let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(3_000, 997)));
            let _ = t
                .add_bolt("stall", 4, |_| {
                    Box::new(StallBolt { per_tuple: Duration::from_micros(50), seen: 0 })
                })
                .input(s, Grouping::partial_key());
            t
        };
        let run = |load| {
            Runtime::with_options(RuntimeOptions {
                channel_capacity: 16,
                seed: 17,
                capacities: caps.clone(),
                load,
                ..RuntimeOptions::default()
            })
            .run(build())
        };
        let adaptive = run(Some(crate::load::LoadSignalOptions::adaptive()));
        let static_run = run(None);
        let (a, s) = (adaptive.loads("stall"), static_run.loads("stall"));
        assert_eq!(a.iter().sum::<u64>(), 3_000);
        assert_eq!(s.iter().sum::<u64>(), 3_000);
        assert!(
            a[0] * 2 < s[0],
            "peak-ewma routing kept loading the slow instance: adaptive {a:?} vs static {s:?}"
        );
    }

    #[test]
    fn backpressure_does_not_deadlock() {
        // Tiny queues, fast producer, slow consumer: must still complete.
        let mut t = Topology::new();
        let s = t.add_spout("src", 1, |_| spout_from_iter(word_stream(2_000, 3)));
        let _ = t
            .add_bolt("slow", 1, |_| {
                struct SlowBolt;
                impl Bolt for SlowBolt {
                    fn execute(&mut self, _t: Tuple, _out: &mut Emitter<'_>) {
                        std::hint::black_box(0u64);
                    }
                }
                Box::new(SlowBolt)
            })
            .input(s, Grouping::Shuffle);
        let stats = Runtime::with_options(RuntimeOptions {
            channel_capacity: 4,
            seed: 1,
            ..RuntimeOptions::default()
        })
        .run(t);
        assert_eq!(stats.processed("slow"), 2_000);
    }
}
