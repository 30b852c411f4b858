//! Streaming top-k word count — the paper's running example (§II) and the
//! application measured on the real deployment (Q4, Fig. 5).
//!
//! Three variants, exactly as the paper deploys them:
//!
//! * **KG** — key grouping to the counters; each counter keeps a *running*
//!   count per word (each word lives on exactly one counter) and
//!   periodically sends its local top-k to the aggregator.
//! * **SG** — shuffle grouping; counters keep *partial* counts for any word
//!   and flush them (emit + clear) every aggregation period `T`; the
//!   aggregator sums partials into totals. Memory grows as `O(W·K)`.
//! * **PKG** — partial key grouping; like SG but each word reaches at most
//!   two counters, so memory is `O(2K)` and per-word aggregation merges two
//!   partials instead of `W`.
//!
//! The per-tuple `service_delay` emulates the paper's CPU-delay knob (they
//! add 0.1–1 ms of processing per key to reach the cluster's saturation
//! point). Every tuple charges it on its counter's virtual service clock
//! (`pkg_engine::Emitter::stall`): the thread-per-instance executor sleeps
//! the instance's dedicated thread, modeling one core per PEI (the paper's
//! 10-VM cluster) rather than contending for this machine's cores; the pool
//! executor parks the instance on the timer wheel, so emulated service time
//! never occupies a pool worker. `source_rate` paces the source the same
//! way: it answers "not yet" (`Spout::not_before`) instead of sleeping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pkg_agg::{Max, Sum};
use pkg_datagen::text::{word_bytes_for_rank, word_for_rank};
use pkg_datagen::zipf::ZipfTable;
use pkg_engine::prelude::*;
use pkg_engine::topology::NodeId;
use pkg_hash::FxHashMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bolts::{AggregatorBolt, ServiceDelay, WindowedWorkerBolt};

/// Which stream partitioning the source → counter edge uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordCountVariant {
    /// Key grouping (running counters, top-k flushes).
    KeyGrouping,
    /// Shuffle grouping (partial counters, full flushes).
    ShuffleGrouping,
    /// Partial key grouping (partial counters, full flushes, ≤ 2 workers
    /// per word).
    PartialKeyGrouping,
}

impl WordCountVariant {
    /// Short label (KG / SG / PKG).
    pub fn label(&self) -> &'static str {
        match self {
            WordCountVariant::KeyGrouping => "KG",
            WordCountVariant::ShuffleGrouping => "SG",
            WordCountVariant::PartialKeyGrouping => "PKG",
        }
    }

    fn grouping(&self) -> Grouping {
        match self {
            WordCountVariant::KeyGrouping => Grouping::Key,
            WordCountVariant::ShuffleGrouping => Grouping::Shuffle,
            WordCountVariant::PartialKeyGrouping => Grouping::partial_key(),
        }
    }
}

/// Configuration of a word-count topology.
#[derive(Debug, Clone)]
pub struct WordCountConfig {
    /// Partitioning variant under test.
    pub variant: WordCountVariant,
    /// Source parallelism (paper: 1).
    pub sources: usize,
    /// Counter parallelism (paper: 9).
    pub counters: usize,
    /// Words emitted *per source instance*.
    pub messages_per_source: u64,
    /// Vocabulary size.
    pub vocabulary: u64,
    /// Head-word probability (the stream is Zipf with this `p1`).
    pub p1: f64,
    /// Emulated per-tuple CPU cost at the counters.
    pub service_delay: Duration,
    /// Aggregation period `T` (tick interval of the counters); `None`
    /// flushes only at end of stream.
    pub aggregation_period: Option<Duration>,
    /// `k` of the final top-k.
    pub top_k: usize,
    /// Stream seed.
    pub seed: u64,
    /// Cap the source emission rate (tuples/s per source); `None` emits as
    /// fast as backpressure allows. The paper's cluster ingests a bounded
    /// external stream; the cap reproduces its unsaturated-at-low-delay /
    /// saturated-at-high-delay transition.
    pub source_rate: Option<f64>,
}

impl Default for WordCountConfig {
    fn default() -> Self {
        Self {
            variant: WordCountVariant::PartialKeyGrouping,
            sources: 1,
            counters: 9,
            messages_per_source: 100_000,
            vocabulary: 10_000,
            p1: 0.0932, // the WP profile's skew
            service_delay: Duration::ZERO,
            aggregation_period: None,
            top_k: 10,
            seed: 42,
            source_rate: None,
        }
    }
}

/// The KG counter: running per-word totals, top-k flushes, state retained.
///
/// SG/PKG counters are the generic phase-one [`WindowedWorkerBolt`] over
/// [`Sum`], flushing and clearing partial counts every aggregation period
/// (each as a plain count tuple: a sum is a single observation). Keeping
/// running totals and flushing only the local top-k is
/// key-grouping-specific logic, not partial aggregation, so it stays here.
struct RunningTopKBolt {
    counts: FxHashMap<TupleKey, i64>,
    delay: ServiceDelay,
    top_k: usize,
}

impl RunningTopKBolt {
    fn flush(&mut self, out: &mut Emitter<'_>) {
        // Emit the local top-k running counts (value = running total).
        let mut entries: Vec<(&TupleKey, &i64)> = self.counts.iter().collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (key, &count) in entries.into_iter().take(self.top_k) {
            out.emit(Tuple::new(key.clone(), count));
        }
    }
}

impl Bolt for RunningTopKBolt {
    fn execute(&mut self, tuple: Tuple, out: &mut Emitter<'_>) {
        self.delay.charge(out);
        *self.counts.entry(tuple.key).or_insert(0) += tuple.value;
    }

    fn tick(&mut self, out: &mut Emitter<'_>) {
        self.flush(out);
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        self.flush(out);
    }

    fn state_size(&self) -> usize {
        self.counts.len()
    }
}

/// An open-loop source: tuple `i` of `inner` is due `i / rate` seconds after
/// the first poll (not after the spout factory ran — topology set-up is not
/// the stream's time). Ahead of schedule it answers "not yet", which ends the
/// pool spout's quantum without parking a worker; behind, it catches up.
struct Paced {
    inner: Box<dyn Spout>,
    rate: f64,
    started: Option<Instant>,
    emitted: u64,
}

impl Spout for Paced {
    fn next(&mut self) -> Option<Tuple> {
        self.emitted += 1;
        self.inner.next()
    }

    fn not_before(&mut self) -> Option<Duration> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let due = Duration::from_secs_f64(self.emitted as f64 / self.rate);
        let ahead = due.saturating_sub(started.elapsed());
        (!ahead.is_zero()).then_some(ahead)
    }
}

/// Precomputed rank→word table of finished keys: each word's bytes and
/// fingerprint, so emitting a word is a 32-byte copy, not a murmur3.
type Lexicon = Vec<TupleKey>;

/// Build the three-stage topology: `source → counter → aggregator`.
///
/// Returns the topology and the node ids `(source, counter, aggregator)`.
pub fn wordcount_topology(cfg: &WordCountConfig) -> (Topology, NodeId, NodeId, NodeId) {
    let mut topo = Topology::new();
    let cfg2 = cfg.clone();
    // The Zipf exponent fit (80 bisection steps, each an O(K) harmonic sum)
    // and the rank→word lexicon are identical for every source instance, so
    // both are built once per topology and shared. Rebuilding them inside
    // the per-instance factory cost ~13 ms *per source* — at 80 sources
    // that was 1 s of setup, dwarfing the benchmark's execution time.
    // Streams are unchanged: only the per-instance RNG seed differs.
    let shared_zipf = Arc::new(ZipfTable::with_p1(cfg.vocabulary, cfg.p1));
    // Rank→word synthesis costs a base-70 division chain per tuple, and
    // building a key a murmur3 over its bytes; for realistic vocabularies
    // the whole lexicon is precomputed as finished keys (10k words
    // ≈ 312 KiB) so the hot loop is a table lookup and a copy. Streams are
    // byte-identical either way.
    let shared_words: Option<Arc<Lexicon>> = (cfg.vocabulary <= 1 << 16).then(|| {
        Arc::new(
            (0..cfg.vocabulary)
                .map(|r| {
                    let (word, len) = word_bytes_for_rank(r);
                    TupleKey::from_slice(&word[..len])
                })
                .collect(),
        )
    });
    let source = topo.add_spout("source", cfg.sources, move |i| {
        let zipf = Arc::clone(&shared_zipf);
        let mut rng = SmallRng::seed_from_u64(cfg2.seed ^ (i as u64).wrapping_mul(0x9e37));
        let words = shared_words.clone();
        let mut left = cfg2.messages_per_source;
        let unpaced = spout_from_fn(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            let rank = zipf.sample(&mut rng);
            // Stack/table-buffered word bytes: every word fits the tuple
            // key's inline capacity, so the source emits without allocating.
            if let Some(words) = &words {
                Some(Tuple::new(words[rank as usize].clone(), 1))
            } else {
                let (word, len) = word_bytes_for_rank(rank);
                Some(Tuple::new(&word[..len], 1))
            }
        });
        match cfg2.source_rate {
            Some(rate) => Box::new(Paced { inner: unpaced, rate, started: None, emitted: 0 }),
            None => unpaced,
        }
    });

    let running = cfg.variant == WordCountVariant::KeyGrouping;
    let (delay, top_k) = (cfg.service_delay, cfg.top_k);
    let mut counter_handle = topo
        .add_bolt("counter", cfg.counters, move |_| -> Box<dyn Bolt> {
            if running {
                let counts = FxHashMap::default();
                Box::new(RunningTopKBolt { counts, delay: ServiceDelay::new(delay), top_k })
            } else {
                Box::new(WindowedWorkerBolt::<Sum>::per_key().service_delay(delay))
            }
        })
        .input(source, cfg.variant.grouping());
    if let Some(period) = cfg.aggregation_period {
        counter_handle = counter_handle.tick_every(period);
    }
    let counter = counter_handle.id();

    // Partials for the same word must meet: key grouping into the
    // aggregator (a single instance here, as in the paper's topology). KG's
    // flushes re-state monotone running totals, so they merge by maximum;
    // SG/PKG partials sum.
    let aggregator = topo
        .add_bolt("aggregator", 1, move |_| -> Box<dyn Bolt> {
            if running {
                Box::new(AggregatorBolt::<Max>::new())
            } else {
                Box::new(AggregatorBolt::<Sum>::new())
            }
        })
        .input(counter, Grouping::Key)
        .id();
    (topo, source, counter, aggregator)
}

/// Ground-truth word counts for a config (regenerates the same stream).
pub fn exact_counts(cfg: &WordCountConfig) -> FxHashMap<String, i64> {
    let mut totals: FxHashMap<String, i64> = FxHashMap::default();
    let zipf = ZipfTable::with_p1(cfg.vocabulary, cfg.p1);
    for i in 0..cfg.sources {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9e37));
        for _ in 0..cfg.messages_per_source {
            *totals.entry(word_for_rank(zipf.sample(&mut rng))).or_insert(0) += 1;
        }
    }
    totals
}

/// Extract the aggregator's final top-k from run statistics — requires the
/// aggregator bolt to have been observed via a terminal probe; for
/// simplicity the experiments re-derive top-k from `exact_counts` where
/// needed, and tests assert conservation instead.
pub fn top_k_of(totals: &FxHashMap<String, i64>, k: usize) -> Vec<(String, i64)> {
    let mut v: Vec<(String, i64)> = totals.iter().map(|(w, &c)| (w.clone(), c)).collect();
    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: &WordCountConfig) -> pkg_engine::RunStats {
        let (topo, _, _, _) = wordcount_topology(cfg);
        Runtime::new().run(topo)
    }

    #[test]
    fn partial_variant_conserves_counts() {
        let cfg = WordCountConfig {
            variant: WordCountVariant::PartialKeyGrouping,
            messages_per_source: 20_000,
            vocabulary: 500,
            aggregation_period: Some(Duration::from_millis(10)),
            ..WordCountConfig::default()
        };
        let stats = run(&cfg);
        assert_eq!(stats.processed("counter"), 20_000);
        // Every unit reaches the aggregator exactly once (flush+clear).
        let agg = stats.instances.iter().find(|i| i.component == "aggregator").expect("agg");
        assert!(agg.processed > 0);
        // The aggregator's totals equal the message count: verified via
        // state accounting — final state counts distinct words; the sum is
        // checked in the integration tests where the bolt is accessible.
        assert_eq!(stats.emitted("counter"), agg.processed);
    }

    #[test]
    fn pkg_memory_between_kg_and_sg() {
        // §III: KG keeps K counters, PKG ≤ 2K, SG up to W·K.
        let base = WordCountConfig {
            messages_per_source: 30_000,
            vocabulary: 300,
            counters: 8,
            aggregation_period: None, // keep counters resident
            ..WordCountConfig::default()
        };
        let counters_of = |variant| {
            let cfg = WordCountConfig { variant, ..base.clone() };
            run(&cfg).final_state("counter")
        };
        let kg = counters_of(WordCountVariant::KeyGrouping);
        let pkg = counters_of(WordCountVariant::PartialKeyGrouping);
        let sg = counters_of(WordCountVariant::ShuffleGrouping);
        assert_eq!(kg, 300, "KG keeps exactly one counter per word");
        assert!(pkg <= 600, "PKG ≤ 2K, got {pkg}");
        assert!(pkg > kg, "splitting must cost something");
        assert!(sg > pkg, "SG must exceed PKG (got sg={sg} pkg={pkg})");
    }

    #[test]
    fn kg_load_is_more_imbalanced_than_pkg() {
        let base = WordCountConfig {
            messages_per_source: 30_000,
            vocabulary: 2_000,
            p1: 0.2, // strong skew
            counters: 6,
            ..WordCountConfig::default()
        };
        let max_load = |variant| {
            let cfg = WordCountConfig { variant, ..base.clone() };
            *run(&cfg).loads("counter").iter().max().expect("non-empty")
        };
        let kg = max_load(WordCountVariant::KeyGrouping);
        let pkg = max_load(WordCountVariant::PartialKeyGrouping);
        assert!(pkg < kg, "PKG max load {pkg} must be below KG {kg} under 20% head skew");
    }

    #[test]
    fn exact_counts_match_stream() {
        let cfg = WordCountConfig {
            messages_per_source: 5_000,
            vocabulary: 100,
            sources: 2,
            ..WordCountConfig::default()
        };
        let totals = exact_counts(&cfg);
        assert_eq!(totals.values().sum::<i64>(), 10_000);
        let top = top_k_of(&totals, 5);
        assert_eq!(top.len(), 5);
        assert!(top[0].1 >= top[4].1);
    }
}
