//! Streaming heavy hitters (§VI-C): SPACESAVING summaries under PKG, run as
//! a real two-phase topology on the engine.
//!
//! Each worker holds one [`TopK`] accumulator (a SpaceSaving summary of its
//! sub-stream); the aggregator merges the workers' encoded partials with
//! the mergeable-summary combination of Berinde et al. Under PKG every item
//! reaches at most two workers, so a point query needs only two summaries
//! and its merged error bound is the sum of **two** per-summary terms,
//! independent of the parallelism level — the paper's claim for this
//! application.
//!
//! Before `pkg-agg`, this pipeline was hand-rolled in the `heavy_hitters`
//! example (a bare loop over partitioner + summaries). The topology here is
//! the same computation as engine bolts; [`single_phase_summary`] recomputes
//! that bare loop with the identical routing and canonical merge, and the
//! two results are byte-identical — the regression the `fig5_overhead`
//! driver checks.

use std::time::Duration;

use pkg_agg::{canonical_merge, PartialAgg, TopK};
use pkg_datagen::DatasetProfile;
use pkg_engine::grouping::{Router, Target};
use pkg_engine::prelude::*;

use crate::bolts::{AggregatorBolt, Collector, WindowedWorkerBolt};

/// Summary capacity used by the heavy-hitters pipeline (the example's
/// historical `k = 256`).
pub const SUMMARY_K: usize = 256;

/// The heavy-hitters accumulator: a SpaceSaving summary with
/// [`SUMMARY_K`] counters over item fingerprints.
pub type HhSummary = TopK<SUMMARY_K>;

/// Configuration of the heavy-hitters topology.
#[derive(Debug, Clone)]
pub struct HeavyHittersConfig {
    /// Worker parallelism.
    pub workers: usize,
    /// Input stream (a `pkg-datagen` profile; keys are item ids).
    pub profile: DatasetProfile,
    /// Stream content seed.
    pub stream_seed: u64,
    /// Engine seed (drives the edge hash functions; keep fixed when
    /// comparing against [`single_phase_summary`]).
    pub engine_seed: u64,
    /// Worker flush period; `None` flushes once at end of stream (the
    /// deterministic setting — periodic flushes depend on wall-clock tick
    /// timing).
    pub aggregation_period: Option<Duration>,
    /// Partitioning of the source → worker edge.
    pub grouping: Grouping,
}

impl Default for HeavyHittersConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            profile: DatasetProfile::cashtags().with_messages(100_000),
            stream_seed: 7,
            engine_seed: 42,
            aggregation_period: None,
            grouping: Grouping::partial_key(),
        }
    }
}

/// The fingerprint under which item `key` is summarized (the routing
/// `key_id` of its tuple).
pub fn item_id(key: u64) -> u64 {
    TupleKey::from_slice(&key.to_le_bytes()).key_id()
}

/// Build `source → workers → aggregator → collector`; the collector ends up
/// holding one tuple whose payload is the encoded merged [`HhSummary`].
pub fn heavy_hitters_topology(cfg: &HeavyHittersConfig) -> (Topology, Collector) {
    let collector = Collector::new();
    let mut topo = Topology::new();
    let spec = cfg.profile.build(cfg.stream_seed);
    let stream_seed = cfg.stream_seed;
    let source = topo.add_spout("source", 1, move |_| {
        let mut iter = spec.iter(stream_seed);
        spout_from_fn(move || iter.next().map(|msg| Tuple::new(msg.key.to_le_bytes().to_vec(), 1)))
    });
    let mut worker_handle = topo
        .add_bolt("worker", cfg.workers, |_| Box::new(WindowedWorkerBolt::<HhSummary>::global()))
        .input(source, cfg.grouping.clone());
    if let Some(period) = cfg.aggregation_period {
        worker_handle = worker_handle.tick_every(period);
    }
    let worker = worker_handle.id();
    let agg = topo
        .add_bolt("aggregator", 1, |_| Box::new(AggregatorBolt::<HhSummary>::new()))
        .input(worker, Grouping::Global)
        .id();
    let c = collector.clone();
    let _sink = topo.add_bolt("collector", 1, move |_| c.bolt()).input(agg, Grouping::Global);
    (topo, collector)
}

/// The merged summary a finished run left in the collector.
pub fn final_summary(collector: &Collector) -> Option<HhSummary> {
    collector.decoded::<HhSummary>().into_iter().next().map(|(_, a)| a)
}

/// The pre-`pkg-agg` single-phase computation: replay the stream through
/// the same per-edge router the engine builds (same candidate hashes, same
/// local load estimates), summarize each worker's sub-stream, and fold the
/// summaries with [`canonical_merge`].
///
/// With `aggregation_period = None` and one source, a run of
/// [`heavy_hitters_topology`] produces a byte-identical summary — threading
/// changes nothing because routing is per-sender deterministic and the
/// canonical fold is arrival-order-insensitive.
pub fn single_phase_summary(cfg: &HeavyHittersConfig) -> HhSummary {
    // Our topology adds the source as component 0 and the workers as
    // component 1, so the engine hashes their edge with this seed.
    let seed = pkg_engine::edge_seed(cfg.engine_seed, 0, 1);
    let mut router = Router::new(&cfg.grouping, cfg.workers, seed, 0);
    let mut summaries: Vec<HhSummary> = (0..cfg.workers).map(|_| HhSummary::identity()).collect();
    let spec = cfg.profile.build(cfg.stream_seed);
    for msg in spec.iter(cfg.stream_seed) {
        let id = item_id(msg.key);
        match router.route(id) {
            Target::One(w) => summaries[w].insert(id, 1),
            Target::All => {
                for s in summaries.iter_mut() {
                    s.insert(id, 1);
                }
            }
        }
    }
    canonical_merge(&summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HeavyHittersConfig {
        HeavyHittersConfig {
            workers: 4,
            profile: DatasetProfile::cashtags().with_messages(20_000),
            ..HeavyHittersConfig::default()
        }
    }

    #[test]
    fn item_id_is_the_routing_fingerprint_of_the_key_bytes() {
        use pkg_hash::StreamKey;
        let pinned = [
            (0, 0xb2aa_0d37_327a_6c35),
            (1, 0x871c_70f3_7735_437b),
            (42, 0xfb8f_9ca3_0fad_2ceb),
            (u64::MAX, 0x3c3a_1d56_5338_e3ae),
        ];
        for (key, id) in pinned {
            assert_eq!(item_id(key), id, "item {key}");
            assert_eq!(item_id(key), key.to_le_bytes().as_slice().key_id());
            assert_eq!(item_id(key), Tuple::new(key.to_le_bytes(), 0).key_id());
        }
    }

    #[test]
    fn two_phase_matches_single_phase_byte_for_byte() {
        let cfg = small();
        let (topo, collector) = heavy_hitters_topology(&cfg);
        let stats = Runtime::with_options(pkg_engine::RuntimeOptions {
            channel_capacity: 1024,
            seed: cfg.engine_seed,
            ..pkg_engine::RuntimeOptions::default()
        })
        .run(topo);
        assert_eq!(stats.processed("worker"), 20_000);
        let engine = final_summary(&collector).expect("summary collected");
        let oracle = single_phase_summary(&cfg);
        assert_eq!(engine.emit(), 20_000, "summary mass conserved");
        assert_eq!(engine.encoded(), oracle.encoded(), "byte-identical to single-phase");
    }

    #[test]
    fn pkg_point_queries_touch_at_most_two_workers() {
        let cfg = small();
        let (topo, collector) = heavy_hitters_topology(&cfg);
        let stats = Runtime::with_options(pkg_engine::RuntimeOptions {
            channel_capacity: 1024,
            seed: cfg.engine_seed,
            ..pkg_engine::RuntimeOptions::default()
        })
        .run(topo);
        // Every worker's partial went to the aggregator exactly once.
        assert_eq!(stats.processed("aggregator"), cfg.workers as u64);
        let merged = final_summary(&collector).expect("summary collected");
        // The merged top items dominate the stream (cashtags are skewed).
        let top = merged.summary().top_k(5);
        assert!(top[0].count > top[4].count);
    }

    #[test]
    fn periodic_flushes_conserve_mass() {
        let cfg =
            HeavyHittersConfig { aggregation_period: Some(Duration::from_millis(5)), ..small() };
        let (topo, collector) = heavy_hitters_topology(&cfg);
        Runtime::new().run(topo);
        let merged = final_summary(&collector).expect("summary collected");
        assert_eq!(merged.emit(), 20_000);
    }
}
