//! Degrade-instead-of-drop load shedding: refused tuples fold into a
//! Space-Saving summary.
//!
//! `pkg-ingress` defines *when* to shed and the [`ShedPolicy`] contract;
//! `pkg-agg` owns the sketch, and the degrade policy sits here, beside the
//! topologies that install it. Instead of
//! discarding a refused tuple ([`pkg_ingress::HardDrop`]), [`SketchDegrade`]
//! absorbs its weight into a [`SpaceSaving`] summary of `k` counters, and
//! surfaces the surviving heavy-hitter counts through
//! [`ShedPolicy::drain`] at end-of-stream. The engine re-injects those as
//! ordinary tuples ahead of Eof, so aggregate answers keep sketch-level
//! accuracy for the head of the distribution — exactly the keys the paper's
//! skew model makes matter — even under overload where individual tuples
//! could not be admitted.

use pkg_agg::SpaceSaving;
use pkg_hash::{FxHashMap, FxHashSet};
use pkg_ingress::{Shed, ShedPolicy};

/// Shed policy that absorbs refused tuples into a Space-Saving summary.
pub struct SketchDegrade {
    sketch: SpaceSaving,
    /// Key bytes per monitored fingerprint, so drained counts can be
    /// re-injected under their original keys. Pruned lazily to the
    /// monitored set — bounded by `2k` entries between prunes.
    names: FxHashMap<u64, Vec<u8>>,
}

impl SketchDegrade {
    /// A summary of `k ≥ 1` counters (the sketch-accuracy budget).
    pub fn new(k: usize) -> Self {
        Self { sketch: SpaceSaving::new(k), names: FxHashMap::default() }
    }

    /// Total weight absorbed so far.
    pub fn total(&self) -> u64 {
        self.sketch.total()
    }
}

impl ShedPolicy for SketchDegrade {
    fn shed(&mut self, key: &[u8], key_id: u64, value: i64) -> Shed {
        // Every refused tuple carries at least unit weight, so counting
        // streams (value 1 per occurrence) degrade to exact tuple counts
        // within the sketch's error bound.
        let weight = u64::try_from(value).unwrap_or(0).max(1);
        self.sketch.offer(key_id, weight);
        self.names.entry(key_id).or_insert_with(|| key.to_vec());
        if self.names.len() > 2 * self.sketch.capacity() {
            let live: FxHashSet<u64> = self.sketch.counters().iter().map(|c| c.key).collect();
            self.names.retain(|id, _| live.contains(id));
        }
        Shed::Absorbed
    }

    fn drain(&mut self) -> Vec<(Vec<u8>, i64)> {
        // `counters()` orders by count desc then key asc — deterministic,
        // so the re-injected stream is reproducible.
        self.sketch
            .counters()
            .iter()
            .filter_map(|c| {
                let count = i64::try_from(c.count).unwrap_or(i64::MAX);
                self.names.get(&c.key).map(|bytes| (bytes.clone(), count))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_and_drains_heavy_hitters() {
        let mut policy = SketchDegrade::new(4);
        for round in 0..50i64 {
            assert_eq!(policy.shed(b"hot", 1, 1), Shed::Absorbed);
            if round % 10 == 0 {
                assert_eq!(policy.shed(b"warm", 2, 1), Shed::Absorbed);
            }
        }
        assert_eq!(policy.total(), 55);
        let drained = policy.drain();
        assert_eq!(drained[0], (b"hot".to_vec(), 50));
        assert!(drained.iter().any(|(k, _)| k == b"warm"));
    }

    #[test]
    fn drain_conserves_weight_without_eviction() {
        let mut policy = SketchDegrade::new(8);
        for id in 0..8u64 {
            policy.shed(format!("k{id}").as_bytes(), id, (id as i64) + 1);
        }
        let drained = policy.drain();
        assert_eq!(drained.len(), 8);
        assert_eq!(drained.iter().map(|(_, v)| v).sum::<i64>(), 36);
    }

    #[test]
    fn name_table_stays_bounded_under_churn() {
        let mut policy = SketchDegrade::new(4);
        for id in 0..1000u64 {
            policy.shed(format!("k{id}").as_bytes(), id, 1);
        }
        assert!(policy.names.len() <= 2 * 4 + 1, "names pruned to the monitored set");
        // Every monitored counter still resolves to its key bytes.
        assert_eq!(policy.drain().len(), 4);
    }

    #[test]
    fn non_positive_values_count_as_unit_weight() {
        let mut policy = SketchDegrade::new(2);
        policy.shed(b"z", 9, 0);
        policy.shed(b"n", 10, -3);
        assert_eq!(policy.total(), 2);
    }
}
