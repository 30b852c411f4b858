//! Greedy placement *without* key splitting: a key is pinned to the worker
//! chosen at first sight. Two baselines of Table II are configurations:
//!
//! * **Static PoTC** ([`PinnedGreedy::potc`]) — "A naïve application of
//!   PoTC to key grouping requires the system to store a bit of information
//!   for each key seen, to keep track of which of the two choices needs to
//!   be used thereafter. This variant is referred to as static PoTC"
//!   (§III-A): the first message picks the less-loaded of the key's two
//!   hash candidates.
//! * **On-Greedy** ([`PinnedGreedy::on_greedy`]) — each *new* key goes to
//!   the least-loaded worker over **all** live workers, not just two hash
//!   candidates (§V, Q1).
//!
//! Both preserve key-grouping semantics (one worker per key) but need a
//! per-key routing table — exactly the cost the paper argues is impractical
//! — and, as Table II shows, they balance far worse than PKG because a
//! key's placement is frozen before its popularity is known.

use pkg_hash::{member_seed, FxHashMap, StreamKey};

use crate::load_view::LoadView;

/// Routing-table greedy (the "PoTC" and "On-Greedy" rows of Table II).
#[derive(Debug, Clone)]
pub struct PinnedGreedy {
    view: LoadView,
    /// Seeds of the hash candidates a new key chooses among — PKG's first
    /// two under PoTC. Empty under On-Greedy: every live worker competes.
    seeds: Vec<u64>,
    table: FxHashMap<u64, u32>,
}

impl PinnedGreedy {
    /// Static PoTC: the first occurrence of a key picks the less-loaded of
    /// its two hash candidates according to `view`.
    pub fn potc(view: LoadView, seed: u64) -> Self {
        let seeds = (0..2).map(|i| member_seed(seed, i)).collect();
        Self { view, seeds, table: FxHashMap::default() }
    }

    /// On-Greedy: the first occurrence of a key picks the least-loaded live
    /// worker according to `view`.
    pub fn on_greedy(view: LoadView) -> Self {
        Self { view, seeds: Vec::new(), table: FxHashMap::default() }
    }

    /// Number of routing-table entries (the state the paper objects to:
    /// one per distinct key seen).
    pub fn table_entries(&self) -> usize {
        self.table.len()
    }

    /// Route `key` to its pinned worker, pinning it on first sight.
    pub fn route(&mut self, key: u64, ts_ms: u64) -> usize {
        let w = match self.table.get(&key) {
            Some(&w) => w as usize,
            None => {
                let w = if self.seeds.is_empty() {
                    self.view.argmin_live(ts_ms)
                } else {
                    let hashes = self.seeds.iter().map(|&s| key.hash_seeded(s));
                    self.view.argmin_hashed(hashes, ts_ms)
                };
                self.table.insert(key, w as u32);
                w
            }
        };
        self.view.record(w);
        w
    }

    pub fn n(&self) -> usize {
        self.view.n()
    }

    pub fn name(&self) -> String {
        if self.seeds.is_empty() { "OnlineGreedy" } else { "StaticPoTC" }.into()
    }

    /// The workers `key`'s next message may go to.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        if self.seeds.is_empty() {
            return (0..self.view.n()).collect();
        }
        match self.table.get(&key) {
            // Under a membership subset a pinned key has exactly one
            // possible destination; unpinned keys draw from the live set.
            Some(&w) if self.view.live().is_some() => vec![w as usize],
            _ => self.seeds.iter().map(|&s| self.view.reduce(key.hash_seeded(s))).collect(),
        }
    }

    /// Route over the live subset `live` of `0..n`, evicting routing-table
    /// entries pinned to dead workers — those keys are re-placed (among
    /// their live candidates) on next sight, which is the table-based
    /// analogue of key migration.
    pub fn apply_membership(&mut self, live: &[usize]) {
        self.view.set_live(live);
        self.table.retain(|_, w| live.binary_search(&(*w as usize)).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimate;
    use pkg_metrics::Capacities;

    fn local(n: usize) -> LoadView {
        LoadView::new(n, Estimate::local(n))
    }

    fn potc(n: usize, seed: u64) -> PinnedGreedy {
        PinnedGreedy::potc(local(n), seed)
    }

    #[test]
    fn key_sticks_to_first_choice() {
        let mut p = potc(10, 1);
        let w = p.route(42, 0);
        for t in 1..100 {
            assert_eq!(p.route(42, t), w, "static PoTC must never move a key");
        }
        assert_eq!(p.table_entries(), 1);
    }

    #[test]
    fn chooses_less_loaded_candidate_at_first_sight() {
        let mut p = potc(4, 2);
        let key = 7u64;
        let cands = p.candidates(key);
        if cands[0] == cands[1] {
            return;
        }
        // Pre-load the first candidate through other traffic.
        let mut preloaded = 0;
        for k in 1000..50_000u64 {
            if p.route(k, 0) == cands[0] {
                preloaded += 1;
            }
            if preloaded > 1000 {
                break;
            }
        }
        let Estimate::Local(loads) = p.view.estimate() else { unreachable!() };
        let (l0, l1) = (loads[cands[0]], loads[cands[1]]);
        let w = p.route(key, 0);
        let expected = if l1 < l0 { cands[1] } else { cands[0] };
        assert_eq!(w, expected);
    }

    #[test]
    fn hot_key_still_overloads_one_worker() {
        // The defining weakness vs PKG: a single hot key cannot be split.
        let mut p = potc(10, 3);
        let mut loads = [0u64; 10];
        for t in 0..10_000 {
            loads[p.route(0, t)] += 1;
        }
        assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 1);
    }

    #[test]
    fn membership_evicts_keys_pinned_to_dead_workers() {
        let mut p = potc(6, 9);
        for k in 0..300u64 {
            p.route(k, 0);
        }
        let before = p.table_entries();
        let live = [0usize, 2, 4];
        p.apply_membership(&live);
        assert!(p.table_entries() < before, "some keys were pinned to dead workers");
        for k in 0..600u64 {
            let w = p.route(k, 1);
            assert!(live.contains(&w), "key {k} routed to dead worker {w}");
            assert_eq!(p.candidates(k), vec![w], "pinned key has one destination");
        }
    }

    #[test]
    fn table_grows_with_distinct_keys_only() {
        let mut p = potc(8, 4);
        for t in 0..1_000 {
            p.route(t % 50, t);
        }
        assert_eq!(p.table_entries(), 50);
    }

    #[test]
    fn online_greedy_pins_keys() {
        let mut g = PinnedGreedy::on_greedy(local(5));
        let w = g.route(9, 0);
        for t in 1..50 {
            assert_eq!(g.route(9, t), w);
        }
        assert_eq!(g.table_entries(), 1);
    }

    #[test]
    fn online_greedy_spreads_new_keys_to_least_loaded() {
        let mut g = PinnedGreedy::on_greedy(local(3));
        // Keys 0,1,2 land on three distinct workers (each new key sees the
        // previous ones' load).
        let w0 = g.route(0, 0);
        let w1 = g.route(1, 0);
        let w2 = g.route(2, 0);
        let mut ws = [w0, w1, w2];
        ws.sort_unstable();
        assert_eq!(ws, [0, 1, 2]);
    }

    #[test]
    fn online_greedy_membership_evicts_and_reroutes() {
        let mut g = PinnedGreedy::on_greedy(local(4));
        for k in 0..200u64 {
            g.route(k, 0);
        }
        let before = g.table_entries();
        let live = [1usize, 3];
        g.apply_membership(&live);
        assert!(g.table_entries() < before);
        for k in 0..400u64 {
            assert!(live.contains(&g.route(k, 1)));
        }
    }

    #[test]
    fn online_greedy_weighted_fills_fast_worker_first() {
        // Worker 0 is 3×: with per-key unit loads, normalized loads are
        // L_0/[1.8] vs L_{1,2}/[0.6] — the first three new keys land 0, 0, 1
        // (after two keys worker 0 sits at 2/1.8 > 0/0.6).
        let caps = Capacities::heterogeneous(&[3.0, 1.0, 1.0]);
        let mut g = PinnedGreedy::on_greedy(local(3).with_capacities(caps));
        let mut loads = [0u64; 3];
        for key in 0..40u64 {
            loads[g.route(key, 0)] += 1;
        }
        // 3× capacity absorbs ~3/5 of the 40 unit keys.
        assert!((loads[0] as i64 - 24).unsigned_abs() <= 2, "loads = {loads:?}");
        assert!(loads[1] > 0 && loads[2] > 0);
    }
}
