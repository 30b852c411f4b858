//! Tumbling and sliding window managers keyed by stream key.
//!
//! Both managers bucket observations into fixed-width *panes* along a
//! monotone logical clock (milliseconds of stream time in `pkg-sim`, tick
//! indices in the engine bolts). A [`TumblingWindow`] holds one open pane
//! and hands back each pane as it closes — the flush-and-merge cadence whose
//! period `T` the paper's Fig. 5 experiment sweeps. A [`SlidingWindow`]
//! keeps the last `P` panes resident and answers queries by merging a key's
//! per-pane partials, which is exactly where the associativity of
//! [`PartialAgg::merge`] pays off.
//!
//! Panes also track arrival metadata (`inserted`, the sum of observation
//! timestamps), so a flush can report *staleness* — how long the average
//! observation waited in the window buffer before reaching the aggregator —
//! one of the aggregation-overhead columns of `pkg-sim`'s report.

use std::collections::VecDeque;
use std::hash::Hash;

use pkg_hash::FxHashMap;

use crate::partial::PartialAgg;

/// A closed pane: the per-key partials accumulated over one window period.
#[derive(Debug)]
pub struct Pane<K, A> {
    /// Pane index (`ts / width`).
    pub index: u64,
    /// Inclusive start of the pane's time range.
    pub start: u64,
    /// Exclusive end of the pane's time range.
    pub end: u64,
    /// Per-key partial aggregates.
    pub accs: FxHashMap<K, A>,
    /// Observations folded into this pane.
    pub inserted: u64,
    /// Sum of observation timestamps (staleness bookkeeping).
    sum_ts: u128,
}

impl<K, A: PartialAgg> Pane<K, A> {
    fn new(index: u64, width: u64) -> Self {
        Self {
            index,
            start: index * width,
            end: (index + 1) * width,
            accs: FxHashMap::default(),
            inserted: 0,
            sum_ts: 0,
        }
    }

    fn insert(&mut self, key: K, key_id: u64, value: i64, ts: u64)
    where
        K: Eq + Hash,
    {
        self.accs.entry(key).or_insert_with(A::identity).insert(key_id, value);
        self.inserted += 1;
        self.sum_ts += ts as u128;
    }

    /// State entries held (Σ per-key accumulator entries).
    pub fn entries(&self) -> usize {
        self.accs.values().map(A::entries).sum()
    }

    /// Total time the pane's observations waited until a flush at
    /// `flush_ts`: `Σ (flush_ts − ts_i)`. Mean staleness is this divided by
    /// [`Self::inserted`].
    pub fn staleness_total(&self, flush_ts: u64) -> f64 {
        self.inserted as f64 * flush_ts as f64 - self.sum_ts as f64
    }
}

/// A tumbling (non-overlapping) window: one open pane; inserts that cross a
/// pane boundary close it.
#[derive(Debug)]
pub struct TumblingWindow<K, A> {
    width: u64,
    current: Option<Pane<K, A>>,
}

impl<K: Eq + Hash, A: PartialAgg> TumblingWindow<K, A> {
    /// A window with panes `width` time units wide (`width ≥ 1`).
    pub fn new(width: u64) -> Self {
        assert!(width >= 1, "pane width must be positive");
        Self { width, current: None }
    }

    /// Pane width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Fold one observation; returns the previous pane when `ts` crosses
    /// into a new one. Late observations (`ts` before the open pane) fold
    /// into the open pane — the clock is assumed monotone per caller.
    pub fn insert(&mut self, key: K, key_id: u64, value: i64, ts: u64) -> Option<Pane<K, A>> {
        let idx = ts / self.width;
        let closed = match &self.current {
            Some(p) if p.index >= idx => None,
            _ => self.current.take(),
        };
        self.current
            .get_or_insert_with(|| Pane::new(idx, self.width))
            .insert(key, key_id, value, ts);
        closed.filter(|p| p.inserted > 0)
    }

    /// Close every pane ending at or before `ts` (periodic flush without a
    /// triggering insert).
    pub fn advance_to(&mut self, ts: u64) -> Option<Pane<K, A>> {
        match &self.current {
            Some(p) if p.end <= ts => self.current.take(),
            _ => None,
        }
    }

    /// Close the open pane unconditionally (end-of-stream flush).
    pub fn flush(&mut self) -> Option<Pane<K, A>> {
        self.current.take()
    }

    /// State entries currently buffered.
    pub fn entries(&self) -> usize {
        self.current.as_ref().map_or(0, Pane::entries)
    }

    /// Distinct keys currently buffered.
    pub fn keys(&self) -> usize {
        self.current.as_ref().map_or(0, |p| p.accs.len())
    }

    /// Index of the open pane, if one is buffered. Everything this window
    /// flushes in the future lands in this pane or a later one — callers
    /// tracking multiple windows use it as a finalization frontier.
    pub fn current_pane_index(&self) -> Option<u64> {
        self.current.as_ref().map(|p| p.index)
    }
}

/// A sliding window of `panes_per_window` panes, each `pane_width` wide;
/// queries merge a key's partials across the resident panes.
#[derive(Debug)]
pub struct SlidingWindow<K, A> {
    pane_width: u64,
    panes_per_window: usize,
    panes: VecDeque<Pane<K, A>>,
}

impl<K: Eq + Hash, A: PartialAgg> SlidingWindow<K, A> {
    /// A window covering `panes_per_window × pane_width` time units.
    pub fn new(pane_width: u64, panes_per_window: usize) -> Self {
        assert!(pane_width >= 1 && panes_per_window >= 1);
        Self { pane_width, panes_per_window, panes: VecDeque::new() }
    }

    /// Fold one observation; returns panes that slid out of the window.
    pub fn insert(&mut self, key: K, key_id: u64, value: i64, ts: u64) -> Vec<Pane<K, A>> {
        let idx = ts / self.pane_width;
        match self.panes.back() {
            Some(p) if p.index >= idx => {}
            _ => self.panes.push_back(Pane::new(idx, self.pane_width)),
        }
        self.panes.back_mut().expect("pane just ensured").insert(key, key_id, value, ts);
        let mut evicted = Vec::new();
        while let Some(front) = self.panes.front() {
            if front.index + self.panes_per_window as u64 <= idx {
                evicted.push(self.panes.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        evicted
    }

    /// The merged aggregate for `key` over the resident panes, if any pane
    /// saw it. Panes merge oldest-first (a deterministic order).
    pub fn query(&self, key: &K) -> Option<A> {
        let mut acc: Option<A> = None;
        for pane in &self.panes {
            if let Some(part) = pane.accs.get(key) {
                acc.get_or_insert_with(A::identity).merge(part);
            }
        }
        acc
    }

    /// Merge every resident pane into a per-key snapshot of the window.
    pub fn snapshot(&self) -> FxHashMap<K, A>
    where
        K: Clone,
    {
        let mut out: FxHashMap<K, A> = FxHashMap::default();
        for pane in &self.panes {
            for (k, part) in &pane.accs {
                out.entry(k.clone()).or_insert_with(A::identity).merge(part);
            }
        }
        out
    }

    /// Number of resident panes.
    pub fn panes(&self) -> usize {
        self.panes.len()
    }

    /// State entries across all resident panes.
    pub fn entries(&self) -> usize {
        self.panes.iter().map(Pane::entries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulators::{Mean, Sum};

    #[test]
    fn tumbling_panes_partition_the_stream() {
        let mut w: TumblingWindow<u64, Sum> = TumblingWindow::new(10);
        let mut closed = Vec::new();
        for ts in 0..35u64 {
            if let Some(p) = w.insert(ts % 3, ts % 3, 1, ts) {
                closed.push(p);
            }
        }
        closed.extend(w.flush());
        assert_eq!(closed.len(), 4, "35 ticks over width-10 panes");
        let total: i64 = closed.iter().flat_map(|p| p.accs.values()).map(PartialAgg::emit).sum();
        assert_eq!(total, 35, "panes partition the stream exactly");
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].end, 10);
        assert_eq!(closed[0].inserted, 10);
    }

    #[test]
    fn tumbling_advance_and_staleness() {
        let mut w: TumblingWindow<&str, Sum> = TumblingWindow::new(100);
        assert!(w.insert("a", 1, 5, 10).is_none());
        assert!(w.insert("a", 1, 5, 20).is_none());
        assert!(w.advance_to(50).is_none(), "pane not over yet");
        let p = w.advance_to(100).expect("pane closes at its end");
        // Two observations at ts 10 and 20 flushed at ts 100.
        assert_eq!(p.staleness_total(100), (100 - 10) as f64 + (100 - 20) as f64);
        assert_eq!(w.entries(), 0);
    }

    #[test]
    fn tumbling_skips_empty_panes() {
        let mut w: TumblingWindow<u64, Sum> = TumblingWindow::new(1);
        assert!(w.insert(0, 0, 1, 0).is_none());
        // A jump over many empty panes closes only the populated one.
        let p = w.insert(0, 0, 1, 50).expect("old pane closes");
        assert_eq!(p.index, 0);
        assert_eq!(w.keys(), 1);
    }

    #[test]
    fn sliding_query_merges_resident_panes() {
        // 3 panes of width 10: window covers ts ∈ (idx-2..=idx) panes.
        let mut w: SlidingWindow<u64, Mean> = SlidingWindow::new(10, 3);
        for ts in 0..30u64 {
            assert!(w.insert(7, 7, ts as i64, ts).is_empty());
        }
        assert_eq!(w.panes(), 3);
        let q = w.query(&7).expect("key resident");
        assert_eq!(q.stats().count(), 30);
        assert!((q.stats().mean() - 14.5).abs() < 1e-9);
        // Advancing to pane 3 evicts pane 0 (ts 0..10).
        let evicted = w.insert(7, 7, 0, 30);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].index, 0);
        let q = w.query(&7).expect("key resident");
        assert_eq!(q.stats().count(), 21, "20 from panes 1–2 plus the new insert");
    }

    #[test]
    fn sliding_snapshot_covers_all_keys() {
        let mut w: SlidingWindow<u64, Sum> = SlidingWindow::new(5, 2);
        for ts in 0..10u64 {
            w.insert(ts % 4, ts % 4, 1, ts);
        }
        let snap = w.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.values().map(PartialAgg::emit).sum::<i64>(), 10);
        assert_eq!(w.entries(), 8, "4 keys × 2 resident panes");
    }
}
