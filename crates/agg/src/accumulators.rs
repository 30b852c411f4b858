//! Ready-made [`PartialAgg`] accumulators.
//!
//! Four exact monoids — [`Count`], [`Sum`], [`Max`], [`Mean`] — and two
//! sketch-backed ones — [`TopK`] (SpaceSaving with mergeable-summary
//! combination, §VI-C) and [`Distinct`] (a Ben-Haim/Tom-Tov histogram over
//! hashed keys). The exact ones satisfy the monoid laws bit-for-bit (up to
//! float rounding for `Mean`); the sketches are commutative and
//! bounded-error, and become deterministic under
//! [`canonical_merge`](crate::canonical_merge).

use pkg_metrics::Welford;

use crate::histogram_sketch::{BhHistogram, Bin};
use crate::partial::codec::{put_f64, put_i64, put_u64, Reader, MAX_COUNT};
use crate::partial::PartialAgg;
use crate::spacesaving::{Counter, SpaceSaving};

/// Number of observations (`insert` ignores both arguments), counted
/// modulo 2⁶⁴ so that every encoded state is a valid one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Count {
    n: u64,
}

impl Count {
    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }
}

impl PartialAgg for Count {
    const NAME: &'static str = "count";
    const EXACT: bool = true;

    fn identity() -> Self {
        Self::default()
    }

    fn insert(&mut self, _key_id: u64, _value: i64) {
        self.n = self.n.wrapping_add(1);
    }

    fn merge(&mut self, other: &Self) {
        self.n = self.n.wrapping_add(other.n);
    }

    fn emit(&self) -> i64 {
        self.n as i64
    }

    /// One observation (of any value) exactly when `n = 1`.
    fn as_observation(&self) -> Option<i64> {
        (self.n == 1).then_some(1)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.n);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let n = r.u64()?;
        r.done().then_some(Self { n })
    }
}

/// Sum of tuple values — the word-count accumulator (tuples carry unit or
/// batched counts in `value`). Sums modulo 2⁶⁴, like a release build's
/// `+`, so the monoid laws hold exactly and every encoded state is valid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sum {
    total: i64,
}

impl Sum {
    /// The running total.
    pub fn total(&self) -> i64 {
        self.total
    }
}

impl PartialAgg for Sum {
    const NAME: &'static str = "sum";
    const EXACT: bool = true;

    fn identity() -> Self {
        Self::default()
    }

    fn insert(&mut self, _key_id: u64, value: i64) {
        self.total = self.total.wrapping_add(value);
    }

    fn merge(&mut self, other: &Self) {
        self.total = self.total.wrapping_add(other.total);
    }

    fn emit(&self) -> i64 {
        self.total
    }

    /// Every sum is the single observation of its total.
    fn as_observation(&self) -> Option<i64> {
        Some(self.total)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_i64(buf, self.total);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let total = r.i64()?;
        r.done().then_some(Self { total })
    }
}

/// Maximum of tuple values. Merging *running* (monotone) per-key counters —
/// the key-grouping aggregation mode of the Q4 word count, where each flush
/// re-states a key's running total — is max-combination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Max {
    m: Option<i64>,
}

impl Max {
    /// The maximum observed, if any value was inserted.
    pub fn max(&self) -> Option<i64> {
        self.m
    }
}

impl PartialAgg for Max {
    const NAME: &'static str = "max";
    const EXACT: bool = true;

    fn identity() -> Self {
        Self::default()
    }

    fn insert(&mut self, _key_id: u64, value: i64) {
        self.m = Some(self.m.map_or(value, |m| m.max(value)));
    }

    fn merge(&mut self, other: &Self) {
        if let Some(o) = other.m {
            self.insert(0, o);
        }
    }

    /// The maximum, or 0 for an empty accumulator (counts are non-negative
    /// in every shipped pipeline).
    fn emit(&self) -> i64 {
        self.m.unwrap_or(0)
    }

    /// A set maximum is the single observation of its value.
    fn as_observation(&self) -> Option<i64> {
        self.m
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self.m {
            Some(v) => {
                buf.push(1);
                put_i64(buf, v);
            }
            None => buf.push(0),
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        let mut r = Reader::new(rest);
        let m = match tag {
            0 => None,
            1 => Some(r.i64()?),
            _ => return None,
        };
        r.done().then_some(Self { m })
    }
}

/// Mean (and variance) of tuple values via Welford's algorithm, merged with
/// Chan's parallel combination. Exact up to float rounding.
#[derive(Debug, Clone, Default)]
pub struct Mean {
    w: Welford,
}

impl Mean {
    /// The underlying Welford accumulator (mean / variance / min / max).
    pub fn stats(&self) -> &Welford {
        &self.w
    }
}

impl PartialAgg for Mean {
    const NAME: &'static str = "mean";
    const EXACT: bool = true;

    fn identity() -> Self {
        Self::default()
    }

    fn insert(&mut self, _key_id: u64, value: i64) {
        self.w.add(value as f64);
    }

    fn merge(&mut self, other: &Self) {
        self.w.merge(&other.w);
    }

    /// The mean, rounded to the nearest integer (0 when empty).
    fn emit(&self) -> i64 {
        self.w.mean().round() as i64
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let (n, mean, m2, min, max) = self.w.to_parts();
        put_u64(buf, n);
        put_f64(buf, mean);
        put_f64(buf, m2);
        put_f64(buf, min);
        put_f64(buf, max);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let (n, mean, m2, min, max) = (r.u64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        // A larger count would overflow the observation count on merge.
        (r.done() && n <= MAX_COUNT).then(|| Self { w: Welford::from_parts(n, mean, m2, min, max) })
    }
}

/// Approximate top-k over key fingerprints: a [`SpaceSaving`] summary with
/// `K` counters. `insert` offers the tuple's `key_id` with `max(value, 1)`
/// as weight; `merge` is the Berinde et al. mergeable-summary combination,
/// so under PKG any item's merged error is the sum of **two** per-summary
/// terms, independent of the parallelism level (§VI-C).
///
/// Commutative but not exactly associative (truncation between merges);
/// the aggregator folds buffers of these with
/// [`canonical_merge`](crate::canonical_merge).
#[derive(Debug, Clone)]
pub struct TopK<const K: usize> {
    ss: SpaceSaving,
}

impl<const K: usize> TopK<K> {
    /// The underlying summary (top-k lists, per-item error bounds).
    pub fn summary(&self) -> &SpaceSaving {
        &self.ss
    }
}

impl<const K: usize> PartialAgg for TopK<K> {
    const NAME: &'static str = "topk";
    const EXACT: bool = false;

    fn identity() -> Self {
        Self { ss: SpaceSaving::new(K) }
    }

    fn insert(&mut self, key_id: u64, value: i64) {
        self.ss.offer(key_id, value.max(1) as u64);
    }

    fn merge(&mut self, other: &Self) {
        self.ss = self.ss.merge(&other.ss);
    }

    /// Total mass summarized (conserved under merge).
    fn emit(&self) -> i64 {
        self.ss.total() as i64
    }

    fn entries(&self) -> usize {
        self.ss.len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ss.total());
        // counters() is sorted (count desc, key asc): a canonical order.
        for c in self.ss.counters() {
            put_u64(buf, c.key);
            put_u64(buf, c.count);
            put_u64(buf, c.error);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let total = r.u64()?;
        let mut counters = Vec::new();
        while !r.done() {
            let (key, count, error) = (r.u64()?, r.u64()?, r.u64()?);
            counters.push(Counter { key, count, error });
        }
        // Larger counts would overflow on merge or offer.
        if total > MAX_COUNT || counters.iter().any(|c| c.count > MAX_COUNT) {
            return None;
        }
        Some(Self { ss: SpaceSaving::from_parts(K, total, &counters)? })
    }
}

/// Distinct-key estimator backed by a [`BhHistogram`] with `B` bins over
/// key fingerprints mapped to `[0, 1)`.
///
/// Below capacity the estimate is **exact**: equal keys hash to the same
/// point and coalesce into one bin (also across workers under `merge`, so
/// PKG's two partials of a key do not double count). Once more than `B`
/// distinct keys arrive, neighboring bins merge and the estimate saturates
/// into a lower bound — hence "distinct-ish": a bounded-memory floor on the
/// key cardinality, not an unbiased estimator.
#[derive(Debug, Clone)]
pub struct Distinct<const B: usize> {
    hist: BhHistogram,
}

impl<const B: usize> Distinct<B> {
    /// The underlying histogram (for density inspection).
    pub fn histogram(&self) -> &BhHistogram {
        &self.hist
    }

    /// Map a key fingerprint to `[0, 1)` with full f64 precision. The id is
    /// re-mixed first so even raw small-integer ids spread uniformly
    /// (distinct ids must land on distinct points).
    fn normalize(key_id: u64) -> f64 {
        (pkg_hash::murmur3::fmix64(key_id) >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<const B: usize> PartialAgg for Distinct<B> {
    const NAME: &'static str = "distinct";
    const EXACT: bool = false;

    fn identity() -> Self {
        Self { hist: BhHistogram::new(B) }
    }

    fn insert(&mut self, key_id: u64, _value: i64) {
        self.hist.update(Self::normalize(key_id));
    }

    fn merge(&mut self, other: &Self) {
        self.hist.merge(&other.hist);
    }

    /// The distinct-key estimate: exact below `B`, saturating above.
    fn emit(&self) -> i64 {
        self.hist.bins().len() as i64
    }

    fn entries(&self) -> usize {
        self.hist.bins().len()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        for b in self.hist.bins() {
            put_f64(buf, b.p);
            put_f64(buf, b.m);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let mut bins = Vec::new();
        while !r.done() {
            let (p, m) = (r.f64()?, r.f64()?);
            // Centroids are means of points in [0, 1) (rounding may reach
            // 1); masses count points. Anything else could overflow a
            // compaction into a NaN centroid.
            if !(0.0..=1.0).contains(&p) || m.fract() != 0.0 {
                return None;
            }
            bins.push(Bin { p, m });
        }
        if bins.iter().map(|b| b.m).sum::<f64>() > MAX_COUNT as f64 {
            return None;
        }
        Some(Self { hist: BhHistogram::from_parts(B, &bins)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::canonical_merge;

    fn roundtrip<A: PartialAgg>(a: &A) -> A {
        A::decode(&a.encoded()).expect("roundtrip decodes")
    }

    #[test]
    fn count_sum_max_mean_fold_and_merge() {
        let mut c = Count::identity();
        let mut s = Sum::identity();
        let mut m = Max::identity();
        let mut avg = Mean::identity();
        for v in [3i64, -1, 7, 7, 0] {
            c.insert(0, v);
            s.insert(0, v);
            m.insert(0, v);
            avg.insert(0, v);
        }
        assert_eq!(c.emit(), 5);
        assert_eq!(s.emit(), 16);
        assert_eq!(m.emit(), 7);
        assert_eq!(avg.emit(), 3); // 16/5 = 3.2 → 3
        let mut c2 = Count::identity();
        c2.merge(&c);
        c2.merge(&roundtrip(&c));
        assert_eq!(c2.emit(), 10);
    }

    #[test]
    fn max_identity_and_codec() {
        let empty = Max::identity();
        assert_eq!(empty.emit(), 0);
        assert_eq!(roundtrip(&empty).max(), None);
        let mut m = Max::identity();
        m.insert(0, -5);
        assert_eq!(m.emit(), -5);
        assert_eq!(roundtrip(&m).max(), Some(-5));
        let mut merged = Max::identity();
        merged.merge(&m);
        assert_eq!(merged.max(), Some(-5), "identity merge preserves negatives");
    }

    #[test]
    fn mean_codec_preserves_moments() {
        let mut a = Mean::identity();
        for v in 0..100 {
            a.insert(0, v);
        }
        let b = roundtrip(&a);
        assert_eq!(a.stats().mean(), b.stats().mean());
        assert_eq!(a.stats().variance(), b.stats().variance());
        assert_eq!(a.stats().count(), b.stats().count());
    }

    #[test]
    fn topk_tracks_heavy_items_through_codec() {
        let mut t = TopK::<8>::identity();
        for i in 0..1_000u64 {
            t.insert(i % 3, 1); // three heavy items
            if i % 10 == 0 {
                t.insert(100 + i, 1); // drizzle of singletons
            }
        }
        let rt = roundtrip(&t);
        assert_eq!(rt.emit(), t.emit());
        let top: Vec<u64> = rt.summary().top_k(3).into_iter().map(|c| c.key).collect();
        let mut sorted = top.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "top-3 = {top:?}");
    }

    #[test]
    fn topk_canonical_merge_is_order_insensitive() {
        let mut parts: Vec<TopK<6>> = (0..4).map(|_| TopK::identity()).collect();
        for i in 0..2_000u64 {
            parts[(i % 4) as usize].insert(i % 17, 1);
        }
        let forward = canonical_merge(&parts);
        parts.reverse();
        let backward = canonical_merge(&parts);
        assert_eq!(forward.summary().counters(), backward.summary().counters());
        assert_eq!(forward.emit(), 2_000);
    }

    #[test]
    fn distinct_is_exact_below_capacity_and_dedupes_across_merge() {
        let mut a = Distinct::<64>::identity();
        let mut b = Distinct::<64>::identity();
        for k in 0..40u64 {
            a.insert(k, 1);
            a.insert(k, 1); // duplicates must not inflate
            b.insert(k + 20, 1); // overlap 20..40 must not double count
        }
        assert_eq!(a.emit(), 40);
        assert_eq!(b.emit(), 40);
        a.merge(&b);
        assert_eq!(a.emit(), 60, "overlap dedupes in the merged sketch");
        assert_eq!(roundtrip(&a).emit(), 60);
    }

    #[test]
    fn distinct_saturates_at_capacity() {
        let mut d = Distinct::<16>::identity();
        for k in 0..10_000u64 {
            d.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), 1);
        }
        assert_eq!(d.emit(), 16, "saturated sketch reports its floor");
        assert!(d.entries() <= 16);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Count::decode(&[1, 2, 3]).is_none());
        assert!(Max::decode(&[9]).is_none());
        assert!(TopK::<4>::decode(&[0; 12]).is_none());
        // A TopK payload with more counters than capacity must not decode.
        let mut big = TopK::<16>::identity();
        for k in 0..16u64 {
            big.insert(k, 1);
        }
        assert!(TopK::<4>::decode(&big.encoded()).is_none());
    }
}
