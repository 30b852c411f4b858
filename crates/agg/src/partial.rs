//! The [`PartialAgg`] trait: the algebra of the second aggregation phase.
//!
//! PKG splits every key over (at most) two workers, so any per-key state is
//! *partial* by construction and a second phase must combine the pieces
//! (§V-D of the paper measures exactly this overhead). An accumulator that
//! implements `PartialAgg` is a commutative monoid —
//! [`identity`](PartialAgg::identity), [`insert`](PartialAgg::insert) to fold
//! one observation, and an associative, commutative [`merge`](PartialAgg::merge)
//! — plus [`encode`](PartialAgg::encode) / [`decode`](PartialAgg::decode) so
//! partial states can travel across an engine edge as tuple payloads. A
//! state that is one observation ([`as_observation`](PartialAgg::as_observation))
//! needs no payload: it travels as that observation's value, and the
//! receiver folds it with `insert`.
//!
//! Exact accumulators (count, sum, max, mean) satisfy the monoid laws
//! bit-for-bit; sketch-backed ones (SpaceSaving top-k, BH-histogram
//! distinct) are commutative but only approximately associative, because
//! truncation between merges loses information. [`PartialAgg::EXACT`]
//! records which regime an accumulator lives in, and [`canonical_merge`]
//! restores determinism for the inexact ones by folding partials in a
//! canonical (byte-sorted) order — the aggregator bolts use it so a run's
//! result does not depend on thread arrival order.

/// A mergeable partial aggregate.
///
/// Laws (checked by `tests/agg_laws.rs`):
/// * identity: `merge(identity(), a) ≡ a`
/// * commutativity: `merge(a, b) ≡ merge(b, a)`
/// * associativity: exact accumulators satisfy
///   `merge(merge(a, b), c) ≡ merge(a, merge(b, c))`; sketches satisfy it up
///   to their approximation bounds (and exactly under [`canonical_merge`]).
/// * split/whole: for exact accumulators, inserting a stream split across
///   several partials and merging equals inserting the whole stream into
///   one.
/// * codec: `decode(encode(a)) ≡ a`.
/// * observation: `a.as_observation() == Some(v)` implies that
///   `identity()` after `insert(k, v)` encodes equal to `a`, for every `k`.
pub trait PartialAgg: Send + Sized + 'static {
    /// Short label for reports and bench ids (`"count"`, `"topk"`, …).
    const NAME: &'static str;

    /// Whether `merge` is exactly associative (up to float rounding for
    /// [`Mean`](crate::Mean)). The aggregator merges exact
    /// accumulators eagerly; inexact ones are buffered and folded with
    /// [`canonical_merge`] at emission time.
    const EXACT: bool;

    /// The monoid identity (an empty accumulator).
    fn identity() -> Self;

    /// Fold one observation: the routing-key fingerprint and the tuple
    /// value. Value-oriented accumulators (sum, mean, max) use `value`;
    /// item-oriented sketches (top-k, distinct) use `key_id`.
    fn insert(&mut self, key_id: u64, value: i64);

    /// Combine another partial into this one. Must be commutative.
    fn merge(&mut self, other: &Self);

    /// Scalar summary of the aggregate (count, sum, rounded mean, total
    /// mass, distinct estimate). Richer results stay accessible on the
    /// concrete type (e.g. [`TopK::summary`](crate::TopK)).
    fn emit(&self) -> i64;

    /// State entries held (counters, sketch bins); feeds
    /// the engine's `Bolt::state_size` and the Fig. 5(b) memory metric.
    fn entries(&self) -> usize {
        1
    }

    /// Serialize into `buf` (little-endian framing; see [`codec`]).
    ///
    /// The encoding must be canonical: equal aggregates encode to equal
    /// bytes, which is what makes [`canonical_merge`] order-insensitive.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Deserialize an accumulator encoded by [`encode`](Self::encode);
    /// `None` on malformed input, including any state that a later
    /// `insert`, `merge` or `emit` could not handle without panicking.
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// The single observation this state is, if it is one: `Some(v)` only
    /// when `identity()` after `insert(k, v)` reproduces `self` for every
    /// key fingerprint `k`. A phase-one flush ships such a partial as a
    /// plain tuple of value `v` with no payload, and the aggregator folds it
    /// with `insert` — no codec, no allocation. `None` (the default) ships
    /// the encoded state.
    fn as_observation(&self) -> Option<i64> {
        None
    }

    /// Convenience: encode into a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Fold partials in a canonical order: sort by encoded bytes, then merge
/// left-to-right from the identity. For any [`PartialAgg`] this makes the
/// result a function of the *multiset* of partials, independent of arrival
/// order — which is what the aggregator bolts need for deterministic output
/// from the inherently racy engine.
pub fn canonical_merge<A: PartialAgg>(parts: &[A]) -> A {
    let mut encoded: Vec<Vec<u8>> = parts.iter().map(|p| p.encoded()).collect();
    encoded.sort_unstable();
    let mut acc = A::identity();
    for bytes in &encoded {
        let part = A::decode(bytes).expect("canonical_merge re-decodes its own encoding");
        acc.merge(&part);
    }
    acc
}

/// Little-endian framing helpers shared by the accumulator codecs.
pub mod codec {
    /// Largest count or mass a decoder accepts: 2⁵³, the last integer an
    /// `f64` holds exactly. Far beyond any reachable stream, and small
    /// enough that merging two decoded partials cannot overflow.
    pub(crate) const MAX_COUNT: u64 = 1 << 53;

    /// Append a `u64`.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`.
    pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (IEEE-754 bits; canonical for non-NaN values).
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Cursor over an encoded buffer.
    #[derive(Debug, Clone, Copy)]
    pub struct Reader<'a> {
        bytes: &'a [u8],
    }

    impl<'a> Reader<'a> {
        /// Read from the start of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Self { bytes }
        }

        /// Next `u64`, or `None` when the buffer is exhausted.
        pub fn u64(&mut self) -> Option<u64> {
            let (head, rest) = self.bytes.split_first_chunk::<8>()?;
            self.bytes = rest;
            Some(u64::from_le_bytes(*head))
        }

        /// Next `i64`.
        pub fn i64(&mut self) -> Option<i64> {
            self.u64().map(|v| v as i64)
        }

        /// Next `f64`.
        pub fn f64(&mut self) -> Option<f64> {
            self.u64().map(f64::from_bits)
        }

        /// `true` when every byte has been consumed (strict codecs reject
        /// trailing garbage).
        pub fn done(&self) -> bool {
            self.bytes.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::{put_f64, put_i64, put_u64, Reader};

    #[test]
    fn codec_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        put_i64(&mut buf, -7);
        put_f64(&mut buf, 2.5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.i64(), Some(-7));
        assert_eq!(r.f64(), Some(2.5));
        assert!(r.done());
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn reader_rejects_short_buffers() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), None);
    }
}
