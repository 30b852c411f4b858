//! The unit of data flowing through a topology.
//!
//! Keys use a small-string-optimized representation ([`TupleKey`]): keys of
//! up to 22 bytes (`INLINE_KEY_CAP`) live inline in the tuple (no heap
//! allocation anywhere on the hot path — wordcount vocabularies, feature
//! ids and URLs' hot prefixes all fit), longer keys spill to a boxed slice.
//! The [`audit`] module counts the spills and tuple clones so drivers can
//! assert the flagship path stays allocation-free per message.
//!
//! A key is hashed once. Every constructor computes the key's 64-bit
//! fingerprint ([`TupleKey::key_id`], murmur3 under the workspace's fixed
//! key seed — the value routing has always used) and stores it beside the
//! bytes. Routing, the counters' pane maps and the aggregator's slot map
//! all read that field instead of re-hashing the bytes: `Hash` writes only
//! the fingerprint, and `Eq` compares fingerprints first, then bytes, so a
//! fingerprint collision never merges two keys. Because a key's hash is no
//! longer the hash of its bytes, `TupleKey` does not implement
//! `Borrow<[u8]>`; look a byte string up as `TupleKey::from_slice(bytes)`.

use std::hash::{Hash, Hasher};
use std::ops::Deref;

use pkg_hash::StreamKey;

/// Allocation-audit counters for the tuple hot path.
///
/// These count *logical* allocation events owned by this module — heap-key
/// spills ([`TupleKey`] contents too long to inline) and whole-[`Tuple`]
/// clones (the emitter's fan-out cost) — not every allocation in the
/// process. The flagship throughput driver asserts that neither grows with
/// message volume when keys fit inline and topologies are single-out-edge.
pub mod audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    // ordering: Relaxed — pure statistics counters; no other memory is
    // published through them and exact interleaving does not matter.
    static HEAP_KEYS: AtomicU64 = AtomicU64::new(0);
    static TUPLE_CLONES: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(crate) fn note_heap_key() {
        // ordering: Relaxed — statistics only (see module doc).
        HEAP_KEYS.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn note_tuple_clone() {
        // ordering: Relaxed — statistics only (see module doc).
        TUPLE_CLONES.fetch_add(1, Ordering::Relaxed);
    }

    /// Heap-key allocations (inline-capacity overflows, [`super::TupleKey`]
    /// clones of heap keys, and `into_boxed` copies) since process start.
    pub fn heap_keys() -> u64 {
        // ordering: Relaxed — statistics only (see module doc).
        HEAP_KEYS.load(Ordering::Relaxed)
    }

    /// Whole-[`super::Tuple`] clones since process start.
    pub fn tuple_clones() -> u64 {
        // ordering: Relaxed — statistics only (see module doc).
        TUPLE_CLONES.load(Ordering::Relaxed)
    }
}

/// Longest key that lives inline in a [`TupleKey`] (bytes). Chosen so the
/// byte representation is 24 bytes — one byte of discriminant, one of
/// length, 22 of payload — only 8 bytes over `Box<[u8]>`'s two words; the
/// fingerprint makes the whole key 32 bytes.
const INLINE_KEY_CAP: usize = 22;

/// A tuple's routing key: small-size-optimized bytes plus their fingerprint.
///
/// Reads like an immutable `[u8]` (`Deref`, `AsRef`) and orders
/// byte-wise. It carries its fingerprint, computed once at construction
/// and read by [`TupleKey::key_id`], so hashing a key is one word:
///
/// - `Hash` writes only the fingerprint;
/// - `Eq` compares fingerprints, then bytes — equal keys hash equal, and
///   keys whose fingerprints collide stay distinct in every table;
/// - `Ord` is byte order, which agrees with `Eq` because equal bytes have
///   equal fingerprints.
///
/// There is no `Borrow<[u8]>`: its contract (a key hashes like its bytes)
/// does not hold. Look byte strings up with [`TupleKey::from_slice`].
pub struct TupleKey {
    /// `murmur3_64(bytes, KEY_ID_SEED)`, i.e. `bytes.key_id()`.
    id: u64,
    repr: Repr,
}

// A key is half a cache line and a tuple a whole one.
const _: () = assert!(std::mem::size_of::<TupleKey>() == 32);
const _: () = assert!(std::mem::size_of::<Tuple>() == 64);

enum Repr {
    /// Up to [`INLINE_KEY_CAP`] bytes stored in the tuple itself.
    Inline { len: u8, buf: [u8; INLINE_KEY_CAP] },
    /// Longer keys spill to the heap (counted by [`audit::heap_keys`]).
    Heap(Box<[u8]>),
}

impl TupleKey {
    /// The empty key (allocation-free; routes consistently — used by
    /// stream-global accumulators).
    pub fn empty() -> Self {
        Self::from_slice(&[])
    }

    /// Copy `bytes` into a key, inlining when it fits.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let id = bytes.key_id();
        if bytes.len() <= INLINE_KEY_CAP {
            let mut buf = [0u8; INLINE_KEY_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Self { id, repr: Repr::Inline { len: bytes.len() as u8, buf } }
        } else {
            audit::note_heap_key();
            Self { id, repr: Repr::Heap(bytes.into()) }
        }
    }

    /// Take ownership of a boxed key without copying it.
    fn from_heap(bytes: Box<[u8]>) -> Self {
        Self { id: bytes.key_id(), repr: Repr::Heap(bytes) }
    }

    /// The key's 64-bit fingerprint, used for every routing decision and
    /// every keyed table: `murmur3_64` of the bytes under the fixed key
    /// seed, equal to `self.as_bytes().key_id()` (`pkg_hash::StreamKey`).
    /// Computed once, at construction; reading it is a field load.
    #[inline]
    pub fn key_id(&self) -> u64 {
        self.id
    }

    /// The key bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(b) => b,
        }
    }

    /// Key length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the key is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert into a boxed slice (moves the existing allocation for heap
    /// keys; copies — and counts an allocation — for inline keys).
    pub fn into_boxed(self) -> Box<[u8]> {
        match self.repr {
            Repr::Inline { len, buf } => {
                audit::note_heap_key();
                buf[..usize::from(len)].into()
            }
            Repr::Heap(b) => b,
        }
    }
}

impl Clone for TupleKey {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Inline { len, buf } => {
                Self { id: self.id, repr: Repr::Inline { len: *len, buf: *buf } }
            }
            Repr::Heap(b) => {
                audit::note_heap_key();
                Self { id: self.id, repr: Repr::Heap(b.clone()) }
            }
        }
    }
}

impl Default for TupleKey {
    fn default() -> Self {
        Self::empty()
    }
}

impl Deref for TupleKey {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for TupleKey {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Hash for TupleKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The fingerprint stands for the bytes: one word, whatever the length.
        state.write_u64(self.id);
    }
}

impl PartialEq for TupleKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Fingerprints reject almost every unequal pair in one compare; the
        // bytes decide the rest, so colliding fingerprints never merge keys.
        self.id == other.id && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for TupleKey {}

impl PartialOrd for TupleKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::fmt::Debug for TupleKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "TupleKey({s:?})"),
            Err(_) => write!(f, "TupleKey({:?})", self.as_bytes()),
        }
    }
}

impl From<&[u8]> for TupleKey {
    fn from(bytes: &[u8]) -> Self {
        Self::from_slice(bytes)
    }
}

impl From<Vec<u8>> for TupleKey {
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE_KEY_CAP {
            Self::from_slice(&bytes)
        } else {
            // The vec's buffer moves into the box; shrink-to-fit may copy
            // but the key itself introduces no extra allocation.
            Self::from_heap(bytes.into_boxed_slice())
        }
    }
}

impl From<Box<[u8]>> for TupleKey {
    fn from(bytes: Box<[u8]>) -> Self {
        if bytes.len() <= INLINE_KEY_CAP {
            Self::from_slice(&bytes)
        } else {
            Self::from_heap(bytes)
        }
    }
}

impl<const N: usize> From<[u8; N]> for TupleKey {
    fn from(bytes: [u8; N]) -> Self {
        Self::from_slice(&bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for TupleKey {
    fn from(bytes: &[u8; N]) -> Self {
        Self::from_slice(bytes)
    }
}

/// A message `⟨t, k, v⟩`: a byte-string key, an integer value, and a birth
/// timestamp for end-to-end latency measurement.
#[derive(Debug, PartialEq, Eq)]
pub struct Tuple {
    /// Routing key (a word, URL, feature id, …).
    pub key: TupleKey,
    /// Payload value (counts, deltas; applications interpret it).
    pub value: i64,
    /// Opaque application bytes riding along with the tuple — empty (and
    /// allocation-free) for plain tuples. The two-phase aggregation bolts
    /// (`pkg-apps`) ship encoded `pkg-agg` partial aggregates here.
    pub payload: Box<[u8]>,
    /// Nanoseconds since the runtime epoch at which the tuple entered the
    /// topology (stamped by the spout executor; preserved across bolts so
    /// sink latency is end-to-end).
    pub born_ns: u64,
}

impl Clone for Tuple {
    fn clone(&self) -> Self {
        audit::note_tuple_clone();
        Self {
            key: self.key.clone(),
            value: self.value,
            payload: self.payload.clone(),
            born_ns: self.born_ns,
        }
    }
}

impl Tuple {
    /// A tuple with an unset birth timestamp (the spout executor stamps it).
    pub fn new(key: impl Into<TupleKey>, value: i64) -> Self {
        Self { key: key.into(), value, payload: Box::default(), born_ns: 0 }
    }

    /// A tuple carrying opaque payload bytes (e.g. an encoded partial
    /// aggregate).
    pub fn with_payload(
        key: impl Into<TupleKey>,
        value: i64,
        payload: impl Into<Box<[u8]>>,
    ) -> Self {
        Self { key: key.into(), value, payload: payload.into(), born_ns: 0 }
    }

    /// The 64-bit key fingerprint used for routing decisions: the one
    /// [`TupleKey::key_id`] computed when the key was built, not a fresh
    /// hash of the bytes.
    #[inline]
    pub fn key_id(&self) -> u64 {
        self.key.key_id()
    }
}

/// What travels through a mailbox: ticks are generated locally by each
/// task, so only tuples and end-of-stream markers cross tasks.
#[derive(Debug)]
pub enum Packet {
    /// A data tuple.
    Tuple(Tuple),
    /// End of stream from one upstream sender; an instance finishes when it
    /// has received one per upstream instance.
    Eof,
}

/// A reusable batch of packets drained from a mailbox in one lock
/// acquisition.
///
/// The runtime's hot path amortizes synchronization over the batch
/// quantum: instead of locking the mailbox once per packet, a task
/// activation moves up to `B` packets here under a single lock and
/// processes them lock-free. Packets left over when an activation suspends
/// (downstream backpressure) stay in the batch and are consumed first on
/// the next activation, preserving per-sender FIFO order — which is what
/// keeps Eof counting and byte-identical routing intact across schedules.
#[derive(Debug, Default)]
pub(crate) struct PacketBatch {
    items: std::collections::VecDeque<Packet>,
}

impl PacketBatch {
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(crate) fn pop(&mut self) -> Option<Packet> {
        self.items.pop_front()
    }

    /// Move up to `max` packets from `queue` (a mailbox's locked interior)
    /// into this batch; returns how many moved.
    pub(crate) fn refill(
        &mut self,
        queue: &mut std::collections::VecDeque<Packet>,
        max: usize,
    ) -> usize {
        let n = max.min(queue.len());
        self.items.extend(queue.drain(..n));
        n
    }

    /// Append one packet (ring-buffer refill path: packets are popped from
    /// the ring one at a time but batched here all the same).
    pub(crate) fn push(&mut self, packet: Packet) {
        self.items.push_back(packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packet_batch_refill_preserves_fifo_and_caps_at_max() {
        let mut q: std::collections::VecDeque<Packet> =
            (0..5).map(|i| Packet::Tuple(Tuple::new(vec![i as u8], i))).collect();
        let mut b = PacketBatch::default();
        assert_eq!(b.refill(&mut q, 3), 3);
        assert_eq!(q.len(), 2);
        for want in 0..3 {
            match b.pop() {
                Some(Packet::Tuple(t)) => assert_eq!(t.value, want),
                other => panic!("expected tuple, got {other:?}"),
            }
        }
        assert!(b.is_empty());
        assert_eq!(b.refill(&mut q, 10), 2);
    }

    #[test]
    fn key_id_is_stable_and_collision_free_on_small_sets() {
        let a = Tuple::new(b"hello".to_vec(), 1);
        let b = Tuple::new(b"hello".to_vec(), 2);
        let c = Tuple::new(b"world".to_vec(), 1);
        assert_eq!(a.key_id(), b.key_id());
        assert_ne!(a.key_id(), c.key_id());
    }

    /// Whether the key is stored inline (no heap allocation).
    fn is_inline(key: &TupleKey) -> bool {
        matches!(key.repr, Repr::Inline { .. })
    }

    #[test]
    fn small_keys_inline_and_large_keys_spill() {
        let small = TupleKey::from_slice(b"word");
        assert!(is_inline(&small));
        assert_eq!(small.as_bytes(), b"word");
        let exact = TupleKey::from_slice(&[7u8; INLINE_KEY_CAP]);
        assert!(is_inline(&exact));
        assert_eq!(exact.len(), INLINE_KEY_CAP);
        let big = TupleKey::from_slice(&[7u8; INLINE_KEY_CAP + 1]);
        assert!(!is_inline(&big));
        assert_eq!(big.len(), INLINE_KEY_CAP + 1);
    }

    fn fx_hash(k: &TupleKey) -> u64 {
        let mut h = pkg_hash::FxHasher::default();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn key_representation_is_transparent_to_eq_ord_hash() {
        use std::collections::hash_map::DefaultHasher;
        let inline = TupleKey::from_slice(b"same-bytes");
        // A short key never spills on its own; build the heap form directly.
        let heap = TupleKey::from_heap(b"same-bytes".to_vec().into_boxed_slice());
        assert!(!is_inline(&heap));
        assert_eq!(inline, heap);
        assert_eq!(inline.cmp(&heap), std::cmp::Ordering::Equal);
        let hash = |k: &TupleKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&heap));
        assert_eq!(fx_hash(&inline), fx_hash(&heap));
    }

    /// A key whose stored fingerprint is `id` instead of its bytes' hash.
    fn forged(bytes: &[u8], id: u64) -> TupleKey {
        TupleKey { id, ..TupleKey::from_slice(bytes) }
    }

    #[test]
    fn colliding_fingerprints_never_merge_keys() {
        let a = forged(b"alpha", 7);
        let b = forged(b"omega", 7);
        assert_eq!(a.key_id(), b.key_id());
        assert_eq!(fx_hash(&a), fx_hash(&b), "the hash is the fingerprint alone");
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Less, "Ord agrees with Eq: bytes decide");
        assert_eq!(b.cmp(&a), std::cmp::Ordering::Greater);
        let mut m: pkg_hash::FxHashMap<TupleKey, i64> = pkg_hash::FxHashMap::default();
        *m.entry(a.clone()).or_default() += 1;
        *m.entry(b.clone()).or_default() += 10;
        *m.entry(a.clone()).or_default() += 1;
        assert_eq!(m.len(), 2, "both keys survive in one table");
        assert_eq!(m.get(&a), Some(&2));
        assert_eq!(m.get(&b), Some(&10));
    }

    #[test]
    fn every_constructor_stores_the_bytes_fingerprint() {
        for bytes in [&b""[..], b"w", &[3u8; INLINE_KEY_CAP], &[4u8; INLINE_KEY_CAP + 1]] {
            let want = bytes.key_id();
            assert_eq!(TupleKey::from_slice(bytes).key_id(), want);
            assert_eq!(TupleKey::from(bytes.to_vec()).key_id(), want);
            assert_eq!(TupleKey::from(Box::<[u8]>::from(bytes)).key_id(), want);
            assert_eq!(TupleKey::from_slice(bytes).clone().key_id(), want);
            assert_eq!(Tuple::new(bytes, 0).key_id(), want);
        }
        assert_eq!(TupleKey::empty().key_id(), b"".key_id());
        assert_eq!(TupleKey::default(), TupleKey::empty());
        assert_eq!(TupleKey::from(*b"four").key_id(), b"four".key_id());
    }

    proptest! {
        /// Lengths 0..=40 cross `INLINE_KEY_CAP`, so inline and heap keys
        /// are compared with each other as well as among themselves.
        #[test]
        fn fingerprint_contract_holds_inline_and_heap(
            a in prop::collection::vec(0u8..4, 0..41),
            b in prop::collection::vec(0u8..4, 0..41),
        ) {
            let (ka, kb) = (TupleKey::from_slice(&a), TupleKey::from_slice(&b));
            // Routing pins: the stored fingerprint is the bytes' key id.
            prop_assert_eq!(ka.key_id(), a.as_slice().key_id());
            prop_assert_eq!(kb.key_id(), b.as_slice().key_id());
            prop_assert_eq!(a == b, ka == kb);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
            // The same bytes as a heap key, the other representation whenever
            // they fit inline: equal, and hash equal.
            let heap = TupleKey::from_heap(a.clone().into_boxed_slice());
            prop_assert!(heap == ka);
            prop_assert_eq!(fx_hash(&heap), fx_hash(&ka));
        }
    }

    #[test]
    fn inline_clone_is_allocation_free_and_heap_clone_is_counted() {
        // The counter is process-wide and sibling tests bump it
        // concurrently, so only monotone checks read it; an inline clone is
        // checked through its representation.
        let before = audit::heap_keys();
        let small = TupleKey::from_slice(b"abc");
        #[allow(clippy::redundant_clone)]
        let copy = small.clone();
        assert!(matches!(copy.repr, Repr::Inline { .. }), "inline keys clone without allocating");
        assert_eq!(copy.as_bytes(), b"abc");
        let big = TupleKey::from_slice(&[1u8; 64]);
        let after_spill = audit::heap_keys();
        assert!(after_spill > before, "oversized key spills to the heap");
        let _copy = big.clone();
        assert!(audit::heap_keys() > after_spill, "heap-key clones are counted");
    }

    #[test]
    fn into_boxed_round_trips() {
        let k = TupleKey::from_slice(b"roundtrip");
        assert_eq!(k.clone().into_boxed().as_ref(), b"roundtrip");
        let big = TupleKey::from_slice(&[9u8; 40]);
        assert_eq!(big.into_boxed().len(), 40);
    }

    #[test]
    fn tuple_clones_are_counted() {
        let before = audit::tuple_clones();
        let t = Tuple::new(b"k".to_vec(), 1);
        let _c = t.clone();
        assert!(audit::tuple_clones() > before);
    }
}
