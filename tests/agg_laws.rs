//! Property tests for the `pkg-agg` algebra: every shipped `PartialAgg`
//! merge must be order-insensitive — `merge(a, b) ≡ merge(b, a)`, and a
//! stream split across partials must aggregate like the whole stream.
//! Exact accumulators (count/sum/max/mean) satisfy the laws bit-for-bit
//! (float-tolerance for mean); sketch accumulators (top-k, distinct) are
//! exactly commutative, deterministic under `canonical_merge`, and bounded
//! against ground truth on split streams. Every decoder either rejects an
//! arbitrary payload or yields a state the later operations handle. A
//! state that claims to be a single observation (`as_observation`) is
//! exactly that observation inserted into the identity.

use proptest::prelude::*;

use partial_key_grouping::agg::{
    canonical_merge, Count, Distinct, Max, Mean, PartialAgg, Sum, TopK, TumblingWindow,
};

/// Fold a sub-stream (selected by `side`) into one accumulator.
fn fold<A: PartialAgg>(stream: &[(u64, i64, usize)], side: Option<usize>) -> A {
    let mut acc = A::identity();
    for &(key, value, s) in stream {
        if side.is_none() || side == Some(s) {
            acc.insert(key, value);
        }
    }
    acc
}

/// `(whole, a⊕b, b⊕a)` for a two-way split of `stream`.
fn split_merge<A: PartialAgg>(stream: &[(u64, i64, usize)]) -> (A, A, A) {
    let whole = fold::<A>(stream, None);
    let a = fold::<A>(stream, Some(0));
    let b = fold::<A>(stream, Some(1));
    let mut ab = fold::<A>(stream, Some(0));
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    (whole, ab, ba)
}

/// `decode` either rejects `bytes` or yields a state that `insert`, `merge`
/// (with a copy of itself and with the identity, both ways) and `emit` all
/// handle, and whose re-encoding decodes back to the same bytes.
fn decode_or_reject<A: PartialAgg + Clone>(bytes: &[u8]) {
    let Some(a) = A::decode(bytes) else { return };
    let enc = a.encoded();
    let back = A::decode(&enc).unwrap_or_else(|| panic!("{} re-encoding decodes", A::NAME));
    assert_eq!(back.encoded(), enc, "{} re-encoding is stable", A::NAME);
    let mut inserted = a.clone();
    for key in 0..16 {
        inserted.insert(key, 1);
    }
    let mut doubled = a.clone();
    doubled.merge(&a);
    doubled.merge(&A::identity());
    let mut from_identity = A::identity();
    from_identity.merge(&a);
    for x in [&a, &inserted, &doubled, &from_identity] {
        x.emit();
        x.entries();
    }
}

/// Every shipped accumulator against one payload.
fn decode_all_or_reject(bytes: &[u8]) {
    decode_or_reject::<Count>(bytes);
    decode_or_reject::<Sum>(bytes);
    decode_or_reject::<Max>(bytes);
    decode_or_reject::<Mean>(bytes);
    decode_or_reject::<TopK<2>>(bytes);
    decode_or_reject::<TopK<16>>(bytes);
    decode_or_reject::<Distinct<2>>(bytes);
    decode_or_reject::<Distinct<32>>(bytes);
}

/// The observation law for one state: `as_observation() == Some(v)` implies
/// that `identity()` after `insert(k, v)` encodes equal to `state`.
fn observation_law<A: PartialAgg>(state: &A, k: u64) {
    if let Some(v) = state.as_observation() {
        let mut one = A::identity();
        one.insert(k, v);
        assert_eq!(one.encoded(), state.encoded(), "{} claims to be the observation {v}", A::NAME);
    }
}

/// The observation law for every shipped accumulator, over the state
/// `stream` folds into and over whatever `bytes` decodes to.
fn observation_law_all(stream: &[(u64, i64, usize)], bytes: &[u8], k: u64) {
    fn check<A: PartialAgg>(stream: &[(u64, i64, usize)], bytes: &[u8], k: u64) {
        observation_law(&fold::<A>(stream, None), k);
        if let Some(decoded) = A::decode(bytes) {
            observation_law(&decoded, k);
        }
    }
    check::<Count>(stream, bytes, k);
    check::<Sum>(stream, bytes, k);
    check::<Max>(stream, bytes, k);
    check::<Mean>(stream, bytes, k);
    check::<TopK<2>>(stream, bytes, k);
    check::<TopK<16>>(stream, bytes, k);
    check::<Distinct<2>>(stream, bytes, k);
    check::<Distinct<32>>(stream, bytes, k);
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn payloads_that_used_to_panic_are_rejected() {
    // A `Mean` of u64::MAX observations: its merge overflowed the count.
    let mean = words_to_bytes(&[u64::MAX, 0, 0, 0, 0]);
    assert!(Mean::decode(&mean).is_none());
    decode_all_or_reject(&mean);
    // A `Distinct` bin of infinite mass: compaction made a NaN centroid.
    let bins = [0.1, f64::INFINITY, 0.2, 1.0].map(f64::to_bits);
    let distinct = words_to_bytes(&bins);
    assert!(Distinct::<2>::decode(&distinct).is_none());
    decode_all_or_reject(&distinct);
    // The identity still round-trips, ±∞ min/max included.
    let empty = words_to_bytes(&[0, 0, 0, f64::INFINITY.to_bits(), f64::NEG_INFINITY.to_bits()]);
    assert_eq!(Mean::decode(&empty).expect("empty mean decodes").encoded(), empty);
    for acc in [Mean::identity().encoded(), Distinct::<2>::identity().encoded()] {
        decode_all_or_reject(&acc);
    }
}

#[test]
fn single_observations_are_recognised_where_exact() {
    let one = |v: i64| -> [Option<i64>; 6] {
        fn single<A: PartialAgg>(v: i64) -> Option<i64> {
            let mut a = A::identity();
            a.insert(9, v);
            a.as_observation()
        }
        [
            single::<Count>(v),
            single::<Sum>(v),
            single::<Max>(v),
            single::<Mean>(v),
            single::<TopK<4>>(v),
            single::<Distinct<4>>(v),
        ]
    };
    assert_eq!(one(7), [Some(1), Some(7), Some(7), None, None, None]);
    assert_eq!(one(-3), [Some(1), Some(-3), Some(-3), None, None, None]);
    // Empty states and counts above one are no single observation.
    assert_eq!(Count::identity().as_observation(), None);
    assert_eq!(Max::identity().as_observation(), None);
    let mut two = Count::identity();
    two.insert(1, 1);
    two.insert(2, 1);
    assert_eq!(two.as_observation(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn observation_form_is_the_state_it_replaces(
        stream in prop::collection::vec((0u64..50, -100i64..100, 0usize..1), 0..4),
        words in prop::collection::vec((0u64..3, any::<u64>(), 0u8..2), 0..4),
        tag in 0u8..3,
        k in any::<u64>(),
    ) {
        // Short streams reach the one-observation states (a `Count` of 1)
        // and their neighbours (0, 2, 3). Decoded payloads reach states no
        // short stream builds — small words half the time, so a decoded
        // `Count` is often 0, 1 or 2 — and a leading tag byte `Max`'s.
        let words: Vec<u64> =
            words.iter().map(|&(small, big, pick)| if pick == 0 { small } else { big }).collect();
        let bytes = words_to_bytes(&words);
        observation_law_all(&stream, &bytes, k);
        observation_law_all(&stream, &[&[tag][..], &bytes[..]].concat(), k);
    }

    #[test]
    fn arbitrary_payloads_decode_or_reject_without_panicking(
        words in prop::collection::vec(any::<u64>(), 0..12),
        tag in 0u8..3,
    ) {
        // Word-aligned payloads reach the structured codecs; a leading tag
        // byte reaches `Max`'s.
        let bytes = words_to_bytes(&words);
        decode_all_or_reject(&bytes);
        decode_all_or_reject(&[&[tag][..], &bytes[..]].concat());
    }

    #[test]
    fn exact_accumulators_split_equals_whole(
        stream in prop::collection::vec((0u64..50, -100i64..100, 0usize..2), 1..400),
    ) {
        let (whole, ab, ba) = split_merge::<Count>(&stream);
        prop_assert_eq!(whole.emit(), ab.emit());
        prop_assert_eq!(ab.encoded(), ba.encoded());

        let (whole, ab, ba) = split_merge::<Sum>(&stream);
        prop_assert_eq!(whole.emit(), ab.emit());
        prop_assert_eq!(ab.encoded(), ba.encoded());

        let (whole, ab, ba) = split_merge::<Max>(&stream);
        prop_assert_eq!(whole.emit(), ab.emit());
        prop_assert_eq!(ab.encoded(), ba.encoded());

        let (whole, ab, ba) = split_merge::<Mean>(&stream);
        prop_assert_eq!(whole.stats().count(), ab.stats().count());
        prop_assert!((whole.stats().mean() - ab.stats().mean()).abs() < 1e-9);
        prop_assert!((whole.stats().variance() - ab.stats().variance()).abs() < 1e-6);
        prop_assert!((ab.stats().mean() - ba.stats().mean()).abs() < 1e-9);
    }

    #[test]
    fn exact_accumulators_are_associative(
        stream in prop::collection::vec((0u64..50, -100i64..100, 0usize..3), 1..300),
    ) {
        fn three_way<A: PartialAgg>(stream: &[(u64, i64, usize)]) -> (A, A) {
            let (a, b, c) =
                (fold::<A>(stream, Some(0)), fold::<A>(stream, Some(1)), fold::<A>(stream, Some(2)));
            let mut left = fold::<A>(stream, Some(0));
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            (left, right)
        }
        let (l, r) = three_way::<Count>(&stream);
        prop_assert_eq!(l.encoded(), r.encoded());
        let (l, r) = three_way::<Sum>(&stream);
        prop_assert_eq!(l.encoded(), r.encoded());
        let (l, r) = three_way::<Max>(&stream);
        prop_assert_eq!(l.encoded(), r.encoded());
        let (l, r) = three_way::<Mean>(&stream);
        prop_assert!((l.stats().mean() - r.stats().mean()).abs() < 1e-9);
        prop_assert!((l.stats().variance() - r.stats().variance()).abs() < 1e-6);
    }

    #[test]
    fn codec_roundtrips_canonically(
        stream in prop::collection::vec((0u64..200, 1i64..50, 0usize..1), 0..300),
    ) {
        fn check<A: PartialAgg>(stream: &[(u64, i64, usize)]) {
            let acc = fold::<A>(stream, None);
            let bytes = acc.encoded();
            let rt = A::decode(&bytes).expect("own encoding decodes");
            assert_eq!(rt.encoded(), bytes, "{} codec is canonical", A::NAME);
            assert_eq!(rt.emit(), acc.emit());
            assert_eq!(rt.entries(), acc.entries());
        }
        check::<Count>(&stream);
        check::<Sum>(&stream);
        check::<Max>(&stream);
        check::<Mean>(&stream);
        check::<TopK<16>>(&stream);
        check::<Distinct<32>>(&stream);
    }

    #[test]
    fn topk_merge_is_commutative_and_brackets_truth(
        stream in prop::collection::vec((0u64..60, 1i64..4, 0usize..2), 1..500),
    ) {
        let (_, ab, ba) = split_merge::<TopK<12>>(&stream);
        // Commutativity: identical counters, byte for byte.
        prop_assert_eq!(ab.encoded(), ba.encoded());
        // Split-stream vs whole-stream: mass conserved, bounds bracket the
        // exact per-key weights.
        let mut truth = std::collections::HashMap::new();
        let mut mass = 0u64;
        for &(key, value, _) in &stream {
            *truth.entry(key).or_insert(0u64) += value as u64;
            mass += value as u64;
        }
        prop_assert_eq!(ab.emit() as u64, mass);
        for c in ab.summary().counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= f, "estimate must overestimate key {}", c.key);
            prop_assert!(c.count.saturating_sub(c.error) <= f, "lower bound for key {}", c.key);
        }
    }

    #[test]
    fn sketch_canonical_merge_is_order_insensitive(
        stream in prop::collection::vec((0u64..80, 1i64..3, 0usize..4), 1..400),
        rotate in 0usize..4,
    ) {
        let mut topk: Vec<TopK<10>> =
            (0..4).map(|s| fold(&stream, Some(s))).collect();
        let mut distinct: Vec<Distinct<24>> =
            (0..4).map(|s| fold(&stream, Some(s))).collect();
        let folded_topk = canonical_merge(&topk);
        let folded_distinct = canonical_merge(&distinct);
        topk.rotate_left(rotate);
        topk.reverse();
        distinct.rotate_left(rotate);
        distinct.reverse();
        prop_assert_eq!(canonical_merge(&topk).encoded(), folded_topk.encoded());
        prop_assert_eq!(canonical_merge(&distinct).encoded(), folded_distinct.encoded());
    }

    #[test]
    fn distinct_split_equals_whole_below_capacity(
        keys in prop::collection::vec(0u64..40, 1..200),
    ) {
        // ≤ 40 distinct keys, capacity 64: the sketch is exact, so the
        // split/whole law holds exactly despite Distinct being a sketch.
        let stream: Vec<(u64, i64, usize)> =
            keys.iter().enumerate().map(|(i, &k)| (k, 1, i % 2)).collect();
        let (whole, ab, ba) = split_merge::<Distinct<64>>(&stream);
        let mut truth: Vec<u64> = keys.clone();
        truth.sort_unstable();
        truth.dedup();
        prop_assert_eq!(whole.emit() as usize, truth.len());
        prop_assert_eq!(ab.emit(), whole.emit());
        prop_assert_eq!(ab.encoded(), ba.encoded());
    }

    #[test]
    fn tumbling_panes_partition_any_stream(
        events in prop::collection::vec((0u64..20, 1i64..10), 1..300),
        width in 1u64..50,
    ) {
        let mut w: TumblingWindow<u64, Sum> = TumblingWindow::new(width);
        let mut whole = 0i64;
        let mut flushed = Vec::new();
        for (ts, &(key, value)) in events.iter().enumerate() {
            whole += value;
            if let Some(p) = w.insert(key, key, value, ts as u64) {
                flushed.push(p);
            }
        }
        flushed.extend(w.flush());
        let from_panes: i64 =
            flushed.iter().flat_map(|p| p.accs.values()).map(PartialAgg::emit).sum();
        prop_assert_eq!(from_panes, whole, "panes partition the stream");
        let observed: u64 = flushed.iter().map(|p| p.inserted).sum();
        prop_assert_eq!(observed, events.len() as u64);
    }
}
