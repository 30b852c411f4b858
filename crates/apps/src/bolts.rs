//! The generic two-phase aggregation bolts for `pkg-engine`.
//!
//! Phase one is a [`WindowedWorkerBolt`]: it folds its share of the stream
//! into per-key [`PartialAgg`] accumulators inside a tick-driven
//! [`TumblingWindow`], and on every pane close emits one tuple per key — the
//! aggregation messages whose rate the paper's Fig. 5 trades against memory
//! via the period `T`. [`emit_partials`] picks each partial's wire form: a
//! partial that is a single observation ([`PartialAgg::as_observation`]:
//! every `Sum`, a set `Max`, a `Count` of one) travels as that value with an
//! empty payload; any other carries its *encoded state* as the payload.
//!
//! Tick delivery is executor-neutral: the bolts count *logical* ticks, so
//! they work identically whether the engine realizes deadlines with
//! per-thread `recv_timeout` (thread-per-instance) or the pool executor's
//! central timer wheel. Both executors fire catch-up bursts after a stall
//! (several `tick` calls back to back); the window's logical clock makes
//! such bursts harmless — each overdue pane closes once, in order.
//!
//! Phase two is an [`AggregatorBolt`]: partials for the same key meet there
//! (route the edge with `Grouping::Key`, or `Grouping::Global` for
//! stream-global accumulators). An empty-payload tuple is folded with
//! `PartialAgg::insert`, an encoded partial with `PartialAgg::merge`. Exact
//! accumulators merge eagerly; sketches are buffered and folded with
//! [`canonical_merge`] at emission so the result is independent of thread
//! arrival order. The aggregator's [`Bolt::state_size`] reports its window
//! buffer — phase-two state is part of the Fig. 5(b) memory bill.
//!
//! A [`Collector`] closes the loop for tests, examples and drivers: a
//! terminal bolt that snapshots whatever reaches it behind an
//! `Arc<Mutex<…>>` handle the caller keeps.

use std::collections::hash_map::Entry;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pkg_agg::{canonical_merge, Pane, PartialAgg, TumblingWindow};
use pkg_engine::bolt::{Bolt, Emitter};
use pkg_engine::tuple::{Tuple, TupleKey};
use pkg_hash::{FxHashMap, FxHashSet};

/// Key under which [`AggScope::Global`] workers accumulate and emit: the
/// empty byte string (allocation-free, routes consistently under `Key`
/// grouping).
const GLOBAL_KEY: &[u8] = b"";

/// What a [`WindowedWorkerBolt`] keys its accumulators by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggScope {
    /// One accumulator per distinct tuple key (word counts, per-key means).
    PerKey,
    /// One accumulator for the instance's whole sub-stream, fed the key
    /// fingerprints (SpaceSaving summaries, distinct sketches). Partials
    /// are emitted under [`GLOBAL_KEY`].
    Global,
}

/// Emulation of per-tuple CPU cost (the paper's 0.1–1 ms delay knob, Q4).
///
/// Every tuple charges its delay through [`Emitter::stall`]; the engine
/// realizes the charges on the instance's virtual service clock (service
/// starts when the previous tuple's ended, late timers are caught up, an
/// idle instance banks nothing), so the service *rate* is exact on both
/// executors and every completion fed to the load signals carries its own
/// service time. The thread-per-instance executor sleeps the instance's
/// dedicated OS thread (the paper's one-core-per-PEI model); the pool
/// executor parks the task on the central timer wheel — emulated service
/// time never occupies a pool worker, so hundred-instance delay topologies
/// progress concurrently on a handful of threads.
#[derive(Debug)]
pub struct ServiceDelay {
    delay: Duration,
}

impl ServiceDelay {
    /// A per-tuple delay of `delay` (zero = free).
    pub fn new(delay: Duration) -> Self {
        Self { delay }
    }

    /// Charge one tuple's worth of service time against `out`'s executor.
    pub fn charge(&self, out: &mut Emitter<'_>) {
        if !self.delay.is_zero() {
            out.stall(self.delay);
        }
    }
}

/// Phase one: windowed per-key partial aggregation.
pub struct WindowedWorkerBolt<A: PartialAgg> {
    window: TumblingWindow<TupleKey, A>,
    scope: AggScope,
    /// [`GLOBAL_KEY`], fingerprinted once: `AggScope::Global` clones it per
    /// tuple instead of hashing it again.
    global_key: TupleKey,
    /// Logical clock: engine ticks fired so far.
    ticks: u64,
    delay: ServiceDelay,
}

impl<A: PartialAgg> WindowedWorkerBolt<A> {
    /// A per-key worker flushing one pane per engine tick (configure the
    /// period with `tick_every` on the topology handle).
    pub fn per_key() -> Self {
        Self::with_scope(AggScope::PerKey)
    }

    /// A stream-global worker (one accumulator per instance).
    pub fn global() -> Self {
        Self::with_scope(AggScope::Global)
    }

    fn with_scope(scope: AggScope) -> Self {
        Self {
            window: TumblingWindow::new(1),
            scope,
            global_key: TupleKey::from_slice(GLOBAL_KEY),
            ticks: 0,
            delay: ServiceDelay::new(Duration::ZERO),
        }
    }

    /// Builder: widen panes to close every `n ≥ 1` ticks instead of every
    /// tick.
    pub fn panes_every_ticks(mut self, n: u64) -> Self {
        self.window = TumblingWindow::new(n.max(1));
        self
    }

    /// Builder: emulate per-tuple CPU cost (the Q4 delay knob).
    pub fn service_delay(mut self, delay: Duration) -> Self {
        self.delay = ServiceDelay::new(delay);
        self
    }
}

impl<A: PartialAgg> Bolt for WindowedWorkerBolt<A> {
    fn execute(&mut self, tuple: Tuple, out: &mut Emitter<'_>) {
        if pkg_ingress::hedge::is_tagged(&tuple.payload) {
            // Hedged head-key copy (`pkg_ingress::hedge`): relay it to the
            // aggregation stage untouched — and without charging service
            // time, which is the point of hedging past a stalled sibling.
            // The aggregator counts exactly one of the two copies.
            out.emit(tuple);
            return;
        }
        self.delay.charge(out);
        let key_id = tuple.key_id();
        let (key, value) = match self.scope {
            AggScope::PerKey => (tuple.key, tuple.value),
            AggScope::Global => (self.global_key.clone(), tuple.value),
        };
        // The logical clock only moves on ticks, so inserts never close a
        // pane mid-stream; `tick` drains instead.
        let closed = self.window.insert(key, key_id, value, self.ticks);
        debug_assert!(closed.is_none(), "pane closes only on ticks");
    }

    fn tick(&mut self, out: &mut Emitter<'_>) {
        self.ticks += 1;
        if let Some(pane) = self.window.advance_to(self.ticks) {
            emit_partials(pane, out);
        }
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        if let Some(pane) = self.window.flush() {
            emit_partials(pane, out);
        }
    }

    fn state_size(&self) -> usize {
        self.window.entries()
    }
}

/// Emit a closed phase-one pane downstream, one tuple per key: the wire
/// form of a partial. A partial that is a single observation
/// ([`PartialAgg::as_observation`]) ships as `Tuple::new(key, v)` with an
/// empty payload, which the [`AggregatorBolt`] folds with `insert` — no
/// codec and no payload allocation per partial. Any other ships with value
/// [`PartialAgg::emit`] and its encoded state as the payload. Every phase-one
/// bolt flushes through here (`pkg-lint`'s `partial_seam` rule).
pub fn emit_partials<A: PartialAgg>(pane: Pane<TupleKey, A>, out: &mut Emitter<'_>) {
    let mut buf = Vec::new();
    for (key, acc) in pane.accs {
        match acc.as_observation() {
            Some(value) => out.emit(Tuple::new(key, value)),
            None => {
                buf.clear();
                acc.encode(&mut buf);
                out.emit(Tuple::with_payload(key, acc.emit(), buf.as_slice()));
            }
        }
    }
}

/// Phase two: merges partial aggregates per key.
pub struct AggregatorBolt<A: PartialAgg> {
    /// Eagerly merged state per key: raw observations and exact partials.
    merged: FxHashMap<TupleKey, A>,
    /// Inexact partials per key, awaiting a canonical fold at emission.
    buffered: FxHashMap<TupleKey, Vec<A>>,
    /// Payloads that failed to decode (wiring bugs; surfaced via
    /// `debug_assert` in debug builds, counted and skipped in release).
    decode_failures: u64,
    /// Hedge ids already observed; the second copy of a hedged tuple is
    /// dropped and counted in `pkg_ingress::hedge::audit`.
    hedge_seen: FxHashSet<u64>,
}

impl<A: PartialAgg> Default for AggregatorBolt<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: PartialAgg> AggregatorBolt<A> {
    /// An aggregator that holds merged state until end of stream, then
    /// emits one tuple per key — value [`PartialAgg::emit`], payload the
    /// encoded merged accumulator — in sorted key order.
    ///
    /// Memory note: exact accumulators merge eagerly into one map entry
    /// per key — the key and the accumulator, nothing else — regardless of
    /// stream length. Inexact (sketch) partials are *buffered* in a second
    /// map until emission to keep the canonical fold deterministic — with
    /// periodic upstream flushes that buffer grows by one partial per
    /// worker per pane until end of stream.
    ///
    /// A payload that fails to decode is a wiring bug: it trips a
    /// `debug_assert` in debug builds and is counted and skipped in release.
    pub fn new() -> Self {
        Self {
            merged: FxHashMap::default(),
            buffered: FxHashMap::default(),
            decode_failures: 0,
            hedge_seen: FxHashSet::default(),
        }
    }

    /// Fold raw observations into `key`'s merged state.
    fn observe(&mut self, key: TupleKey, key_id: u64, value: i64) {
        self.merged.entry(key).or_insert_with(A::identity).insert(key_id, value);
    }

    fn emit_all(&mut self, out: &mut Emitter<'_>) {
        let mut finals: Vec<(TupleKey, A)> =
            Vec::with_capacity(self.merged.len() + self.buffered.len());
        for (key, mut parts) in self.buffered.drain() {
            parts.extend(self.merged.remove(&key));
            // Order-insensitive by construction. A lone partial skips the
            // codec roundtrip.
            let acc = match parts.len() {
                1 => parts.pop().expect("len checked"),
                _ => canonical_merge(&parts),
            };
            finals.push((key, acc));
        }
        finals.extend(self.merged.drain());
        finals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (key, acc) in finals {
            let payload = acc.encoded();
            out.emit(Tuple::with_payload(key, acc.emit(), payload));
        }
    }
}

impl<A: PartialAgg> Bolt for AggregatorBolt<A> {
    fn execute(&mut self, tuple: Tuple, _out: &mut Emitter<'_>) {
        let key_id = tuple.key_id();
        if let Some(id) = pkg_ingress::hedge::decode_tag(&tuple.payload) {
            if self.hedge_seen.insert(id) {
                // First copy to arrive wins: count it as one raw
                // observation of its key.
                self.observe(tuple.key, key_id, tuple.value);
            } else {
                pkg_ingress::hedge::audit::record_duplicate();
            }
            return;
        }
        if tuple.payload.is_empty() {
            // A raw observation: a single-observation partial
            // (`emit_partials`) or a single-phase input, e.g. running
            // counters flushed as plain values.
            self.observe(tuple.key, key_id, tuple.value);
            return;
        }
        match A::decode(&tuple.payload) {
            Some(part) if A::EXACT => match self.merged.entry(tuple.key) {
                Entry::Occupied(mut merged) => merged.get_mut().merge(&part),
                Entry::Vacant(slot) => {
                    slot.insert(part);
                }
            },
            Some(part) => self.buffered.entry(tuple.key).or_default().push(part),
            None => {
                debug_assert!(false, "undecodable {} payload", A::NAME);
                self.decode_failures += 1;
            }
        }
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        self.emit_all(out);
    }

    /// Window-buffer entries (merged state plus buffered partials) — the
    /// phase-two contribution to the Fig. 5(b) memory metric.
    fn state_size(&self) -> usize {
        self.merged.values().map(A::entries).sum::<usize>()
            + self.buffered.values().flatten().map(A::entries).sum::<usize>()
    }
}

/// Shared handle to everything its [bolts](Collector::bolt) received.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    sink: Arc<Mutex<Vec<Tuple>>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bolt instance feeding this handle (pass to `Topology::add_bolt`).
    pub fn bolt(&self) -> Box<dyn Bolt> {
        Box::new(CollectorBolt { sink: Arc::clone(&self.sink) })
    }

    /// Snapshot of the collected tuples, sorted by key (then value) for
    /// deterministic comparison.
    pub fn tuples(&self) -> Vec<Tuple> {
        let mut v = self.sink.lock().expect("collector lock").clone();
        v.sort_by(|a, b| a.key.cmp(&b.key).then(a.value.cmp(&b.value)));
        v
    }

    /// Collected `(key, value)` pairs summed per key — final totals for
    /// count-like pipelines.
    pub fn totals(&self) -> Vec<(Box<[u8]>, i64)> {
        let mut map: FxHashMap<TupleKey, i64> = FxHashMap::default();
        for t in self.sink.lock().expect("collector lock").iter() {
            *map.entry(t.key.clone()).or_insert(0) += t.value;
        }
        let mut v: Vec<(Box<[u8]>, i64)> =
            map.into_iter().map(|(k, v)| (k.into_boxed(), v)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Decode the payload of every collected tuple as an `A` partial.
    pub fn decoded<A: PartialAgg>(&self) -> Vec<(Box<[u8]>, A)> {
        self.tuples()
            .into_iter()
            .filter(|t| !t.payload.is_empty())
            .filter_map(|t| A::decode(&t.payload).map(|a| (t.key.into_boxed(), a)))
            .collect()
    }
}

/// Terminal bolt pushing every input into its [`Collector`].
struct CollectorBolt {
    sink: Arc<Mutex<Vec<Tuple>>>,
}

impl Bolt for CollectorBolt {
    fn execute(&mut self, tuple: Tuple, _out: &mut Emitter<'_>) {
        self.sink.lock().expect("collector lock").push(tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_agg::{Count, Sum, TopK};
    use pkg_engine::grouping::Grouping;
    use pkg_engine::runtime::Runtime;
    use pkg_engine::spout::spout_from_iter;
    use pkg_engine::topology::Topology;

    fn word_stream(n: u64, vocab: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(format!("w{}", i % vocab).into_bytes(), 1)).collect()
    }

    #[test]
    fn two_phase_sum_conserves_counts() {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let src = topo.add_spout("src", 2, |_| spout_from_iter(word_stream(3_000, 11)));
        let worker = topo
            .add_bolt("worker", 4, |_| Box::new(WindowedWorkerBolt::<Sum>::per_key()))
            .input(src, Grouping::partial_key())
            .tick_every(Duration::from_millis(5))
            .id();
        let agg = topo
            .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<Sum>::new()))
            .input(worker, Grouping::Key)
            .id();
        let c = collector.clone();
        let _sink = topo.add_bolt("sink", 1, move |_| c.bolt()).input(agg, Grouping::Global);
        let stats = Runtime::new().run(topo);
        assert_eq!(stats.processed("worker"), 6_000);
        let totals = collector.totals();
        assert_eq!(totals.len(), 11);
        assert_eq!(totals.iter().map(|(_, v)| v).sum::<i64>(), 6_000);
        // 2 sources × 3000 tuples over 11 words, i % 11 uniform-ish.
        for (key, total) in &totals {
            assert!(*total >= 500, "word {:?} total {}", key, total);
        }
    }

    #[test]
    fn global_scope_merges_sketches_deterministically() {
        let run = || {
            let collector = Collector::new();
            let mut topo = Topology::new();
            let src = topo.add_spout("src", 1, |_| spout_from_iter(word_stream(2_000, 40)));
            let worker = topo
                .add_bolt("worker", 3, |_| Box::new(WindowedWorkerBolt::<TopK<16>>::global()))
                .input(src, Grouping::partial_key())
                .id();
            let agg = topo
                .add_bolt("agg", 1, |_| Box::new(AggregatorBolt::<TopK<16>>::new()))
                .input(worker, Grouping::Global)
                .id();
            let c = collector.clone();
            let _ = topo.add_bolt("sink", 1, move |_| c.bolt()).input(agg, Grouping::Global);
            Runtime::new().run(topo);
            let decoded = collector.decoded::<TopK<16>>();
            assert_eq!(decoded.len(), 1, "one global summary");
            assert_eq!(decoded[0].0.as_ref(), GLOBAL_KEY);
            decoded.into_iter().next().expect("one summary").1
        };
        let (a, b) = (run(), run());
        assert_eq!(a.emit(), 2_000, "summary mass is conserved");
        // Canonical folding makes the merged sketch run-to-run identical.
        assert_eq!(a.summary().counters(), b.summary().counters());
    }

    #[test]
    fn service_delay_charges_every_tuple_its_own_delay() {
        let delay = ServiceDelay::new(Duration::from_micros(20));
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        delay.charge(&mut out);
        assert_eq!(out.stalled_ns(), 20_000, "one charge, one delay: no debt is batched");
        delay.charge(&mut out);
        assert_eq!(out.stalled_ns(), 40_000);
        ServiceDelay::new(Duration::ZERO).charge(&mut out);
        assert_eq!(out.stalled_ns(), 40_000, "a zero delay is free");
    }

    #[test]
    fn aggregator_accepts_raw_tuples_and_mixed_partials() {
        let mut agg = AggregatorBolt::<Sum>::new();
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        agg.execute(Tuple::new(b"k".to_vec(), 5), &mut out);
        agg.execute(Tuple::new(b"k".to_vec(), 7), &mut out);
        let mut partial = Sum::identity();
        partial.insert(0, 30);
        agg.execute(
            Tuple::with_payload(b"k".to_vec(), partial.emit(), partial.encoded()),
            &mut out,
        );
        assert_eq!(agg.state_size(), 1, "raw inserts and exact partials merge eagerly");
        assert!(agg.buffered.is_empty(), "exact partials are never buffered");
        let merged = agg.merged.remove(&TupleKey::from_slice(b"k")).expect("key merged");
        assert_eq!(merged.emit(), 42);
        assert_eq!(agg.decode_failures, 0);
    }

    /// Everything a single phase-one `worker` instance emits for `stream`,
    /// flushed once at end of stream.
    fn phase_one_output<A: PartialAgg>(
        worker: fn() -> WindowedWorkerBolt<A>,
        stream: Vec<Tuple>,
    ) -> Vec<Tuple> {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let src = topo.add_spout("src", 1, move |_| spout_from_iter(stream.clone()));
        let worker = topo
            .add_bolt("worker", 1, move |_| Box::new(worker()))
            .input(src, Grouping::Shuffle)
            .id();
        let c = collector.clone();
        let _ = topo.add_bolt("sink", 1, move |_| c.bolt()).input(worker, Grouping::Global);
        Runtime::new().run(topo);
        collector.tuples()
    }

    #[test]
    fn sum_partials_ship_as_plain_values() {
        let collector = Collector::new();
        let mut topo = Topology::new();
        let src = topo.add_spout("src", 2, |_| spout_from_iter(word_stream(3_000, 11)));
        let worker = topo
            .add_bolt("worker", 4, |_| Box::new(WindowedWorkerBolt::<Sum>::per_key()))
            .input(src, Grouping::partial_key())
            .tick_every(Duration::from_millis(1))
            .id();
        let c = collector.clone();
        let _ = topo.add_bolt("sink", 1, move |_| c.bolt()).input(worker, Grouping::Global);
        Runtime::new().run(topo);
        let partials = collector.tuples();
        assert!(!partials.is_empty());
        assert!(partials.iter().all(|t| t.payload.is_empty()), "no Sum partial carries a payload");
        assert_eq!(
            partials.iter().map(|t| t.value).sum::<i64>(),
            6_000,
            "values sum to the stream"
        );
    }

    #[test]
    fn counts_above_one_and_sketches_keep_their_payloads() {
        // "solo" occurs once; every other word 30 times.
        let mut stream = word_stream(300, 10);
        stream.push(Tuple::new(b"solo".to_vec(), 1));
        let counts = phase_one_output(WindowedWorkerBolt::<Count>::per_key, stream.clone());
        assert_eq!(counts.len(), 11);
        for t in &counts {
            if t.key.as_bytes() == b"solo" {
                assert!(t.payload.is_empty(), "a count of one ships as its value");
                assert_eq!(t.value, 1);
            } else {
                let part = Count::decode(&t.payload).expect("a count above one ships its state");
                assert_eq!((part.count(), t.value), (30, 30));
            }
        }
        let sketches = phase_one_output(WindowedWorkerBolt::<TopK<4>>::global, stream);
        assert_eq!(sketches.len(), 1, "one global summary");
        let part = TopK::<4>::decode(&sketches[0].payload).expect("a sketch ships its state");
        assert_eq!((part.emit(), sketches[0].value), (301, 301));
    }
}
