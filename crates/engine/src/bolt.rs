//! Stream operators.

use std::time::Duration;

use crate::grouping::{Router, Target};
use crate::ingress::HedgeState;
use crate::tuple::{Packet, Tuple};
use pkg_core::SharedLoads;
use pkg_hash::FxHashMap;

/// A stream operator (Storm's bolt).
///
/// Implementations receive tuples one at a time and may emit downstream via
/// the [`Emitter`]. `tick` fires on the component's configured tick interval
/// (the aggregation period `T` of the paper's Q4 experiment); `finish` fires
/// once after the last upstream tuple.
pub trait Bolt: Send {
    /// Process one input tuple.
    fn execute(&mut self, tuple: Tuple, out: &mut Emitter<'_>);

    /// Periodic callback (aggregation flushes). Default: nothing.
    fn tick(&mut self, out: &mut Emitter<'_>) {
        let _ = out;
    }

    /// End-of-stream callback (final flush). Default: nothing.
    fn finish(&mut self, out: &mut Emitter<'_>) {
        let _ = out;
    }

    /// Number of state entries held (counters, histogram bins, …); the
    /// memory-overhead metric of Fig. 5(b). Default 0 for stateless bolts.
    fn state_size(&self) -> usize {
        0
    }
}

/// Routes emitted tuples to the downstream edges of the running instance.
///
/// Borrowed mutably into [`Bolt::execute`]; the `born_ns` of emitted tuples
/// is inherited from the input tuple currently being processed (so latency
/// is end-to-end), or stamped fresh for tick/finish emissions.
pub struct Emitter<'a> {
    pub(crate) edges: &'a mut [OutEdge],
    pub(crate) sink: Sink<'a>,
    /// Birth timestamp to inherit (0 = stamp with `now_ns`).
    pub(crate) inherit_born_ns: u64,
    pub(crate) now_ns: u64,
    pub(crate) emitted: &'a mut u64,
    /// Service-time multiplier from the instance's capacity weight
    /// (`1/capacity`): a half-speed instance stalls twice as long per
    /// charged tuple. 1.0 on homogeneous topologies.
    pub(crate) stall_scale: f64,
    /// Capacity-scaled service time charged through [`Emitter::stall`] so
    /// far in this emitter's scope. The instance driver realizes it on its
    /// virtual service clock after `execute` returns and accumulates it
    /// into [`crate::metrics::InstanceStats::stalled_ns`]. Deterministic in
    /// the requested durations (not wall-clock), so it is comparable
    /// across executors.
    pub(crate) stalled_ns: u64,
}

/// One outgoing edge of a running instance.
pub(crate) struct OutEdge {
    pub(crate) router: Router,
    pub(crate) tx: EdgeTx,
    /// Hedged-dispatch state; `Some` only on spout out-edges when the
    /// ingress layer enables hedging.
    pub(crate) hedge: Option<HedgeState>,
    /// Destination component's shared load signals, when
    /// [`crate::load::LoadSignalOptions`] attached any. The router inside
    /// this edge then carries [`pkg_core::Estimate::Global`] handles onto
    /// the same vector, so every sender minimizes the same pluggable
    /// signal; counts and in-flight dispatches are recorded here at emit
    /// time (global estimates make `Estimate::record` a no-op).
    pub(crate) signals: Option<SharedLoads>,
}

/// Count + in-flight bookkeeping for one routed delivery to `w` on a
/// signal-bearing edge, mirroring the simulator's `record` ordering: after
/// the route decision, before the next one (`route_batch_with`'s hook).
#[inline]
pub(crate) fn note_dispatch(loads: &SharedLoads, w: usize) {
    loads.record(w);
    if let Some(s) = loads.signals() {
        s.dispatch(w);
    }
}

/// Where an edge's packets physically go: the destinations' task ids, plus
/// which mailbox kind they use (routing is schedule- and
/// transport-independent, which is what makes every mode byte-identical).
pub(crate) enum EdgeTx {
    /// Delivery goes through each destination's mutexed mailbox.
    Tasks(Vec<usize>),
    /// Destinations fed by exactly one upstream sender; delivery goes
    /// through each destination's bounded SPSC ring, bypassing the mailbox
    /// mutex entirely. Selected at `run_pool` build time — see
    /// [`crate::ring`].
    TaskRings(Vec<usize>),
}

impl EdgeTx {
    /// Task ids of the downstream instances, by instance index.
    pub(crate) fn dests(&self) -> &[usize] {
        match self {
            EdgeTx::Tasks(dests) | EdgeTx::TaskRings(dests) => dests,
        }
    }
}

/// Delivery discipline of an [`Emitter`].
pub(crate) enum Sink<'a> {
    /// Non-blocking try-push into downstream mailboxes; on a full mailbox
    /// the packet spills into the task's outbox and the task parks at the
    /// end of its activation (under either schedule, the producer's thread
    /// then waits until the consumer drains).
    Pool {
        shared: &'a crate::pool::Shared,
        outbox: &'a mut std::collections::VecDeque<(usize, Packet)>,
    },
    /// No outgoing edges ([`Emitter::drop_sink`]): nothing is delivered.
    Detached,
}

impl Sink<'_> {
    /// Deliver one routed packet to `tx`'s destination `dest`.
    fn deliver(&mut self, tx: &EdgeTx, dest: usize, packet: Packet) {
        let Sink::Pool { shared, outbox } = self else {
            unreachable!("a detached emitter has no edges to deliver on");
        };
        let task = tx.dests()[dest];
        // Once anything spilled, everything spills: per-destination FIFO
        // must survive the detour through the outbox.
        if outbox.is_empty() {
            match shared.try_push(task, packet) {
                Ok(()) => {}
                Err(packet) => outbox.push_back((task, packet)),
            }
        } else {
            outbox.push_back((task, packet));
        }
    }

    /// Queue depth of `tx`'s destination `w`: its mailbox length, a
    /// lock-free read.
    fn depth(&self, tx: &EdgeTx, w: usize) -> usize {
        match self {
            Sink::Pool { shared, .. } => shared.depth(tx.dests()[w]),
            Sink::Detached => 0,
        }
    }
}

impl Emitter<'_> {
    /// Emit a tuple on every outgoing edge.
    ///
    /// The common single-edge case moves `tuple` straight through to
    /// delivery with zero clones; only a genuine fan-out (several out-edges,
    /// or a broadcast grouping) pays for copies — and then exactly
    /// `fan-out − 1` of them, the last destination taking ownership.
    pub fn emit(&mut self, mut tuple: Tuple) {
        tuple.born_ns = if self.inherit_born_ns != 0 { self.inherit_born_ns } else { self.now_ns };
        *self.emitted += 1;
        let key_id = tuple.key_id();
        let Some((last, rest)) = self.edges.split_last_mut() else {
            return;
        };
        for edge in rest {
            Self::emit_on(edge, &mut self.sink, self.now_ns, key_id, tuple.clone());
        }
        Self::emit_on(last, &mut self.sink, self.now_ns, key_id, tuple);
    }

    /// Route and deliver one owned tuple on one edge.
    fn emit_on(edge: &mut OutEdge, sink: &mut Sink<'_>, now_ns: u64, key_id: u64, tuple: Tuple) {
        let OutEdge { router, tx, hedge, signals } = edge;
        // No-op on edges without attached signals.
        let note = |signals: &Option<SharedLoads>, w: usize| {
            if let Some(loads) = signals {
                note_dispatch(loads, w);
            }
        };
        // Elastic edges: if this tuple crosses a membership threshold,
        // announce the new epoch in-band to every downstream instance
        // *before* routing it under the new live set. Markers are control
        // traffic — they bypass the router and do not count as emissions.
        while let Some(epoch) = router.advance_epoch() {
            let marker = crate::elastic::epoch_marker(epoch, now_ns);
            for w in 0..tx.dests().len() {
                sink.deliver(tx, w, Packet::Tuple(marker.clone()));
            }
        }
        // Hedging applies to head keys only, and their candidate set must
        // be read *before* `route` (which observes the key and can flip the
        // head prediction for the next message). Payload-carrying tuples
        // are never hedged — the hedge tag rides in the payload.
        let hedge_cands = match hedge {
            Some(_) if tuple.payload.is_empty() => router.head_candidates(key_id),
            _ => None,
        };
        match router.route(key_id) {
            Target::One(w) => {
                if let (Some(state), Some(cands)) = (hedge.as_mut(), hedge_cands) {
                    if sink.depth(tx, w) > state.budget {
                        if let Some(&alt) = cands.iter().find(|&&c| c != w) {
                            // The chosen instance is over its latency
                            // budget: issue the tuple to both it and the
                            // next candidate, tagged so the aggregation
                            // stage drops whichever copy arrives second.
                            let mut tagged = tuple;
                            tagged.payload = pkg_ingress::hedge::encode_tag(state.next_id());
                            note(signals, alt);
                            sink.deliver(tx, alt, Packet::Tuple(tagged.clone()));
                            note(signals, w);
                            sink.deliver(tx, w, Packet::Tuple(tagged));
                            return;
                        }
                    }
                }
                note(signals, w);
                sink.deliver(tx, w, Packet::Tuple(tuple));
            }
            Target::All => {
                let n = tx.dests().len();
                for w in 1..n {
                    note(signals, w);
                    sink.deliver(tx, w, Packet::Tuple(tuple.clone()));
                }
                if n > 0 {
                    note(signals, 0);
                    sink.deliver(tx, 0, Packet::Tuple(tuple));
                }
            }
        }
    }

    /// Number of tuples emitted by this instance so far.
    pub fn emitted(&self) -> u64 {
        *self.emitted
    }

    /// Emulate `d` of per-tuple service time (the paper's Q4 CPU-delay
    /// knob). The requested duration is scaled by the instance's capacity
    /// weight ([`crate::runtime::RuntimeOptions::capacities`]): a
    /// half-speed instance is charged `2d` per call, so heterogeneous
    /// hardware is emulated end to end.
    ///
    /// The call only *charges* the time; nothing sleeps here. After
    /// `execute` returns, the instance driver advances the instance's
    /// **virtual service clock**: the tuple's service starts when the
    /// previous tuple's ended — or at the wall clock, if the instance was
    /// idle — and ends the charge later. The instance takes no further
    /// input while that end is still in the future: the task parks until
    /// that deadline — on the central timer wheel under the pool (never
    /// holding a worker), on its own thread's parker under
    /// thread-per-instance. A timer that fires late is caught up on the
    /// following tuples instead of accumulating, so the long-run service
    /// rate is exact; going idle resets the clock, so idleness is never
    /// banked.
    ///
    /// Multiple calls within one `execute` accumulate. The knob models
    /// bolt-side processing cost: a charge from a spout or from a
    /// tick/finish callback is counted in `stalled_ns` but not realized.
    pub fn stall(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let ns = if self.stall_scale == 1.0 { ns } else { (ns as f64 * self.stall_scale) as u64 };
        self.stalled_ns = self.stalled_ns.saturating_add(ns);
    }

    /// Service time charged through [`Emitter::stall`] in this emitter's
    /// scope so far, in nanoseconds (capacity-scaled).
    pub fn stalled_ns(&self) -> u64 {
        self.stalled_ns
    }

    /// An emitter with no outgoing edges: emissions are counted, then
    /// dropped. For unit-testing bolts outside a running topology.
    pub fn drop_sink(emitted: &mut u64) -> Emitter<'_> {
        Emitter {
            edges: &mut [],
            sink: Sink::Detached,
            inherit_born_ns: 0,
            now_ns: 1,
            emitted,
            stall_scale: 1.0,
            stalled_ns: 0,
        }
    }
}

/// A simple counting bolt: accumulates `Σ value` per key. Used by tests and
/// the quickstart; the word-count application in `pkg-apps` builds richer
/// variants (flushing partials, top-k tracking).
#[derive(Debug, Default)]
pub struct CountingBolt {
    counts: FxHashMap<crate::tuple::TupleKey, i64>,
}

impl CountingBolt {
    /// Current count for a key.
    pub fn count(&self, key: &[u8]) -> i64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

impl Bolt for CountingBolt {
    fn execute(&mut self, tuple: Tuple, _out: &mut Emitter<'_>) {
        *self.counts.entry(tuple.key).or_insert(0) += tuple.value;
    }

    fn state_size(&self) -> usize {
        self.counts.len()
    }
}
