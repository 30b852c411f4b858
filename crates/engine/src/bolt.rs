//! Stream operators, and the one way a tuple leaves an instance: the
//! [`Emitter`] stages it, and one flush routes and delivers what is staged,
//! with every opt-in layer (load signals, Elastic cuts, Broadcast and extra
//! edges) composed at that one point.

use std::collections::VecDeque;
use std::time::Duration;

use crate::grouping::{Router, TargetBatch};
use crate::schedule::Shared;
use crate::transport::deliver_outbox;
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
///
/// Emissions are delivered at flush time, not by `emit`: when a batch
/// quantum is staged, at the end of every callback, and after every tuple
/// where a decision reads queue depths or two out-edges share instances.
pub struct Emitter<'a> {
    /// The runtime and the running instance's outgoing side; `None` for
    /// [`Emitter::drop_sink`].
    pub(crate) outlet: Option<(&'a Shared, &'a mut Outlet)>,
    /// The worker running this activation: a data wake its deliveries
    /// raise queues on that worker's own deque, unless another worker ran
    /// the woken task last.
    pub(crate) wid: Option<usize>,
    /// Birth timestamp to inherit (0 = stamp with `now_ns`).
    pub(crate) inherit_born_ns: u64,
    pub(crate) now_ns: u64,
    pub(crate) emitted: &'a mut u64,
    /// Service-time multiplier from the instance's capacity weight
    /// (`1/capacity`): a half-speed instance stalls twice as long per
    /// charged tuple. 1.0 on homogeneous topologies.
    pub(crate) stall_scale: f64,
    /// Capacity-scaled service time charged through [`Emitter::stall`] in
    /// the current callback. The instance driver realizes it on its virtual
    /// service clock after `execute` returns and accumulates it into
    /// [`crate::metrics::InstanceStats::stalled_ns`]. Deterministic in the
    /// requested durations (not wall-clock), so it is comparable across
    /// executors.
    pub(crate) stalled_ns: u64,
}

/// One outgoing edge of a running instance.
pub(crate) struct OutEdge {
    pub(crate) router: Router,
    pub(crate) tx: EdgeTx,
    /// Senders that may pull into a destination at once (its upstream
    /// instances, one per pool worker at most): a pull takes one share.
    pub(crate) share: usize,
    /// Destination component's shared load signals, when
    /// [`crate::load::LoadSignalOptions`] attached any. The router inside
    /// this edge then carries [`pkg_core::Estimate::Global`] handles onto
    /// the same vector, so every sender minimizes the same pluggable
    /// signal; each routed delivery is counted here before the next decision
    /// (`route_batch_with`'s hook), and that count is also its dispatch
    /// (global estimates make `Estimate::record` a no-op).
    pub(crate) signals: Option<SharedLoads>,
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

/// A running instance's outgoing side: its out-edges, the emissions staged
/// for the next flush (scratch retained across flushes), and the deliveries
/// that spilled on a full mailbox, in emission order.
#[derive(Default)]
pub(crate) struct Outlet {
    pub(crate) edges: Vec<OutEdge>,
    pub(crate) outbox: VecDeque<(usize, Packet)>,
    /// Emissions behind the outbox, not yet pulled ([`Emitter::emit_iter`]).
    pub(crate) cursor: Option<Box<dyn Iterator<Item = Tuple> + Send>>,
    /// `close` ran: the Eofs queue behind the cursor's last tuple.
    closing: bool,
    /// Packets a flush put into `outbox` instead of a mailbox, over the
    /// run (`InstanceStats::spilled`).
    pub(crate) spilled: u64,
    /// The staged routing keys and tuples, in emission order; a tuple
    /// leaves its slot on its last delivery.
    keys: Vec<u64>,
    tuples: Vec<Option<Tuple>>,
    targets: TargetBatch,
    /// Flush after every emission instead of per quantum.
    flush_each: bool,
}

impl Outlet {
    /// The outgoing side over `edges`; `reads_depth` when the instance's
    /// ingress admits by downstream queue depth.
    pub(crate) fn new(edges: Vec<OutEdge>, reads_depth: bool) -> Self {
        // Flush per tuple where an admission reads queue depths, which must
        // reflect every earlier delivery, and where two edges feed the same
        // instances, whose deliveries and shared loads must interleave per
        // tuple, not per edge.
        let shared_dests = (1..edges.len())
            .any(|i| edges[..i].iter().any(|e| e.tx.dests() == edges[i].tx.dests()));
        let flush_each = reads_depth || shared_dests;
        Self { edges, flush_each, ..Self::default() }
    }

    /// Route every staged tuple (there is at least one) on every out-edge
    /// and deliver each destination's run with one `push_run` — the only
    /// place a tuple leaves an instance. Decisions stay per tuple, in stream
    /// order; only delivery is grouped.
    fn flush(&mut self, shared: &Shared, wid: Option<usize>) {
        let Self { edges, outbox, spilled, keys, tuples, targets, .. } = self;
        // A flush only ever appends to the outbox.
        let queued = outbox.len();
        let last_edge = edges.len() - 1;
        for (e, OutEdge { router, tx, signals, .. }) in edges.iter_mut().enumerate() {
            let dests = tx.dests();
            let mut start = 0;
            while start < keys.len() {
                // Elastic: enter every epoch that is due, then cut the flush
                // at the next threshold.
                while router.advance_epoch().is_some() {}
                let end = keys.len().min(start.saturating_add(router.until_epoch()));
                let cut = &keys[start..end];
                match signals {
                    Some(loads) => {
                        router.route_batch_with(cut, targets, |w| loads.record(w));
                    }
                    None => router.route_batch(cut, targets),
                }
                // A tuple moves on its last delivery (the last edge's run for
                // it; under a broadcast, whose runs all span the cut, the last
                // run) and is cloned before — two instantiations, so the
                // moving one carries no clone path.
                let runs = targets.runs().count();
                for (r, (w, run)) in targets.runs().enumerate() {
                    let idx = run.iter().map(|&i| start + i as usize);
                    if e == last_edge && (r + 1 == runs || run.len() < cut.len()) {
                        let packets = idx.map(|i| Packet::Tuple(staged(tuples, i, true)));
                        shared.push_run(dests[w], packets, outbox, wid);
                    } else {
                        let packets = idx.map(|i| Packet::Tuple(staged(tuples, i, false)));
                        shared.push_run(dests[w], packets, outbox, wid);
                    }
                }
                start = end;
            }
        }
        *spilled += (outbox.len() - queued) as u64;
        keys.clear();
        tuples.clear();
    }
}

/// Staged tuple `i` for one delivery: moved out on its last, cloned before.
fn staged(tuples: &mut [Option<Tuple>], i: usize, last: bool) -> Tuple {
    let tuple = if last { tuples[i].take() } else { tuples[i].clone() };
    tuple.unwrap_or_else(|| unreachable!("staged tuple {i} delivered after its last use"))
}

impl Emitter<'_> {
    /// Emit a tuple on every outgoing edge, for delivery at the next flush.
    ///
    /// The common single-edge case moves `tuple` through to delivery with
    /// zero clones; only a genuine fan-out (several out-edges, or a
    /// broadcast grouping) pays for copies — and then exactly `fan-out − 1`
    /// of them, the last destination taking ownership.
    #[inline]
    pub fn emit(&mut self, tuple: Tuple) {
        self.emit_keyed(tuple.key_id(), tuple);
    }

    /// [`Emitter::emit`] of a tuple whose routing key is already computed;
    /// `false` when the flush it triggered spilled (downstream full).
    #[inline]
    pub(crate) fn emit_keyed(&mut self, key_id: u64, mut tuple: Tuple) -> bool {
        tuple.born_ns = if self.inherit_born_ns != 0 { self.inherit_born_ns } else { self.now_ns };
        *self.emitted += 1;
        let Some((_, outlet)) = &mut self.outlet else { return true };
        // An emission queues behind a pending cursor: the rest goes first.
        for pending in outlet.cursor.take().into_iter().flatten() {
            self.stage(pending.key_id(), pending);
        }
        self.stage(key_id, tuple)
    }

    /// Emit `tuples` in order, behind everything emitted so far, as a
    /// cursor the engine pulls only into free downstream slots: a closed
    /// pane is never copied into the outbox whole. Counted and born-stamped
    /// now.
    pub fn emit_iter(&mut self, tuples: impl ExactSizeIterator<Item = Tuple> + Send + 'static) {
        let born_ns = if self.inherit_born_ns != 0 { self.inherit_born_ns } else { self.now_ns };
        *self.emitted += tuples.len() as u64;
        if let Some((_, outlet)) = self.outlet.as_mut().filter(|(_, o)| !o.edges.is_empty()) {
            let pending = outlet.cursor.take().into_iter().flatten();
            let stamped = tuples.map(move |tuple| Tuple { born_ns, ..tuple });
            outlet.cursor = Some(Box::new(pending.chain(stamped)));
        }
    }

    /// Stage one emission, flushing per quantum (or per tuple under
    /// `flush_each`); `false` when that flush spilled.
    fn stage(&mut self, key_id: u64, tuple: Tuple) -> bool {
        let Some((shared, outlet)) = &mut self.outlet else { return true };
        if outlet.edges.is_empty() {
            return true;
        }
        outlet.keys.push(key_id);
        outlet.tuples.push(Some(tuple));
        if outlet.flush_each || outlet.keys.len() >= shared.batch {
            outlet.flush(shared, self.wid);
            return outlet.outbox.is_empty();
        }
        true
    }

    /// Flush the staged emissions (the end of a callback). Inlined: most
    /// callbacks stage nothing.
    #[inline]
    pub(crate) fn flush(&mut self) {
        match &mut self.outlet {
            Some((shared, outlet)) if !outlet.keys.is_empty() => {
                outlet.flush(shared, self.wid);
            }
            _ => {}
        }
    }

    /// Flush, retry the spilled deliveries in order, then, while the outbox
    /// stays empty, pull from the cursor this sender's share of the fullest
    /// destination's free slots (one tuple, to spill and register for the
    /// release, when none are free). `false`: task `tid` awaits a release.
    pub(crate) fn deliver(&mut self, tid: usize) -> bool {
        loop {
            self.flush();
            let Some((shared, outlet)) = &mut self.outlet else { return true };
            if !deliver_outbox(shared, tid, &mut outlet.outbox, self.wid) {
                return false;
            }
            let Some(mut cursor) = outlet.cursor.take() else { return true };
            let free = |d: &usize| shared.room(*d).min(shared.batch);
            let share = |e: &OutEdge| e.tx.dests().iter().map(free).min().map(|f| f / e.share);
            let want = outlet.edges.iter().filter_map(share).min().unwrap_or(0).max(1);
            let pulled = cursor.by_ref().take(want).map(|t| self.stage(t.key_id(), t)).count();
            let Some((_, outlet)) = &mut self.outlet else { return true };
            if pulled == want {
                outlet.cursor = Some(cursor);
            } else if outlet.closing {
                self.close();
            }
        }
    }

    /// Deliveries waiting for a retry: the outbox, and one for a cursor.
    pub(crate) fn backlog(&self) -> usize {
        self.outlet.as_ref().map_or(0, |(_, o)| o.outbox.len() + usize::from(o.cursor.is_some()))
    }

    /// Flush, then queue one Eof per downstream instance behind it all —
    /// with a cursor pending, once the pull that drains it comes back here.
    pub(crate) fn close(&mut self) {
        self.flush();
        if let Some((_, outlet)) = &mut self.outlet {
            outlet.closing = true;
            if outlet.cursor.is_none() {
                let dests = outlet.edges.iter().flat_map(|e| e.tx.dests());
                outlet.outbox.extend(dests.map(|&d| (d, Packet::Eof)));
            }
        }
    }

    /// Deepest downstream mailbox across every edge: watermark admission's
    /// signal.
    pub(crate) fn max_depth(&self) -> usize {
        let Some((shared, outlet)) = &self.outlet else { return 0 };
        let dests = outlet.edges.iter().flat_map(|e| e.tx.dests());
        dests.map(|&d| shared.depth(d)).max().unwrap_or(0)
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

    /// Service time charged through [`Emitter::stall`] in the current
    /// callback so far, in nanoseconds (capacity-scaled).
    pub fn stalled_ns(&self) -> u64 {
        self.stalled_ns
    }

    /// An emitter with no outgoing edges: emissions are counted, then
    /// dropped. For unit-testing bolts outside a running topology.
    pub fn drop_sink(emitted: &mut u64) -> Emitter<'_> {
        Emitter {
            outlet: None,
            wid: None,
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
        self.counts.get(&crate::tuple::TupleKey::from_slice(key)).copied().unwrap_or(0)
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
