//! The task: a processing-element instance as a schedulable unit, and the
//! one activation loop ([`activate`]) that drives it under every schedule.
//!
//! * Each bolt task owns a bounded **mailbox** ([`crate::transport`]);
//!   producers push into it and never block inside an activation.
//! * A task activation drains up to a **batch quantum** of packets
//!   (`DEFAULT_BATCH`, 256), amortizing mailbox locking, then yields.
//! * **One emit seam**: everything an activation emits — a spout quantum, a
//!   bolt's `execute` / `tick` / `finish` output, the ingress drain — is
//!   staged on its one [`Emitter`] and delivered at flush time, one run per
//!   destination ([`Shared::push_run`]).
//! * **Backpressure parks instead of blocking**: when a run finds a
//!   downstream mailbox full, the rest spills into the task's outbox, and
//!   the *consumer* wakes the task after draining (a backpressure-release
//!   edge, not a timeout). Every activation first retries that backlog,
//!   one run per destination under one lock ([`deliver_outbox`]). A source,
//!   or a bolt past its final Eof, parks while a backlog stays. Any other
//!   bolt keeps reading its input around it: it parks only after a tuple
//!   whose own output spilled or queued behind it, and then until the
//!   outbox drains; a tick overdue behind a backlog waits for it to clear.
//!   So an outbox holds at most one tick's flush and one tuple's output.
//!
//! Scheduling state per task is a small atomic state machine
//! (idle / queued / running / running-notified / parked / done) that makes
//! wake-ups idempotent and race-free: a wake during `RUNNING` marks
//! `NOTIFIED`, which the worker converts into a requeue when the
//! activation ends, so no packet arrival is ever lost between a task's
//! "mailbox empty" check and its transition to idle. Where a woken or
//! requeued task queues is the schedule's business ([`Schedule`]).
//!
//! Determinism: all routing state (the per-sender [`Router`]s, seeded by
//! the same `edge_seed` derivation) is owned by the task and consulted in
//! the task's own processing order, so a topology routes **byte-identically**
//! under either schedule regardless of how activations interleave — the
//! property `tests/engine_executor_parity.rs` pins down, against both the
//! other schedule and a bare-router replay.
//!
//! [`Router`]: crate::grouping::Router
//! [`Schedule`]: crate::schedule::Schedule

#![warn(clippy::pedantic)]
// Curated pedantic allows, each deliberate:
// - cast_possible_truncation: a deferral's ns u128→u64 overflows after ~584
//   years; every cast site is such a conversion.
#![allow(clippy::cast_possible_truncation)]

use pkg_core::SharedLoads;
use pkg_metrics::LatencyHistogram;

use crate::bolt::{Bolt, Emitter, OutEdge, Outlet};
use crate::ingress::SpoutIngress;
use crate::metrics::{InstanceStats, StateSampler};
use crate::schedule::Shared;
use crate::spout::Spout;
use crate::sync::atomic::{AtomicU8, AtomicUsize, Ordering::SeqCst};
use crate::sync::{lock, Mutex};
use crate::transport::{deliver_outbox, Mailbox};
use crate::tuple::{Packet, PacketBatch};

// Task scheduling states.
pub(crate) const IDLE: u8 = 0;
/// In a run queue, or runnable by its dedicated owner.
pub(crate) const QUEUED: u8 = 1;
/// A worker is executing an activation.
pub(crate) const RUNNING: u8 = 2;
/// Running, and a wake arrived mid-activation: requeue instead of idling.
pub(crate) const NOTIFIED: u8 = 3;
/// Blocked on a full downstream mailbox; woken by its consumer.
pub(crate) const PARKED: u8 = 4;
pub(crate) const DONE: u8 = 5;

pub(crate) enum WakeKind {
    /// Data/tick wake: does not disturb a backpressure-parked task (it
    /// cannot make progress until its downstream drains).
    Notify,
    /// Park-ending wake: a consumer freed mailbox space (backpressure
    /// release) or an `Outcome::Stall` deadline fired.
    Unpark,
}

pub(crate) enum Outcome {
    /// Mailbox empty: wait for a wake — new input, or the release of the
    /// mailbox a pending backlog is registered with.
    Idle,
    /// More input than the batch quantum: reschedule.
    Yield,
    /// Downstream full: sleep until the consumer wakes us.
    Park,
    /// Not before the carried deadline: a bolt whose virtual service clock
    /// (`TaskBody::busy_until`) is ahead of the wall clock, or a spout whose
    /// next tuple is not due yet ([`Spout::not_before`]). Park and arm the
    /// deadline with the schedule — without occupying a worker thread,
    /// which is what lets `engine_scale`-style runs emulate per-tuple CPU
    /// cost on many more instances than workers. The park is unconditional
    /// (a wake that landed mid-activation is absorbed — the whole point is
    /// not to run before the deadline), and the timer is armed only *after*
    /// the task is parked so the wake can never be consumed early and
    /// lost. A backpressure release may still resume the task early; the
    /// next activation re-checks the deadline and parks again.
    Stall(u64),
    /// Eof protocol complete, stats finalized.
    Done,
}

pub(crate) enum TaskKind {
    Spout {
        spout: Box<dyn Spout>,
        exhausted: bool,
        /// Admission control / shedding state ([`crate::ingress::IngressOptions`] set).
        ingress: Option<SpoutIngress>,
    },
    Bolt {
        bolt: Box<dyn Bolt>,
        eof_remaining: usize,
        tick_period_ns: Option<u64>,
        next_tick_ns: u64,
    },
}

pub(crate) struct TaskBody {
    component: String,
    instance: usize,
    pub(crate) kind: TaskKind,
    /// Out-edges, staged emissions and spilled deliveries.
    pub(crate) outlet: Outlet,
    /// An executed tuple's own output waits in the outbox: the task parks
    /// until the outbox drains instead of reading more input.
    held: bool,
    /// Packets drained from the mailbox but not yet processed.
    pub(crate) inbox: PacketBatch,
    pub(crate) processed: u64,
    emitted: u64,
    pub(crate) ticks: u64,
    activations: u64,
    /// Service-time multiplier `1/capacity` of this instance.
    stall_scale: f64,
    stalled_ns: u64,
    /// Virtual service clock: when the service time charged so far ends, in
    /// ns since `Shared::epoch`; 0 = idle (see [`Emitter::stall`]).
    busy_until: u64,
    latency: LatencyHistogram,
    sampler: StateSampler,
    final_state: usize,
    /// High-water mark of this task's own mailbox depth, copied from the
    /// producer-maintained `TaskSlot::depth_high` when the task completes.
    max_depth: u64,
    /// This task's *own* component's shared load signals, when
    /// [`crate::load::LoadSignalOptions`] attached any: bolt tasks feed a
    /// completion (with the tuple's capacity-scaled service time) per
    /// executed tuple. Dispatch-side bookkeeping lives on the out-edges.
    signals: Option<SharedLoads>,
}

impl TaskBody {
    pub(crate) fn new(
        component: String,
        instance: usize,
        kind: TaskKind,
        edges: Vec<OutEdge>,
        stall_scale: f64,
        signals: Option<SharedLoads>,
    ) -> Self {
        let reads_depth =
            matches!(&kind, TaskKind::Spout { ingress: Some(ing), .. } if ing.needs_depth());
        Self {
            component,
            instance,
            kind,
            outlet: Outlet::new(edges, reads_depth),
            held: false,
            inbox: PacketBatch::default(),
            processed: 0,
            emitted: 0,
            ticks: 0,
            activations: 0,
            stall_scale,
            stalled_ns: 0,
            busy_until: 0,
            latency: LatencyHistogram::new(5),
            sampler: StateSampler::default(),
            final_state: 0,
            max_depth: 0,
            signals,
        }
    }

    fn into_stats(self) -> InstanceStats {
        let (shed_dropped, shed_degraded) = match &self.kind {
            TaskKind::Spout { ingress: Some(ing), .. } => (ing.dropped(), ing.degraded()),
            _ => (0, 0),
        };
        let edges = self.outlet.edges.iter();
        let hedges = edges.map(|e| e.hedge.as_ref().map_or(0, |h| h.issued)).sum();
        InstanceStats {
            component: self.component,
            instance: self.instance,
            processed: self.processed,
            emitted: self.emitted,
            latency: self.latency,
            final_state: self.final_state,
            max_state: self.sampler.max,
            avg_state: self.sampler.avg(),
            ticks: self.ticks,
            stalled_ns: self.stalled_ns,
            activations: self.activations,
            shed_dropped,
            shed_degraded,
            hedges,
            max_depth: self.max_depth,
            spilled: self.outlet.spilled,
        }
    }
}

pub(crate) struct TaskSlot {
    pub(crate) state: AtomicU8,
    /// `None` for spouts (no inputs).
    pub(crate) mailbox: Option<Mailbox>,
    /// Taken by the worker for the duration of an activation.
    pub(crate) body: Mutex<Option<Box<TaskBody>>>,
    /// Producer-maintained high-water mark of the mailbox depth, surfaced as
    /// `InstanceStats::max_depth` when the task completes.
    pub(crate) depth_high: AtomicUsize,
}

impl Shared {
    /// Drive the state machine for a wake; returns whether the caller must
    /// queue the task.
    pub(crate) fn wake_state(&self, t: usize, kind: &WakeKind) -> bool {
        let state = &self.tasks[t].state;
        loop {
            // ordering: SeqCst — one total order with mailbox pushes and the
            // worker's empty-check→IDLE transition (SC-only model)
            match state.load(SeqCst) {
                IDLE => {
                    // ordering: SeqCst — IDLE→QUEUED orders after the push (SC-only model)
                    if state.compare_exchange(IDLE, QUEUED, SeqCst, SeqCst).is_ok() {
                        return true;
                    }
                }
                PARKED => match kind {
                    WakeKind::Unpark => {
                        // ordering: SeqCst — PARKED→QUEUED release wake (SC-only model)
                        if state.compare_exchange(PARKED, QUEUED, SeqCst, SeqCst).is_ok() {
                            return true;
                        }
                    }
                    WakeKind::Notify => return false,
                },
                RUNNING => {
                    // ordering: SeqCst — RUNNING→NOTIFIED latches a mid-activation
                    // wake so idling later requeues instead (SC-only model)
                    if state.compare_exchange(RUNNING, NOTIFIED, SeqCst, SeqCst).is_ok() {
                        return false;
                    }
                }
                QUEUED | NOTIFIED | DONE => return false,
                other => unreachable!("invalid task state {other}"),
            }
        }
    }

    /// Wake task `t`; `wid` is the worker whose activation raises the
    /// wake, `None` from outside one. The state machine decides whether the
    /// task must be queued, the schedule where ([`Schedule::wake`]).
    ///
    /// [`Schedule::wake`]: crate::schedule::Schedule::wake
    pub(crate) fn wake(&self, t: usize, kind: &WakeKind, wid: Option<usize>) {
        if self.wake_state(t, kind) {
            self.schedule.wake(t, kind, wid);
        }
    }
}

#[allow(clippy::too_many_lines)] // one cohesive task state machine
pub(crate) fn activate(shared: &Shared, tid: usize, wid: usize, body: &mut TaskBody) -> Outcome {
    body.activations += 1;
    // What earlier activations spilled is retried first. A backlog left
    // over (the retry registered this task for the release wake) parks a
    // source, a bolt past its final Eof and a held bolt; any other bolt
    // reads its input around it.
    let mut backlog = !deliver_outbox(shared, tid, &mut body.outlet.outbox, Some(wid));
    let done = finished(&body.kind);
    if backlog && (body.held || done || matches!(body.kind, TaskKind::Spout { .. })) {
        return Outcome::Park;
    }
    body.held = false;
    if done {
        // The Eof protocol finished on an earlier activation, but the task
        // parked on its trailing deliveries; the outbox just drained.
        return Outcome::Done;
    }
    let TaskBody {
        instance,
        kind,
        outlet,
        held,
        inbox,
        processed,
        emitted,
        ticks,
        stall_scale,
        stalled_ns,
        busy_until,
        latency,
        sampler,
        final_state,
        signals,
        ..
    } = body;
    // Every tuple this activation sends leaves through this one emitter.
    let mut out = Emitter {
        outlet: Some((shared, outlet)),
        wid: Some(wid),
        inherit_born_ns: 0,
        now_ns: shared.now_ns(),
        emitted,
        stall_scale: *stall_scale,
        stalled_ns: 0,
    };
    match kind {
        TaskKind::Spout { spout, exhausted, ingress } => {
            // One generation loop: up to a quantum of *offered* tuples (an
            // activation stays bounded however much is shed), from the source
            // and then the ingress drain, each admitted one staged on the
            // emitter. It ends early when the source answers "not yet"
            // (`Spout::not_before`) or a delivery spilled (downstream full:
            // park). Tuples of one quantum share a birth stamp.
            let mut defer = None;
            for _ in 0..shared.batch {
                let (key_id, tuple) = if *exhausted {
                    // Drain phase: re-inject retained summaries as ordinary
                    // tuples ahead of Eof. Restartable — if a delivery spills
                    // mid-drain the task parks here, and `finished` holds
                    // the Eof protocol open until the queue runs dry.
                    let Some(tuple) = ingress.as_mut().and_then(SpoutIngress::next_drained) else {
                        break;
                    };
                    (tuple.key_id(), tuple)
                } else {
                    defer = spout.not_before();
                    if defer.is_some() {
                        break;
                    }
                    let Some(tuple) = spout.next() else {
                        *exhausted = true;
                        if let Some(ing) = ingress.as_mut() {
                            ing.start_drain();
                        }
                        continue;
                    };
                    *processed += 1;
                    let key_id = tuple.key_id();
                    if let Some(ing) = ingress.as_mut() {
                        // A wall-clock bucket refills per offer, and a
                        // depth-reading admission delivers per tuple: both
                        // stamp each tuple with its own clock reading (a
                        // logical clock ignores it).
                        if ing.needs_wall_clock() || ing.needs_depth() {
                            out.now_ns = shared.now_ns();
                        }
                        let depth = if ing.needs_depth() { out.max_depth() } else { 0 };
                        if !ing.offer(&tuple.key, key_id, tuple.value, depth, out.now_ns) {
                            continue;
                        }
                    }
                    (key_id, tuple)
                };
                if !out.emit_keyed(key_id, tuple) {
                    break;
                }
            }
            // Reached at most once: afterwards `finished` short-circuits the
            // activation to `Done`.
            let complete = finished(kind);
            if complete {
                out.close();
            }
            match (out.deliver(tid), defer) {
                (false, _) => Outcome::Park,
                (true, Some(wait)) => Outcome::Stall(shared.now_ns() + wait.as_nanos() as u64),
                (true, None) if complete => Outcome::Done,
                // Input left, or retained summaries still draining.
                (true, None) => Outcome::Yield,
            }
        }
        TaskKind::Bolt { bolt, eof_remaining, tick_period_ns, next_tick_ns } => {
            // One clock read per tick and per mailbox refill, not per tuple:
            // tuples drained together share a timestamp (skew bounded by one
            // quantum, far below what the latency histogram resolves).
            let mut now_ns = out.now_ns;
            // 1. Tick deadlines, catching up on every overdue period, each
            //    into an empty outbox. What a tick's flush spills is a
            //    backlog the input below works around; a tick overdue behind
            //    a backlog is deferred, not dropped. The retry that found the
            //    backlog registered this task for the release, and the first
            //    activation with an empty outbox fires it — so a consumer
            //    slower than the period never has two panes queued for it.
            if let Some(period) = *tick_period_ns {
                let mut fired = false;
                while now_ns >= *next_tick_ns && !backlog {
                    // Sample state at its peak, before the tick flushes it.
                    sampler.sample(bolt.state_size());
                    out.now_ns = now_ns;
                    bolt.tick(&mut out);
                    backlog = !out.deliver(tid);
                    *stalled_ns += std::mem::take(&mut out.stalled_ns);
                    *ticks += 1;
                    *next_tick_ns += period;
                    fired = true;
                    now_ns = shared.now_ns();
                }
                if fired && *next_tick_ns > now_ns {
                    // Re-arm for the advanced deadline (a deferred one waits
                    // for the release instead).
                    shared.schedule.arm(tid, *next_tick_ns, &WakeKind::Notify);
                }
            }
            // 2. Input packets, up to the batch quantum, backlog or not.
            let mut budget = shared.batch;
            if *busy_until > now_ns {
                // Resumed early (backpressure release, stale timer entry).
                return Outcome::Stall(*busy_until);
            }
            while budget > 0 {
                if inbox.is_empty() {
                    if shared.refill_inbox(tid, inbox, budget) == 0 {
                        break;
                    }
                    now_ns = shared.now_ns();
                }
                let Some(packet) = inbox.pop() else {
                    unreachable!("refill reported packets moved");
                };
                budget -= 1;
                match packet {
                    Packet::Tuple(tuple) => {
                        latency.record(now_ns.saturating_sub(tuple.born_ns));
                        out.now_ns = now_ns;
                        out.inherit_born_ns = tuple.born_ns;
                        let queued = out.backlog();
                        bolt.execute(tuple, &mut out);
                        out.flush();
                        // The tuple's own output spilled or queued behind
                        // the backlog: retry it all, and on failure hold
                        // until the outbox drains. So the outbox never holds
                        // more than one tick's flush and one tuple's output.
                        *held = out.backlog() > queued && !out.deliver(tid);
                        let charged = std::mem::take(&mut out.stalled_ns);
                        // Feed the load signals: one routed tuple done (this
                        // instance is its tally's only writer), its
                        // capacity-scaled service time is the latency
                        // sample for Peak-EWMA and the capacity estimator.
                        if let Some(s) = signals.as_ref().and_then(SharedLoads::signals) {
                            s.complete(*instance, charged);
                        }
                        *stalled_ns += charged;
                        *processed += 1;
                        if charged > 0 {
                            // Service starts when the previous tuple's ended.
                            // Behind the wall clock (a late timer): keep
                            // draining to catch up. Ahead: emulated service
                            // time must not hold a worker; run_task parks the
                            // task, then arms the deadline (Outcome::Stall).
                            // When `held` too, the retry's mailbox waiter
                            // doubles as an earlier-release wake.
                            *busy_until =
                                if *busy_until == 0 { now_ns } else { *busy_until } + charged;
                            if *busy_until > now_ns {
                                now_ns = shared.now_ns();
                                if *busy_until > now_ns {
                                    return Outcome::Stall(*busy_until);
                                }
                            }
                        }
                        if *held {
                            return Outcome::Park;
                        }
                    }
                    Packet::Eof => {
                        *eof_remaining -= 1;
                        if *eof_remaining == 0 {
                            // Every sender's Eof is its last send, so FIFO
                            // implies nothing can follow the final Eof.
                            debug_assert!(inbox.is_empty(), "packets after final Eof");
                            sampler.sample(bolt.state_size());
                            *final_state = bolt.state_size();
                            out.now_ns = shared.now_ns();
                            out.inherit_born_ns = 0;
                            bolt.finish(&mut out);
                            *stalled_ns += out.stalled_ns;
                            out.close();
                            return if out.deliver(tid) { Outcome::Done } else { Outcome::Park };
                        }
                    }
                }
            }
            // budget > 0 here means the final refill found the mailbox
            // empty; any packet arriving after that flips us to NOTIFIED,
            // so idling cannot lose a wake. Nor can a backlog strand: the
            // retry that failed in this activation registered the task with
            // the full mailbox, and its release (`Unpark`) queues an idle
            // task as new input (`Notify`) does.
            if inbox.is_empty() && budget > 0 {
                // Idleness is never banked as catch-up credit.
                *busy_until = 0;
                Outcome::Idle
            } else {
                Outcome::Yield
            }
        }
    }
}

/// Has the task sent its last tuple — a source exhausted with, under
/// ingress, every retained summary re-injected; a bolt past its final Eof?
/// It is done once its outbox drains too, possibly on a later activation.
fn finished(kind: &TaskKind) -> bool {
    match kind {
        TaskKind::Spout { exhausted, ingress, .. } => {
            *exhausted && ingress.as_ref().is_none_or(SpoutIngress::drain_complete)
        }
        TaskKind::Bolt { eof_remaining, .. } => *eof_remaining == 0,
    }
}

/// Settle a task's scheduling state after a non-`Done` activation.
/// `requeue` is how the caller re-queues the task ([`run_task`]: through
/// [`Schedule::requeue`]; the model suite substitutes its own). Split from
/// [`run_task`] so the model checker can race exactly this transition
/// against concurrent wakes (`pool_model.rs`).
///
/// [`Schedule::requeue`]: crate::schedule::Schedule::requeue
pub(crate) fn settle(shared: &Shared, tid: usize, outcome: &Outcome, requeue: impl Fn()) {
    let slot = &shared.tasks[tid];
    match outcome {
        // Quantum exhausted with input left.
        Outcome::Yield => requeue(),
        // The CAS failure arms handle wakes that landed mid-activation
        // (state is NOTIFIED): requeue instead of going quiet.
        Outcome::Idle => {
            // ordering: SeqCst — RUNNING→IDLE must order after the final
            // empty mailbox check; failure means NOTIFIED landed (SC-only model)
            if slot.state.compare_exchange(RUNNING, IDLE, SeqCst, SeqCst).is_err() {
                requeue();
            }
        }
        Outcome::Park => {
            // ordering: SeqCst — RUNNING→PARKED after waiter registration;
            // failure means NOTIFIED landed (SC-only model)
            if slot.state.compare_exchange(RUNNING, PARKED, SeqCst, SeqCst).is_err() {
                requeue();
            }
        }
        Outcome::Stall(deadline_ns) => {
            // Park *unconditionally*: a NOTIFIED data wake that landed
            // mid-activation must not cancel the emulated service time (the
            // mailbox keeps the packets; we resume at the deadline). Safe to
            // absorb because the timer below is a guaranteed future wake —
            // and it is armed only now, after PARKED is visible, so it can
            // never fire against RUNNING and be consumed as a no-op.
            // ordering: SeqCst — store, not CAS: absorbs NOTIFIED by design (SC-only model)
            slot.state.store(PARKED, SeqCst);
            shared.schedule.arm(tid, *deadline_ns, &WakeKind::Unpark);
        }
        Outcome::Done => unreachable!("Done is finalized by run_task, not settled"),
    }
}

/// Run one activation of the QUEUED task `tid` on worker `wid` and settle
/// it. Returns whether the task completed: it is DONE and never runs again.
pub(crate) fn run_task(shared: &Shared, tid: usize, wid: usize) -> bool {
    let slot = &shared.tasks[tid];
    // ordering: SeqCst — QUEUED→RUNNING claims the activation (SC-only model)
    let prev = slot.state.swap(RUNNING, SeqCst);
    debug_assert_eq!(prev, QUEUED, "only queued tasks run");
    let Some(mut body) = lock(&slot.body).take() else {
        unreachable!("queued task owns a body");
    };
    let source = matches!(body.kind, TaskKind::Spout { .. });
    let outcome = activate(shared, tid, wid, &mut body);
    if matches!(outcome, Outcome::Done) {
        // Every sender's Eof was its last send, so the high-water mark is
        // final by the time the task completes.
        // ordering: SeqCst — read after the Eof protocol quiesced (SC-only model)
        body.max_depth = slot.depth_high.load(SeqCst) as u64;
        lock(&shared.stats).push(body.into_stats());
        // ordering: SeqCst — DONE precedes the caller's completion count (SC-only model)
        slot.state.store(DONE, SeqCst);
        return true;
    }
    *lock(&slot.body) = Some(body);
    let requeue = || {
        // ordering: SeqCst — QUEUED before the id is published to the queue (SC-only model)
        slot.state.store(QUEUED, SeqCst);
        shared.schedule.requeue(tid, wid, source);
    };
    settle(shared, tid, &outcome, requeue);
    false
}
