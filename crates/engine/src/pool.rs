//! The engine's one instance runtime.
//!
//! Every processing-element instance is a schedulable *task* driven by the
//! one activation loop ([`activate`]):
//!
//! * Each bolt task owns a bounded **mailbox**; producers push into it and
//!   never block inside an activation.
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
//! Two schedules decide only *who calls [`run_task`] and when*:
//!
//! * **Pool** ([`worker_loop`]): a fixed set of worker threads pick tasks
//!   from their own Chase–Lev deques, then each other's, then a global
//!   injector; tick and stall deadlines live in one central
//!   [`TimerWheel`](crate::timer) that the workers fire when they visit
//!   the injector. A data wake stays on the worker that raised it: the
//!   woken consumer is pushed onto the waker's own deque, lock-free, so
//!   its window table and inbox stay warm on the core that just filled
//!   them. The injector carries only what starts a cascade — the initial
//!   sources, a source's requeue, backpressure releases and timer fires —
//!   so every local cascade is bounded by what one source quantum or one
//!   deadline produced, and picking local work first cannot starve them.
//! * **Dedicated threads** ([`owner_loop`], `ExecutorMode::ThreadPerInstance`
//!   — the paper's one executor per instance): one thread per task runs that
//!   task only. A wake unparks the owner instead of queueing the task, and
//!   the owner records its task's own next deadlines instead of a shared
//!   wheel. [`Shared::wake`] and [`Shared::arm`] are the only places the
//!   two differ.
//!
//! Scheduling state per task is a small atomic state machine
//! (idle / queued / running / running-notified / parked / done) that makes
//! wake-ups idempotent and race-free: a wake during `RUNNING` marks
//! `NOTIFIED`, which the worker converts into a requeue when the
//! activation ends, so no packet arrival is ever lost between a task's
//! "mailbox empty" check and its transition to idle.
//!
//! Determinism: all routing state (the per-sender [`Router`]s, seeded by
//! the same `edge_seed` derivation) is owned by the task and consulted in
//! the task's own processing order, so a topology routes **byte-identically**
//! under either schedule regardless of how activations interleave — the
//! property `tests/engine_executor_parity.rs` pins down, against both the
//! other schedule and a bare-router replay.
//!
//! # Memory ordering policy
//!
//! Every atomic in this module uses `SeqCst`, deliberately. The correctness
//! argument for the wake/idle handshake is the model-checked suite in
//! `pool_model.rs` (`--features pkg_model`), and the vendored checker
//! explores **sequentially consistent** interleavings only — a weaker
//! ordering would be outside what the model proves. Per-site `// ordering:`
//! comments (enforced by `pkg-lint`) state what each access must order
//! against; "SC-only model" below refers back to this paragraph.
//!
//! All concurrency primitives are imported via the [`crate::sync`] facade
//! (also lint-enforced) so the same code runs under the model checker.

#![warn(clippy::pedantic)]
// Curated pedantic allows, each deliberate:
// - cast_possible_truncation: ns-since-epoch u128→u64 overflows after ~584
//   years of run time; every cast site is such a conversion.
// - single_match_else: the spout/task dispatch matches read better with the
//   two outcomes visually parallel than as `if let`/`else`.
// - too_many_lines: `activate` is one cohesive task state machine and
//   `run_pool` one topology build; splitting them would scatter invariants
//   the model suite references by name.
#![allow(clippy::cast_possible_truncation, clippy::single_match_else, clippy::too_many_lines)]

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam::deque::{Steal, WorkStealingDeque};
use pkg_core::SharedLoads;
use pkg_metrics::LatencyHistogram;

use crate::bolt::{Bolt, EdgeTx, Emitter, OutEdge, Outlet};
use crate::grouping::Router;
use crate::ingress::{HedgeState, SpoutIngress};
use crate::metrics::{InstanceStats, RunStats, StateSampler, WorkerStats};
use crate::ring::SpscRing;
use crate::runtime::{ExecutorMode, RuntimeOptions};
use crate::spout::Spout;
use crate::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use crate::sync::{lock, spin_loop, Instant, Mutex, Parker, Unparker};
use crate::timer::TimerWheel;
use crate::topology::{ComponentKind, Topology};
use crate::tuple::{Packet, PacketBatch};

/// Default batch quantum: packets drained per task activation.
const DEFAULT_BATCH: usize = 256;

/// Upper bound on an idle worker's (or dedicated owner's) sleep. A
/// defensive backstop: all wakes are edge-triggered, so this only bounds
/// recovery latency, it is not a correctness mechanism.
const MAX_IDLE_PARK: Duration = Duration::from_millis(100);

/// Shortest park of an idle worker; a nearer deadline is met by a spin, or
/// by this park's overshoot when another worker holds the spinner slot.
const MIN_IDLE_PARK: Duration = Duration::from_micros(50);

/// How near the timer wheel's next deadline must be for an idle worker to
/// spin toward it instead of parking. A park returns late: at least
/// `MIN_IDLE_PARK`, and a `park_timeout` overshoots its timeout by ≈ 60 µs
/// on a 2-core x86 host, more in the host's slow phases. Fixed, not tuned
/// per run: a deadline nearer than this is one a park would miss.
const SPIN_WINDOW_NS: u64 = 200_000;

/// Spin polls before a spinner parks under the model, which does not
/// virtualize time (see [`spin_until`]).
#[cfg(feature = "pkg_model")]
const MODEL_SPIN_ROUNDS: usize = 2;

// Task scheduling states.
const IDLE: u8 = 0;
/// In the global run queue or a worker's local queue.
const QUEUED: u8 = 1;
/// A worker is executing an activation.
const RUNNING: u8 = 2;
/// Running, and a wake arrived mid-activation: requeue instead of idling.
const NOTIFIED: u8 = 3;
/// Blocked on a full downstream mailbox; woken by its consumer.
const PARKED: u8 = 4;
const DONE: u8 = 5;

enum WakeKind {
    /// Data/tick wake: does not disturb a backpressure-parked task (it
    /// cannot make progress until its downstream drains).
    Notify,
    /// Park-ending wake: a consumer freed mailbox space (backpressure
    /// release) or an `Outcome::Stall` deadline fired on the timer wheel.
    Unpark,
}

enum Outcome {
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
    /// deadline on the timer wheel — without occupying a worker thread,
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

enum TaskKind {
    Spout {
        spout: Box<dyn Spout>,
        exhausted: bool,
        /// Admission control / shedding state ([`IngressOptions`] set).
        ingress: Option<SpoutIngress>,
    },
    Bolt {
        bolt: Box<dyn Bolt>,
        eof_remaining: usize,
        tick_period_ns: Option<u64>,
        next_tick_ns: u64,
    },
}

struct TaskBody {
    component: String,
    instance: usize,
    kind: TaskKind,
    /// Out-edges, staged emissions and spilled deliveries.
    outlet: Outlet,
    /// An executed tuple's own output waits in the outbox: the task parks
    /// until the outbox drains instead of reading more input.
    held: bool,
    /// Packets drained from the mailbox but not yet processed.
    inbox: PacketBatch,
    processed: u64,
    emitted: u64,
    ticks: u64,
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
    fn new(
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

#[derive(Default)]
struct MailboxInner {
    queue: VecDeque<Packet>,
    /// Producer tasks parked on this mailbox being full.
    waiters: Vec<usize>,
}

/// A task's input queue. The transport is chosen at `run_pool` build time
/// per destination and encoded in the matching [`EdgeTx`] variant:
///
/// | upstream sender instances | transport | edge |
/// |---------------------------|-----------|------|
/// | exactly 1 (and rings on)  | [`SpscRing`] — lock-free indices | `TaskRings` |
/// | several (MPSC)            | mutexed `VecDeque` | `Tasks` |
enum Mailbox {
    /// Multi-producer: every push/drain takes the mailbox lock, and
    /// publishes the resulting queue length in `depth` before releasing it
    /// ([`publish_depth`]) so depth readers never touch the lock.
    Mutexed { cap: usize, inner: Mutex<MailboxInner>, depth: AtomicUsize },
    /// Single-producer: bounded SPSC ring, no lock on the packet path.
    Ring(SpscRing),
}

struct TaskSlot {
    state: AtomicU8,
    /// `None` for spouts (no inputs).
    mailbox: Option<Mailbox>,
    /// Taken by the worker for the duration of an activation.
    body: Mutex<Option<Box<TaskBody>>>,
    /// Producer-maintained high-water mark of the mailbox depth, surfaced as
    /// `InstanceStats::max_depth` when the task completes.
    depth_high: AtomicUsize,
}

struct Sched {
    runq: VecDeque<usize>,
    timers: TimerWheel,
}

/// A dedicated thread's hold on its one task under the thread-per-instance
/// schedule: how to wake it, and the task's pending deadlines.
struct Owner {
    unparker: Unparker,
    /// Touched only by the owner thread (and by `run_pool` arming the first
    /// tick before the thread starts), so the lock never contends.
    deadlines: Mutex<Deadlines>,
}

/// A dedicated owner's stand-in for the shared timer wheel: its task's next
/// deadlines in ns since `Shared::epoch`, 0 = none. One of each kind is
/// enough: each is re-armed only by a later activation of the task, and
/// that activation's deadline supersedes the earlier one (which could only
/// have resumed the task early, to be parked again).
#[derive(Default)]
struct Deadlines {
    /// Next tick: fires as a `Notify` wake.
    tick_ns: u64,
    /// End of the current `Outcome::Stall`: fires as an `Unpark` wake.
    stall_ns: u64,
}

/// Shared runtime state; an [`Emitter`] delivers through it without
/// blocking.
pub(crate) struct Shared {
    tasks: Vec<TaskSlot>,
    sched: Mutex<Sched>,
    /// Per-worker run queues: the data wakes a worker's activations raise
    /// and its bolts' requeues. Each is a Chase–Lev deque: worker `w` alone
    /// pushes onto queue `w` (no lock), and every worker — `w` included —
    /// takes the oldest entry by CAS, so a worker runs its own queue in
    /// wake order. Under dedicated threads, queue `t` belongs to task `t`'s
    /// owner and holds at most its own id; nothing steals.
    locals: Vec<WorkStealingDeque>,
    /// One owner per task under the thread-per-instance schedule, indexed
    /// by task id; empty under the pool.
    owners: Vec<Owner>,
    /// Idle workers awaiting work, newest last.
    idlers: Mutex<Vec<(usize, Unparker)>>,
    /// Workers between their idle registration and its removal. Every wake
    /// reads it lock-free and takes the `idlers` lock only when it is
    /// non-zero, so a data wake while every worker is busy takes no lock.
    idle: AtomicUsize,
    /// Tasks not yet `DONE`.
    remaining: AtomicUsize,
    /// The spinner slot: 1 while an idle worker spins toward a near
    /// deadline, claimed by CAS. The other idlers park, so at most one core
    /// spins however many workers idle.
    spinner: AtomicU8,
    /// Per-worker scheduler counters, indexed by worker id; empty under
    /// dedicated threads.
    counters: Vec<WorkerCounters>,
    epoch: Instant,
    /// The quantum: packets per drain, offers per spout run, staged emissions.
    pub(crate) batch: usize,
    stats: Mutex<Vec<InstanceStats>>,
}

/// One pool worker's [`WorkerStats`] as they accrue: written by that worker
/// alone, and on a cache line of its own so the writes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct WorkerCounters {
    parks: AtomicU64,
    spins: AtomicU64,
    timers_fired: AtomicU64,
    timer_late_ns: AtomicU64,
}

impl WorkerCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        // ordering: SeqCst — statistics only, kept at the module policy
        // ordering (SC-only model)
        counter.fetch_add(by, SeqCst);
    }

    fn snapshot(&self) -> WorkerStats {
        // ordering: SeqCst — read once every worker has joined (SC-only model)
        let read = |counter: &AtomicU64| counter.load(SeqCst);
        WorkerStats {
            parks: read(&self.parks),
            spins: read(&self.spins),
            timers_fired: read(&self.timers_fired),
            timer_late_ns: read(&self.timer_late_ns),
        }
    }
}

impl Shared {
    #[inline]
    fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    fn mailbox(&self, tid: usize) -> &Mailbox {
        let Some(mb) = self.tasks[tid].mailbox.as_ref() else {
            unreachable!("edge destinations are bolts");
        };
        mb
    }

    /// Current queue depth of `tid`'s mailbox — the downstream-pressure
    /// signal consulted by ingress watermark shedding and hedged dispatch.
    /// A point-in-time, lock-free read: the mutexed arm reads the length
    /// last published under the mailbox lock, the ring arm its indices.
    pub(crate) fn depth(&self, tid: usize) -> usize {
        match self.mailbox(tid) {
            // ordering: SeqCst — advisory signal at the module policy
            // ordering; the mailbox lock orders its writers (SC-only model)
            Mailbox::Mutexed { depth, .. } => depth.load(SeqCst),
            Mailbox::Ring(ring) => ring.len(),
        }
    }

    /// Fold an observed mailbox depth into `tid`'s high-water mark. The
    /// model-switched `AtomicUsize` has no `fetch_max`, hence the CAS loop.
    fn note_depth(&self, tid: usize, depth: usize) {
        let high = &self.tasks[tid].depth_high;
        // ordering: SeqCst — statistics-only high-water, kept at the module
        // policy ordering (SC-only model)
        let mut cur = high.load(SeqCst);
        while depth > cur {
            // ordering: SeqCst — monotone max update (SC-only model)
            match high.compare_exchange(cur, depth, SeqCst, SeqCst) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// The one delivery loop per transport: move packets from `supply` into
    /// `dest`'s mailbox while it has room, under one lock hold (the ring:
    /// one tail publication per batch), then note the depth and wake `dest`
    /// once if any landed. Returns the first packet that did not fit; the
    /// rest of `supply` is left untouched. With `waiter`, that task is first
    /// registered for `dest`'s backpressure-release wake — for the mutexed
    /// mailbox under the same hold as the capacity check that failed, for
    /// the ring through its announce→re-check protocol — so the release can
    /// never be missed.
    fn fill(
        &self,
        dest: usize,
        supply: &mut impl Iterator<Item = Packet>,
        waiter: Option<usize>,
        wid: Option<usize>,
    ) -> Option<Packet> {
        let (mut accepted, mut left) = (0usize, None);
        let depth = match self.mailbox(dest) {
            Mailbox::Mutexed { cap, inner, depth } => {
                let mut inner = lock(inner);
                for packet in supply.by_ref() {
                    if inner.queue.len() >= *cap {
                        left = Some(packet);
                        break;
                    }
                    inner.queue.push_back(packet);
                    accepted += 1;
                }
                if let (Some(_), Some(w)) = (&left, waiter) {
                    debug_assert_ne!(
                        // ordering: SeqCst — debug-only sanity read (SC-only model)
                        self.tasks[dest].state.load(SeqCst),
                        DONE,
                        "a done task cannot still have senders (Eof protocol)"
                    );
                    if !inner.waiters.contains(&w) {
                        inner.waiters.push(w);
                    }
                }
                publish_depth(depth, inner.queue.len())
            }
            Mailbox::Ring(ring) => {
                loop {
                    accepted += ring.push_batch(supply);
                    let Some(packet) = supply.next() else { break };
                    let Some(w) = waiter else {
                        left = Some(packet);
                        break;
                    };
                    // Full at the snapshot: park, unless the consumer made
                    // room meanwhile — then go on with the run.
                    if let Err(packet) = ring.push_or_park(packet, w) {
                        left = Some(packet);
                        break;
                    }
                    accepted += 1;
                }
                ring.len()
            }
        };
        if accepted > 0 {
            self.note_depth(dest, depth);
            self.wake(dest, &WakeKind::Notify, wid);
        }
        left
    }

    /// Every emission's delivery: push one destination's run of `packets`
    /// into `dest`'s mailbox ([`Shared::fill`]). What does not fit spills to
    /// `outbox` in order — and so does the whole run while an earlier spill
    /// waits there, so per-destination FIFO (which Eof counting relies on)
    /// survives the detour. `wid` is the worker running the sending
    /// activation (see [`Shared::wake`]).
    pub(crate) fn push_run(
        &self,
        dest: usize,
        packets: impl IntoIterator<Item = Packet>,
        outbox: &mut VecDeque<(usize, Packet)>,
        wid: Option<usize>,
    ) {
        let mut packets = packets.into_iter();
        let left = if outbox.is_empty() { self.fill(dest, &mut packets, None, wid) } else { None };
        outbox.extend(left.into_iter().chain(packets).map(|packet| (dest, packet)));
    }

    /// Drain up to `max` packets of `tid`'s own mailbox into `inbox`,
    /// waking any producers that were parked on the mailbox being full.
    /// Those are `Unpark` wakes, which queue on the injector whoever raises
    /// them, so the draining worker's id is not needed here.
    fn refill_inbox(&self, tid: usize, inbox: &mut PacketBatch, max: usize) -> usize {
        match self.mailbox(tid) {
            Mailbox::Mutexed { inner, depth, .. } => {
                let (moved, waiters) = {
                    let mut inner = lock(inner);
                    let moved = inbox.refill(&mut inner.queue, max);
                    publish_depth(depth, inner.queue.len());
                    let waiters = if moved > 0 && !inner.waiters.is_empty() {
                        std::mem::take(&mut inner.waiters)
                    } else {
                        Vec::new()
                    };
                    (moved, waiters)
                };
                for w in waiters {
                    self.wake(w, &WakeKind::Unpark, None);
                }
                moved
            }
            Mailbox::Ring(ring) => {
                // One head publication for the whole drain (the batch
                // analogue of the mutexed arm's single lock hold).
                let moved = ring.pop_batch(max, &mut |p| inbox.push(p));
                if moved > 0 {
                    for w in ring.take_waiters() {
                        self.wake(w, &WakeKind::Unpark, None);
                    }
                }
                moved
            }
        }
    }

    /// Drive the state machine for a wake; returns whether the caller must
    /// queue the task.
    fn wake_state(&self, t: usize, kind: &WakeKind) -> bool {
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
    /// wake, `None` from outside one. Where the task queues is fixed by the
    /// wake alone:
    ///
    /// | wake | queue |
    /// |------|-------|
    /// | any, under dedicated threads | none: the owner is unparked |
    /// | `Notify` from worker `w` | `locals[w]`, lock-free |
    /// | `Unpark` (a release), or from no worker | the injector |
    fn wake(&self, t: usize, kind: &WakeKind, wid: Option<usize>) {
        if !self.wake_state(t, kind) {
            return;
        }
        if let Some(owner) = self.owners.get(t) {
            // A dedicated owner is its task's only run queue.
            owner.unparker.unpark();
            return;
        }
        match (kind, wid) {
            (WakeKind::Notify, Some(w)) => self.push_local(w, t),
            _ => lock(&self.sched).runq.push_back(t),
        }
        self.unpark_one_idler();
    }

    /// Queue `t` on worker `w`'s deque. Only worker `w`'s own thread calls
    /// this (the deque's single-pusher contract).
    fn push_local(&self, w: usize, t: usize) {
        if !self.locals[w].push(t) {
            // A task id is queued at most once (state machine) and deques
            // are sized for that, so a full deque is unreachable — but the
            // global injector is a safe overflow all the same.
            lock(&self.sched).runq.push_back(t);
        }
    }

    /// Arm a deadline for task `t`: a tick (`Notify`) or the end of a stall
    /// (`Unpark`). The pool inserts it into the shared timer wheel; a
    /// dedicated owner records it as its task's own next deadline.
    fn arm(&self, t: usize, deadline_ns: u64, kind: &WakeKind) {
        match (self.owners.get(t), kind) {
            (Some(owner), WakeKind::Notify) => lock(&owner.deadlines).tick_ns = deadline_ns,
            (Some(owner), WakeKind::Unpark) => lock(&owner.deadlines).stall_ns = deadline_ns,
            (None, WakeKind::Notify) => lock(&self.sched).timers.insert(deadline_ns, t),
            (None, WakeKind::Unpark) => lock(&self.sched).timers.insert_unpark(deadline_ns, t),
        }
    }

    fn unpark_one_idler(&self) {
        // ordering: SeqCst — the caller's queue push precedes this read, and
        // an idler's increment precedes its re-check of every queue: one of
        // the two sees the other (SC-only model)
        if self.idle.load(SeqCst) == 0 {
            return;
        }
        let popped = lock(&self.idlers).pop();
        if let Some((_, u)) = popped {
            u.unpark();
        }
    }

    fn unpark_all_idlers(&self) {
        let drained: Vec<_> = lock(&self.idlers).drain(..).collect();
        for (_, u) in drained {
            u.unpark();
        }
    }
}

/// Publish a mutexed mailbox's queue length for [`Shared::depth`] and return
/// it. Callers hold the mailbox lock, so the last store is the live length
/// (stored after release, a stale length could overwrite a fresher one).
fn publish_depth(depth: &AtomicUsize, len: usize) -> usize {
    // ordering: SeqCst — advisory signal at the module policy ordering;
    // writers are serialized by the mailbox lock (SC-only model)
    depth.store(len, SeqCst);
    len
}

/// Retry task `tid`'s spilled deliveries in order, from its activation on
/// worker `wid`: each leading run for one destination goes in with one
/// [`Shared::fill`] — one lock hold, one depth note, at most one wake.
/// `false` means a run did not fit: `tid` is registered for that
/// destination's release wake, and the rest stays queued.
pub(crate) fn deliver_outbox(
    shared: &Shared,
    tid: usize,
    outbox: &mut VecDeque<(usize, Packet)>,
    wid: Option<usize>,
) -> bool {
    while let Some(&(dest, _)) = outbox.front() {
        let mut run = std::iter::from_fn(|| {
            if outbox.front()?.0 == dest {
                outbox.pop_front().map(|(_, packet)| packet)
            } else {
                None
            }
        });
        if let Some(packet) = shared.fill(dest, &mut run, Some(tid), wid) {
            outbox.push_front((dest, packet));
            return false;
        }
    }
    true
}

fn activate(shared: &Shared, tid: usize, wid: usize, body: &mut TaskBody) -> Outcome {
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
                    shared.arm(tid, *next_tick_ns, &WakeKind::Notify);
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
/// `requeue` is how the caller re-queues the task ([`run_task`]: a bolt
/// onto its worker's deque, a source onto the injector; the model suite
/// substitutes its own). Split from [`run_task`] so the model checker can
/// race exactly this transition against concurrent wakes (`pool_model.rs`).
fn settle(shared: &Shared, tid: usize, outcome: &Outcome, requeue: impl Fn()) {
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
            shared.arm(tid, *deadline_ns, &WakeKind::Unpark);
        }
        Outcome::Done => unreachable!("Done is finalized by run_task, not settled"),
    }
}

fn run_task(shared: &Shared, tid: usize, wid: usize) {
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
        // ordering: SeqCst — DONE precedes the remaining decrement (SC-only model)
        slot.state.store(DONE, SeqCst);
        // ordering: SeqCst — the final decrement pairs with the idle workers'
        // remaining-count exit checks (SC-only model)
        if shared.remaining.fetch_sub(1, SeqCst) == 1 {
            shared.unpark_all_idlers();
        }
        return;
    }
    *lock(&slot.body) = Some(body);
    let requeue = || {
        // ordering: SeqCst — QUEUED before the id is published to the queue (SC-only model)
        slot.state.store(QUEUED, SeqCst);
        if source && shared.owners.is_empty() {
            // A pool source queues behind the consumers it just woke onto
            // this worker's deque, and re-enters only through the injector.
            lock(&shared.sched).runq.push_back(tid);
        } else {
            shared.push_local(wid, tid);
        }
    };
    settle(shared, tid, &outcome, requeue);
}

/// Take the oldest task of worker `wid`'s own deque, else steal the oldest
/// of a sibling's. Oldest first on the own deque too: a woken consumer
/// runs in wake order, behind the tasks woken before it.
fn steal(shared: &Shared, wid: usize) -> Option<usize> {
    let n = shared.locals.len();
    for k in 0..n {
        let victim = (wid + k) % n;
        loop {
            match shared.locals[victim].steal() {
                Steal::Success(tid) => return Some(tid),
                // Lost a CAS race: someone else is making progress on this
                // victim; try it again before moving on.
                Steal::Retry => {}
                Steal::Empty => break,
            }
        }
    }
    None
}

/// Fire the timer wheel's due deadlines onto the injector, counting them
/// and their lateness on worker `wid`, then pop the injector's oldest task.
fn inject(shared: &Shared, wid: usize, due: &mut Vec<(usize, bool)>) -> Option<usize> {
    let mut s = lock(&shared.sched);
    due.clear();
    let late_ns = s.timers.fire(shared.now_ns(), due);
    if !due.is_empty() {
        let counters = &shared.counters[wid];
        WorkerCounters::bump(&counters.timers_fired, due.len() as u64);
        WorkerCounters::bump(&counters.timer_late_ns, late_ns);
    }
    for &(t, unpark) in due.iter() {
        let kind = if unpark { WakeKind::Unpark } else { WakeKind::Notify };
        if shared.wake_state(t, &kind) {
            s.runq.push_back(t);
        }
    }
    s.runq.pop_front()
}

fn worker_loop(shared: &Shared, wid: usize) {
    let parker = Parker::new();
    let mut due: Vec<(usize, bool)> = Vec::new();
    loop {
        // Pick order: own deque (oldest first) → a sibling's → the injector
        // and due timers. Sources and deadlines enter only through the
        // injector, so the deques drain between two visits to it.
        match steal(shared, wid).or_else(|| inject(shared, wid, &mut due)) {
            Some(tid) => run_task(shared, tid, wid),
            // ordering: SeqCst — exit check pairs with run_task's final
            // decrement (SC-only model)
            None if shared.remaining.load(SeqCst) == 0 => {
                shared.unpark_all_idlers();
                return;
            }
            None => idle_wait(shared, wid, &parker),
        }
    }
}

/// Wait, as worker `wid`, for a wake, the next timer deadline or the
/// backstop. It registers as idle *before* re-checking every queue: a waker
/// that pushes after the re-check reads the raised idle count and pops our
/// unparker, and a pre-park unpark makes park return immediately (no lost
/// wake). The re-check covers the siblings' deques too, so a local wake
/// that raced the registration is stolen now instead of after the backstop.
///
/// A re-check that finds nothing ends in exactly one park or one spin. A
/// park returns late (see `SPIN_WINDOW_NS`), so a worker whose next
/// deadline is nearer than the window spins toward it instead, if it can
/// claim the spinner slot; the others park as before. The spinner stays
/// registered, so a wake reaches it through its token like any idler's, and
/// it releases the slot only after its deregistration.
fn idle_wait(shared: &Shared, wid: usize, parker: &Parker) {
    lock(&shared.idlers).push((wid, parker.unparker()));
    // ordering: SeqCst — the raise precedes the re-check below; pairs with
    // the waker's push-then-read in unpark_one_idler (SC-only model)
    shared.idle.fetch_add(1, SeqCst);
    let (empty, next_deadline) = {
        let s = lock(&shared.sched);
        (s.runq.is_empty(), s.timers.next_deadline_ns())
    };
    let empty = empty && shared.locals.iter().all(WorkStealingDeque::is_empty);
    let mut spun = false;
    // ordering: SeqCst — re-check under idler registration (SC-only model)
    if empty && shared.remaining.load(SeqCst) != 0 {
        let counters = &shared.counters[wid];
        let now = shared.now_ns();
        let near = next_deadline.filter(|d| d.saturating_sub(now) < SPIN_WINDOW_NS);
        // ordering: SeqCst — the slot claim; one total order with the
        // other idlers' claims and the holder's release (SC-only model)
        spun = near.is_some() && shared.spinner.compare_exchange(0, 1, SeqCst, SeqCst).is_ok();
        match near {
            Some(deadline) if spun => {
                WorkerCounters::bump(&counters.spins, 1);
                spin_until(shared, parker, deadline);
            }
            _ => {
                WorkerCounters::bump(&counters.parks, 1);
                let sleep = next_deadline
                    .map_or(MAX_IDLE_PARK, |d| Duration::from_nanos(d.saturating_sub(now)))
                    .clamp(MIN_IDLE_PARK, MAX_IDLE_PARK);
                parker.park_timeout(sleep);
            }
        }
    }
    lock(&shared.idlers).retain(|(w, _)| *w != wid);
    // ordering: SeqCst — lowered only after the registration is gone
    // (SC-only model)
    shared.idle.fetch_sub(1, SeqCst);
    if spun {
        // ordering: SeqCst — released after the deregistration, so every
        // registered idler that has spun holds the slot: what model
        // invariant 11(b) observes (SC-only model)
        shared.spinner.store(0, SeqCst);
    }
}

/// Spin until `parker`'s token is set or the clock reaches `deadline_ns`.
/// The exit test reads only the token and the clock: polling the siblings'
/// deques too would only add cache traffic to a busy worker, since every
/// wake that queues work also sets an idler's token.
#[cfg(not(feature = "pkg_model"))]
fn spin_until(shared: &Shared, parker: &Parker, deadline_ns: u64) {
    while !parker.park_timeout(Duration::ZERO) && shared.now_ns() < deadline_ns {
        spin_loop();
    }
}

/// The model does not virtualize time, so the clock never ends a spin
/// here: after `MODEL_SPIN_ROUNDS` polls the spinner parks until the
/// deadline, and the model never times a park out. A wake that misses the
/// spinner's token is then a reported deadlock, not a spin the deadline
/// quietly rescues. Outside a model run the park does time out, so the
/// ordinary tests still pass with the feature on.
#[cfg(feature = "pkg_model")]
fn spin_until(shared: &Shared, parker: &Parker, deadline_ns: u64) {
    for _ in 0..MODEL_SPIN_ROUNDS {
        if parker.park_timeout(Duration::ZERO) {
            return;
        }
        spin_loop();
    }
    parker.park_timeout(Duration::from_nanos(deadline_ns.saturating_sub(shared.now_ns())));
}

/// One pass of a dedicated owner over its task `tid` with the clock at
/// `now_ns`: fire the task's due deadlines, then run one activation if the
/// task is runnable. Returns how long the owner may park before its next
/// pass (zero right after an activation, so the state it settled into is
/// re-read before any park), or `None` once the task is DONE.
fn owner_pass(shared: &Shared, tid: usize, now_ns: u64) -> Option<Duration> {
    let slot = &shared.tasks[tid];
    let next_ns = {
        let mut guard = lock(&shared.owners[tid].deadlines);
        let d = &mut *guard;
        for (deadline, kind) in
            [(&mut d.stall_ns, WakeKind::Unpark), (&mut d.tick_ns, WakeKind::Notify)]
        {
            if *deadline != 0 && *deadline <= now_ns {
                *deadline = 0;
                // The owner is the task's only queue: a wake that makes
                // it QUEUED is run just below.
                shared.wake_state(tid, &kind);
            }
        }
        [d.stall_ns, d.tick_ns].into_iter().filter(|&ns| ns != 0).min()
    };
    // Runnable: requeued by its own last activation (onto this owner's
    // deque), or woken by a producer, consumer or deadline (QUEUED).
    // ordering: SeqCst — pairs with the waker's IDLE/PARKED→QUEUED CAS; a
    // CAS after this read also unparks us, so the park below returns at
    // once (SC-only model)
    if shared.locals[tid].pop().is_some() || slot.state.load(SeqCst) == QUEUED {
        run_task(shared, tid, tid);
        return Some(Duration::ZERO);
    }
    // ordering: SeqCst — DONE is stored by this thread's own run_task (SC-only model)
    if slot.state.load(SeqCst) == DONE {
        return None;
    }
    Some(next_ns.map_or(MAX_IDLE_PARK, |d| Duration::from_nanos(d - now_ns).min(MAX_IDLE_PARK)))
}

/// A dedicated thread's whole life under the thread-per-instance schedule:
/// pass over its one task until it is DONE, parking in between. Only that
/// task's wakes unpark `parker`, so a full downstream mailbox blocks this
/// thread until the consumer drains, as a blocking send would.
fn owner_loop(shared: &Shared, tid: usize, parker: &Parker) {
    while let Some(wait) = owner_pass(shared, tid, shared.now_ns()) {
        if !wait.is_zero() {
            parker.park_timeout(wait);
        }
    }
}

/// Execute `topology` under `opts`: build every task once, then drive them
/// with the schedule `opts.executor` names — a pool of worker threads, or
/// one dedicated thread per task. With `opts.spsc_rings` on, destinations
/// fed by exactly one upstream sender instance get lock-free SPSC ring
/// mailboxes instead of mutexed queues.
pub(crate) fn run_pool(topology: &Topology, opts: &RuntimeOptions) -> RunStats {
    // Mailboxes are asynchronous queues with no rendezvous mode: a
    // capacity-0 mailbox could never accept a packet and every producer
    // would park forever, so capacity 0 clamps to 1.
    let mailbox_capacity = opts.channel_capacity.max(1);
    let n_components = topology.components.len();
    let out_edges = crate::runtime::build_out_edges(topology, opts.seed);
    let upstream = crate::runtime::upstream_sender_counts(topology);
    // Shared load signals per destination component, so every sender of
    // an edge routes on the same signal state.
    let parallelism: Vec<usize> = topology.components.iter().map(|c| c.parallelism).collect();
    let component_shared =
        crate::load::component_signals(opts.load.as_ref(), &out_edges, &parallelism);
    let mut first_task = Vec::with_capacity(n_components);
    let mut total_instances = 0usize;
    for c in &topology.components {
        first_task.push(total_instances);
        total_instances += c.parallelism;
    }
    // Dedicated threads pin worker `t` to task `t`: its deque only ever
    // holds its own id.
    let (parkers, workers, batch, deque_cap): (Vec<Parker>, _, _, _) = match opts.executor {
        ExecutorMode::ThreadPerInstance => {
            ((0..total_instances).map(|_| Parker::new()).collect(), total_instances, 0, 1)
        }
        ExecutorMode::Pool { workers, batch } => {
            let workers = if workers == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                workers
            };
            // Each task id is queued at most once across all queues (the
            // QUEUED state is exclusive), so `total + 1` slots never fill.
            (Vec::new(), workers, batch, total_instances + 1)
        }
    };

    // A destination whose in-edges carry exactly one upstream sender
    // instance in total is single-producer: its mailbox can be a lock-free
    // SPSC ring (the task state machine serializes that sender's
    // activations, so the discipline holds across worker migration).
    let use_ring = |ci: usize| opts.spsc_rings && upstream[ci] == 1;

    let epoch = Instant::now();
    let mut tasks = Vec::with_capacity(total_instances);
    let mut first_ticks = Vec::new();
    let mut runq = VecDeque::new();
    for (ci, c) in topology.components.iter().enumerate() {
        for i in 0..c.parallelism {
            let tid = first_task[ci] + i;
            let is_spout = matches!(c.kind, ComponentKind::Spout(_));
            let edges: Vec<OutEdge> = out_edges[ci]
                .iter()
                .map(|(to, grouping, edge_seed)| OutEdge {
                    router: Router::with_shared(
                        grouping,
                        topology.components[*to].parallelism,
                        *edge_seed,
                        i,
                        component_shared[*to].as_ref(),
                    ),
                    tx: {
                        let dests = (0..topology.components[*to].parallelism)
                            .map(|j| first_task[*to] + j)
                            .collect();
                        if use_ring(*to) {
                            EdgeTx::TaskRings(dests)
                        } else {
                            EdgeTx::Tasks(dests)
                        }
                    },
                    hedge: match &opts.ingress {
                        // The sender id derives from (component, instance)
                        // only, so hedge tags are schedule-independent.
                        Some(ingress) if is_spout => ingress
                            .hedge_depth_budget
                            .map(|budget| HedgeState::new(budget, (ci as u64) << 16 | i as u64)),
                        _ => None,
                    },
                    signals: component_shared[*to].clone(),
                })
                .collect();
            let (kind, mailbox, initial_state) = match &c.kind {
                ComponentKind::Spout(factory) => {
                    if parkers.is_empty() {
                        runq.push_back(tid);
                    }
                    let ing = opts.ingress.as_ref().map(|ingress| SpoutIngress::new(ingress, i));
                    (
                        TaskKind::Spout { spout: factory(i), exhausted: false, ingress: ing },
                        None,
                        QUEUED,
                    )
                }
                ComponentKind::Bolt(factory) => {
                    let period_ns = c.tick_every.map(|p| (p.as_nanos() as u64).max(1));
                    let next_tick_ns = match period_ns {
                        Some(p) => {
                            let deadline = (epoch.elapsed().as_nanos() as u64).max(1) + p;
                            first_ticks.push((tid, deadline));
                            deadline
                        }
                        None => u64::MAX,
                    };
                    let mailbox = if use_ring(ci) {
                        Mailbox::Ring(SpscRing::new(mailbox_capacity))
                    } else {
                        Mailbox::Mutexed {
                            cap: mailbox_capacity,
                            inner: Mutex::default(),
                            depth: AtomicUsize::new(0),
                        }
                    };
                    (
                        TaskKind::Bolt {
                            bolt: factory(i),
                            eof_remaining: upstream[ci],
                            tick_period_ns: period_ns,
                            next_tick_ns,
                        },
                        Some(mailbox),
                        IDLE,
                    )
                }
            };
            tasks.push(TaskSlot {
                state: AtomicU8::new(initial_state),
                mailbox,
                depth_high: AtomicUsize::new(0),
                body: Mutex::new(Some(Box::new(TaskBody::new(
                    c.name.clone(),
                    i,
                    kind,
                    edges,
                    opts.capacities.stall_scale(&c.name, i),
                    component_shared[ci].clone(),
                )))),
            });
        }
    }

    let shared = Shared {
        tasks,
        sched: Mutex::new(Sched { runq, timers: TimerWheel::new() }),
        locals: (0..workers).map(|_| WorkStealingDeque::new(deque_cap)).collect(),
        owners: parkers
            .iter()
            .map(|p| Owner { unparker: p.unparker(), deadlines: Mutex::default() })
            .collect(),
        idlers: Mutex::new(Vec::new()),
        idle: AtomicUsize::new(0),
        remaining: AtomicUsize::new(total_instances),
        spinner: AtomicU8::new(0),
        counters: (0..if parkers.is_empty() { workers } else { 0 })
            .map(|_| WorkerCounters::default())
            .collect(),
        epoch,
        batch: if batch == 0 { DEFAULT_BATCH } else { batch },
        stats: Mutex::new(Vec::with_capacity(total_instances)),
    };
    for (tid, deadline) in first_ticks {
        shared.arm(tid, deadline, &WakeKind::Notify);
    }

    std::thread::scope(|scope| {
        let shared = &shared;
        if parkers.is_empty() {
            for wid in 0..workers {
                scope.spawn(move || worker_loop(shared, wid));
            }
        } else {
            for (tid, parker) in parkers.into_iter().enumerate() {
                scope.spawn(move || owner_loop(shared, tid, &parker));
            }
        }
    });

    let wall = epoch.elapsed();
    let Ok(mut instances) = shared.stats.into_inner() else {
        panic!("engine lock poisoned: a worker thread panicked");
    };
    assert_eq!(instances.len(), total_instances, "every task reports stats");
    instances.sort_by(|a, b| a.component.cmp(&b.component).then(a.instance.cmp(&b.instance)));
    let workers = shared.counters.iter().map(WorkerCounters::snapshot).collect();
    RunStats { wall, instances, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::CountingBolt;
    use crate::spout::spout_from_iter;
    use crate::tuple::Tuple;

    /// A `Shared` with `n_tasks` bolt-like slots (mailbox capacity `cap`) and
    /// one worker-local queue; enough to race producers against settlement.
    pub(super) fn mini_shared(n_tasks: usize, cap: usize) -> Shared {
        Shared {
            tasks: (0..n_tasks)
                .map(|_| TaskSlot {
                    state: AtomicU8::new(IDLE),
                    mailbox: Some(Mailbox::Mutexed {
                        cap,
                        inner: Mutex::default(),
                        depth: AtomicUsize::new(0),
                    }),
                    body: Mutex::new(None),
                    depth_high: AtomicUsize::new(0),
                })
                .collect(),
            sched: Mutex::new(Sched { runq: VecDeque::new(), timers: TimerWheel::new() }),
            locals: vec![WorkStealingDeque::new(8)],
            owners: Vec::new(),
            idlers: Mutex::new(Vec::new()),
            idle: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n_tasks),
            spinner: AtomicU8::new(0),
            counters: vec![WorkerCounters::default()],
            epoch: Instant::now(),
            batch: DEFAULT_BATCH,
            stats: Mutex::new(Vec::new()),
        }
    }

    /// `shared` with `n` workers: a deque and a counter block each.
    pub(super) fn with_workers(mut shared: Shared, n: usize) -> Shared {
        shared.locals = (0..n).map(|_| WorkStealingDeque::new(8)).collect();
        shared.counters = (0..n).map(|_| WorkerCounters::default()).collect();
        shared
    }

    /// Take every queued id of `deque`, oldest first.
    fn drain(deque: &WorkStealingDeque) -> Vec<usize> {
        std::iter::from_fn(|| match deque.steal() {
            Steal::Success(t) => Some(t),
            Steal::Empty | Steal::Retry => None,
        })
        .collect()
    }

    fn drain_runq(shared: &Shared) -> Vec<usize> {
        lock(&shared.sched).runq.drain(..).collect()
    }

    /// Where each kind of wake and requeue queues its task — the pool's
    /// whole wake rule, one row at a time.
    #[test]
    fn wakes_queue_on_the_wakers_worker_and_releases_on_the_injector() {
        let mut shared = with_workers(mini_shared(4, 4), 2);
        shared.batch = 1;

        // A data wake from worker 1: worker 1's deque, the injector untouched.
        shared.wake(0, &WakeKind::Notify, Some(1));
        assert_eq!(drain(&shared.locals[1]), [0]);
        assert!(shared.locals[0].is_empty());
        assert!(drain_runq(&shared).is_empty());

        // A release, even from a worker, and any wake from outside a worker:
        // the injector.
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.tasks[1].state.store(PARKED, SeqCst);
        shared.wake(1, &WakeKind::Unpark, Some(1));
        shared.wake(2, &WakeKind::Notify, None);
        assert_eq!(drain_runq(&shared), [1, 2]);
        assert!(shared.locals.iter().all(WorkStealingDeque::is_empty));

        // A source's yield (a quantum of 1, two tuples left): the injector.
        let tuples = (0..3).map(|v| Tuple::new(*b"k", v));
        let source =
            TaskKind::Spout { spout: spout_from_iter(tuples), exhausted: false, ingress: None };
        *lock(&shared.tasks[3].body) =
            Some(Box::new(TaskBody::new("src".into(), 0, source, Vec::new(), 1.0, None)));
        // ordering: SeqCst — as above (SC-only model)
        shared.tasks[3].state.store(QUEUED, SeqCst);
        run_task(&shared, 3, 1);
        assert_eq!(drain_runq(&shared), [3]);
        assert!(shared.locals.iter().all(WorkStealingDeque::is_empty));

        // A bolt's yield: the back of its worker's deque, behind task 2.
        let bolt = TaskKind::Bolt {
            bolt: Box::new(CountingBolt::default()),
            eof_remaining: 1,
            tick_period_ns: None,
            next_tick_ns: u64::MAX,
        };
        *lock(&shared.tasks[0].body) =
            Some(Box::new(TaskBody::new("bolt".into(), 0, bolt, Vec::new(), 1.0, None)));
        // ordering: SeqCst — as above; the first row left task 0 QUEUED
        shared.tasks[0].state.store(IDLE, SeqCst);
        let two = (0..2).map(|v| Packet::Tuple(Tuple::new(*b"k", v)));
        shared.push_run(0, two, &mut VecDeque::new(), None);
        assert_eq!(drain_runq(&shared), [0], "the push woke the bolt from no worker");
        shared.push_local(1, 2);
        run_task(&shared, 0, 1);
        assert_eq!(drain(&shared.locals[1]), [2, 0]);
        assert!(drain_runq(&shared).is_empty());

        // Under dedicated threads every wake unparks the task's owner.
        let parker = Parker::new();
        let mut shared = mini_shared(1, 4);
        shared.owners = vec![Owner { unparker: parker.unparker(), deadlines: Mutex::default() }];
        shared.wake(0, &WakeKind::Notify, Some(0));
        assert!(parker.park_timeout(Duration::ZERO), "the owner was unparked");
        assert!(shared.locals[0].is_empty());
        assert!(drain_runq(&shared).is_empty());
    }
    /// Every `idle_wait` whose re-check finds every queue empty ends in
    /// exactly one park or one spin, and one that finds work in neither:
    /// the identity behind `WorkerStats::{parks, spins}`.
    #[test]
    fn an_idle_wait_that_finds_nothing_parks_or_spins_exactly_once() {
        let shared = mini_shared(1, 4);
        let parker = Parker::new();
        let stats = |shared: &Shared| shared.counters[0].snapshot();
        let waits = |parks, spins| WorkerStats { parks, spins, ..WorkerStats::default() };
        let arm_in = |shared: &Shared, ns| {
            let deadline = shared.now_ns() + ns;
            lock(&shared.sched).timers.insert(deadline, 0);
        };
        // Nothing queued, no deadline: a park, which a pending unpark ends.
        parker.unparker().unpark();
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(1, 0));
        // A deadline inside the spin window: a spin, ended by the clock.
        arm_in(&shared, 2_000);
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(1, 1));
        // A deadline past the window: a park.
        lock(&shared.sched).timers = TimerWheel::new();
        arm_in(&shared, 10 * SPIN_WINDOW_NS);
        parker.unparker().unpark();
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(2, 1));
        // A near deadline while another worker holds the spinner slot: a park.
        lock(&shared.sched).timers = TimerWheel::new();
        arm_in(&shared, SPIN_WINDOW_NS / 2);
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.spinner.store(1, SeqCst);
        parker.unparker().unpark();
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(3, 1));
        // ordering: SeqCst — as above
        assert_eq!(shared.spinner.load(SeqCst), 1, "a parker leaves the slot alone");
        // ordering: SeqCst — as above
        shared.spinner.store(0, SeqCst);
        // Work found by the re-check: neither.
        lock(&shared.sched).runq.push_back(0);
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(3, 1));
        lock(&shared.sched).runq.clear();
        // Every task done: neither.
        // ordering: SeqCst — as above
        shared.remaining.store(0, SeqCst);
        idle_wait(&shared, 0, &parker);
        assert_eq!(stats(&shared), waits(3, 1));
        // ordering: SeqCst — as above
        assert_eq!(shared.spinner.load(SeqCst), 0, "the spinner released its slot");
        assert_eq!(shared.idle.load(SeqCst), 0, "every wait deregistered");
    }

    /// `inject` counts the deadlines it fires on the worker that fired them,
    /// with their summed lateness.
    #[test]
    fn inject_counts_fired_timers_and_their_lateness() {
        let mut shared = with_workers(mini_shared(2, 4), 2);
        // The clock reads at least 1 ms.
        let Some(epoch) = Instant::now().checked_sub(Duration::from_millis(1)) else {
            return;
        };
        shared.epoch = epoch;
        {
            let mut s = lock(&shared.sched);
            s.timers.insert(1_000, 0);
            s.timers.insert_unpark(3_000, 1);
            s.timers.insert(1_000_000_000_000, 1);
        }
        let mut due = Vec::new();
        assert_eq!(inject(&shared, 1, &mut due), Some(0), "fired onto the injector");
        let fired = shared.counters[1].snapshot();
        assert_eq!(fired.timers_fired, 2, "the far deadline is not due");
        let least = 2 * 1_000_000 - 1_000 - 3_000;
        assert!(fired.timer_late_ns >= least, "Σ lateness: {}", fired.timer_late_ns);
        assert_eq!(shared.counters[0].snapshot(), WorkerStats::default());
    }

    /// A relay: every input tuple goes on downstream.
    struct Relay;

    impl Bolt for Relay {
        fn execute(&mut self, tuple: Tuple, out: &mut Emitter<'_>) {
            out.emit(tuple);
        }
    }

    fn tuple(v: i64) -> Packet {
        Packet::Tuple(Tuple::new(*b"k", v))
    }

    /// Task 1 of a two-task `mini_shared` (capacity 4): `bolt`, fed `input`
    /// tuples and QUEUED, with one earlier delivery to task 0 spilled in its
    /// outbox — a backlog, since task 0's mailbox is full. With `tick`, the
    /// bolt ticks every second and its first tick is overdue.
    fn backlogged(bolt: Box<dyn Bolt>, tick: bool, input: i64) -> Shared {
        let shared = mini_shared(2, 4);
        shared.push_run(0, (0..4).map(tuple), &mut VecDeque::new(), None);
        let edge = OutEdge {
            router: Router::new(&crate::grouping::Grouping::Key, 1, 7, 0),
            tx: EdgeTx::Tasks(vec![0]),
            hedge: None,
            signals: None,
        };
        let kind = TaskKind::Bolt {
            bolt,
            eof_remaining: 1,
            tick_period_ns: tick.then_some(1_000_000_000),
            next_tick_ns: if tick { 1 } else { u64::MAX },
        };
        let mut body = TaskBody::new("bolt".into(), 0, kind, vec![edge], 1.0, None);
        body.outlet.outbox.push_back((0, tuple(100)));
        *lock(&shared.tasks[1].body) = Some(Box::new(body));
        shared.push_run(1, (0..input).map(tuple), &mut VecDeque::new(), None);
        drain_runq(&shared);
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.tasks[1].state.store(QUEUED, SeqCst);
        shared
    }

    /// Run task 1's body through `f` (between activations).
    fn bolt_body<R>(shared: &Shared, f: impl FnOnce(&TaskBody) -> R) -> R {
        let guard = lock(&shared.tasks[1].body);
        let Some(body) = guard.as_deref() else { unreachable!("task 1 is not running") };
        f(body)
    }

    fn state(shared: &Shared, tid: usize) -> u8 {
        // ordering: SeqCst — single-threaded fixture read (SC-only model)
        shared.tasks[tid].state.load(SeqCst)
    }

    fn waiters(shared: &Shared, tid: usize) -> Vec<usize> {
        match shared.mailbox(tid) {
            Mailbox::Mutexed { inner, .. } => lock(inner).waiters.clone(),
            Mailbox::Ring(_) => unreachable!("mini_shared mailboxes are mutexed"),
        }
    }

    /// Task 0 drains its mailbox, as its activation's refill would.
    fn consumer_drains(shared: &Shared) {
        shared.refill_inbox(0, &mut PacketBatch::default(), 64);
    }

    #[test]
    fn a_backlogged_bolt_reads_its_input_and_idles_registered() {
        let shared = backlogged(Box::new(CountingBolt::default()), false, 3);
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.processed), 3, "the backlog did not stop the input");
        assert_eq!(bolt_body(&shared, |b| b.outlet.outbox.len()), 1, "the backlog still waits");
        assert_eq!(state(&shared, 1), IDLE, "a dry mailbox settles Idle, not Park");
        assert_eq!(waiters(&shared, 0), [1], "the failed retry registered the waiter");
        consumer_drains(&shared);
        assert_eq!(drain_runq(&shared), [1], "the release queues the idle bolt");
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.outlet.outbox.len()), 0, "the retry delivered");
    }

    #[test]
    fn a_backlogged_bolt_parks_after_the_tuple_whose_output_joined_it() {
        let shared = backlogged(Box::new(Relay), false, 3);
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.processed), 1, "parked right after that tuple");
        assert_eq!(bolt_body(&shared, |b| b.outlet.outbox.len()), 2, "one tuple's output joined");
        assert_eq!(state(&shared, 1), PARKED);
        assert_eq!(waiters(&shared, 0), [1]);
        // Resumed with the consumer still full: held until the outbox drains.
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.tasks[1].state.store(QUEUED, SeqCst);
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.processed), 1, "a held bolt reads no input");
        assert_eq!(state(&shared, 1), PARKED);
        consumer_drains(&shared);
        assert_eq!(drain_runq(&shared), [1], "the release queues the held bolt");
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.processed), 3, "released, it reads the rest");
    }

    #[test]
    fn an_overdue_tick_waits_for_the_backlog_to_clear() {
        let shared = backlogged(Box::new(CountingBolt::default()), true, 0);
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.ticks), 0, "deferred behind the backlog");
        assert_eq!(state(&shared, 1), IDLE);
        assert_eq!(waiters(&shared, 0), [1]);
        consumer_drains(&shared);
        assert_eq!(drain_runq(&shared), [1], "the release queues the bolt");
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.ticks), 1, "fired once the outbox drained");
        assert_eq!(bolt_body(&shared, |b| b.outlet.outbox.len()), 0);
    }
}

#[cfg(all(test, feature = "pkg_model"))]
#[path = "pool_model.rs"]
mod pool_model;
