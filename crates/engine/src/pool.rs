//! The pool schedule: a fixed set of worker threads ([`worker_loop`]) pick
//! tasks from their own Chase–Lev deques and inboxes, then each other's,
//! then a global injector; tick and stall deadlines live in one central
//! [`TimerWheel`](crate::timer) that the workers fire when they visit the
//! injector. A data wake follows the task, not the sender: the woken
//! consumer queues on the worker that last ran it — its own deque when
//! that is the waker (lock-free), that worker's mutexed inbox otherwise —
//! so its window table, latency histogram and body stay on one core
//! instead of following whichever source filled its mailbox. A task that
//! never ran has no such core, and queues on the waker's deque. The
//! injector carries only what starts a cascade — the initial sources, a
//! source's requeue, backpressure releases and timer fires — so every local
//! cascade is bounded by what one source quantum or one deadline produced,
//! and picking local work first cannot starve them.

#![warn(clippy::pedantic)]

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam::deque::{Steal, WorkStealingDeque};

use crate::metrics::WorkerStats;
use crate::schedule::{Shared, MAX_IDLE_PARK};
use crate::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::SeqCst};
use crate::sync::{lock, spin_loop, Mutex, Parker, Unparker};
use crate::task::{run_task, WakeKind};
use crate::timer::TimerWheel;

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

/// The injector and the timer wheel, under one lock.
struct Sched {
    runq: VecDeque<usize>,
    timers: TimerWheel,
}

/// [`Pool::last`] of a task that has never run.
const NEVER_RAN: usize = usize::MAX;

/// The pool schedule's state: nothing here exists under dedicated threads.
pub(crate) struct Pool {
    sched: Mutex<Sched>,
    /// Per-worker run queues: a worker's bolts' requeues and the data wakes
    /// its activations raise for tasks it ran last (or that never ran).
    /// Each is a Chase–Lev deque: worker `w` alone pushes onto queue `w`
    /// (no lock), and every worker — `w` included — takes the oldest entry
    /// by CAS, so a worker runs its own queue in wake order.
    locals: Vec<WorkStealingDeque>,
    /// Per-worker inboxes: the data wakes raised on another worker for the
    /// tasks this worker ran last.
    inboxes: Vec<Inbox>,
    /// Per task, the worker that last ran it ([`NEVER_RAN`] before its
    /// first activation); written by that worker before each activation.
    last: Vec<AtomicUsize>,
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
    /// Per-worker scheduler counters, indexed by worker id.
    counters: Vec<WorkerCounters>,
}

/// One pool worker's [`WorkerStats`] as they accrue: written by that worker
/// alone, and on a cache line of its own so the writes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct WorkerCounters {
    runs: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    spins: AtomicU64,
    timers_fired: AtomicU64,
    timer_late_ns: AtomicU64,
}

impl WorkerCounters {
    fn bump(counter: &AtomicU64, by: u64) {
        // ordering: SeqCst — statistics only, kept at the runtime's policy
        // ordering (SC-only model)
        counter.fetch_add(by, SeqCst);
    }

    fn snapshot(&self) -> WorkerStats {
        // ordering: SeqCst — read once every worker has joined (SC-only model)
        let read = |counter: &AtomicU64| counter.load(SeqCst);
        WorkerStats {
            runs: read(&self.runs),
            steals: read(&self.steals),
            parks: read(&self.parks),
            spins: read(&self.spins),
            timers_fired: read(&self.timers_fired),
            timer_late_ns: read(&self.timer_late_ns),
        }
    }
}

/// One worker's inbox: a mutexed FIFO any worker pushes onto and takes
/// from, beside its length, which lets a pick skip the lock while it is
/// empty. On a cache line of its own, so two inboxes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Inbox {
    queue: Mutex<VecDeque<usize>>,
    len: AtomicUsize,
}

impl Inbox {
    fn push(&self, t: usize) {
        let mut queue = lock(&self.queue);
        queue.push_back(t);
        // ordering: SeqCst — raised before the waker reads the idle count;
        // pairs with an idler's raise-then-re-check (SC-only model)
        self.len.fetch_add(1, SeqCst);
    }

    fn pop(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut queue = lock(&self.queue);
        let t = queue.pop_front()?;
        // ordering: SeqCst — lowered under the lock, like push's raise, so
        // the length is the queue's whenever the lock is free (SC-only model)
        self.len.fetch_sub(1, SeqCst);
        Some(t)
    }

    fn is_empty(&self) -> bool {
        // ordering: SeqCst — a lock-free read of push's raise (SC-only model)
        self.len.load(SeqCst) == 0
    }
}

impl Pool {
    /// `workers` workers over `tasks` tasks, every queue empty.
    pub(crate) fn new(workers: usize, tasks: usize) -> Self {
        Self {
            sched: Mutex::new(Sched { runq: VecDeque::new(), timers: TimerWheel::new() }),
            // Each task id is queued at most once across all queues (the
            // QUEUED state is exclusive), so `tasks + 1` slots never fill.
            locals: (0..workers).map(|_| WorkStealingDeque::new(tasks + 1)).collect(),
            inboxes: (0..workers).map(|_| Inbox::default()).collect(),
            last: (0..tasks).map(|_| AtomicUsize::new(NEVER_RAN)).collect(),
            idlers: Mutex::new(Vec::new()),
            idle: AtomicUsize::new(0),
            remaining: AtomicUsize::new(tasks),
            spinner: AtomicU8::new(0),
            counters: (0..workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// Queue task `t`, which a wake just made QUEUED; `wid` is the worker
    /// whose activation raised the wake. Where it queues is fixed by the
    /// wake and by `v`, the worker that last ran `t`:
    ///
    /// | wake | queue |
    /// |------|-------|
    /// | `Notify` from worker `w`, `v = w` or `t` never ran | `locals[w]`, lock-free |
    /// | `Notify` from worker `w`, `v ≠ w` | `inboxes[v]` |
    /// | `Unpark` (a release), or from no worker | the injector |
    pub(crate) fn wake(&self, t: usize, kind: &WakeKind, wid: Option<usize>) {
        match (kind, wid) {
            (WakeKind::Notify, Some(w)) => {
                // ordering: SeqCst — written before `t`'s last activation,
                // which precedes the state CAS that made this wake queue it
                // (SC-only model)
                match self.last[t].load(SeqCst) {
                    v if v == w || v == NEVER_RAN => self.push_local(w, t),
                    v => self.inboxes[v].push(t),
                }
            }
            _ => lock(&self.sched).runq.push_back(t),
        }
        self.unpark_one_idler();
    }

    /// Insert a deadline for task `t` into the shared timer wheel.
    pub(crate) fn arm(&self, t: usize, deadline_ns: u64, kind: &WakeKind) {
        let mut s = lock(&self.sched);
        match kind {
            WakeKind::Notify => s.timers.insert(deadline_ns, t),
            WakeKind::Unpark => s.timers.insert_unpark(deadline_ns, t),
        }
    }

    /// Requeue task `t` after its activation on worker `wid`: a bolt onto
    /// that worker's deque. A source queues behind the consumers it just
    /// woke onto this worker's deque, and re-enters only through the
    /// injector.
    pub(crate) fn requeue(&self, t: usize, wid: usize, source: bool) {
        if source {
            lock(&self.sched).runq.push_back(t);
        } else {
            self.push_local(wid, t);
        }
    }

    /// Run every task on the workers until all are DONE; returns each
    /// worker's scheduler counters.
    pub(crate) fn run(&self, shared: &Shared) -> Vec<WorkerStats> {
        std::thread::scope(|scope| {
            for wid in 0..self.locals.len() {
                scope.spawn(move || worker_loop(shared, self, wid));
            }
        });
        self.counters.iter().map(WorkerCounters::snapshot).collect()
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

    /// Whether every worker's deque and inbox is (observably) empty.
    fn local_queues_empty(&self) -> bool {
        self.locals.iter().all(WorkStealingDeque::is_empty)
            && self.inboxes.iter().all(Inbox::is_empty)
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

/// Take the oldest task of worker `wid`'s own deque, else of its own inbox,
/// else steal the oldest of a sibling's inbox, then of its deque, counting
/// the steal on `wid`. Oldest first on the own queues too: a woken consumer
/// runs in wake order, behind the tasks woken before it.
fn pick(pool: &Pool, wid: usize) -> Option<usize> {
    let n = pool.locals.len();
    for k in 0..n {
        let victim = (wid + k) % n;
        let inbox = &pool.inboxes[victim];
        let found = if k == 0 {
            take(&pool.locals[victim]).or_else(|| inbox.pop())
        } else {
            inbox.pop().or_else(|| take(&pool.locals[victim]))
        };
        if found.is_some() {
            if k != 0 {
                WorkerCounters::bump(&pool.counters[wid].steals, 1);
            }
            return found;
        }
    }
    None
}

/// Take the oldest task of `deque`.
fn take(deque: &WorkStealingDeque) -> Option<usize> {
    loop {
        match deque.steal() {
            Steal::Success(tid) => return Some(tid),
            // Lost a CAS race: someone else is making progress on this
            // deque; try it again before moving on.
            Steal::Retry => {}
            Steal::Empty => return None,
        }
    }
}

/// Fire the timer wheel's due deadlines onto the injector, counting them
/// and their lateness on worker `wid`, then pop the injector's oldest task.
fn inject(shared: &Shared, pool: &Pool, wid: usize, due: &mut Vec<(usize, bool)>) -> Option<usize> {
    let mut s = lock(&pool.sched);
    due.clear();
    let late_ns = s.timers.fire(shared.now_ns(), due);
    if !due.is_empty() {
        let counters = &pool.counters[wid];
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

fn worker_loop(shared: &Shared, pool: &Pool, wid: usize) {
    let parker = Parker::new();
    let mut due: Vec<(usize, bool)> = Vec::new();
    loop {
        // Pick order: own deque and inbox (oldest first) → a sibling's →
        // the injector and due timers. Sources and deadlines enter only
        // through the injector, so the local queues drain between two
        // visits to it.
        match pick(pool, wid).or_else(|| inject(shared, pool, wid, &mut due)) {
            Some(tid) => run_picked(shared, pool, wid, tid),
            // ordering: SeqCst — exit check pairs with run_picked's final
            // decrement (SC-only model)
            None if pool.remaining.load(SeqCst) == 0 => {
                pool.unpark_all_idlers();
                return;
            }
            None => idle_wait(shared, pool, wid, &parker),
        }
    }
}

/// Run the activation of `tid` that worker `wid` just picked, recording
/// `wid` as the worker that last ran it and counting the run.
fn run_picked(shared: &Shared, pool: &Pool, wid: usize, tid: usize) {
    let last = &pool.last[tid];
    // Stored only on a change, so a task that stays put never dirties the
    // line its neighbours' wakes read.
    // ordering: SeqCst — read and written only while `tid` is QUEUED or
    // RUNNING here, ahead of the state CAS a later wake needs (SC-only model)
    if last.load(SeqCst) != wid {
        // ordering: SeqCst — as the load above (SC-only model)
        last.store(wid, SeqCst);
    }
    WorkerCounters::bump(&pool.counters[wid].runs, 1);
    // ordering: SeqCst — the final decrement pairs with the idle workers'
    // remaining-count exit checks (SC-only model)
    if run_task(shared, tid, wid) && pool.remaining.fetch_sub(1, SeqCst) == 1 {
        pool.unpark_all_idlers();
    }
}

/// Wait, as worker `wid`, for a wake, the next timer deadline or the
/// backstop. It registers as idle *before* re-checking every queue: a waker
/// that pushes after the re-check reads the raised idle count and pops our
/// unparker, and a pre-park unpark makes park return immediately (no lost
/// wake). The re-check covers every deque and inbox, so a local wake that
/// raced the registration is taken now instead of after the backstop.
///
/// A re-check that finds nothing ends in exactly one park or one spin. A
/// park returns late (see `SPIN_WINDOW_NS`), so a worker whose next
/// deadline is nearer than the window spins toward it instead, if it can
/// claim the spinner slot; the others park as before. The spinner stays
/// registered, so a wake reaches it through its token like any idler's, and
/// it releases the slot only after its deregistration.
fn idle_wait(shared: &Shared, pool: &Pool, wid: usize, parker: &Parker) {
    lock(&pool.idlers).push((wid, parker.unparker()));
    // ordering: SeqCst — the raise precedes the re-check below; pairs with
    // the waker's push-then-read in unpark_one_idler (SC-only model)
    pool.idle.fetch_add(1, SeqCst);
    let (empty, next_deadline) = {
        let s = lock(&pool.sched);
        (s.runq.is_empty(), s.timers.next_deadline_ns())
    };
    let empty = empty && pool.local_queues_empty();
    let mut spun = false;
    // ordering: SeqCst — re-check under idler registration (SC-only model)
    if empty && pool.remaining.load(SeqCst) != 0 {
        let counters = &pool.counters[wid];
        let now = shared.now_ns();
        let near = next_deadline.filter(|d| d.saturating_sub(now) < SPIN_WINDOW_NS);
        // ordering: SeqCst — the slot claim; one total order with the
        // other idlers' claims and the holder's release (SC-only model)
        spun = near.is_some() && pool.spinner.compare_exchange(0, 1, SeqCst, SeqCst).is_ok();
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
    lock(&pool.idlers).retain(|(w, _)| *w != wid);
    // ordering: SeqCst — lowered only after the registration is gone
    // (SC-only model)
    pool.idle.fetch_sub(1, SeqCst);
    if spun {
        // ordering: SeqCst — released after the deregistration, so every
        // registered idler that has spun holds the slot: what model
        // invariant 11(b) observes (SC-only model)
        pool.spinner.store(0, SeqCst);
    }
}

/// Spin until `parker`'s token is set or the clock reaches `deadline_ns`.
/// The exit test reads only the token and the clock: polling the siblings'
/// queues too would only add cache traffic to a busy worker, since every
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::{Bolt, CountingBolt, EdgeTx, Emitter, OutEdge};
    use crate::grouping::Router;
    use crate::schedule::{Schedule, DEFAULT_BATCH};
    use crate::spout::spout_from_iter;
    use crate::task::{TaskBody, TaskKind, TaskSlot, IDLE, PARKED, QUEUED};
    use crate::threads::Owner;
    use crate::transport::Mailbox;
    use crate::tuple::{Packet, PacketBatch, Tuple};
    use std::time::Instant;

    /// A `Shared` with `n_tasks` bolt-like slots (mailbox capacity `cap`) and
    /// one pool worker; enough to race producers against settlement. The
    /// one builder every unit and model fixture starts from.
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
            schedule: Schedule::Pool(Box::new(Pool::new(1, n_tasks))),
            epoch: Instant::now(),
            batch: DEFAULT_BATCH,
            stats: Mutex::new(Vec::new()),
        }
    }

    /// `shared` with `n` workers: a deque and a counter block each.
    pub(super) fn with_workers(mut shared: Shared, n: usize) -> Shared {
        shared.schedule = Schedule::Pool(Box::new(Pool::new(n, shared.tasks.len())));
        shared
    }

    /// The pool schedule of a pool fixture.
    pub(super) fn pool(shared: &Shared) -> &Pool {
        let Schedule::Pool(pool) = &shared.schedule else { unreachable!("a pool fixture") };
        pool
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
        lock(&pool(shared).sched).runq.drain(..).collect()
    }

    fn drain_inbox(shared: &Shared, w: usize) -> Vec<usize> {
        std::iter::from_fn(|| pool(shared).inboxes[w].pop()).collect()
    }

    /// Where each kind of wake and requeue queues its task — the pool's
    /// whole wake rule, one row at a time.
    #[test]
    fn wakes_queue_on_the_tasks_last_worker_and_releases_on_the_injector() {
        let mut shared = with_workers(mini_shared(4, 4), 2);
        shared.batch = 1;
        let last = |shared: &Shared, t: usize, w: usize| {
            // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
            pool(shared).last[t].store(w, SeqCst);
        };

        // A data wake from worker 1 for a task last run on worker 0: worker
        // 0's inbox, every deque and the injector untouched.
        last(&shared, 0, 0);
        shared.wake(0, &WakeKind::Notify, Some(1));
        assert_eq!(drain_inbox(&shared, 0), [0]);
        assert!(pool(&shared).local_queues_empty());
        assert!(drain_runq(&shared).is_empty());

        // The same wake for a task that never ran: worker 1's deque.
        shared.wake(1, &WakeKind::Notify, Some(1));
        assert_eq!(drain(&pool(&shared).locals[1]), [1]);
        assert!(pool(&shared).local_queues_empty());
        assert!(drain_runq(&shared).is_empty());

        // A release, even from a worker and for a task last run on another,
        // and any wake from outside a worker: the injector.
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.tasks[2].state.store(PARKED, SeqCst);
        last(&shared, 2, 0);
        shared.wake(2, &WakeKind::Unpark, Some(1));
        shared.wake(3, &WakeKind::Notify, None);
        assert_eq!(drain_runq(&shared), [2, 3]);
        assert!(pool(&shared).local_queues_empty());

        // A source's yield (a quantum of 1, two tuples left): the injector.
        let tuples = (0..3).map(|v| Tuple::new(*b"k", v));
        let source =
            TaskKind::Spout { spout: spout_from_iter(tuples), exhausted: false, ingress: None };
        *lock(&shared.tasks[3].body) =
            Some(Box::new(TaskBody::new("src".into(), 0, source, Vec::new(), 1.0, None)));
        run_task(&shared, 3, 1);
        assert_eq!(drain_runq(&shared), [3]);
        assert!(pool(&shared).local_queues_empty());

        // A bolt's yield: the back of the deque of the worker that ran it,
        // behind task 2, though the bolt last ran on worker 0.
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
        pool(&shared).push_local(1, 2);
        run_task(&shared, 0, 1);
        assert_eq!(drain(&pool(&shared).locals[1]), [2, 0]);
        assert!(pool(&shared).local_queues_empty());
        assert!(drain_runq(&shared).is_empty());

        // Under dedicated threads every wake unparks the task's owner, which
        // has no queue to put it on.
        let mut shared = mini_shared(1, 4);
        shared.schedule = Schedule::Threads(vec![Owner::new()]);
        shared.wake(0, &WakeKind::Notify, Some(0));
        let Schedule::Threads(owners) = &shared.schedule else { unreachable!("set above") };
        assert!(owners[0].parker.park_timeout(Duration::ZERO), "the owner was unparked");
    }
    /// Every `idle_wait` whose re-check finds every queue empty ends in
    /// exactly one park or one spin, and one that finds work in neither:
    /// the identity behind `WorkerStats::{parks, spins}`.
    #[test]
    fn an_idle_wait_that_finds_nothing_parks_or_spins_exactly_once() {
        let shared = mini_shared(1, 4);
        let pool = pool(&shared);
        let parker = Parker::new();
        let stats = |pool: &Pool| pool.counters[0].snapshot();
        let waits = |parks, spins| WorkerStats { parks, spins, ..WorkerStats::default() };
        let arm_in = |shared: &Shared, ns| {
            let deadline = shared.now_ns() + ns;
            lock(&pool.sched).timers.insert(deadline, 0);
        };
        // Nothing queued, no deadline: a park, which a pending unpark ends.
        parker.unparker().unpark();
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(1, 0));
        // A deadline inside the spin window: a spin, ended by the clock.
        arm_in(&shared, 2_000);
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(1, 1));
        // A deadline past the window: a park.
        lock(&pool.sched).timers = TimerWheel::new();
        arm_in(&shared, 10 * SPIN_WINDOW_NS);
        parker.unparker().unpark();
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(2, 1));
        // A near deadline while another worker holds the spinner slot: a park.
        lock(&pool.sched).timers = TimerWheel::new();
        arm_in(&shared, SPIN_WINDOW_NS / 2);
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        pool.spinner.store(1, SeqCst);
        parker.unparker().unpark();
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(3, 1));
        // ordering: SeqCst — as above
        assert_eq!(pool.spinner.load(SeqCst), 1, "a parker leaves the slot alone");
        // ordering: SeqCst — as above
        pool.spinner.store(0, SeqCst);
        // Work found by the re-check: neither.
        lock(&pool.sched).runq.push_back(0);
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(3, 1));
        lock(&pool.sched).runq.clear();
        // Every task done: neither.
        // ordering: SeqCst — as above
        pool.remaining.store(0, SeqCst);
        idle_wait(&shared, pool, 0, &parker);
        assert_eq!(stats(pool), waits(3, 1));
        // ordering: SeqCst — as above
        assert_eq!(pool.spinner.load(SeqCst), 0, "the spinner released its slot");
        assert_eq!(pool.idle.load(SeqCst), 0, "every wait deregistered");
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
        let pool = pool(&shared);
        {
            let mut s = lock(&pool.sched);
            s.timers.insert(1_000, 0);
            s.timers.insert_unpark(3_000, 1);
            s.timers.insert(1_000_000_000_000, 1);
        }
        let mut due = Vec::new();
        assert_eq!(inject(&shared, pool, 1, &mut due), Some(0), "fired onto the injector");
        let fired = pool.counters[1].snapshot();
        assert_eq!(fired.timers_fired, 2, "the far deadline is not due");
        let least = 2 * 1_000_000 - 1_000 - 3_000;
        assert!(fired.timer_late_ns >= least, "Σ lateness: {}", fired.timer_late_ns);
        assert_eq!(pool.counters[0].snapshot(), WorkerStats::default());
    }
    /// `pick` takes from the own deque, then the own inbox, then a
    /// sibling's inbox and deque; only the last two count a steal, on the
    /// worker that took the task.
    #[test]
    fn a_steal_counts_on_the_worker_that_took_the_task() {
        let shared = with_workers(mini_shared(4, 4), 2);
        let pool = pool(&shared);
        let steals = |w: usize| pool.counters[w].snapshot().steals;
        pool.push_local(1, 0);
        pool.inboxes[1].push(1);
        assert_eq!(pick(pool, 1), Some(0), "its own deque first");
        assert_eq!(pick(pool, 1), Some(1), "then its own inbox");
        assert_eq!((steals(0), steals(1)), (0, 0), "neither is a steal");
        pool.push_local(0, 2);
        pool.inboxes[0].push(3);
        assert_eq!(pick(pool, 1), Some(3), "a sibling's inbox before its deque");
        assert_eq!(pick(pool, 1), Some(2));
        assert_eq!(pick(pool, 1), None);
        assert_eq!((steals(0), steals(1)), (0, 2), "both counted on the thief");
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
        queue_bolt(&shared, bolt, tick, input, Some(tuple(100)));
        shared
    }

    /// Install `bolt` as task 1 of `shared`, its one out-edge to task 0, fed
    /// `input` tuples and QUEUED, with `spilled` in its outbox. With `tick`,
    /// the bolt ticks every second and its first tick is overdue.
    fn queue_bolt(
        shared: &Shared,
        bolt: Box<dyn Bolt>,
        tick: bool,
        input: i64,
        spilled: Option<Packet>,
    ) {
        let edge = OutEdge {
            router: Router::new(&crate::grouping::Grouping::Key, 1, 7, 0),
            tx: EdgeTx::Tasks(vec![0]),
            signals: None,
            share: 1,
        };
        let kind = TaskKind::Bolt {
            bolt,
            eof_remaining: 1,
            tick_period_ns: tick.then_some(1_000_000_000),
            next_tick_ns: if tick { 1 } else { u64::MAX },
        };
        let mut body = TaskBody::new("bolt".into(), 0, kind, vec![edge], 1.0, None);
        body.outlet.outbox.extend(spilled.map(|p| (0, p)));
        *lock(&shared.tasks[1].body) = Some(Box::new(body));
        shared.push_run(1, (0..input).map(tuple), &mut VecDeque::new(), None);
        drain_runq(shared);
        // ordering: SeqCst — single-threaded fixture set-up (SC-only model)
        shared.tasks[1].state.store(QUEUED, SeqCst);
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

    /// A phase-one bolt: its tick hands over the partials 0..10 as one
    /// cursor, and it emits nothing per input tuple.
    struct Pane;

    impl Bolt for Pane {
        fn execute(&mut self, _tuple: Tuple, _out: &mut Emitter<'_>) {}

        fn tick(&mut self, out: &mut Emitter<'_>) {
            out.emit_iter((0..10u8).map(|v| Tuple::new(*b"k", i64::from(v))));
        }
    }

    /// Task 0 drains its mailbox; the values it read, in order.
    fn consumer_reads(shared: &Shared) -> Vec<i64> {
        let mut inbox = PacketBatch::default();
        shared.refill_inbox(0, &mut inbox, 64);
        std::iter::from_fn(|| match inbox.pop()? {
            Packet::Tuple(t) => Some(t.value),
            Packet::Eof => unreachable!("no Eof was sent"),
        })
        .collect()
    }

    #[test]
    fn a_ticks_cursor_is_pulled_into_free_slots_and_spills_one_tuple() {
        let shared = mini_shared(2, 4);
        queue_bolt(&shared, Box::new(Pane), true, 3, None);
        run_task(&shared, 1, 0);
        assert_eq!(bolt_body(&shared, |b| b.ticks), 1);
        assert_eq!(bolt_body(&shared, |b| b.processed), 3, "the cursor did not stop the input");
        assert_eq!(
            bolt_body(&shared, |b| b.outlet.outbox.len()),
            1,
            "4 pulled into 4 slots, 1 spilled"
        );
        assert_eq!(state(&shared, 1), IDLE);
        assert_eq!(waiters(&shared, 0), [1], "the spill's retry registered the waiter");
        let mut seen = Vec::new();
        while bolt_body(&shared, |b| b.outlet.cursor.is_some() || !b.outlet.outbox.is_empty()) {
            seen.extend(consumer_reads(&shared));
            assert_eq!(drain_runq(&shared), [1], "the release queues the bolt");
            run_task(&shared, 1, 0);
            // The outbox never holds more than the one pulled tuple that met
            // the full mailbox (this bolt's input emits nothing).
            assert!(bolt_body(&shared, |b| b.outlet.outbox.len()) <= 1);
        }
        seen.extend(consumer_reads(&shared));
        assert_eq!(seen, (0..10).collect::<Vec<_>>(), "every partial once, in order");
        assert_eq!(bolt_body(&shared, |b| b.outlet.spilled), 2, "one spill per full mailbox met");
    }
}

#[cfg(all(test, feature = "pkg_model"))]
#[path = "pool_model.rs"]
mod pool_model;
