//! The dedicated-thread schedule (`ExecutorMode::ThreadPerInstance` — the
//! paper's one executor per instance): one thread per task runs that task
//! only ([`owner_loop`]). A wake unparks the owner instead of queueing the
//! task, and the owner records its task's own next deadlines instead of a
//! shared wheel. An owner has no run queue: its task is runnable exactly
//! when its state is QUEUED, and only the owner moves a QUEUED task on.

#![warn(clippy::pedantic)]

use std::time::Duration;

use crate::schedule::{Shared, MAX_IDLE_PARK};
use crate::sync::atomic::Ordering::SeqCst;
use crate::sync::{lock, Mutex, Parker, Unparker};
use crate::task::{run_task, WakeKind, DONE, QUEUED};

/// A dedicated thread's hold on its one task: how it parks and is woken,
/// and the task's pending deadlines.
pub(crate) struct Owner {
    /// Parked on by the owner thread alone.
    pub(crate) parker: Parker,
    pub(crate) unparker: Unparker,
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

impl Owner {
    pub(crate) fn new() -> Self {
        let parker = Parker::new();
        Self { unparker: parker.unparker(), parker, deadlines: Mutex::default() }
    }

    /// Record a deadline as the task's own next tick (`Notify`) or the end
    /// of its stall (`Unpark`).
    pub(crate) fn arm(&self, deadline_ns: u64, kind: &WakeKind) {
        let mut d = lock(&self.deadlines);
        match kind {
            WakeKind::Notify => d.tick_ns = deadline_ns,
            WakeKind::Unpark => d.stall_ns = deadline_ns,
        }
    }
}

/// Run every task on a dedicated thread of its own until all are DONE.
pub(crate) fn run(shared: &Shared, owners: &[Owner]) {
    std::thread::scope(|scope| {
        for (tid, owner) in owners.iter().enumerate() {
            scope.spawn(move || owner_loop(shared, owner, tid));
        }
    });
}

/// One pass of `owner` over its task `tid` with the clock at `now_ns`: fire
/// the task's due deadlines, then run one activation if the task is
/// runnable. Returns how long the owner may park before its next pass
/// (zero right after an activation, so the state it settled into is
/// re-read before any park), or `None` once the task is DONE.
pub(crate) fn owner_pass(
    shared: &Shared,
    owner: &Owner,
    tid: usize,
    now_ns: u64,
) -> Option<Duration> {
    let slot = &shared.tasks[tid];
    let next_ns = {
        let mut guard = lock(&owner.deadlines);
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
    // Runnable: requeued by its own last activation, or woken by a
    // producer, consumer or deadline — QUEUED either way.
    // ordering: SeqCst — pairs with the requeue's QUEUED store and the
    // waker's IDLE/PARKED→QUEUED CAS; a CAS after this read also unparks
    // us, so the park below returns at once (SC-only model)
    if slot.state.load(SeqCst) == QUEUED {
        run_task(shared, tid, tid);
        return Some(Duration::ZERO);
    }
    // ordering: SeqCst — DONE is stored by this thread's own run_task (SC-only model)
    if slot.state.load(SeqCst) == DONE {
        return None;
    }
    Some(next_ns.map_or(MAX_IDLE_PARK, |d| Duration::from_nanos(d - now_ns).min(MAX_IDLE_PARK)))
}

/// A dedicated thread's whole life: pass over its one task until it is
/// DONE, parking in between. Only that task's wakes unpark the owner, so a
/// full downstream mailbox blocks this thread until the consumer drains,
/// as a blocking send would.
pub(crate) fn owner_loop(shared: &Shared, owner: &Owner, tid: usize) {
    while let Some(wait) = owner_pass(shared, owner, tid, shared.now_ns()) {
        if !wait.is_zero() {
            owner.parker.park_timeout(wait);
        }
    }
}
