//! Model-checked concurrency suite for the instance runtime (`--features
//! pkg_model`). Compiled as a child of `pool` so fixtures can reach the pool
//! schedule's private state, build [`Shared`] through the one unit-test
//! builder (`pool::tests::mini_shared`) and drive the real
//! `wake_state`/`settle`/`run_task`/`worker_loop`/`owner_loop` code paths
//! under `pkg_model`'s controlled scheduler, which exhaustively enumerates
//! thread interleavings (DFS, bounded preemption).
//!
//! Invariants pinned here:
//! 1. **Lost-wake freedom** — a mailbox push racing the worker's
//!    empty-check → IDLE transition never strands a packet
//!    ([`no_lost_wake_between_empty_check_and_idle`]).
//! 2. **Stalls survive data wakes** (the PR 4 regression) — a concurrent
//!    `Notify` never converts an `Outcome::Stall` park into an instant
//!    requeue ([`stall_never_skipped_by_concurrent_data_wake`]).
//! 3. **Parker token protocol** — exhaustively checked in `pkg-model`'s own
//!    suite and `vendor/crossbeam`'s `model_park_unpark_has_no_lost_wake`.
//! 4. **Eof ordering under spill** — a full spout→bolt run over a
//!    capacity-1 mailbox (every second emission spills) preserves
//!    per-destination FIFO and the Eof-last protocol, end to end through
//!    the real `worker_loop` ([`spill_preserves_order_and_eof_protocol`]),
//!    and again over a capacity-1 **SPSC ring** edge
//!    ([`spill_preserves_order_and_eof_protocol_over_ring`]).
//! 5. **Ring park protocol** — the SPSC ring's announce→re-check sequence
//!    never loses a backpressure-release wake, and the index protocol is
//!    FIFO under every producer/consumer interleaving
//!    ([`model_ring_parked_producer_is_always_observed`],
//!    [`model_ring_spsc_fifo_across_interleavings`]).
//! 6. **Deferred spout vs. early release** — a spout parked on a timer
//!    deadline ([`Spout::not_before`]) while a draining consumer's
//!    backpressure `Unpark` and the timer fire race its park: the task is
//!    never queued twice, never stranded, and a resume ahead of the
//!    deadline re-checks it instead of emitting
//!    ([`deferred_spout_survives_early_release_and_timer_race`]).
//! 7. **Dedicated-owner wakes** (the thread-per-instance schedule) — a
//!    producer's `push_run` + wake racing the owner's activation, its
//!    `settle(Idle)` and its park never strands a packet
//!    ([`dedicated_owner_never_loses_a_wake`]), and a data wake racing a
//!    stall neither cuts the stall short nor is lost once the owner's own
//!    deadline fires ([`dedicated_stall_survives_a_racing_data_wake`]).
//! 8. **Flushes queue behind a spill** — runs flushed while an earlier
//!    spill still waits in the outbox join it instead of overtaking it, so
//!    a consumer draining concurrently sees per-destination FIFO with the
//!    Eof last ([`flush_behind_a_spill_preserves_order`]).
//! 9. **Local wakes reach an idling sibling** — worker 0's activation wakes
//!    a bolt onto its own deque and stays busy while worker 1 registers as
//!    idle: the bolt runs exactly once, on worker 1, and nothing strands
//!    ([`local_wake_is_stolen_by_an_idling_sibling`]).
//! 10. **A tick's backlog does not stop the input** — a ticking bolt
//!     flushes into a capacity-1 mailbox and keeps draining its own input
//!     while the consumer drains concurrently: every input is read, a
//!     partial left in the outbox is always owed a release wake, and the
//!     run completes with per-destination FIFO, the Eof last and every
//!     task DONE ([`a_ticking_bolt_reads_its_input_around_its_backlog`]).
//! 11. **Spinning idlers** — an idler whose next deadline is near spins
//!     instead of parking, and (a) a wake raised while it spins still
//!     reaches it through its token, so nothing strands
//!     ([`a_wake_raised_while_a_worker_spins_is_never_lost`]), and (b) two
//!     idlers never spin at once: the slot claim makes the other park
//!     ([`two_idlers_never_spin_at_once`]). The model does not virtualize
//!     time, so a fixture freezes the clock short of a deadline, and a spin
//!     under the model parks after a bounded number of polls.
//!
//! Detection power is proved, not assumed: `mutation_*` tests re-introduce
//! the PR 4 stall bug, an unconditional-IDLE variant of the idle
//! transition, a spout resume that skips the deadline re-check, an owner
//! that parks without re-reading the state its activation settled into,
//! a flush that pushes past a non-empty outbox, an idler that raises the
//! idle count only after its re-check, an idle re-check blind to the
//! siblings' deques, a backlogged bolt that settles `Idle` with no
//! waiter registered, a spinner that deregisters before it spins, and an
//! idler that spins without claiming the spinner slot, and assert the
//! checker *finds* the violating schedule.

// Test-only module: the parent's `#![warn(clippy::pedantic)]` does not need
// to police fixture code.
#![allow(clippy::pedantic)]

use super::tests::{mini_shared, pool, with_workers};
use super::*;
use crate::bolt::{Bolt, EdgeTx, Emitter, OutEdge};
use crate::grouping::{Grouping, Router};
use crate::ring::SpscRing;
use crate::schedule::Schedule;
use crate::spout::{spout_from_iter, Spout};
use crate::task::{
    activate, settle, Outcome, TaskBody, TaskKind, DONE, IDLE, PARKED, QUEUED, RUNNING,
};
use crate::threads::{owner_loop, owner_pass, Owner};
use crate::transport::{deliver_outbox, Mailbox};
use crate::tuple::{Packet, PacketBatch, Tuple};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering::SeqCst as StdSeqCst};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

fn mailbox_len(shared: &Shared, tid: usize) -> usize {
    match shared.tasks[tid].mailbox.as_ref() {
        Some(Mailbox::Mutexed { inner, .. }) => lock(inner).queue.len(),
        Some(Mailbox::Ring(ring)) => ring.len(),
        None => unreachable!("mini_shared tasks all have mailboxes"),
    }
}

/// A producer's one-packet flush through the real delivery path
/// ([`Shared::push_run`] with nothing spilled before it); `true` when the
/// packet landed in the mailbox rather than spilling.
fn push(shared: &Shared, dest: usize, packet: Packet) -> bool {
    let mut outbox = VecDeque::new();
    shared.push_run(dest, [packet], &mut outbox, None);
    outbox.is_empty()
}

/// Invariant 1: across *every* interleaving of a producer's
/// `push_run`+wake with the worker's "mailbox empty → settle(Idle)"
/// epilogue, a queued packet always leaves the task runnable (QUEUED) —
/// the NOTIFIED latch plus the CAS-failure requeue close the race window.
#[test]
fn no_lost_wake_between_empty_check_and_idle() {
    pkg_model::Builder::new().preemption_bound(2).model(|| {
        let shared = Arc::new(mini_shared(1, 4));
        shared.tasks[0].state.store(RUNNING, SeqCst);
        let producer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let pushed = push(&shared, 0, Packet::Eof);
                assert!(pushed, "capacity 4 mailbox never fills here");
            })
        };
        let worker = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let mut inbox = PacketBatch::default();
                let outcome = if shared.refill_inbox(0, &mut inbox, 64) == 0 {
                    Outcome::Idle
                } else {
                    Outcome::Yield
                };
                let requeue = || {
                    shared.tasks[0].state.store(QUEUED, SeqCst);
                    lock(&pool(&shared).sched).runq.push_back(0);
                };
                settle(&shared, 0, &outcome, requeue);
            })
        };
        producer.join();
        worker.join();
        if mailbox_len(&shared, 0) > 0 {
            assert_eq!(
                shared.tasks[0].state.load(SeqCst),
                QUEUED,
                "lost wake: packet queued but task went quiet"
            );
        }
    });
}

/// Detection power for invariant 1: replace `settle`'s guarded
/// RUNNING→IDLE CAS with an unconditional IDLE store and the checker must
/// produce the stranded-packet schedule.
#[test]
fn mutation_unconditional_idle_store_is_caught() {
    let violation = pkg_model::Builder::new()
        .preemption_bound(2)
        .check(|| {
            let shared = Arc::new(mini_shared(1, 4));
            shared.tasks[0].state.store(RUNNING, SeqCst);
            let producer = {
                let shared = Arc::clone(&shared);
                pkg_model::thread::spawn(move || {
                    let _ = push(&shared, 0, Packet::Eof);
                })
            };
            let worker = {
                let shared = Arc::clone(&shared);
                pkg_model::thread::spawn(move || {
                    let mut inbox = PacketBatch::default();
                    if shared.refill_inbox(0, &mut inbox, 64) == 0 {
                        // BUG (deliberate): ignores a NOTIFIED latched by a
                        // concurrent wake instead of CASing RUNNING→IDLE.
                        shared.tasks[0].state.store(IDLE, SeqCst);
                    } else {
                        shared.tasks[0].state.store(QUEUED, SeqCst);
                        lock(&pool(&shared).sched).runq.push_back(0);
                    }
                })
            };
            producer.join();
            worker.join();
            if mailbox_len(&shared, 0) > 0 {
                assert_eq!(
                    shared.tasks[0].state.load(SeqCst),
                    QUEUED,
                    "lost wake: packet queued but task went quiet"
                );
            }
        })
        .expect_err("the unconditional-IDLE bug must be caught");
    assert!(violation.message.contains("lost wake"), "got: {violation}");
}

const STALL_DEADLINE_NS: u64 = 1_000_000;

/// Invariant 2 (the PR 4 regression, exhaustively pinned): settling
/// `Outcome::Stall` parks *unconditionally* and only then arms the timer,
/// so a data wake that latched NOTIFIED mid-activation is absorbed — the
/// task ends PARKED with the deadline armed, in every interleaving.
#[test]
fn stall_never_skipped_by_concurrent_data_wake() {
    pkg_model::Builder::new().preemption_bound(2).model(|| {
        let shared = Arc::new(mini_shared(1, 4));
        shared.tasks[0].state.store(RUNNING, SeqCst);
        let producer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let _ = push(&shared, 0, Packet::Tuple(Tuple::new(*b"k", 1)));
            })
        };
        let worker = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                settle(&shared, 0, &Outcome::Stall(STALL_DEADLINE_NS), || {
                    unreachable!("a stall settle must never requeue");
                });
            })
        };
        producer.join();
        worker.join();
        assert_eq!(shared.tasks[0].state.load(SeqCst), PARKED, "stall skipped: task is not parked");
        let mut due = Vec::new();
        lock(&pool(&shared).sched).timers.fire(STALL_DEADLINE_NS * 2, &mut due);
        assert_eq!(due, vec![(0, true)], "stall deadline armed and fires as an Unpark");
    });
}

/// Detection power for invariant 2: re-introduce the literal PR 4 bug — a
/// *conditional* RUNNING→PARKED CAS whose failure path requeues — and the
/// checker must find the schedule where a concurrent data wake cancels the
/// emulated service time.
#[test]
fn mutation_pr4_conditional_stall_park_is_caught() {
    let violation = pkg_model::Builder::new()
        .preemption_bound(2)
        .check(|| {
            let shared = Arc::new(mini_shared(1, 4));
            shared.tasks[0].state.store(RUNNING, SeqCst);
            let producer = {
                let shared = Arc::clone(&shared);
                pkg_model::thread::spawn(move || {
                    let _ = push(&shared, 0, Packet::Tuple(Tuple::new(*b"k", 1)));
                })
            };
            let worker = {
                let shared = Arc::clone(&shared);
                pkg_model::thread::spawn(move || {
                    // BUG (deliberate, PR 4's original): park only if still
                    // RUNNING; a NOTIFIED wake turns the stall into an
                    // instant requeue, silently skipping the service time.
                    let slot = &shared.tasks[0];
                    if slot.state.compare_exchange(RUNNING, PARKED, SeqCst, SeqCst).is_ok() {
                        lock(&pool(&shared).sched).timers.insert_unpark(STALL_DEADLINE_NS, 0);
                    } else {
                        slot.state.store(QUEUED, SeqCst);
                        lock(&pool(&shared).sched).runq.push_back(0);
                    }
                })
            };
            producer.join();
            worker.join();
            assert_eq!(
                shared.tasks[0].state.load(SeqCst),
                PARKED,
                "stall skipped: task is not parked"
            );
        })
        .expect_err("the PR 4 conditional-park bug must be caught");
    assert!(violation.message.contains("stall skipped"), "got: {violation}");
}

/// The deferral fixture's emulated wait: far beyond any real elapsed time of
/// one schedule, so only a pass that *says* the deadline passed fires it.
const DEFER: Duration = Duration::from_secs(2);

/// A one-tuple source that is due only once `due` is set — the fixture's
/// stand-in for the clock reaching the deadline (the model does not
/// virtualize time). Emitting earlier is the violation.
struct GateSpout {
    due: Arc<StdMutex<bool>>,
    left: u32,
}

impl Spout for GateSpout {
    fn next(&mut self) -> Option<Tuple> {
        assert!(*self.due.lock().expect("due flag"), "emitted before its deadline");
        (self.left > 0).then(|| {
            self.left -= 1;
            Tuple::new(*b"k", 1)
        })
    }

    fn not_before(&mut self) -> Option<Duration> {
        (!*self.due.lock().expect("due flag")).then_some(DEFER)
    }
}

/// Task 0: a [`GateSpout`] whose quantum just ended on "not yet" (RUNNING,
/// about to settle `Outcome::Stall`). Task 1: its consumer, mid-activation,
/// with one packet queued and the spout still registered as a waiter from an
/// earlier full mailbox — so the consumer's drain issues the backpressure
/// `Unpark` that can resume the spout ahead of its deadline.
fn deferral_fixture(due: Arc<StdMutex<bool>>) -> Shared {
    let shared = mini_shared(2, 4);
    let edges = vec![OutEdge {
        router: Router::new(&Grouping::Key, 1, 7, 0),
        tx: EdgeTx::Tasks(vec![1]),
        hedge: None,
        signals: None,
    }];
    let kind = TaskKind::Spout {
        spout: Box::new(GateSpout { due, left: 1 }),
        exhausted: false,
        ingress: None,
    };
    *lock(&shared.tasks[0].body) = Some(Box::new(blank_body("src", kind, edges)));
    // ordering: SeqCst — fixture set-up before any thread is spawned (SC-only model)
    shared.tasks[0].state.store(RUNNING, SeqCst);
    // ordering: SeqCst — as above
    shared.tasks[1].state.store(RUNNING, SeqCst);
    if let Some(Mailbox::Mutexed { inner, .. }) = &shared.tasks[1].mailbox {
        let mut inner = lock(inner);
        inner.queue.push_back(Packet::Tuple(Tuple::new(*b"k", 0)));
        inner.waiters.push(0);
    }
    shared
}

/// One pass of [`worker_loop`]'s pick step with the clock at `now_ns`: fire
/// due timers into the run queue, then run the spout if it is queued —
/// through `resume`, which the real suite binds to [`run_task`].
fn worker_pass(shared: &Shared, now_ns: u64, resume: impl Fn(&Shared)) {
    let picked = {
        let mut s = lock(&pool(shared).sched);
        let mut due = Vec::new();
        s.timers.fire(now_ns, &mut due);
        for (t, unpark) in due {
            let kind = if unpark { WakeKind::Unpark } else { WakeKind::Notify };
            if shared.wake_state(t, &kind) {
                s.runq.push_back(t);
            }
        }
        s.runq.pop_front()
    };
    if let Some(tid) = picked {
        assert_eq!(tid, 0, "only the spout is ever queued here");
        assert_eq!(
            // ordering: SeqCst — the popped id's state, as run_task reads it (SC-only model)
            shared.tasks[0].state.load(SeqCst),
            QUEUED,
            "double-queued: a second run-queue entry for a task already claimed"
        );
        resume(shared);
    }
}

/// Race a deferred spout's park against the consumer's early release and
/// the timer fire, then let the deadline pass for good. `resume` is how a
/// worker runs the queued spout.
fn check_deferred_spout(resume: fn(&Shared)) -> Result<pkg_model::Report, pkg_model::Violation> {
    pkg_model::Builder::new().preemption_bound(2).check(move || {
        let due = Arc::new(StdMutex::new(false));
        let shared = Arc::new(deferral_fixture(Arc::clone(&due)));
        let deadline = shared.now_ns() + DEFER.as_nanos() as u64;
        let worker = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                settle(&shared, 0, &Outcome::Stall(deadline), || {
                    unreachable!("a stall settle must never requeue");
                });
                // The wall clock is nowhere near the deadline: only an
                // early release can have queued the spout.
                worker_pass(&shared, shared.now_ns(), resume);
            })
        };
        let consumer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let mut inbox = PacketBatch::default();
                assert!(shared.refill_inbox(1, &mut inbox, 64) > 0, "drains the queued packet");
            })
        };
        let timer = {
            let shared = Arc::clone(&shared);
            let due = Arc::clone(&due);
            pkg_model::thread::spawn(move || {
                *due.lock().expect("due flag") = true;
                worker_pass(&shared, deadline, resume);
            })
        };
        worker.join();
        consumer.join();
        timer.join();
        // Time moves on: every deadline armed along the way passes.
        worker_pass(&shared, 2 * deadline, resume);
        worker_pass(&shared, 2 * deadline, resume);
        // ordering: SeqCst — quiescent post-join read (SC-only model)
        let state = shared.tasks[0].state.load(SeqCst);
        assert_eq!(state, DONE, "stranded: the deferred spout never resumed (state {state})");
        let stats = lock(&shared.stats);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].emitted, 1, "the one tuple, once");
    })
}

/// Invariant 6: in every interleaving the deferred spout ends DONE having
/// emitted its tuple exactly once and only after the deadline — an early
/// release resumes it into the real `activate`, which asks `not_before`
/// again and parks it back on the wheel.
#[test]
fn deferred_spout_survives_early_release_and_timer_race() {
    let report = check_deferred_spout(|shared| {
        run_task(shared, 0, 0);
    })
    .expect("no schedule may strand, double-queue or prematurely resume a deferred spout");
    assert!(
        report.iterations >= 100,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

/// The mutation: a spout driver that never asks `not_before` (the trait's
/// default answers "now").
struct SkipsRecheck(Box<dyn Spout>);

impl Spout for SkipsRecheck {
    fn next(&mut self) -> Option<Tuple> {
        self.0.next()
    }
}

/// Detection power for invariant 6: resume the spout without re-checking
/// the deadline and the checker must find the schedule where the
/// consumer's release wake lands first and a tuple is emitted early.
#[test]
fn mutation_resume_without_deadline_recheck_is_caught() {
    let violation = check_deferred_spout(|shared| {
        if let Some(body) = lock(&shared.tasks[0].body).as_mut() {
            if let TaskKind::Spout { spout, .. } = &mut body.kind {
                // BUG (deliberate): the resumed activation generates
                // without asking `not_before` again.
                let inner = std::mem::replace(spout, spout_from_iter(Vec::new()));
                *spout = Box::new(SkipsRecheck(inner));
            }
        }
        run_task(shared, 0, 0);
    })
    .expect_err("a resume that skips the deadline re-check must be caught");
    assert!(violation.message.contains("emitted before its deadline"), "got: {violation}");
}

/// Order-recording sink bolt for the end-to-end spill fixture. The log uses
/// a raw `std` mutex on purpose: `execute` runs between scheduling points,
/// so the lock is never contended under the model.
struct OrderBolt {
    seen: Arc<StdMutex<Vec<i64>>>,
}

impl Bolt for OrderBolt {
    fn execute(&mut self, tuple: Tuple, _out: &mut Emitter<'_>) {
        self.seen.lock().expect("order log").push(tuple.value);
    }
}

fn blank_body(component: &str, kind: TaskKind, edges: Vec<OutEdge>) -> TaskBody {
    TaskBody::new(component.to_owned(), 0, kind, edges, 1.0, None)
}

/// Spout (3 tuples) → capacity-1 mailbox → sink bolt: every second emission
/// spills to the outbox and parks the spout, exercising push_or_park waiter
/// registration, backpressure-release wakes, and Eof-after-spill delivery.
/// With `ring`, the edge is an SPSC ring instead of the mutexed mailbox,
/// covering the ring legs of the same protocol.
fn spill_fixture(seen: Arc<StdMutex<Vec<i64>>>, workers: usize, ring: bool) -> Shared {
    let tx = if ring { EdgeTx::TaskRings(vec![1]) } else { EdgeTx::Tasks(vec![1]) };
    let spout_edges = vec![OutEdge {
        router: Router::new(&Grouping::Key, 1, 7, 0),
        tx,
        hedge: None,
        signals: None,
    }];
    let spout_kind = TaskKind::Spout {
        spout: spout_from_iter((1..=3).map(|v| Tuple::new(*b"k", v))),
        exhausted: false,
        ingress: None,
    };
    let bolt_kind = TaskKind::Bolt {
        bolt: Box::new(OrderBolt { seen }),
        eof_remaining: 1,
        tick_period_ns: None,
        next_tick_ns: u64::MAX,
    };
    let mut shared = with_workers(mini_shared(2, 1), workers);
    shared.tasks[0].mailbox = None;
    if ring {
        shared.tasks[1].mailbox = Some(Mailbox::Ring(SpscRing::new(1)));
    }
    *lock(&shared.tasks[0].body) = Some(Box::new(blank_body("src", spout_kind, spout_edges)));
    *lock(&shared.tasks[1].body) = Some(Box::new(blank_body("sink", bolt_kind, Vec::new())));
    // ordering: SeqCst — fixture set-up before any thread is spawned (SC-only model)
    shared.tasks[0].state.store(QUEUED, SeqCst);
    shared.schedule.requeue(0, 0, true);
    shared.batch = 2;
    shared
}

/// Invariant 4, end to end through the real [`worker_loop`]: across every
/// (preemption-bounded) interleaving of two workers, the spill/backpressure
/// path delivers all tuples in per-destination FIFO order, the Eof arrives
/// last (the `debug_assert` in `activate` checks packets-after-final-Eof),
/// both tasks reach DONE, and the idle-park shutdown protocol terminates —
/// under the model, `park_timeout` never times out, so termination *proves*
/// every needed wake is edge-delivered rather than rescued by the backstop.
fn check_spill_protocol(ring: bool) {
    let report = pkg_model::Builder::new()
        .preemption_bound(2)
        .check(move || {
            let seen = Arc::new(StdMutex::new(Vec::new()));
            let shared = Arc::new(spill_fixture(Arc::clone(&seen), 2, ring));
            let workers: Vec<_> = (0..2)
                .map(|wid| {
                    let shared = Arc::clone(&shared);
                    pkg_model::thread::spawn(move || worker_loop(&shared, pool(&shared), wid))
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert_eq!(
                *seen.lock().expect("order log"),
                vec![1, 2, 3],
                "spill must preserve per-destination FIFO"
            );
            // ordering: SeqCst — post-join observations; every worker has
            // terminated, so these are quiescent reads (SC-only model)
            assert_eq!(pool(&shared).remaining.load(SeqCst), 0, "all tasks retired");
            for slot in &shared.tasks {
                // ordering: SeqCst — quiescent post-join read (SC-only model)
                assert_eq!(slot.state.load(SeqCst), DONE);
            }
            let stats = lock(&shared.stats);
            assert_eq!(stats.len(), 2, "both tasks reported stats");
            for s in stats.iter() {
                assert_eq!(s.processed, 3, "{} processed every tuple", s.component);
            }
        })
        .expect("no schedule may violate the spill/Eof protocol");
    // Exploration sanity: a degenerate tree (one schedule) would mean the
    // fixture isn't racing anything and the proof is vacuous.
    assert!(
        report.iterations >= 100,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

#[test]
fn spill_preserves_order_and_eof_protocol() {
    check_spill_protocol(false);
}

/// Invariant 4 over the SPSC-ring edge: identical FIFO/Eof/termination
/// guarantees when the sink's mailbox is a capacity-1 ring, exercising the
/// ring spill path in `push_run`/`deliver_outbox`, the announce→re-check
/// park in `push_or_park`, and the `take_waiters` release wake in
/// `refill_inbox` — all through the real `worker_loop`.
#[test]
fn spill_preserves_order_and_eof_protocol_over_ring() {
    check_spill_protocol(true);
}

fn ring_tuple(v: i64) -> Packet {
    Packet::Tuple(Tuple::new(*b"k", v))
}

fn ring_value(p: Packet) -> i64 {
    match p {
        Packet::Tuple(t) => t.value,
        Packet::Eof => -1,
    }
}

/// Invariant 5a — the ring's no-lost-wake theorem, exhaustively: whenever
/// the producer parks (`push_or_park` returns `Err`), the consumer's
/// post-pop `take_waiters` is guaranteed to return it. SC forces a total
/// order in which "announce, then re-check still full" precedes the
/// consumer's `head` publication, which precedes its sleeper check.
#[test]
fn model_ring_parked_producer_is_always_observed() {
    pkg_model::Builder::new().preemption_bound(2).model(|| {
        let ring = Arc::new(SpscRing::new(1));
        assert!(ring.try_push(Packet::Eof).is_ok(), "pre-fill a capacity-1 ring");
        let consumer = {
            let ring = Arc::clone(&ring);
            pkg_model::thread::spawn(move || {
                assert!(ring.pop().is_some(), "pre-filled ring pops");
                ring.take_waiters()
            })
        };
        let parked = ring.push_or_park(Packet::Eof, 7).is_err();
        let woken = consumer.join();
        if parked {
            assert_eq!(woken, vec![7], "lost wake: parked producer missed by the consumer");
        }
    });
}

/// Invariant 5b — SPSC FIFO under every interleaving: a concurrent pop
/// observes the producer's two pushes in order, never value 2 before
/// value 1, and never a duplicated or dropped slot across the race.
#[test]
fn model_ring_spsc_fifo_across_interleavings() {
    pkg_model::Builder::new().preemption_bound(2).model(|| {
        let ring = Arc::new(SpscRing::new(4));
        let producer = {
            let ring = Arc::clone(&ring);
            pkg_model::thread::spawn(move || {
                assert!(ring.try_push(ring_tuple(1)).is_ok());
                assert!(ring.try_push(ring_tuple(2)).is_ok());
            })
        };
        // Exactly one pop races the pushes (an unbounded drain loop would
        // diverge under the DFS scheduler); the rest drains after join.
        let first = ring.pop().map(ring_value);
        producer.join();
        let mut rest = Vec::new();
        while let Some(p) = ring.pop() {
            rest.push(ring_value(p));
        }
        match first {
            None => assert_eq!(rest, vec![1, 2]),
            Some(1) => assert_eq!(rest, vec![2]),
            other => panic!("consumer observed out-of-order first value {other:?}"),
        }
    });
}

/// Task 0 of a one-task `Shared` under the dedicated-thread schedule: an
/// [`OrderBolt`] sink (one upstream sender) and its owner ([`owner_of`]).
fn owned_sink(seen: Arc<StdMutex<Vec<i64>>>) -> Shared {
    let mut shared = mini_shared(1, 4);
    shared.schedule = Schedule::Threads(vec![Owner::new()]);
    let kind = TaskKind::Bolt {
        bolt: Box::new(OrderBolt { seen }),
        eof_remaining: 1,
        tick_period_ns: None,
        next_tick_ns: u64::MAX,
    };
    *lock(&shared.tasks[0].body) = Some(Box::new(blank_body("sink", kind, Vec::new())));
    shared
}

/// The owner of task 0 in an [`owned_sink`].
fn owner_of(shared: &Shared) -> &Owner {
    let Schedule::Threads(owners) = &shared.schedule else { unreachable!("an owned sink") };
    &owners[0]
}

/// A producer pushes one tuple and the Eof into an idle owned sink while
/// `owner` drives it; in every interleaving the sink must see the tuple
/// and reach DONE. Under the model a park never times out, so an owner
/// that misses a wake is reported as a deadlock.
fn check_owner(
    owner: fn(&Shared, &Owner, usize),
) -> Result<pkg_model::Report, pkg_model::Violation> {
    pkg_model::Builder::new().preemption_bound(2).check(move || {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let shared = Arc::new(owned_sink(Arc::clone(&seen)));
        let producer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                assert!(push(&shared, 0, Packet::Tuple(Tuple::new(*b"k", 1))));
                assert!(push(&shared, 0, Packet::Eof));
            })
        };
        let driver = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || owner(&shared, owner_of(&shared), 0))
        };
        producer.join();
        driver.join();
        // ordering: SeqCst — quiescent post-join read (SC-only model)
        assert_eq!(shared.tasks[0].state.load(SeqCst), DONE);
        assert_eq!(*seen.lock().expect("order log"), vec![1]);
    })
}

/// Invariant 7a, through the real [`owner_loop`] and [`run_task`]: wakes
/// that land mid-activation (NOTIFIED → a requeue, which leaves the task
/// QUEUED for the owner's next pass) and wakes that land after
/// `settle(Idle)` (IDLE → QUEUED + unpark) both reach the owner.
#[test]
fn dedicated_owner_never_loses_a_wake() {
    let report = check_owner(owner_loop).expect("no schedule may strand the owned task");
    assert!(
        report.iterations >= 100,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

/// Detection power for invariant 7a: an owner that, after an activation,
/// parks unless its task is DONE — without re-reading whether the
/// activation settled back into QUEUED — must be caught: a wake latched
/// mid-activation requeues without an unpark, so that park never returns.
#[test]
fn mutation_owner_parks_without_rereading_its_state_is_caught() {
    fn parks_after_settle(shared: &Shared, owner: &Owner, tid: usize) {
        let slot = &shared.tasks[tid];
        loop {
            // ordering: SeqCst — as in owner_pass (SC-only model)
            if slot.state.load(SeqCst) == QUEUED {
                run_task(shared, tid, tid);
            }
            // ordering: SeqCst — as in owner_pass (SC-only model)
            if slot.state.load(SeqCst) == DONE {
                return;
            }
            // BUG (deliberate): parks even when the activation just
            // settled into QUEUED.
            owner.parker.park();
        }
    }
    let violation = check_owner(parks_after_settle)
        .expect_err("an owner that parks without re-reading its state must be caught");
    assert!(violation.message.contains("deadlock"), "got: {violation}");
}

/// Invariant 7b: the owned sink settles `Outcome::Stall` while a producer's
/// data wake races it. The stall holds until the owner's own deadline —
/// a pass just before it runs nothing — and once the deadline fires the
/// tuple is processed exactly once, wherever the push landed.
#[test]
fn dedicated_stall_survives_a_racing_data_wake() {
    pkg_model::Builder::new().preemption_bound(2).model(|| {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let shared = Arc::new(owned_sink(Arc::clone(&seen)));
        // ordering: SeqCst — fixture set-up before any thread is spawned (SC-only model)
        shared.tasks[0].state.store(RUNNING, SeqCst);
        let producer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                assert!(push(&shared, 0, Packet::Tuple(Tuple::new(*b"k", 1))));
            })
        };
        let owner = {
            let shared = Arc::clone(&shared);
            let seen = Arc::clone(&seen);
            pkg_model::thread::spawn(move || {
                settle(&shared, 0, &Outcome::Stall(STALL_DEADLINE_NS), || {
                    unreachable!("a stall settle must never requeue");
                });
                let wait = owner_pass(&shared, owner_of(&shared), 0, STALL_DEADLINE_NS - 1);
                assert!(seen.lock().expect("order log").is_empty(), "stall skipped");
                assert_eq!(wait, Some(Duration::from_nanos(1)), "parks until its own deadline");
                owner_pass(&shared, owner_of(&shared), 0, STALL_DEADLINE_NS);
            })
        };
        producer.join();
        owner.join();
        // Time moves on; the owner keeps passing while it has work.
        while owner_pass(&shared, owner_of(&shared), 0, 2 * STALL_DEADLINE_NS)
            == Some(Duration::ZERO)
        {}
        assert_eq!(*seen.lock().expect("order log"), vec![1], "lost wake: tuple never processed");
        // ordering: SeqCst — quiescent post-join read (SC-only model)
        assert_eq!(shared.tasks[0].state.load(SeqCst), IDLE);
    });
}

/// How a fixture producer flushes one single-packet run: the real
/// [`Shared::push_run`], or a mutation of it.
type Flush = fn(&Shared, usize, Packet, &mut VecDeque<(usize, Packet)>);

/// A producer flushes tuples 1, 2, 3 and then its Eof, one run each, into a
/// capacity-1 mailbox (task 0) through `flush`, while the consumer drains
/// once concurrently; after the join the producer (task 1) retries its
/// spill as `activate` does ([`deliver_outbox`]) until everything landed.
/// The consumer must see 1, 2, 3, Eof in that order.
fn check_flush_order(flush: Flush) -> Result<pkg_model::Report, pkg_model::Violation> {
    fn take_values(inbox: &mut PacketBatch, seen: &mut Vec<i64>) {
        while let Some(p) = inbox.pop() {
            seen.push(ring_value(p));
        }
    }
    pkg_model::Builder::new().preemption_bound(2).check(move || {
        let shared = Arc::new(mini_shared(2, 1));
        let consumer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let (mut inbox, mut seen) = (PacketBatch::default(), Vec::new());
                shared.refill_inbox(0, &mut inbox, 64);
                take_values(&mut inbox, &mut seen);
                seen
            })
        };
        let mut outbox = VecDeque::new();
        for v in 1..=3 {
            flush(&shared, 0, ring_tuple(v), &mut outbox);
        }
        flush(&shared, 0, Packet::Eof, &mut outbox);
        let mut seen = consumer.join();
        let mut inbox = PacketBatch::default();
        while !outbox.is_empty() || mailbox_len(&shared, 0) > 0 {
            deliver_outbox(&shared, 1, &mut outbox, None);
            shared.refill_inbox(0, &mut inbox, 64);
            take_values(&mut inbox, &mut seen);
        }
        assert_eq!(seen, vec![1, 2, 3, -1], "flush order: per-destination FIFO, Eof last");
    })
}

/// Invariant 8: in every interleaving, a run flushed behind a spill queues
/// in the outbox after it, whatever space the consumer frees meanwhile.
#[test]
fn flush_behind_a_spill_preserves_order() {
    let report = check_flush_order(|shared, dest, packet, outbox| {
        shared.push_run(dest, [packet], outbox, None);
    })
    .expect("no schedule may let a flush overtake an earlier spill");
    assert!(
        report.iterations >= 10,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

/// Detection power for invariant 8: a flush that pushes its run as if
/// nothing had spilled before it must be caught — once the consumer frees
/// the slot, the run lands ahead of the spilled tuple.
#[test]
fn mutation_flush_bypasses_a_nonempty_outbox_is_caught() {
    let violation = check_flush_order(|shared, dest, packet, outbox| {
        // BUG (deliberate): ignores the earlier spill waiting in `outbox`.
        let mut fresh = VecDeque::new();
        shared.push_run(dest, [packet], &mut fresh, None);
        outbox.extend(fresh);
    })
    .expect_err("a flush that overtakes an earlier spill must be caught");
    assert!(violation.message.contains("flush order"), "got: {violation}");
}

/// A worker's idle step: [`idle_wait`], or a mutation of it.
type Idle = fn(&Shared, &Pool, usize, &Parker);

/// [`worker_loop`] with its idle step replaced by `idle`.
fn worker_loop_idling(shared: &Shared, pool: &Pool, wid: usize, idle: Idle) {
    let parker = Parker::new();
    let mut due = Vec::new();
    loop {
        match steal(pool, wid).or_else(|| inject(shared, pool, wid, &mut due)) {
            Some(tid) => {
                // ordering: SeqCst — as in worker_loop (SC-only model)
                if run_task(shared, tid, wid) && pool.remaining.fetch_sub(1, SeqCst) == 1 {
                    pool.unpark_all_idlers();
                }
            }
            // ordering: SeqCst — as in worker_loop (SC-only model)
            None if pool.remaining.load(SeqCst) == 0 => return,
            None => idle(shared, pool, wid, &parker),
        }
    }
}

/// Worker 0's activation delivers a tuple and the Eof to an idle sink (task
/// 0, two worker deques) as one run: one `Notify` wake, onto deque 0. Then
/// worker 0 stays busy for the rest of the run — its thread ends — while
/// worker 1 runs `worker`. The sink must see the tuple in exactly one
/// activation and every thread must finish: under the model a park never
/// times out, so a wake that reaches no worker is reported as a deadlock.
///
/// With `near`, the clock is frozen just short of a deadline
/// ([`freeze_near_a_deadline`]), so worker 1 spins wherever its re-check
/// finds nothing; the returned count is the spins summed over every
/// schedule explored.
fn check_local_wake(
    worker: fn(&Shared, &Pool, usize),
    near: bool,
) -> (Result<pkg_model::Report, pkg_model::Violation>, u64) {
    let spins = Arc::new(StdAtomicU64::new(0));
    let total = Arc::clone(&spins);
    let result = pkg_model::Builder::new().preemption_bound(2).check(move || {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let mut shared = with_workers(mini_shared(1, 4), 2);
        if near {
            freeze_near_a_deadline(&mut shared);
        }
        let kind = TaskKind::Bolt {
            bolt: Box::new(OrderBolt { seen: Arc::clone(&seen) }),
            eof_remaining: 1,
            tick_period_ns: None,
            next_tick_ns: u64::MAX,
        };
        *lock(&shared.tasks[0].body) = Some(Box::new(blank_body("sink", kind, Vec::new())));
        let shared = Arc::new(shared);
        let waker = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let mut outbox = VecDeque::new();
                shared.push_run(0, [ring_tuple(1), Packet::Eof], &mut outbox, Some(0));
                assert!(outbox.is_empty(), "capacity 4 mailbox never fills here");
            })
        };
        let idler = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || worker(&shared, pool(&shared), 1))
        };
        waker.join();
        idler.join();
        assert_eq!(*seen.lock().expect("order log"), vec![1], "the tuple, once");
        // ordering: SeqCst — quiescent post-join read (SC-only model)
        assert_eq!(shared.tasks[0].state.load(SeqCst), DONE);
        let stats = lock(&shared.stats);
        assert_eq!(stats[0].activations, 1, "the woken bolt ran exactly once");
        // ordering: SeqCst — a tally across schedules, read after the last
        total.fetch_add(pool(&shared).counters[1].snapshot().spins, StdSeqCst);
    });
    // ordering: SeqCst — read after every schedule has run (SC-only model)
    (result, spins.load(StdSeqCst))
}

/// Invariant 9, through the real [`worker_loop`]: however worker 1's idle
/// registration interleaves with worker 0's local push, either the waker
/// reads the raised idle count and unparks worker 1, or worker 1's re-check
/// sees deque 0 non-empty and steals the bolt without parking.
#[test]
fn local_wake_is_stolen_by_an_idling_sibling() {
    let report =
        check_local_wake(worker_loop, false).0.expect("no schedule may strand a local wake");
    assert!(
        report.iterations >= 100,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

/// Detection power for invariant 9: an idler that raises the idle count
/// only after its re-check must be caught — the waker can push after the
/// re-check yet read the count as zero, and nobody unparks the idler.
#[test]
fn mutation_idle_count_raised_after_recheck_is_caught() {
    fn raises_after_recheck(_shared: &Shared, pool: &Pool, wid: usize, parker: &Parker) {
        lock(&pool.idlers).push((wid, parker.unparker()));
        let empty = lock(&pool.sched).runq.is_empty()
            && pool.locals.iter().all(WorkStealingDeque::is_empty);
        // BUG (deliberate): the count rises after the re-check, so a push
        // in between is seen by neither side.
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_add(1, SeqCst);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        if empty && pool.remaining.load(SeqCst) != 0 {
            parker.park();
        }
        lock(&pool.idlers).retain(|(w, _)| *w != wid);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_sub(1, SeqCst);
    }
    let violation = check_local_wake(
        |shared, pool, wid| worker_loop_idling(shared, pool, wid, raises_after_recheck),
        false,
    )
    .0
    .expect_err("an idle count raised after the re-check must be caught");
    assert!(violation.message.contains("deadlock"), "got: {violation}");
}

/// Detection power for invariant 9's re-check: an idler that re-checks only
/// the injector must be caught — a local wake pushed before the count rose
/// sends no unpark, and the idler parks with the bolt on deque 0.
#[test]
fn mutation_recheck_blind_to_sibling_deques_is_caught() {
    fn ignores_deques(_shared: &Shared, pool: &Pool, wid: usize, parker: &Parker) {
        lock(&pool.idlers).push((wid, parker.unparker()));
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_add(1, SeqCst);
        // BUG (deliberate): the siblings' deques are not re-checked.
        let empty = lock(&pool.sched).runq.is_empty();
        // ordering: SeqCst — as in idle_wait (SC-only model)
        if empty && pool.remaining.load(SeqCst) != 0 {
            parker.park();
        }
        lock(&pool.idlers).retain(|(w, _)| *w != wid);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_sub(1, SeqCst);
    }
    let violation = check_local_wake(
        |shared, pool, wid| worker_loop_idling(shared, pool, wid, ignores_deques),
        false,
    )
    .0
    .expect_err("an idle re-check blind to the siblings' deques must be caught");
    assert!(violation.message.contains("deadlock"), "got: {violation}");
}

/// A deadline `NEAR_NS` after the frozen clock: inside the spin window, and
/// never due.
const NEAR_NS: u64 = SPIN_WINDOW_NS / 2;

/// Freeze `shared`'s clock at 1 ns — its epoch lies in the future, and
/// `Instant::elapsed` saturates at zero — and arm a tick for task 0 at
/// [`NEAR_NS`]. Every idle wait whose re-check finds nothing then has a
/// near deadline, whatever the wall clock does while the model runs, and
/// no timer ever fires.
fn freeze_near_a_deadline(shared: &mut Shared) {
    shared.epoch = Instant::now() + Duration::from_secs(3_600);
    lock(&pool(shared).sched).timers.insert(NEAR_NS, 0);
}

/// Invariant 11(a), through the real [`worker_loop`]: worker 1 idles with a
/// near deadline, so it spins instead of parking. A wake raised during the
/// spin still reaches it: the spinner stays registered, the waker pops its
/// unparker, and the token ends the spin. Under the model the spin parks
/// after a bounded number of polls, so a wake that missed the token is a
/// deadlock, not a spin the deadline rescues.
#[test]
fn a_wake_raised_while_a_worker_spins_is_never_lost() {
    let (result, spins) = check_local_wake(worker_loop, true);
    let report = result.expect("no schedule may strand a wake raised during a spin");
    assert!(report.iterations >= 100, "expected a real interleaving space, got {report:?}");
    assert!(spins > 0, "no explored schedule took the spin path");
}

/// Detection power for invariant 11(a): a spinner that deregisters before
/// it spins must be caught — a wake pushed after its re-check reads the idle
/// count as zero, and nothing sets the spinner's token.
#[test]
fn mutation_spinner_deregisters_before_spinning_is_caught() {
    fn deregisters_first(shared: &Shared, pool: &Pool, wid: usize, parker: &Parker) {
        lock(&pool.idlers).push((wid, parker.unparker()));
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_add(1, SeqCst);
        let empty = lock(&pool.sched).runq.is_empty()
            && pool.locals.iter().all(WorkStealingDeque::is_empty);
        lock(&pool.idlers).retain(|(w, _)| *w != wid);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_sub(1, SeqCst);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        if empty && pool.remaining.load(SeqCst) != 0 {
            // BUG (deliberate): the spin starts after the deregistration,
            // so a wake raised during it unparks nobody.
            spin_until(shared, parker, NEAR_NS);
        }
    }
    let violation = check_local_wake(
        |shared, pool, wid| worker_loop_idling(shared, pool, wid, deregisters_first),
        true,
    )
    .0
    .expect_err("a spinner that deregisters before it spins must be caught");
    assert!(violation.message.contains("deadlock"), "got: {violation}");
}

/// Workers 0 and 1 each run `idle` once on a pool with nothing queued and a
/// near deadline, while an observer looks once at the registered idlers
/// and then ends the run (every task done, every idler unparked). An idler
/// spins only after it registered, and releases the slot only after its
/// deregistration, so a registered idler that has spun holds the slot when
/// the observer looks. The observer counts them. Returns the check and the
/// spins summed over every schedule explored.
fn check_one_spinner(idle: Idle) -> (Result<pkg_model::Report, pkg_model::Violation>, u64) {
    let spins = Arc::new(StdAtomicU64::new(0));
    let total = Arc::clone(&spins);
    let result = pkg_model::Builder::new().preemption_bound(2).check(move || {
        let mut shared = with_workers(mini_shared(1, 4), 2);
        freeze_near_a_deadline(&mut shared);
        let shared = Arc::new(shared);
        let idlers: Vec<_> = (0..2)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                pkg_model::thread::spawn(move || idle(&shared, pool(&shared), wid, &Parker::new()))
            })
            .collect();
        let observer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let pool = pool(&shared);
                let registered = lock(&pool.idlers);
                let spinning = registered
                    .iter()
                    .filter(|(w, _)| pool.counters[*w].snapshot().spins > 0)
                    .count();
                assert!(spinning <= 1, "two idlers spin at once");
                drop(registered);
                // ordering: SeqCst — as run_task's final decrement (SC-only model)
                pool.remaining.store(0, SeqCst);
                pool.unpark_all_idlers();
            })
        };
        for idler in idlers {
            idler.join();
        }
        observer.join();
        let spun: u64 = pool(&shared).counters.iter().map(|c| c.snapshot().spins).sum();
        // ordering: SeqCst — a tally across schedules, read after the last
        total.fetch_add(spun, StdSeqCst);
    });
    // ordering: SeqCst — read after every schedule has run (SC-only model)
    (result, spins.load(StdSeqCst))
}

/// Invariant 11(b), through the real [`idle_wait`]: however two idlers'
/// re-checks and slot claims interleave, at most one of them spins at a
/// time; the other parks as before.
#[test]
fn two_idlers_never_spin_at_once() {
    let (result, spins) = check_one_spinner(idle_wait);
    let report = result.expect("no schedule may have two idlers spinning at once");
    assert!(report.iterations >= 100, "expected a real interleaving space, got {report:?}");
    assert!(spins > 0, "no explored schedule took the spin path");
}

/// Detection power for invariant 11(b): an idler that spins without
/// claiming the slot must be caught — two of them spin side by side.
#[test]
fn mutation_spin_without_the_slot_claim_is_caught() {
    fn spins_unclaimed(shared: &Shared, pool: &Pool, wid: usize, parker: &Parker) {
        lock(&pool.idlers).push((wid, parker.unparker()));
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_add(1, SeqCst);
        let empty = lock(&pool.sched).runq.is_empty()
            && pool.locals.iter().all(WorkStealingDeque::is_empty);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        if empty && pool.remaining.load(SeqCst) != 0 {
            // BUG (deliberate): the spin never claims the spinner slot.
            WorkerCounters::bump(&pool.counters[wid].spins, 1);
            spin_until(shared, parker, NEAR_NS);
        }
        lock(&pool.idlers).retain(|(w, _)| *w != wid);
        // ordering: SeqCst — as in idle_wait (SC-only model)
        pool.idle.fetch_sub(1, SeqCst);
    }
    let violation = check_one_spinner(spins_unclaimed)
        .0
        .expect_err("two idlers spinning at once must be caught");
    assert!(violation.message.contains("spin at once"), "got: {violation}");
}

/// A phase-one bolt for invariant 10: it only reads its input, its tick
/// flushes the partials 1 and 2, and its finish the partial 3.
struct Ticker;

impl Bolt for Ticker {
    fn execute(&mut self, _tuple: Tuple, _out: &mut Emitter<'_>) {}

    fn tick(&mut self, out: &mut Emitter<'_>) {
        out.emit(Tuple::new(*b"k", 1));
        out.emit(Tuple::new(*b"k", 2));
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        out.emit(Tuple::new(*b"k", 3));
    }
}

/// How the ticking bolt (task 1) runs its one activation: [`run_task`] on
/// worker 0, or a mutation of it.
type Activation = fn(&Shared);

/// Invariant 10's run. Task 1, a [`Ticker`] with an overdue tick and two
/// input tuples, runs one activation through `activation`: its tick flushes
/// two partials into the capacity-1 mailbox of task 0, an [`OrderBolt`]
/// sink, while the sink's drain runs concurrently. After the join, the
/// ticker must have read both inputs and, if a partial still waits in its
/// outbox, be queued or registered for the sink's release. Then its Eof
/// arrives and both tasks run to completion, one at a time: the sink must
/// see 1, 2, 3, and both tasks reach DONE.
fn check_ticking_backlog(
    activation: Activation,
) -> Result<pkg_model::Report, pkg_model::Violation> {
    pkg_model::Builder::new().preemption_bound(2).check(move || {
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let mut shared = mini_shared(2, 1);
        shared.tasks[1].mailbox =
            Some(Mailbox::Mutexed { cap: 4, inner: Mutex::default(), depth: AtomicUsize::new(0) });
        let sink = TaskKind::Bolt {
            bolt: Box::new(OrderBolt { seen: Arc::clone(&seen) }),
            eof_remaining: 1,
            tick_period_ns: None,
            next_tick_ns: u64::MAX,
        };
        *lock(&shared.tasks[0].body) = Some(Box::new(blank_body("sink", sink, Vec::new())));
        let ticker = TaskKind::Bolt {
            bolt: Box::new(Ticker),
            eof_remaining: 1,
            tick_period_ns: Some(1 << 40),
            next_tick_ns: 1,
        };
        let edge = OutEdge {
            router: Router::new(&Grouping::Key, 1, 7, 0),
            tx: EdgeTx::Tasks(vec![0]),
            hedge: None,
            signals: None,
        };
        *lock(&shared.tasks[1].body) = Some(Box::new(blank_body("ticker", ticker, vec![edge])));
        assert!(push(&shared, 1, ring_tuple(10)) && push(&shared, 1, ring_tuple(11)));
        lock(&pool(&shared).sched).runq.clear();
        let shared = Arc::new(shared);
        let ticker = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || activation(&shared))
        };
        let consumer = {
            let shared = Arc::clone(&shared);
            pkg_model::thread::spawn(move || {
                let mut body = lock(&shared.tasks[0].body);
                let Some(body) = body.as_mut() else { unreachable!("the sink is not running") };
                shared.refill_inbox(0, &mut body.inbox, 64);
            })
        };
        ticker.join();
        consumer.join();
        {
            let body = lock(&shared.tasks[1].body);
            let Some(body) = body.as_ref() else { unreachable!("the ticker is not running") };
            assert_eq!(body.processed, 2, "the tick's backlog stopped the ticker's input");
            if !body.outlet.outbox.is_empty() {
                let registered = match shared.mailbox(0) {
                    Mailbox::Mutexed { inner, .. } => lock(inner).waiters.contains(&1),
                    Mailbox::Ring(_) => unreachable!("the sink's mailbox is mutexed"),
                };
                // ordering: SeqCst — quiescent post-join read (SC-only model)
                let queued = shared.tasks[1].state.load(SeqCst) == QUEUED;
                assert!(queued || registered, "stranded backlog: idle, and no release will come");
            }
        }
        push(&shared, 1, Packet::Eof);
        while let Some(t) =
            steal(pool(&shared), 0).or_else(|| lock(&pool(&shared).sched).runq.pop_front())
        {
            run_task(&shared, t, 0);
        }
        assert_eq!(*seen.lock().expect("order log"), vec![1, 2, 3], "per-destination FIFO");
        for slot in &shared.tasks {
            // ordering: SeqCst — quiescent read, every thread joined (SC-only model)
            assert_eq!(slot.state.load(SeqCst), DONE, "a task never finished");
        }
    })
}

/// Invariant 10, through the real [`run_task`]: in every interleaving of
/// the tick's flush, its retry and the ticker's input with the sink's
/// drain, the ticker reads all of its input, a partial left in its outbox
/// is always owed a release (or already queued), and the run completes in
/// order with the Eof last (`activate`'s packets-after-final-Eof check).
#[test]
fn a_ticking_bolt_reads_its_input_around_its_backlog() {
    let report = check_ticking_backlog(|shared| {
        run_task(shared, 1, 0);
    })
    .expect("no schedule may strand a backlog or reorder the flush");
    assert!(
        report.iterations >= 100,
        "expected a real interleaving space, got {} schedules",
        report.iterations
    );
}

/// Detection power for invariant 10: a backlogged bolt that settles `Idle`
/// without the registration its failed retry made must be caught — the
/// sink's drain then releases nobody, and the backlog waits for input that
/// may never come.
#[test]
fn mutation_backlogged_idle_without_a_registered_waiter_is_caught() {
    fn idles_unregistered(shared: &Shared) {
        let slot = &shared.tasks[1];
        // ordering: SeqCst — as in run_task (SC-only model)
        slot.state.swap(RUNNING, SeqCst);
        let Some(mut body) = lock(&slot.body).take() else { unreachable!("queued") };
        let outcome = activate(shared, 1, 0, &mut body);
        if matches!(outcome, Outcome::Idle) && !body.outlet.outbox.is_empty() {
            // BUG (deliberate): settles Idle as if no retry had registered
            // the waiter.
            if let Mailbox::Mutexed { inner, .. } = shared.mailbox(0) {
                lock(inner).waiters.retain(|&w| w != 1);
            }
        }
        *lock(&slot.body) = Some(body);
        settle(shared, 1, &outcome, || {
            // ordering: SeqCst — as in run_task (SC-only model)
            slot.state.store(QUEUED, SeqCst);
            pool(shared).push_local(0, 1);
        });
    }
    let violation = check_ticking_backlog(idles_unregistered)
        .expect_err("an idle backlog with no registered waiter must be caught");
    assert!(violation.message.contains("stranded backlog"), "got: {violation}");
}
