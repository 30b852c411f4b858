//! The transport: every task's bounded input mailbox, and the one delivery
//! loop per mailbox kind ([`Shared::fill`]) that every emission and every
//! backlog retry goes through. A producer never blocks: what does not fit
//! spills to its outbox, and the consumer's drain wakes it
//! ([`Shared::refill_inbox`]).

#![warn(clippy::pedantic)]

use std::collections::VecDeque;

use crate::ring::SpscRing;
use crate::schedule::Shared;
use crate::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use crate::sync::{lock, Mutex};
use crate::task::{WakeKind, DONE};
use crate::tuple::{Packet, PacketBatch};

#[derive(Default)]
pub(crate) struct MailboxInner {
    pub(crate) queue: VecDeque<Packet>,
    /// Producer tasks parked on this mailbox being full.
    pub(crate) waiters: Vec<usize>,
}

/// A task's input queue. The transport is chosen at `run_pool` build time
/// per destination and encoded in the matching [`EdgeTx`] variant:
///
/// | upstream sender instances | transport | edge |
/// |---------------------------|-----------|------|
/// | exactly 1 (and rings on)  | [`SpscRing`] — lock-free indices | `TaskRings` |
/// | several (MPSC)            | mutexed `VecDeque` | `Tasks` |
///
/// [`EdgeTx`]: crate::bolt::EdgeTx
pub(crate) enum Mailbox {
    /// Multi-producer: every push/drain takes the mailbox lock, and
    /// publishes the resulting queue length in `depth` before releasing it
    /// ([`publish_depth`]) so depth readers never touch the lock.
    Mutexed { cap: usize, inner: Mutex<MailboxInner>, depth: AtomicUsize },
    /// Single-producer: bounded SPSC ring, no lock on the packet path.
    Ring(SpscRing),
}

impl Shared {
    pub(crate) fn mailbox(&self, tid: usize) -> &Mailbox {
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
            // ordering: SeqCst — advisory signal at the runtime's policy
            // ordering; the mailbox lock orders its writers (SC-only model)
            Mailbox::Mutexed { depth, .. } => depth.load(SeqCst),
            Mailbox::Ring(ring) => ring.len(),
        }
    }

    /// Fold an observed mailbox depth into `tid`'s high-water mark. The
    /// model-switched `AtomicUsize` has no `fetch_max`, hence the CAS loop.
    fn note_depth(&self, tid: usize, depth: usize) {
        let high = &self.tasks[tid].depth_high;
        // ordering: SeqCst — statistics-only high-water, kept at the runtime's
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
    /// Those are `Unpark` wakes, which the pool queues on its injector
    /// whoever raises them, so the draining worker's id is not needed here.
    pub(crate) fn refill_inbox(&self, tid: usize, inbox: &mut PacketBatch, max: usize) -> usize {
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
}

/// Publish a mutexed mailbox's queue length for [`Shared::depth`] and return
/// it. Callers hold the mailbox lock, so the last store is the live length
/// (stored after release, a stale length could overwrite a fresher one).
fn publish_depth(depth: &AtomicUsize, len: usize) -> usize {
    // ordering: SeqCst — advisory signal at the runtime's policy ordering;
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
