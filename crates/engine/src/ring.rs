//! Bounded single-producer/single-consumer ring mailbox.
//!
//! Selected at `run_pool` build time for destinations with **exactly one
//! upstream sender instance** (the runtime's task state machine serializes
//! that sender's activations, so the single-producer discipline holds even
//! as the task migrates across workers; the destination task itself is the
//! single consumer). MPSC destinations keep the mutexed mailbox.
//!
//! The index protocol is lock-free: cache-line-padded `head`/`tail`
//! wrapping counters, the producer publishing on `tail`, the consumer on
//! `head`. The slot transfer itself goes through a per-slot
//! `crate::sync::Mutex` — the workspace forbids `unsafe`, so an
//! `UnsafeCell` hand-off is unavailable — but the index protocol guarantees
//! each slot lock is touched by exactly one thread at a time, so those
//! locks never contend (an uncontended lock is a single CAS, vs. the
//! mutexed mailbox's producer/consumer contention this ring removes).
//!
//! Backpressure follows the pool's park protocol: when the ring is full the
//! producer *announces* itself (`sleepers`), re-checks capacity under the
//! waiter lock, and only then registers for a release wake. The consumer
//! checks `sleepers` after popping; sequential consistency makes the
//! announce→re-check / pop→check pairs a total order in which a parked
//! producer is always observed (model-checked in `pool_model.rs`; see the
//! "Memory ordering policy" note in `schedule.rs` — every atomic here is
//! `SeqCst` because the vendored checker explores SC interleavings only).

use crate::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use crate::sync::{lock, Mutex};
use crate::tuple::Packet;

/// Pad hot indices to their own cache line so the producer's `tail` writes
/// do not false-share with the consumer's `head` writes.
#[repr(align(64))]
struct CachePadded<T>(T);

/// A bounded SPSC ring of [`Packet`]s with parked-producer bookkeeping.
pub struct SpscRing {
    /// Logical capacity (exactly the configured mailbox capacity; the slot
    /// array is the next power of two for mask indexing).
    pub(crate) cap: usize,
    mask: usize,
    /// Consumer position: a free-running wrapping counter; slot index is
    /// `head & mask`.
    head: CachePadded<AtomicUsize>,
    /// Producer position (same encoding).
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Mutex<Option<Packet>>]>,
    /// Producer's "I may be about to park" announcement; written before the
    /// under-lock capacity re-check so the consumer's pop→check sequence
    /// can never miss a parked producer.
    sleepers: AtomicUsize,
    /// Producer tasks parked on this ring being full (at most one — the
    /// single producer — but kept as a list for symmetry with the mailbox).
    waiters: Mutex<Vec<usize>>,
}

impl SpscRing {
    /// A ring accepting up to `cap ≥ 1` packets.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be positive");
        let slots = cap.next_power_of_two();
        Self {
            cap,
            mask: slots - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            sleepers: AtomicUsize::new(0),
            waiters: Mutex::new(Vec::new()),
        }
    }

    /// Producer: non-blocking push. `Err` returns the packet when full.
    pub(crate) fn try_push(&self, packet: Packet) -> Result<(), Packet> {
        // ordering: SeqCst — tail is producer-owned; the load pairs with our
        // own last store (SC-only model, see module doc)
        let tail = self.tail.0.load(SeqCst);
        // ordering: SeqCst — capacity check against the consumer's pops; SC
        // puts it in one total order with head publications (SC-only model)
        let head = self.head.0.load(SeqCst);
        if tail.wrapping_sub(head) >= self.cap {
            return Err(packet);
        }
        *lock(&self.slots[tail & self.mask]) = Some(packet);
        // ordering: SeqCst — publishes the filled slot to the consumer; the
        // slot mutex's release already fences the payload (SC-only model)
        self.tail.0.store(tail.wrapping_add(1), SeqCst);
        Ok(())
    }

    /// Consumer: non-blocking pop.
    pub fn pop(&self) -> Option<Packet> {
        // ordering: SeqCst — head is consumer-owned (SC-only model)
        let head = self.head.0.load(SeqCst);
        // ordering: SeqCst — emptiness check pairs with the producer's tail
        // publication (SC-only model)
        let tail = self.tail.0.load(SeqCst);
        if head == tail {
            return None;
        }
        let packet = lock(&self.slots[head & self.mask]).take();
        debug_assert!(packet.is_some(), "non-empty ring slot holds a packet");
        // ordering: SeqCst — frees the slot for the producer's capacity
        // check (SC-only model)
        self.head.0.store(head.wrapping_add(1), SeqCst);
        packet
    }

    /// Producer: push as many packets from `supply` as currently fit,
    /// publishing `tail` **once** for the whole run — the batch analogue
    /// of a one-packet push. Returns how many packets were accepted;
    /// `supply` is only advanced that many times, so unaccepted packets
    /// stay with the caller.
    ///
    /// The capacity snapshot is taken before filling: a concurrent
    /// consumer can only *increase* free space, so a stale `head` read
    /// under-counts and the push is merely conservative, never unsound.
    pub fn push_batch(&self, supply: &mut impl Iterator<Item = Packet>) -> usize {
        // ordering: SeqCst — producer-owned tail (SC-only model)
        let tail = self.tail.0.load(SeqCst);
        // ordering: SeqCst — capacity snapshot against the consumer's head
        // publications; staleness only under-counts free slots (SC-only model)
        let head = self.head.0.load(SeqCst);
        let free = self.cap - tail.wrapping_sub(head);
        let mut accepted = 0usize;
        while accepted < free {
            let Some(packet) = supply.next() else { break };
            *lock(&self.slots[tail.wrapping_add(accepted) & self.mask]) = Some(packet);
            accepted += 1;
        }
        if accepted > 0 {
            // ordering: SeqCst — one publication for the whole run; every
            // slot mutex above is released before the consumer can observe
            // these indices (SC-only model)
            self.tail.0.store(tail.wrapping_add(accepted), SeqCst);
        }
        accepted
    }

    /// Consumer: pop up to `max` packets into `sink`, publishing `head`
    /// **once** for the whole run — the batch analogue of [`Self::pop`].
    /// Returns how many packets moved. The occupancy snapshot is taken
    /// before draining: a concurrent producer can only *add* packets, so a
    /// stale `tail` read under-counts and the drain is merely conservative.
    pub fn pop_batch(&self, max: usize, sink: &mut impl FnMut(Packet)) -> usize {
        // ordering: SeqCst — consumer-owned head (SC-only model)
        let head = self.head.0.load(SeqCst);
        // ordering: SeqCst — occupancy snapshot against the producer's tail
        // publication; staleness only under-counts (SC-only model)
        let tail = self.tail.0.load(SeqCst);
        let run = tail.wrapping_sub(head).min(max);
        for i in 0..run {
            let packet = lock(&self.slots[head.wrapping_add(i) & self.mask]).take();
            debug_assert!(packet.is_some(), "non-empty ring slot holds a packet");
            if let Some(p) = packet {
                sink(p);
            }
        }
        if run > 0 {
            // ordering: SeqCst — frees all drained slots for the producer's
            // capacity check in one publication (SC-only model)
            self.head.0.store(head.wrapping_add(run), SeqCst);
        }
        run
    }

    /// Producer: push, or register `waiter` for a backpressure-release
    /// wake. The announce→re-check sequence under the waiter lock is what
    /// makes the registration race-free against a concurrent drain (see
    /// module doc).
    pub fn push_or_park(&self, packet: Packet, waiter: usize) -> Result<(), Packet> {
        let packet = match self.try_push(packet) {
            Ok(()) => return Ok(()),
            Err(p) => p,
        };
        let mut ws = lock(&self.waiters);
        // ordering: SeqCst — announce BEFORE the capacity re-check: if that
        // still sees full it precedes the consumer's next pop in SC order,
        // so the pop's sleeper check sees the announce (SC-only model)
        self.sleepers.store(1, SeqCst);
        // ordering: SeqCst — producer-owned tail (SC-only model)
        let tail = self.tail.0.load(SeqCst);
        // ordering: SeqCst — re-check under the waiter lock (SC-only model)
        let head = self.head.0.load(SeqCst);
        if tail.wrapping_sub(head) < self.cap {
            // The consumer drained between the first check and the lock.
            // ordering: SeqCst — retract the announcement (SC-only model)
            self.sleepers.store(0, SeqCst);
            drop(ws);
            return self.try_push(packet);
        }
        if !ws.contains(&waiter) {
            ws.push(waiter);
        }
        Err(packet)
    }

    /// Consumer: collect parked producers to wake after draining. Returns
    /// an empty (allocation-free) vec on the fast path.
    pub fn take_waiters(&self) -> Vec<usize> {
        // ordering: SeqCst — executed after this consumer's pops; a parked
        // producer's announce precedes those pops' observed fullness, so it
        // is visible here (SC-only model)
        if self.sleepers.load(SeqCst) == 0 {
            return Vec::new();
        }
        let mut ws = lock(&self.waiters);
        // ordering: SeqCst — reset under the same lock producers announce
        // under (SC-only model)
        self.sleepers.store(0, SeqCst);
        std::mem::take(&mut ws)
    }

    /// Whether the ring holds no packets (same caveats as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packets currently queued (either endpoint may call; a racy estimate
    /// anywhere else, exact from the consumer). Read by the depth signal;
    /// the packet path never needs a length.
    pub fn len(&self) -> usize {
        // ordering: SeqCst — paired snapshot reads (SC-only model)
        let tail = self.tail.0.load(SeqCst);
        // ordering: SeqCst — see above (SC-only model)
        let head = self.head.0.load(SeqCst);
        tail.wrapping_sub(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn tup(v: i64) -> Packet {
        Packet::Tuple(Tuple::new(vec![v as u8], v))
    }

    fn val(p: Packet) -> i64 {
        match p {
            Packet::Tuple(t) => t.value,
            Packet::Eof => -1,
        }
    }

    #[test]
    fn fifo_push_pop_round_trip() {
        let r = SpscRing::new(4);
        assert!(r.pop().is_none());
        for v in 0..4 {
            assert!(r.try_push(tup(v)).is_ok());
        }
        assert_eq!(r.len(), 4);
        assert!(r.try_push(tup(9)).is_err(), "full ring rejects");
        for v in 0..4 {
            assert_eq!(r.pop().map(val), Some(v));
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn wraps_many_laps_with_non_pow2_capacity() {
        let r = SpscRing::new(3);
        let mut next_in = 0i64;
        let mut next_out = 0i64;
        for _ in 0..50 {
            while r.try_push(tup(next_in)).is_ok() {
                next_in += 1;
            }
            while let Some(p) = r.pop() {
                assert_eq!(val(p), next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
        assert!(next_in >= 150, "3 per lap over 50 laps");
    }

    #[test]
    fn batch_ops_round_trip_and_spill_cleanly() {
        let r = SpscRing::new(3);
        let mut supply = (0..5).map(tup);
        assert_eq!(r.push_batch(&mut supply), 3, "capacity bounds the run");
        assert_eq!(supply.count(), 2, "unaccepted packets stay with the caller");
        let mut got = Vec::new();
        assert_eq!(r.pop_batch(2, &mut |p| got.push(val(p))), 2);
        assert_eq!(r.pop_batch(8, &mut |p| got.push(val(p))), 1);
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(r.pop_batch(8, &mut |_| unreachable!("empty ring")), 0);
    }

    #[test]
    fn batch_ops_wrap_many_laps_with_non_pow2_capacity() {
        let r = SpscRing::new(3);
        let mut next_in = 0i64;
        let mut next_out = 0i64;
        for _ in 0..50 {
            let mut supply = (next_in..next_in + 2).map(tup);
            next_in += r.push_batch(&mut supply) as i64;
            r.pop_batch(usize::MAX, &mut |p| {
                assert_eq!(val(p), next_out);
                next_out += 1;
            });
        }
        assert_eq!(next_in, next_out);
        assert!(next_in >= 100, "2 per lap over 50 laps");
    }

    #[test]
    fn push_or_park_registers_waiter_only_while_full() {
        let r = SpscRing::new(1);
        assert!(r.push_or_park(tup(1), 7).is_ok());
        let rejected = r.push_or_park(tup(2), 7);
        let Err(packet) = rejected else { panic!("full ring must reject") };
        // Duplicate registration is idempotent.
        assert!(r.push_or_park(packet, 7).is_err());
        assert_eq!(r.pop().map(val), Some(1));
        assert_eq!(r.take_waiters(), vec![7]);
        assert!(r.take_waiters().is_empty(), "waiters drain once");
        assert!(r.push_or_park(tup(3), 7).is_ok(), "space available again");
    }
}
