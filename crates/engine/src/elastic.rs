//! In-band elasticity plumbing: epoch markers and the migration bus.
//!
//! Membership changes travel through the data plane itself. Each sender's
//! [`crate::grouping::Router`] counts the tuples it has routed on an
//! elastic edge; when the count crosses a [`pkg_elastic::MembershipPlan`]
//! threshold the sender broadcasts an *epoch marker* — a regular
//! [`Tuple`] with the reserved key [`EPOCH_MARKER_KEY`] — to **every**
//! downstream instance, then starts routing with the new live set. Because
//! every channel/mailbox is FIFO, a marker separates the receiver's stream
//! into "old epoch" and "new epoch" halves with no extra synchronization:
//! tuples routed under the old membership always land before the marker,
//! so a departing instance knows exactly when its inbound traffic is
//! drained and its state can migrate.
//!
//! State moves over the [`MigrationBus`], a shared-memory side channel with
//! one queue per downstream instance. A departer serializes each window
//! accumulator (through the same `PartialAgg` codec the aggregation phase
//! uses) into a [`MigrationMsg::State`] addressed to the key's new owner,
//! then posts [`MigrationMsg::Done`] to every live instance so receivers
//! know when the hand-off is complete and routing can un-gate. The bus
//! counts sends and receipts so drivers can assert conservation.
//!
//! This module is covered by the `facade` lint rule: all
//! concurrency primitives come from `crate::sync`, keeping it eligible for
//! the model-checked suite.

use crate::sync::{lock, Arc, Mutex};
use crate::tuple::Tuple;

/// Reserved key of epoch-marker tuples. Starts with a NUL byte so no
/// ordinary text key can collide with it.
pub const EPOCH_MARKER_KEY: &[u8] = b"\x00pkg-elastic:epoch";

/// Build the marker tuple announcing `epoch`, stamped with `now_ns`.
pub fn epoch_marker(epoch: u32, now_ns: u64) -> Tuple {
    let mut t = Tuple::new(EPOCH_MARKER_KEY, i64::from(epoch));
    t.born_ns = now_ns;
    t
}

/// The epoch a marker tuple announces, or `None` for ordinary tuples.
pub fn marker_epoch(tuple: &Tuple) -> Option<u32> {
    if tuple.key.as_ref() == EPOCH_MARKER_KEY {
        u32::try_from(tuple.value).ok()
    } else {
        None
    }
}

/// One message on the [`MigrationBus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationMsg {
    /// A serialized window accumulator handed from a departing instance to
    /// the key's new owner.
    State {
        /// Epoch whose membership change triggered the hand-off.
        epoch: u32,
        /// Departing instance index.
        from: usize,
        /// The key whose accumulator is moving.
        key: Box<[u8]>,
        /// Codec bytes (`PartialAgg::encode` format).
        bytes: Vec<u8>,
    },
    /// A departing instance finished flushing for `epoch`; receivers count
    /// one `Done` per departer before un-gating.
    Done {
        /// Epoch whose membership change triggered the hand-off.
        epoch: u32,
        /// Departing instance index.
        from: usize,
    },
}

/// Shared-memory side channel for migrating state between the instances of
/// one elastic bolt: a queue per instance plus conservation counters.
/// Cloning is cheap and shares the underlying state.
#[derive(Clone)]
pub struct MigrationBus {
    state: Arc<Mutex<BusState>>,
}

struct BusState {
    queues: Vec<Vec<MigrationMsg>>,
    sent: u64,
    received: u64,
}

impl MigrationBus {
    /// A bus for `instances` downstream instances.
    pub fn new(instances: usize) -> Self {
        let queues = (0..instances).map(|_| Vec::new()).collect();
        Self { state: Arc::new(Mutex::new(BusState { queues, sent: 0, received: 0 })) }
    }

    /// Number of instance queues.
    pub fn instances(&self) -> usize {
        lock(&self.state).queues.len()
    }

    /// Post `msg` to instance `to`'s queue.
    pub fn send(&self, to: usize, msg: MigrationMsg) {
        let mut s = lock(&self.state);
        assert!(to < s.queues.len(), "migration bus: instance {to} out of range");
        s.queues[to].push(msg);
        s.sent += 1;
    }

    /// Take every message queued for instance `to`, in posting order.
    pub fn drain(&self, to: usize) -> Vec<MigrationMsg> {
        let mut s = lock(&self.state);
        assert!(to < s.queues.len(), "migration bus: instance {to} out of range");
        let msgs = std::mem::take(&mut s.queues[to]);
        s.received += msgs.len() as u64;
        msgs
    }

    /// `(sent, received)` message totals — equal exactly when every posted
    /// message has been drained (the driver's conservation check).
    pub fn totals(&self) -> (u64, u64) {
        let s = lock(&self.state);
        (s.sent, s.received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_round_trips_epoch() {
        let t = epoch_marker(7, 42);
        assert_eq!(t.born_ns, 42);
        assert_eq!(marker_epoch(&t), Some(7));
        assert_eq!(marker_epoch(&Tuple::new(b"word".as_slice(), 1)), None);
    }

    #[test]
    fn ordinary_nul_prefixed_key_is_not_a_marker() {
        let t = Tuple::new(b"\x00pkg-elastic:other".as_slice(), 3);
        assert_eq!(marker_epoch(&t), None);
    }

    #[test]
    fn bus_preserves_order_and_counts_conservation() {
        let bus = MigrationBus::new(3);
        let other = bus.clone();
        other.send(
            1,
            MigrationMsg::State { epoch: 1, from: 0, key: (*b"k").into(), bytes: vec![9] },
        );
        bus.send(1, MigrationMsg::Done { epoch: 1, from: 0 });
        assert_eq!(bus.totals(), (2, 0));
        let got = bus.drain(1);
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], MigrationMsg::State { .. }));
        assert!(matches!(got[1], MigrationMsg::Done { epoch: 1, from: 0 }));
        assert_eq!(bus.totals(), (2, 2));
        assert!(bus.drain(1).is_empty());
        assert!(bus.drain(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_send_panics() {
        MigrationBus::new(1).send(1, MigrationMsg::Done { epoch: 0, from: 0 });
    }
}
