//! Phase-one worker bolt for **elastic** topologies: windowed partial
//! aggregation that survives runtime membership changes via key-space
//! migration.
//!
//! An [`ElasticWorkerBolt`] sits downstream of an elastic edge
//! (`pkg_engine::Grouping::elastic(plan)`). Senders on that edge announce each
//! membership epoch with an in-band marker tuple (see `pkg_engine::elastic`)
//! broadcast on every FIFO channel, so a receiving instance knows precisely
//! when its old-epoch inbound traffic has drained: once it holds one marker
//! per upstream sender, no earlier-epoch tuple can still be in flight to it.
//!
//! The migration protocol, per epoch transition `e−1 → e`:
//!
//! 1. Every instance (live or not — markers are broadcast) counts markers
//!    for epoch `e`; the transition *seals* at the instance when the count
//!    reaches the upstream sender count.
//! 2. A **departer** (live in `e−1`, dead in `e`) seals, then drains: each
//!    per-key accumulator of its open window pane is encoded with the
//!    ordinary [`PartialAgg`] codec and posted on the
//!    [`pkg_engine::MigrationBus`] as a `State` message addressed to the
//!    key's new owner — a deterministic hash pick over `live(e)`. A `Done`
//!    message then goes to every live instance.
//! 3. A **live** instance that seals while departers exist *gates*: new
//!    tuples are buffered (never dropped) until a `Done` arrives from every
//!    departer, guaranteeing migrated state merges in before post-migration
//!    results can flush. Absorbed `State` messages fold into the open pane
//!    via `TumblingWindow::merge_partial`.
//! 4. A **joiner** (dead in `e−1`, live in `e`) needs no migration of its
//!    own — its estimate-driven catch-up is the router's business — but
//!    gates like any live instance, since it may own migrated keys.
//!
//! In-flight old-epoch tuples are therefore always *processed at the old
//! owner before it drains* (FIFO + marker counting), migrated state is
//! merged before un-gating, and nothing is ever dropped — the conservation
//! and byte-identity gates the `fig_elastic` driver checks.

use std::time::{Duration, Instant};

use pkg_agg::{PartialAgg, TumblingWindow};
use pkg_elastic::MembershipPlan;
use pkg_engine::bolt::{Bolt, Emitter};
use pkg_engine::elastic::{marker_epoch, MigrationBus, MigrationMsg};
use pkg_engine::tuple::{Tuple, TupleKey};
use pkg_hash::{FxHashMap, FxHashSet, HashFamily};

use std::sync::Arc;

use crate::bolts::emit_partials;

/// How long [`Bolt::finish`] will poll the migration bus for outstanding
/// `Done` messages before giving up (a departer stuck before its seal would
/// otherwise hang shutdown; in a correct topology the wait is microseconds).
const FINISH_WAIT_CAP: Duration = Duration::from_secs(10);

/// Phase one of an elastic two-phase aggregation: a windowed per-key worker
/// that follows a [`MembershipPlan`] — leaving the live set hands its window
/// state to the surviving instances, rejoining picks traffic straight back
/// up.
pub struct ElasticWorkerBolt<A: PartialAgg> {
    /// This instance's index in the fixed id space `0..plan.capacity()`.
    index: usize,
    /// Upstream sender count on the elastic edge (markers per epoch).
    senders: usize,
    plan: Arc<MembershipPlan>,
    bus: MigrationBus,
    /// Owner pick for migrating keys: first hash choice over the live set.
    /// Deterministic and shared by all instances; it need not agree with the
    /// senders' two-choice routing — any live owner flushes downstream to
    /// the same aggregator.
    family: HashFamily,
    window: TumblingWindow<TupleKey, A>,
    /// Logical clock: engine ticks fired so far.
    ticks: u64,
    /// The epoch whose traffic this instance is currently processing.
    epoch: u32,
    /// Markers received per not-yet-sealed epoch.
    markers: FxHashMap<u32, usize>,
    /// Every `(epoch, departer)` whose `Done` has arrived.
    dones: FxHashSet<(u32, usize)>,
    /// Outstanding `(epoch, departer)` pairs gating this instance.
    waiting: FxHashSet<(u32, usize)>,
    /// Tuples buffered while gated, replayed in arrival order on un-gate.
    pending: Vec<Tuple>,
}

impl<A: PartialAgg> ElasticWorkerBolt<A> {
    /// A per-key elastic worker. `index` is this instance's id, `senders`
    /// the number of upstream instances on the elastic edge, and `seed` any
    /// constant shared by all instances of the bolt (it parameterizes the
    /// migration owner pick, not routing).
    pub fn new(
        index: usize,
        senders: usize,
        plan: Arc<MembershipPlan>,
        bus: MigrationBus,
        seed: u64,
    ) -> Self {
        assert!(index < plan.capacity(), "instance index outside the plan's id space");
        assert!(senders > 0, "an elastic edge needs at least one sender");
        Self {
            index,
            senders,
            plan,
            bus,
            family: HashFamily::new(1, seed),
            window: TumblingWindow::new(1),
            ticks: 0,
            epoch: 0,
            markers: FxHashMap::default(),
            dones: FxHashSet::default(),
            waiting: FxHashSet::default(),
            pending: Vec::new(),
        }
    }

    /// Builder: widen panes to close every `n ≥ 1` ticks instead of every
    /// tick.
    pub fn panes_every_ticks(mut self, n: u64) -> Self {
        self.window = TumblingWindow::new(n.max(1));
        self
    }

    /// Epoch this instance is currently processing.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the instance is currently buffering tuples behind a gate.
    pub fn gated(&self) -> bool {
        !self.waiting.is_empty()
    }

    /// Drain this instance's migration-bus queue: fold `State` into the open
    /// pane, record `Done`s (possibly releasing the gate).
    fn absorb_bus(&mut self, out: &mut Emitter<'_>) {
        for msg in self.bus.drain(self.index) {
            match msg {
                MigrationMsg::State { key, bytes, epoch, from } => match A::decode(&bytes) {
                    Some(part) => {
                        // The bus speaks boxed keys (cold path); re-inline on
                        // arrival so window lookups stay allocation-free.
                        let key = TupleKey::from(key);
                        if let Some(pane) = self.window.merge_partial(key, &part, self.ticks) {
                            emit_partials(pane, out);
                        }
                    }
                    None => panic!(
                        "undecodable {} migration payload (epoch {epoch}, from {from})",
                        A::NAME
                    ),
                },
                MigrationMsg::Done { epoch, from } => {
                    self.dones.insert((epoch, from));
                    self.waiting.remove(&(epoch, from));
                }
            }
        }
        if self.waiting.is_empty() && !self.pending.is_empty() {
            for t in std::mem::take(&mut self.pending) {
                self.fold(t);
            }
        }
    }

    /// Fold one ordinary tuple into the open window pane.
    fn fold(&mut self, tuple: Tuple) {
        let key_id = tuple.key_id();
        let closed = self.window.insert(tuple.key, key_id, tuple.value, self.ticks);
        debug_assert!(closed.is_none(), "the logical clock only moves on ticks");
    }

    /// Seal the transition into `epoch`: run the departer hand-off or raise
    /// the receiver gate, as this instance's role demands.
    fn enter_epoch(&mut self, epoch: u32, out: &mut Emitter<'_>) {
        let was_live = self.plan.live(epoch - 1).contains(&self.index);
        let now_live = self.plan.live(epoch).contains(&self.index);
        self.epoch = epoch;
        if was_live && !now_live {
            // Departing: everything this instance holds must move. Any
            // buffered tuples were legitimately routed here while live —
            // fold them in so they migrate too (the gate they waited on is
            // moot once the state leaves).
            self.absorb_bus(out);
            self.waiting.clear();
            for t in std::mem::take(&mut self.pending) {
                self.fold(t);
            }
            let live = self.plan.live(epoch);
            if let Some(pane) = self.window.flush() {
                for (key, acc) in pane.accs {
                    let owner = self.family.choice_in(0, key.as_ref(), live);
                    let msg = MigrationMsg::State {
                        epoch,
                        from: self.index,
                        key: key.into_boxed(),
                        bytes: acc.encoded(),
                    };
                    self.bus.send(owner, msg);
                }
            }
            for &w in live {
                self.bus.send(w, MigrationMsg::Done { epoch, from: self.index });
            }
        } else if now_live {
            for d in self.plan.departers(epoch) {
                if !self.dones.contains(&(epoch, d)) {
                    self.waiting.insert((epoch, d));
                }
            }
        }
    }
}

impl<A: PartialAgg> Bolt for ElasticWorkerBolt<A> {
    fn execute(&mut self, tuple: Tuple, out: &mut Emitter<'_>) {
        self.absorb_bus(out);
        if let Some(marked) = marker_epoch(&tuple) {
            *self.markers.entry(marked).or_insert(0) += 1;
            // Seal strictly in epoch order; a fast sender's marker for a
            // later epoch waits until every earlier one is complete.
            while self.markers.get(&(self.epoch + 1)) == Some(&self.senders) {
                let next = self.epoch + 1;
                self.markers.remove(&next);
                self.enter_epoch(next, out);
            }
            return;
        }
        if self.waiting.is_empty() {
            self.fold(tuple);
        } else {
            self.pending.push(tuple);
        }
    }

    fn tick(&mut self, out: &mut Emitter<'_>) {
        self.absorb_bus(out);
        self.ticks += 1;
        // Hold the open pane while gated: migrated state must merge into it
        // before it can flush.
        if self.waiting.is_empty() {
            if let Some(pane) = self.window.advance_to(self.ticks) {
                emit_partials(pane, out);
            }
        }
    }

    fn finish(&mut self, out: &mut Emitter<'_>) {
        // Outstanding departers finished their inbound streams too (Eof
        // ordering), so their Done is at most a few scheduler slices away —
        // poll the bus, with a cap so a wiring bug fails loudly downstream
        // (conservation) instead of hanging shutdown.
        let start = Instant::now();
        loop {
            self.absorb_bus(out);
            if self.waiting.is_empty() || start.elapsed() > FINISH_WAIT_CAP {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        for t in std::mem::take(&mut self.pending) {
            self.fold(t);
        }
        if let Some(pane) = self.window.flush() {
            emit_partials(pane, out);
        }
    }

    fn state_size(&self) -> usize {
        self.window.entries() + self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_agg::Sum;
    use pkg_elastic::Change;
    use pkg_engine::elastic::epoch_marker;

    fn plan_remove_1() -> Arc<MembershipPlan> {
        Arc::new(MembershipPlan::new(2).with_step(10, [Change::Remove(1)]))
    }

    #[test]
    fn departer_hands_state_to_the_survivor_and_posts_done() {
        let plan = plan_remove_1();
        let bus = MigrationBus::new(2);
        let mut departer = ElasticWorkerBolt::<Sum>::new(1, 1, Arc::clone(&plan), bus.clone(), 7);
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        departer.execute(Tuple::new(b"k".to_vec(), 5), &mut out);
        departer.execute(epoch_marker(1, 1), &mut out);
        assert_eq!(departer.epoch(), 1);
        let msgs = bus.drain(0);
        assert_eq!(msgs.len(), 2, "one State for the key, one Done");
        match &msgs[0] {
            MigrationMsg::State { epoch: 1, from: 1, key, bytes } => {
                assert_eq!(key.as_ref(), b"k");
                assert_eq!(Sum::decode(bytes).map(|a| a.emit()), Some(5));
            }
            other => panic!("expected State first, got {other:?}"),
        }
        assert_eq!(msgs[1], MigrationMsg::Done { epoch: 1, from: 1 });
        assert_eq!(departer.state_size(), 0, "nothing left behind");
    }

    #[test]
    fn survivor_gates_until_done_then_replays_buffer() {
        let plan = plan_remove_1();
        let bus = MigrationBus::new(2);
        let mut survivor = ElasticWorkerBolt::<Sum>::new(0, 1, Arc::clone(&plan), bus.clone(), 7);
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        survivor.execute(epoch_marker(1, 1), &mut out);
        assert!(survivor.gated(), "departer 1 has not posted Done yet");
        survivor.execute(Tuple::new(b"k".to_vec(), 2), &mut out);
        assert_eq!(survivor.window.entries(), 0, "tuple buffered, not folded");
        // The departer's hand-off arrives: state + done.
        let mut part = Sum::identity();
        part.insert(0, 5);
        bus.send(
            0,
            MigrationMsg::State { epoch: 1, from: 1, key: (*b"k").into(), bytes: part.encoded() },
        );
        bus.send(0, MigrationMsg::Done { epoch: 1, from: 1 });
        survivor.execute(Tuple::new(b"k".to_vec(), 1), &mut out);
        assert!(!survivor.gated());
        let pane = survivor.window.flush().expect("state merged and replayed");
        let acc = pane.accs.get(&TupleKey::from_slice(b"k")).expect("key present");
        assert_eq!(acc.emit(), 5 + 2 + 1, "migrated 5 + buffered 2 + live 1");
    }

    #[test]
    fn done_arriving_before_the_marker_never_gates() {
        let plan = plan_remove_1();
        let bus = MigrationBus::new(2);
        let mut survivor = ElasticWorkerBolt::<Sum>::new(0, 1, plan, bus.clone(), 7);
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        bus.send(0, MigrationMsg::Done { epoch: 1, from: 1 });
        survivor.execute(Tuple::new(b"x".to_vec(), 1), &mut out);
        survivor.execute(epoch_marker(1, 1), &mut out);
        assert!(!survivor.gated(), "Done was already on the bus");
    }

    #[test]
    fn markers_seal_in_epoch_order_with_multiple_senders() {
        let plan = Arc::new(
            MembershipPlan::new(2)
                .with_step(10, [Change::Remove(1)])
                .with_step(20, [Change::Insert(1)]),
        );
        let bus = MigrationBus::new(2);
        let mut w = ElasticWorkerBolt::<Sum>::new(0, 2, plan, bus, 7);
        let mut emitted = 0u64;
        let mut out = Emitter::drop_sink(&mut emitted);
        // A fast sender races ahead to epoch 2; the slow one is mid-epoch 1.
        w.execute(epoch_marker(1, 1), &mut out);
        w.execute(epoch_marker(2, 1), &mut out);
        assert_eq!(w.epoch(), 0, "epoch 1 not sealed until both senders mark");
        w.execute(epoch_marker(1, 1), &mut out);
        assert_eq!(w.epoch(), 1, "epoch 1 sealed; epoch 2 still one marker short");
        w.execute(epoch_marker(2, 1), &mut out);
        assert_eq!(w.epoch(), 2);
    }
}
