//! Engine-side ingress wiring: admission control, load shedding, and the
//! state backing hedged dispatch.
//!
//! The mechanisms (token bucket, shed policies, hedge tag codec) live in
//! `pkg-ingress`; this module owns the *placement*: a `SpoutIngress` sits
//! between each spout and its emitter and decides, tuple by tuple, whether
//! the tuple enters the topology. Refused tuples go to the configured
//! [`ShedPolicy`]; whatever the policy retains is
//! re-injected at end-of-stream via the drain phase, ahead of EOF, so
//! downstream bolts see degraded summaries as ordinary tuples.
//!
//! There is one depth signal, whichever schedule drives the instances:
//! admission and hedging read the destination mailboxes' queue lengths
//! lock-free (ring indices, or the length the mutexed mailbox publishes
//! under its lock), and each mailbox keeps a producer-side high-water mark
//! that surfaces as `InstanceStats::max_depth`. Watermark shedding
//! therefore behaves the same under either schedule and either transport
//! (pinned by `tests/ingress_overload.rs`).

use crate::sync::Arc;
use crate::tuple::{Tuple, TupleKey};
use std::collections::VecDeque;
use std::fmt;

use pkg_ingress::{HardDrop, Shed, ShedPolicy, TokenBucket};

/// Factory producing one [`ShedPolicy`] per spout instance (instances run
/// on different threads, and policies are stateful).
pub type ShedPolicyFactory = dyn Fn(usize) -> Box<dyn ShedPolicy> + Send + Sync;

/// Ingress configuration, carried by `RuntimeOptions`. `None` (the
/// default at the `RuntimeOptions` level) disables the layer entirely —
/// the spout path is then byte-for-byte the pre-ingress code path.
#[derive(Clone)]
pub struct IngressOptions {
    /// Sustained admission rate in tuples/second per spout instance;
    /// `None` disables the token bucket.
    pub rate_per_sec: Option<u64>,
    /// Token-bucket burst capacity (tokens); clamped to at least 1.
    pub burst: u64,
    /// Downstream queue-depth watermark: when the deepest downstream
    /// mailbox reaches this many queued tuples, new tuples are shed until
    /// it recedes. `None` disables watermark shedding.
    pub watermark: Option<usize>,
    /// Builds the shed policy for a given spout instance; `None` means
    /// [`HardDrop`].
    pub policy: Option<Arc<ShedPolicyFactory>>,
    /// Hedged dispatch: when a head tuple's chosen instance has more than
    /// this many tuples queued, re-issue the tuple to the next candidate.
    /// `None` disables hedging.
    pub hedge_depth_budget: Option<usize>,
    /// Logical admission clock: advance the token bucket's clock by this
    /// many nanoseconds per *offered* tuple instead of reading wall time.
    /// Makes the admit/shed decision sequence a pure function of the input
    /// stream — identical across executors and hosts.
    pub logical_step_ns: Option<u64>,
}

impl Default for IngressOptions {
    fn default() -> Self {
        Self {
            rate_per_sec: None,
            burst: 1,
            watermark: None,
            policy: None,
            hedge_depth_budget: None,
            logical_step_ns: None,
        }
    }
}

impl fmt::Debug for IngressOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngressOptions")
            .field("rate_per_sec", &self.rate_per_sec)
            .field("burst", &self.burst)
            .field("watermark", &self.watermark)
            .field("policy", &self.policy.as_ref().map(|_| "<factory>"))
            .field("hedge_depth_budget", &self.hedge_depth_budget)
            .field("logical_step_ns", &self.logical_step_ns)
            .finish()
    }
}

/// Per-spout-instance admission state. The spout's activation consults it
/// with `(tuple, observed downstream depth, clock)` before emitting; at
/// end-of-stream it runs the drain phase to re-inject whatever the shed
/// policy retained.
pub(crate) struct SpoutIngress {
    bucket: Option<TokenBucket>,
    watermark: Option<usize>,
    policy: Box<dyn ShedPolicy>,
    logical_step_ns: Option<u64>,
    logical_now_ns: u64,
    dropped: u64,
    degraded: u64,
    drained: VecDeque<Tuple>,
    drain_started: bool,
}

impl SpoutIngress {
    pub(crate) fn new(options: &IngressOptions, instance: usize) -> Self {
        Self {
            bucket: options.rate_per_sec.map(|r| TokenBucket::new(r, options.burst)),
            watermark: options.watermark,
            policy: match &options.policy {
                Some(factory) => factory(instance),
                None => Box::new(HardDrop),
            },
            logical_step_ns: options.logical_step_ns,
            logical_now_ns: 0,
            dropped: 0,
            degraded: 0,
            drained: VecDeque::new(),
            drain_started: false,
        }
    }

    /// Whether [`Self::offer`] reads `depth`: true iff a watermark is set.
    /// When false, the spout skips the downstream depth scan and its
    /// emissions flush per quantum; when true, they flush per tuple, so
    /// each admission reads the queues as the tuple before left them.
    pub(crate) fn needs_depth(&self) -> bool {
        self.watermark.is_some()
    }

    /// Whether [`Self::offer`] reads `wall_now_ns`: a bucket with no logical
    /// clock refills from elapsed wall time, so every offer needs a fresh
    /// reading — one shared by a batch admits at most `burst` of it.
    pub(crate) fn needs_wall_clock(&self) -> bool {
        self.bucket.is_some() && self.logical_step_ns.is_none()
    }

    /// Offer one tuple for admission. `depth` is the deepest downstream
    /// queue observed right now (ignored unless [`Self::needs_depth`]);
    /// `wall_now_ns` is the runtime clock (used only when no logical clock
    /// is configured). Returns `true` to admit; on `false` the tuple has
    /// already been handed to the shed policy.
    pub(crate) fn offer(
        &mut self,
        key: &TupleKey,
        key_id: u64,
        value: i64,
        depth: usize,
        wall_now_ns: u64,
    ) -> bool {
        let now_ns = match self.logical_step_ns {
            Some(step) => {
                self.logical_now_ns += step;
                self.logical_now_ns
            }
            None => wall_now_ns,
        };
        let over_watermark = self.watermark.is_some_and(|mark| depth >= mark);
        let denied_by_bucket = match &mut self.bucket {
            Some(bucket) => !bucket.admit(now_ns),
            None => false,
        };
        if !(over_watermark || denied_by_bucket) {
            return true;
        }
        match self.policy.shed(key.as_bytes(), key_id, value) {
            Shed::Dropped => self.dropped += 1,
            Shed::Absorbed => self.degraded += 1,
        }
        false
    }

    /// Begin the end-of-stream drain phase: collect whatever the shed
    /// policy retained, as ordinary tuples with empty payloads. Idempotent,
    /// and restartable through [`Self::next_drained`] — the spout task may
    /// park mid-drain when its outbox fills.
    pub(crate) fn start_drain(&mut self) {
        if self.drain_started {
            return;
        }
        self.drain_started = true;
        for (key, value) in self.policy.drain() {
            self.drained.push_back(Tuple {
                key: TupleKey::from_slice(&key),
                value,
                payload: Box::new([]),
                born_ns: 0,
            });
        }
    }

    /// Next retained tuple to re-inject, if any.
    pub(crate) fn next_drained(&mut self) -> Option<Tuple> {
        self.drained.pop_front()
    }

    /// Has the drain phase started *and* run dry? Gates the Eof protocol
    /// (a spout is not complete while retained
    /// summaries still await re-injection).
    pub(crate) fn drain_complete(&self) -> bool {
        self.drain_started && self.drained.is_empty()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn degraded(&self) -> u64 {
        self.degraded
    }
}

/// Per-edge hedging state for a spout's out-edge: the latency budget, an
/// id generator for hedge tags, and the issue counter surfaced in
/// `InstanceStats::hedges`.
pub(crate) struct HedgeState {
    /// Queue-depth budget: hedge when the chosen instance has *more* than
    /// this many tuples queued.
    pub(crate) budget: usize,
    /// High bits of every hedge id from this spout instance, so ids are
    /// unique topology-wide without coordination.
    pub(crate) sender: u64,
    /// Per-sender sequence number (low bits of the hedge id).
    pub(crate) seq: u64,
    /// Hedges issued (each producing exactly one duplicate downstream).
    pub(crate) issued: u64,
}

impl HedgeState {
    pub(crate) fn new(budget: usize, sender: u64) -> Self {
        Self { budget, sender, seq: 0, issued: 0 }
    }

    /// Mint the tag id for the next hedge.
    pub(crate) fn next_id(&mut self) -> u64 {
        let id = (self.sender << 40) | self.seq;
        self.seq += 1;
        self.issued += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_sheds_exactly_at_the_mark() {
        let options = IngressOptions { watermark: Some(4), ..IngressOptions::default() };
        let mut ingress = SpoutIngress::new(&options, 0);
        let key = TupleKey::from_slice(b"k");
        assert!(ingress.offer(&key, 1, 1, 3, 0), "below the mark admits");
        assert!(!ingress.offer(&key, 1, 1, 4, 0), "at the mark sheds");
        assert!(!ingress.offer(&key, 1, 1, 9, 0), "above the mark sheds");
        assert!(ingress.offer(&key, 1, 1, 0, 0), "receding depth re-admits");
        assert_eq!(ingress.dropped(), 2);
        assert_eq!(ingress.degraded(), 0);
    }

    #[test]
    fn logical_clock_makes_bucket_decisions_input_only() {
        // 1000 tokens/s, one offer per 0.5 ms of logical time: after the
        // initial token, every other offer is admitted — regardless of
        // wall-clock values passed in.
        let options = IngressOptions {
            rate_per_sec: Some(1000),
            burst: 1,
            logical_step_ns: Some(500_000),
            ..IngressOptions::default()
        };
        let mut ingress = SpoutIngress::new(&options, 0);
        let key = TupleKey::from_slice(b"k");
        let decisions: Vec<bool> = (0..10).map(|i| ingress.offer(&key, 1, 1, 0, i * 999)).collect();
        assert_eq!(decisions.iter().filter(|&&d| d).count(), 5);
        assert_eq!(ingress.dropped(), 5);
    }

    #[test]
    fn drain_is_idempotent_and_restartable() {
        struct Retain(Vec<(Vec<u8>, i64)>);
        impl ShedPolicy for Retain {
            fn shed(&mut self, key: &[u8], _key_id: u64, value: i64) -> Shed {
                self.0.push((key.to_vec(), value));
                Shed::Absorbed
            }
            fn drain(&mut self) -> Vec<(Vec<u8>, i64)> {
                std::mem::take(&mut self.0)
            }
        }
        let options = IngressOptions {
            watermark: Some(0),
            policy: Some(Arc::new(|_| Box::new(Retain(Vec::new())))),
            ..IngressOptions::default()
        };
        let mut ingress = SpoutIngress::new(&options, 0);
        let key = TupleKey::from_slice(b"k");
        assert!(!ingress.offer(&key, 1, 7, 0, 0));
        assert!(!ingress.offer(&key, 1, 8, 0, 0));
        assert_eq!(ingress.degraded(), 2);
        ingress.start_drain();
        ingress.start_drain();
        let first = ingress.next_drained().expect("two retained tuples");
        assert_eq!(first.value, 7);
        ingress.start_drain();
        assert_eq!(ingress.next_drained().map(|t| t.value), Some(8));
        assert!(ingress.next_drained().is_none());
    }

    #[test]
    fn hedge_ids_are_unique_per_sender() {
        let mut a = HedgeState::new(4, 1);
        let mut b = HedgeState::new(4, 2);
        let ids = [a.next_id(), a.next_id(), b.next_id(), b.next_id()];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert_eq!(a.issued, 2);
    }
}
