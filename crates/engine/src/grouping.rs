//! Stream groupings — how an edge partitions tuples among the downstream
//! instances. These mirror Storm's groupings plus the paper's new primitive.

use std::sync::Arc;

use pkg_core::{
    CandidatePolicy, Estimate, HeadCap, LoadView, PartialKeyGrouping, Partitioner as _,
    SharedLoads, DEFAULT_EPSILON,
};
use pkg_elastic::MembershipPlan;

/// Partitioning strategy of one topology edge.
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping {
    /// Round-robin (Storm's shuffle grouping).
    Shuffle,
    /// Hash on the key (Storm's fields grouping / the paper's KG).
    Key,
    /// The greedy family: each tuple goes to the candidate with the lowest
    /// estimated load, locally estimated per sender (§III-B). `policy` says
    /// how many members of its hash sequence a key gets — PARTIAL KEY
    /// GROUPING's `Fixed(2)`, or D-/W-CHOICES' head-key widening (use those
    /// when the downstream parallelism exceeds `O(1/p1)`).
    ///
    /// With a `plan`, routing is confined to the live worker set of a
    /// [`MembershipPlan`]: each sender replays the plan against its own
    /// routed-tuple count; on crossing a threshold it broadcasts an in-band
    /// epoch marker (see [`crate::elastic`]) to every downstream instance,
    /// then routes new tuples over the new live set.
    Greedy {
        /// Candidate count per key.
        policy: CandidatePolicy,
        /// The scripted membership schedule, shared by every sender.
        plan: Option<Arc<MembershipPlan>>,
    },
    /// Everything to instance 0 (Storm's global grouping; used for final
    /// aggregators).
    Global,
    /// Every tuple to every instance.
    Broadcast,
}

impl Grouping {
    /// PKG with `d` hash choices (`1 ≤ d ≤ 16`).
    pub fn partial(d: usize) -> Self {
        Grouping::Greedy { policy: CandidatePolicy::Fixed(d), plan: None }
    }

    /// The paper's PKG with two choices.
    pub fn partial_key() -> Self {
        Self::partial(2)
    }

    /// D-Choices with the default imbalance target: a head key gets
    /// `⌈p̂·n/(1+ε)⌉` candidates, tail keys two.
    pub fn d_choices() -> Self {
        let policy = CandidatePolicy::Head { epsilon: DEFAULT_EPSILON, cap: HeadCap::PerFrequency };
        Grouping::Greedy { policy, plan: None }
    }

    /// W-Choices with the default imbalance target: a head key may go to
    /// every downstream instance, tail keys to two.
    pub fn w_choices() -> Self {
        let policy = CandidatePolicy::Head { epsilon: DEFAULT_EPSILON, cap: HeadCap::All };
        Grouping::Greedy { policy, plan: None }
    }

    /// Elastic PKG (two choices) following `plan`.
    pub fn elastic(plan: MembershipPlan) -> Self {
        Grouping::Greedy { policy: CandidatePolicy::Fixed(2), plan: Some(Arc::new(plan)) }
    }
}

/// Where a routed tuple goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A single downstream instance.
    One(usize),
    /// All downstream instances (broadcast).
    All,
}

/// Reusable output buffer of [`Router::route_batch`]: per-tuple
/// destinations plus the tuple indices *grouped by destination* (a stable
/// counting sort), so the executor can deliver each destination's run with
/// one lock/wake instead of one per tuple.
///
/// Under [`Grouping::Broadcast`] every tuple goes to every destination:
/// each run is the whole batch, and there is no per-tuple destination.
///
/// Buffers are retained across batches — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct TargetBatch {
    /// Destination of tuple `i`, in stream order (empty for a broadcast).
    dests: Vec<u32>,
    /// Tuple indices stably sorted by destination.
    order: Vec<u32>,
    /// `(dest, start, end)` ranges into `order`, ascending by `dest`, one
    /// per destination that received at least one tuple.
    runs: Vec<(u32, u32, u32)>,
    /// Scratch: per-destination counts / cursor positions.
    counts: Vec<u32>,
}

impl TargetBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, keys: usize) {
        self.dests.clear();
        self.dests.reserve(keys);
        self.order.clear();
        self.runs.clear();
    }

    /// Group `dests` by destination with a stable counting sort: O(keys + n)
    /// and allocation-free once the scratch buffers are warm.
    fn group(&mut self, n: usize) {
        self.counts.clear();
        self.counts.resize(n, 0);
        for &d in &self.dests {
            self.counts[d as usize] += 1;
        }
        // Prefix sums: counts[d] becomes the start cursor of d's run.
        let mut start = 0u32;
        for d in 0..n {
            let c = self.counts[d];
            self.counts[d] = start;
            if c > 0 {
                self.runs.push((d as u32, start, start + c));
            }
            start += c;
        }
        self.order.resize(self.dests.len(), 0);
        for (i, &d) in self.dests.iter().enumerate() {
            let pos = &mut self.counts[d as usize];
            self.order[*pos as usize] = i as u32;
            *pos += 1;
        }
    }

    /// Destination of tuple `i`, in stream order. Panics on a broadcast
    /// batch, whose tuples go to every destination.
    pub fn dest(&self, i: usize) -> usize {
        self.dests[i] as usize
    }

    /// Number of routed tuples in the batch.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Per-destination runs: `(dest, tuple indices in stream order)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.runs.iter().map(move |&(d, s, e)| (d as usize, &self.order[s as usize..e as usize]))
    }
}

/// Per-sender routing state for one outgoing edge.
///
/// Every upstream instance owns its own `Router` — for `Greedy` this is
/// what makes load estimation *local*: the router's estimate counts only the
/// tuples this sender routed, per §III-B.
#[derive(Debug)]
pub struct Router {
    kind: RouterKind,
    n: usize,
}

// A router is built once per (edge, sender) and routed through in place:
// boxing the greedy arm would buy nothing but a pointer chase per tuple.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum RouterKind {
    Shuffle {
        next: usize,
    },
    Key {
        seed: u64,
    },
    /// [`Grouping::Greedy`]: one greedy partitioner, configured by its
    /// candidate policy; `elastic` is the replay state of its plan.
    Greedy {
        pkg: PartialKeyGrouping,
        elastic: Option<PlanReplay>,
    },
    Global,
    Broadcast,
}

/// One sender's position in a [`MembershipPlan`].
#[derive(Debug)]
struct PlanReplay {
    plan: Arc<MembershipPlan>,
    /// Tuples this sender has routed on the edge.
    routed: u64,
    next_epoch: u32,
}

impl Router {
    /// Build routing state for an edge with `n` downstream instances.
    ///
    /// `seed` must be shared by all senders on the edge (so they agree on
    /// hash candidates); `sender_index` staggers shuffle's round-robin.
    /// Load-consulting groupings estimate locally — the paper's default.
    pub fn new(grouping: &Grouping, n: usize, seed: u64, sender_index: usize) -> Self {
        Self::with_shared(grouping, n, seed, sender_index, None)
    }

    /// Like [`Router::new`], but when `shared` is given a greedy grouping
    /// without a plan minimizes its pluggable load *signal* instead of a
    /// local tuple count. Pending/latency signals are shared feedback by
    /// nature, so adaptive metrics imply global estimation; `None` keeps the
    /// paper's local estimation byte-identically. A plan always estimates
    /// locally (its epoch replay is defined over the sender's own count).
    pub fn with_shared(
        grouping: &Grouping,
        n: usize,
        seed: u64,
        sender_index: usize,
        shared: Option<&SharedLoads>,
    ) -> Self {
        assert!(n > 0, "edges need at least one downstream instance");
        let kind = match grouping {
            Grouping::Shuffle => RouterKind::Shuffle { next: sender_index % n },
            Grouping::Key => RouterKind::Key { seed },
            Grouping::Greedy { policy, plan } => {
                let estimate = match (plan, shared) {
                    (None, Some(s)) => {
                        assert_eq!(s.n(), n, "shared loads must cover every downstream instance");
                        Estimate::global(s.clone())
                    }
                    _ => Estimate::local(n),
                };
                let mut pkg = PartialKeyGrouping::over(LoadView::new(n, estimate), *policy, seed);
                let elastic = plan.as_ref().map(|plan| {
                    assert_eq!(
                        plan.capacity(),
                        n,
                        "membership plan id space must match the downstream instance count"
                    );
                    pkg.apply_membership(plan.live(0));
                    PlanReplay { plan: Arc::clone(plan), routed: 0, next_epoch: 1 }
                });
                RouterKind::Greedy { pkg, elastic }
            }
            Grouping::Global => RouterKind::Global,
            Grouping::Broadcast => RouterKind::Broadcast,
        };
        Self { kind, n }
    }

    /// Route a tuple key.
    #[inline]
    pub fn route(&mut self, key_id: u64) -> Target {
        match &mut self.kind {
            RouterKind::Shuffle { next } => {
                let t = *next;
                *next += 1;
                if *next == self.n {
                    *next = 0;
                }
                Target::One(t)
            }
            RouterKind::Key { seed } => {
                use pkg_hash::StreamKey;
                Target::One((key_id.hash_seeded(*seed) % self.n as u64) as usize)
            }
            RouterKind::Greedy { pkg, elastic } => {
                if let Some(replay) = elastic {
                    replay.routed += 1;
                }
                Target::One(pkg.route(key_id, 0))
            }
            RouterKind::Global => Target::One(0),
            RouterKind::Broadcast => Target::All,
        }
    }

    /// Candidate instances for a *head* key's next message under an
    /// adaptive (D-/W-Choices) grouping, in hash-sequence order; `None` for
    /// tail keys and every other grouping. Must be consulted *before*
    /// [`Router::route`] for the same message — routing observes the key,
    /// which can flip the head prediction for the one after. The hedged
    /// dispatcher uses this to pick the fallback instance.
    pub fn head_candidates(&self, key_id: u64) -> Option<Vec<usize>> {
        match &self.kind {
            RouterKind::Greedy { pkg, .. } if pkg.is_head(key_id) => Some(pkg.candidates(key_id)),
            _ => None,
        }
    }

    /// Advance this sender's membership epoch by one if its routed-tuple
    /// count has crossed the next plan threshold, switching routing onto the
    /// new live set and returning the epoch just entered. The engine's flush
    /// calls this before routing each cut of its batch (looping, in case
    /// thresholds are a single tuple apart) and broadcasts an in-band marker
    /// per epoch returned — so on every FIFO channel the marker separates
    /// old-epoch from new-epoch traffic. `None` for non-elastic groupings
    /// and between thresholds.
    pub fn advance_epoch(&mut self) -> Option<u32> {
        match &mut self.kind {
            RouterKind::Greedy { pkg, elastic: Some(replay) } => {
                let PlanReplay { plan, routed, next_epoch } = replay;
                if *next_epoch < plan.epochs() && *routed >= plan.threshold(*next_epoch) {
                    let epoch = *next_epoch;
                    pkg.apply_membership(plan.live(epoch));
                    *next_epoch += 1;
                    Some(epoch)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Keys this sender may route before its next membership epoch is due,
    /// where the engine's flush cuts an elastic batch (`usize::MAX` on every
    /// other grouping and past the plan's last step).
    pub(crate) fn until_epoch(&self) -> usize {
        match &self.kind {
            RouterKind::Greedy {
                elastic: Some(PlanReplay { plan, routed, next_epoch }), ..
            } if *next_epoch < plan.epochs() => {
                plan.threshold(*next_epoch).saturating_sub(*routed) as usize
            }
            _ => usize::MAX,
        }
    }

    /// Downstream instance count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether any batch of keys may go through [`Router::route_batch`] as
    /// is, each tuple landing in exactly one run. Not so for a greedy edge
    /// with a plan (a batch must stop at the next membership threshold, with
    /// [`Router::advance_epoch`] between cuts) or `Broadcast` (every run
    /// spans the batch). Every greedy scheme is batchable *by the paper's own
    /// argument*: between two argmin evaluations the loads move by at most
    /// the batch size, so deferring delivery (not the decision) changes
    /// nothing.
    pub fn is_batchable(&self) -> bool {
        !matches!(self.kind, RouterKind::Greedy { elastic: Some(_), .. } | RouterKind::Broadcast)
    }

    /// Route a whole batch of key fingerprints in one pass, grouping the
    /// results by destination in `out`.
    ///
    /// Decisions are made per key **in stream order** with exactly the same
    /// state updates as [`Router::route`], so the chosen destinations are
    /// byte-identical to the one-at-a-time path (pinned by proptest); only
    /// the *delivery* is grouped. Unless [`Router::is_batchable`], the
    /// caller cuts elastic batches at thresholds and expects runs to overlap.
    pub fn route_batch(&mut self, keys: &[u64], out: &mut TargetBatch) {
        self.route_batch_with(keys, out, |_| {});
    }

    /// [`Router::route_batch`] with a per-decision hook: `on_route(w)` runs
    /// after each key is routed to `w` (to every `w`, under a broadcast)
    /// and **before the next key is routed**. A sender on a signal-bearing
    /// edge records the delivery there, so the next argmin sees it (the
    /// one-at-a-time order) and a batch cannot pile onto one stale argmin.
    /// Monomorphised: the no-op closure of `route_batch` compiles away.
    pub fn route_batch_with(
        &mut self,
        keys: &[u64],
        out: &mut TargetBatch,
        mut on_route: impl FnMut(usize),
    ) {
        debug_assert!(keys.len() <= self.until_epoch(), "an elastic batch crosses a threshold");
        out.begin(keys.len());
        let n = self.n;
        match &mut self.kind {
            RouterKind::Shuffle { next } => route_each(keys, out, on_route, |_| {
                let t = *next;
                *next = if t + 1 == n { 0 } else { t + 1 };
                t
            }),
            RouterKind::Key { seed } => {
                use pkg_hash::StreamKey;
                let seed = *seed;
                route_each(keys, out, on_route, |k| (k.hash_seeded(seed) % n as u64) as usize);
            }
            RouterKind::Greedy { pkg, elastic } => {
                if let Some(replay) = elastic {
                    replay.routed += keys.len() as u64;
                }
                route_each(keys, out, on_route, |k| pkg.route(k, 0));
            }
            RouterKind::Global => route_each(keys, out, on_route, |_| 0),
            RouterKind::Broadcast => {
                keys.iter().for_each(|_| (0..n).for_each(&mut on_route));
                let len = keys.len() as u32;
                out.order.extend(0..len);
                out.runs.extend((0..n as u32).map(|d| (d, 0, len)));
                return;
            }
        }
        out.group(n);
    }
}

/// Append `route(k)` for every key to `out`, running `on_route` on each
/// destination before the next key is routed.
fn route_each(
    keys: &[u64],
    out: &mut TargetBatch,
    mut on_route: impl FnMut(usize),
    mut route: impl FnMut(u64) -> usize,
) {
    out.dests.extend(keys.iter().map(|&k| {
        let w = route(k);
        on_route(w);
        w as u32
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_metrics::{CapacityEstimator, LoadMetricKind};

    #[test]
    fn key_routing_is_consistent_across_senders() {
        let mut a = Router::new(&Grouping::Key, 8, 7, 0);
        let mut b = Router::new(&Grouping::Key, 8, 7, 3);
        for k in 0..100u64 {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn partial_splits_hot_key_over_two_instances() {
        let mut r = Router::new(&Grouping::partial_key(), 10, 3, 0);
        let mut hit = std::collections::HashSet::new();
        for _ in 0..100 {
            if let Target::One(t) = r.route(42) {
                hit.insert(t);
            }
        }
        assert!(hit.len() <= 2, "PKG must use at most two instances per key");
    }

    #[test]
    fn shuffle_staggers_by_sender() {
        let mut a = Router::new(&Grouping::Shuffle, 4, 0, 0);
        let mut b = Router::new(&Grouping::Shuffle, 4, 0, 1);
        assert_eq!(a.route(0), Target::One(0));
        assert_eq!(b.route(0), Target::One(1));
    }

    #[test]
    fn d_choices_widens_hot_key_and_keeps_tail_at_two() {
        let n = 32;
        let mut r = Router::new(&Grouping::d_choices(), n, 5, 0);
        let mut hot_targets = std::collections::HashSet::new();
        let mut tail_targets: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        for i in 0..40_000u64 {
            // 40% of traffic on key 0, rest a cycling uniform tail.
            let key = if i % 5 < 2 { 0 } else { 1 + (i % 400) };
            if let Target::One(t) = r.route(key) {
                if key == 0 {
                    hot_targets.insert(t);
                } else {
                    tail_targets.entry(key).or_default().insert(t);
                }
            }
        }
        assert!(
            hot_targets.len() > 2,
            "hot key stayed on {} instances; D-Choices must widen it",
            hot_targets.len()
        );
        // d(0.4) = ceil(0.4·32/1.1) = 12: never wider than the bound.
        assert!(hot_targets.len() <= 12, "hot key on {} instances", hot_targets.len());
        for (key, targets) in tail_targets {
            assert!(targets.len() <= 2, "tail key {key} used {} instances", targets.len());
        }
    }

    #[test]
    fn w_choices_spreads_extreme_key_past_d_choices() {
        let n = 24;
        let run = |grouping: Grouping| {
            let mut r = Router::new(&grouping, n, 7, 0);
            let mut hot = std::collections::HashSet::new();
            for i in 0..30_000u64 {
                let key = if i % 2 == 0 { 0 } else { i + 1 };
                if let Target::One(t) = r.route(key) {
                    if key == 0 {
                        hot.insert(t);
                    }
                }
            }
            hot.len()
        };
        let dc = run(Grouping::d_choices());
        let wc = run(Grouping::w_choices());
        assert_eq!(wc, n, "a 50% key under W-Choices reaches every instance");
        assert!(dc < wc, "D-Choices spread {dc} must stay below W-Choices {wc}");
        assert!(dc > 2);
    }

    #[test]
    fn elastic_replays_plan_and_confines_routing_to_live_set() {
        use pkg_elastic::{Change, MembershipPlan};
        let plan = MembershipPlan::new(4)
            .with_step(100, [Change::Remove(3)])
            .with_step(200, [Change::Insert(3)]);
        let mut r = Router::new(&Grouping::elastic(plan), 4, 9, 0);
        assert_eq!(r.advance_epoch(), None, "epoch 0 needs no announcement");
        let mut epochs = Vec::new();
        let mut hit_while_dead = false;
        for (routed, k) in (0u64..300).enumerate() {
            let routed = routed as u64;
            while let Some(e) = r.advance_epoch() {
                epochs.push((routed, e));
            }
            if let Target::One(w) = r.route(k) {
                if (100..200).contains(&routed) && w == 3 {
                    hit_while_dead = true;
                }
            }
        }
        assert_eq!(epochs, vec![(100, 1), (200, 2)]);
        assert!(!hit_while_dead, "no tuple may route to a dead instance");
        assert_eq!(r.advance_epoch(), None, "plan exhausted");
    }

    #[test]
    fn elastic_senders_agree_on_candidates_with_static_partial() {
        // An elastic edge whose plan never changes routes exactly like
        // plain PKG — markers aside, the schemes are byte-identical.
        use pkg_elastic::MembershipPlan;
        let mut a = Router::new(&Grouping::elastic(MembershipPlan::new(8)), 8, 3, 0);
        let mut b = Router::new(&Grouping::partial_key(), 8, 3, 0);
        for k in 0..2_000u64 {
            assert_eq!(a.advance_epoch(), None);
            assert_eq!(a.route(k % 37), b.route(k % 37));
        }
    }

    #[test]
    fn route_batch_matches_per_tuple_route_for_every_batchable_grouping() {
        let groupings = [
            Grouping::Shuffle,
            Grouping::Key,
            Grouping::partial_key(),
            Grouping::d_choices(),
            Grouping::w_choices(),
            Grouping::Global,
        ];
        // A skewed stream: key 0 is hot, the tail cycles.
        let keys: Vec<u64> = (0..5_000u64).map(|i| if i % 3 == 0 { 0 } else { i % 97 }).collect();
        for g in groupings {
            let mut one = Router::new(&g, 12, 11, 2);
            let mut batched = Router::new(&g, 12, 11, 2);
            assert!(batched.is_batchable());
            let mut out = TargetBatch::new();
            for chunk in keys.chunks(64) {
                batched.route_batch(chunk, &mut out);
                assert_eq!(out.len(), chunk.len());
                for (i, &k) in chunk.iter().enumerate() {
                    assert_eq!(one.route(k), Target::One(out.dest(i)), "{g:?} diverged at key {k}");
                }
            }
            // Signal-bearing routers: every sender minimizes shared state, so
            // the batch must interleave `route → record` exactly like
            // routing one key at a time. Decisions, recorded counts and the
            // signal (pending, latency, capacity scale) agree after each
            // chunk; completions land between chunks so the signals move.
            let n = 12;
            let shared_loads: [fn(usize) -> SharedLoads; 3] = [
                SharedLoads::new,
                |n| SharedLoads::new(n).with_signals(LoadMetricKind::PendingRequests, None),
                |n| {
                    let estimator = Arc::new(CapacityEstimator::new(n, 64));
                    SharedLoads::new(n).with_signals(LoadMetricKind::peak_ewma(), Some(estimator))
                },
            ];
            for make in shared_loads {
                let (scalar_loads, batch_loads) = (make(n), make(n));
                let mut one = Router::with_shared(&g, n, 11, 2, Some(&scalar_loads));
                let mut batched = Router::with_shared(&g, n, 11, 2, Some(&batch_loads));
                let label = batch_loads.metric_label();
                for (c, chunk) in keys.chunks(64).enumerate() {
                    batched.route_batch_with(chunk, &mut out, |w| batch_loads.record(w));
                    for (i, &k) in chunk.iter().enumerate() {
                        let Target::One(w) = one.route(k) else {
                            panic!("{g:?} is batchable, so it routes to one instance");
                        };
                        scalar_loads.record(w);
                        assert_eq!(w, out.dest(i), "{g:?}/{label} diverged at key {k}");
                    }
                    assert_eq!(batch_loads.snapshot(), scalar_loads.snapshot(), "{g:?}/{label}");
                    let signal = |l: &SharedLoads| (0..n).map(|w| l.signal(w)).collect::<Vec<_>>();
                    assert_eq!(signal(&batch_loads), signal(&scalar_loads), "{g:?}/{label}");
                    for loads in [&scalar_loads, &batch_loads] {
                        let Some(signals) = loads.signals() else { continue };
                        for w in 0..n {
                            for _ in 0..(c + w) % 5 {
                                signals.complete(w, 1_000 * (1 + w as u64 % 4));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_batch_hook_keeps_a_batch_off_one_stale_argmin() {
        // 256 tuples of one key on a shared, signal-bearing PKG edge. Routed
        // with nothing recorded in between, every decision reads the same
        // loads and the whole batch lands on one candidate (why batching used
        // to be excluded on such edges); with the hook each decision sees the
        // one before it and the key alternates between its two candidates.
        let keys = [42u64; 256];
        let run_lengths = |hook: bool| {
            let loads = SharedLoads::new(8).with_signals(LoadMetricKind::PendingRequests, None);
            let mut r = Router::with_shared(&Grouping::partial_key(), 8, 3, 0, Some(&loads));
            let mut out = TargetBatch::new();
            if hook {
                r.route_batch_with(&keys, &mut out, |w| loads.record(w));
            } else {
                r.route_batch(&keys, &mut out);
            }
            out.runs().map(|(_, run)| run.len()).collect::<Vec<_>>()
        };
        assert_eq!(run_lengths(false), vec![256], "premise: no recording, one stale argmin");
        assert_eq!(run_lengths(true), vec![128, 128]);
    }

    #[test]
    fn target_batch_runs_group_stably_by_destination() {
        let mut r = Router::new(&Grouping::Key, 4, 3, 0);
        let keys: Vec<u64> = (0..257).collect();
        let mut out = TargetBatch::new();
        r.route_batch(&keys, &mut out);
        let mut seen = 0usize;
        let mut prev_dest = None;
        for (dest, idxs) in out.runs() {
            assert!(prev_dest.is_none_or(|p| p < dest), "runs ascend by destination");
            prev_dest = Some(dest);
            assert!(!idxs.is_empty());
            for w in idxs.windows(2) {
                assert!(w[0] < w[1], "within a run, stream order is preserved");
            }
            for &i in idxs {
                assert_eq!(out.dest(i as usize), dest);
            }
            seen += idxs.len();
        }
        assert_eq!(seen, keys.len(), "runs partition the batch");
    }

    #[test]
    fn elastic_and_broadcast_are_not_batchable() {
        use pkg_elastic::MembershipPlan;
        assert!(!Router::new(&Grouping::elastic(MembershipPlan::new(4)), 4, 0, 0).is_batchable());
        assert!(!Router::new(&Grouping::Broadcast, 4, 0, 0).is_batchable());
    }

    #[test]
    fn global_always_zero_broadcast_always_all() {
        let mut g = Router::new(&Grouping::Global, 5, 0, 2);
        let mut b = Router::new(&Grouping::Broadcast, 5, 0, 2);
        assert_eq!(g.route(9), Target::One(0));
        assert_eq!(b.route(9), Target::All);
    }
}
