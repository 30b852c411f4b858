//! Golden routing digests: the decision sequence of one fixed skewed stream,
//! folded into 64 bits per configuration and pinned.
//!
//! PKG, D-Choices and W-Choices share their routing code, so the proptests
//! that compare them with one another (and the capacity / signal collapse
//! proptests, which compare a scheme with itself) cannot tell a change that
//! moves all of them together. The constants below can: they were recorded
//! on the commit *before* the partitioners were folded onto one `LoadView`
//! and must never change — a refactor of the routing core that alters one
//! decision anywhere in these streams fails here.
//!
//! On a mismatch the failure message prints the whole table in source form.

use std::collections::VecDeque;
use std::sync::Arc;

use pkg_core::{
    CandidatePolicy, Estimate, EstimateKind, HeadTracker, KeyFrequencies, KeyGrouping, LoadView,
    PartialKeyGrouping, Partitioner, SchemeSpec, SharedLoads,
};
use pkg_elastic::{Change, MembershipPlan};
use pkg_engine::grouping::{Router, Target, TargetBatch};
use pkg_engine::Grouping;
use pkg_metrics::{CapacityEstimator, LoadMetricKind};

const SOURCES: usize = 3;
const MESSAGES: u64 = 24_000;
const SEED: u64 = 0x5eed_601d;
const WORKERS: [usize; 2] = [5, 50];

/// SplitMix64: the stream's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixed stream: three head keys carrying 50% / 10% / 6% of the traffic
/// (so D-Choices gives them three different candidate counts at n = 50 and
/// the hottest is head even at n = 5) over a power-law tail of 4 000 keys.
fn stream() -> Vec<u64> {
    let mut state = SEED;
    (0..MESSAGES)
        .map(|_| {
            let r = splitmix(&mut state);
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            let id = if u < 0.50 {
                0
            } else if u < 0.60 {
                1
            } else if u < 0.66 {
                2
            } else {
                let v = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                3 + (4_000.0 * v * v * v) as u64
            };
            // Spread the ids over the 64-bit key space.
            id.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x00c0_ffee
        })
        .collect()
}

/// Stream time of message `i`: 4 messages per millisecond.
fn ts_ms(i: usize) -> u64 {
    i as u64 / 4
}

#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    Capacities,
    LiveSubset,
    Pending,
    PeakEwma,
}

const VARIANTS: [Variant; 5] =
    [Variant::Plain, Variant::Capacities, Variant::LiveSubset, Variant::Pending, Variant::PeakEwma];

fn capacities(n: usize) -> Vec<f64> {
    (0..n).map(|i| [4.0, 1.0, 2.0, 1.0, 0.5][i % 5]).collect()
}

/// The live subset applied a third of the way in (two of every three
/// workers); the full set comes back at two thirds.
fn subset(n: usize) -> Vec<usize> {
    (0..n).filter(|i| i % 3 != 1).collect()
}

fn shared_loads(n: usize, variant: Variant) -> SharedLoads {
    let plain = SharedLoads::new(n);
    match variant {
        Variant::Plain | Variant::LiveSubset => plain,
        Variant::Capacities => plain.with_capacities(&capacities(n)),
        Variant::Pending => plain.with_signals(LoadMetricKind::PendingRequests, None),
        Variant::PeakEwma => {
            let estimator = Arc::new(CapacityEstimator::new(n, 64));
            plain.with_signals(LoadMetricKind::peak_ewma(), Some(estimator))
        }
    }
}

/// What the simulator and the engine do after a routing decision: count the
/// tuple (the count is also its dispatch: in-flight is count − completed)
/// and — 48 deliveries later — complete it with a service time that depends
/// on the worker, so the latency signals differ.
struct Feedback {
    shared: SharedLoads,
    in_flight: VecDeque<usize>,
    completed: u64,
}

impl Feedback {
    fn new(shared: SharedLoads) -> Self {
        Self { shared, in_flight: VecDeque::new(), completed: 0 }
    }

    fn delivered(&mut self, w: usize) {
        self.shared.record(w);
        let Some(signals) = self.shared.signals() else { return };
        self.in_flight.push_back(w);
        if self.in_flight.len() > 48 {
            let done = self.in_flight.pop_front().expect("non-empty");
            self.completed += 1;
            signals.complete(done, 1_000 * (1 + done as u64 % 4) + (self.completed & 0xff));
        }
    }
}

/// Digest of `spec`'s decisions over the stream on `n` workers.
fn scheme_run(spec: &SchemeSpec, n: usize, variant: Variant, keys: &[u64]) -> u64 {
    let shared = shared_loads(n, variant);
    let freqs = KeyFrequencies::from_keys(keys.iter().copied());
    let mut sources: Vec<Partitioner> =
        (0..SOURCES).map(|s| spec.build(n, SEED, s, &shared, Some(&freqs))).collect();
    let mut feedback = Feedback::new(shared);
    let mut digest = Digest::new();
    for (i, &key) in keys.iter().enumerate() {
        if variant == Variant::LiveSubset && sources[0].resizable() {
            let live = if i == keys.len() / 3 {
                Some(subset(n))
            } else if i == 2 * keys.len() / 3 {
                Some((0..n).collect())
            } else {
                None
            };
            if let Some(live) = live {
                sources.iter_mut().for_each(|p| p.apply_membership(&live));
            }
        }
        let w = sources[i % SOURCES].route(key, ts_ms(i));
        digest.fold(w as u64);
        feedback.delivered(w);
    }
    digest.0
}

/// A scheme family as a function of the estimate kind (ignored by the three
/// that consult no load).
type Family = fn(EstimateKind) -> SchemeSpec;

fn families() -> Vec<(&'static str, Family)> {
    vec![
        ("KG", |_| SchemeSpec::KeyGrouping),
        ("SG", |_| SchemeSpec::ShuffleGrouping),
        ("OffGreedy", |_| SchemeSpec::OffGreedy),
        ("PKG", SchemeSpec::pkg),
        ("PKG3", |estimate| SchemeSpec::Greedy { policy: CandidatePolicy::Fixed(3), estimate }),
        ("PoTC", |estimate| SchemeSpec::StaticPotc { estimate }),
        ("OnGreedy", |estimate| SchemeSpec::OnGreedy { estimate }),
        ("DChoices", SchemeSpec::d_choices),
        ("WChoices", SchemeSpec::w_choices),
    ]
}

const ESTIMATES: [EstimateKind; 3] =
    [EstimateKind::Local, EstimateKind::Global, EstimateKind::Probing { period_ms: 500 }];

/// A two-step plan over `n` instances: the last instance leaves after each
/// sender routed 2 000 tuples and rejoins (with instance 1 leaving) at 5 000.
fn plan(n: usize) -> MembershipPlan {
    MembershipPlan::new(n)
        .with_step(2_000, [Change::Remove(n - 1)])
        .with_step(5_000, [Change::Insert(n - 1), Change::Remove(1)])
}

fn groupings(n: usize) -> Vec<(&'static str, Grouping)> {
    vec![
        ("Shuffle", Grouping::Shuffle),
        ("Key", Grouping::Key),
        ("Partial2", Grouping::partial_key()),
        ("Partial3", Grouping::partial(3)),
        ("DChoices", Grouping::d_choices()),
        ("WChoices", Grouping::w_choices()),
        ("Elastic", Grouping::elastic(plan(n))),
        ("Global", Grouping::Global),
        ("Broadcast", Grouping::Broadcast),
    ]
}

/// `pkg-core`'s head test, restated: past 8 observations of warm-up mass,
/// a key counted `count` times in `total` is head when `count/total ≥ θ`.
fn is_head_at(count: u64, total: u64, theta: f64) -> bool {
    total as f64 * theta >= 8.0 && count as f64 / total as f64 >= theta
}

/// One sender's head-key prediction on a D-/W-Choices edge, kept beside its
/// `Router`: a partitioner and a head tracker offered every key the sender
/// routes.
struct HeadMirror {
    pkg: PartialKeyGrouping,
    tracker: HeadTracker,
    theta: f64,
}

impl HeadMirror {
    /// `None` unless `grouping` is an adaptive edge without a plan.
    fn new(grouping: &Grouping, n: usize) -> Option<Self> {
        let Grouping::Greedy { policy: policy @ CandidatePolicy::Head { .. }, plan: None } =
            grouping
        else {
            return None;
        };
        let pkg = PartialKeyGrouping::over(LoadView::new(n, Estimate::local(n)), *policy, SEED);
        let theta = pkg.theta()?;
        Some(Self { pkg, tracker: HeadTracker::for_threshold(theta), theta })
    }

    /// The candidates of `key`'s next message, when it routes as a head key.
    fn head_candidates(&self, key: u64) -> Option<Vec<usize>> {
        let head = is_head_at(self.tracker.next_count(key), self.tracker.total() + 1, self.theta);
        head.then(|| self.pkg.candidates(key))
    }

    fn observe(&mut self, key: u64) {
        self.pkg.route(key, 0);
        self.tracker.observe(key);
    }
}

/// Digest of an engine edge: three senders route their share of the stream
/// in quanta of 256 — through `route_batch_with` where the edge is
/// batchable, tuple by tuple (epoch replay and a head key's candidates
/// folded in) otherwise. `shared` selects `Router::with_shared`.
fn router_run(grouping: &Grouping, n: usize, variant: Variant, keys: &[u64]) -> u64 {
    let shared = (variant != Variant::Plain).then(|| shared_loads(n, variant));
    let mut senders: Vec<Router> =
        (0..SOURCES).map(|s| Router::with_shared(grouping, n, SEED, s, shared.as_ref())).collect();
    let mut mirrors: Vec<Option<HeadMirror>> =
        (0..SOURCES).map(|_| HeadMirror::new(grouping, n)).collect();
    let mut feedback = Feedback::new(shared.unwrap_or_else(|| SharedLoads::new(n)));
    let mut digest = Digest::new();
    let mut out = TargetBatch::new();
    for (q, quantum) in keys.chunks(256).enumerate() {
        let (router, mirror) = (&mut senders[q % SOURCES], &mut mirrors[q % SOURCES]);
        // Odd quanta take the per-tuple path even on batchable edges, so
        // both entry points (and their interleaving on one router) are
        // pinned.
        if router.is_batchable() && q % 2 == 0 {
            router.route_batch_with(quantum, &mut out, |w| feedback.delivered(w));
            (0..out.len()).for_each(|i| digest.fold(out.dest(i) as u64));
            if let Some(m) = mirror {
                quantum.iter().for_each(|&key| m.observe(key));
            }
            continue;
        }
        for &key in quantum {
            while let Some(epoch) = router.advance_epoch() {
                digest.fold(0xe90c_0000 | u64::from(epoch));
            }
            if let Some(m) = mirror {
                if let Some(cands) = m.head_candidates(key) {
                    digest.fold(0xcad0_0000 | cands.len() as u64);
                    cands.iter().for_each(|&c| digest.fold(c as u64));
                }
                m.observe(key);
            }
            match router.route(key) {
                Target::One(w) => {
                    digest.fold(w as u64);
                    feedback.delivered(w);
                }
                Target::All => digest.fold(u64::MAX),
            }
        }
    }
    digest.0
}

/// Every pinned row, in table order: one per scheme family × variant
/// (folding the three estimate kinds and both worker counts) and one per
/// engine grouping × load signal (folding both worker counts).
fn actual() -> Vec<(String, u64)> {
    let keys = stream();
    let mut rows = Vec::new();
    for (label, family) in families() {
        for variant in VARIANTS {
            let mut row = Digest::new();
            for estimate in ESTIMATES {
                for n in WORKERS {
                    row.fold(scheme_run(&family(estimate), n, variant, &keys));
                }
            }
            rows.push((format!("{label}/{variant:?}"), row.0));
        }
    }
    for g in 0..groupings(WORKERS[0]).len() {
        for variant in [Variant::Plain, Variant::Pending, Variant::PeakEwma] {
            let mut row = Digest::new();
            for n in WORKERS {
                row.fold(router_run(&groupings(n)[g].1, n, variant, &keys));
            }
            rows.push((format!("Router::{}/{variant:?}", groupings(WORKERS[0])[g].0), row.0));
        }
    }
    rows
}

#[test]
fn the_stream_is_skewed_enough_to_reach_every_path() {
    let keys = stream();
    let sorted = KeyFrequencies::from_keys(keys.iter().copied()).sorted_desc();
    assert!(sorted.len() > 2_000, "tail has {} keys", sorted.len());
    let top: Vec<f64> = sorted.iter().take(3).map(|&(_, c)| c as f64 / MESSAGES as f64).collect();
    // θ = 2.2/n: the hottest key is head at n = 5, all three at n = 50.
    assert!(top[0] > 2.2 / 5.0 && top[2] > 2.2 / 50.0, "head shares {top:?}");
}

#[test]
fn routing_decisions_match_the_recorded_digests() {
    let actual = actual();
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((label, d), (want_label, want))| label == want_label && d == want);
    if !matches {
        let table: String =
            actual.iter().map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n")).collect();
        let moved: Vec<&str> = actual
            .iter()
            .zip(GOLDEN)
            .filter(|((_, d), (_, want))| d != want)
            .map(|((label, _), _)| label.as_str())
            .collect();
        panic!("routing digests moved: {moved:?}\nactual table:\n{table}");
    }
}

/// The simulator and the engine route through one `Partitioner`: an engine
/// sender and a `SchemeSpec`-built source with the same seed and index make
/// the same decision on every message. Key grouping's seed convention is
/// the one that differs (an engine edge hashes with its seed itself), so
/// its oracle is built with `KeyGrouping::with_hash_seed`.
#[test]
fn engine_senders_route_like_simulator_sources() {
    let keys = stream();
    let local = EstimateKind::Local;
    let pkg3 = SchemeSpec::Greedy { policy: CandidatePolicy::Fixed(3), estimate: local };
    let pairs = [
        (Grouping::Shuffle, Some(SchemeSpec::ShuffleGrouping)),
        (Grouping::Key, None),
        (Grouping::partial(2), Some(SchemeSpec::pkg(local))),
        (Grouping::partial(3), Some(pkg3)),
        (Grouping::d_choices(), Some(SchemeSpec::d_choices(local))),
        (Grouping::w_choices(), Some(SchemeSpec::w_choices(local))),
    ];
    for n in WORKERS {
        let shared = SharedLoads::new(n);
        for (grouping, spec) in &pairs {
            for s in 0..4 {
                let mut engine = Router::new(grouping, n, SEED, s);
                let mut sim = match spec {
                    Some(spec) => spec.build(n, SEED, s, &shared, None),
                    None => Partitioner::KeyGrouping(KeyGrouping::with_hash_seed(n, SEED)),
                };
                for (i, &k) in keys.iter().enumerate() {
                    let want = Target::One(sim.route(k, 0));
                    assert_eq!(engine.route(k), want, "{grouping:?} n={n} sender {s} message {i}");
                }
            }
        }
    }
}

/// Recorded on the parent of the `LoadView` fold; see the module docs.
const GOLDEN: &[(&str, u64)] = &[
    ("KG/Plain", 0x662467ac5a031e27),
    ("KG/Capacities", 0x662467ac5a031e27),
    ("KG/LiveSubset", 0x4b007eaed57c18a3),
    ("KG/Pending", 0x662467ac5a031e27),
    ("KG/PeakEwma", 0x662467ac5a031e27),
    ("SG/Plain", 0xf358ff502de66abe),
    ("SG/Capacities", 0xf358ff502de66abe),
    ("SG/LiveSubset", 0x94b2627bec17ccff),
    ("SG/Pending", 0xf358ff502de66abe),
    ("SG/PeakEwma", 0xf358ff502de66abe),
    ("OffGreedy/Plain", 0xfb7b7efa35192d97),
    ("OffGreedy/Capacities", 0x6fb2c73302c14827),
    ("OffGreedy/LiveSubset", 0xfb7b7efa35192d97),
    ("OffGreedy/Pending", 0xfb7b7efa35192d97),
    ("OffGreedy/PeakEwma", 0xfb7b7efa35192d97),
    ("PKG/Plain", 0xc339416d498b6a49),
    ("PKG/Capacities", 0xf507724a1629eb6f),
    ("PKG/LiveSubset", 0x81dbce5e5e4a41f9),
    ("PKG/Pending", 0x25d0d8dedfe80745),
    ("PKG/PeakEwma", 0x42de66082ddcb7a0),
    ("PKG3/Plain", 0xfcdd1f054c643890),
    ("PKG3/Capacities", 0x552fd4653b564437),
    ("PKG3/LiveSubset", 0x5eff307d7310689e),
    ("PKG3/Pending", 0xe420d55c0530fce2),
    ("PKG3/PeakEwma", 0xdac59652ff4d8e22),
    ("PoTC/Plain", 0xb912fd7a74b43781),
    ("PoTC/Capacities", 0x4c82a09b1eac447d),
    ("PoTC/LiveSubset", 0x2fa70436cf874b71),
    ("PoTC/Pending", 0x4ab856a8037a48d6),
    ("PoTC/PeakEwma", 0x9e40f77fe23530e5),
    ("OnGreedy/Plain", 0x850ea8fdb28b35f5),
    ("OnGreedy/Capacities", 0x60870f081a5ff627),
    ("OnGreedy/LiveSubset", 0xb52ee1c5c18c970c),
    ("OnGreedy/Pending", 0x6bdcd4d49e19c36d),
    ("OnGreedy/PeakEwma", 0x1913f5c52de09ca5),
    ("DChoices/Plain", 0x9bcf3009003ea186),
    ("DChoices/Capacities", 0x30c84f7dd3833546),
    ("DChoices/LiveSubset", 0x57b1ab6b820b1291),
    ("DChoices/Pending", 0x6d7795032f7077ec),
    ("DChoices/PeakEwma", 0x90b7ff2eff4d8b95),
    ("WChoices/Plain", 0x2e8a5c7542802aa2),
    ("WChoices/Capacities", 0x348a171c66d5d951),
    ("WChoices/LiveSubset", 0x7969517f52999e1e),
    ("WChoices/Pending", 0x8904430abc3905cb),
    ("WChoices/PeakEwma", 0x55d63ebf6b0a739a),
    ("Router::Shuffle/Plain", 0xa6e29e4e81974954),
    ("Router::Shuffle/Pending", 0xa6e29e4e81974954),
    ("Router::Shuffle/PeakEwma", 0xa6e29e4e81974954),
    ("Router::Key/Plain", 0xde6f1383bec75280),
    ("Router::Key/Pending", 0xde6f1383bec75280),
    ("Router::Key/PeakEwma", 0xde6f1383bec75280),
    ("Router::Partial2/Plain", 0x8a87964bc14b96e0),
    ("Router::Partial2/Pending", 0x748aafc221277a9e),
    ("Router::Partial2/PeakEwma", 0x6e0fdb98aa17e701),
    ("Router::Partial3/Plain", 0x34948af604b992a9),
    ("Router::Partial3/Pending", 0xdf23b9516b21fb3d),
    ("Router::Partial3/PeakEwma", 0x9769d1c1d06657c8),
    ("Router::DChoices/Plain", 0x57728519de4f6e76),
    ("Router::DChoices/Pending", 0x567448b4dda21495),
    ("Router::DChoices/PeakEwma", 0x8956c66b16427ee0),
    ("Router::WChoices/Plain", 0xfd21ca5b78375ea8),
    ("Router::WChoices/Pending", 0x3d215d4569d44f1a),
    ("Router::WChoices/PeakEwma", 0x33ed792dc0a44d96),
    ("Router::Elastic/Plain", 0xb8d7f6d4ecdecbdc),
    ("Router::Elastic/Pending", 0xb8d7f6d4ecdecbdc),
    ("Router::Elastic/PeakEwma", 0xb8d7f6d4ecdecbdc),
    ("Router::Global/Plain", 0x7f8c639ef36563f4),
    ("Router::Global/Pending", 0x7f8c639ef36563f4),
    ("Router::Global/PeakEwma", 0x7f8c639ef36563f4),
    ("Router::Broadcast/Plain", 0x7998830fa32077f3),
    ("Router::Broadcast/Pending", 0x7998830fa32077f3),
    ("Router::Broadcast/PeakEwma", 0x7998830fa32077f3),
];
