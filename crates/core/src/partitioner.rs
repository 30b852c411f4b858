//! The [`Partitioner`] — one router over every scheme — and buildable
//! scheme specifications.

use crate::choice::DEFAULT_EPSILON;
use crate::estimator::{EstimateKind, SharedLoads};
use crate::greedy::{KeyFrequencies, OfflineGreedy};
use crate::key_grouping::KeyGrouping;
use crate::load_view::LoadView;
use crate::pinned::PinnedGreedy;
use crate::pkg::{CandidatePolicy, HeadCap, PartialKeyGrouping};
use crate::shuffle::ShuffleGrouping;

/// A stream partitioning function `P_t : K → [n]` (§II of the paper): one
/// arm per partitioner of this crate, built by [`SchemeSpec::build`] in the
/// simulator and held by every keyed edge of the engine.
///
/// `route` may depend on the partitioner's mutable state (load estimates,
/// routing tables, round-robin counters) and on the stream time `ts_ms`
/// (probing estimates); decisions are irrevocable.
#[derive(Debug, Clone)]
pub enum Partitioner {
    /// [`KeyGrouping`]: one hash, no load (KG, "H").
    KeyGrouping(KeyGrouping),
    /// [`ShuffleGrouping`]: round-robin (SG).
    ShuffleGrouping(ShuffleGrouping),
    /// [`PartialKeyGrouping`]: the greedy family with key splitting (PKG,
    /// Greedy-`d`, D-Choices, W-Choices).
    PartialKeyGrouping(PartialKeyGrouping),
    /// [`PinnedGreedy`]: the greedy family with a routing table (static
    /// PoTC, On-Greedy).
    PinnedGreedy(PinnedGreedy),
    /// [`OfflineGreedy`]: an assignment frozen from the whole histogram.
    OfflineGreedy(OfflineGreedy),
}

/// `$body` evaluated on the partitioner of whichever arm `$self` is.
macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            Partitioner::KeyGrouping($p) => $body,
            Partitioner::ShuffleGrouping($p) => $body,
            Partitioner::PartialKeyGrouping($p) => $body,
            Partitioner::PinnedGreedy($p) => $body,
            Partitioner::OfflineGreedy($p) => $body,
        }
    };
}

impl Partitioner {
    /// Route a message with key `key` arriving at stream time `ts_ms`;
    /// returns the worker index in `[0, n)`.
    #[inline]
    pub fn route(&mut self, key: u64, ts_ms: u64) -> usize {
        each!(self, p => p.route(key, ts_ms))
    }

    /// Number of downstream workers.
    pub fn n(&self) -> usize {
        each!(self, p => p.n())
    }

    /// Human-readable name for experiment output.
    pub fn name(&self) -> String {
        each!(self, p => p.name())
    }

    /// The workers that may receive this key's next message (used by
    /// applications for query routing: PKG probes exactly two workers, KG
    /// one, SG all).
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        each!(self, p => p.candidates(key))
    }

    /// Whether [`Self::apply_membership`] is supported: every scheme but
    /// Off-Greedy, whose assignment is frozen up front.
    pub fn resizable(&self) -> bool {
        !matches!(self, Self::OfflineGreedy(_))
    }

    /// Restrict routing to the live subset `live` of the fixed id space
    /// `0..n` (pkg-elastic's stable-id invariant: `n` never changes, only
    /// which indices are live). Hash-based schemes reduce their hashes onto
    /// `live`; table-based schemes additionally evict entries pointing at
    /// dead workers. Applying the full set `0..n` routes byte-identically
    /// to a never-resized partitioner.
    ///
    /// # Panics
    /// Panics on Off-Greedy (see [`Self::resizable`]) and on an invalid
    /// `live` set (empty, unsorted, duplicate, or out-of-range indices).
    pub fn apply_membership(&mut self, live: &[usize]) {
        match self {
            Self::KeyGrouping(p) => p.apply_membership(live),
            Self::ShuffleGrouping(p) => p.apply_membership(live),
            Self::PartialKeyGrouping(p) => p.apply_membership(live),
            Self::PinnedGreedy(p) => p.apply_membership(live),
            Self::OfflineGreedy(p) => panic!("{} does not support membership changes", p.name()),
        }
    }
}

/// Validate a membership set against the fixed id space `0..n`: non-empty,
/// strictly increasing, all indices below `n`. Shared by every
/// [`Partitioner::apply_membership`] arm.
pub(crate) fn check_membership(live: &[usize], n: usize) {
    assert!(!live.is_empty(), "membership must keep at least one worker live");
    for pair in live.windows(2) {
        assert!(pair[0] < pair[1], "membership must be sorted and duplicate-free");
    }
    assert!(live[live.len() - 1] < n, "membership index out of the fixed id space 0..{n}");
}

/// A buildable description of a partitioning scheme, used by experiment
/// sweeps. One spec is instantiated once *per source* (each source gets its
/// own partitioner state — that is what makes local estimation "local"),
/// but all instances share the hash-function seeds, so every source agrees
/// on each key's candidate workers.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// Hash-based key grouping ("H" in the figures; the KG baseline).
    KeyGrouping,
    /// Round-robin shuffle grouping (SG).
    ShuffleGrouping,
    /// The greedy family with key splitting: PKG / Greedy-`d` under
    /// [`CandidatePolicy::Fixed`] (the paper studies and recommends
    /// `d = 2`), D-Choices / W-Choices under [`CandidatePolicy::Head`] —
    /// head keys, estimated frequency past `θ = 2(1+ε)/W`, get
    /// `⌈p̂·W/(1+ε)⌉` or all candidates of their hash sequence; tail keys
    /// route like plain PKG.
    Greedy {
        /// Candidate count per key.
        policy: CandidatePolicy,
        /// Load estimation strategy.
        estimate: EstimateKind,
    },
    /// Power of two choices *without* key splitting (routing-table PoTC).
    StaticPotc {
        /// Load estimation strategy used when a key is first routed.
        estimate: EstimateKind,
    },
    /// On-Greedy: each new key goes to the currently least-loaded worker.
    OnGreedy {
        /// Load estimation strategy consulted on first sight of a key.
        estimate: EstimateKind,
    },
    /// Off-Greedy: offline LPT assignment from full key frequencies.
    OffGreedy,
}

impl SchemeSpec {
    /// PKG with two choices and the given estimation strategy — the paper's
    /// recommended configuration.
    pub fn pkg(estimate: EstimateKind) -> Self {
        SchemeSpec::Greedy { policy: CandidatePolicy::Fixed(2), estimate }
    }

    /// D-Choices with the default imbalance target.
    pub fn d_choices(estimate: EstimateKind) -> Self {
        let policy = CandidatePolicy::Head { epsilon: DEFAULT_EPSILON, cap: HeadCap::PerFrequency };
        SchemeSpec::Greedy { policy, estimate }
    }

    /// W-Choices with the default imbalance target.
    pub fn w_choices(estimate: EstimateKind) -> Self {
        let policy = CandidatePolicy::Head { epsilon: DEFAULT_EPSILON, cap: HeadCap::All };
        SchemeSpec::Greedy { policy, estimate }
    }

    /// Whether this scheme needs the full key-frequency histogram
    /// (only Off-Greedy does; sweeps precompute it on demand).
    pub fn needs_frequencies(&self) -> bool {
        matches!(self, SchemeSpec::OffGreedy)
    }

    /// Short label for experiment tables ("H", "PKG", "PoTC", …).
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::KeyGrouping => "H".into(),
            SchemeSpec::ShuffleGrouping => "SG".into(),
            SchemeSpec::Greedy { policy, estimate } => {
                let e = estimate.label();
                match policy {
                    CandidatePolicy::Fixed(2) => format!("PKG-{e}"),
                    CandidatePolicy::Fixed(d) => format!("PKG{d}-{e}"),
                    CandidatePolicy::Head { cap: HeadCap::PerFrequency, .. } => format!("DC-{e}"),
                    CandidatePolicy::Head { cap: HeadCap::All, .. } => format!("WC-{e}"),
                }
            }
            SchemeSpec::StaticPotc { .. } => "PoTC".into(),
            SchemeSpec::OnGreedy { .. } => "On-Greedy".into(),
            SchemeSpec::OffGreedy => "Off-Greedy".into(),
        }
    }

    /// Instantiate a partitioner for one source.
    ///
    /// * `n` — number of workers;
    /// * `seed` — experiment seed (hash functions derive from it, so all
    ///   sources built with the same seed agree on candidates);
    /// * `source_index` — used to stagger shuffle grouping's round-robin
    ///   start so parallel sources do not move in lockstep;
    /// * `shared` — the true loads (read by Global/Probing estimates). On a
    ///   heterogeneous cluster ([`SharedLoads::with_capacities`]) every
    ///   load-consulting scheme routes by capacity-normalized load; with
    ///   uniform (or no) weights routing is byte-identical to the
    ///   capacity-free schemes;
    /// * `freqs` — key frequencies, required iff [`Self::needs_frequencies`].
    pub fn build(
        &self,
        n: usize,
        seed: u64,
        source_index: usize,
        shared: &SharedLoads,
        freqs: Option<&KeyFrequencies>,
    ) -> Partitioner {
        // What every load-consulting scheme routes on.
        let view = |estimate: &EstimateKind| {
            LoadView::new(n, estimate.build(n, shared))
                .with_capacities(shared.capacities().cloned())
        };
        match self {
            SchemeSpec::KeyGrouping => Partitioner::KeyGrouping(KeyGrouping::new(n, seed)),
            SchemeSpec::ShuffleGrouping => {
                Partitioner::ShuffleGrouping(ShuffleGrouping::with_offset(n, source_index))
            }
            SchemeSpec::Greedy { policy, estimate } => Partitioner::PartialKeyGrouping(
                PartialKeyGrouping::over(view(estimate), *policy, seed),
            ),
            SchemeSpec::StaticPotc { estimate } => {
                Partitioner::PinnedGreedy(PinnedGreedy::potc(view(estimate), seed))
            }
            SchemeSpec::OnGreedy { estimate } => {
                Partitioner::PinnedGreedy(PinnedGreedy::on_greedy(view(estimate)))
            }
            SchemeSpec::OffGreedy => {
                let freqs = freqs.expect("Off-Greedy requires key frequencies");
                let g = OfflineGreedy::weighted(n, freqs, seed, shared.capacities());
                Partitioner::OfflineGreedy(g)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(SchemeSpec::KeyGrouping.label(), "H");
        assert_eq!(SchemeSpec::pkg(EstimateKind::Local).label(), "PKG-L");
        let pkg5 = SchemeSpec::Greedy {
            policy: CandidatePolicy::Fixed(5),
            estimate: EstimateKind::Global,
        };
        assert_eq!(pkg5.label(), "PKG5-G");
        assert_eq!(SchemeSpec::OffGreedy.label(), "Off-Greedy");
        assert_eq!(SchemeSpec::d_choices(EstimateKind::Local).label(), "DC-L");
        assert_eq!(SchemeSpec::w_choices(EstimateKind::Global).label(), "WC-G");
    }

    #[test]
    fn build_produces_working_partitioners() {
        let shared = SharedLoads::new(4);
        for spec in [
            SchemeSpec::KeyGrouping,
            SchemeSpec::ShuffleGrouping,
            SchemeSpec::pkg(EstimateKind::Local),
            SchemeSpec::pkg(EstimateKind::Global),
            SchemeSpec::StaticPotc { estimate: EstimateKind::Global },
            SchemeSpec::OnGreedy { estimate: EstimateKind::Global },
            SchemeSpec::d_choices(EstimateKind::Local),
            SchemeSpec::w_choices(EstimateKind::Local),
        ] {
            let mut p = spec.build(4, 7, 0, &shared, None);
            assert!(p.resizable(), "{} must support membership", spec.label());
            for k in 0..100u64 {
                let w = p.route(k, 0);
                assert!(w < 4, "{} routed out of range", spec.label());
            }
        }
    }

    #[test]
    fn sources_agree_on_candidates() {
        let shared = SharedLoads::new(10);
        let a = SchemeSpec::pkg(EstimateKind::Local).build(10, 3, 0, &shared, None);
        let b = SchemeSpec::pkg(EstimateKind::Local).build(10, 3, 1, &shared, None);
        for k in 0..200u64 {
            assert_eq!(a.candidates(k), b.candidates(k));
        }
    }

    #[test]
    #[should_panic(expected = "requires key frequencies")]
    fn off_greedy_without_frequencies_panics() {
        let shared = SharedLoads::new(2);
        let _ = SchemeSpec::OffGreedy.build(2, 0, 0, &shared, None);
    }
}
