//! The [`Partitioner`] trait and buildable scheme specifications.

use crate::choice::DEFAULT_EPSILON;
use crate::estimator::{EstimateKind, SharedLoads};
use crate::greedy::{KeyFrequencies, OfflineGreedy};
use crate::key_grouping::KeyGrouping;
use crate::load_view::LoadView;
use crate::pinned::PinnedGreedy;
use crate::pkg::{CandidatePolicy, HeadCap, PartialKeyGrouping};
use crate::shuffle::ShuffleGrouping;

/// A stream partitioning function `P_t : K → [n]` (§II of the paper).
///
/// `route` may depend on the partitioner's mutable state (load estimates,
/// routing tables, round-robin counters) and on the stream time `ts_ms`
/// (probing estimators); decisions are irrevocable.
pub trait Partitioner: Send {
    /// Route a message with key `key` arriving at stream time `ts_ms`;
    /// returns the worker index in `[0, n)`.
    fn route(&mut self, key: u64, ts_ms: u64) -> usize;

    /// Route a whole batch of keys arriving at stream time `ts_ms`,
    /// appending one worker index per key to `out` (cleared first).
    ///
    /// Decisions are made per key **in stream order** with exactly the same
    /// state updates as [`Self::route`] — batching amortizes the dispatch,
    /// never changes a choice. The theory is indifferent: between two
    /// argmin evaluations the load vector moves by at most the batch size,
    /// so the greedy process is unchanged (pinned by the `route_batch`
    /// property test for every [`SchemeSpec`]).
    fn route_batch(&mut self, keys: &[u64], ts_ms: u64, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| self.route(k, ts_ms)));
    }

    /// Number of downstream workers.
    fn n(&self) -> usize;

    /// Human-readable name for experiment output.
    fn name(&self) -> String;

    /// The workers that may ever receive this key (used by applications for
    /// query routing: PKG probes exactly two workers, KG one, SG all).
    fn candidates(&self, key: u64) -> Vec<usize> {
        let _ = key;
        (0..self.n()).collect()
    }

    /// Whether this partitioner supports runtime membership changes via
    /// [`Self::apply_membership`]. Schemes whose assignment is frozen up
    /// front (Off-Greedy) stay `false`.
    fn resizable(&self) -> bool {
        false
    }

    /// Restrict routing to the live subset `live` of the fixed id space
    /// `0..n` (pkg-elastic's stable-id invariant: `n` never changes, only
    /// which indices are live). Hash-based schemes rebuild their candidate
    /// derivation over `live`; table-based schemes additionally evict
    /// entries pointing at dead workers. Applying the full set `0..n` must
    /// route byte-identically to a never-resized partitioner.
    ///
    /// # Panics
    /// The default implementation panics: the scheme does not support
    /// membership changes. Implementations panic on an invalid `live` set
    /// (empty, unsorted, duplicate, or out-of-range indices).
    fn apply_membership(&mut self, live: &[usize]) {
        let _ = live;
        panic!("{} does not support membership changes", self.name());
    }
}

/// Validate a membership set against the fixed id space `0..n`: non-empty,
/// strictly increasing, all indices below `n`. Shared by every
/// [`Partitioner::apply_membership`] implementation.
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
    /// Partial key grouping: the Greedy-`d` process with key splitting.
    Pkg {
        /// Number of hash choices (the paper studies and recommends 2).
        d: usize,
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
    /// D-Choices (journal follow-up): head keys — estimated frequency past
    /// `θ = 2(1+ε)/W` — get `⌈p̂·W/(1+ε)⌉` candidates from their hash
    /// sequence; tail keys route like plain PKG.
    DChoices {
        /// Load estimation strategy.
        estimate: EstimateKind,
        /// Relative imbalance target `ε`.
        epsilon: f64,
    },
    /// W-Choices (journal follow-up): head keys may go to *all* workers;
    /// tail keys route like plain PKG.
    WChoices {
        /// Load estimation strategy.
        estimate: EstimateKind,
        /// Relative imbalance target `ε`.
        epsilon: f64,
    },
}

impl SchemeSpec {
    /// PKG with two choices and the given estimation strategy — the paper's
    /// recommended configuration.
    pub fn pkg(estimate: EstimateKind) -> Self {
        SchemeSpec::Pkg { d: 2, estimate }
    }

    /// D-Choices with the default imbalance target.
    pub fn d_choices(estimate: EstimateKind) -> Self {
        SchemeSpec::DChoices { estimate, epsilon: DEFAULT_EPSILON }
    }

    /// W-Choices with the default imbalance target.
    pub fn w_choices(estimate: EstimateKind) -> Self {
        SchemeSpec::WChoices { estimate, epsilon: DEFAULT_EPSILON }
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
            SchemeSpec::Pkg { d: 2, estimate } => format!("PKG-{}", estimate.label()),
            SchemeSpec::Pkg { d, estimate } => format!("PKG{}-{}", d, estimate.label()),
            SchemeSpec::StaticPotc { .. } => "PoTC".into(),
            SchemeSpec::OnGreedy { .. } => "On-Greedy".into(),
            SchemeSpec::OffGreedy => "Off-Greedy".into(),
            SchemeSpec::DChoices { estimate, .. } => format!("DC-{}", estimate.label()),
            SchemeSpec::WChoices { estimate, .. } => format!("WC-{}", estimate.label()),
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
    ) -> Box<dyn Partitioner> {
        // What every load-consulting scheme routes on.
        let view = |estimate: &EstimateKind| {
            LoadView::new(n, estimate.build(n, shared))
                .with_capacities(shared.capacities().cloned())
        };
        match self {
            SchemeSpec::KeyGrouping => Box::new(KeyGrouping::new(n, seed)),
            SchemeSpec::ShuffleGrouping => Box::new(ShuffleGrouping::with_offset(n, source_index)),
            SchemeSpec::Pkg { d, estimate } => {
                Box::new(PartialKeyGrouping::over(view(estimate), CandidatePolicy::Fixed(*d), seed))
            }
            SchemeSpec::StaticPotc { estimate } => {
                Box::new(PinnedGreedy::potc(view(estimate), seed))
            }
            SchemeSpec::OnGreedy { estimate } => Box::new(PinnedGreedy::on_greedy(view(estimate))),
            SchemeSpec::OffGreedy => {
                let freqs = freqs.expect("Off-Greedy requires key frequencies");
                Box::new(OfflineGreedy::weighted(n, freqs, seed, shared.capacities()))
            }
            SchemeSpec::DChoices { estimate, epsilon }
            | SchemeSpec::WChoices { estimate, epsilon } => {
                let cap = match self {
                    SchemeSpec::DChoices { .. } => HeadCap::PerFrequency,
                    _ => HeadCap::All,
                };
                let policy = CandidatePolicy::Head { epsilon: *epsilon, cap };
                Box::new(PartialKeyGrouping::over(view(estimate), policy, seed))
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
        assert_eq!(SchemeSpec::Pkg { d: 5, estimate: EstimateKind::Global }.label(), "PKG5-G");
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
