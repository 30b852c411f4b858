//! Dataset profiles matching Table I of the paper.
//!
//! | Dataset | Symbol | Messages | Keys  | p1(%) |
//! |---------|--------|----------|-------|-------|
//! | Wikipedia    | WP  | 22M   | 2.9M | 9.32 |
//! | Twitter      | TW  | 1.2G  | 31M  | 2.67 |
//! | Cashtags     | CT  | 690k  | 2.9k | 3.29 |
//! | Synthetic 1  | LN1 | 10M   | 16k  | 14.71 |
//! | Synthetic 2  | LN2 | 10M   | 1.1k | 7.01 |
//! | LiveJournal  | LJ  | 69M   | 4.9M | 0.29 |
//! | Slashdot0811 | SL1 | 905k  | 77k  | 3.28 |
//! | Slashdot0902 | SL2 | 948k  | 82k  | 3.11 |
//!
//! Default constructors return *scaled* profiles sized for a laptop-class
//! machine (the imbalance fractions studied are scale-free in the number of
//! messages — Theorem 4.1 gives `I = Θ(m/n)` — so scaling `m` and `K`
//! together preserves every qualitative result; `p1` is always preserved
//! exactly). [`DatasetProfile::with_messages`] and
//! [`DatasetProfile::with_keys`] restore the full Table I sizes;
//! `SCALE` (see [`DatasetProfile::scale`]) adjusts sizes globally.

use crate::drift::DriftState;
use crate::graph::GraphParams;
use crate::lognormal;
use crate::stream::{Sampler, StreamSpec};
use crate::zipf::{fit_exponent, ZipfRejection, ZipfTable};
use std::sync::Arc;

/// Key-space size above which Zipf profiles switch from the CDF table to
/// the O(1)-memory rejection sampler.
const TABLE_LIMIT: u64 = 8_000_000;

/// Generative model of a profile.
#[derive(Debug, Clone)]
pub enum ProfileKind {
    /// Zipf with exponent fitted to the target `p1`.
    Zipf,
    /// Zipf plus epoch-based popularity drift (cashtags).
    ZipfDrift {
        /// Drift epoch length in simulated hours.
        period_hours: f64,
        /// Number of head ranks re-assigned per epoch.
        churn_top: usize,
    },
    /// Log-normal key weights with the given parameters.
    LogNormal {
        /// Location parameter µ.
        mu: f64,
        /// Scale parameter σ.
        sigma: f64,
        /// Seed of the weight draw. Fixed per profile (calibrated with
        /// `pkg-bench --bin calibrate` so the drawn `p1` matches Table I):
        /// the paper's dataset is one concrete draw, and pinning it makes
        /// the default datasets reproduce the paper's head probability
        /// regardless of the experiment seed.
        weight_seed: u64,
    },
    /// Directed preferential-attachment edge stream.
    Graph(GraphParams),
}

/// A buildable description of one of the paper's datasets.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Short symbol (WP, TW, …).
    pub name: String,
    /// Messages the stream will contain.
    pub messages: u64,
    /// Number of distinct keys (Zipf/log-normal) or expected vertex budget
    /// (graphs, where the process itself creates vertices).
    pub keys: u64,
    /// Target probability of the most frequent key (None where emergent).
    pub target_p1: Option<f64>,
    /// Simulated stream duration in hours (the x-axis of Fig. 3).
    pub duration_hours: f64,
    /// Generative model.
    pub kind: ProfileKind,
}

impl DatasetProfile {
    /// WP — Wikipedia page-visit log. Paper: 22M messages, 2.9M keys,
    /// p1 = 9.32%. Scaled default: 5M messages, 660k keys.
    pub fn wikipedia() -> Self {
        Self {
            name: "WP".into(),
            messages: 5_000_000,
            keys: 660_000,
            target_p1: Some(0.0932),
            duration_hours: 40.0,
            kind: ProfileKind::Zipf,
        }
    }

    /// TW — Twitter word stream. Paper: 1.2G messages, 31M keys,
    /// p1 = 2.67%. Scaled default: 8M messages, 207k keys (the paper's
    /// 38.7 messages/key ratio).
    pub fn twitter() -> Self {
        Self {
            name: "TW".into(),
            messages: 8_000_000,
            keys: 207_000,
            target_p1: Some(0.0267),
            duration_hours: 30.0,
            kind: ProfileKind::Zipf,
        }
    }

    /// CT — Twitter cashtags with weekly popularity drift. Paper: 690k
    /// messages, 2.9k keys, p1 = 3.29%, ~600 hours.
    pub fn cashtags() -> Self {
        Self {
            name: "CT".into(),
            messages: 690_000,
            keys: 2_900,
            target_p1: Some(0.0329),
            duration_hours: 600.0,
            kind: ProfileKind::ZipfDrift { period_hours: 168.0, churn_top: 50 },
        }
    }

    /// LN1 — log-normal with Orkut-fitted µ=1.789, σ=2.366. Paper: 10M
    /// messages, 16k keys, p1 = 14.71%.
    pub fn lognormal1() -> Self {
        Self {
            name: "LN1".into(),
            messages: 10_000_000,
            keys: 16_000,
            target_p1: None,
            duration_hours: 10.0,
            kind: ProfileKind::LogNormal { mu: 1.789, sigma: 2.366, weight_seed: 123 },
        }
    }

    /// LN2 — log-normal with µ=2.245, σ=1.133. Paper: 10M messages,
    /// 1.1k keys, p1 = 7.01%.
    pub fn lognormal2() -> Self {
        Self {
            name: "LN2".into(),
            messages: 10_000_000,
            keys: 1_100,
            target_p1: None,
            duration_hours: 10.0,
            kind: ProfileKind::LogNormal { mu: 2.245, sigma: 1.133, weight_seed: 229 },
        }
    }

    /// LJ — LiveJournal-like directed graph stream. Paper: 69M edges,
    /// 4.9M vertices, p1 = 0.29%. Scaled default: 5M edges (~355k
    /// vertices at the paper's vertices/edge ratio).
    pub fn livejournal() -> Self {
        Self {
            name: "LJ".into(),
            messages: 5_000_000,
            keys: 355_000,
            target_p1: None,
            duration_hours: 24.0,
            kind: ProfileKind::Graph(GraphParams { alpha: 0.05, beta: 0.929, uniform_mix: 0.4 }),
        }
    }

    /// SL1 — Slashdot0811-like graph. Paper: 905k edges, 77k vertices,
    /// p1 = 3.28%.
    pub fn slashdot1() -> Self {
        Self {
            name: "SL1".into(),
            messages: 905_000,
            keys: 77_000,
            target_p1: None,
            duration_hours: 24.0,
            kind: ProfileKind::Graph(GraphParams { alpha: 0.06, beta: 0.915, uniform_mix: 0.3 }),
        }
    }

    /// SL2 — Slashdot0902-like graph. Paper: 948k edges, 82k vertices,
    /// p1 = 3.11%.
    pub fn slashdot2() -> Self {
        Self {
            name: "SL2".into(),
            messages: 948_000,
            keys: 82_000,
            target_p1: None,
            duration_hours: 24.0,
            kind: ProfileKind::Graph(GraphParams { alpha: 0.06, beta: 0.914, uniform_mix: 0.3 }),
        }
    }

    /// A synthetic Zipf profile with an explicit exponent `s` — the `z`
    /// knob of the D-Choices sweeps ("When Two Choices Are not Enough"
    /// studies z up to 2.2, far past any Table I dataset). The target `p1`
    /// is derived as `1 / H_{K,s}`; building the profile fits the exponent
    /// back from it, recovering `s` to the fit tolerance. `s = 0` is the
    /// uniform distribution (the skew-free edge of the `fig_hetero` grid).
    pub fn zipf_exponent(keys: u64, s: f64, messages: u64) -> Self {
        assert!(keys >= 2 && s >= 0.0);
        Self {
            name: format!("Z{s:.1}"),
            messages,
            keys,
            target_p1: Some(1.0 / crate::zipf::harmonic(keys, s)),
            duration_hours: 10.0,
            kind: ProfileKind::Zipf,
        }
    }

    /// All five non-graph profiles of Fig. 2, in the paper's panel order.
    pub fn figure2_profiles() -> Vec<Self> {
        vec![
            Self::twitter(),
            Self::wikipedia(),
            Self::cashtags(),
            Self::lognormal1(),
            Self::lognormal2(),
        ]
    }

    /// Override the message count.
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Override the key count (Zipf/log-normal profiles).
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Scale messages and keys together by `factor` (≥ 0), preserving the
    /// messages-per-key ratio and `p1`. Key counts are floored at 2.
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        self.messages = ((self.messages as f64 * factor) as u64).max(1);
        self.keys = ((self.keys as f64 * factor) as u64).max(2);
        self
    }

    /// Build the reusable stream specification (performs exponent fitting
    /// and table construction; deterministic in `seed`).
    pub fn build(&self, _seed: u64) -> StreamSpec {
        let duration_ms = (self.duration_hours * 3_600_000.0) as u64;
        let sampler = match &self.kind {
            ProfileKind::Zipf => {
                let p1 = self.target_p1.expect("Zipf profiles carry a target p1");
                if self.keys <= TABLE_LIMIT {
                    Sampler::ZipfTable(Arc::new(ZipfTable::with_p1(self.keys, p1)))
                } else {
                    let s = fit_exponent(self.keys, p1);
                    Sampler::ZipfRejection(ZipfRejection::new(self.keys, s))
                }
            }
            ProfileKind::ZipfDrift { period_hours, churn_top } => {
                let p1 = self.target_p1.expect("drift profiles carry a target p1");
                let period_ms = ((*period_hours) * 3_600_000.0) as u64;
                Sampler::Drift {
                    table: Arc::new(ZipfTable::with_p1(self.keys, p1)),
                    drift: DriftState::new(self.keys, period_ms.max(1), *churn_top),
                }
            }
            ProfileKind::LogNormal { mu, sigma, weight_seed } => Sampler::Alias(Arc::new(
                lognormal::alias_table(self.keys, *mu, *sigma, *weight_seed),
            )),
            ProfileKind::Graph(params) => Sampler::Graph(*params),
        };
        StreamSpec {
            name: self.name.clone(),
            messages: self.messages,
            key_space: match &self.kind {
                // The graph process creates vertices as it goes; the id
                // space is bounded by #edges + seed vertices.
                ProfileKind::Graph(_) => self.messages + 2,
                _ => self.keys,
            },
            duration_ms,
            sampler,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_hash::FxHashMap;

    /// Empirical (messages, keys, p1) of a built profile.
    fn empirical_stats(spec: &StreamSpec, seed: u64) -> (u64, usize, f64) {
        let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
        let mut m = 0u64;
        for msg in spec.iter(seed) {
            *counts.entry(msg.key).or_default() += 1;
            m += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        (m, counts.len(), max as f64 / m as f64)
    }

    #[test]
    fn wikipedia_profile_matches_target_p1() {
        let spec = DatasetProfile::wikipedia().with_messages(300_000).with_keys(10_000).build(1);
        let (m, _, p1) = empirical_stats(&spec, 2);
        assert_eq!(m, 300_000);
        assert!((p1 - 0.0932).abs() < 0.01, "p1 = {p1}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let spec = DatasetProfile::zipf_exponent(1_000, 0.0, 50_000).build(3);
        let (m, distinct, p1) = empirical_stats(&spec, 2);
        assert_eq!(m, 50_000);
        assert!(distinct > 950, "only {distinct} of 1000 keys seen");
        // Uniform: the head key holds ≈ 1/1000 of the stream, not more
        // than a few times that.
        assert!(p1 < 0.004, "p1 = {p1} is not uniform");
    }

    #[test]
    fn cashtags_profile_has_drift_and_target_p1() {
        let spec = DatasetProfile::cashtags().build(3);
        assert!((spec.p1().expect("drift p1 known") - 0.0329).abs() < 1e-6);
        let (m, k, p1) = empirical_stats(&spec, 4);
        assert_eq!(m, 690_000);
        assert!(k <= 2_900);
        // Drift spreads the head mass over several keys; the per-epoch skew
        // still matches, so the whole-stream p1 is below the target.
        assert!(p1 <= 0.04, "p1 = {p1}");
    }

    #[test]
    fn lognormal_profiles_are_in_the_papers_ballpark() {
        // Table I: LN1 p1 = 14.71%, LN2 p1 = 7.01%. The published numbers
        // are a single draw from the generative model; we accept the right
        // order of magnitude and the LN1 > LN2 ordering.
        let p1_ln1 = DatasetProfile::lognormal1().build(7).p1().expect("alias p1");
        let p1_ln2 = DatasetProfile::lognormal2().build(7).p1().expect("alias p1");
        assert!(p1_ln1 > 0.02 && p1_ln1 < 0.6, "LN1 p1 = {p1_ln1}");
        assert!(p1_ln2 > 0.005 && p1_ln2 < 0.3, "LN2 p1 = {p1_ln2}");
    }

    #[test]
    fn graph_profile_yields_inverted_edges() {
        let spec = DatasetProfile::slashdot1().with_messages(50_000).build(5);
        let mut distinct_src = std::collections::HashSet::new();
        for msg in spec.iter(6) {
            // source_key is the graph source vertex, key the destination.
            distinct_src.insert(msg.source_key);
        }
        assert!(distinct_src.len() > 1_000);
    }

    #[test]
    fn scale_preserves_ratio() {
        let p = DatasetProfile::wikipedia().scale(0.1);
        assert_eq!(p.messages, 500_000);
        assert_eq!(p.keys, 66_000);
    }

    #[test]
    fn zipf_exponent_profile_hits_the_requested_skew() {
        // z = 2.0 over 10k keys: p1 = 1/H ≈ 0.608/ζ(2)-ish for finite K.
        let spec = DatasetProfile::zipf_exponent(10_000, 2.0, 200_000).build(1);
        let expect = 1.0 / crate::zipf::harmonic(10_000, 2.0);
        let p1 = spec.p1().expect("zipf p1 known");
        assert!((p1 - expect).abs() < 1e-4, "p1 = {p1}, expect {expect}");
        let (m, _, emp_p1) = empirical_stats(&spec, 2);
        assert_eq!(m, 200_000);
        assert!((emp_p1 - expect).abs() < 0.02, "empirical p1 = {emp_p1}");
    }

    #[test]
    fn figure2_panel_order() {
        let names: Vec<String> =
            DatasetProfile::figure2_profiles().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["TW", "WP", "CT", "LN1", "LN2"]);
    }
}
