//! Streaming naive Bayes with vertical parallelism (§VI-A).
//!
//! The classifier counts co-occurrences of (feature, value, class). Under
//! vertical parallelism each training example is exploded into one event per
//! feature and the events are partitioned *by feature id*; with a skewed
//! feature distribution (ubiquitous in text data) key grouping overloads the
//! worker owning the hot features — the load problem PKG solves.
//!
//! At query time the per-feature counters must be gathered: KG probes one
//! worker per feature, PKG exactly two ("the two workers are
//! deterministically assigned for each feature… the algorithm needs to probe
//! only two workers for each feature, rather than having to broadcast it to
//! all the workers"), SG all `W`.

use pkg_core::{Partitioner, SchemeSpec, SharedLoads};
use pkg_hash::FxHashMap;

/// One vertical-parallelism training event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NbEvent {
    /// Feature identifier (the partitioning key).
    feature: u32,
    /// Discretized feature value.
    value: u8,
    /// Class label.
    class: u8,
}

/// Co-occurrence counts — both the single-machine model and each worker's
/// partial state.
#[derive(Debug, Clone, Default)]
struct NaiveBayes {
    /// (feature, value, class) → count.
    counts: FxHashMap<(u32, u8, u8), u64>,
    /// class → count of *events* (feature observations).
    class_events: FxHashMap<u8, u64>,
}

impl NaiveBayes {
    /// Empty model.
    fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    fn observe(&mut self, e: NbEvent) {
        *self.counts.entry((e.feature, e.value, e.class)).or_insert(0) += 1;
        *self.class_events.entry(e.class).or_insert(0) += 1;
    }

    /// Count for a (feature, value, class) triple.
    fn count(&self, feature: u32, value: u8, class: u8) -> u64 {
        self.counts.get(&(feature, value, class)).copied().unwrap_or(0)
    }

    /// Number of counters held (the memory metric).
    fn counters(&self) -> usize {
        self.counts.len()
    }

    /// Log-likelihood of `class` given binary/discrete `features`, with
    /// Laplace smoothing. `lookup` resolves a (feature, value, class) count
    /// — on a single machine this is [`Self::count`]; in the partitioned
    /// setting it sums the candidate workers' partials.
    fn log_score<F: Fn(u32, u8, u8) -> u64>(
        features: &[(u32, u8)],
        class: u8,
        lookup: &F,
        class_total: u64,
        grand_total: u64,
    ) -> f64 {
        let prior = (class_total as f64 + 1.0) / (grand_total as f64 + 2.0);
        let mut score = prior.ln();
        for &(f, v) in features {
            let c = lookup(f, v, class);
            // P(f=v | class) with add-one smoothing over the value domain
            // (binary features here: 2 values).
            let p = (c as f64 + 1.0) / (class_total as f64 / features.len().max(1) as f64 + 2.0);
            score += p.ln();
        }
        score
    }
}

/// Naive Bayes distributed over `w` workers by a partitioning scheme.
pub struct PartitionedNb {
    workers: Vec<NaiveBayes>,
    partitioner: Partitioner,
    /// Class priors are tracked at the source (each example counted once).
    class_examples: FxHashMap<u8, u64>,
    examples: u64,
    feature_count: usize,
}

impl PartitionedNb {
    /// Distribute over `w` workers under `scheme`.
    pub fn new(w: usize, scheme: &SchemeSpec, feature_count: usize, seed: u64) -> Self {
        let shared = SharedLoads::new(w);
        let partitioner = scheme.build(w, seed, 0, &shared, None);
        Self {
            workers: (0..w).map(|_| NaiveBayes::new()).collect(),
            partitioner,
            class_examples: FxHashMap::default(),
            examples: 0,
            feature_count,
        }
    }

    /// Train on one example: explode into per-feature events, route each by
    /// feature id.
    pub fn train(&mut self, features: &[(u32, u8)], class: u8) {
        self.examples += 1;
        *self.class_examples.entry(class).or_insert(0) += 1;
        for &(f, v) in features {
            let w = self.partitioner.route(u64::from(f), 0);
            self.workers[w].observe(NbEvent { feature: f, value: v, class });
        }
    }

    /// Workers probed per feature at query time (1 for KG, 2 for PKG,
    /// `W` for SG) — the §VI-A query-cost claim.
    pub fn probes_per_feature(&self, feature: u32) -> usize {
        let mut c = self.partitioner.candidates(u64::from(feature));
        c.sort_unstable();
        c.dedup();
        c.len()
    }

    /// Total counters across all workers (the memory metric).
    pub fn total_counters(&self) -> usize {
        self.workers.iter().map(|w| w.counters()).sum()
    }

    /// Per-worker event loads (the balance metric).
    pub fn worker_loads(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.class_events.values().sum()).collect()
    }

    /// Predict by gathering per-feature counts from candidate workers only.
    pub fn predict(&self, features: &[(u32, u8)]) -> Option<u8> {
        let grand: u64 = self.class_examples.values().sum::<u64>() * self.feature_count as u64;
        let lookup = |f: u32, v: u8, c: u8| -> u64 {
            self.partitioner
                .candidates(u64::from(f))
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|w| self.workers[w].count(f, v, c))
                .sum()
        };
        let mut classes: Vec<u8> = self.class_examples.keys().copied().collect();
        classes.sort_unstable();
        classes
            .into_iter()
            .map(|c| {
                let total = self.class_examples[&c] * self.feature_count as u64;
                let s = NaiveBayes::log_score(features, c, &lookup, total, grand);
                (c, s)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .map(|(c, _)| c)
    }
}

/// Generate a synthetic binary-feature classification stream: informative
/// features flip probability by class; feature *popularity* is skewed
/// (feature 0 appears in every example, mirroring text data).
pub fn synthetic_example(
    rng: &mut rand::rngs::SmallRng,
    features: usize,
    informative: usize,
) -> (Vec<(u32, u8)>, u8) {
    use rand::Rng;
    let class: u8 = rng.random_range(0..2);
    let mut x = Vec::with_capacity(features);
    for f in 0..features {
        // Zipf-ish presence: feature f appears with probability ~ 1/(f+1).
        if f > 0 && rng.random::<f64>() > 1.0 / (f as f64 + 1.0) {
            continue;
        }
        let p1 = if f < informative {
            if class == 0 {
                0.8
            } else {
                0.2
            }
        } else {
            0.5
        };
        let v = u8::from(rng.random::<f64>() < p1);
        x.push((f as u32, v));
    }
    (x, class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_core::EstimateKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The centralized model's prediction: the oracle the partitioned one
    /// is checked against.
    impl NaiveBayes {
        /// Predict the most likely class among those observed.
        fn predict(&self, features: &[(u32, u8)]) -> Option<u8> {
            let grand: u64 = self.class_events.values().sum();
            let mut classes: Vec<u8> = self.class_events.keys().copied().collect();
            classes.sort_unstable();
            classes
                .into_iter()
                .map(|c| {
                    let total = self.class_events[&c];
                    let count = |f, v, cl| self.count(f, v, cl);
                    let s = Self::log_score(features, c, &count, total, grand);
                    (c, s)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
                .map(|(c, _)| c)
        }
    }

    fn train_partitioned(scheme: &SchemeSpec, n: usize) -> (PartitionedNb, NaiveBayes) {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut part = PartitionedNb::new(8, scheme, 20, 3);
        let mut whole = NaiveBayes::new();
        for _ in 0..n {
            let (x, y) = synthetic_example(&mut rng, 20, 4);
            part.train(&x, y);
            for &(f, v) in &x {
                whole.observe(NbEvent { feature: f, value: v, class: y });
            }
        }
        (part, whole)
    }

    #[test]
    fn single_machine_model_learns() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut nb = NaiveBayes::new();
        for _ in 0..5_000 {
            let (x, y) = synthetic_example(&mut rng, 20, 4);
            for &(f, v) in &x {
                nb.observe(NbEvent { feature: f, value: v, class: y });
            }
        }
        let mut correct = 0;
        let n_test = 1_000;
        for _ in 0..n_test {
            let (x, y) = synthetic_example(&mut rng, 20, 4);
            if nb.predict(&x) == Some(y) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n_test as f64;
        assert!(acc > 0.75, "accuracy = {acc}");
    }

    #[test]
    fn pkg_probes_two_workers_kg_one_sg_all() {
        let (pkg, _) = train_partitioned(&SchemeSpec::pkg(EstimateKind::Local), 100);
        let (kg, _) = train_partitioned(&SchemeSpec::KeyGrouping, 100);
        let (sg, _) = train_partitioned(&SchemeSpec::ShuffleGrouping, 100);
        for f in 0..20u32 {
            assert!(pkg.probes_per_feature(f) <= 2);
            assert_eq!(kg.probes_per_feature(f), 1);
            assert_eq!(sg.probes_per_feature(f), 8);
        }
    }

    #[test]
    fn partitioned_counts_sum_to_whole() {
        // Gathering from PKG's two candidates recovers the exact global
        // count for every (feature, value, class) triple.
        let (part, whole) = train_partitioned(&SchemeSpec::pkg(EstimateKind::Local), 2_000);
        for f in 0..20u32 {
            let cands: std::collections::BTreeSet<usize> =
                part.partitioner.candidates(u64::from(f)).into_iter().collect();
            for v in 0..2u8 {
                for c in 0..2u8 {
                    let sum: u64 = cands.iter().map(|&w| part.workers[w].count(f, v, c)).sum();
                    assert_eq!(sum, whole.count(f, v, c), "triple ({f},{v},{c})");
                }
            }
        }
    }

    #[test]
    fn pkg_balances_feature_skew_better_than_kg() {
        use pkg_metrics::imbalance;
        let (pkg, _) = train_partitioned(&SchemeSpec::pkg(EstimateKind::Local), 20_000);
        let (kg, _) = train_partitioned(&SchemeSpec::KeyGrouping, 20_000);
        let i_pkg = imbalance(&pkg.worker_loads());
        let i_kg = imbalance(&kg.worker_loads());
        assert!(i_pkg < i_kg, "PKG imbalance {i_pkg} must beat KG {i_kg} under feature skew");
    }

    #[test]
    fn partitioned_prediction_agrees_with_centralized() {
        let (part, whole) = train_partitioned(&SchemeSpec::pkg(EstimateKind::Local), 3_000);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut agree = 0;
        for _ in 0..200 {
            let (x, _) = synthetic_example(&mut rng, 20, 4);
            if part.predict(&x) == whole.predict(&x) {
                agree += 1;
            }
        }
        // Scores differ slightly (priors counted per example vs per event),
        // but decisions should almost always agree.
        assert!(agree >= 190, "agreement = {agree}/200");
    }
}
