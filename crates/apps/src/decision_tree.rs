//! The Streaming Parallel Decision Tree (SPDT) of Ben-Haim & Tom-Tov
//! [JMLR 2010], parallelized the way §VI-B of the PKG paper proposes.
//!
//! Workers build [`BhHistogram`]s for every (leaf, feature, class) triple
//! over their share of the stream; an aggregator periodically merges the
//! histograms, evaluates candidate thresholds (the histogram's *uniform*
//! quantiles), and splits leaves by information gain.
//!
//! The partitioning angle: events are keyed by *feature*. Under shuffle
//! grouping every worker may hold a histogram for every triple
//! (`W·D·C·L` histograms) and the aggregator merges `W` per triple; under
//! PKG each feature is tracked by at most two workers (`2·D·C·L`
//! histograms, two-way merges) while the load stays balanced even when
//! feature popularity is skewed.

use pkg_agg::BhHistogram;
use pkg_core::{Partitioner, SchemeSpec, SharedLoads};
use pkg_hash::FxHashMap;

/// SPDT hyper-parameters.
#[derive(Debug, Clone)]
pub struct SpdtConfig {
    /// Number of input features `D`.
    pub features: usize,
    /// Number of classes `C`.
    pub classes: usize,
    /// Histogram capacity `B`.
    pub bins: usize,
    /// Candidate thresholds per feature (the `b̃` of the uniform procedure).
    pub candidate_splits: usize,
    /// Minimum samples a leaf must absorb before it may split.
    pub min_samples_split: f64,
    /// Minimum information gain to split.
    pub min_gain: f64,
    /// Stop growing past this many leaves.
    pub max_leaves: usize,
}

impl Default for SpdtConfig {
    fn default() -> Self {
        Self {
            features: 8,
            classes: 2,
            bins: 32,
            candidate_splits: 8,
            min_samples_split: 200.0,
            min_gain: 0.01,
            max_leaves: 64,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class histogram observed at this leaf (for majority prediction).
        counts: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// The shared model: an axis-aligned binary decision tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn new(classes: usize) -> Self {
        Self { nodes: vec![Node::Leaf { counts: vec![0.0; classes] }] }
    }

    /// Index of the leaf node that `x` reaches.
    pub fn leaf_of(&self, x: &[f64]) -> usize {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { .. } => return i,
                Node::Split { feature, threshold, left, right } => {
                    i = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Majority-class prediction.
    pub fn predict(&self, x: &[f64]) -> usize {
        match &self.nodes[self.leaf_of(x)] {
            Node::Leaf { counts } => counts
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite counts"))
                .map(|(c, _)| c)
                .expect("at least one class"),
            Node::Split { .. } => unreachable!("leaf_of returns leaves"),
        }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Tree depth (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// A worker's histogram state over its sub-stream.
#[derive(Debug, Default)]
pub struct SpdtWorker {
    hists: FxHashMap<(u32, u16, u16), BhHistogram>,
    bins: usize,
}

impl SpdtWorker {
    /// Worker with histogram capacity `bins`.
    pub fn new(bins: usize) -> Self {
        Self { hists: FxHashMap::default(), bins }
    }

    /// Absorb one (leaf, feature, class, value) event.
    pub fn observe(&mut self, leaf: u32, feature: u16, class: u16, value: f64) {
        self.hists
            .entry((leaf, feature, class))
            .or_insert_with(|| BhHistogram::new(self.bins))
            .update(value);
    }

    /// Histogram for a triple, if present.
    pub fn histogram(&self, leaf: u32, feature: u16, class: u16) -> Option<&BhHistogram> {
        self.hists.get(&(leaf, feature, class))
    }

    /// Number of histograms held (the §VI-B memory metric).
    pub fn histogram_count(&self) -> usize {
        self.hists.len()
    }

    /// Events absorbed.
    pub fn events(&self) -> f64 {
        self.hists.values().map(|h| h.total()).sum()
    }

    /// Drop the histograms of a leaf that has been split.
    pub fn clear_leaf(&mut self, leaf: u32) {
        self.hists.retain(|&(l, _, _), _| l != leaf);
    }
}

/// The aggregator: owns the tree, merges worker histograms and grows.
pub struct SpdtAggregator {
    cfg: SpdtConfig,
    tree: Tree,
}

fn entropy(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / total;
            -p * p.log2()
        })
        .sum()
}

impl SpdtAggregator {
    /// Fresh single-leaf tree.
    pub fn new(cfg: SpdtConfig) -> Self {
        let classes = cfg.classes;
        Self { cfg, tree: Tree::new(classes) }
    }

    /// The current model.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Merge worker histograms and attempt one round of splits; returns the
    /// number of leaves split. Workers' histograms for split leaves are
    /// cleared (children restart collection).
    pub fn try_grow(
        &mut self,
        workers: &mut [SpdtWorker],
        candidates_of: &dyn Fn(u16) -> Vec<usize>,
    ) -> usize {
        let leaf_ids: Vec<u32> = self
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Leaf { .. }))
            .map(|(i, _)| i as u32)
            .collect();
        let mut splits = 0;
        for leaf in leaf_ids {
            if self.tree.leaves() >= self.cfg.max_leaves {
                break;
            }
            // Merge per-class histograms per feature from candidate workers.
            struct BestSplit {
                feature: usize,
                gain: f64,
                threshold: f64,
                left_counts: Vec<f64>,
                right_counts: Vec<f64>,
            }
            let mut best: Option<BestSplit> = None;
            let mut leaf_counts = vec![0.0; self.cfg.classes];
            for f in 0..self.cfg.features as u16 {
                let workers_of_f = candidates_of(f);
                let mut per_class: Vec<BhHistogram> = Vec::with_capacity(self.cfg.classes);
                for c in 0..self.cfg.classes as u16 {
                    let mut merged = BhHistogram::new(self.cfg.bins);
                    for &w in &workers_of_f {
                        if let Some(h) = workers[w].histogram(leaf, f, c) {
                            merged.merge(h);
                        }
                    }
                    per_class.push(merged);
                }
                let class_totals: Vec<f64> = per_class.iter().map(|h| h.total()).collect();
                if f == 0 {
                    leaf_counts = class_totals.clone();
                }
                let n: f64 = class_totals.iter().sum();
                if n < self.cfg.min_samples_split {
                    continue;
                }
                // Candidate thresholds from the class-agnostic histogram.
                let mut overall = BhHistogram::new(self.cfg.bins);
                for h in &per_class {
                    overall.merge(h);
                }
                let parent_h = entropy(&class_totals);
                for t in overall.uniform(self.cfg.candidate_splits) {
                    let left: Vec<f64> = per_class.iter().map(|h| h.sum(t)).collect();
                    let right: Vec<f64> =
                        class_totals.iter().zip(&left).map(|(tot, l)| (tot - l).max(0.0)).collect();
                    let (nl, nr) = (left.iter().sum::<f64>(), right.iter().sum::<f64>());
                    if nl < 1.0 || nr < 1.0 {
                        continue;
                    }
                    let gain = parent_h - (nl / n) * entropy(&left) - (nr / n) * entropy(&right);
                    if gain > self.cfg.min_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(BestSplit {
                            feature: f as usize,
                            gain,
                            threshold: t,
                            left_counts: left,
                            right_counts: right,
                        });
                    }
                }
            }
            if let Some(BestSplit { feature, threshold, left_counts, right_counts, .. }) = best {
                let l = self.tree.nodes.len();
                self.tree.nodes.push(Node::Leaf { counts: left_counts });
                let r = self.tree.nodes.len();
                self.tree.nodes.push(Node::Leaf { counts: right_counts });
                self.tree.nodes[leaf as usize] =
                    Node::Split { feature, threshold, left: l, right: r };
                for w in workers.iter_mut() {
                    w.clear_leaf(leaf);
                }
                splits += 1;
            } else if let Node::Leaf { counts } = &mut self.tree.nodes[leaf as usize] {
                // Keep prediction counts fresh even when not splitting.
                if leaf_counts.iter().sum::<f64>() > 0.0 {
                    for (c, v) in counts.iter_mut().zip(&leaf_counts) {
                        *c = c.max(*v);
                    }
                }
            }
        }
        splits
    }
}

/// End-to-end trainer wiring source → partitioner → workers → aggregator.
pub struct Spdt {
    aggregator: SpdtAggregator,
    workers: Vec<SpdtWorker>,
    partitioner: Partitioner,
    grow_every: u64,
    seen: u64,
}

impl Spdt {
    /// A trainer over `w` workers partitioned by `scheme`, growing the tree
    /// every `grow_every` examples.
    pub fn new(cfg: SpdtConfig, scheme: &SchemeSpec, w: usize, grow_every: u64, seed: u64) -> Self {
        let shared = SharedLoads::new(w);
        let bins = cfg.bins;
        Self {
            aggregator: SpdtAggregator::new(cfg),
            workers: (0..w).map(|_| SpdtWorker::new(bins)).collect(),
            partitioner: scheme.build(w, seed, 0, &shared, None),
            grow_every,
            seen: 0,
        }
    }

    /// Ingest one labeled example.
    pub fn ingest(&mut self, x: &[f64], y: usize) {
        let leaf = self.aggregator.tree.leaf_of(x) as u32;
        if let Node::Leaf { counts } = &mut self.aggregator.tree.nodes[leaf as usize] {
            counts[y] += 1.0;
        }
        for (f, &v) in x.iter().enumerate() {
            let w = self.partitioner.route(f as u64, self.seen);
            self.workers[w].observe(leaf, f as u16, y as u16, v);
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.grow_every) {
            self.grow();
        }
    }

    /// Force a growth round.
    pub fn grow(&mut self) -> usize {
        let part = &self.partitioner;
        let candidates_of = |f: u16| -> Vec<usize> {
            let mut c = part.candidates(u64::from(f));
            c.sort_unstable();
            c.dedup();
            c
        };
        self.aggregator.try_grow(&mut self.workers, &candidates_of)
    }

    /// Predict a class label.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.aggregator.tree.predict(x)
    }

    /// The model.
    pub fn tree(&self) -> &Tree {
        &self.aggregator.tree
    }

    /// Total histograms across workers (§VI-B memory metric: `≤ 2·D·C·L`
    /// under PKG, up to `W·D·C·L` under shuffle).
    pub fn total_histograms(&self) -> usize {
        self.workers.iter().map(|w| w.histogram_count()).sum()
    }

    /// Per-worker event loads.
    pub fn worker_loads(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.events() as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkg_core::EstimateKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// y = 1 iff x0 > 0.35 (with 5% label noise); other features are noise.
    fn sample(rng: &mut SmallRng, d: usize) -> (Vec<f64>, usize) {
        let x: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
        let mut y = usize::from(x[0] > 0.35);
        if rng.random::<f64>() < 0.05 {
            y = 1 - y;
        }
        (x, y)
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[10.0, 0.0]), 0.0);
        assert!((entropy(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn learns_threshold_concept() {
        let cfg = SpdtConfig { features: 4, min_samples_split: 100.0, ..SpdtConfig::default() };
        let mut spdt = Spdt::new(cfg, &SchemeSpec::pkg(EstimateKind::Local), 6, 500, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..6_000 {
            let (x, y) = sample(&mut rng, 4);
            spdt.ingest(&x, y);
        }
        spdt.grow();
        assert!(spdt.tree().leaves() >= 2, "tree never split");
        let mut correct = 0;
        let n = 1_000;
        for _ in 0..n {
            let (x, y) = sample(&mut rng, 4);
            if spdt.predict(&x) == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.85, "accuracy = {acc}");
        // The first split should be near the true threshold on feature 0.
        match &spdt.tree().nodes[0] {
            Node::Split { feature, threshold, .. } => {
                assert_eq!(*feature, 0);
                assert!((threshold - 0.35).abs() < 0.1, "threshold = {threshold}");
            }
            Node::Leaf { .. } => panic!("root must be a split"),
        }
    }

    #[test]
    fn pkg_memory_bound_2dcl() {
        let d = 8;
        let cfg = SpdtConfig { features: d, ..SpdtConfig::default() };
        let w = 10;
        let build = |scheme: &SchemeSpec| {
            let mut spdt = Spdt::new(cfg.clone(), scheme, w, u64::MAX, 3);
            let mut rng = SmallRng::seed_from_u64(4);
            for _ in 0..3_000 {
                let (x, y) = sample(&mut rng, d);
                spdt.ingest(&x, y);
            }
            spdt.total_histograms()
        };
        let pkg = build(&SchemeSpec::pkg(EstimateKind::Local));
        let sg = build(&SchemeSpec::ShuffleGrouping);
        let kg = build(&SchemeSpec::KeyGrouping);
        let (c, l) = (2, 1); // classes, leaves (no growth: grow_every = MAX)
        assert!(pkg <= 2 * d * c * l, "PKG histograms {pkg} exceed 2DCL");
        assert!(kg <= d * c * l, "KG histograms {kg} exceed DCL");
        assert!(sg > pkg, "SG ({sg}) must hold more histograms than PKG ({pkg})");
        assert!(sg <= w * d * c * l);
    }

    #[test]
    fn multiclass_tree_grows() {
        // Three classes separable on two features.
        let cfg = SpdtConfig {
            features: 2,
            classes: 3,
            min_samples_split: 150.0,
            ..SpdtConfig::default()
        };
        let mut spdt = Spdt::new(cfg, &SchemeSpec::pkg(EstimateKind::Local), 4, 400, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let gen = |rng: &mut SmallRng| -> (Vec<f64>, usize) {
            let x: Vec<f64> = vec![rng.random(), rng.random()];
            let y = if x[0] < 0.33 {
                0
            } else if x[1] < 0.5 {
                1
            } else {
                2
            };
            (x, y)
        };
        for _ in 0..8_000 {
            let (x, y) = gen(&mut rng);
            spdt.ingest(&x, y);
        }
        spdt.grow();
        assert!(spdt.tree().leaves() >= 3, "leaves = {}", spdt.tree().leaves());
        let mut correct = 0;
        for _ in 0..1_000 {
            let (x, y) = gen(&mut rng);
            if spdt.predict(&x) == y {
                correct += 1;
            }
        }
        assert!(correct > 800, "accuracy = {}/1000", correct);
    }

    #[test]
    fn split_clears_worker_histograms() {
        let cfg = SpdtConfig { features: 2, min_samples_split: 50.0, ..SpdtConfig::default() };
        let mut spdt = Spdt::new(cfg, &SchemeSpec::pkg(EstimateKind::Local), 4, u64::MAX, 7);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..2_000 {
            let (x, y) = sample(&mut rng, 2);
            spdt.ingest(&x, y);
        }
        let before = spdt.total_histograms();
        let splits = spdt.grow();
        assert!(splits >= 1);
        // Histograms of the split leaf were dropped.
        assert!(spdt.total_histograms() < before);
    }
}
