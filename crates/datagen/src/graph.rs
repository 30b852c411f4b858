//! Directed scale-free graph edge streams (the LJ / SL1 / SL2 substitutes).
//!
//! Q3 of the paper streams the edges of social graphs: "The input keys for
//! the source PE is the source vertex id, while the key sent to the worker
//! PE is the destination vertex id … This schema projects the out-degree
//! distribution of the graph on sources, and the in-degree distribution on
//! workers, both of which are highly skewed" (§V-B).
//!
//! We generate edges with the directed preferential-attachment model of
//! Bollobás, Borgs, Chayes & Riordan (SODA 2003): each new edge is, with
//! probability `alpha`, from a *new* vertex to an existing one chosen
//! preferentially by in-degree; with probability `beta`, between two
//! existing vertices (source by out-degree, target by in-degree); and
//! otherwise from an existing vertex to a *new* one. Both degree
//! distributions are power laws, matching the qualitative property the
//! experiment needs. A `uniform_mix` fraction of preferential picks is
//! replaced by uniform picks (the δ-smoothing of the model), which bounds
//! `p1` away from pathological concentration.

use rand::rngs::SmallRng;
use rand::Rng;

/// Parameters of the directed preferential-attachment process.
#[derive(Debug, Clone, Copy)]
pub struct GraphParams {
    /// P(new source → preferential target); creates a vertex per edge.
    pub alpha: f64,
    /// P(preferential source → preferential target); no new vertex.
    pub beta: f64,
    /// Fraction of "preferential" picks that are made uniform instead
    /// (degree smoothing).
    pub uniform_mix: f64,
}

impl GraphParams {
    /// `gamma = 1 − alpha − beta`: P(preferential source → new target).
    fn gamma(&self) -> f64 {
        1.0 - self.alpha - self.beta
    }

    /// Expected vertices created per edge (`alpha + gamma`).
    fn vertices_per_edge(&self) -> f64 {
        self.alpha + self.gamma()
    }

    /// Validate the parameter simplex.
    pub fn validate(&self) {
        assert!(self.alpha >= 0.0 && self.beta >= 0.0, "probabilities must be non-negative");
        assert!(self.alpha + self.beta <= 1.0, "alpha + beta must be at most 1");
        assert!((0.0..=1.0).contains(&self.uniform_mix), "uniform_mix must be a probability");
        assert!(self.vertices_per_edge() > 0.0, "alpha + gamma must be positive");
    }
}

/// Incremental generator state: endpoint lists implement preferential
/// selection (a vertex appears in `in_endpoints` once per incoming edge, so
/// a uniform pick from the list is a degree-proportional pick).
#[derive(Debug, Clone)]
pub struct GraphState {
    params: GraphParams,
    in_endpoints: Vec<u32>,
    out_endpoints: Vec<u32>,
    nodes: u32,
}

impl GraphState {
    /// Fresh state with a two-vertex seed edge (emitted implicitly; the
    /// first generated edge already has valid attachment targets).
    pub fn new(params: &GraphParams) -> Self {
        params.validate();
        Self { params: *params, in_endpoints: vec![1], out_endpoints: vec![0], nodes: 2 }
    }

    /// Vertices created so far.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    #[inline]
    fn new_node(&mut self) -> u32 {
        let id = self.nodes;
        self.nodes += 1;
        id
    }

    #[inline]
    fn pick_by_in_degree(&self, rng: &mut SmallRng) -> u32 {
        if rng.random::<f64>() < self.params.uniform_mix || self.in_endpoints.is_empty() {
            rng.random_range(0..self.nodes)
        } else {
            self.in_endpoints[rng.random_range(0..self.in_endpoints.len())]
        }
    }

    #[inline]
    fn pick_by_out_degree(&self, rng: &mut SmallRng) -> u32 {
        if rng.random::<f64>() < self.params.uniform_mix || self.out_endpoints.is_empty() {
            rng.random_range(0..self.nodes)
        } else {
            self.out_endpoints[rng.random_range(0..self.out_endpoints.len())]
        }
    }

    /// Generate the next directed edge `(source, target)`.
    pub fn next_edge(&mut self, rng: &mut SmallRng) -> (u64, u64) {
        let r: f64 = rng.random();
        let (src, dst) = if r < self.params.alpha {
            let dst = self.pick_by_in_degree(rng);
            let src = self.new_node();
            (src, dst)
        } else if r < self.params.alpha + self.params.beta {
            (self.pick_by_out_degree(rng), self.pick_by_in_degree(rng))
        } else {
            let src = self.pick_by_out_degree(rng);
            let dst = self.new_node();
            (src, dst)
        };
        self.out_endpoints.push(src);
        self.in_endpoints.push(dst);
        (u64::from(src), u64::from(dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn lj_like() -> GraphParams {
        GraphParams { alpha: 0.05, beta: 0.929, uniform_mix: 0.4 }
    }

    #[test]
    fn vertex_growth_matches_alpha_plus_gamma() {
        let p = lj_like();
        let mut st = GraphState::new(&p);
        let mut rng = SmallRng::seed_from_u64(1);
        let m = 200_000;
        for _ in 0..m {
            st.next_edge(&mut rng);
        }
        let expected = p.vertices_per_edge() * m as f64;
        let actual = st.nodes() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "nodes = {actual}, expected ≈ {expected}"
        );
    }

    #[test]
    fn in_degree_distribution_is_skewed() {
        let mut st = GraphState::new(&lj_like());
        let mut rng = SmallRng::seed_from_u64(2);
        let m = 300_000usize;
        let mut in_deg: HashMap<u64, u64> = HashMap::new();
        for _ in 0..m {
            let (_, dst) = st.next_edge(&mut rng);
            *in_deg.entry(dst).or_default() += 1;
        }
        let mut degs: Vec<u64> = in_deg.values().copied().collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top = degs[0] as f64;
        let mean = m as f64 / degs.len() as f64;
        // Preferential attachment: the head vertex collects far more than
        // the mean in-degree.
        assert!(top / mean > 20.0, "top/mean = {}", top / mean);
        // But p1 stays small (paper: LJ p1 = 0.29%); the smoothing mix keeps
        // the head from absorbing a constant fraction of all edges.
        assert!(top / m as f64 <= 0.02, "p1 = {}", top / m as f64);
    }

    #[test]
    fn out_degree_distribution_is_skewed() {
        let mut st = GraphState::new(&lj_like());
        let mut rng = SmallRng::seed_from_u64(3);
        let m = 300_000usize;
        let mut out_deg: HashMap<u64, u64> = HashMap::new();
        for _ in 0..m {
            let (src, _) = st.next_edge(&mut rng);
            *out_deg.entry(src).or_default() += 1;
        }
        let top = *out_deg.values().max().expect("non-empty") as f64;
        let mean = m as f64 / out_deg.len() as f64;
        assert!(top / mean > 20.0, "top/mean = {}", top / mean);
    }

    #[test]
    fn vertex_ids_are_dense() {
        let mut st = GraphState::new(&lj_like());
        let mut rng = SmallRng::seed_from_u64(4);
        let mut max_id = 0u64;
        for _ in 0..50_000 {
            let (s, d) = st.next_edge(&mut rng);
            max_id = max_id.max(s).max(d);
        }
        assert!(max_id < u64::from(st.nodes()), "ids exceed node counter");
    }

    #[test]
    #[should_panic(expected = "alpha + beta")]
    fn invalid_simplex_panics() {
        GraphParams { alpha: 0.8, beta: 0.9, uniform_mix: 0.0 }.validate();
    }
}
