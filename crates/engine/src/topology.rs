//! Declarative topology construction (the DAG of Fig. 1).

use std::time::Duration;

use crate::bolt::Bolt;
use crate::grouping::Grouping;
use crate::spout::Spout;

/// Identifies a component (spout or bolt) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Factory creating the `i`-th instance of a spout component.
type SpoutFactory = Box<dyn Fn(usize) -> Box<dyn Spout> + Send>;
/// Factory creating the `i`-th instance of a bolt component.
type BoltFactory = Box<dyn Fn(usize) -> Box<dyn Bolt> + Send>;

pub(crate) enum ComponentKind {
    Spout(SpoutFactory),
    Bolt(BoltFactory),
}

pub(crate) struct Component {
    pub(crate) name: String,
    pub(crate) parallelism: usize,
    pub(crate) kind: ComponentKind,
    /// Input edges: (upstream node, grouping).
    pub(crate) inputs: Vec<(NodeId, Grouping)>,
    /// Tick interval for bolts (aggregation period), if any.
    pub(crate) tick_every: Option<Duration>,
}

/// A directed acyclic graph of spouts and bolts.
#[derive(Default)]
pub struct Topology {
    pub(crate) components: Vec<Component>,
}

/// Fluent handle returned by [`Topology::add_bolt`] for wiring inputs.
pub struct BoltHandle<'a> {
    topo: &'a mut Topology,
    id: NodeId,
}

impl BoltHandle<'_> {
    /// Subscribe this bolt to `from` with the given grouping.
    pub fn input(self, from: NodeId, grouping: Grouping) -> Self {
        assert!(
            from.0 < self.id.0,
            "inputs must reference earlier components (the builder is topological)"
        );
        self.topo.components[self.id.0].inputs.push((from, grouping));
        self
    }

    /// Configure a periodic tick (the aggregation period of Q4).
    pub fn tick_every(self, period: Duration) -> Self {
        assert!(!period.is_zero(), "tick period must be positive");
        self.topo.components[self.id.0].tick_every = Some(period);
        self
    }

    /// The component id, for wiring further bolts.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a spout component with `parallelism` instances; `factory(i)`
    /// creates instance `i`.
    pub fn add_spout(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Spout> + Send + 'static,
    ) -> NodeId {
        assert!(parallelism > 0, "parallelism must be positive");
        let id = NodeId(self.components.len());
        self.components.push(Component {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Spout(Box::new(factory)),
            inputs: Vec::new(),
            tick_every: None,
        });
        id
    }

    /// Add a bolt component; wire its inputs through the returned handle.
    pub fn add_bolt(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: impl Fn(usize) -> Box<dyn Bolt> + Send + 'static,
    ) -> BoltHandle<'_> {
        assert!(parallelism > 0, "parallelism must be positive");
        let id = NodeId(self.components.len());
        self.components.push(Component {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Bolt(Box::new(factory)),
            inputs: Vec::new(),
            tick_every: None,
        });
        BoltHandle { topo: self, id }
    }

    /// Validate structural invariants (every bolt has ≥ 1 input, names are
    /// unique). Called by the runtime before spawning threads.
    pub fn validate(&self) {
        let mut names = std::collections::HashSet::new();
        for (i, c) in self.components.iter().enumerate() {
            assert!(names.insert(&c.name), "duplicate component name {}", c.name);
            match c.kind {
                ComponentKind::Spout(_) => {
                    assert!(c.inputs.is_empty(), "spout {} cannot have inputs", c.name)
                }
                ComponentKind::Bolt(_) => {
                    assert!(!c.inputs.is_empty(), "bolt {} has no inputs", c.name);
                    for (from, _) in &c.inputs {
                        assert!(from.0 < i, "edge must go forward");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bolt::CountingBolt;
    use crate::spout::spout_from_iter;

    #[test]
    fn builder_wires_edges() {
        let mut t = Topology::new();
        let s = t.add_spout("s", 2, |_| spout_from_iter(Vec::new()));
        let b =
            t.add_bolt("b", 3, |_| Box::new(CountingBolt::default())).input(s, Grouping::Key).id();
        let _ =
            t.add_bolt("agg", 1, |_| Box::new(CountingBolt::default())).input(b, Grouping::Global);
        t.validate();
        assert_eq!(t.components.len(), 3);
        assert_eq!(t.components[1].inputs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "has no inputs")]
    fn bolt_without_inputs_is_invalid() {
        let mut t = Topology::new();
        let _ = t.add_bolt("orphan", 1, |_| Box::new(CountingBolt::default()));
        t.validate();
    }

    #[test]
    #[should_panic(expected = "duplicate component name")]
    fn duplicate_names_are_invalid() {
        let mut t = Topology::new();
        let s = t.add_spout("x", 1, |_| spout_from_iter(Vec::new()));
        let _ =
            t.add_bolt("x", 1, |_| Box::new(CountingBolt::default())).input(s, Grouping::Shuffle);
        t.validate();
    }
}
