//! Stream message model and the buildable stream specification.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::alias::AliasTable;
use crate::drift::DriftState;
use crate::graph::{GraphParams, GraphState};
use crate::zipf::{ZipfRejection, ZipfTable};

/// One stream message `⟨t, k, v⟩` (§II of the paper). The payload `v` is
/// irrelevant to partitioning and omitted; `source_key` carries the
/// *secondary* key used to assign messages to source PEIs in the Q3 graph
/// experiments (the source vertex of an edge). For non-graph streams it
/// equals `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Timestamp in simulated milliseconds since stream start.
    pub ts_ms: u64,
    /// Message key (`k`): what the worker-side partitioner routes on.
    pub key: u64,
    /// Secondary key for source assignment (graph: source vertex).
    pub source_key: u64,
}

/// The sampling backend of a built stream (cheap to clone; large tables are
/// shared via `Arc`).
#[derive(Debug, Clone)]
pub(crate) enum Sampler {
    /// Zipf via CDF table (small/medium key spaces).
    ZipfTable(Arc<ZipfTable>),
    /// Zipf via rejection-inversion (huge key spaces, O(1) memory).
    ZipfRejection(ZipfRejection),
    /// Categorical via alias table (log-normal profiles).
    Alias(Arc<AliasTable>),
    /// Zipf table behind a drifting rank→key permutation (cashtags).
    Drift { table: Arc<ZipfTable>, drift: DriftState },
    /// Directed preferential-attachment graph edges.
    Graph(GraphParams),
}

/// A fully parameterized, reusable stream description.
///
/// Building a spec performs the expensive one-time work (fitting the Zipf
/// exponent to the target `p1`, building CDF/alias tables); iterating it is
/// cheap and deterministic in the iteration seed, so experiment sweeps build
/// once and iterate many times.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub(crate) name: String,
    pub(crate) messages: u64,
    pub(crate) key_space: u64,
    pub(crate) duration_ms: u64,
    pub(crate) sampler: Sampler,
}

impl StreamSpec {
    /// Dataset name (e.g. `"WP"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of messages the stream will yield.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Upper bound on distinct key ids (the key space `K`; graphs: vertex
    /// id space).
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// Total simulated duration in milliseconds; message `i` is stamped
    /// `i * duration / messages`.
    pub fn duration_ms(&self) -> u64 {
        self.duration_ms
    }

    /// A deterministic iterator over the stream for the given seed.
    pub fn iter(&self, seed: u64) -> StreamIter {
        StreamIter {
            rng: SmallRng::seed_from_u64(seed ^ 0x5075_9f1a_3c1e_88d1),
            sampler: self.sampler.clone(),
            emitted: 0,
            messages: self.messages,
            duration_ms: self.duration_ms,
            graph_state: match &self.sampler {
                Sampler::Graph(p) => Some(GraphState::new(p)),
                _ => None,
            },
        }
    }

    /// Probability of the most frequent key, when known exactly.
    pub fn p1(&self) -> Option<f64> {
        match &self.sampler {
            Sampler::ZipfTable(t) => Some(t.p1()),
            Sampler::Drift { table, .. } => Some(table.p1()),
            Sampler::Alias(a) => Some(a.p1()),
            Sampler::ZipfRejection(z) => Some(z.p1()),
            Sampler::Graph(_) => None,
        }
    }
}

/// Iterator yielding the messages of a [`StreamSpec`].
#[derive(Debug, Clone)]
pub struct StreamIter {
    rng: SmallRng,
    sampler: Sampler,
    emitted: u64,
    messages: u64,
    duration_ms: u64,
    graph_state: Option<GraphState>,
}

impl Iterator for StreamIter {
    type Item = Message;

    #[inline]
    fn next(&mut self) -> Option<Message> {
        if self.emitted >= self.messages {
            return None;
        }
        let ts_ms = if self.messages <= 1 {
            0
        } else {
            // Spread timestamps uniformly over the simulated duration.
            (self.emitted as u128 * self.duration_ms as u128 / self.messages as u128) as u64
        };
        let (key, source_key) = match &mut self.sampler {
            Sampler::ZipfTable(t) => {
                let k = t.sample(&mut self.rng);
                (k, k)
            }
            Sampler::ZipfRejection(z) => {
                let k = z.sample(&mut self.rng);
                (k, k)
            }
            Sampler::Alias(a) => {
                let k = a.sample(&mut self.rng);
                (k, k)
            }
            Sampler::Drift { table, drift } => {
                let rank = table.sample(&mut self.rng);
                let k = drift.map(rank, ts_ms, &mut self.rng);
                (k, k)
            }
            Sampler::Graph(_) => {
                let state = self.graph_state.as_mut().expect("graph state present");
                let (src, dst) = state.next_edge(&mut self.rng);
                // The Q3 schema: "the source PE inverts the edge" — messages
                // are keyed by destination vertex at the workers and by
                // source vertex at the sources.
                (dst, src)
            }
        };
        self.emitted += 1;
        Some(Message { ts_ms, key, source_key })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = (self.messages - self.emitted) as usize;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for StreamIter {}

#[cfg(test)]
mod tests {
    use crate::profiles::DatasetProfile;

    #[test]
    fn timestamps_are_monotone_and_span_duration() {
        let spec = DatasetProfile::lognormal2().with_messages(1_000).build(1);
        let msgs: Vec<_> = spec.iter(2).collect();
        assert_eq!(msgs.len(), 1_000);
        for w in msgs.windows(2) {
            assert!(w[0].ts_ms <= w[1].ts_ms);
        }
        assert_eq!(msgs[0].ts_ms, 0);
        assert!(msgs.last().expect("non-empty").ts_ms < spec.duration_ms());
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let spec = DatasetProfile::lognormal1().with_messages(5_000).build(3);
        let a: Vec<_> = spec.iter(10).collect();
        let b: Vec<_> = spec.iter(10).collect();
        let c: Vec<_> = spec.iter(11).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_stay_in_key_space() {
        let spec = DatasetProfile::cashtags().with_messages(20_000).build(4);
        for m in spec.iter(5) {
            assert!(m.key < spec.key_space(), "key {} out of range", m.key);
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let spec = DatasetProfile::lognormal2().with_messages(123).build(0);
        let mut it = spec.iter(0);
        assert_eq!(it.len(), 123);
        it.next();
        assert_eq!(it.len(), 122);
    }
}
