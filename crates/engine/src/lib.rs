//! A miniature Storm-like distributed stream processing engine.
//!
//! The paper's Q4 experiments run word count "on a Storm cluster of 10
//! virtual servers" and measure throughput, end-to-end latency, and memory.
//! This crate substitutes that cluster with a real multi-threaded engine:
//! every instance is a task with a bounded mailbox, driven by one
//! activation loop, and [`runtime::ExecutorMode`] picks the schedule — the
//! faithful one-OS-thread-per-PEI mode, or a cooperative worker pool that
//! lets topologies with hundreds of instances fit one process. In both, an
//! overloaded instance exerts genuine
//! backpressure on its sources (exactly the mechanism that makes load
//! imbalance destroy throughput), and stream partitioning is pluggable
//! per edge via [`grouping::Grouping`] — including
//! [`grouping::Grouping::partial_key`], the paper's contribution. Every
//! keyed edge (shuffle, key, and the greedy family) routes through the
//! simulator's own router, one `pkg_core::Partitioner` per sender — PKG
//! with per-sender **local** load estimation, just as the reference Storm
//! `CustomStreamGrouping` does; the engine adds only global and broadcast
//! delivery.
//!
//! ```
//! use pkg_engine::prelude::*;
//!
//! // A 1-source → 3-counter topology over a tiny word stream.
//! let mut topo = Topology::new();
//! let words = topo.add_spout("words", 1, |_| {
//!     let mut n = 0u64;
//!     spout_from_fn(move || {
//!         n += 1;
//!         (n <= 1000).then(|| Tuple::new(format!("w{}", n % 7).into_bytes(), 1))
//!     })
//! });
//! let counts = topo
//!     .add_bolt("count", 3, |_| Box::new(CountingBolt::default()))
//!     .input(words, Grouping::partial_key());
//! let _ = counts;
//! let stats = Runtime::new().run(topo);
//! assert_eq!(stats.processed("count"), 1000);
//! ```

#![forbid(unsafe_code)]

pub mod bolt;
pub mod elastic;
pub mod grouping;
pub mod ingress;
pub mod load;
pub mod metrics;
pub(crate) mod pool;
pub mod ring;
pub mod runtime;
pub(crate) mod schedule;
pub mod spout;
pub(crate) mod sync;
pub(crate) mod task;
pub(crate) mod threads;
pub(crate) mod timer;
pub mod topology;
pub(crate) mod transport;
pub mod tuple;

/// Convenient glob import for building topologies.
pub mod prelude {
    pub use crate::bolt::{Bolt, CountingBolt, Emitter};
    pub use crate::elastic::{MigrationBus, MigrationMsg};
    pub use crate::grouping::Grouping;
    pub use crate::ingress::IngressOptions;
    pub use crate::load::LoadSignalOptions;
    pub use crate::runtime::{ExecutorMode, InstanceCapacities, Runtime, RuntimeOptions};
    pub use crate::spout::{spout_from_fn, spout_from_iter, Spout};
    pub use crate::topology::Topology;
    pub use crate::tuple::{Tuple, TupleKey};
}

pub use bolt::{Bolt, Emitter};
pub use elastic::{MigrationBus, MigrationMsg, EPOCH_MARKER_KEY};
pub use grouping::Grouping;
pub use ingress::IngressOptions;
pub use load::LoadSignalOptions;
pub use metrics::{InstanceStats, RunStats, WorkerStats};
pub use runtime::{edge_seed, ExecutorMode, InstanceCapacities, Runtime, RuntimeOptions};
pub use spout::Spout;
pub use topology::Topology;
pub use tuple::{Tuple, TupleKey};
