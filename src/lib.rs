//! # partial-key-grouping
//!
//! A from-scratch Rust reproduction of **"The Power of Both Choices:
//! Practical Load Balancing for Distributed Stream Processing Engines"**
//! (Nasir, De Francisci Morales, García-Soriano, Kourtellis, Serafini —
//! ICDE 2015).
//!
//! PARTIAL KEY GROUPING (PKG) is a stream partitioning primitive that
//! brings the power of two choices to distributed stream processing via
//! **key splitting** (each key may be handled by *both* of its two hash
//! candidates, so no routing table or coordination is needed) and **local
//! load estimation** (each source balances only the traffic it generates,
//! which provably suffices). It balances skewed streams orders of magnitude
//! better than hash-based key grouping while using a bounded factor (≤ 2×)
//! more state than key grouping — versus `W×` for shuffle grouping.
//!
//! This workspace contains the algorithm, every baseline it was evaluated
//! against, the substrates that evaluation needs (workload generators
//! matching the paper's dataset statistics, a multi-source simulator, a
//! miniature Storm-like engine), the §VI applications (word count, heavy
//! hitters, naive Bayes, streaming decision trees), and one experiment
//! driver per table/figure of the paper. See `DESIGN.md` for the inventory
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Sixty seconds to PKG
//!
//! ```
//! use partial_key_grouping::prelude::*;
//!
//! let workers = 10;
//! let mut pkg = PartialKeyGrouping::new(workers, 2, Estimate::local(workers), 42);
//! let mut kg = KeyGrouping::new(workers, 42);
//!
//! // A skewed stream: 30% of messages carry one hot key.
//! let mut loads_pkg = vec![0u64; workers];
//! let mut loads_kg = vec![0u64; workers];
//! for i in 0..100_000u64 {
//!     let key = if i % 10 < 3 { 0 } else { i };
//!     loads_pkg[pkg.route(key, i)] += 1;
//!     loads_kg[kg.route(key, i)] += 1;
//! }
//! // PKG splits the hot key over its two candidates; KG cannot.
//! assert!(pkg_metrics::imbalance(&loads_pkg) < pkg_metrics::imbalance(&loads_kg) / 3.0);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Contents |
//! |-----------|----------|
//! | [`core`] (`pkg-core`) | PKG and the KG/SG/PoTC/greedy baselines, load estimators |
//! | [`hash`] (`pkg-hash`) | Murmur3 (from scratch), seeded hash families, FxHash |
//! | [`metrics`] (`pkg-metrics`) | imbalance, time series, latency histograms, capacity estimation |
//! | [`datagen`] (`pkg-datagen`) | the paper's dataset profiles as synthetic generators |
//! | [`sim`] (`pkg-sim`) | the multi-source simulation harness (Q1–Q3) |
//! | [`elastic`] (`pkg-elastic`) | runtime worker membership: join/leave plans over a stable id space |
//! | [`engine`] (`pkg-engine`) | the threaded mini-DSPE (Q4) |
//! | [`agg`] (`pkg-agg`) | the second aggregation phase: `PartialAgg` accumulators, windows, mergeable sketches |
//! | [`apps`] (`pkg-apps`) | the two-phase bolts; word count, heavy hitters, naive Bayes, SPDT |

#![forbid(unsafe_code)]

pub use pkg_agg as agg;
pub use pkg_apps as apps;
pub use pkg_core as core;
pub use pkg_datagen as datagen;
pub use pkg_elastic as elastic;
pub use pkg_engine as engine;
pub use pkg_hash as hash;
pub use pkg_metrics as metrics;
pub use pkg_sim as sim;

/// The most common imports for working with PKG.
pub mod prelude {
    pub use pkg_agg::{Count, Mean, PartialAgg, Sum, TopK};
    pub use pkg_apps::{AggregatorBolt, Collector, WindowedWorkerBolt};
    pub use pkg_core::{
        Estimate, EstimateKind, KeyGrouping, OfflineGreedy, PartialKeyGrouping, Partitioner,
        PinnedGreedy, SchemeSpec, ShuffleGrouping,
    };
    pub use pkg_datagen::DatasetProfile;
    pub use pkg_elastic::{Change, MembershipPlan};
    pub use pkg_engine::prelude::*;
    pub use pkg_metrics;
    pub use pkg_sim::{run as run_simulation, SimConfig};
}
