//! Data-mining applications from §VI of the paper, and the two-phase
//! aggregation bolts they run on.
//!
//! The paper motivates PKG with four application patterns, all of which are
//! implemented here on real substrates:
//!
//! * [`wordcount`] — streaming top-k word count, the running example (§II)
//!   and the application deployed on Storm for Q4 (Fig. 5). Three variants
//!   matching the paper's: key grouping with running counters, shuffle /
//!   partial key grouping with periodically-flushed partial counters plus a
//!   downstream aggregator.
//! * [`heavy_hitters`] — the SPACESAVING algorithm [Metwally et al.,
//!   ICDT'05] as a two-phase topology, with mergeable-summary combination
//!   [Berinde et al., TODS'10] (§VI-C): with PKG "the error for each item
//!   depends on the sum of only two error terms, regardless of the
//!   parallelism level".
//! * [`naive_bayes`] — a streaming naive Bayes classifier with vertical
//!   parallelism (§VI-A): feature-class co-occurrence counters partitioned
//!   by feature; PKG bounds the query fan-out to two workers per feature.
//! * [`decision_tree`] — the streaming parallel decision tree of Ben-Haim &
//!   Tom-Tov [JMLR'10] (§VI-B), built on `pkg-agg`'s fixed-size mergeable
//!   approximate histograms; PKG makes the histogram count per feature
//!   `2·D·C·L` instead of `W·D·C·L`.
//!
//! Key splitting needs a second aggregation phase (§V-D). `pkg-agg` holds
//! its algebra; the bolts that run it on the engine live here: [`bolts`]
//! (the generic [`WindowedWorkerBolt`] / [`AggregatorBolt`] pair, the one
//! phase-one flush `bolts::emit_partials`, and a [`Collector`] sink) and
//! [`shed`] ([`SketchDegrade`], a shed policy that folds refused tuples
//! into a Space-Saving summary). Phase one needs no variant behind an
//! elastic edge (`Grouping::elastic(plan)`): an instance that leaves the
//! live set stops receiving tuples, and its open pane flushes at its next
//! tick or at end of stream as one more split of each key, which the
//! aggregator merges like any other.

#![forbid(unsafe_code)]

pub mod bolts;
pub mod decision_tree;
pub mod heavy_hitters;
pub mod naive_bayes;
pub mod shed;
pub mod wordcount;

pub use bolts::{AggregatorBolt, Collector, ServiceDelay, WindowedWorkerBolt};
pub use decision_tree::SpdtConfig;
pub use heavy_hitters::{heavy_hitters_topology, HeavyHittersConfig};
pub use shed::SketchDegrade;
pub use wordcount::{wordcount_topology, WordCountConfig, WordCountVariant};
